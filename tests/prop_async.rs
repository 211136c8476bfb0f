//! Property tests for the asynchronous I/O plane under seeded fault
//! injection: a [`Reactor`] worker pool over a [`FaultBackend`] with
//! transient faults and a crash point that can fire *between submission
//! and drain* — the window the async split opens up — must preserve the
//! plane's cardinal invariant (an acknowledged append is never executed
//! twice) and, on the middleware path, leave only damage `fsck::repair`
//! can fully repair once the node revives.
//!
//! Seeds mix in `PLFS_FAULT_SEED` when set, exactly as the tier-1
//! crash-recovery gate does, so a pinned run replays the same fault
//! schedules byte-identically.

mod common;

use plfs::faults::{FaultBackend, FaultConfig};
use plfs::fsck;
use plfs::ioplane::async_plane;
use plfs::reader::ReadHandle;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Backend, Container, Content, Federation, IoOp, MemFs, Reactor};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Slot size for the writer-path property: disjoint slots keep readback
/// verification independent of overwrite order.
const SLOT: u64 = 96;

/// Optional pinned base seed (tier-1 style): mixed into every case.
fn base_seed() -> u64 {
    common::fault_seed(0xA5_F0_2012)
}

/// Round-robin the generated append lengths over a small file universe
/// and chunk them into batches, so several tickets are in flight against
/// the same paths at once.
fn plan_batches(lens: &[u64]) -> (Vec<String>, Vec<Vec<IoOp>>) {
    let files: Vec<String> = (0..4).map(|i| format!("/f{i}")).collect();
    let batches = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| IoOp::Append {
            path: files[i % files.len()].clone(),
            content: Content::synthetic(len, len),
        })
        .collect::<Vec<_>>()
        .chunks(5)
        .map(<[IoOp]>::to_vec)
        .collect();
    (files, batches)
}

/// Submit every batch before draining any (tickets genuinely overlap),
/// then drain in order and tally the acknowledged bytes per path.
fn submit_then_drain<B: Backend>(
    reactor: &Reactor<B>,
    batches: &[Vec<IoOp>],
) -> HashMap<String, u64> {
    let tickets: Vec<_> = batches
        .iter()
        .map(|b| async_plane::submit_tracked(reactor, b))
        .collect();
    let mut acked: HashMap<String, u64> = HashMap::new();
    for (batch, ticket) in batches.iter().zip(tickets) {
        let outcomes = async_plane::drain_retried(reactor, batch, ticket);
        for (op, outcome) in batch.iter().zip(&outcomes) {
            if let (IoOp::Append { path, content }, Ok(_)) = (op, outcome) {
                *acked.entry(path.clone()).or_insert(0) += content.len();
            }
        }
    }
    acked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reactor_drain_never_duplicates_acked_appends_under_transients(
        seed in 0u64..1_000_000,
        lens in prop::collection::vec(1u64..128, 1..32),
    ) {
        // Clean transients only: every acknowledged append landed exactly
        // once, every unacknowledged one landed nothing — even though the
        // batches executed concurrently on reactor workers and the retry
        // ran later, at the completion drain.
        let cfg = FaultConfig {
            seed: seed ^ base_seed(),
            transient_prob: 0.3,
            torn_append_prob: 0.0,
            crash_after_data_ops: None,
            crash_tears_append: false,
        };
        let backend = Arc::new(FaultBackend::new(MemFs::new(), cfg));
        let (files, batches) = plan_batches(&lens);
        for f in &files {
            backend.create(f, true).unwrap();
        }
        let reactor = Reactor::with_config(Arc::clone(&backend), 2, 4);
        let acked = submit_then_drain(&reactor, &batches);
        drop(reactor);
        backend.revive();
        for f in &files {
            prop_assert_eq!(
                backend.size(f).unwrap(),
                acked.get(f).copied().unwrap_or(0),
                "landed bytes on {} must equal acknowledged appends exactly",
                f
            );
        }
    }

    #[test]
    fn crash_between_submission_and_drain_never_duplicates_acked(
        seed in 0u64..1_000_000,
        crash_at in 1u64..8,
        lens in prop::collection::vec(1u64..128, 8..32),
    ) {
        // The crash point fires while tickets are still in flight (it is
        // below the number of submitted appends, and submission finishes
        // before the first drain). Everything after the freeze fails
        // cleanly, drain-time retry hits the frozen backend with a final
        // (non-transient) error instead of spinning, and the ledger still
        // balances: acknowledged bytes — nothing more, nothing less.
        let cfg = FaultConfig {
            seed: seed ^ base_seed(),
            transient_prob: 0.15,
            torn_append_prob: 0.0,
            crash_after_data_ops: Some(crash_at),
            crash_tears_append: false,
        };
        let backend = Arc::new(FaultBackend::new(MemFs::new(), cfg));
        let (files, batches) = plan_batches(&lens);
        for f in &files {
            backend.create(f, true).unwrap();
        }
        let reactor = Reactor::with_config(Arc::clone(&backend), 2, 4);
        let acked = submit_then_drain(&reactor, &batches);
        drop(reactor);
        prop_assert!(backend.crashed(), "schedule must cross the crash point");
        backend.revive();
        for f in &files {
            prop_assert_eq!(
                backend.size(f).unwrap(),
                acked.get(f).copied().unwrap_or(0),
                "landed bytes on {} must equal acknowledged appends exactly",
                f
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn write_behind_crash_leaves_fully_repairable_damage(
        seed in 0u64..1_000_000,
        crash_at in 4u64..48,
    ) {
        // The middleware seam: a write-behind writer over a reactor over
        // a faulty backend, with staging flushes in flight when the crash
        // lands. After the node revives, fsck must repair the container
        // completely (stale open-host record, stale staging scratch,
        // whatever the schedule tore) and every byte that reads back must
        // be real — acknowledged slots exactly, never an invented byte.
        let cfg = FaultConfig {
            seed: seed ^ base_seed(),
            transient_prob: 0.05,
            torn_append_prob: 0.0,
            crash_after_data_ops: Some(crash_at),
            crash_tears_append: true,
        };
        let backend = Arc::new(FaultBackend::new(MemFs::new(), cfg));
        let reactor = Arc::new(Reactor::with_config(Arc::clone(&backend), 2, 2));
        let container = Container::new("/ckpt", &Federation::single("/panfs", 4));
        let mut h = WriteHandle::open(
            Arc::clone(&reactor),
            container.clone(),
            1,
            IndexPolicy::WriteClose,
        )
        .expect("open is metadata-only and cannot hit data-path faults");
        h.enable_write_behind(2);

        let ops = 24usize;
        let contents: Vec<Vec<u8>> = (0..ops)
            .map(|i| Content::synthetic(500 + i as u64, SLOT).materialize())
            .collect();
        let mut landed = vec![false; ops];
        let mut crashed = false;
        'run: for i in 0..ops {
            match h.write(i as u64 * SLOT, &Content::bytes(contents[i].clone()), i as u64 + 1) {
                Ok(()) => landed[i] = true,
                Err(_) if backend.crashed() => {
                    crashed = true;
                    break 'run;
                }
                Err(_) => {}
            }
            if (i + 1) % 4 == 0 {
                match h.flush_index_async() {
                    Ok(()) => {}
                    Err(_) if backend.crashed() => {
                        crashed = true;
                        break 'run;
                    }
                    Err(_) => {}
                }
            }
        }

        let mut acked = vec![false; ops];
        if !crashed {
            // Close is the acknowledgement point for write-behind: a torn
            // staging drain can fail one attempt, so retry bounded.
            let mut closed = false;
            for _ in 0..4 {
                match h.close_in_place(9999) {
                    Ok(_) => {
                        closed = true;
                        break;
                    }
                    Err(_) if backend.crashed() => {
                        crashed = true;
                        break;
                    }
                    Err(_) => {}
                }
            }
            if closed {
                acked.copy_from_slice(&landed);
            } else {
                prop_assert!(
                    crashed,
                    "close must land within bounded retries absent a crash"
                );
            }
        }

        // Let every in-flight staging batch finish (failing against the
        // frozen backend, as it would on a dead node) before the restart:
        // drop the writer, then the reactor — its Drop drains the queue
        // and joins the workers.
        drop(h);
        drop(reactor);
        backend.revive();

        let pre = fsck::check(&backend, &container).expect("check over revived storage");
        if crashed {
            prop_assert!(
                !pre.is_clean(),
                "a crashed writer must leave visible damage: {:?}",
                pre.issues
            );
        }
        let outcome = fsck::repair(&backend, &container).expect("repair");
        prop_assert!(
            outcome.fully_repaired(),
            "repair left damage behind: unrepaired={:?} post={:?}",
            outcome.unrepaired,
            outcome.post.issues
        );

        let mut r = ReadHandle::open(Arc::clone(&backend), container)
            .expect("container must be readable after repair");
        for (i, want) in contents.iter().enumerate() {
            let got = r.read(i as u64 * SLOT, SLOT).expect("read");
            if acked[i] {
                prop_assert_eq!(
                    &got,
                    want,
                    "acknowledged slot {} must read back exactly",
                    i
                );
            } else {
                for (j, &g) in got.iter().enumerate() {
                    prop_assert!(
                        g == 0 || g == want[j],
                        "slot {} byte {}: read 0x{:02x}, expected 0x{:02x} or a hole",
                        i, j, g, want[j]
                    );
                }
            }
        }
    }
}
