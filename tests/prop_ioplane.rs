//! Property tests for the I/O plane (tentpole satellite): a backend's
//! native `submit` fast path must be *observably equivalent* to issuing
//! the same ops one call at a time — same per-op outcomes, same final
//! on-disk state — on MemFs (single-lock batches), LocalFs (vectored
//! runs), and under a seeded `FaultBackend` (per-op fault gating inside
//! batches). A fourth property pins the retry contract: per-op transient
//! retry never re-executes an append that already succeeded, so landed
//! bytes always equal the sum of acknowledged appends.
//!
//! The inline `submit_async` — the trait default, and through the
//! passthrough [`Reactor`] — must be observably equivalent to the
//! synchronous paths op for op.
//!
//! And the two real backends are checked against each other: `MemFs` is
//! the reference under every byte-verifying test, so the same op sequence
//! on `MemFs` and on `LocalFs` must give the same outcome *shapes* (the
//! value, or the error's variant) and the same final state.
//!
//! Last, the write path's retry budget: a backend that only ever fails
//! transiently costs exactly `DEFAULT_RETRY_ATTEMPTS` tries, then the
//! error surfaces as retryable.

mod common;

use common::TempDir;
use plfs::faults::{FaultBackend, FaultConfig};
use plfs::ioplane;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Backend, Container, Content, Federation, IoOp, LocalFs, MemFs, Reactor};
use proptest::prelude::*;
use std::sync::Arc;

/// Small closed path universe so random ops collide often enough to hit
/// the interesting cases (append runs, create-over-existing, rename onto
/// a live target, readdir of a file), three levels deep so subtree
/// rename / remove of depth two, rename into the source's own subtree
/// and a path *through* a file are all generated.
const PATHS: &[&str] = &["/a", "/b", "/d", "/d/x", "/d/y", "/d/x/z", "/e"];

fn arb_path() -> impl Strategy<Value = String> {
    prop::sample::select(PATHS.iter().map(|p| p.to_string()).collect())
}

fn arb_op() -> impl Strategy<Value = IoOp> {
    (0usize..11, arb_path(), arb_path(), 1u64..128, 0u64..96).prop_map(
        |(kind, path, path2, len, offset)| match kind {
            0 => IoOp::Mkdir { path },
            1 => IoOp::MkdirAll { path },
            2 => IoOp::Create {
                path,
                exclusive: len % 2 == 0,
            },
            3 => IoOp::Append {
                path,
                content: Content::synthetic(len, len),
            },
            4 => IoOp::ReadAt { path, offset, len },
            5 => IoOp::Size { path },
            6 => IoOp::Kind { path },
            7 => IoOp::Readdir { path },
            8 => IoOp::Unlink { path },
            9 => IoOp::RemoveAll { path },
            _ => IoOp::Rename {
                from: path,
                to: path2,
            },
        },
    )
}

/// Outcome signature: structural equality via Debug (PlfsError does not
/// implement PartialEq), with backend-root noise scrubbed by the caller.
fn sigs(outcomes: &[ioplane::IoOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| format!("{o:?}")).collect()
}

/// Outcome shape: the value, or only the error's variant — what two
/// *different* backends must agree on (their messages cannot: one side's
/// carry host paths and OS error text).
fn shapes(outcomes: &[ioplane::IoOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(v) => format!("{v:?}"),
            Err(e) => {
                let variant = format!("{e:?}");
                variant[..variant.find(['(', ' ']).unwrap_or(variant.len())].to_string()
            }
        })
        .collect()
}

/// Final-state probe: kind, size, full content, and listing of every
/// universe path, collected through the sequential path on both sides.
fn probe<B: Backend>(b: &B) -> Vec<String> {
    sigs(&probe_outcomes(b))
}

fn probe_outcomes<B: Backend>(b: &B) -> Vec<ioplane::IoOutcome> {
    let ops: Vec<IoOp> = PATHS
        .iter()
        .flat_map(|p| {
            [
                IoOp::Kind {
                    path: p.to_string(),
                },
                IoOp::Size {
                    path: p.to_string(),
                },
                IoOp::ReadAt {
                    path: p.to_string(),
                    offset: 0,
                    len: 1 << 16,
                },
                IoOp::Readdir {
                    path: p.to_string(),
                },
            ]
        })
        .collect();
    ioplane::replay(b, &ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memfs_submit_is_equivalent_to_sequential_calls(
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let batched = MemFs::new();
        let sequential = MemFs::new();
        let got = sigs(&batched.submit(&ops));
        let want = sigs(&ioplane::replay(&sequential, &ops));
        prop_assert_eq!(got, want, "per-op outcomes diverged");
        prop_assert_eq!(probe(&batched), probe(&sequential), "final state diverged");
    }

    #[test]
    fn localfs_submit_is_equivalent_to_sequential_calls(
        ops in prop::collection::vec(arb_op(), 0..24),
    ) {
        let mk = || {
            let dir = TempDir::new("plfs-prop-ioplane");
            (LocalFs::new(dir.path()).unwrap(), dir)
        };
        let (batched, bdir) = mk();
        let (sequential, sdir) = mk();
        // Scrub each backend's host root out of error messages so the two
        // sides compare on structure, not on temp-dir names.
        let scrub = |sig: Vec<String>, root: &std::path::Path| -> Vec<String> {
            let root = root.display().to_string();
            sig.into_iter().map(|s| s.replace(&root, "<root>")).collect()
        };
        let got = scrub(sigs(&batched.submit(&ops)), bdir.path());
        let want = scrub(sigs(&ioplane::replay(&sequential, &ops)), sdir.path());
        prop_assert_eq!(got, want, "per-op outcomes diverged");
        prop_assert_eq!(
            scrub(probe(&batched), bdir.path()),
            scrub(probe(&sequential), sdir.path()),
            "final state diverged"
        );
    }

    #[test]
    fn memfs_and_localfs_agree_op_for_op(
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        // No row of tolerated differences: every divergence this found
        // (a path through a file, create / append / mkdir_all on the
        // wrong kind, rename into the source's own subtree) was closed in
        // `LocalFs`'s error mapping, so the two must now agree outright.
        let dir = TempDir::new("plfs-prop-differential");
        let local = LocalFs::new(dir.path()).unwrap();
        let mem = MemFs::new();
        let got = shapes(&ioplane::replay(&local, &ops));
        let want = shapes(&ioplane::replay(&mem, &ops));
        for (i, op) in ops.iter().enumerate() {
            prop_assert_eq!(&got[i], &want[i], "op {} of {:?}: LocalFs vs MemFs", i, op);
        }
        prop_assert_eq!(
            shapes(&probe_outcomes(&local)),
            shapes(&probe_outcomes(&mem)),
            "final state diverged"
        );
    }

    #[test]
    fn faulty_submit_is_equivalent_to_sequential_calls(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        // Same seed + same op order ⇒ the default submit must gate each
        // op through the injector exactly as sequential calls do.
        let cfg = FaultConfig::flaky(seed);
        let batched = FaultBackend::new(MemFs::new(), cfg.clone());
        let sequential = FaultBackend::new(MemFs::new(), cfg);
        let got = sigs(&batched.submit(&ops));
        let want = sigs(&ioplane::replay(&sequential, &ops));
        prop_assert_eq!(got, want, "per-op outcomes diverged under faults");
        // Disarm injection before probing so the state comparison itself
        // is fault-free.
        batched.disarm();
        sequential.disarm();
        prop_assert_eq!(probe(&batched), probe(&sequential), "final state diverged");
    }

    #[test]
    fn per_op_retry_never_duplicates_acknowledged_appends(
        seed in 0u64..1_000_000,
        lens in prop::collection::vec(1u64..256, 1..24),
    ) {
        // All-transient faults (nothing ever half-lands): every Ok append
        // landed exactly once, every Err append landed nothing. If retry
        // ever re-executed an op that had already succeeded, the file
        // would hold *more* than the acknowledged bytes.
        let cfg = FaultConfig {
            seed,
            transient_prob: 0.35,
            torn_append_prob: 0.0,
        };
        let b = FaultBackend::new(MemFs::new(), cfg);
        b.create("/f", true).unwrap();
        let batch: Vec<IoOp> = lens
            .iter()
            .map(|&len| IoOp::Append {
                path: "/f".to_string(),
                content: Content::synthetic(len, len),
            })
            .collect();
        let outcomes = ioplane::submit_retried(&b, &batch);
        let acknowledged: u64 = outcomes
            .iter()
            .zip(&lens)
            .filter(|(o, _)| o.is_ok())
            .map(|(_, &len)| len)
            .sum();
        b.disarm();
        prop_assert_eq!(
            b.size("/f").unwrap(),
            acknowledged,
            "landed bytes must equal acknowledged appends exactly"
        );
    }

    #[test]
    fn inline_submit_async_is_equivalent_to_submit(
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        // The trait default: an already-complete ticket whose outcomes
        // are exactly what the synchronous fast path would have returned.
        let async_side = MemFs::new();
        let sync_side = MemFs::new();
        let got = sigs(&async_side.submit_async(&ops).wait());
        let want = sigs(&sync_side.submit(&ops));
        prop_assert_eq!(got, want, "inline async outcomes diverged from submit");
        prop_assert_eq!(probe(&async_side), probe(&sync_side), "final state diverged");
    }

    #[test]
    fn reactor_submit_async_is_equivalent_to_sequential_calls(
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        // The passthrough shim the benchmark builds: one batch, one
        // ticket, and the outcomes must be indistinguishable from having
        // issued the ops one call at a time.
        let reactor = Reactor::with_config(Arc::new(MemFs::new()), 2, 4);
        let sequential = MemFs::new();
        let got = sigs(&reactor.submit_async(&ops).wait());
        let want = sigs(&ioplane::replay(&sequential, &ops));
        prop_assert_eq!(got, want, "reactor outcomes diverged from sequential calls");
        prop_assert_eq!(probe(&reactor), probe(&sequential), "final state diverged");
    }
}

#[test]
fn transient_retries_are_bounded_and_surface() {
    // A backend that *always* fails transiently: the write path must give
    // up after exactly DEFAULT_RETRY_ATTEMPTS, not hang, and report the
    // failure as retryable.
    let cfg = FaultConfig {
        seed: 3,
        transient_prob: 1.0,
        torn_append_prob: 0.0,
    };
    let b = Arc::new(FaultBackend::new(MemFs::new(), cfg));
    let cont = Container::new("/f", &Federation::single("/panfs", 2));
    let mut h = WriteHandle::open(Arc::clone(&b), cont, 0, IndexPolicy::WriteClose).unwrap();
    let err = h.write(0, &Content::bytes(vec![7; 16]), 1).unwrap_err();
    assert!(
        err.is_transient(),
        "exhausted retries surface the last error: {err}"
    );
    assert_eq!(
        b.stats().transients,
        u64::from(plfs::DEFAULT_RETRY_ATTEMPTS),
        "exactly the configured retry budget was spent"
    );
    assert_eq!(b.stats().torn_appends, 0);
}
