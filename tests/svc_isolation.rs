//! Tenant-isolation property for the service layer (DESIGN.md §5k):
//! a tenant that crashes mid-append over a faulty backend must never
//! corrupt another tenant's container.
//!
//! One shared [`Service`] runs over a seeded [`FaultBackend`] injecting
//! transient failures and torn appends. Tenant `live` appends with
//! retries and closes cleanly; tenant `dead` appends without retrying
//! and is then abandoned — its session leaves the table but the writer
//! underneath drops un-closed, exactly a client dying mid-stream with
//! its index still buffered. Afterwards `live`'s file must read back
//! byte-exact through the service, `fsck::repair` on `dead`'s container
//! must converge, and the repair must leave `live`'s bytes untouched.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test code: a failed unwrap or panic is the test's failure report"
)]

use plfs::faults::{FaultBackend, FaultConfig};
use plfs::fsck;
use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::{Container, Content, Federation, MemFs, SvcHandle};
use proptest::prelude::*;
use std::sync::Arc;

type FaultySvc = Service<Arc<FaultBackend<MemFs>>>;

/// Retry an op past throttling AND injected faults. Failed appends
/// are safe to retry: a torn append lands unindexed bytes in the data
/// log, and only acknowledged writes gain index entries.
fn insist<T>(mut op: impl FnMut() -> plfs::Result<Admitted<T>>) -> T {
    for _ in 0..10_000 {
        match op() {
            Ok(Admitted::Granted(v)) => return v,
            Ok(Admitted::Throttled { .. }) | Err(_) => std::thread::yield_now(),
        }
    }
    panic!("service op did not succeed within the retry budget");
}

/// Read tenant `live`'s whole file through the service and check it
/// against what was acknowledged.
fn assert_live_intact(svc: &FaultySvc, expect: &[u8], when: &str) {
    let r = insist(|| svc.open_read("live", "/data"));
    let got = insist(|| svc.read(r, 0, expect.len() as u64));
    svc.close(r).unwrap();
    assert_eq!(
        got, expect,
        "tenant live's bytes diverged {when} (len {} vs {})",
        got.len(),
        expect.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn tenant_crash_mid_append_never_corrupts_another_tenant(
        seed in 0u64..1_000_000,
        live_ops in 4usize..16,
        dead_ops in 1usize..12,
    ) {
        let fault_cfg = FaultConfig {
            seed,
            transient_prob: 0.05,
            torn_append_prob: 0.15,
        };
        let backend = Arc::new(FaultBackend::new(MemFs::new(), fault_cfg));
        // An append error means *this* op, so the no-retry tenant's
        // acked set is well defined: the trace never nears the dirty
        // budget, so no append also carries a forced index flush.
        let svc = Service::new(Arc::clone(&backend), ServiceConfig::basic("/panfs")).unwrap();

        // Tenant `live`: every append retried until acknowledged.
        let lw = insist(|| svc.open_write("live", "/data"));
        let mut expect = Vec::new();
        for op in 0..live_ops {
            let body: Vec<u8> = (0..48).map(|i| (seed as u8) ^ (op as u8) ^ i).collect();
            insist(|| svc.append(lw, expect.len() as u64, &Content::bytes(body.clone())));
            expect.extend_from_slice(&body);
        }

        // Tenant `dead`: fire-and-forget appends (injected faults may
        // tear them), then the client dies mid-stream.
        let dw: SvcHandle = insist(|| svc.open_write("dead", "/ckpt"));
        let mut dead_off = 0u64;
        for op in 0..dead_ops {
            let body = vec![0xD0 | (op as u8 & 0x0F); 32];
            match svc.append(dw, dead_off, &Content::bytes(body)) {
                Ok(Admitted::Granted(())) => dead_off += 32,
                Ok(Admitted::Throttled { .. }) | Err(_) => {}
            }
        }
        prop_assert!(svc.abandon(dw), "abandoning a live handle must report it");
        prop_assert!(!svc.abandon(dw), "a second abandon must find nothing");

        // The fault storm quiesces (restart semantics); the survivor
        // then reaches its acknowledgement point, which must not be
        // disturbed by the dead tenant's wreckage.
        backend.disarm();
        insist(|| svc.append(lw, expect.len() as u64, &Content::bytes(b"tail".to_vec())));
        expect.extend_from_slice(b"tail");
        svc.close(lw).unwrap();
        prop_assert_eq!(svc.open_handles(), 0);

        assert_live_intact(&svc, &expect, "before repairing the dead container");

        // Operator-side recovery of the dead tenant's container only.
        let fed = Federation::single("/panfs", 4);
        let dead_container = Container::new("/dead/ckpt", &fed);
        let outcome = fsck::repair(&backend, &dead_container).unwrap();
        prop_assert!(
            outcome.fully_repaired(),
            "dead container must repair cleanly: unrepaired={:?} post={:?}",
            outcome.unrepaired,
            outcome.post.issues
        );

        // The live tenant's container was never part of the repair.
        let live_container = Container::new("/live/data", &fed);
        let live_check = fsck::check(&backend, &live_container).unwrap();
        prop_assert!(
            live_check.is_clean(),
            "live container must stay clean: {:?}",
            live_check.issues
        );
        assert_live_intact(&svc, &expect, "after repairing the dead container");
    }
}

#[test]
fn abandoned_handle_frees_its_table_slot() {
    let backend = Arc::new(FaultBackend::new(MemFs::new(), FaultConfig::off()));
    let svc = Service::new(backend, ServiceConfig::basic("/panfs")).unwrap();
    let h = insist(|| svc.open_write("t", "/f"));
    assert_eq!(svc.open_handles(), 1);
    assert!(svc.abandon(h));
    assert_eq!(svc.open_handles(), 0);
    assert!(svc.close(h).is_err(), "abandoned handles are stale");
}
