//! Property test for the multi-tenant service layer (DESIGN.md §5k):
//! the sharded handle table must be observably equivalent to a
//! single-lock reference under random concurrent open/append/close
//! interleavings.
//!
//! Each generated case is a set of per-client scripts (files to open,
//! appends per file). The scripts run twice over identical inputs:
//! once through `plfs::Service` with one OS thread per client (the
//! sharded table under real contention — thread scheduling supplies
//! the interleaving), and once through a deliberately naive reference
//! where *every* operation serializes on one global mutex. Clients
//! write disjoint files, so whatever interleaving the scheduler picks,
//! the final per-file bytes must match the reference exactly — along
//! with the open-handle accounting draining to zero.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::disallowed_types,
    reason = "test code: a failed unwrap or expect is the test's failure report; test-only locks need no rank"
)]

use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::writer::WriteHandle;
use plfs::{Content, MemFs, Plfs, PlfsConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Deterministic append body for (client, file, op): equivalence must
/// compare real bytes, not just lengths.
fn body(client: usize, file: usize, op: usize, len: u64) -> Vec<u8> {
    let tag = (client as u8)
        .wrapping_mul(31)
        .wrapping_add(file as u8)
        .wrapping_mul(17)
        .wrapping_add(op as u8);
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

fn tenant_of(client: usize) -> String {
    // Two clients per tenant, so tenants share admission state.
    format!("t{}", client / 2)
}

fn logical_of(client: usize, file: usize) -> String {
    format!("/c{client}/f{file}")
}

/// Retry a service call past (rare) throttling; the test configures
/// generous buckets, so this spins at most a few times.
fn admitted<T>(mut op: impl FnMut() -> plfs::Result<Admitted<T>>) -> T {
    loop {
        match op().expect("service op") {
            Admitted::Granted(v) => return v,
            Admitted::Throttled { .. } => std::thread::yield_now(),
        }
    }
}

/// The single-lock reference: the same `Plfs` semantics with every
/// operation — including I/O — serialized on one global mutex. What
/// the service would be without the sharded table.
struct SingleLockRef {
    inner: Mutex<RefInner>,
}

struct RefInner {
    fs: Plfs<Arc<MemFs>>,
    open: HashMap<u64, (WriteHandle<Arc<MemFs>>, String)>,
    next: u64,
}

impl SingleLockRef {
    fn new() -> SingleLockRef {
        let fs = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap();
        SingleLockRef {
            inner: Mutex::new(RefInner {
                fs,
                open: HashMap::new(),
                next: 1,
            }),
        }
    }

    fn open_write(&self, tenant: &str, logical: &str) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let id = g.next;
        g.next += 1;
        let h = g.fs.open_write(&format!("/{tenant}{logical}"), id).unwrap();
        g.open.insert(id, (h, String::new()));
        id
    }

    fn append(&self, id: u64, offset: u64, bytes: &[u8]) {
        let mut g = self.inner.lock().unwrap();
        let ts = g.fs.timestamp();
        let (h, _) = g.open.get_mut(&id).unwrap();
        h.write(offset, &Content::bytes(bytes.to_vec()), ts).unwrap();
    }

    fn close(&self, id: u64) {
        let mut g = self.inner.lock().unwrap();
        let ts = g.fs.timestamp();
        let (h, _) = g.open.remove(&id).unwrap();
        h.close(ts).unwrap();
    }

    fn read_all(&self, tenant: &str, logical: &str) -> Vec<u8> {
        let g = self.inner.lock().unwrap();
        let mut r = g.fs.open_read(&format!("/{tenant}{logical}")).unwrap();
        let size = r.size();
        r.read(0, size).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sharded_table_is_equivalent_to_single_lock_reference(
        // scripts[client][file] = the append lengths for that file.
        scripts in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(1u64..=96, 1..5), 1..4),
            2..5,
        ),
    ) {
        // Concurrent run through the sharded service.
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1 << 20;
        cfg.token_burst = 1 << 12;
        let svc = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
        std::thread::scope(|scope| {
            for (client, files) in scripts.iter().enumerate() {
                let svc = &svc;
                scope.spawn(move || {
                    let tenant = tenant_of(client);
                    for (file, lens) in files.iter().enumerate() {
                        let h = admitted(|| svc.open_write(&tenant, &logical_of(client, file)));
                        let mut offset = 0;
                        for (op, &len) in lens.iter().enumerate() {
                            let bytes = body(client, file, op, len);
                            admitted(|| svc.append(h, offset, &Content::bytes(bytes.clone())));
                            offset += len;
                        }
                        svc.close(h).unwrap();
                    }
                });
            }
        });

        // Sequential run through the single-lock reference.
        let reference = SingleLockRef::new();
        for (client, files) in scripts.iter().enumerate() {
            let tenant = tenant_of(client);
            for (file, lens) in files.iter().enumerate() {
                let id = reference.open_write(&tenant, &logical_of(client, file));
                let mut offset = 0;
                for (op, &len) in lens.iter().enumerate() {
                    reference.append(id, offset, &body(client, file, op, len));
                    offset += len;
                }
                reference.close(id);
            }
        }

        // Observable equivalence: every file byte-identical, handle
        // accounting drained on both sides.
        prop_assert_eq!(svc.open_handles(), 0);
        for (client, files) in scripts.iter().enumerate() {
            let tenant = tenant_of(client);
            for file in 0..files.len() {
                let logical = logical_of(client, file);
                let r = admitted(|| svc.open_read(&tenant, &logical));
                let expect = reference.read_all(&tenant, &logical);
                let got = admitted(|| svc.read(r, 0, expect.len() as u64));
                svc.close(r).unwrap();
                prop_assert_eq!(
                    got, expect,
                    "client {} file {} diverged from the single-lock reference",
                    client, file
                );
            }
        }
        prop_assert_eq!(svc.open_handles(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn concurrent_open_close_churn_never_leaks_or_collides(
        per_thread in 2usize..12,
        threads in 2usize..6,
    ) {
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1 << 20;
        cfg.token_burst = 1 << 12;
        let svc = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
        let ids = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (svc, ids) = (&svc, &ids);
                scope.spawn(move || {
                    for k in 0..per_thread {
                        let tenant = format!("t{t}");
                        let h = admitted(|| svc.open_write(&tenant, &format!("/churn{k}")));
                        admitted(|| svc.append(h, 0, &Content::bytes(vec![t as u8; 8])));
                        ids.lock().unwrap().push(h.id());
                        svc.close(h).unwrap();
                        // A second close of the same handle must fail
                        // as stale, not touch another session.
                        assert!(svc.close(h).is_err());
                    }
                });
            }
        });
        let mut seen = ids.into_inner().unwrap();
        let total = seen.len();
        prop_assert_eq!(total, threads * per_thread);
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), total, "handle ids must never be reused");
        prop_assert_eq!(svc.open_handles(), 0);
    }
}
