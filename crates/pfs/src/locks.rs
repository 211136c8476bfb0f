//! Stripe-lock management for shared-file writes.
//!
//! Parallel file systems serialize conflicting writes to a shared file by
//! handing out per-stripe (PanFS), per-extent (Lustre), or per-token
//! (GPFS) write locks. When two client nodes alternate writes within one
//! stripe, ownership ping-pongs: each transfer is a round trip through a
//! lock service and a client-cache flush. For the strided N-1 checkpoint
//! pattern this happens on nearly every write — the mechanism behind the
//! "up to two orders of magnitude" N-1 vs N-N gap the paper builds on.
//!
//! Model: each file has a single-server FIFO lock service. A write by
//! client `c` to stripe `s` costs one `lock_transfer` service iff the
//! stripe's current owner is a different client (first touch is cheap —
//! the lock is granted unowned). Same-client re-writes are free.
//!
//! Ownership is per *client process* (rank), not per node: PanFS-era
//! clients hold per-process layout and lock sessions, so two ranks on the
//! same node still ping-pong — which is why the N-1 penalty shows up even
//! with dense rank placement.

use simcore::{Fifo, SimDuration, SimTime};
use std::collections::HashMap;

use crate::state::FileId;

/// Stripes tracked per ownership generation. Two generations are live at
/// once, so per-file lock memory stays bounded (~2 × this many map
/// entries) no matter how large the file or how long the run — without
/// rotation a 65,536-rank strided checkpoint accumulates an owner entry
/// for every stripe ever touched. An entry that ages out of both
/// generations is forgotten and behaves like a first touch again: a
/// conservative *undercount* of transfers that only engages once a file
/// has seen over a million distinct stripes between revisits, far beyond
/// any re-touch distance in the Figure 4/5/7 workloads.
const GENERATION_STRIPES: usize = 1 << 20;

/// Per-file stripe ownership plus the lock service queue.
#[derive(Debug)]
struct FileLocks {
    /// stripe index → owning client (rank), newest generation.
    current: HashMap<u64, u64>,
    /// The previous generation, consulted on a `current` miss.
    previous: HashMap<u64, u64>,
    /// Generation capacity (a test hook; `GENERATION_STRIPES` in production).
    cap: usize,
    service: Fifo,
}

impl FileLocks {
    /// Current owner of `stripe`, if still tracked. A hit found only in
    /// the previous generation is promoted so active stripes survive
    /// rotation.
    fn owner_of(&mut self, stripe: u64) -> Option<u64> {
        if let Some(&o) = self.current.get(&stripe) {
            return Some(o);
        }
        let o = self.previous.get(&stripe).copied()?;
        self.set_owner(stripe, o);
        Some(o)
    }

    fn set_owner(&mut self, stripe: u64, client: u64) {
        if self.current.len() >= self.cap && !self.current.contains_key(&stripe) {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(stripe, client);
    }
}

/// Lock manager across all shared files.
#[derive(Debug)]
pub(crate) struct LockManager {
    files: HashMap<FileId, FileLocks>,
    generation_cap: usize,
    transfers: u64,
    grants: u64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager {
            files: HashMap::new(),
            generation_cap: GENERATION_STRIPES,
            transfers: 0,
            grants: 0,
        }
    }
}

impl LockManager {
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Test hook: a tiny generation capacity makes rotation observable.
    #[cfg(test)]
    fn with_generation_cap(cap: usize) -> Self {
        LockManager {
            generation_cap: cap,
            ..LockManager::default()
        }
    }

    /// Acquire the stripes `[first, last]` of `file` for writing from
    /// `client`, arriving at `arrival`. Returns when all required
    /// transfers are complete (`arrival` unchanged if the client already
    /// owns all stripes).
    pub fn acquire(
        &mut self,
        file: FileId,
        client: u64,
        first_stripe: u64,
        last_stripe: u64,
        transfer_cost: SimDuration,
        arrival: SimTime,
    ) -> SimTime {
        let cap = self.generation_cap;
        let fl = self.files.entry(file).or_insert_with(|| FileLocks {
            current: HashMap::new(),
            previous: HashMap::new(),
            cap,
            service: Fifo::new("stripe-lock", 1),
        });
        let mut finish = arrival;
        for stripe in first_stripe..=last_stripe {
            self.grants += 1;
            match fl.owner_of(stripe) {
                Some(owner) if owner == client => {}
                Some(_) => {
                    // Ownership transfer: serialize through the per-file
                    // lock service (revoke + flush + grant).
                    let g = fl.service.acquire(finish, transfer_cost);
                    finish = g.finish;
                    fl.set_owner(stripe, client);
                    self.transfers += 1;
                }
                None => {
                    // First touch: grant without revocation; charged as a
                    // tenth of a transfer (lock message, no flush).
                    let g = fl.service.acquire(finish, transfer_cost / 10);
                    finish = g.finish;
                    fl.set_owner(stripe, client);
                }
            }
        }
        finish
    }

    /// Total ownership transfers observed (the contention diagnostic).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total stripe grants requested.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Drop all lock state (e.g. when a file is deleted).
    pub(crate) fn forget_file(&mut self, file: FileId) {
        self.files.remove(&file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn first_touch_is_cheap_re_touch_is_free() {
        let mut lm = LockManager::new();
        let f1 = lm.acquire(1, 0, 0, 0, d(1.0), t(0.0));
        assert_eq!(f1, t(0.1)); // tenth of a transfer
        let f2 = lm.acquire(1, 0, 0, 0, d(1.0), f1);
        assert_eq!(f2, f1); // same node: free
        assert_eq!(lm.transfers(), 0);
    }

    #[test]
    fn cross_node_writes_ping_pong() {
        let mut lm = LockManager::new();
        let mut now = t(0.0);
        for i in 0..10 {
            now = lm.acquire(1, (i % 2) as u64, 0, 0, d(1.0), now);
        }
        // 1 first touch (0.1) + 9 transfers (1.0 each).
        assert_eq!(lm.transfers(), 9);
        assert_eq!(now, t(9.1));
    }

    #[test]
    fn disjoint_stripes_do_not_conflict_but_share_service() {
        let mut lm = LockManager::new();
        // Two nodes, each on its own stripe: first touches only.
        let a = lm.acquire(1, 0, 0, 0, d(1.0), t(0.0));
        let b = lm.acquire(1, 1, 1, 1, d(1.0), t(0.0));
        assert_eq!(lm.transfers(), 0);
        // Both went through the same per-file service queue.
        assert_eq!(a, t(0.1));
        assert_eq!(b, t(0.2));
        // Steady state: no further cost.
        assert_eq!(lm.acquire(1, 0, 0, 0, d(1.0), t(5.0)), t(5.0));
        assert_eq!(lm.acquire(1, 1, 1, 1, d(1.0), t(5.0)), t(5.0));
    }

    #[test]
    fn multi_stripe_writes_acquire_each_stripe() {
        let mut lm = LockManager::new();
        let f = lm.acquire(1, 0, 0, 3, d(1.0), t(0.0));
        assert_eq!(f, t(0.4)); // 4 first touches
        // Another node taking all four pays four transfers.
        let f2 = lm.acquire(1, 1, 0, 3, d(1.0), f);
        assert_eq!(f2, t(4.4));
        assert_eq!(lm.transfers(), 4);
    }

    #[test]
    fn files_are_independent() {
        let mut lm = LockManager::new();
        lm.acquire(1, 0, 0, 0, d(1.0), t(0.0));
        let f = lm.acquire(2, 1, 0, 0, d(1.0), t(0.0));
        // File 2's service queue was empty: only its own first touch.
        assert_eq!(f, t(0.1));
        lm.forget_file(1);
        // After forgetting, node 1 touching file 1 is a first touch again.
        let f2 = lm.acquire(1, 1, 0, 0, d(1.0), t(10.0));
        assert_eq!(f2, t(10.1));
    }

    #[test]
    fn generation_rotation_bounds_owner_memory() {
        let mut lm = LockManager::with_generation_cap(4);
        // One client touches many distinct stripes: memory stays bounded
        // at two generations regardless of how many stripes it visits.
        let mut now = t(0.0);
        for s in 0..64 {
            now = lm.acquire(1, 0, s, s, d(1.0), now);
        }
        let fl = &lm.files[&1];
        assert!(fl.current.len() <= 4 && fl.previous.len() <= 4);
        // Stripe 0 aged out of both generations: re-acquiring it by a
        // *different* client is a first touch again, not a transfer.
        let before = lm.transfers();
        lm.acquire(1, 1, 0, 0, d(1.0), now);
        assert_eq!(lm.transfers(), before);
        // A recently-touched stripe still transfers as usual.
        lm.acquire(1, 1, 63, 63, d(1.0), now);
        assert_eq!(lm.transfers(), before + 1);
    }

    #[test]
    fn promotion_keeps_active_stripes_across_rotation() {
        let mut lm = LockManager::with_generation_cap(4);
        let mut now = t(0.0);
        now = lm.acquire(1, 0, 0, 0, d(1.0), now);
        // Fill the generation so stripe 0 falls into `previous`...
        for s in 1..5 {
            now = lm.acquire(1, 0, s, s, d(1.0), now);
        }
        // ...then re-touch it (promotes) and churn more fresh stripes.
        now = lm.acquire(1, 0, 0, 0, d(1.0), now);
        for s in 5..8 {
            now = lm.acquire(1, 0, s, s, d(1.0), now);
        }
        // Stripe 0 survived: the rival client pays a transfer, proving
        // ownership was remembered the whole way.
        let before = lm.transfers();
        lm.acquire(1, 1, 0, 0, d(1.0), now);
        assert_eq!(lm.transfers(), before + 1);
    }

    #[test]
    fn n1_strided_vs_nn_gap() {
        // The headline mechanism: 8 nodes round-robin within stripes of a
        // shared file (N-1) vs each node appending its own file (N-N).
        let cost = d(1.5e-3);
        let mut shared = LockManager::new();
        let mut now = t(0.0);
        for w in 0..800u64 {
            let node = w % 8;
            let stripe = w / 16; // two nodes alternate within each stripe
            now = shared.acquire(7, node, stripe, stripe, cost, now);
        }
        let n1_time = now.as_secs_f64();

        let mut private = LockManager::new();
        let mut max_end = t(0.0);
        for node in 0..8u64 {
            let mut now = t(0.0);
            for s in 0..100u64 {
                now = private.acquire(100 + node, node, s, s, cost, now);
            }
            max_end = max_end.max(now);
        }
        let nn_time = max_end.as_secs_f64();
        assert!(
            n1_time > nn_time * 5.0,
            "expected serialization gap: N-1 {n1_time} vs N-N {nn_time}"
        );
    }
}
