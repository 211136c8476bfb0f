//! FIFO multi-server resources.
//!
//! A [`Fifo`] models a pool of `c` identical servers (metadata server
//! threads, object storage servers, network channels). Requests arrive in
//! nondecreasing time order — guaranteed because the simulation loop
//! processes events in global time order — and each request occupies the
//! earliest-free server for its service time.
//!
//! This "earliest-free-server" bookkeeping is exact for FIFO queues fed in
//! arrival order and avoids simulating queue entries individually. The
//! earliest-free server is tracked in an indexed min-heap (one entry per
//! server, keyed `(free_at, index)`), so admission costs O(log c) instead
//! of a linear scan — at Cielo scale the OSS pool and the per-node memory
//! pipes are acquired hundreds of millions of times per run.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Admission result for one request: when service started and finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Instant service began (>= arrival).
    pub start: SimTime,
    /// Instant service completed.
    pub finish: SimTime,
}

/// A multi-server FIFO resource.
#[derive(Debug, Clone)]
pub struct Fifo {
    name: &'static str,
    free_at: Vec<SimTime>,
    /// Indexed min-structure over `free_at`: exactly one entry per server,
    /// keyed `(free_at[i], i)` so timestamp ties resolve to the lowest
    /// index — the same server the seed's first-minimum linear scan chose.
    earliest: BinaryHeap<Reverse<(SimTime, usize)>>,
    // --- statistics ---
    ops: u64,
    busy: SimDuration,
    waited: SimDuration,
    last_arrival: SimTime,
}

impl Fifo {
    /// Create a resource with `servers` identical servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers > 0, "resource {name} needs at least one server");
        Fifo {
            name,
            free_at: vec![SimTime::ZERO; servers],
            earliest: (0..servers).map(|i| Reverse((SimTime::ZERO, i))).collect(),
            ops: 0,
            busy: SimDuration::ZERO,
            waited: SimDuration::ZERO,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Admit a request arriving at `arrival` needing `service` time.
    ///
    /// Admission happens in *request order*: the simulation loop issues
    /// events in global time order, so arrivals are normally nondecreasing.
    /// When an operation chains across resources (network → storage
    /// server), downstream arrivals can be out of order by at most one
    /// upstream service time; admitting them in request order is a
    /// documented approximation that preserves throughput and queueing
    /// shape.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        self.last_arrival = self.last_arrival.max(arrival);

        // Pick the earliest-free server: the heap root. The heap holds
        // exactly one entry per server, so pop-then-push keeps it in
        // lockstep with `free_at`.
        let Some(Reverse((_, idx))) = self.earliest.pop() else {
            // Constructor rejects zero servers, so the heap is never empty.
            unreachable!("resource {} has no servers", self.name)
        };
        let start = self.free_at[idx].max(arrival);
        let finish = start + service;
        self.free_at[idx] = finish;
        self.earliest.push(Reverse((finish, idx)));

        self.ops += 1;
        self.busy += service;
        self.waited += start.since(arrival);
        Grant { start, finish }
    }

    /// Instant at which all servers are idle.
    pub fn drained_at(&self) -> SimTime {
        self.free_at
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total requests admitted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Aggregate service time delivered.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Mean queueing delay per admitted request.
    pub fn mean_wait(&self) -> SimDuration {
        if self.ops == 0 {
            SimDuration::ZERO
        } else {
            self.waited / self.ops
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
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
    fn single_server_serializes() {
        let mut r = Fifo::new("mds", 1);
        let g1 = r.acquire(t(0.0), d(1.0));
        let g2 = r.acquire(t(0.0), d(1.0));
        let g3 = r.acquire(t(0.5), d(1.0));
        assert_eq!(g1.finish, t(1.0));
        assert_eq!(g2.start, t(1.0));
        assert_eq!(g2.finish, t(2.0));
        assert_eq!(g3.start, t(2.0));
        assert_eq!(g3.finish, t(3.0));
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut r = Fifo::new("oss", 1);
        r.acquire(t(0.0), d(1.0));
        let g = r.acquire(t(5.0), d(1.0));
        assert_eq!(g.start, t(5.0));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = Fifo::new("oss", 2);
        let g1 = r.acquire(t(0.0), d(1.0));
        let g2 = r.acquire(t(0.0), d(1.0));
        let g3 = r.acquire(t(0.0), d(1.0));
        assert_eq!(g1.finish, t(1.0));
        assert_eq!(g2.finish, t(1.0));
        assert_eq!(g3.start, t(1.0));
    }

    #[test]
    fn aggregate_throughput_scales_with_servers() {
        // 100 unit jobs on 10 servers drain in 10 units.
        let mut r = Fifo::new("pool", 10);
        for _ in 0..100 {
            r.acquire(t(0.0), d(1.0));
        }
        assert_eq!(r.drained_at(), t(10.0));
        assert_eq!(r.ops(), 100);
        assert_eq!(r.busy_time(), d(100.0));
    }

    #[test]
    fn wait_statistics_accumulate() {
        let mut r = Fifo::new("mds", 1);
        r.acquire(t(0.0), d(2.0));
        r.acquire(t(0.0), d(2.0)); // waits 2
        r.acquire(t(1.0), d(2.0)); // waits 3
        assert_eq!(r.mean_wait(), d(5.0) / 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        Fifo::new("bad", 0);
    }

    /// The indexed min-heap must make exactly the server choices the
    /// seed's first-minimum linear scan made, including tie-breaks.
    #[test]
    fn heap_tracking_matches_linear_scan_reference() {
        let mut fifo = Fifo::new("pool", 7);
        let mut reference = [SimTime::ZERO; 7];
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut arrival = SimTime::ZERO;
        for _ in 0..5000 {
            arrival += SimDuration(next() % 1000);
            // Frequent identical service times force free_at ties.
            let service = SimDuration((next() % 4) * 500);
            let g = fifo.acquire(arrival, service);
            let (idx, _) = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .expect("non-empty");
            let start = reference[idx].max(arrival);
            assert_eq!(g.start, start);
            assert_eq!(g.finish, start + service);
            reference[idx] = start + service;
        }
        assert_eq!(
            fifo.drained_at(),
            reference.iter().copied().max().expect("non-empty")
        );
    }
}
