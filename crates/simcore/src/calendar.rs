//! A gap-filling resource: the exact (and dearer) alternative to
//! [`crate::Fifo`]'s earliest-free-server bookkeeping.
//!
//! `Fifo` admits requests in *request order*: once a server's `free_at`
//! has advanced, an earlier-arriving request processed later cannot use
//! the idle gap it skipped. That is exact when requests are processed in
//! nondecreasing arrival order (which the DES loop guarantees per event)
//! but loses gaps when one simulation event charges a *chain* of
//! operations whose later stages reach into the future.
//!
//! [`Calendar`] keeps per-server busy-interval sets and places each
//! request into the earliest gap that fits, regardless of processing
//! order. It costs O(log n + gaps scanned) per acquisition instead of
//! O(servers). It is `Fifo`'s test oracle: the property tests check that
//! the two agree grant for grant on in-order arrivals, the case the
//! drivers keep to (their chains are at most a handful of ops).

use crate::resource::Grant;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A multi-server resource with exact gap-filling admission.
#[derive(Debug, Clone)]
pub struct Calendar {
    name: &'static str,
    /// Per server: busy intervals as start → end (nanoseconds), kept
    /// non-overlapping and coalesced.
    servers: Vec<BTreeMap<u64, u64>>,
    ops: u64,
    busy: SimDuration,
}

impl Calendar {
    /// Create a calendar resource with `servers` identical servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers > 0, "resource {name} needs at least one server");
        Calendar {
            name,
            servers: vec![BTreeMap::new(); servers],
            ops: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Earliest start ≥ `arrival` on one server where `service` fits.
    fn earliest_fit(intervals: &BTreeMap<u64, u64>, arrival: u64, service: u64) -> u64 {
        // Candidate start: max(arrival, end of the interval covering or
        // preceding arrival), then walk forward over intervals until a
        // gap of `service` appears.
        let mut candidate = arrival;
        if let Some((_, &end)) = intervals.range(..=arrival).next_back() {
            candidate = candidate.max(end);
        }
        for (&start, &end) in intervals.range(candidate..) {
            if start >= candidate && start - candidate >= service {
                return candidate; // gap before this interval fits
            }
            candidate = candidate.max(end);
        }
        candidate
    }

    /// Insert a busy interval, coalescing with adjacent ones.
    ///
    /// Coalescing is O(log n): only the immediate neighbours are probed —
    /// the predecessor via `range(..=start).next_back()` and the successor
    /// via `range(end..).next()` — never a rescan from the map head. Both
    /// may touch at once (filling the exact gap between two intervals),
    /// which collapses three intervals into one.
    fn occupy(intervals: &mut BTreeMap<u64, u64>, mut start: u64, mut end: u64) {
        // Merge with a predecessor that touches us.
        if let Some((&ps, &pe)) = intervals.range(..=start).next_back() {
            debug_assert!(pe <= start, "overlapping insertion");
            if pe == start {
                intervals.remove(&ps);
                start = ps;
            }
        }
        // Merge with a successor that we touch.
        if let Some((&ss, &se)) = intervals.range(end..).next() {
            if ss == end {
                intervals.remove(&ss);
                end = se;
            }
        }
        intervals.insert(start, end);
    }

    /// Admit a request arriving at `arrival` needing `service` time: it
    /// occupies the earliest gap that fits on any server.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        if service.is_zero() {
            return Grant {
                start: arrival,
                finish: arrival,
            };
        }
        // First minimum over servers, with an early exit: once a server
        // can start at the arrival instant itself no later server can do
        // better, and a tie would resolve to the earlier index anyway.
        let mut best: Option<(usize, u64)> = None;
        for (i, iv) in self.servers.iter().enumerate() {
            let s = Self::earliest_fit(iv, arrival.as_nanos(), service.as_nanos());
            let better = match best {
                None => true,
                Some((_, bs)) => s < bs,
            };
            if better {
                best = Some((i, s));
                if s == arrival.as_nanos() {
                    break;
                }
            }
        }
        let Some((idx, start)) = best else {
            // Constructor rejects zero servers, so a min over servers exists.
            unreachable!("resource {} has no servers", self.name)
        };
        let end = start + service.as_nanos();
        Self::occupy(&mut self.servers[idx], start, end);
        self.ops += 1;
        self.busy += service;
        Grant {
            start: SimTime(start),
            finish: SimTime(end),
        }
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Instant at which all servers are idle forever after.
    pub fn drained_at(&self) -> SimTime {
        SimTime(
            self.servers
                .iter()
                .filter_map(|iv| iv.values().copied().max())
                .max()
                .unwrap_or(0),
        )
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Fifo;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn behaves_like_fifo_for_in_order_arrivals() {
        let mut cal = Calendar::new("c", 2);
        let mut fifo = Fifo::new("f", 2);
        let arrivals = [0.0, 0.0, 0.1, 0.5, 0.5, 2.0];
        for &a in &arrivals {
            let g1 = cal.acquire(t(a), d(0.4));
            let g2 = fifo.acquire(t(a), d(0.4));
            assert_eq!(g1, g2, "arrival {a}");
        }
        assert_eq!(cal.drained_at(), fifo.drained_at());
    }

    #[test]
    fn backfills_gaps_fifo_loses() {
        // One server. A request at t=0 [0,1), then one at t=5 [5,6),
        // then a LATE-PROCESSED request that arrived at t=1 and fits in
        // the idle gap [1,2).
        let mut cal = Calendar::new("c", 1);
        cal.acquire(t(0.0), d(1.0));
        cal.acquire(t(5.0), d(1.0));
        let g = cal.acquire(t(1.0), d(1.0));
        assert_eq!(g.start, t(1.0));
        assert_eq!(g.finish, t(2.0));

        // Fifo, processing in the same order, pushes it to t=6.
        let mut fifo = Fifo::new("f", 1);
        fifo.acquire(t(0.0), d(1.0));
        fifo.acquire(t(5.0), d(1.0));
        let g = fifo.acquire(t(1.0), d(1.0));
        assert_eq!(g.start, t(6.0));
    }

    #[test]
    fn gap_must_fit_the_whole_service() {
        let mut cal = Calendar::new("c", 1);
        cal.acquire(t(0.0), d(1.0)); // [0,1)
        cal.acquire(t(3.0), d(1.0)); // [3,4)
        // A 2.5s job arriving at 0.5 cannot use the 2s gap [1,3).
        let g = cal.acquire(t(0.5), d(2.5));
        assert_eq!(g.start, t(4.0));
        // But a 1.5s job can.
        let g = cal.acquire(t(0.5), d(1.5));
        assert_eq!(g.start, t(1.0));
    }

    #[test]
    fn coalescing_keeps_interval_count_small() {
        let mut cal = Calendar::new("c", 1);
        // Back-to-back jobs merge into one interval.
        let mut now = t(0.0);
        for _ in 0..1000 {
            now = cal.acquire(now, d(0.001)).finish;
        }
        assert_eq!(cal.servers[0].len(), 1);
        assert_eq!(cal.drained_at(), t(1.0));
    }

    /// Regression for the adjacent-interval case: a job that exactly fills
    /// the gap between two busy intervals must three-way merge, touching
    /// only the two neighbours (no head rescan) and leaving one interval.
    #[test]
    fn occupy_merges_adjacent_intervals_three_ways() {
        let mut cal = Calendar::new("c", 1);
        cal.acquire(t(0.0), d(1.0)); // [0,1)
        cal.acquire(t(2.0), d(1.0)); // [2,3)
        assert_eq!(cal.servers[0].len(), 2);
        let g = cal.acquire(t(1.0), d(1.0)); // [1,2): bridges both
        assert_eq!(g.start, t(1.0));
        assert_eq!(g.finish, t(2.0));
        assert_eq!(cal.servers[0].len(), 1, "three intervals must coalesce");
        assert_eq!(
            cal.servers[0].iter().next(),
            Some((&0, &t(3.0).as_nanos()))
        );

        // Predecessor-only merge: extend the run's tail.
        let g = cal.acquire(t(3.0), d(0.5)); // [3,3.5)
        assert_eq!(g.start, t(3.0));
        assert_eq!(cal.servers[0].len(), 1);

        // Successor-only merge: a far interval, then fill right up to it.
        cal.acquire(t(10.0), d(1.0)); // [10,11)
        assert_eq!(cal.servers[0].len(), 2);
        let g = cal.acquire(t(9.0), d(1.0)); // [9,10): touches successor
        assert_eq!(g.start, t(9.0));
        assert_eq!(cal.servers[0].len(), 2);
        assert_eq!(cal.drained_at(), t(11.0));
    }

    #[test]
    fn zero_service_is_free() {
        let mut cal = Calendar::new("c", 1);
        cal.acquire(t(0.0), d(10.0));
        let g = cal.acquire(t(3.0), SimDuration::ZERO);
        assert_eq!(g.start, t(3.0));
        assert_eq!(g.finish, t(3.0));
    }

    #[test]
    fn chained_charging_distortion_is_bounded() {
        // The engine-validation scenario behind DESIGN.md §4b: 32 clients
        // each run a chain of 8 ops alternating across two resources. With
        // per-op event granularity (simulated here by processing in global
        // time order), Fifo and Calendar agree exactly; with whole-chain
        // charging (client-major order), Calendar still backfills while
        // Fifo serializes — quantifying why drivers keep chains short.
        let clients = 32;
        let chain = 8;
        let svc = d(0.010);

        // Whole-chain charging, client-major.
        let run_chained = |use_cal: bool| -> f64 {
            let mut fifo_a = Fifo::new("a", 1);
            let mut fifo_b = Fifo::new("b", 1);
            let mut cal_a = Calendar::new("a", 1);
            let mut cal_b = Calendar::new("b", 1);
            let mut makespan = SimTime::ZERO;
            for _c in 0..clients {
                let mut now = SimTime::ZERO;
                for k in 0..chain {
                    let g = match (use_cal, k % 2) {
                        (true, 0) => cal_a.acquire(now, svc),
                        (true, _) => cal_b.acquire(now, svc),
                        (false, 0) => fifo_a.acquire(now, svc),
                        (false, _) => fifo_b.acquire(now, svc),
                    };
                    now = g.finish;
                }
                makespan = makespan.max(now);
            }
            makespan.as_secs_f64()
        };
        let fifo_chained = run_chained(false);
        let cal_chained = run_chained(true);
        // Exact lower bound: each resource serves clients×chain/2 ops.
        let bound = (clients * chain / 2) as f64 * 0.010;
        assert!(cal_chained < fifo_chained, "calendar must backfill");
        assert!(cal_chained >= bound * 0.99);
        // Fifo's chained distortion is the pathology drivers avoid by
        // yielding per op: it inflates the makespan several-fold.
        assert!(
            fifo_chained > 1.5 * cal_chained,
            "fifo {fifo_chained} vs calendar {cal_chained}"
        );
    }
}
