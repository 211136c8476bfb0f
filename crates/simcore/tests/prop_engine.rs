//! Property tests for the rebuilt DES engine (DESIGN.md §5g): the
//! calendar-queue arena is trace-identical to the binary-heap oracle
//! under arbitrary push/pop interleavings, and the cheap `Fifo`
//! bookkeeping is grant-for-grant exact against the gap-filling
//! `Calendar` whenever arrivals are processed in nondecreasing order —
//! the invariant the simulation loop guarantees.

use proptest::prelude::*;
use simcore::{Calendar, EventArena, EventQueue, Fifo, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same pushes, same pop schedule → byte-identical `(time, payload)`
    /// traces from the arena and the heap oracle, including FIFO order
    /// within timestamp ties. Each round pushes a burst whose deltas are
    /// drawn from one of four regimes (ties, near-term, mid-range,
    /// far-future — the last forces wheel-revolution fallbacks), then
    /// pops roughly half.
    #[test]
    fn arena_trace_matches_heap_oracle(
        rounds in prop::collection::vec((0u8..4, 1usize..8, 1u64..u64::MAX), 1..120),
    ) {
        let mut arena = EventArena::new();
        let mut oracle: EventQueue<u32> = EventQueue::new();
        let mut now = 0u64;
        let mut id = 0u32;
        let mut trace_arena: Vec<(SimTime, u32)> = Vec::new();
        let mut trace_oracle: Vec<(SimTime, u32)> = Vec::new();
        for (class, burst, seed) in rounds {
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for _ in 0..burst {
                let delta = match class {
                    0 => 0,
                    1 => next() % 100,
                    2 => next() % 100_000,
                    _ => next() % 50_000_000,
                };
                let time = SimTime(now + delta);
                arena.push(time, 0, id);
                oracle.push(time, id);
                id += 1;
            }
            for _ in 0..burst.div_ceil(2) {
                let a = arena.pop();
                let o = oracle.pop();
                prop_assert_eq!(a.is_some(), o.is_some());
                if let (Some((ta, _, arg)), Some((to, p))) = (a, o) {
                    trace_arena.push((ta, arg));
                    trace_oracle.push((to, p));
                    now = ta.as_nanos();
                }
            }
        }
        while let Some((t, _, arg)) = arena.pop() {
            trace_arena.push((t, arg));
        }
        while let Some((t, p)) = oracle.pop() {
            trace_oracle.push((t, p));
        }
        prop_assert_eq!(trace_arena, trace_oracle);
    }

    /// In arrival order every server's busy run is contiguous from some
    /// past arrival, so the exact gap-filler has no gap to fill: `Fifo`
    /// and `Calendar` must agree grant-for-grant at any pool size and
    /// any (non-zero) per-request service times.
    #[test]
    fn fifo_equals_calendar_for_in_order_arrivals(
        servers in 1usize..96,
        requests in prop::collection::vec((0u64..10_000, 1u64..5_000_000), 1..400),
    ) {
        let mut fifo = Fifo::new("pool", servers);
        let mut cal = Calendar::new("pool", servers);
        let mut arrival = SimTime::ZERO;
        for (gap, service) in requests {
            arrival += SimDuration(gap);
            let service = SimDuration(service);
            let gf = fifo.acquire(arrival, service);
            let gc = cal.acquire(arrival, service);
            prop_assert_eq!(gf, gc);
        }
        prop_assert_eq!(fifo.drained_at(), cal.drained_at());
        prop_assert_eq!(fifo.busy_time(), cal.busy_time());
    }
}
