//! Property tests for the DES engine (DESIGN.md §5g): the event queue
//! pops exactly what a linear-scan reference pops under arbitrary
//! push/pop interleavings, and the cheap `Fifo` bookkeeping is
//! grant-for-grant exact against the gap-filling `Calendar` whenever
//! arrivals are processed in nondecreasing order — the invariant the
//! simulation loop guarantees.

use proptest::prelude::*;
use simcore::{Calendar, EventQueue, Fifo, SimDuration, SimTime};

/// The queue's contract spelled out over `pending`, kept in push order:
/// a pop takes the event with the smallest `(time, push order)`.
fn pop_linear_scan(pending: &mut Vec<(SimTime, u32)>) -> Option<(SimTime, u32)> {
    let first = (0..pending.len()).min_by_key(|&i| (pending[i].0, i))?;
    Some(pending.remove(first))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same pushes, same pop schedule → identical `(time, payload)`
    /// traces from the queue and the reference, including FIFO order
    /// within timestamp ties. Each round pushes a burst whose deltas are
    /// drawn from one of four regimes (ties, near-term, mid-range,
    /// far-future), then pops roughly half.
    #[test]
    fn queue_trace_matches_linear_scan(
        rounds in prop::collection::vec((0u8..4, 1usize..8, 1u64..u64::MAX), 1..120),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut reference: Vec<(SimTime, u32)> = Vec::new();
        let mut now = 0u64;
        let mut id = 0u32;
        let mut trace_queue: Vec<(SimTime, u32)> = Vec::new();
        let mut trace_reference: Vec<(SimTime, u32)> = Vec::new();
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
                queue.push(time, id);
                reference.push((time, id));
                id += 1;
            }
            for _ in 0..burst.div_ceil(2) {
                let q = queue.pop();
                let r = pop_linear_scan(&mut reference);
                prop_assert_eq!(q.is_some(), r.is_some());
                if let (Some(q), Some(r)) = (q, r) {
                    trace_queue.push(q);
                    trace_reference.push(r);
                    now = q.0.as_nanos();
                }
            }
        }
        trace_queue.extend(std::iter::from_fn(|| queue.pop()));
        trace_reference.extend(std::iter::from_fn(|| pop_linear_scan(&mut reference)));
        prop_assert_eq!(trace_queue, trace_reference);
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
