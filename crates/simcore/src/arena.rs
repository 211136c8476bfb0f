//! Flat event arena: a calendar-queue scheduler over compact event records.
//!
//! The seed engine drives the simulation off [`EventQueue`] — a binary
//! heap whose pop cost is O(log n) sift-downs over the whole pending set.
//! At 65,536 ranks the live-event population reaches the rank count and
//! every event pays a 16-level sift touching cold heap lines. The arena
//! replaces the heap with Brown's calendar queue: events are compact
//! `(time, seq, kind, arg)` records (`Copy`, no payload ownership — any
//! side data lives in tables indexed by `arg`) bucketed by a power-of-two
//! time window. A pop probes bucket roots circularly from the current
//! window cursor and is O(1) amortized when the queue is in its operating
//! range; same-instant bursts (a barrier releasing all 64k ranks at one
//! timestamp) degrade gracefully to O(log b) within one bucket's heap
//! rather than O(n) across the wheel.
//!
//! The arena honours the exact stable-FIFO contract of [`EventQueue`]:
//! pops come out in `(time, seq)` order where `seq` is assignment order,
//! and scheduling into the past panics with the same message. The heap
//! stays in-tree as the differential-testing oracle: the determinism
//! suites run the same pushes (and whole simulated jobs) over both and
//! assert identical results.
//!
//! [`EventQueue`]: crate::events::EventQueue

use crate::time::SimTime;

/// One pending event: 24 bytes, `Copy`, no owned payload.
///
/// `kind` discriminates the event class for the driving loop and `arg`
/// indexes whatever side table the class implies (for the SPMD executor:
/// `kind == 0`, `arg == rank`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventRecord {
    /// Virtual timestamp.
    pub time: SimTime,
    /// Global assignment order; breaks timestamp ties FIFO.
    pub seq: u64,
    /// Event class discriminant.
    pub kind: u32,
    /// Class-specific index into a side table (e.g. the rank).
    pub arg: u32,
}

/// Smallest wheel the arena will shrink to.
const MIN_BUCKETS: usize = 64;
/// Initial bucket width exponent (2^16 ns ≈ 65 µs) until a resize
/// re-estimates it from the observed inter-event gaps.
const INITIAL_SHIFT: u32 = 16;
/// Widest permissible bucket (2^44 ns ≈ 4.9 h of virtual time).
const MAX_SHIFT: u32 = 44;

/// A calendar-queue event scheduler with the [`crate::events::EventQueue`]
/// contract.
#[derive(Debug)]
pub struct EventArena {
    /// The wheel: each bucket is a binary min-heap of records ordered by
    /// `(time, seq)`. Bucket count is always a power of two.
    buckets: Vec<Vec<EventRecord>>,
    /// Root-time sidecar: `roots[b]` is the timestamp of bucket `b`'s
    /// heap root, `u64::MAX` when empty. Probing scans this flat array —
    /// eight windows per cache line — instead of dereferencing each
    /// bucket's `Vec` header and first element.
    roots: Vec<u64>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// log2 of the bucket time width in nanoseconds. An event's *window
    /// serial* is `time >> shift`; serial `s` lives in bucket `s & mask`.
    shift: u32,
    /// Pending event count.
    len: usize,
    /// Next sequence number to assign.
    seq: u64,
    /// Window serial of the last popped event — where the probe starts.
    cur_serial: u64,
    /// Highest timestamp ever popped; used to assert monotonicity.
    last_popped: SimTime,
    /// Pops since the last occupancy check (steady-state width tuning).
    tune_pops: u64,
    /// Sum of popped-bucket sizes since the last occupancy check.
    tune_load: u64,
    /// Sum of probe distances since the last occupancy check.
    tune_probes: u64,
    /// Pops whose timestamp equalled the previous pop's (same-instant
    /// bursts) since the last occupancy check.
    tune_ties: u64,
}

impl Default for EventArena {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn before(a: &EventRecord, b: &EventRecord) -> bool {
    (a.time, a.seq) < (b.time, b.seq)
}

/// Push onto a bucket's binary min-heap.
#[inline]
fn heap_push(bucket: &mut Vec<EventRecord>, rec: EventRecord) {
    bucket.push(rec);
    let mut i = bucket.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if before(&bucket[i], &bucket[parent]) {
            bucket.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Pop the root of a non-empty bucket heap.
#[inline]
fn heap_pop(bucket: &mut Vec<EventRecord>) -> EventRecord {
    let root = bucket.swap_remove(0);
    let n = bucket.len();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= n {
            break;
        }
        let r = l + 1;
        let child = if r < n && before(&bucket[r], &bucket[l]) {
            r
        } else {
            l
        };
        if before(&bucket[child], &bucket[i]) {
            bucket.swap(i, child);
            i = child;
        } else {
            break;
        }
    }
    root
}

/// Estimate a bucket-width exponent targeting ~1 event per bucket
/// window: the pending set's time span (robustly taken from sampled
/// timestamps) divided by the full `population`, as a power of two.
/// Returns `current` when the sample is degenerate (fewer than two
/// distinct timestamps, e.g. one big same-instant burst).
fn estimate_shift(mut times: Vec<u64>, population: usize, current: u32) -> u32 {
    times.sort_unstable();
    times.dedup();
    if times.len() < 2 || population < 2 {
        return current;
    }
    let span = times[times.len() - 1] - times[0];
    let avg_gap = (span / (population as u64 - 1)).max(1);
    // floor(log2(avg_gap)): 63 - leading_zeros for a non-zero value.
    (63 - avg_gap.leading_zeros()).min(MAX_SHIFT)
}

/// How many pops between steady-state occupancy checks.
const TUNE_INTERVAL: u64 = 4096;
/// Average popped-bucket size above which buckets are judged too wide.
const TUNE_MAX_LOAD: u64 = 4;
/// Average probe distance above which buckets are judged too narrow.
const TUNE_MAX_PROBE: u64 = 8;

impl EventArena {
    /// Create an empty arena with the minimal wheel.
    pub fn new() -> Self {
        EventArena {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            roots: vec![u64::MAX; MIN_BUCKETS],
            mask: (MIN_BUCKETS - 1) as u64,
            shift: INITIAL_SHIFT,
            len: 0,
            seq: 0,
            cur_serial: 0,
            last_popped: SimTime::ZERO,
            tune_pops: 0,
            tune_load: 0,
            tune_probes: 0,
            tune_ties: 0,
        }
    }

    /// Sample up to 256 pending timestamps (strided, so O(buckets) at
    /// worst) for the width estimate.
    fn sampled_times(&self) -> Vec<u64> {
        let stride = (self.len / 256).max(1);
        let mut times = Vec::with_capacity(self.len.min(272));
        let mut skip = 0usize;
        for b in &self.buckets {
            for rec in b {
                if skip == 0 {
                    times.push(rec.time.as_nanos());
                    skip = stride;
                }
                skip -= 1;
            }
        }
        times
    }

    #[inline]
    fn bucket_of(&self, time: SimTime) -> usize {
        ((time.as_nanos() >> self.shift) & self.mask) as usize
    }

    /// Schedule an event at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event, with the
    /// same message as [`crate::events::EventQueue::push`]: scheduling
    /// into the past indicates a causality bug in the caller.
    pub fn push(&mut self, time: SimTime, kind: u32, arg: u32) {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {} < {}",
            time,
            self.last_popped
        );
        let rec = EventRecord {
            time,
            seq: self.seq,
            kind,
            arg,
        };
        self.seq += 1;
        let b = self.bucket_of(time);
        heap_push(&mut self.buckets[b], rec);
        self.roots[b] = self.buckets[b][0].time.as_nanos();
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Find the bucket holding the earliest pending record.
    ///
    /// Probes window serials circularly from the cursor: every pending
    /// record's window is `>= cur_serial` (its time is `>= last_popped`),
    /// each window maps to exactly one bucket, and a bucket root whose
    /// window equals the probed serial is the minimum of that window — so
    /// the first hit is the global minimum. If a full revolution finds
    /// nothing (all events lie beyond one wheel span), fall back to a
    /// direct min over bucket roots. Returns the bucket index and the
    /// number of windows probed (the full wheel size when the fallback
    /// scan fires) — the probe distance feeds steady-state width tuning.
    fn min_bucket(&self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        for i in 0..self.buckets.len() as u64 {
            let serial = self.cur_serial.wrapping_add(i);
            let b = (serial & self.mask) as usize;
            let root = self.roots[b];
            if root != u64::MAX && root >> self.shift == serial {
                return Some((b, i + 1));
            }
        }
        let probes = self.buckets.len() as u64;
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.first().map(|r| (i, *r)))
            .min_by_key(|&(_, r)| (r.time, r.seq))
            .map(|(i, _)| (i, probes))
    }

    /// Remove and return the earliest event as `(time, kind, arg)`.
    pub fn pop(&mut self) -> Option<(SimTime, u32, u32)> {
        let (b, probes) = self.min_bucket()?;
        self.tune_load += self.buckets[b].len() as u64;
        self.tune_probes += probes;
        self.tune_pops += 1;
        let rec = heap_pop(&mut self.buckets[b]);
        self.roots[b] = self.buckets[b].first().map_or(u64::MAX, |r| r.time.as_nanos());
        if rec.time == self.last_popped {
            self.tune_ties += 1;
        }
        self.len -= 1;
        debug_assert!(rec.time >= self.last_popped);
        self.cur_serial = rec.time.as_nanos() >> self.shift;
        self.last_popped = rec.time;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild((self.buckets.len() / 2).max(MIN_BUCKETS));
        } else if self.tune_pops >= TUNE_INTERVAL {
            self.tune();
        }
        Some((rec.time, rec.kind, rec.arg))
    }

    /// Steady-state width tuning from observed pop costs.
    ///
    /// Resizes re-estimate the bucket width from a density sample, but a
    /// stable population never resizes, and the sample estimate is badly
    /// biased when the pending set is bimodal — a dense cluster of
    /// near-term events (where every pop lands) plus a sparse far-future
    /// tail. Both failure modes are visible directly in what pops cost:
    /// overwide buckets silt up into big heaps (average popped-bucket
    /// load grows, pops degrade toward O(log n)); overnarrow buckets
    /// leave the wheel mostly empty (probe distance grows, pops degrade
    /// toward O(buckets)). Steer the width by those observed costs with a
    /// wide deadband between the two thresholds so the loop cannot
    /// oscillate; a well-tuned wheel re-tunes never.
    ///
    /// Same-instant bursts are exempt from narrowing: when most pops in
    /// the window shared their predecessor's timestamp (a barrier
    /// releasing every rank at once), the load lives inside one time
    /// instant that no bucket width can split — narrowing would only
    /// churn rebuilds and leave a needlessly huge wheel behind. Tie
    /// bursts are already served at O(log burst) by the bucket heap.
    fn tune(&mut self) {
        let load = self.tune_load / self.tune_pops;
        let probes = self.tune_probes / self.tune_pops;
        let tie_dominated = 2 * self.tune_ties > self.tune_pops;
        if load > TUNE_MAX_LOAD && self.shift > 0 && !tie_dominated {
            // Narrow buckets by the factor that would bring the load
            // to ~2 events per popped bucket.
            let dec = (63 - (load / 2).leading_zeros()).max(1).min(self.shift);
            self.rebuild_with(self.buckets.len(), self.shift - dec);
        } else if probes > TUNE_MAX_PROBE && self.shift < MAX_SHIFT {
            // Widen buckets by the factor that would bring the probe
            // distance to ~2 windows per pop.
            let inc = (63 - (probes / 2).leading_zeros()).max(1);
            self.rebuild_with(self.buckets.len(), (self.shift + inc).min(MAX_SHIFT));
        } else {
            self.tune_pops = 0;
            self.tune_load = 0;
            self.tune_probes = 0;
            self.tune_ties = 0;
        }
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Current wheel size (test/bench introspection).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Resize the wheel to `nbuckets` (a power of two), re-estimating the
    /// bucket width from the pending records' inter-event gaps.
    fn rebuild(&mut self, nbuckets: usize) {
        let shift = estimate_shift(self.sampled_times(), self.len, self.shift);
        self.rebuild_with(nbuckets, shift);
    }

    /// Resize the wheel to `nbuckets` (a power of two) with an explicit
    /// bucket-width exponent, redistributing every pending record.
    fn rebuild_with(&mut self, nbuckets: usize, shift: u32) {
        debug_assert!(nbuckets.is_power_of_two());
        self.shift = shift;
        self.tune_pops = 0;
        self.tune_load = 0;
        self.tune_probes = 0;
        self.tune_ties = 0;
        let mut all: Vec<EventRecord> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.append(b);
        }
        self.mask = (nbuckets - 1) as u64;
        if nbuckets > self.buckets.len() {
            self.buckets.resize(nbuckets, Vec::new());
        } else {
            self.buckets.truncate(nbuckets);
        }
        for rec in all {
            let b = ((rec.time.as_nanos() >> self.shift) & self.mask) as usize;
            heap_push(&mut self.buckets[b], rec);
        }
        self.roots.clear();
        self.roots.extend(
            self.buckets
                .iter()
                .map(|b| b.first().map_or(u64::MAX, |r| r.time.as_nanos())),
        );
        self.cur_serial = self.last_popped.as_nanos() >> self.shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventArena::new();
        q.push(t(3.0), 0, 3);
        q.push(t(1.0), 0, 1);
        q.push(t(2.0), 0, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, a)| a).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventArena::new();
        for i in 0..1000 {
            q.push(t(1.0), 0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, a)| a).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventArena::new();
        q.push(t(2.0), 0, 0);
        q.pop();
        q.push(t(1.0), 0, 0);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventArena::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(t(1.0) + SimDuration::from_secs_f64(0.5), 0, 0);
        q.pop();
        assert_eq!(q.now(), t(1.5));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventArena::new();
        q.push(t(4.0), 0, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Events separated by far more than one wheel revolution force
        // the direct-search fallback.
        let mut q = EventArena::new();
        q.push(t(0.001), 0, 1);
        q.push(t(3600.0), 0, 2);
        q.push(t(7200.0), 0, 3);
        assert_eq!(q.pop().map(|(_, _, a)| a), Some(1));
        assert_eq!(q.pop().map(|(_, _, a)| a), Some(2));
        assert_eq!(q.pop().map(|(_, _, a)| a), Some(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_grows_and_shrinks_with_population() {
        let mut q = EventArena::new();
        for i in 0..10_000u32 {
            q.push(SimTime(1000 * i as u64), 0, i);
        }
        assert!(q.buckets() > MIN_BUCKETS, "wheel should have grown");
        for _ in 0..10_000 {
            q.pop();
        }
        assert_eq!(q.buckets(), MIN_BUCKETS, "wheel should shrink back");
        assert!(q.is_empty());
    }

    /// Differential check against the heap oracle under a seeded mixed
    /// push/pop load with clustered and tied timestamps.
    #[test]
    fn matches_heap_oracle_under_mixed_load() {
        let mut arena = EventArena::new();
        let mut oracle: EventQueue<u32> = EventQueue::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut id = 0u32;
        for round in 0..2000 {
            let burst = (next() % 8) as usize + 1;
            for _ in 0..burst {
                // Mix of ties (delta 0), near-term, and far-future times.
                let delta = match next() % 4 {
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
            let pops = if round % 3 == 0 { burst + 1 } else { burst / 2 };
            for _ in 0..pops {
                let a = arena.pop();
                let o = oracle.pop();
                assert_eq!(a.map(|(time, _, arg)| (time, arg)), o);
                if let Some((time, _, _)) = a {
                    now = time.as_nanos();
                }
            }
        }
        loop {
            let a = arena.pop();
            let o = oracle.pop();
            assert_eq!(a.map(|(time, _, arg)| (time, arg)), o);
            if a.is_none() {
                break;
            }
        }
    }
}
