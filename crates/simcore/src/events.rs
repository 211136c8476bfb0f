//! The event queue: a stable min-heap of timestamped events.
//!
//! Stability (FIFO among equal timestamps) matters for determinism: two ranks
//! hitting the same metadata server at the same virtual instant must be
//! served in a reproducible order, independent of heap internals.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(time, payload)` pairs with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    /// Highest timestamp ever popped; used to assert monotonicity.
    last_popped: SimTime,
}

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event: scheduling
    /// into the past indicates a causality bug in the caller.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {} < {}",
            time,
            self.last_popped
        );
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.last_popped);
        self.last_popped = entry.time;
        Some((entry.time, entry.payload))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

/// [`EventQueue`] under the `(time, kind, arg)` signature that the
/// benchmark's `arena_event_ns` probe (`benchmark/src/workloads/sim.rs`)
/// calls. It exists only for that probe, and goes when the
/// benchmark-only change of ROADMAP item 2(i) points the probe at
/// `EventQueue`.
#[derive(Debug, Default)]
pub struct EventArena(EventQueue<(u32, u32)>);

impl EventArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `(kind, arg)` at `time`, as [`EventQueue::push`].
    pub fn push(&mut self, time: SimTime, kind: u32, arg: u32) {
        self.0.push(time, (kind, arg));
    }

    /// Remove and return the earliest event as `(time, kind, arg)`.
    pub fn pop(&mut self) -> Option<(SimTime, u32, u32)> {
        self.0.pop().map(|(time, (kind, arg))| (time, kind, arg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(1.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(5.0), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t(2.0), 2);
        q.push(t(3.0), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(t(2.0), ());
        q.pop();
        q.push(t(1.0), ());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(t(1.0) + SimDuration::from_secs_f64(0.5), ());
        q.pop();
        assert_eq!(q.now(), t(1.5));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(t(4.0), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
