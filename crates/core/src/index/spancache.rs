//! Sharded, byte-budgeted cache of decoded spanidx record windows.
//!
//! [`crate::index::OnDiskIndex`] fetches fixed-stride record windows
//! lazily; this cache keeps recently-used windows decoded so repeated
//! strided reads over the same region hit memory instead of the
//! backend. The budget is a hard byte ceiling split evenly across
//! shards, each guarded by its own leaf mutex (DESIGN.md §5i: a span
//! cache shard lock is acquired last and never held across backend
//! I/O or another lock). Hits, misses, and evictions feed the
//! telemetry plane as `spancache.*` counters.

use crate::index::IndexEntry;
use crate::sync::{class, Mutex, MutexGuard};
use crate::telemetry::{
    self, CTR_SPANCACHE_EVICTIONS, CTR_SPANCACHE_HITS, CTR_SPANCACHE_MISSES,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Shards the cache splits its budget and locking across.
pub(crate) const SPANCACHE_SHARDS: u64 = 8;
/// Default total byte budget for decoded windows (4 MiB).
pub(crate) const SPANCACHE_DEFAULT_BUDGET: u64 = 4 * 1024 * 1024;

struct Slot {
    entries: Arc<Vec<IndexEntry>>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(u64, u64), Slot>,
    bytes: u64,
    tick: u64,
}

impl Shard {
    /// Evict least-recently-used slots until `need` more bytes fit the
    /// shard budget. Returns how many slots were evicted.
    fn make_room(&mut self, need: u64, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes + need > budget && !self.map.is_empty() {
            if let Some((&key, _)) = self.map.iter().min_by_key(|(_, s)| s.last_used) {
                if let Some(s) = self.map.remove(&key) {
                    self.bytes -= s.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

/// A sharded LRU over decoded record windows, keyed by
/// `(owner index id, window number)` and bounded by a total byte budget.
pub struct SpanCache {
    shards: Vec<Mutex<Shard, class::SpancacheShard>>,
    shard_budget: u64,
}

impl SpanCache {
    /// Cache with the default budget (`SPANCACHE_DEFAULT_BUDGET`).
    pub fn new() -> SpanCache {
        SpanCache::with_budget(SPANCACHE_DEFAULT_BUDGET)
    }

    /// Cache holding at most `budget_bytes` of decoded records, split
    /// evenly across `SPANCACHE_SHARDS` shards.
    pub fn with_budget(budget_bytes: u64) -> SpanCache {
        SpanCache {
            shards: (0..SPANCACHE_SHARDS).map(|_| Mutex::default()).collect(),
            shard_budget: (budget_bytes / SPANCACHE_SHARDS).max(1),
        }
    }

    /// Total byte budget across all shards.
    pub fn budget(&self) -> u64 {
        self.shard_budget * SPANCACHE_SHARDS
    }

    fn lock(&self, owner: u64, window: u64) -> MutexGuard<'_, Shard, class::SpancacheShard> {
        // Mix both key halves so one index's windows spread across shards.
        let h = (owner ^ window.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.shards[(h % SPANCACHE_SHARDS) as usize].lock()
    }

    /// Probe one window; counts a `spancache.hits` or `spancache.misses`.
    pub fn get(&self, owner: u64, window: u64) -> Option<Arc<Vec<IndexEntry>>> {
        let mut shard = self.lock(owner, window);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&(owner, window)) {
            Some(slot) => {
                slot.last_used = tick;
                let entries = Arc::clone(&slot.entries);
                drop(shard);
                telemetry::count(CTR_SPANCACHE_HITS, 1);
                Some(entries)
            }
            None => {
                drop(shard);
                telemetry::count(CTR_SPANCACHE_MISSES, 1);
                None
            }
        }
    }

    /// Insert a decoded window, evicting LRU slots to hold the budget.
    /// A window larger than a whole shard's budget is served but not
    /// retained, so one oversized fetch cannot wipe the cache.
    pub fn insert(&self, owner: u64, window: u64, entries: Arc<Vec<IndexEntry>>) {
        let bytes = (entries.len() as u64) * crate::index::INDEX_RECORD_BYTES;
        if bytes > self.shard_budget {
            return;
        }
        let mut shard = self.lock(owner, window);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(old) = shard.map.remove(&(owner, window)) {
            shard.bytes -= old.bytes;
        }
        let evicted = shard.make_room(bytes, self.shard_budget);
        shard.bytes += bytes;
        shard.map.insert(
            (owner, window),
            Slot {
                entries,
                bytes,
                last_used: tick,
            },
        );
        drop(shard);
        if evicted > 0 {
            telemetry::count(CTR_SPANCACHE_EVICTIONS, evicted);
        }
    }

    /// Decoded bytes currently resident across all shards.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|shard| shard.lock().bytes).sum()
    }
}

impl Default for SpanCache {
    fn default() -> SpanCache {
        SpanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(n: usize) -> Arc<Vec<IndexEntry>> {
        Arc::new(
            (0..n as u64)
                .map(|i| IndexEntry {
                    logical_offset: i * 10,
                    length: 10,
                    physical_offset: i * 10,
                    writer: 0,
                    timestamp: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn get_after_insert_hits() {
        let c = SpanCache::with_budget(1 << 20);
        assert!(c.get(1, 0).is_none());
        c.insert(1, 0, window(4));
        assert_eq!(c.get(1, 0).unwrap().len(), 4);
        // Distinct owners don't alias.
        assert!(c.get(2, 0).is_none());
    }

    #[test]
    fn budget_is_enforced_by_lru_eviction() {
        // Budget for ~2 windows per shard; inserting many keyed to the
        // same shard must keep resident bytes under the shard budget.
        let per_window = 4 * crate::index::INDEX_RECORD_BYTES;
        let c = SpanCache::with_budget(2 * per_window * SPANCACHE_SHARDS);
        for w in 0..64 {
            c.insert(7, w, window(4));
        }
        assert!(c.resident_bytes() <= c.budget());
        // The most recently inserted window in some shard survives.
        assert!((0..64).any(|w| c.get(7, w).is_some()));
    }

    #[test]
    fn oversized_windows_are_not_retained() {
        let c = SpanCache::with_budget(SPANCACHE_SHARDS); // 1 byte per shard
        c.insert(1, 0, window(100));
        assert!(c.get(1, 0).is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let c = SpanCache::with_budget(1 << 20);
        c.insert(1, 0, window(4));
        c.insert(1, 0, window(8));
        assert_eq!(
            c.resident_bytes(),
            8 * crate::index::INDEX_RECORD_BYTES
        );
        assert_eq!(c.get(1, 0).unwrap().len(), 8);
    }

    /// Shards are one class with no order between them: a thread holds
    /// one at a time (DESIGN.md §5i).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "lock order: `spancache-shard` (rank 75) acquired while holding `spancache-shard` (rank 75)"
    )]
    fn two_shards_on_one_thread_fail() {
        let c = SpanCache::new();
        let _first = c.shards[0].lock();
        drop(c.shards[1].lock());
    }
}
