//! The mount's shared-index cache: aggregate once, hand the result to
//! every reader — the in-process form of the paper's §IV "group leader
//! aggregates, then broadcasts" (DESIGN.md §5l).
//!
//! One per [`crate::Plfs`], keyed by canonical container path. An entry
//! is `(stamp, IndexSource)`: `Mem` for aggregated logs, `Disk` (fences
//! and footer; the mount's `SpanCache` holds the record windows) for a
//! flattened container. A read-open fetches the container's
//! current [`IndexStamp`] (a few metadata batches, no log read) and is a
//! **hit** when it equals the entry's. Concurrent opens of one container
//! are **single-flight**: the first becomes the leader and aggregates,
//! the rest wait for it and then validate what it left against *their
//! own* stamp. A failed aggregation is never cached and fails only its
//! own caller; the waiters retry as if they had arrived first.
//!
//! The one lock here is a leaf: nothing else is acquired under it and
//! the loader runs with it released, so no guard spans backend I/O.
//! Entries are LRU under [`INDEX_CACHE_BUDGET_BYTES`], each charged its
//! [`IndexSource`]'s resident bytes — for `Disk`, fences and footer, so
//! a flattened container is retained whatever its record count; an index
//! larger than the whole budget is handed to its opener and not retained.

use crate::container::IndexStamp;
use crate::error::Result;
use crate::index::IndexSource;
use crate::telemetry::{
    self, CTR_INDEX_CACHE_EVICTIONS, CTR_INDEX_CACHE_HITS, CTR_INDEX_CACHE_MISSES,
    CTR_INDEX_CACHE_WAITS,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Estimated bytes of shared indices one mount keeps: the 131,072-span
/// index of a 128-writer × 1,024-block checkpoint is ~5 MiB, so this
/// holds a dozen of them (`SpanCache`'s 4 MiB would not hold one).
pub const INDEX_CACHE_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

struct Entry {
    stamp: IndexStamp,
    index: IndexSource,
    bytes: u64,
    /// Key into [`State::recency`].
    used: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    /// `Entry::used` → container path, oldest first.
    recency: BTreeMap<u64, String>,
    /// Containers some open is aggregating right now.
    in_flight: HashSet<String>,
    resident: u64,
    tick: u64,
}

impl State {
    /// The index cached for `key`, if it was built from `stamp`.
    fn hit(&mut self, key: &str, stamp: &IndexStamp) -> Option<IndexSource> {
        let entry = self.entries.get_mut(key).filter(|e| e.stamp == *stamp)?;
        self.tick += 1;
        if let Some(path) = self.recency.remove(&entry.used) {
            self.recency.insert(self.tick, path);
        }
        entry.used = self.tick;
        Some(entry.index.clone())
    }

    fn remove(&mut self, key: &str) {
        if let Some(old) = self.entries.remove(key) {
            self.recency.remove(&old.used);
            self.resident -= old.bytes;
        }
    }

    /// Replace `key`'s entry, evicting least-recently-used entries to
    /// stay within `budget`. Returns how many were evicted.
    fn insert(
        &mut self,
        key: &str,
        stamp: IndexStamp,
        index: IndexSource,
        budget: u64,
    ) -> u64 {
        self.remove(key);
        let bytes = index.heap_bytes()
            + stamp.heap_bytes()
            + 2 * key.len() as u64
            + std::mem::size_of::<Entry>() as u64;
        if bytes > budget {
            return 0;
        }
        let mut evicted = 0;
        while self.resident + bytes > budget {
            let Some((_, oldest)) = self.recency.pop_first() else {
                break;
            };
            if let Some(old) = self.entries.remove(&oldest) {
                self.resident -= old.bytes;
                evicted += 1;
            }
        }
        self.tick += 1;
        self.resident += bytes;
        self.recency.insert(self.tick, key.to_string());
        let used = self.tick;
        self.entries.insert(
            key.to_string(),
            Entry {
                stamp,
                index,
                bytes,
                used,
            },
        );
        evicted
    }
}

/// See the module docs.
pub(crate) struct IndexCache {
    budget: u64,
    slots: Mutex<State>,
    landed: Condvar,
}

/// Marks one container as being aggregated; clears the mark and wakes
/// the waiters when dropped, however the aggregation ended.
struct Flight<'a> {
    cache: &'a IndexCache,
    key: &'a str,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.cache.locked().in_flight.remove(self.key);
        self.cache.landed.notify_all();
    }
}

impl IndexCache {
    pub(crate) fn new() -> IndexCache {
        IndexCache::with_budget(INDEX_CACHE_BUDGET_BYTES)
    }

    fn with_budget(budget: u64) -> IndexCache {
        IndexCache {
            budget,
            slots: Mutex::default(),
            landed: Condvar::new(),
        }
    }

    fn locked(&self) -> MutexGuard<'_, State> {
        match self.slots.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The index of the container at `key` as `stamp` describes it: the
    /// cached one when it was built from an equal stamp, else `load`'s —
    /// run by one caller at a time per key, with no lock held — which is
    /// then cached for the next.
    pub(crate) fn get_or_load(
        &self,
        key: &str,
        stamp: &IndexStamp,
        load: impl FnOnce() -> Result<IndexSource>,
    ) -> Result<IndexSource> {
        let mut waited = false;
        let mut slots = self.locked();
        let shared = loop {
            if let Some(index) = slots.hit(key, stamp) {
                break Some(index);
            }
            if !slots.in_flight.contains(key) {
                slots.in_flight.insert(key.to_string());
                break None;
            }
            waited = true;
            slots = match self.landed.wait(slots) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        };
        drop(slots);
        if waited {
            telemetry::count(CTR_INDEX_CACHE_WAITS, 1);
        }
        if let Some(index) = shared {
            telemetry::count(CTR_INDEX_CACHE_HITS, 1);
            return Ok(index);
        }
        telemetry::count(CTR_INDEX_CACHE_MISSES, 1);
        let flight = Flight { cache: self, key };
        let index = load()?;
        let evicted = self
            .locked()
            .insert(key, stamp.clone(), index.clone(), self.budget);
        // Only now: a waiter woken earlier would find nothing to share.
        drop(flight);
        if evicted > 0 {
            telemetry::count(CTR_INDEX_CACHE_EVICTIONS, evicted);
        }
        Ok(index)
    }

    /// Estimated bytes of the indices currently retained.
    #[cfg(test)]
    fn resident_bytes(&self) -> u64 {
        self.locked().resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Container;
    use crate::content::Content;
    use crate::error::PlfsError;
    use crate::federation::Federation;
    use crate::index::{IndexEntry, SpanCache, INDEX_RECORD_BYTES};
    use crate::memfs::MemFs;
    use crate::Backend;
    use std::sync::Arc;

    fn records(n: u64) -> Vec<IndexEntry> {
        (0..n)
            .map(|k| IndexEntry {
                logical_offset: 2 * k,
                length: 1,
                physical_offset: k,
                writer: 0,
                timestamp: 1,
            })
            .collect()
    }

    /// A container whose one index log holds `records` disjoint records,
    /// and its stamp and loaded index.
    fn stamped(b: &MemFs, name: &str, n: u64) -> (String, IndexStamp, IndexSource) {
        let c = Container::new(name, &Federation::single("/ns", 1));
        c.create(b).unwrap();
        c.ensure_subdir(b, 0).unwrap();
        let log = c.index_log(b, 0).unwrap();
        b.create(&log, false).unwrap();
        b.append(&log, &Content::bytes(IndexEntry::encode_all(&records(n))))
            .unwrap();
        let probe = c.probe_index(b).unwrap().unwrap();
        let index = probe.load(b, &Arc::new(SpanCache::new())).unwrap();
        assert_eq!(spans(&index), n as usize);
        (c.canonical_path().to_string(), probe.stamp().clone(), index)
    }

    fn spans(source: &IndexSource) -> usize {
        source.mem().map_or(0, |idx| idx.span_count())
    }

    #[test]
    fn a_hit_needs_an_equal_stamp() {
        let b = MemFs::new();
        let (key, stamp, index) = stamped(&b, "/a", 4);
        let cache = IndexCache::new();
        let first = cache
            .get_or_load(&key, &stamp, || Ok(index.clone()))
            .unwrap();
        let again = cache
            .get_or_load(&key, &stamp, || panic!("a hit does not load"))
            .unwrap();
        assert!(Arc::ptr_eq(first.mem().unwrap(), again.mem().unwrap()));
        let (_, grown, bigger) = stamped(&b, "/a", 5);
        let reloaded = cache.get_or_load(&key, &grown, || Ok(bigger)).unwrap();
        assert_eq!(spans(&reloaded), 5);
        assert!(!Arc::ptr_eq(first.mem().unwrap(), reloaded.mem().unwrap()));
    }

    #[test]
    fn a_failed_load_is_not_cached() {
        let b = MemFs::new();
        let (key, stamp, index) = stamped(&b, "/a", 2);
        let cache = IndexCache::new();
        let failed = cache.get_or_load(&key, &stamp, || Err(PlfsError::Io("down".into())));
        assert!(matches!(failed, Err(PlfsError::Io(_))));
        assert_eq!(cache.resident_bytes(), 0);
        let ok = cache.get_or_load(&key, &stamp, || Ok(index)).unwrap();
        assert_eq!(spans(&ok), 2);
    }

    #[test]
    fn residency_stays_within_the_budget_and_evicts_least_recent_first() {
        let b = MemFs::new();
        let parts: Vec<_> = (0..4)
            .map(|i| stamped(&b, &format!("/c{i}"), 100))
            .collect();
        let one = parts[0].2.heap_bytes();
        // Room for two entries and change.
        let cache = IndexCache::with_budget(2 * one + one / 2 + 1024);
        for (key, stamp, index) in &parts[..2] {
            cache.get_or_load(key, stamp, || Ok(index.clone())).unwrap();
        }
        // Touch /c0 so /c1 is the eviction victim.
        let (key, stamp, _) = &parts[0];
        cache
            .get_or_load(key, stamp, || panic!("resident"))
            .unwrap();
        let (key, stamp, index) = &parts[2];
        cache.get_or_load(key, stamp, || Ok(index.clone())).unwrap();
        assert!(cache.resident_bytes() <= cache.budget);
        let (key, stamp, _) = &parts[0];
        cache
            .get_or_load(key, stamp, || panic!("kept: recently used"))
            .unwrap();
        let (key, stamp, index) = &parts[1];
        let mut reloaded = false;
        cache
            .get_or_load(key, stamp, || {
                reloaded = true;
                Ok(index.clone())
            })
            .unwrap();
        assert!(reloaded, "/c1 was least recently used");
        assert!(cache.resident_bytes() <= cache.budget);
    }

    #[test]
    fn an_index_over_the_budget_is_served_but_not_retained() {
        let b = MemFs::new();
        let (small_key, small_stamp, small) = stamped(&b, "/small", 10);
        let (key, stamp, index) = stamped(&b, "/big", 1000);
        let cache = IndexCache::with_budget(index.heap_bytes() / 2);
        cache
            .get_or_load(&small_key, &small_stamp, || Ok(small))
            .unwrap();
        let resident = cache.resident_bytes();
        assert!(resident > 0);
        let mut loads = 0;
        for _ in 0..2 {
            let served = cache
                .get_or_load(&key, &stamp, || {
                    loads += 1;
                    Ok(index.clone())
                })
                .unwrap();
            assert_eq!(spans(&served), 1000);
        }
        assert_eq!(loads, 2, "never retained, so every open loads");
        assert_eq!(
            cache.resident_bytes(),
            resident,
            "and nothing was evicted for it"
        );
    }

    #[test]
    fn a_disk_entry_is_charged_its_fences_and_footer_not_its_records() {
        let b = MemFs::new();
        let c = Container::new("/flat", &Federation::single("/ns", 1));
        c.create(&b).unwrap();
        let n = 5000;
        c.write_flattened_runs(&b, &[records(n)]).unwrap();
        let probe = c.probe_index(&b).unwrap().unwrap();
        let disk = probe.load(&b, &Arc::new(SpanCache::new())).unwrap();
        assert!(disk.mem().is_none(), "a flattened container loads bounded");
        let cache = IndexCache::new();
        cache
            .get_or_load(c.canonical_path(), probe.stamp(), || Ok(disk.clone()))
            .unwrap();
        let fences = n.div_ceil(crate::index::ondisk::SPANIDX_FENCE_STRIDE);
        assert!(disk.heap_bytes() >= fences * 8);
        let charged = cache.resident_bytes();
        let records = n * INDEX_RECORD_BYTES;
        assert!(charged < 1024, "{charged} B charged for {records} B of records");
    }
}
