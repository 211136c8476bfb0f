//! Per-client-node page cache.
//!
//! Compute nodes cache file data they have recently written or read. A
//! read that hits the local cache is served at node memory bandwidth and
//! never touches the storage network — which is how measured read
//! bandwidth can exceed the storage network's theoretical peak, as the
//! paper observes at 1,024 concurrent streams (§IV-C).
//!
//! Model: block-granular LRU over `(file, block)` keys. Writes populate
//! the cache (write-back page cache); reads populate on miss.

use crate::state::FileId;
use std::collections::{BTreeMap, HashMap};

/// One node's page cache.
#[derive(Debug)]
pub struct PageCache {
    capacity_blocks: u64,
    block_size: u64,
    /// (file, block index) → LRU sequence.
    entries: HashMap<(FileId, u64), u64>,
    /// LRU sequence → key (oldest first).
    order: BTreeMap<u64, (FileId, u64)>,
    /// file → resident block count (lets invalidation of uncached files
    /// return immediately instead of scanning the table).
    per_file: HashMap<FileId, u64>,
    seq: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// A cache of `capacity_bytes`, managed in `block_size`-byte blocks.
    pub fn new(capacity_bytes: u64, block_size: u64) -> Self {
        assert!(block_size > 0);
        PageCache {
            capacity_blocks: capacity_bytes / block_size,
            block_size,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            per_file: HashMap::new(),
            seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn blocks(&self, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / self.block_size;
        let last = (offset + len - 1) / self.block_size;
        first..last + 1
    }

    fn touch(&mut self, key: (FileId, u64)) {
        match self.entries.insert(key, self.seq) {
            Some(old) => {
                self.order.remove(&old);
            }
            None => {
                *self.per_file.entry(key.0).or_insert(0) += 1;
            }
        }
        self.order.insert(self.seq, key);
        self.seq += 1;
        while self.entries.len() as u64 > self.capacity_blocks {
            #[expect(clippy::expect_used, reason = "len > capacity >= 0 implies the order map is non-empty")]
            let (&oldest, &victim) = self.order.iter().next().expect("non-empty over capacity");
            self.order.remove(&oldest);
            self.entries.remove(&victim);
            self.drop_file_count(victim.0);
        }
    }

    fn drop_file_count(&mut self, file: FileId) {
        if let Some(c) = self.per_file.get_mut(&file) {
            *c -= 1;
            if *c == 0 {
                self.per_file.remove(&file);
            }
        }
    }

    /// Record that `[offset, offset+len)` of `file` is now resident
    /// (called on writes and on read misses after fill). Only blocks the
    /// range covers *entirely* are marked: a partial write must not make
    /// the rest of the block look cached (small strided writers would
    /// otherwise appear to cache a whole shared file).
    pub fn insert(&mut self, file: FileId, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = offset.div_ceil(self.block_size);
        let last = (offset + len) / self.block_size; // exclusive
        for b in first..last {
            self.touch((file, b));
        }
    }

    /// Split a read into cached and uncached bytes, refreshing LRU for
    /// hits. Returns `(hit_bytes, miss_bytes)`.
    pub fn lookup(&mut self, file: FileId, offset: u64, len: u64) -> (u64, u64) {
        let mut hit = 0u64;
        let mut miss = 0u64;
        for b in self.blocks(offset, len) {
            let block_start = b * self.block_size;
            let block_end = block_start + self.block_size;
            let covered = offset.max(block_start)..(offset + len).min(block_end);
            let bytes = covered.end - covered.start;
            if self.entries.contains_key(&(file, b)) {
                self.touch((file, b));
                hit += bytes;
                self.hits += 1;
            } else {
                miss += bytes;
                self.misses += 1;
            }
        }
        (hit, miss)
    }

    /// Drop every block of `file` (file deleted / truncated). O(1) when
    /// the file has nothing resident — the common case for metadata-only
    /// files being unlinked at scale.
    pub fn invalidate_file(&mut self, file: FileId) {
        if !self.per_file.contains_key(&file) {
            return;
        }
        let stale: Vec<(FileId, u64)> = self
            .entries
            .keys()
            .filter(|(f, _)| *f == file)
            .copied()
            .collect();
        for key in stale {
            if let Some(seq) = self.entries.remove(&key) {
                self.order.remove(&seq);
            }
        }
        self.per_file.remove(&file);
    }

    pub fn resident_blocks(&self) -> u64 {
        self.entries.len() as u64
    }

    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    pub fn miss_count(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_data_reads_back_hot() {
        let mut c = PageCache::new(1024 * 1024, 4096);
        c.insert(1, 0, 64 * 1024);
        let (hit, miss) = c.lookup(1, 0, 64 * 1024);
        assert_eq!(hit, 64 * 1024);
        assert_eq!(miss, 0);
    }

    #[test]
    fn unseen_data_misses() {
        let mut c = PageCache::new(1024 * 1024, 4096);
        let (hit, miss) = c.lookup(9, 0, 8192);
        assert_eq!(hit, 0);
        assert_eq!(miss, 8192);
    }

    #[test]
    fn partial_overlap_splits() {
        let mut c = PageCache::new(1024 * 1024, 4096);
        c.insert(1, 0, 4096); // block 0 only
        let (hit, miss) = c.lookup(1, 0, 8192);
        assert_eq!(hit, 4096);
        assert_eq!(miss, 4096);
    }

    #[test]
    fn sub_block_accounting_is_byte_accurate() {
        let mut c = PageCache::new(1024 * 1024, 4096);
        c.insert(1, 4096, 4096); // block 1
        // Read 100 bytes straddling blocks 0 (miss) and 1 (hit).
        let (hit, miss) = c.lookup(1, 4046, 100);
        assert_eq!(miss, 50);
        assert_eq!(hit, 50);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PageCache::new(3 * 4096, 4096); // 3 blocks
        c.insert(1, 0, 4096);
        c.insert(1, 4096, 4096);
        c.insert(1, 8192, 4096);
        // Touch block 0 so block 1 becomes the LRU victim.
        c.lookup(1, 0, 1);
        c.insert(1, 12288, 4096); // evicts block 1
        assert_eq!(c.lookup(1, 0, 1).0, 1, "block 0 survived");
        assert_eq!(c.lookup(1, 4096, 1).1, 1, "block 1 evicted");
        assert_eq!(c.resident_blocks(), 3);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = PageCache::new(10 * 4096, 4096);
        c.insert(1, 0, 100 * 4096);
        assert_eq!(c.resident_blocks(), 10);
        // Only the tail survived.
        let (hit, _) = c.lookup(1, 99 * 4096, 4096);
        assert_eq!(hit, 4096);
        let (hit, _) = c.lookup(1, 0, 4096);
        assert_eq!(hit, 0);
    }

    #[test]
    fn files_are_disjoint_and_invalidation_works() {
        let mut c = PageCache::new(1024 * 1024, 4096);
        c.insert(1, 0, 4096);
        c.insert(2, 0, 4096);
        assert_eq!(c.lookup(2, 0, 4096).0, 4096);
        c.invalidate_file(1);
        assert_eq!(c.lookup(1, 0, 4096).0, 0);
        assert_eq!(c.lookup(2, 0, 4096).0, 4096);
    }

    #[test]
    fn zero_length_lookup_is_empty() {
        let mut c = PageCache::new(4096, 4096);
        assert_eq!(c.lookup(1, 0, 0), (0, 0));
    }
}
