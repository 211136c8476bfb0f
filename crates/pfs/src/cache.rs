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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for the integer keys of the simulator's hot
/// maps (`(file, block)` here). SipHash's DoS resistance buys nothing
/// for keys the simulation itself mints, and costs most of a lookup.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by simulator-minted integers.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// End of an LRU chain; in an index run, a block that is not resident.
const NIL: u32 = u32::MAX;

/// Blocks per index entry. A file's consecutive blocks share one map
/// entry, so a multi-block insert or lookup probes a warm entry for all
/// but about one block in `RUN`.
const RUN: u64 = 8;

/// One resident block: its key and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: (FileId, u64),
    /// Older neighbour (towards `head`).
    prev: u32,
    /// Newer neighbour (towards `tail`).
    next: u32,
}

/// One node's page cache: an intrusive LRU over a slab, so a hit, an
/// insert and an eviction are each one hash probe plus O(1) relinking.
#[derive(Debug)]
pub(crate) struct PageCache {
    capacity_blocks: u64,
    block_size: u64,
    /// (file, block index / `RUN`) → slot in `slab` of each block of the
    /// run, `NIL` where the block is not resident. A run with no
    /// resident block has no entry.
    index: IdMap<(FileId, u64), [u32; RUN as usize]>,
    /// Resident blocks (the slots linked into the recency chain).
    resident: u64,
    slab: Vec<Slot>,
    /// Slots emptied by `invalidate_file`, reused before the slab grows.
    free: Vec<u32>,
    /// Least recently used slot (the next victim).
    head: u32,
    /// Most recently used slot.
    tail: u32,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// A cache of `capacity_bytes`, managed in `block_size`-byte blocks.
    pub(crate) fn new(capacity_bytes: u64, block_size: u64) -> Self {
        assert!(block_size > 0);
        PageCache {
            capacity_blocks: capacity_bytes / block_size,
            block_size,
            index: IdMap::default(),
            resident: 0,
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
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

    /// Slot of `key`, if resident.
    fn slot_of(&self, (file, b): (FileId, u64)) -> Option<u32> {
        let slot = self.index.get(&(file, b / RUN))?[(b % RUN) as usize];
        (slot != NIL).then_some(slot)
    }

    /// Record `key` as resident in `slot`.
    fn index_insert(&mut self, (file, b): (FileId, u64), slot: u32) {
        self.index
            .entry((file, b / RUN))
            .or_insert([NIL; RUN as usize])[(b % RUN) as usize] = slot;
        self.resident += 1;
    }

    /// Forget `key`, dropping its run once no block of it is resident.
    fn index_remove(&mut self, (file, b): (FileId, u64)) {
        if let Entry::Occupied(mut e) = self.index.entry((file, b / RUN)) {
            e.get_mut()[(b % RUN) as usize] = NIL;
            if e.get().iter().all(|&s| s == NIL) {
                e.remove();
            }
            self.resident -= 1;
        }
    }

    /// Take `slot` out of the recency chain.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slab[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Make `slot` the most recently used.
    fn push_tail(&mut self, slot: u32) {
        let s = &mut self.slab[slot as usize];
        s.prev = self.tail;
        s.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slab[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Mark `key` most recently used, inserting it (and evicting the
    /// least recently used block when full) if it is not resident.
    fn touch(&mut self, key: (FileId, u64)) {
        if let Some(slot) = self.slot_of(key) {
            self.unlink(slot);
            self.push_tail(slot);
            return;
        }
        if self.capacity_blocks == 0 {
            return;
        }
        let slot = if self.resident >= self.capacity_blocks {
            let victim = self.head;
            self.unlink(victim);
            self.index_remove(self.slab[victim as usize].key);
            self.slab[victim as usize].key = key;
            victim
        } else if let Some(slot) = self.free.pop() {
            self.slab[slot as usize].key = key;
            slot
        } else {
            self.slab.push(Slot {
                key,
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1) as u32
        };
        self.push_tail(slot);
        self.index_insert(key, slot);
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
            if let Some(slot) = self.slot_of((file, b)) {
                self.unlink(slot);
                self.push_tail(slot);
                hit += bytes;
                self.hits += 1;
            } else {
                miss += bytes;
                self.misses += 1;
            }
        }
        (hit, miss)
    }

    /// Drop every block of `file` (file deleted / truncated): a scan of
    /// the resident blocks. The simulated file system never calls this —
    /// unlinks leave a dead file's blocks to age out, since ids are never
    /// reused.
    #[cfg(test)]
    pub(crate) fn invalidate_file(&mut self, file: FileId) {
        let runs: Vec<(FileId, u64)> = self.index.keys().filter(|k| k.0 == file).copied().collect();
        for run in runs {
            let Some(slots) = self.index.remove(&run) else {
                continue;
            };
            for slot in slots.into_iter().filter(|&s| s != NIL) {
                self.unlink(slot);
                self.free.push(slot);
                self.resident -= 1;
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn resident_blocks(&self) -> u64 {
        self.resident
    }

    #[cfg(test)]
    pub(crate) fn hit_count(&self) -> u64 {
        self.hits
    }

    #[cfg(test)]
    pub(crate) fn miss_count(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The page cache as first written — a `HashMap` of keys to LRU
    /// sequence numbers plus a `BTreeMap` ordering them — kept as the
    /// oracle the slab LRU must match op for op.
    struct Oracle {
        capacity_blocks: u64,
        block_size: u64,
        entries: HashMap<(FileId, u64), u64>,
        order: BTreeMap<u64, (FileId, u64)>,
        seq: u64,
        hits: u64,
        misses: u64,
    }

    impl Oracle {
        fn new(capacity_bytes: u64, block_size: u64) -> Self {
            Oracle {
                capacity_blocks: capacity_bytes / block_size,
                block_size,
                entries: HashMap::new(),
                order: BTreeMap::new(),
                seq: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn touch(&mut self, key: (FileId, u64)) {
            if let Some(old) = self.entries.insert(key, self.seq) {
                self.order.remove(&old);
            }
            self.order.insert(self.seq, key);
            self.seq += 1;
            while self.entries.len() as u64 > self.capacity_blocks {
                let (&oldest, &victim) = self.order.iter().next().unwrap();
                self.order.remove(&oldest);
                self.entries.remove(&victim);
            }
        }

        fn insert(&mut self, file: FileId, offset: u64, len: u64) {
            if len == 0 {
                return;
            }
            let first = offset.div_ceil(self.block_size);
            let last = (offset + len) / self.block_size;
            for b in first..last {
                self.touch((file, b));
            }
        }

        fn lookup(&mut self, file: FileId, offset: u64, len: u64) -> (u64, u64) {
            let (mut hit, mut miss) = (0, 0);
            if len == 0 {
                return (0, 0);
            }
            for b in offset / self.block_size..=(offset + len - 1) / self.block_size {
                let start = b * self.block_size;
                let bytes = (offset + len).min(start + self.block_size) - offset.max(start);
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

        fn invalidate_file(&mut self, file: FileId) {
            let stale: Vec<_> = self
                .entries
                .keys()
                .filter(|k| k.0 == file)
                .copied()
                .collect();
            for key in stale {
                if let Some(seq) = self.entries.remove(&key) {
                    self.order.remove(&seq);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(FileId, u64, u64),
        Lookup(FileId, u64, u64),
        Invalidate(FileId),
    }

    /// Few files, offsets and lengths spanning a few blocks of 16 bytes,
    /// so small caches fill, evict, re-touch and straddle index runs.
    fn op() -> impl Strategy<Value = Op> {
        (0..9u32, 0..3u64, 0..400u64, 0..80u64).prop_map(|(kind, f, o, l)| match kind {
            0..=3 => Op::Insert(f, o, l),
            4..=7 => Op::Lookup(f, o, l),
            _ => Op::Invalidate(f),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slab_lru_matches_the_btreemap_oracle(
            capacity_blocks in 0..12u64,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let mut lru = PageCache::new(capacity_blocks * 16, 16);
            let mut oracle = Oracle::new(capacity_blocks * 16, 16);
            for op in ops {
                match op {
                    Op::Insert(f, o, l) => {
                        lru.insert(f, o, l);
                        oracle.insert(f, o, l);
                    }
                    Op::Lookup(f, o, l) => {
                        prop_assert_eq!(lru.lookup(f, o, l), oracle.lookup(f, o, l));
                    }
                    Op::Invalidate(f) => {
                        lru.invalidate_file(f);
                        oracle.invalidate_file(f);
                    }
                }
                prop_assert_eq!(lru.resident_blocks(), oracle.entries.len() as u64);
                prop_assert_eq!(lru.hit_count(), oracle.hits);
                prop_assert_eq!(lru.miss_count(), oracle.misses);
            }
        }
    }

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
