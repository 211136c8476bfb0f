//! The simulated parallel file system itself: namespace state plus the
//! contended resources every operation flows through.
//!
//! Time model per operation:
//!
//! * metadata op → FIFO queue of the owning metadata server;
//! * write → (shared files only) stripe-lock acquisition → storage-network
//!   channel → per-stripe-chunk object storage server, with a seek penalty
//!   when the server's stream for that file is non-sequential;
//! * read → client page cache first (hits served by the node's memory
//!   bus), misses through network + storage servers as for writes.
//!
//! All service times receive a small seeded jitter so repeated runs
//! produce the error bars the paper reports.

use crate::cache::PageCache;
use crate::locks::LockManager;
use crate::params::{MetaKind, PfsParams};
use crate::state::{parent_of, FileId, Namespace};
use simcore::{Fifo, Jitter, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// How a write interacts with sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// The file is private to one writer (N-N files, PLFS logs): no
    /// cross-client locking.
    Exclusive,
    /// The file is concurrently written by many clients (direct N-1):
    /// stripe locks apply.
    SharedFile,
}

/// Cache block size (bytes) used by all client caches.
const CACHE_BLOCK: u64 = 1 << 20;

/// Client-side cost of a metadata cache hit (no server round trip).
const CLIENT_META_HIT_S: f64 = 15e-6;

/// A `streams` slot whose server has seen no access to the file yet.
const NO_STREAM: u64 = u64::MAX;

/// Client metadata cache probed by `&str`, so cache *hits* — the
/// overwhelmingly common case once 65,536 ranks re-open shared files —
/// never allocate. Each path's key string interns once on first touch;
/// the per-path set records which nodes hold the entry.
#[derive(Debug, Default)]
struct MetaCache {
    map: HashMap<String, HashSet<u32>>,
}

impl MetaCache {
    /// Record that `node` holds the entry for `path`; returns `true` when
    /// it already did (a client-side hit).
    fn hit_or_insert(&mut self, node: usize, path: &str) -> bool {
        if let Some(nodes) = self.map.get_mut(path) {
            !nodes.insert(node as u32)
        } else {
            self.map.insert(path.to_string(), HashSet::from([node as u32]));
            false
        }
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// One simulated parallel file system instance.
pub struct SimPfs {
    params: PfsParams,
    ns: Namespace,
    mds: Vec<Fifo>,
    oss: Vec<Fifo>,
    net: Fifo,
    mem: Vec<Fifo>,
    locks: LockManager,
    caches: Vec<PageCache>,
    /// Next offset that would be sequential on each (server, file)
    /// stream, at [`SimPfs::stream_slot`]; [`NO_STREAM`] where none.
    streams: Vec<u64>,
    /// Per-node client attribute cache: files each node has already
    /// opened. Re-opens are served client-side (PanFS-style capability
    /// caching) — the mechanism that keeps the Original design's N²
    /// index opens survivable in the paper's Fig. 4.
    meta_cache: MetaCache,
    /// Per-node client dentry cache: directories each node has listed.
    dir_cache: MetaCache,
    jitter: Jitter,
    bytes_written: u64,
    bytes_read: u64,
    cache_hit_bytes: u64,
}

impl SimPfs {
    pub fn new(params: PfsParams, seed: u64) -> Self {
        let mds = (0..params.mds_count.max(1))
            .map(|_| Fifo::new("mds", 1))
            .collect();
        let oss = (0..params.oss_count.max(1))
            .map(|_| Fifo::new("oss", 1))
            .collect();
        let net = Fifo::new("storage-net", params.net.channels.max(1));
        let mem = (0..params.nodes.max(1)).map(|_| Fifo::new("mem", 1)).collect();
        let caches = (0..params.nodes.max(1))
            .map(|_| PageCache::new(params.client_cache_bytes, CACHE_BLOCK))
            .collect();
        let jitter = Jitter::with_tail(
            seed,
            params.jitter_spread,
            params.jitter_tail_prob,
            params.jitter_tail_mag,
        );
        SimPfs {
            params,
            ns: Namespace::new(),
            mds,
            oss,
            net,
            mem,
            locks: LockManager::new(),
            caches,
            streams: Vec::new(),
            meta_cache: MetaCache::default(),
            dir_cache: MetaCache::default(),
            jitter,
            bytes_written: 0,
            bytes_read: 0,
            cache_hit_bytes: 0,
        }
    }

    pub fn params(&self) -> &PfsParams {
        &self.params
    }

    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    pub(crate) fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.ns
    }

    pub fn lock_transfers(&self) -> u64 {
        self.locks.transfers()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn cache_hit_bytes(&self) -> u64 {
        self.cache_hit_bytes
    }

    /// Charge a bare metadata operation to metadata server `mds`.
    pub(crate) fn meta(&mut self, mds: usize, kind: MetaKind, arrival: SimTime) -> SimTime {
        let service = SimDuration::from_secs_f64(self.params.meta_service(kind));
        let service = self.jitter.apply(service);
        let idx = mds % self.mds.len();
        self.mds[idx].acquire(arrival, service).finish
    }

    /// Service-time multiplier for creating an entry inside `parent`:
    /// directory-modifying operations contend harder as the directory
    /// grows (the single-directory create collapse GIGA+ measured).
    fn dir_factor(&self, path: &str) -> f64 {
        let entries = self.ns.child_count(parent_of(path)) as f64;
        let t = self.params.dir_contention_entries.max(1) as f64;
        1.0 + (entries / t) * (entries / t)
    }

    /// Create a file: metadata cost (scaled by the parent directory's
    /// size) plus namespace state.
    pub fn create_file(&mut self, mds: usize, path: &str, arrival: SimTime) -> SimTime {
        let factor = self.dir_factor(path);
        let service = SimDuration::from_secs_f64(self.params.meta_create_s * factor);
        let service = self.jitter.apply(service);
        let idx = mds % self.mds.len();
        let finish = self.mds[idx].acquire(arrival, service).finish;
        self.ns.create_file(path);
        finish
    }

    /// Create a directory (same directory-size scaling as file creates).
    pub fn mkdir(&mut self, mds: usize, path: &str, arrival: SimTime) -> SimTime {
        let factor = self.dir_factor(path);
        let service = SimDuration::from_secs_f64(self.params.meta_mkdir_s * factor);
        let service = self.jitter.apply(service);
        let idx = mds % self.mds.len();
        let finish = self.mds[idx].acquire(arrival, service).finish;
        self.ns.mkdir(path);
        finish
    }

    /// Open an existing file from `node`. The first open from a node pays
    /// a metadata server round trip; re-opens hit the node's client
    /// attribute cache.
    ///
    /// # Panics
    /// Panics if the file does not exist — that is a driver bug, not a
    /// simulated error.
    pub fn open_file(&mut self, mds: usize, node: usize, path: &str, arrival: SimTime) -> SimTime {
        assert!(self.ns.file_exists(path), "open of missing file {path}");
        if self.meta_cache.hit_or_insert(node, path) {
            // Client-cached attributes/capability: no server trip.
            return arrival + SimDuration::from_secs_f64(CLIENT_META_HIT_S);
        }
        self.meta(mds, MetaKind::Open, arrival)
    }

    /// Read a directory from `node`: cost scales with its current entry
    /// count; re-listings from the same node hit the client dentry cache.
    pub fn readdir(&mut self, mds: usize, node: usize, path: &str, arrival: SimTime) -> SimTime {
        if self.dir_cache.hit_or_insert(node, path) {
            return arrival + SimDuration::from_secs_f64(CLIENT_META_HIT_S);
        }
        let entries = self.ns.child_count(path);
        self.meta(mds, MetaKind::Readdir { entries }, arrival)
    }

    /// File size (no time cost — pair with a `MetaKind::Stat` charge when
    /// the access is remote).
    pub fn file_size(&self, path: &str) -> u64 {
        self.ns.id(path).map_or(0, |id| self.ns.size(id))
    }

    /// The id `path` resolves to, if the file exists. Ids are stable
    /// until the path is unlinked; re-creating it afterwards mints a new
    /// one.
    pub fn file_id(&self, path: &str) -> Option<FileId> {
        self.ns.id(path)
    }

    /// `path`'s id, for an operation the simulated job may only issue
    /// on an existing file.
    #[expect(clippy::panic, reason = "DES contract — create precedes data ops; a miss is a workload bug worth halting the simulation")]
    fn existing(&self, path: &str, op: &str) -> FileId {
        self.ns
            .id(path)
            .unwrap_or_else(|| panic!("{op} on missing file {path}"))
    }

    /// Append `len` bytes to `path` from `node`. Returns (landing offset,
    /// finish time). Appends are exclusive by construction (one writer per
    /// log).
    pub fn append(&mut self, node: usize, path: &str, len: u64, arrival: SimTime) -> (u64, SimTime) {
        let offset = self.ns.size(self.existing(path, "append"));
        let finish = self.write_at(node, node as u64, path, offset, len, AccessMode::Exclusive, arrival);
        (offset, finish)
    }

    /// Write `len` bytes at `offset` of `path` from `node`, issued by
    /// `client` (the rank — stripe-lock ownership is per client process).
    #[expect(
        clippy::too_many_arguments,
        reason = "one simulated write is node, client, path, offset, length, access mode and arrival; a struct would only rename them"
    )]
    pub(crate) fn write_at(
        &mut self,
        node: usize,
        client: u64,
        path: &str,
        offset: u64,
        len: u64,
        mode: AccessMode,
        arrival: SimTime,
    ) -> SimTime {
        let file = self.existing(path, "write");
        let node = node % self.mem.len();
        let mut t = arrival;

        if mode == AccessMode::SharedFile && len > 0 {
            let first = offset / self.params.stripe_size;
            let last = (offset + len - 1) / self.params.stripe_size;
            let cost = self
                .jitter
                .apply(SimDuration::from_secs_f64(self.params.lock_transfer_s));
            t = self.locks.acquire(file, client, first, last, cost, t);
        }

        if len > 0 {
            t = self.transfer(node, file, offset, len, true, t);
            self.caches[node].insert(file, offset, len);
        }

        self.ns.write_extent(file, offset, len);
        self.bytes_written += len;
        t
    }

    /// Read `len` bytes at `offset` of `path` into `node`.
    pub fn read_at(
        &mut self,
        node: usize,
        path: &str,
        offset: u64,
        len: u64,
        arrival: SimTime,
    ) -> SimTime {
        let file = self.existing(path, "read");
        let node = node % self.mem.len();
        let len = len.min(self.ns.size(file).saturating_sub(offset));
        if len == 0 {
            return arrival;
        }
        let (hit, miss) = self.caches[node].lookup(file, offset, len);
        self.cache_hit_bytes += hit;
        self.bytes_read += len;

        let mut finish = arrival;
        if hit > 0 {
            let service = self
                .jitter
                .apply(SimDuration::for_bytes(hit, self.params.client_mem_bw));
            finish = finish.max(self.mem[node].acquire(arrival, service).finish);
        }
        if miss > 0 {
            // Approximation: treat the missed bytes as one contiguous
            // storage access at `offset` (misses are contiguous for the
            // workloads we model — cold reads or evicted prefixes).
            let st = self.transfer(node, file, offset, miss, false, arrival);
            self.caches[node].insert(file, offset, len);
            finish = finish.max(st);
        }
        finish
    }

    /// Move `len` bytes between `node` and the storage servers: network
    /// channel, then per-stripe-chunk OSS service with seek/prefetch.
    ///
    /// The round-trip time is charged as *latency* the synchronous client
    /// waits out, not as channel occupancy — channels only carry bytes,
    /// so many clients' round trips overlap.
    fn transfer(
        &mut self,
        _node: usize,
        file: FileId,
        offset: u64,
        len: u64,
        is_write: bool,
        arrival: SimTime,
    ) -> SimTime {
        let net_service = self.jitter.apply(SimDuration::from_secs_f64(
            len as f64 / self.params.net.channel_bw(),
        ));
        let rtt = SimDuration::from_secs_f64(self.params.net.rtt_s);
        let net_done = self.net.acquire(arrival, net_service).finish + rtt;

        let mut finish = net_done;
        let stripe = self.params.stripe_size;
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe_idx = cur / stripe;
            let chunk_end = ((stripe_idx + 1) * stripe).min(end);
            let chunk = chunk_end - cur;
            let k = stripe_idx % self.stripe_width() as u64;
            let oss_idx = self.oss_at(file, k);
            let slot = self.stream_slot(file, k);
            let overhead = if self.stream_continues(slot, cur) {
                self.params.sequential_overhead_s
            } else {
                self.params.seek_penalty_s
            };
            self.stream_set(slot, chunk_end);

            // Partial-stripe writes pay the RAID read-modify-write tax.
            let bw_factor = if is_write && chunk < stripe {
                self.params.partial_stripe_write_factor
            } else {
                1.0
            };
            let service = self.jitter.apply(SimDuration::from_secs_f64(
                overhead + bw_factor * chunk as f64 / self.params.oss_bw,
            ));
            let g = self.oss[oss_idx].acquire(net_done, service);
            finish = finish.max(g.finish);
            cur = chunk_end;
        }
        finish
    }

    // --- crate-internal hooks for the batch helpers (src/batch.rs) ---

    pub(crate) fn jitter_dur(&mut self, d: SimDuration) -> SimDuration {
        self.jitter.apply(d)
    }

    pub(crate) fn cache_insert(&mut self, node: usize, file: FileId, offset: u64, len: u64) {
        let n = node % self.caches.len();
        self.caches[n].insert(file, offset, len);
    }

    pub(crate) fn cache_lookup(&mut self, node: usize, file: FileId, offset: u64, len: u64) -> (u64, u64) {
        let n = node % self.caches.len();
        self.caches[n].lookup(file, offset, len)
    }

    pub(crate) fn mem_acquire(&mut self, node: usize, arrival: SimTime, service: SimDuration) -> SimTime {
        let n = node % self.mem.len();
        self.mem[n].acquire(arrival, service).finish
    }

    pub(crate) fn net_acquire(&mut self, arrival: SimTime, service: SimDuration) -> SimTime {
        self.net.acquire(arrival, service).finish
    }

    /// `oss` comes from [`SimPfs::oss_at`], so it is in range.
    pub(crate) fn oss_acquire(&mut self, oss: usize, arrival: SimTime, service: SimDuration) -> SimTime {
        self.oss[oss].acquire(arrival, service).finish
    }

    /// Slot in `streams` of `file`'s stream on the server at position `k`
    /// of its stripe group (`k = stripe_idx % stripe_width()`). Because
    /// the group width is at most the server count, the slots of one file
    /// map one-to-one onto `(oss_at(file, k), file)`.
    pub(crate) fn stream_slot(&self, file: FileId, k: u64) -> usize {
        (file * self.stripe_width() as u64 + k) as usize
    }

    /// Would an access starting at `cur` continue the stream in `slot`?
    /// It does if it continues the last access in *object* space: either
    /// byte-contiguous (same stripe) or the next stripe this server owns
    /// (a logical gap of width − 1 stripes).
    pub(crate) fn stream_continues(&self, slot: usize, cur: u64) -> bool {
        let stripe = self.params.stripe_size;
        let stride_gap = (self.stripe_width() as u64 - 1) * stripe;
        match self.streams.get(slot).copied() {
            None | Some(NO_STREAM) => false,
            Some(e) => cur == e || (cur.is_multiple_of(stripe) && e % stripe == 0 && cur == e + stride_gap),
        }
    }

    /// The stripe group width actually usable (bounded by server count).
    pub(crate) fn stripe_width(&self) -> usize {
        self.params.stripe_width.clamp(1, self.oss.len())
    }

    /// The OSS at position `k` (< `stripe_width()`) of `file`'s stripe
    /// group: stripe `s` of a file lives at position `s % stripe_width()`.
    /// Files rotate over a *stripe group* of `stripe_width` servers
    /// anchored by the file id, not over the whole server pool.
    pub(crate) fn oss_at(&self, file: FileId, k: u64) -> usize {
        ((file + k) % self.oss.len() as u64) as usize
    }

    pub(crate) fn stream_set(&mut self, slot: usize, end: u64) {
        if self.streams.len() <= slot {
            self.streams.resize(slot + 1, NO_STREAM);
        }
        self.streams[slot] = end;
    }

    pub(crate) fn account_write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    pub(crate) fn account_read(&mut self, bytes: u64, cached: u64) {
        self.bytes_read += bytes;
        self.cache_hit_bytes += cached;
    }

    /// Human-readable utilization report (diagnostics; used by the
    /// harness's verbose mode and by calibration work).
    pub fn resource_report(&self) -> String {
        let mut out = String::new();
        let fifo_line = |f: &Fifo| {
            format!(
                "ops={} busy={} drained={} mean_wait={}",
                f.ops(),
                f.busy_time(),
                f.drained_at(),
                f.mean_wait()
            )
        };
        for (i, m) in self.mds.iter().enumerate() {
            out.push_str(&format!("mds[{i}]: {}\n", fifo_line(m)));
        }
        out.push_str(&format!("net: {}\n", fifo_line(&self.net)));
        let oss_ops: u64 = self.oss.iter().map(|o| o.ops()).sum();
        let oss_busy: f64 = self.oss.iter().map(|o| o.busy_time().as_secs_f64()).sum();
        let oss_drained = self
            .oss
            .iter()
            .map(|o| o.drained_at())
            .max()
            .unwrap_or(SimTime::ZERO);
        out.push_str(&format!(
            "oss[{}]: ops={oss_ops} busy_sum={oss_busy:.3}s drained_max={oss_drained}\n",
            self.oss.len()
        ));
        out.push_str(&format!(
            "locks: grants={} transfers={}\n",
            self.locks.grants(),
            self.locks.transfers()
        ));
        out
    }

    /// Drop every client-side cache (page caches and metadata caches) —
    /// the state a *new job* starts without. Experiment harnesses call
    /// this between a write job and a cold-restart read job. Server-side
    /// stream state survives (the storage system keeps running).
    pub fn clear_client_caches(&mut self) {
        for c in &mut self.caches {
            *c = PageCache::new(self.params.client_cache_bytes, CACHE_BLOCK);
        }
        self.meta_cache.clear();
        self.dir_cache.clear();
    }

    /// Forget lock and cache state for a file being deleted.
    pub fn unlink_file(&mut self, mds: usize, path: &str, arrival: SimTime) -> SimTime {
        let finish = self.meta(mds, MetaKind::Unlink, arrival);
        if let Some(id) = self.ns.unlink(path) {
            // Cache entries and streams are dropped lazily: file ids are
            // never reused, so stale blocks of a deleted file are
            // unreachable and simply age out of the LRU. (Eager
            // invalidation would be O(nodes) per unlink — ruinous for
            // 65k-rank create storms.)
            self.locks.forget_file(id);
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn quiet(params: &mut PfsParams) {
        params.jitter_spread = 0.0;
        params.jitter_tail_prob = 0.0;
    }

    fn pfs() -> SimPfs {
        let mut p = PfsParams::panfs_production(64);
        quiet(&mut p);
        SimPfs::new(p, 1)
    }

    #[test]
    fn stream_slots_are_one_to_one_with_server_and_file() {
        // Width below, equal to, and (clamped) above the server count: the
        // dense slot of a (file, stripe) pair must name exactly one
        // (server, file) stream, and that stream exactly one slot.
        for (oss_count, stripe_width) in [(7, 3), (7, 7), (64, 10), (5, 9)] {
            let mut p = PfsParams::panfs_production(4);
            p.oss_count = oss_count;
            p.stripe_width = stripe_width;
            let fs = SimPfs::new(p, 1);
            let width = fs.stripe_width() as u64;
            let mut by_slot = HashMap::new();
            let mut by_stream = HashMap::new();
            for file in 0..3 * oss_count as u64 {
                for stripe in 0..4 * width {
                    let k = stripe % width;
                    let stream = (fs.oss_at(file, k), file);
                    let slot = fs.stream_slot(file, k);
                    assert_eq!(*by_slot.entry(slot).or_insert(stream), stream, "slot {slot}");
                    assert_eq!(*by_stream.entry(stream).or_insert(slot), slot, "{stream:?}");
                }
            }
            assert_eq!(by_slot.len(), 3 * oss_count * width as usize);
        }
    }

    #[test]
    fn metadata_ops_queue_on_one_mds() {
        let mut fs = pfs();
        let mut finishes = Vec::new();
        for i in 0..10 {
            finishes.push(fs.create_file(0, &format!("/f{i}"), t(0.0)));
        }
        // Single MDS: creates serialize. The root directory grows from 0
        // to 9 entries as we go, so each create is slightly dearer than
        // the last (directory contention).
        for w in finishes.windows(2) {
            assert!(w[1] > w[0]);
        }
        let total = finishes.last().unwrap().as_secs_f64();
        let expect: f64 = (0..10)
            .map(|i| 600e-6 * (1.0 + (i as f64 / 4800.0).powi(2)))
            .sum();
        assert!((total - expect).abs() < 1e-6, "total {total} vs {expect}");
    }

    #[test]
    fn more_mds_parallelize_creates_across_namespaces() {
        let mut p = PfsParams::panfs_production(64);
        quiet(&mut p);
        p.mds_count = 10;
        let mut fs = SimPfs::new(p, 1);
        let mut last = SimTime::ZERO;
        for i in 0..100 {
            // Spread across MDS by hash (here: round robin).
            last = last.max(fs.create_file(i % 10, &format!("/v{}/f{i}", i % 10), t(0.0)));
        }
        // 100 creates over 10 MDS ≈ 10 serial creates (directory growth
        // adds a sub-1% contention term).
        let base = 10.0 * 600e-6;
        assert!(last.as_secs_f64() >= base && last.as_secs_f64() < base * 1.05);
    }

    /// Issue one op per writer per round, so concurrent writers interleave
    /// in (approximately) time order — how the real DES loop drives the
    /// file system. Returns the latest finish time.
    fn rounds(
        writers: usize,
        count: u64,
        mut op: impl FnMut(usize, u64, SimTime) -> SimTime,
    ) -> SimTime {
        let mut clocks = vec![SimTime::ZERO; writers];
        for r in 0..count {
            for (w, clock) in clocks.iter_mut().enumerate() {
                *clock = op(w, r, *clock);
            }
        }
        clocks.into_iter().max().unwrap_or(SimTime::ZERO)
    }

    #[test]
    fn n1_shared_writes_are_much_slower_than_exclusive_logs() {
        // 32 writers, strided 32 KiB blocks into one shared file (two
        // writers alternate within each stripe) vs each appending to a
        // private log. This is the paper's foundational gap.
        let mut fs = pfs();
        fs.create_file(0, "/shared", t(0.0));
        let block = 32 * 1024; // half a stripe: guaranteed ping-pong
        let writers = 32usize;
        let shared_end = rounds(writers, 32, |w, i, now| {
            let logical = (i * writers as u64 + w as u64) * block;
            fs.write_at(w % 8, w as u64, "/shared", logical, block, AccessMode::SharedFile, now)
        });

        let mut fs2 = pfs();
        for w in 0..writers {
            fs2.create_file(0, &format!("/log{w}"), t(0.0));
        }
        let nn_end = rounds(writers, 32, |w, _, now| {
            fs2.append(w % 8, &format!("/log{w}"), block, now).1
        });
        assert!(
            shared_end.as_secs_f64() > 3.0 * nn_end.as_secs_f64(),
            "shared {shared_end} vs private {nn_end} (transfers: {})",
            fs.lock_transfers()
        );
        assert!(fs.lock_transfers() > 0);
        assert_eq!(fs2.lock_transfers(), 0);
    }

    #[test]
    fn sequential_reads_beat_random_reads() {
        let mut fs = pfs();
        fs.create_file(0, "/data", t(0.0));
        // Write 64 MiB so each OSS stream gets many revisits; read from a
        // different node so the client cache cannot help.
        let mut now = t(0.0);
        for i in 0..16u64 {
            now = fs.write_at(0, 0, "/data", i * (4 << 20), 4 << 20, AccessMode::Exclusive, now);
        }

        let chunk = 256 * 1024;
        let nchunks = (64 << 20) / chunk;
        // Sequential from node 1: after the first visit per OSS, streams
        // are contiguous in object space (prefetch-friendly).
        let start = now;
        let mut seq_now = now;
        for i in 0..nchunks {
            seq_now = fs.read_at(1, "/data", i * chunk, chunk, seq_now);
        }
        let seq_time = seq_now.since(start);

        // Random (reverse order → every access seeks) from node 2.
        let mut rnd_now = seq_now;
        let rstart = seq_now;
        for i in (0..nchunks).rev() {
            rnd_now = fs.read_at(2, "/data", i * chunk, chunk, rnd_now);
        }
        let rnd_time = rnd_now.since(rstart);
        assert!(
            rnd_time.as_secs_f64() > 1.5 * seq_time.as_secs_f64(),
            "random {rnd_time} vs sequential {seq_time}"
        );
    }

    #[test]
    fn cache_hits_bypass_the_storage_network() {
        let mut fs = pfs();
        fs.create_file(0, "/hot", t(0.0));
        let now = fs.write_at(3, 3, "/hot", 0, 64 << 20, AccessMode::Exclusive, t(0.0));
        // Same node reads it back: all cache.
        let rs = now;
        let rf = fs.read_at(3, "/hot", 0, 64 << 20, rs);
        let hot = rf.since(rs).as_secs_f64();
        assert_eq!(fs.cache_hit_bytes(), 64 << 20);
        // Different node: storage path.
        let cs = rf;
        let cf = fs.read_at(4, "/hot", 0, 64 << 20, cs);
        let cold = cf.since(cs).as_secs_f64();
        assert!(cold > 2.0 * hot, "cold {cold} vs hot {hot}");
        // Hot read beats the aggregate network peak.
        let hot_bw = (64 << 20) as f64 / hot;
        assert!(hot_bw > fs.params().net.aggregate_bw / 8.0 * 1.2);
    }

    #[test]
    fn aggregate_bandwidth_is_capped_by_the_network() {
        let mut fs = pfs();
        // 64 writers streaming 16 MiB each from distinct nodes.
        for w in 0..64 {
            fs.create_file(0, &format!("/s{w}"), t(0.0));
        }
        let end = rounds(64, 4, |w, _, now| {
            fs.append(w, &format!("/s{w}"), 4 << 20, now).1
        });
        let total_bytes = (64u64 * 16) << 20;
        let bw = total_bytes as f64 / end.as_secs_f64();
        let peak = fs.params().net.aggregate_bw;
        assert!(bw < peak * 1.05, "bw {bw} exceeds peak {peak}");
        assert!(bw > peak * 0.5, "bw {bw} nowhere near peak {peak}");
    }

    #[test]
    fn read_past_eof_is_free_and_empty() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        fs.write_at(0, 0, "/f", 0, 100, AccessMode::Exclusive, t(0.0));
        let f = fs.read_at(0, "/f", 1000, 50, t(5.0));
        assert_eq!(f, t(5.0));
    }

    #[test]
    fn unlink_clears_state() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        fs.write_at(0, 0, "/f", 0, 1 << 20, AccessMode::SharedFile, t(0.0));
        fs.unlink_file(0, "/f", t(1.0));
        assert!(!fs.namespace().file_exists("/f"));
    }

    #[test]
    fn partial_stripe_writes_pay_the_rmw_tax() {
        // Same half-stripe write stream, with and without the RAID
        // read-modify-write factor.
        let run = |factor: f64| {
            let mut p = PfsParams::panfs_production(64);
            quiet(&mut p);
            p.partial_stripe_write_factor = factor;
            let mut fs = SimPfs::new(p, 1);
            fs.create_file(0, "/b", t(0.0));
            let mut now = t(0.0);
            for k in 0..32u64 {
                now = fs.write_at(1, 1, "/b", k * 32 * 1024, 32 * 1024, AccessMode::Exclusive, now);
            }
            now.as_secs_f64()
        };
        let plain = run(1.0);
        let rmw = run(2.5);
        assert!(rmw > plain * 1.1, "RMW {rmw} vs plain {plain}");
        // Full-stripe writes are unaffected by the factor.
        let run_full = |factor: f64| {
            let mut p = PfsParams::panfs_production(64);
            quiet(&mut p);
            p.partial_stripe_write_factor = factor;
            let mut fs = SimPfs::new(p, 1);
            fs.create_file(0, "/a", t(0.0));
            fs.write_at(0, 0, "/a", 0, 1 << 20, AccessMode::Exclusive, t(0.0))
                .as_secs_f64()
        };
        assert!((run_full(1.0) - run_full(2.5)).abs() < 1e-9);
    }

    #[test]
    fn client_metadata_cache_dedupes_opens_per_node() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        // First open from node 3 pays the MDS; re-open is client-side.
        let first = fs.open_file(0, 3, "/f", t(1.0));
        assert!(first.since(t(1.0)).as_secs_f64() >= 300e-6);
        let second = fs.open_file(0, 3, "/f", first);
        assert!(second.since(first).as_secs_f64() < 50e-6);
        // A different node still pays.
        let other = fs.open_file(0, 4, "/f", second);
        assert!(other.since(second).as_secs_f64() >= 300e-6);
    }

    #[test]
    fn cache_flush_restores_cold_behaviour() {
        let mut fs = pfs();
        fs.create_file(0, "/f", t(0.0));
        let a = fs.open_file(0, 1, "/f", t(1.0));
        fs.clear_client_caches();
        let b = fs.open_file(0, 1, "/f", a);
        assert!(b.since(a).as_secs_f64() >= 300e-6, "flush must evict");
        // Page caches cleared too: a write then flush then read misses.
        let w = fs.write_at(2, 2, "/f", 0, 4 << 20, AccessMode::Exclusive, b);
        fs.clear_client_caches();
        let r = fs.read_at(2, "/f", 0, 4 << 20, w);
        assert_eq!(fs.cache_hit_bytes(), 0);
        assert!(r > w);
    }

    #[test]
    fn creates_slow_down_in_huge_directories() {
        let mut fs = pfs();
        fs.mkdir(0, "/big", t(0.0));
        // Prime the directory cheaply through namespace state.
        for i in 0..20_000 {
            fs.namespace_mut().create_file(&format!("/big/f{i}"));
        }
        let start = t(100.0);
        let into_big = fs.create_file(0, "/big/late", start).since(start);
        let start2 = t(200.0);
        fs.mkdir(0, "/small", start2);
        let into_small = fs
            .create_file(0, "/small/early", t(300.0))
            .since(t(300.0));
        assert!(
            into_big.as_secs_f64() > 5.0 * into_small.as_secs_f64(),
            "dir contention: {into_big} vs {into_small}"
        );
    }

    #[test]
    fn readdir_cost_grows_with_directory_size() {
        let mut fs = pfs();
        fs.mkdir(0, "/big", t(0.0));
        let mut now = t(0.0);
        for i in 0..1000 {
            now = fs.create_file(0, &format!("/big/f{i}"), now);
        }
        let small_dir = fs.mkdir(0, "/small", now);
        let a = fs.readdir(0, 0, "/small", small_dir);
        let cost_small = a.since(small_dir);
        let b = fs.readdir(0, 0, "/big", a);
        let cost_big = b.since(a);
        assert!(cost_big.as_secs_f64() > 2.0 * cost_small.as_secs_f64());
    }
}

