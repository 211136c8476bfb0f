//! The PLFS read path.
//!
//! A reader resolves logical offsets through an [`IndexSource`]; how that
//! is obtained is the crux of the paper's Section IV:
//!
//! * **Fresh mount per reader** — the Original design: every reader
//!   aggregates every writer's index log itself, N readers × N index logs
//!   = N² opens on the underlying file system. In-process, one
//!   [`crate::Plfs`] mount is the group leader: [`crate::Plfs::open_read`]
//!   aggregates once per container state and hands every reader the same
//!   `Arc` (DESIGN.md §5l), so R opens of an unchanged container cost one
//!   aggregation and R stamps.
//! * **Index Flatten through the bounded reader** — the flattened index
//!   written at close is opened instead: footer and fences in memory,
//!   record windows fetched on demand ([`crate::index::OnDiskIndex`],
//!   DESIGN.md §5j). The mount does this for every flattened container;
//!   [`ReadHandle::open_bounded`] is the same open without a mount.
//! * **Parallel Index Read** — a collective divides the index logs among
//!   readers and merges hierarchically; [`ReadHandle::open`] takes the
//!   resulting index. The collective choreography (group leaders,
//!   exchanges, broadcast) lives in the `mpio` crate.
//!
//! All strategies resolve identically, so `ReadHandle` behaviour is
//! strategy-independent after open — asserted by integration tests.

use crate::backend::Backend;
use crate::container::Container;
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::index::{GlobalIndex, IndexSource, Mapping, Source, SpanCache, WriterId};
use crate::ioplane::ListReadPlan;
use crate::telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// An open-for-read PLFS file.
pub struct ReadHandle<B: Backend> {
    backend: B,
    container: Container,
    source: IndexSource,
    /// Resolved data-log paths, cached so repeated reads skip metalink
    /// resolution. `Arc<str>` so handing a path out is a refcount bump,
    /// not a string copy.
    log_paths: HashMap<WriterId, Arc<str>>,
    /// Read scratch reused across reads: the hot read loop allocates
    /// none of it per call.
    scratch: ReadScratch,
}

/// One read's plan, kept in the handle between reads for its
/// allocations. [`ReadHandle::fetch`] fills it; `read` and `read_pieces`
/// walk it.
#[derive(Default)]
struct ReadScratch {
    /// The read's mappings, in logical order.
    mappings: Vec<Mapping>,
    /// `(writer, physical offset, mapping index)` of every mapping with
    /// data, sorted: each data log's pieces together, in log order.
    order: Vec<(WriterId, u64, usize)>,
    /// Per mapping: the index of the coalesced read that holds its bytes
    /// and their offset inside it (unused for a hole).
    at: Vec<(usize, u64)>,
    /// Bytes the mappings cover: the read's length, clamped at EOF.
    bytes: u64,
    /// The list read of every data-log piece, and once submitted its
    /// reads, which the read returning releases (the allocations stay).
    plan: ListReadPlan,
}

impl<B: Backend> ReadHandle<B> {
    /// Read `container` through `source`: a mount's shared index, a
    /// collective's (Parallel Index Read or a broadcast flattened index)
    /// — by value or an `Arc` the supplier keeps sharing — or a bounded
    /// [`crate::index::OnDiskIndex`]. No I/O: the index is already in hand.
    pub fn open(backend: B, container: Container, source: impl Into<IndexSource>) -> Self {
        ReadHandle {
            backend,
            container,
            source: source.into(),
            log_paths: HashMap::new(),
            scratch: ReadScratch::default(),
        }
    }

    /// The mount-less bounded open: the spanidx first (a `Size`, then
    /// footer and fences in one tail read; O(fences) memory, record
    /// windows streamed through `cache`), else log aggregation. [`crate::Plfs::open_read`]
    /// opens flattened containers the same way and shares the result;
    /// this stays for callers without a mount (the benchmark's
    /// `restart_flat_mem`).
    pub fn open_bounded(backend: B, container: Container, cache: Arc<SpanCache>) -> Result<Self> {
        let _span = telemetry::span(telemetry::SPAN_READ_OPEN);
        let source = match container.open_ondisk_index(&backend, cache)? {
            Some(odx) => IndexSource::Disk(Arc::new(odx)),
            None => Self::aggregated(&backend, &container)?.into(),
        };
        Ok(Self::open(backend, container, source))
    }

    /// Every index log of `container` aggregated, never its flattened
    /// index; `NotFound` without a container.
    fn aggregated(backend: &B, container: &Container) -> Result<GlobalIndex> {
        match container.probe_index(backend)? {
            Some(probe) => probe.aggregate(backend),
            None => Err(PlfsError::NotFound(container.logical_path().to_string())),
        }
    }

    /// Seed the data-log paths a mount's probe already resolved, so the
    /// first read of each writer skips resolving its subdir again.
    pub(crate) fn with_data_logs(mut self, logs: impl Iterator<Item = (WriterId, String)>) -> Self {
        self.log_paths.extend(logs.map(|(w, path)| (w, path.into())));
        self
    }

    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.source.eof()
    }

    /// The in-memory index this handle reads through (the `Arc` a
    /// mount's readers of one container state share); `None` when it is
    /// memory-bounded.
    pub fn index(&self) -> Option<&Arc<GlobalIndex>> {
        self.source.mem()
    }

    fn log_path(&mut self, writer: WriterId) -> Result<Arc<str>> {
        if let Some(p) = self.log_paths.get(&writer) {
            return Ok(Arc::clone(p));
        }
        let p: Arc<str> = self.container.data_log(&self.backend, writer)?.into();
        self.log_paths.insert(writer, Arc::clone(&p));
        Ok(p)
    }

    /// Read `len` logical bytes at `offset` as contiguous materialized
    /// bytes. Holes read as zeros; reads past EOF are truncated (POSIX
    /// short read). Each mapping is copied straight out of its coalesced
    /// read's borrowed bytes into the one returned buffer: the read's
    /// only copy when the backend shares its storage (`MemFs`).
    pub fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.fetch(offset, len)?;
        let s = &self.scratch;
        let mut out = Vec::with_capacity(s.bytes as usize);
        for (m, &(read, off)) in s.mappings.iter().zip(&s.at) {
            match m.source {
                Source::Hole => out.resize(out.len() + m.length as usize, 0),
                Source::Writer { .. } => out.extend_from_slice(
                    &s.plan.read(read)?.as_bytes()[off as usize..(off + m.length) as usize],
                ),
            }
        }
        self.scratch.plan.clear();
        Ok(out)
    }

    /// Read `len` logical bytes at `offset` as content pieces, one per
    /// mapping (keeps synthetic extents symbolic — this is what scale
    /// tests use to verify terabyte-logical files without materializing
    /// them). Reads past EOF are truncated, as for [`ReadHandle::read`].
    /// The pieces are slices of the same coalesced reads `read` copies
    /// from: a refcount bump per piece on real bytes.
    pub fn read_pieces(&mut self, offset: u64, len: u64) -> Result<Vec<Content>> {
        self.fetch(offset, len)?;
        let s = &self.scratch;
        let mut pieces = Vec::with_capacity(s.mappings.len());
        for (m, &(read, off)) in s.mappings.iter().zip(&s.at) {
            pieces.push(match m.source {
                Source::Hole => Content::Zeros { len: m.length },
                Source::Writer { .. } => s.plan.read(read)?.slice(off, m.length),
            });
        }
        self.scratch.plan.clear();
        Ok(pieces)
    }

    /// Append the mappings of `[offset, offset + len)`, clamped at EOF.
    fn resolve(&self, offset: u64, len: u64, out: &mut Vec<Mapping>) -> Result<()> {
        let len = len.min(self.source.eof().saturating_sub(offset));
        self.source.resolve_into(&self.backend, offset, len, out)
    }

    /// Plan and submit the read of `[offset, offset + len)` into the
    /// scratch: resolve its mappings with one index walk, sort the ones
    /// with data by writer and physical offset, and plan them as one list
    /// read, where the pieces of one data log whose bytes touch or
    /// overlap share one `ReadAt` — a strided N-1 read costs one op per
    /// writer, not one per block. The whole read goes down as one plane
    /// batch, ordered by log (transient failures are retried per op by
    /// the plane). A read shorter than the index promised is
    /// `CorruptContainer`.
    fn fetch(&mut self, offset: u64, len: u64) -> Result<()> {
        let _span = telemetry::span(telemetry::SPAN_READ_LOOKUP);
        // Taken out so `log_path` below can borrow `self` mutably; put
        // back on success for the caller to walk and the next read to
        // reuse.
        let mut s = std::mem::take(&mut self.scratch);
        s.mappings.clear();
        if self.resolve(offset, len, &mut s.mappings).is_err() {
            // Only a `Disk` source fails here: its file went or changed
            // under this reader (a writer's open unlinks it, a flatten
            // writes a new one). The logs hold everything it did; read
            // through them from now on.
            self.source = Self::aggregated(&self.backend, &self.container)?.into();
            s.mappings.clear();
            self.resolve(offset, len, &mut s.mappings)?;
        }
        s.order.clear();
        s.order.extend(
            s.mappings
                .iter()
                .enumerate()
                .filter_map(|(i, m)| match m.source {
                    Source::Writer {
                        writer,
                        physical_offset,
                    } => Some((writer, physical_offset, i)),
                    Source::Hole => None,
                }),
        );
        s.order.sort_unstable();
        s.at.clear();
        s.at.resize(s.mappings.len(), (0, 0));
        s.plan.clear();
        let mut log: Option<(WriterId, Arc<str>)> = None;
        for &(writer, physical_offset, i) in &s.order {
            let path = match &log {
                Some((w, path)) if *w == writer => path,
                _ => &log.insert((writer, self.log_path(writer)?)).1,
            };
            s.at[i] = s.plan.push(path, physical_offset, s.mappings[i].length);
        }
        s.plan.submit(&self.backend, "data log")?;
        s.bytes = s.mappings.iter().map(|m| m.length).sum();
        let holes = s.mappings.len() - s.order.len();
        telemetry::record(|r| {
            r.count(telemetry::CTR_READ_HOLES, holes as u64);
            r.count(telemetry::CTR_READ_BYTES, s.bytes);
        });
        self.scratch = s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::Container;
    use crate::federation::Federation;
    use crate::memfs::MemFs;
    use crate::writer::{flatten_close, IndexPolicy, WriteHandle};
    use std::sync::Arc;

    /// Every index log of `c` aggregated on `threads` threads, uncompacted
    /// and never looking at a flattened index.
    fn logs<B: Backend>(b: &B, c: &Container, threads: usize) -> GlobalIndex {
        let resolved = c.subdirs_phys_batch(b).unwrap();
        let writers = c.list_writers(b).unwrap();
        GlobalIndex::from_runs(&c.read_index_runs(b, &resolved, &writers, threads).unwrap(), false)
    }

    /// A mount-less open: bounded when `c` is flattened, else aggregated.
    fn reader(b: &Arc<MemFs>, c: &Container) -> ReadHandle<Arc<MemFs>> {
        let cache = Arc::new(SpanCache::new());
        ReadHandle::open_bounded(Arc::clone(b), c.clone(), cache).unwrap()
    }

    fn write_strided(
        b: &Arc<MemFs>,
        c: &Container,
        writers: u64,
        blocks: u64,
        block: u64,
        policy: IndexPolicy,
    ) -> Vec<WriteHandle<Arc<MemFs>>> {
        let mut handles = Vec::new();
        for w in 0..writers {
            let mut h = WriteHandle::open(Arc::clone(b), c.clone(), w, policy).unwrap();
            for bl in 0..blocks {
                let logical = (bl * writers + w) * block;
                h.write(logical, &Content::synthetic(w * 1000 + bl, block), 1)
                    .unwrap();
            }
            handles.push(h);
        }
        handles
    }

    #[test]
    fn read_back_matches_written_pattern() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 2));
        let handles = write_strided(&b, &c, 4, 3, 64, IndexPolicy::WriteClose);
        for h in handles {
            h.close(9).unwrap();
        }
        let mut r = reader(&b, &c);
        assert_eq!(r.size(), 4 * 3 * 64);
        // Check each block reads back as the writer's synthetic stream.
        for bl in 0..3u64 {
            for w in 0..4u64 {
                let logical = (bl * 4 + w) * 64;
                let got = r.read(logical, 64).unwrap();
                assert_eq!(got, Content::synthetic(w * 1000 + bl, 64).materialize());
            }
        }
        // A read spanning writers stitches correctly.
        let span = r.read(0, 128).unwrap();
        assert_eq!(&span[0..64], &Content::synthetic(0, 64).materialize()[..]);
        assert_eq!(
            &span[64..128],
            &Content::synthetic(1000, 64).materialize()[..]
        );
    }

    #[test]
    fn every_index_source_serves_identical_bytes() {
        let total = 3 * 5 * 32u64;
        let build = |policy| {
            let b = Arc::new(MemFs::new());
            let c = Container::new("/f", &Federation::single("/ns", 2));
            let handles = write_strided(&b, &c, 3, 5, 32, policy);
            let flattened = policy != IndexPolicy::WriteClose;
            assert_eq!(flatten_close(&b, &c, handles, 9).unwrap(), flattened);
            (b, c)
        };
        let (fb, fc) = build(IndexPolicy::Flatten {
            threshold_entries: 1000,
        });
        let mut flat = reader(&fb, &fc);
        assert!(flat.index().is_none(), "a flattened container opens bounded");
        let want = flat.read(0, total).unwrap();

        let (ab, ac) = build(IndexPolicy::WriteClose);
        let mut aggregated = reader(&ab, &ac);
        assert!(aggregated.index().is_some(), "no spanidx → aggregation");
        assert_eq!(aggregated.read(0, total).unwrap(), want);
        for off in (0..total).step_by(96) {
            assert_eq!(flat.read(off, 48).unwrap(), aggregated.read(off, 48).unwrap());
        }
        // Serial, threaded, compacted and hierarchically merged (Parallel
        // Index Read in two groups) indices serve the same bytes.
        let serial = logs(&*ab, &ac, 1);
        assert_eq!(logs(&*ab, &ac, 4), serial, "threaded aggregation diverged");
        let compacted = GlobalIndex::from_runs(&[serial.to_entries()], true);
        let group = |ws: &[u64]| {
            let runs: Vec<_> = ws.iter().map(|&w| ac.read_index_log(&*ab, w).unwrap()).collect();
            GlobalIndex::from_runs(&runs, false)
        };
        let merged = GlobalIndex::from_runs(
            &[group(&[2]).to_entries(), group(&[0, 1]).to_entries()],
            false,
        );
        assert_eq!(merged, serial);
        for idx in [serial, compacted, merged] {
            let mut r = ReadHandle::open(Arc::clone(&ab), ac.clone(), idx);
            assert_eq!(r.read(0, total).unwrap(), want);
        }
    }

    #[test]
    fn a_reader_never_serves_holes_when_its_flattened_index_changes() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 2));
        let flat = IndexPolicy::Flatten {
            threshold_entries: usize::MAX,
        };
        assert!(flatten_close(&b, &c, write_strided(&b, &c, 2, 1, 100, flat), 9).unwrap());
        // Span caches that retain nothing: every read re-reads its window.
        let open = || {
            let cache = Arc::new(SpanCache::with_budget(0));
            ReadHandle::open_bounded(Arc::clone(&b), c.clone(), cache).unwrap()
        };
        let (mut gone, mut replaced) = (open(), open());
        assert!(gone.index().is_none() && replaced.index().is_none());
        let before = gone.read(0, 200).unwrap();
        assert_eq!(replaced.read(0, 200).unwrap(), before);
        // A writer's open unlinks the flattened index ...
        let mut h = WriteHandle::open(Arc::clone(&b), c.clone(), 2, flat).unwrap();
        assert_eq!(gone.read(0, 200).unwrap(), before);
        // ... and a later flatten of every log writes another there.
        h.write(50, &Content::bytes(vec![9; 100]), 5).unwrap();
        h.close(10).unwrap();
        let runs = [0, 1, 2].map(|w| c.read_index_log(&*b, w).unwrap());
        c.write_flattened_runs(&*b, &runs).unwrap();
        let mut want = before;
        want[50..150].fill(9);
        assert_eq!(replaced.read(0, 200).unwrap(), want);
        assert!(gone.index().is_some(), "the logs serve a reader whose file went");
    }

    #[test]
    fn coalesced_read_issues_one_backend_op_per_run() {
        use crate::backend::TracingBackend;
        use crate::ioplane::IoOp;
        let traced = Arc::new(TracingBackend::new(MemFs::new()));
        let c = Container::new("/f", &Federation::single("/ns", 2));
        let mut h =
            WriteHandle::open(Arc::clone(&traced), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        for k in 0..4u64 {
            h.write(
                k * 64,
                &Content::synthetic(0, (k + 1) * 64).slice(k * 64, 64),
                k + 1,
            )
            .unwrap();
        }
        h.close(9).unwrap();
        // Inject the uncompacted index so coalescing (not compaction) is
        // what's under test.
        let idx = logs(&traced, &c, 1);
        assert_eq!(idx.span_count(), 4);
        let mut r = ReadHandle::open(Arc::clone(&traced), c, idx);
        traced.take_trace();
        let got = r.read(0, 256).unwrap();
        assert_eq!(got, Content::synthetic(0, 256).materialize());
        let data_reads = traced
            .take_trace()
            .iter()
            .filter(|op| matches!(op, IoOp::ReadAt { path, .. } if path.contains("dropping.data")))
            .count();
        assert_eq!(
            data_reads, 1,
            "4 contiguous spans must coalesce into one read_at"
        );
    }

    #[test]
    fn a_strided_read_is_one_read_at_per_data_log() {
        use crate::backend::TracingBackend;
        use crate::ioplane::IoOp;
        use crate::vfs::{Plfs, PlfsConfig};
        let traced = Arc::new(TracingBackend::new(MemFs::new()));
        let fs = Plfs::new(Arc::clone(&traced), PlfsConfig::basic("/ns")).unwrap();
        // 12 KiB blocks: a log's first five lie in its first sealed
        // 64 KiB `MemFs` chunk, and its last two in the unsealed tail.
        let (writers, blocks, block) = (4u64, 8u64, 12u64 << 10);
        let mut want = vec![0; (writers * blocks * block) as usize];
        for w in 0..writers {
            let mut h = fs.open_write("/f", w).unwrap();
            for k in 0..blocks {
                let data = Content::synthetic(w * 1000 + k, block);
                let logical = (k * writers + w) * block;
                want[logical as usize..(logical + block) as usize]
                    .copy_from_slice(&data.materialize());
                h.write(logical, &data, 1).unwrap();
            }
            h.close(9).unwrap();
        }
        let mut r = fs.open_read("/f").unwrap();
        let len = want.len() as u64;
        for as_pieces in [false, true] {
            traced.take_trace();
            let whole: Vec<u8> = if as_pieces {
                let pieces = r.read_pieces(0, len).unwrap();
                assert_eq!(pieces.len() as u64, writers * blocks, "a piece per mapping");
                pieces.iter().flat_map(Content::materialize).collect()
            } else {
                r.read(0, len).unwrap()
            };
            assert_eq!(whole, want);
            let trace = traced.take_trace();
            let data_reads: Vec<_> = trace
                .iter()
                .filter(
                    |op| matches!(op, IoOp::ReadAt { path, .. } if path.contains("dropping.data")),
                )
                .collect();
            // Each writer's 8 blocks sit back to back in its log: one
            // `ReadAt` of all of them per writer, whatever the logical
            // interleave.
            assert_eq!(data_reads.len() as u64, writers, "{data_reads:?}");
            assert!(data_reads.iter().all(
                |op| matches!(op, IoOp::ReadAt { offset: 0, len, .. } if *len == blocks * block)
            ));
        }
        // Storage is shared through the plane: a piece of a sealed chunk
        // is the very bytes a direct `read_at` of its log range returns,
        // and a piece of a log's tail is a copy.
        let c = fs.container("/f");
        for (k, shared) in [(0, true), (1, true), (blocks - 1, false)] {
            let pieces = r.read_pieces(k * writers * block, writers * block).unwrap();
            for (w, piece) in (0..writers).zip(&pieces) {
                let log = c.data_log(&*traced, w).unwrap();
                let direct = traced.read_at(&log, k * block, block).unwrap();
                let (Content::Bytes(got), Content::Bytes(own)) = (piece, &direct) else {
                    panic!("MemFs reads are real bytes: {piece:?}, {direct:?}")
                };
                assert_eq!(got, own);
                assert_eq!(got.as_ptr() == own.as_ptr(), shared, "block {k} of {w}");
            }
        }
    }

    #[test]
    fn short_data_log_surfaces_corruption() {
        use crate::error::PlfsError;
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut h =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::bytes(vec![7; 100]), 1).unwrap();
        h.close(2).unwrap();
        // Truncate the data log behind the index's back.
        let dpath = c.data_log(&b, 0).unwrap();
        b.unlink(&dpath).unwrap();
        b.create(&dpath, true).unwrap();
        b.append(&dpath, &Content::bytes(vec![7; 10])).unwrap();
        let mut r = reader(&b, &c);
        match r.read(0, 100) {
            Err(PlfsError::CorruptContainer(msg)) => {
                assert!(msg.contains("short read"), "unexpected message: {msg}")
            }
            other => panic!("expected CorruptContainer, got {other:?}"),
        }

        // A log cut in the middle of a coalesced run: writer 0's four
        // strided blocks are one `ReadAt`, and its log ends inside the
        // second block. Whole-file reads, as bytes and as pieces, fail.
        let c = Container::new("/g", &Federation::single("/ns", 1));
        let handles = write_strided(&b, &c, 2, 4, 64, IndexPolicy::WriteClose);
        for h in handles {
            h.close(9).unwrap();
        }
        let dpath = c.data_log(&b, 0).unwrap();
        let kept = b.read_at(&dpath, 0, 100).unwrap();
        b.unlink(&dpath).unwrap();
        b.create(&dpath, true).unwrap();
        b.append(&dpath, &kept).unwrap();
        let mut r = reader(&b, &c);
        let msgs = [
            r.read(0, 512).map(|_| ()),
            r.read_pieces(0, 512).map(|_| ()),
        ];
        for got in msgs {
            match got {
                Err(PlfsError::CorruptContainer(msg)) => assert!(
                    msg.starts_with("data log")
                        && msg.contains("short read: wanted 256 bytes at 0, got 100"),
                    "unexpected message: {msg}"
                ),
                other => panic!("expected CorruptContainer, got {other:?}"),
            }
        }
        // A read that stays inside what the log still has succeeds.
        assert_eq!(
            r.read(0, 64).unwrap(),
            Content::synthetic(0, 64).materialize()
        );
    }

    #[test]
    fn holes_read_as_zeros_and_eof_truncates() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut h =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        h.write(100, &Content::bytes(vec![7; 10]), 1).unwrap();
        h.close(2).unwrap();
        let mut r = reader(&b, &c);
        assert_eq!(r.size(), 110);
        let got = r.read(90, 30).unwrap();
        assert_eq!(got.len(), 20, "truncated at EOF");
        assert_eq!(&got[0..10], &[0; 10]);
        assert_eq!(&got[10..20], &[7; 10]);
        assert!(r.read(200, 5).unwrap().is_empty());
    }

    #[test]
    fn overwrites_resolve_to_latest_writer() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 2));
        let mut h0 =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        let mut h1 =
            WriteHandle::open(Arc::clone(&b), c.clone(), 1, IndexPolicy::WriteClose).unwrap();
        h0.write(0, &Content::bytes(vec![1; 100]), 10).unwrap();
        h1.write(25, &Content::bytes(vec![2; 50]), 20).unwrap(); // later
        h0.close(30).unwrap();
        h1.close(30).unwrap();
        let mut r = reader(&b, &c);
        let got = r.read(0, 100).unwrap();
        assert_eq!(&got[0..25], &[1; 25]);
        assert_eq!(&got[25..75], &[2; 50]);
        assert_eq!(&got[75..100], &[1; 25]);
    }

    #[test]
    fn read_pieces_keeps_synthetic_symbolic() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut h =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::synthetic(3, 100), 1).unwrap();
        h.close(2).unwrap();
        let mut r = reader(&b, &c);
        let pieces = r.read_pieces(10, 20).unwrap();
        assert_eq!(pieces.len(), 1);
        // MemFs materializes, so the piece is Bytes — but byte-identical to
        // the synthetic slice.
        assert!(pieces[0].same_bytes(&Content::synthetic(3, 100).slice(10, 20)));
    }

    #[test]
    fn read_pieces_stops_at_eof_and_never_wraps() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut h =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::bytes(vec![5; 100]), 1).unwrap();
        h.close(2).unwrap();
        let mut r = reader(&b, &c);
        assert_eq!(r.read(50, 100).unwrap(), vec![5; 50]);
        let pieces = r.read_pieces(50, 100).unwrap();
        assert_eq!(pieces.iter().map(Content::len).sum::<u64>(), 50);
        assert!(r.read_pieces(u64::MAX - 1, 4).unwrap().is_empty());
        assert!(r.read(u64::MAX - 1, 4).unwrap().is_empty());
    }
}
