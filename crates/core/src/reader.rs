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
use crate::ioplane::{self, IoOp};
use crate::telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// An open-for-read PLFS file.
pub struct ReadHandle<B: Backend> {
    backend: B,
    container: Container,
    source: IndexSource,
    /// Resolved data-log paths, cached so repeated reads skip metalink
    /// resolution. `Arc<str>` so handing a path to each mapping is a
    /// refcount bump, not a string copy.
    log_paths: HashMap<WriterId, Arc<str>>,
    /// Mapping scratch reused across reads — the hot read loop does not
    /// allocate a fresh `Vec<Mapping>` per call.
    map_buf: Vec<Mapping>,
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
            map_buf: Vec::new(),
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
    /// short read).
    pub fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let pieces = self.read_pieces(offset, len)?;
        let mut out = Vec::with_capacity(pieces.iter().map(|p| p.len() as usize).sum());
        for piece in pieces {
            out.extend_from_slice(&piece.as_bytes());
        }
        Ok(out)
    }

    /// Append the mappings of `[offset, offset + len)`, clamped at EOF.
    fn resolve(&self, offset: u64, len: u64, out: &mut Vec<Mapping>) -> Result<()> {
        let len = len.min(self.source.eof().saturating_sub(offset));
        self.source.resolve_into(&self.backend, offset, len, out)
    }

    /// Read `len` logical bytes at `offset` as content pieces (keeps
    /// synthetic extents symbolic — this is what scale tests use to
    /// verify terabyte-logical files without materializing them). Reads
    /// past EOF are truncated, as for [`ReadHandle::read`].
    ///
    /// Mappings are resolved with one index walk and coalesced: adjacent
    /// pieces from the same writer whose bytes are contiguous in its data
    /// log become a single backend `read_at`, so a strided checkpoint read
    /// costs one backend operation per writer run rather than per block.
    pub fn read_pieces(&mut self, offset: u64, len: u64) -> Result<Vec<Content>> {
        let _span = telemetry::span(telemetry::SPAN_READ_LOOKUP);
        // Reuse the mapping scratch (taken out so `log_path` below can
        // borrow `self` mutably while the mappings are walked).
        let mut mappings = std::mem::take(&mut self.map_buf);
        mappings.clear();
        if self.resolve(offset, len, &mut mappings).is_err() {
            // Only a `Disk` source fails here: its file went or changed
            // under this reader (a writer's open unlinks it, a flatten
            // writes a new one). The logs hold everything it did; read
            // through them from now on.
            self.source = Self::aggregated(&self.backend, &self.container)?.into();
            mappings.clear();
            self.resolve(offset, len, &mut mappings)?;
        }
        // Resolve every mapping to either a hole or a planned read, then
        // submit all the reads as ONE plane batch (one submission for the
        // whole fan-out; transient failures are retried per op by the
        // plane). `None` in `plan` marks a hole's position.
        let mut plan: Vec<Option<(Arc<str>, u64, u64)>> = Vec::with_capacity(mappings.len());
        let mut batch: Vec<IoOp> = Vec::new();
        for m in &mappings {
            match m.source {
                Source::Hole => plan.push(None),
                Source::Writer {
                    writer,
                    physical_offset,
                } => {
                    let path = self.log_path(writer)?;
                    batch.push(IoOp::ReadAt {
                        path: path.to_string(),
                        offset: physical_offset,
                        len: m.length,
                    });
                    plan.push(Some((path, physical_offset, m.length)));
                }
            }
        }
        let mut reads = ioplane::submit_retried(&self.backend, &batch).into_iter();
        let mut pieces = Vec::with_capacity(mappings.len());
        for (m, planned) in mappings.iter().zip(plan) {
            let Some((path, physical_offset, length)) = planned else {
                telemetry::count(telemetry::CTR_READ_HOLES, 1);
                telemetry::count(telemetry::CTR_READ_BYTES, m.length);
                pieces.push(Content::Zeros { len: m.length });
                continue;
            };
            let c = ioplane::as_data(ioplane::take(&mut reads))?;
            if c.len() != length {
                // A short read here means the index references bytes the
                // data log doesn't have (truncated or corrupted
                // droppings) — surface it rather than silently returning
                // truncated data.
                return Err(PlfsError::CorruptContainer(format!(
                    "data log {path} short read: wanted {length} bytes at {physical_offset}, got {}",
                    c.len()
                )));
            }
            telemetry::count(telemetry::CTR_READ_BYTES, c.len());
            pieces.push(c);
        }
        self.map_buf = mappings;
        Ok(pieces)
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
        let mut compacted = serial.clone();
        compacted.compact();
        let group = |ws: &[u64]| {
            let runs: Vec<_> = ws.iter().map(|&w| ac.read_index_log(&*ab, w).unwrap()).collect();
            GlobalIndex::from_runs(&runs, false)
        };
        let mut merged = group(&[2]);
        merged.merge(&group(&[0, 1]));
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
