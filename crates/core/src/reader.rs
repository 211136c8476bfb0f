//! The PLFS read path.
//!
//! Opening a PLFS file for read requires a [`GlobalIndex`]; how that index
//! is obtained is the crux of the paper's Section IV:
//!
//! * **Original design** — every reader aggregates every writer's index
//!   log itself: N readers × N index logs = N² opens on the underlying
//!   file system. [`ReadHandle::open`] is this, the uncached primitive
//!   (it falls back to aggregation when no flattened index exists).
//! * **Index Flatten** — the flattened index written at close is read
//!   instead (one open).
//! * **Parallel Index Read** — a collective divides the index logs among
//!   readers and merges hierarchically; the resulting index is injected
//!   with [`ReadHandle::open_with_index`]. The collective choreography
//!   (group leaders, exchanges, broadcast) lives in the `mpio` crate.
//!   In-process, the mount is the group leader: [`crate::Plfs::open_read`]
//!   aggregates once per container state and hands every reader the same
//!   `Arc<GlobalIndex>` (DESIGN.md §5l), so R opens of an unchanged
//!   container cost one aggregation and R stamps.
//!
//! All strategies yield an identical index, so `ReadHandle` behaviour is
//! strategy-independent after open — asserted by integration tests.

use crate::backend::Backend;
use crate::container::Container;
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::index::{GlobalIndex, Mapping, OnDiskIndex, Source, SpanCache, SpanLookup, WriterId};
use crate::ioplane::{self, IoOp};
use crate::telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// How an open handle resolves logical offsets to data-log extents:
/// either a fully materialized [`GlobalIndex`] — shared, so every reader
/// a mount opens on one container state holds the same one — or a
/// memory-bounded [`OnDiskIndex`] over the spanidx file. Both go through
/// [`SpanLookup`], so the read path below is representation-blind.
enum IndexRepr {
    Mem(Arc<GlobalIndex>),
    Disk(OnDiskIndex),
}

/// An open-for-read PLFS file.
pub struct ReadHandle<B: Backend> {
    backend: B,
    container: Container,
    repr: IndexRepr,
    /// Resolved data-log paths, cached so repeated reads skip metalink
    /// resolution. `Arc<str>` so handing a path to each mapping is a
    /// refcount bump, not a string copy.
    log_paths: HashMap<WriterId, Arc<str>>,
    /// Mapping scratch reused across reads — the hot read loop does not
    /// allocate a fresh `Vec<Mapping>` per call.
    map_buf: Vec<Mapping>,
}

impl<B: Backend> ReadHandle<B> {
    /// Open for read, acquiring the index from the container: the
    /// flattened index when present, otherwise full self-aggregation (the
    /// Original design). Memory is O(entries); see
    /// [`ReadHandle::open_bounded`] for the O(cache window) variant.
    pub fn open(backend: B, container: Container) -> Result<Self> {
        let _span = telemetry::span(telemetry::SPAN_READ_OPEN);
        let index = container.acquire_index(&backend)?;
        Ok(Self::with_parts(
            backend,
            container,
            IndexRepr::Mem(Arc::new(index)),
        ))
    }

    /// Open for read with memory bounded by the span-cache budget: when
    /// the container has a valid spanidx flattened index, only its footer
    /// and fence pointers are loaded and record windows stream through
    /// `cache` on demand. Falls back to [`ReadHandle::open`] aggregation
    /// when no usable flattened index exists.
    pub fn open_bounded(backend: B, container: Container, cache: Arc<SpanCache>) -> Result<Self> {
        let _span = telemetry::span(telemetry::SPAN_READ_OPEN);
        match container.open_ondisk_index(&backend, cache)? {
            Some(odx) => Ok(Self::with_parts(backend, container, IndexRepr::Disk(odx))),
            None => {
                let index = container.acquire_index(&backend)?;
                Ok(Self::with_parts(
                    backend,
                    container,
                    IndexRepr::Mem(Arc::new(index)),
                ))
            }
        }
    }

    /// Open for read with an index supplied by a collective aggregation
    /// (Parallel Index Read or a broadcast flattened index) — by value,
    /// or an `Arc` the supplier keeps sharing with other readers.
    pub fn open_with_index(
        backend: B,
        container: Container,
        index: impl Into<Arc<GlobalIndex>>,
    ) -> Result<Self> {
        Ok(Self::with_parts(
            backend,
            container,
            IndexRepr::Mem(index.into()),
        ))
    }

    fn with_parts(backend: B, container: Container, repr: IndexRepr) -> Self {
        ReadHandle {
            backend,
            container,
            repr,
            log_paths: HashMap::new(),
            map_buf: Vec::new(),
        }
    }

    /// Logical file size.
    pub fn size(&self) -> u64 {
        self.eof()
    }

    fn eof(&self) -> u64 {
        match &self.repr {
            IndexRepr::Mem(idx) => idx.eof(),
            IndexRepr::Disk(odx) => odx.eof(),
        }
    }

    /// The in-memory global index this handle resolves reads through —
    /// `None` when the handle is memory-bounded (no materialized index
    /// exists by design; use [`ReadHandle::size`] and the read methods).
    /// The `Arc` is the one every reader of this container state shares
    /// when the handle came from [`crate::Plfs::open_read`].
    pub fn index(&self) -> Option<&Arc<GlobalIndex>> {
        match &self.repr {
            IndexRepr::Mem(idx) => Some(idx),
            IndexRepr::Disk(_) => None,
        }
    }

    /// The container being read.
    pub fn container(&self) -> &Container {
        &self.container
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
        let eof = self.eof();
        if offset >= eof {
            return Ok(Vec::new());
        }
        let len = len.min(eof - offset);
        let mut out = Vec::with_capacity(len as usize);
        for piece in self.read_pieces(offset, len)? {
            out.extend_from_slice(&piece.as_bytes());
        }
        Ok(out)
    }

    /// Read `len` logical bytes at `offset` as content pieces (keeps
    /// synthetic extents symbolic — this is what scale tests use to
    /// verify terabyte-logical files without materializing them).
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
        match &mut self.repr {
            IndexRepr::Mem(idx) => idx.resolve_into(&self.backend, offset, len, &mut mappings)?,
            IndexRepr::Disk(odx) => odx.resolve_into(&self.backend, offset, len, &mut mappings)?,
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
        let mut r = ReadHandle::open(Arc::clone(&b), c.clone()).unwrap();
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
    fn flattened_and_aggregated_reads_agree() {
        let total = 3 * 5 * 32u64;
        let mk = |flatten: bool| {
            let b = Arc::new(MemFs::new());
            let c = Container::new("/f", &Federation::single("/ns", 2));
            let policy = if flatten {
                IndexPolicy::Flatten {
                    threshold_entries: 1000,
                }
            } else {
                IndexPolicy::WriteClose
            };
            let handles = write_strided(&b, &c, 3, 5, 32, policy);
            if flatten {
                assert!(flatten_close(&b, &c, handles, 9).unwrap());
            } else {
                for h in handles {
                    h.close(9).unwrap();
                }
            }
            (b, c)
        };
        let (fb, fc) = mk(true);
        let flat = ReadHandle::open(Arc::clone(&fb), fc)
            .unwrap()
            .read(0, total)
            .unwrap();

        let (ab, ac) = mk(false);
        // Default open path (threaded aggregation + terminal compaction).
        let open = ReadHandle::open(Arc::clone(&ab), ac.clone())
            .unwrap()
            .read(0, total)
            .unwrap();
        // Serial uncompacted, threaded, and explicitly compacted indices
        // must all serve identical bytes.
        let serial = ac.aggregate_index(&ab).unwrap();
        let threaded = ac.aggregate_index_parallel(&ab, 4).unwrap();
        assert_eq!(threaded, serial, "threaded aggregation diverged");
        let mut compacted = serial.clone();
        compacted.compact();
        let read_with = |idx: GlobalIndex| {
            ReadHandle::open_with_index(Arc::clone(&ab), ac.clone(), idx)
                .unwrap()
                .read(0, total)
                .unwrap()
        };
        assert_eq!(flat, open);
        assert_eq!(flat, read_with(serial));
        assert_eq!(flat, read_with(threaded));
        assert_eq!(flat, read_with(compacted));
    }

    #[test]
    fn injected_index_matches_self_aggregation() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 4));
        let handles = write_strided(&b, &c, 4, 2, 16, IndexPolicy::WriteClose);
        for h in handles {
            h.close(9).unwrap();
        }
        // Simulate Parallel Index Read: aggregate in two "groups" and merge.
        let mut g1 = GlobalIndex::new();
        for w in [0u64, 1] {
            g1.merge(&GlobalIndex::from_entries(c.read_index_log(&b, w).unwrap()));
        }
        let mut g2 = GlobalIndex::new();
        for w in [2u64, 3] {
            g2.merge(&GlobalIndex::from_entries(c.read_index_log(&b, w).unwrap()));
        }
        let mut merged = g1;
        merged.merge(&g2);
        // The hierarchical merge must equal both the serial and threaded
        // aggregations structurally.
        assert_eq!(merged, c.aggregate_index(&b).unwrap());
        assert_eq!(merged, c.aggregate_index_parallel(&b, 3).unwrap());
        let mut compacted = merged.clone();
        compacted.compact();
        let mut r1 = ReadHandle::open_with_index(Arc::clone(&b), c.clone(), merged).unwrap();
        let mut r2 = ReadHandle::open(Arc::clone(&b), c.clone()).unwrap();
        let mut r3 = ReadHandle::open_with_index(Arc::clone(&b), c.clone(), compacted).unwrap();
        let want = r2.read(0, 128).unwrap();
        assert_eq!(r1.read(0, 128).unwrap(), want);
        assert_eq!(r3.read(0, 128).unwrap(), want);
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
        let idx = c.aggregate_index(&traced).unwrap();
        assert_eq!(idx.span_count(), 4);
        let mut r = ReadHandle::open_with_index(Arc::clone(&traced), c, idx).unwrap();
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
        let mut r = ReadHandle::open(Arc::clone(&b), c).unwrap();
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
        let mut r = ReadHandle::open(Arc::clone(&b), c).unwrap();
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
        let mut r = ReadHandle::open(Arc::clone(&b), c).unwrap();
        let got = r.read(0, 100).unwrap();
        assert_eq!(&got[0..25], &[1; 25]);
        assert_eq!(&got[25..75], &[2; 50]);
        assert_eq!(&got[75..100], &[1; 25]);
    }

    #[test]
    fn bounded_open_serves_identical_bytes_without_materializing() {
        use crate::index::SpanCache;
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 2));
        let handles = write_strided(
            &b,
            &c,
            4,
            6,
            32,
            IndexPolicy::Flatten {
                threshold_entries: 1000,
            },
        );
        assert!(flatten_close(&b, &c, handles, 9).unwrap());
        let total = 4 * 6 * 32u64;
        let want = ReadHandle::open(Arc::clone(&b), c.clone())
            .unwrap()
            .read(0, total)
            .unwrap();
        let cache = Arc::new(SpanCache::with_budget(1 << 20));
        let mut r = ReadHandle::open_bounded(Arc::clone(&b), c.clone(), cache).unwrap();
        assert!(r.index().is_none(), "bounded open must not materialize");
        assert_eq!(r.size(), total);
        assert_eq!(r.read(0, total).unwrap(), want);
        // Strided probes agree too.
        for off in (0..total).step_by(96) {
            assert_eq!(
                r.read(off, 48).unwrap(),
                ReadHandle::open(Arc::clone(&b), c.clone())
                    .unwrap()
                    .read(off, 48)
                    .unwrap()
            );
        }
    }

    #[test]
    fn bounded_open_falls_back_to_aggregation_without_flattened() {
        use crate::index::SpanCache;
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let handles = write_strided(&b, &c, 2, 3, 16, IndexPolicy::WriteClose);
        for h in handles {
            h.close(9).unwrap();
        }
        let cache = Arc::new(SpanCache::with_budget(1 << 20));
        let mut r = ReadHandle::open_bounded(Arc::clone(&b), c.clone(), cache).unwrap();
        assert!(r.index().is_some(), "no spanidx file → in-memory fallback");
        assert_eq!(
            r.read(0, 2 * 3 * 16).unwrap(),
            ReadHandle::open(Arc::clone(&b), c).unwrap().read(0, 96).unwrap()
        );
    }

    #[test]
    fn read_pieces_keeps_synthetic_symbolic() {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 1));
        let mut h =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        h.write(0, &Content::synthetic(3, 100), 1).unwrap();
        h.close(2).unwrap();
        let mut r = ReadHandle::open(Arc::clone(&b), c).unwrap();
        let pieces = r.read_pieces(10, 20).unwrap();
        assert_eq!(pieces.len(), 1);
        // MemFs materializes, so the piece is Bytes — but byte-identical to
        // the synthetic slice.
        assert!(pieces[0].same_bytes(&Content::synthetic(3, 100).slice(10, 20)));
    }
}
