//! The PLFS write path.
//!
//! Every writing process gets its own [`WriteHandle`]: all data, whatever
//! its logical offset, is *appended* to the writer's private data log, and
//! one [`IndexEntry`] per write is buffered and flushed to the writer's
//! index log. This is the transformation at the heart of the paper —
//! decoupled (no shared physical file ⇒ no lock serialization) and
//! sequential (appends ⇒ streaming writes the underlying file system
//! loves) — while the container preserves the logical view.
//!
//! Index buffering also implements the *Index Flatten* write side: each
//! writer buffers index entries up to a threshold; if every writer stayed
//! under the threshold, close-time aggregation produces the flattened
//! global index (see [`flatten_close`]).
#![deny(clippy::wildcard_enum_match_arm)]

use crate::backend::Backend;
use crate::container::{self, Container};
use crate::content::Content;
use crate::error::{retry_transient, PlfsError, Result};
use crate::index::{self, IndexEntry, WriterId};
use crate::ioplane::{self, IoOp};
use crate::telemetry;

/// What to do with index information while writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Buffer index entries in memory; flush them to the writer's index
    /// log at close. Readers aggregate at open (Original / Parallel Index
    /// Read behaviour).
    WriteClose,
    /// Additionally keep entries available for close-time flattening, up
    /// to `threshold_entries` per writer. Exceeding the threshold falls
    /// back to `WriteClose` semantics for this writer (and therefore
    /// disables flattening for the file, as the paper specifies: flatten
    /// only happens when *all* writers stayed under threshold).
    Flatten {
        /// Max buffered entries per writer before flattening is abandoned.
        threshold_entries: usize,
    },
}

/// An open-for-write PLFS file, from one writer's point of view.
pub struct WriteHandle<B: Backend> {
    backend: B,
    container: Container,
    writer: WriterId,
    /// Paths of this writer's droppings, resolved when the first write
    /// creates them (subdirs and droppings are lazy, like real PLFS
    /// hostdirs — see [`Container::create`]).
    logs: Option<(String, String)>,
    data_off: u64,
    buffered: Vec<IndexEntry>,
    policy: IndexPolicy,
    /// Entries flushed early because the flatten threshold was exceeded.
    overflowed: bool,
    /// A previous index-log flush failed partway (possibly tearing a
    /// record); realign the log before appending to it again.
    flush_failed: bool,
    bytes_written: u64,
    eof: u64,
    closed: bool,
}

impl<B: Backend> WriteHandle<B> {
    /// Open `container` for writing as `writer`: creates the container
    /// skeleton (if this is the first opener), registers in openhosts,
    /// and creates this writer's droppings — as real PLFS does at open.
    /// (The container skeleton itself stays minimal; subdirs appear only
    /// as writers land in them.)
    pub fn open(
        backend: B,
        container: Container,
        writer: WriterId,
        policy: IndexPolicy,
    ) -> Result<Self> {
        let _span = telemetry::span(telemetry::SPAN_WRITE_OPEN);
        container.create(&backend)?;
        container.register_open(&backend, writer)?;
        let mut handle = Self::bare(backend, container, writer, policy);
        handle.ensure_logs()?;
        Ok(handle)
    }

    fn bare(backend: B, container: Container, writer: WriterId, policy: IndexPolicy) -> Self {
        WriteHandle {
            backend,
            container,
            writer,
            logs: None,
            data_off: 0,
            buffered: Vec::new(),
            policy,
            overflowed: false,
            flush_failed: false,
            bytes_written: 0,
            eof: 0,
            closed: false,
        }
    }

    /// This handle's writer id.
    pub fn writer(&self) -> WriterId {
        self.writer
    }

    /// The container being written.
    pub fn container(&self) -> &Container {
        &self.container
    }

    /// Write `content` at logical `offset`, stamped `timestamp`.
    ///
    /// The data goes to the end of this writer's data log regardless of
    /// `offset`; only the index remembers where it logically belongs.
    pub fn write(&mut self, offset: u64, content: &Content, timestamp: u64) -> Result<()> {
        if self.closed {
            return Err(PlfsError::InvalidArg("write after close".into()));
        }
        if content.is_empty() {
            return Ok(());
        }
        if offset.checked_add(content.len()).is_none() {
            return Err(PlfsError::InvalidArg(format!(
                "write of {} bytes at {offset} ends past u64::MAX",
                content.len()
            )));
        }
        let _span = telemetry::span(telemetry::SPAN_WRITE_APPEND);
        let data_log = self.ensure_logs()?.0.clone();
        // Transient failures are clean (nothing landed) and retried with
        // backoff. A torn append is NOT transient: a prefix landed, and
        // re-sending would duplicate it — the error surfaces, the write
        // stays unacknowledged, and the dead prefix bytes are never
        // referenced by any index entry (fsck reclaims such tails).
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-write append: as a one-op plane submission it cost \
                      ckpt_n1_mem 14% ops/s and 27% p50 (DESIGN.md §5d)"
        )]
        let phys = retry_transient(|| self.backend.append(&data_log, content))?;
        // The log may have grown past our last acknowledged write (dead
        // bytes from a torn append), so trust the backend's offset rather
        // than asserting contiguity.
        debug_assert!(phys >= self.data_off, "data log must be append-only");
        let entry = IndexEntry {
            logical_offset: offset,
            length: content.len(),
            physical_offset: phys,
            writer: self.writer,
            timestamp,
        };
        telemetry::record(|r| {
            r.count(telemetry::CTR_WRITE_BYTES, content.len());
            r.count(telemetry::CTR_WRITE_RECORDS, 1);
        });
        self.data_off = phys + content.len();
        self.bytes_written += content.len();
        self.eof = self.eof.max(offset + content.len());
        self.buffered.push(entry);

        if let IndexPolicy::Flatten { threshold_entries } = self.policy {
            if self.buffered.len() > threshold_entries && !self.overflowed {
                // Too much index to hold for flattening: spill what we
                // have and stop pretending we can flatten.
                self.overflowed = true;
                self.flush_index()?;
            }
        }
        Ok(())
    }

    /// Resolve (creating on first use) this writer's dropping paths.
    fn ensure_logs(&mut self) -> Result<&(String, String)> {
        if self.logs.is_none() {
            let sub = self
                .container
                .ensure_subdir(&self.backend, self.container.subdir_for(self.writer))?;
            let data = container::data_log_in(&sub, self.writer);
            let index = container::index_log_in(&sub, self.writer);
            // Both droppings in one batched submission; the plane retries
            // transients per op.
            let creates = |exclusive| {
                [&data, &index].map(|path| IoOp::Create {
                    path: path.clone(),
                    exclusive,
                })
            };
            // The same batch drops the flattened index: from this session
            // on the logs say more than it does, and a reader must not be
            // served it (a later `flatten_close` writes a fresh one).
            let mut batch = creates(true).to_vec();
            batch.push(IoOp::Unlink {
                path: self.container.flattened_path(),
            });
            let mut out = ioplane::submit_retried(&self.backend, &batch).into_iter();
            let mut reopened = false;
            for _ in 0..2 {
                match ioplane::as_unit(ioplane::take(&mut out)) {
                    Ok(()) => {}
                    Err(PlfsError::AlreadyExists(_)) => reopened = true,
                    Err(e) => return Err(e),
                }
            }
            container::absent_as_none(ioplane::as_unit(ioplane::take(&mut out)))?;
            if reopened {
                // This writer id has written here before: its logs start
                // over. The new index log can grow back to the old one's
                // size with other records, which sizes cannot tell apart,
                // so the namespace generation advances behind the
                // truncation (DESIGN.md §5l).
                let mut batch = creates(false).to_vec();
                batch.extend(self.container.generation_bump_ops());
                let mut out = ioplane::submit_retried(&self.backend, &batch).into_iter();
                ioplane::as_unit(ioplane::take(&mut out))?;
                ioplane::as_unit(ioplane::take(&mut out))?;
                Container::generation_bumped(&mut out)?;
            }
            self.logs = Some((data, index));
        }
        self.logs
            .as_ref()
            .ok_or_else(|| PlfsError::Io("writer dropping paths unset after initialisation".into()))
    }

    /// Persist buffered index entries to the index log and drop them from
    /// the buffer. A flatten-capable writer that flushes early loses its
    /// ability to contribute to a flattened index (the flattened index
    /// must cover *all* of a writer's entries), so an explicit flush marks
    /// the writer overflowed; flatten-preserving flushing happens only
    /// through [`WriteHandle::close`] / [`flatten_close`].
    pub fn flush_index(&mut self) -> Result<()> {
        if matches!(self.policy, IndexPolicy::Flatten { .. }) {
            self.overflowed = true;
        }
        self.append_index_batch()
    }

    /// Append all buffered entries to the index log, clearing the buffer
    /// only on success — a failed flush keeps every entry for a retry.
    ///
    /// A torn flush may leave a partial record at the log's tail; blindly
    /// appending after it would corrupt every later record (fsck can only
    /// trim *trailing* garbage). So after any flush failure the log is
    /// realigned to a whole-record prefix before the next attempt. The
    /// retried batch may duplicate records that did land — duplicates are
    /// harmless, index resolution is idempotent per (writer, timestamp).
    fn append_index_batch(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let _span = telemetry::span(telemetry::SPAN_WRITE_FLUSH);
        let index_log = self.ensure_logs()?.1.clone();
        if self.flush_failed {
            self.realign_index_log(&index_log)?;
            self.flush_failed = false;
        }
        let append = IoOp::Append {
            path: index_log,
            content: Content::bytes(IndexEntry::encode_all(&self.buffered)),
        };
        match ioplane::submit_one(&self.backend, append) {
            Ok(_) => {
                self.buffered.clear();
                Ok(())
            }
            Err(e) => {
                self.flush_failed = true;
                Err(e)
            }
        }
    }

    /// Rewrite the index log as its longest whole-record prefix, dropping
    /// any torn trailing record a failed flush left behind, through the
    /// one staged rewrite ([`Container::rewrite_staged`]): the prefix is
    /// staged in a copy while the log is still intact, so a failure at any
    /// point leaves every flushed record in the log or in its copy, to be
    /// realigned again on the next attempt or promoted by fsck.
    fn realign_index_log(&self, index_log: &str) -> Result<()> {
        let path = index_log.to_string();
        let size = ioplane::as_size(ioplane::submit_one(&self.backend, IoOp::Size { path }))?;
        let (whole, trailing) = index::whole_prefix(size);
        if trailing == 0 {
            return Ok(());
        }
        let read = IoOp::ReadAt {
            path: index_log.to_string(),
            offset: 0,
            len: whole,
        };
        let prefix = ioplane::as_data(ioplane::submit_one(&self.backend, read))?;
        Container::rewrite_staged(&self.backend, &[(index_log.to_string(), prefix)])
    }

    /// Whether close-time flattening is still possible for this writer.
    pub(crate) fn can_flatten(&self) -> bool {
        matches!(self.policy, IndexPolicy::Flatten { .. }) && !self.overflowed
    }

    /// Buffered (not yet flushed) index entries — what this writer would
    /// contribute to a flattened index.
    pub fn buffered_index(&self) -> &[IndexEntry] {
        &self.buffered
    }

    /// Bytes written through this handle so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Close: flush the index log, record cached size metadata, and
    /// deregister from openhosts. Returns this writer's full index
    /// contribution (for a caller that is coordinating Index Flatten).
    pub fn close(mut self, timestamp: u64) -> Result<Vec<IndexEntry>> {
        self.close_in_place(timestamp)
    }

    /// Close without consuming the handle, so a failed close can be
    /// retried with the buffered index entries intact
    /// ([`crate::service::Service::close`] relies on this: losing the
    /// buffer on a failed close would silently drop acknowledged
    /// writes). Idempotent: closing an
    /// already-closed handle is a no-op returning an empty contribution.
    pub fn close_in_place(&mut self, _timestamp: u64) -> Result<Vec<IndexEntry>> {
        if self.closed {
            return Ok(Vec::new());
        }
        let _span = telemetry::span(telemetry::SPAN_WRITE_CLOSE);
        let contribution = self.buffered.clone();
        self.append_index_batch()?;
        // Metadir record + openhosts deregistration as one batch.
        self.container
            .finish_close(&self.backend, self.writer, self.eof, self.bytes_written)?;
        self.closed = true;
        Ok(contribution)
    }
}

/// Coordinated close for Index Flatten: close all writers of one logical
/// file, and if **every** writer stayed under its buffering threshold
/// and they are every writer the container has, write the aggregated
/// global index into the container.
///
/// In the real system the aggregation is an MPI gather to rank 0 (modeled
/// with network costs in the `mpio` crate); functionally it is exactly
/// this merge.
pub fn flatten_close<B: Backend>(
    backend: &B,
    container: &Container,
    handles: Vec<WriteHandle<B>>,
    timestamp: u64,
) -> Result<bool> {
    let _span = telemetry::span(telemetry::SPAN_WRITE_FLATTEN);
    let all_can_flatten = handles.iter().all(|h| h.can_flatten());
    let mut session: Vec<WriterId> = handles.iter().map(|h| h.writer).collect();
    session.sort_unstable();
    // Gather each writer's closed entry buffer: one run per writer, in
    // log order.
    let mut runs: Vec<Vec<IndexEntry>> = Vec::with_capacity(handles.len());
    for h in handles {
        runs.push(h.close(timestamp)?);
    }
    // Another writer's logs (an earlier session's, or one still open)
    // would outgrow the flattened index at once: leave reads to the logs.
    if !all_can_flatten || container.list_writers(backend)? != session {
        return Ok(false);
    }
    // Stream the merge straight to disk: the runs go through the
    // resolve-and-compact kernel into spanidx record chunks, so the
    // flatten never materializes the merged index. The emitted records
    // are the compacted merge (segmented checkpoints collapse to one span
    // per writer, shrinking the flattened index every reader pays for).
    container.write_flattened_runs(backend, &runs)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::Federation;
    use crate::memfs::MemFs;
    use std::sync::Arc;

    /// Every index log of `c`, aggregated uncompacted.
    fn logs(b: &Arc<MemFs>, c: &Container) -> crate::index::GlobalIndex {
        let resolved = c.subdirs_phys_batch(b).unwrap();
        let writers = c.list_writers(b).unwrap();
        let runs = c.read_index_runs(b, &resolved, &writers, 1).unwrap();
        crate::index::GlobalIndex::from_runs(&runs, false)
    }

    fn setup() -> (Arc<MemFs>, Container) {
        let b = Arc::new(MemFs::new());
        let c = Container::new("/f", &Federation::single("/ns", 2));
        (b, c)
    }

    #[test]
    fn writes_become_appends_with_index_records() {
        let (b, c) = setup();
        let mut w =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        // Logical writes at scattered offsets...
        w.write(1000, &Content::bytes(vec![1; 10]), 1).unwrap();
        w.write(0, &Content::bytes(vec![2; 10]), 2).unwrap();
        w.write(5000, &Content::bytes(vec![3; 10]), 3).unwrap();
        assert_eq!(w.bytes_written(), 30);
        w.close(4).unwrap();
        // ...recorded its view of EOF in the metadir,
        assert_eq!(c.stat_listings(&b).unwrap().0, Some(5010));
        // ...landed sequentially in the data log,
        let dlog = c.data_log(&b, 0).unwrap();
        assert_eq!(b.size(&dlog).unwrap(), 30);
        let log = b.read_at(&dlog, 0, 30).unwrap().materialize();
        assert_eq!(&log[0..10], &[1; 10]);
        assert_eq!(&log[10..20], &[2; 10]);
        // ...and the index log remembers the logical placement.
        let entries = c.read_index_log(&b, 0).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].logical_offset, 1000);
        assert_eq!(entries[0].physical_offset, 0);
        assert_eq!(entries[1].logical_offset, 0);
        assert_eq!(entries[1].physical_offset, 10);
    }

    #[test]
    fn reopening_a_writer_id_starts_its_logs_over_and_advances_the_generation() {
        let (b, c) = setup();
        let write_one = |offset: u64| {
            let mut w =
                WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
            w.write(offset, &Content::bytes(vec![7; 10]), 1).unwrap();
            w.close(2).unwrap();
            c.probe_index(&b).unwrap().unwrap()
        };
        let first = write_one(0);
        assert!(
            !b.exists(&c.generation_path()),
            "a fresh writer id bumps nothing"
        );
        let second = write_one(500);
        // One record either time, so sizes alone cannot tell them apart.
        assert_eq!(first.stamp().sizes(), second.stamp().sizes());
        assert_ne!(first.stamp(), second.stamp());
        let cache = Arc::new(crate::index::SpanCache::new());
        assert_eq!(second.load(&b, &cache).unwrap().eof(), 510);
    }

    #[test]
    fn a_write_ending_past_u64_max_is_refused_before_it_lands() {
        let (b, c) = setup();
        let mut w =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        let late = w.write(u64::MAX - 5, &Content::bytes(vec![1; 10]), 1);
        assert!(matches!(late, Err(PlfsError::InvalidArg(_))), "{late:?}");
        assert_eq!(w.bytes_written(), 0);
        w.close(2).unwrap();
        assert!(c.read_index_log(&b, 0).unwrap().is_empty());
    }

    #[test]
    fn close_records_metadata_and_deregisters() {
        let (b, c) = setup();
        let mut w =
            WriteHandle::open(Arc::clone(&b), c.clone(), 7, IndexPolicy::WriteClose).unwrap();
        assert_eq!(c.stat_listings(&b).unwrap().1, vec![7]);
        w.write(0, &Content::bytes(vec![0; 100]), 1).unwrap();
        w.close(2).unwrap();
        assert!(c.stat_listings(&b).unwrap().1.is_empty());
        assert_eq!(c.stat_listings(&b).unwrap().0, Some(100));
    }

    #[test]
    fn flatten_threshold_overflow_disables_flattening() {
        let (b, c) = setup();
        let mut w = WriteHandle::open(
            Arc::clone(&b),
            c.clone(),
            0,
            IndexPolicy::Flatten {
                threshold_entries: 3,
            },
        )
        .unwrap();
        for i in 0..3 {
            w.write(i * 10, &Content::bytes(vec![0; 10]), i).unwrap();
        }
        assert!(w.can_flatten());
        w.write(100, &Content::bytes(vec![0; 10]), 9).unwrap();
        assert!(!w.can_flatten(), "threshold exceeded must disable flatten");
        w.close(10).unwrap();
        // All four entries still reached the index log.
        assert_eq!(c.read_index_log(&b, 0).unwrap().len(), 4);
    }

    #[test]
    fn flatten_close_writes_global_index() {
        let (b, c) = setup();
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let mut h = WriteHandle::open(
                Arc::clone(&b),
                c.clone(),
                w,
                IndexPolicy::Flatten {
                    threshold_entries: 100,
                },
            )
            .unwrap();
            h.write(w * 10, &Content::bytes(vec![w as u8; 10]), w + 1)
                .unwrap();
            handles.push(h);
        }
        let flattened = flatten_close(&b, &c, handles, 99).unwrap();
        assert!(flattened);
        let idx = c.read_flattened(&b).unwrap().expect("flattened index");
        assert_eq!(idx.eof(), 40);
        assert_eq!(idx.span_count(), 4);
        // Index logs were still written (crash safety / stragglers).
        for w in 0..4 {
            assert_eq!(c.read_index_log(&b, w).unwrap().len(), 1);
        }
    }

    #[test]
    fn flatten_compacts_segmented_checkpoints() {
        // Segmented pattern: each writer's blocks are logically and
        // physically contiguous → one span per writer after compaction.
        let (b, c) = setup();
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let mut h = WriteHandle::open(
                Arc::clone(&b),
                c.clone(),
                w,
                IndexPolicy::Flatten {
                    threshold_entries: 100,
                },
            )
            .unwrap();
            for k in 0..16u64 {
                h.write(w * 1600 + k * 100, &Content::synthetic(w, 100), k + 1)
                    .unwrap();
            }
            handles.push(h);
        }
        assert!(flatten_close(&b, &c, handles, 99).unwrap());
        let flat = c.read_flattened(&b).unwrap().unwrap();
        assert_eq!(flat.span_count(), 4, "64 entries should compact to 4");
        // And resolution still matches a fresh aggregation, byte by byte
        // (the compacted index reports coarser mapping boundaries).
        let fresh = logs(&b, &c);
        assert_eq!(flat.eof(), fresh.eof());
        let (mut a, mut b2) = (Vec::new(), Vec::new());
        for off in (0..flat.eof()).step_by(100) {
            flat.lookup_into(off, 100, &mut a);
            fresh.lookup_into(off, 100, &mut b2);
        }
        assert_eq!(a.len(), b2.len());
        for (a, b2) in a.iter().zip(&b2) {
            assert_eq!(a.source, b2.source, "offset {}", a.logical_offset);
        }
    }

    #[test]
    fn a_session_short_of_any_writer_does_not_flatten() {
        let (b, c) = setup();
        let flat = IndexPolicy::Flatten {
            threshold_entries: 100,
        };
        let session = |writers: &[u64]| -> Vec<_> {
            let open = |w: u64| {
                let mut h = WriteHandle::open(Arc::clone(&b), c.clone(), w, flat).unwrap();
                h.write(w * 10, &Content::bytes(vec![w as u8 + 1; 10]), w + 1)
                    .unwrap();
                h
            };
            writers.iter().map(|&w| open(w)).collect()
        };
        assert!(flatten_close(&b, &c, session(&[0, 1]), 9).unwrap());
        // Writer 2 alone: its flattened index would hide writers 0 and 1.
        assert!(!flatten_close(&b, &c, session(&[2]), 19).unwrap());
        let cache = Arc::new(crate::index::SpanCache::new());
        let mut r = crate::reader::ReadHandle::open_bounded(Arc::clone(&b), c, cache).unwrap();
        assert_eq!(r.read(0, 30).unwrap(), [[1; 10], [2; 10], [3; 10]].concat());
    }

    #[test]
    fn flatten_close_aborts_if_any_writer_overflowed() {
        let (b, c) = setup();
        let mut h0 = WriteHandle::open(
            Arc::clone(&b),
            c.clone(),
            0,
            IndexPolicy::Flatten {
                threshold_entries: 1,
            },
        )
        .unwrap();
        h0.write(0, &Content::bytes(vec![1; 4]), 1).unwrap();
        h0.write(4, &Content::bytes(vec![2; 4]), 2).unwrap(); // overflows
        let h1 = WriteHandle::open(
            Arc::clone(&b),
            c.clone(),
            1,
            IndexPolicy::Flatten {
                threshold_entries: 1,
            },
        )
        .unwrap();
        let flattened = flatten_close(&b, &c, vec![h0, h1], 9).unwrap();
        assert!(!flattened);
        assert!(c.read_flattened(&b).unwrap().is_none());
        // But the data is all there via ordinary aggregation.
        assert_eq!(logs(&b, &c).eof(), 8);
    }

    #[test]
    fn empty_write_is_a_noop() {
        let (b, c) = setup();
        let mut w =
            WriteHandle::open(Arc::clone(&b), c.clone(), 0, IndexPolicy::WriteClose).unwrap();
        w.write(50, &Content::bytes(vec![]), 1).unwrap();
        assert_eq!(w.bytes_written(), 0);
        let contribution = w.close(2).unwrap();
        assert!(contribution.is_empty());
    }

    #[test]
    fn concurrent_writers_do_not_interfere() {
        let (b, c) = setup();
        c.create(&b).unwrap();
        let mut handles = Vec::new();
        for w in 0..8u64 {
            let b = Arc::clone(&b);
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut h = WriteHandle::open(b, c, w, IndexPolicy::WriteClose).unwrap();
                for i in 0..50u64 {
                    // Strided N-1 pattern.
                    h.write((i * 8 + w) * 100, &Content::synthetic(w, 100), i)
                        .unwrap();
                }
                h.close(99).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let idx = logs(&b, &c);
        assert_eq!(idx.eof(), 50 * 8 * 100);
        assert_eq!(idx.span_count(), 400);
    }
}
