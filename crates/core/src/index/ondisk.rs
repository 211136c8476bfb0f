//! The on-disk span index (`spanidx`) format and its memory-bounded
//! reader.
//!
//! PR 1's flattened index was a bare concatenation of 40-byte records
//! that every reader had to deserialize **whole** before the first
//! lookup — O(entries) memory, the exact failure mode DESIGN.md §5j
//! calls out at a billion entries. `spanidx` keeps the same sorted,
//! disjoint record run but makes it binary-searchable *on disk*:
//!
//! ```text
//! [record 0 .. record n-1]   n × 40 B   sorted by logical offset, disjoint
//! [fence 0  .. fence f-1]    f × 8 B    fence i = logical offset of record i·stride
//! [footer]                   64 B       magic, version, geometry, eof, checksum
//! ```
//!
//! The layout is append-only friendly (containers only ever append), so
//! the versioned header lives at the **end** as a footer. A reader
//! bootstraps with a size (which a mount's stamp already holds) and one
//! read of the file's tail — footer and fence region together up to ~8
//! Mi records, a second read beyond — and thereafter serves any lookup by
//! binary-searching the in-memory fences and fetching just the
//! [`SPANIDX_FENCE_STRIDE`]-record windows that overlap the request: one
//! batched list-I/O submission per miss, with decoded windows kept in the
//! sharded [`SpanCache`]. Memory is O(fences + cache budget), never
//! O(entries).
//!
//! The authoritative constants table lives in DESIGN.md §5j and is
//! checked both ways by `tests/contracts.rs`.
#![deny(clippy::wildcard_enum_match_arm)]

use crate::backend::Backend;
use crate::content::Content;
use crate::error::{PlfsError, Result};
use crate::index::spancache::SpanCache;
use crate::index::{check_extents, tile_into, IndexEntry, Mapping, INDEX_RECORD_BYTES};
use crate::ioplane::{self, IoOp};
use std::sync::Arc;

/// Magic tag in the footer's first 8 bytes.
pub(crate) const SPANIDX_MAGIC: [u8; 8] = *b"PLFSIDX1";
/// Format version the footer carries.
pub(crate) const SPANIDX_VERSION: u64 = 1;
/// Fixed footer size at the end of a spanidx file.
pub const SPANIDX_FOOTER_BYTES: u64 = 64;
/// Size of one fence pointer (the logical offset of its window's first record).
pub const SPANIDX_FENCE_BYTES: u64 = 8;
/// Records per fence window: the unit of lazy fetch and caching.
pub const SPANIDX_FENCE_STRIDE: u64 = 1024;

/// The parsed, validated footer of a spanidx file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIdxFooter {
    /// Format version (`SPANIDX_VERSION` is the only one readable today).
    pub version: u64,
    /// Records in the file, sorted by logical offset, pairwise disjoint.
    pub record_count: u64,
    /// Records per fence window as written (readers honour the stored
    /// stride, not the compile-time default).
    pub fence_stride: u64,
    /// Fence pointers in the fence region.
    pub fence_count: u64,
    /// Logical end-of-file the records resolve to.
    pub eof: u64,
}

/// Fences a record count needs at a given stride.
pub fn fences_for(record_count: u64, stride: u64) -> u64 {
    record_count.div_ceil(stride.max(1))
}

/// Positionally-mixed fold of the footer fields: a torn or bit-rotted
/// footer fails closed instead of describing a garbage geometry.
fn footer_checksum(f: &SpanIdxFooter) -> u64 {
    let mut h = u64::from_le_bytes(SPANIDX_MAGIC);
    for (i, v) in [
        f.version,
        f.record_count,
        f.fence_stride,
        f.fence_count,
        f.eof,
    ]
    .into_iter()
    .enumerate()
    {
        h ^= v.rotate_left(13 * (i as u32 + 1));
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

impl SpanIdxFooter {
    /// Serialize to the fixed 64-byte footer.
    pub fn to_bytes(&self) -> [u8; SPANIDX_FOOTER_BYTES as usize] {
        let mut out = [0u8; SPANIDX_FOOTER_BYTES as usize];
        out[0..8].copy_from_slice(&SPANIDX_MAGIC);
        out[8..16].copy_from_slice(&self.version.to_le_bytes());
        out[16..24].copy_from_slice(&self.record_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.fence_stride.to_le_bytes());
        out[32..40].copy_from_slice(&self.fence_count.to_le_bytes());
        out[40..48].copy_from_slice(&self.eof.to_le_bytes());
        out[48..56].copy_from_slice(&footer_checksum(self).to_le_bytes());
        // 56..64 reserved, zero.
        out
    }

    /// Parse and validate a footer from its 64 raw bytes.
    pub(crate) fn from_bytes(b: &[u8]) -> Result<SpanIdxFooter> {
        if b.len() != SPANIDX_FOOTER_BYTES as usize {
            return Err(PlfsError::CorruptContainer(format!(
                "spanidx footer must be {SPANIDX_FOOTER_BYTES} bytes, got {}",
                b.len()
            )));
        }
        #[expect(clippy::expect_used, reason = "length checked above; every 8-byte slice exists")]
        let u = |r: std::ops::Range<usize>| u64::from_le_bytes(b[r].try_into().expect("8 bytes"));
        if u(0..8) != u64::from_le_bytes(SPANIDX_MAGIC) {
            return Err(PlfsError::CorruptContainer(
                "spanidx footer magic missing (legacy or torn flattened index)".into(),
            ));
        }
        let footer = SpanIdxFooter {
            version: u(8..16),
            record_count: u(16..24),
            fence_stride: u(24..32),
            fence_count: u(32..40),
            eof: u(40..48),
        };
        if footer.version != SPANIDX_VERSION {
            return Err(PlfsError::CorruptContainer(format!(
                "spanidx version {} unsupported (want {SPANIDX_VERSION})",
                footer.version
            )));
        }
        if u(48..56) != footer_checksum(&footer) {
            return Err(PlfsError::CorruptContainer(
                "spanidx footer checksum mismatch".into(),
            ));
        }
        if footer.fence_stride == 0
            || footer.fence_count != fences_for(footer.record_count, footer.fence_stride)
        {
            return Err(PlfsError::CorruptContainer(format!(
                "spanidx fence geometry invalid: {} fences for {} records at stride {}",
                footer.fence_count, footer.record_count, footer.fence_stride
            )));
        }
        Ok(footer)
    }

    /// Total file size this footer's geometry implies.
    pub(crate) fn expected_file_size(&self) -> u64 {
        self.record_count * INDEX_RECORD_BYTES
            + self.fence_count * SPANIDX_FENCE_BYTES
            + SPANIDX_FOOTER_BYTES
    }
}

/// Parse a whole spanidx file image: validated footer plus the record
/// and fence regions. Used where the bytes are already in hand (fsck
/// deep validation, `plfsctl index inspect`, whole-index reads); the
/// bounded reader never calls this.
pub fn parse_file(bytes: &[u8]) -> Result<(SpanIdxFooter, &[u8], &[u8])> {
    let n = bytes.len() as u64;
    if n < SPANIDX_FOOTER_BYTES {
        return Err(PlfsError::CorruptContainer(format!(
            "spanidx file too short for a footer: {n} bytes"
        )));
    }
    let footer = SpanIdxFooter::from_bytes(&bytes[(n - SPANIDX_FOOTER_BYTES) as usize..])?;
    if footer.expected_file_size() != n {
        return Err(PlfsError::CorruptContainer(format!(
            "spanidx geometry wants {} bytes, file has {n}",
            footer.expected_file_size()
        )));
    }
    let rec_end = (footer.record_count * INDEX_RECORD_BYTES) as usize;
    let fence_end = rec_end + (footer.fence_count * SPANIDX_FENCE_BYTES) as usize;
    Ok((footer, &bytes[..rec_end], &bytes[rec_end..fence_end]))
}

/// Decode a fence region into offsets.
#[expect(clippy::expect_used, reason = "chunks_exact yields exactly 8 bytes")]
pub fn decode_fences(bytes: &[u8]) -> Result<Vec<u64>> {
    if !bytes.len().is_multiple_of(SPANIDX_FENCE_BYTES as usize) {
        return Err(PlfsError::CorruptContainer(format!(
            "spanidx fence region length {} not a multiple of {SPANIDX_FENCE_BYTES}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(SPANIDX_FENCE_BYTES as usize)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// Deep structural check of a fully-read spanidx image: every record in
/// sorted disjoint order, every fence equal to its window's first record
/// offset, eof equal to the last record's end. fsck runs this; the
/// bounded reader trusts the footer and validates per window.
pub fn verify_deep(bytes: &[u8]) -> Result<SpanIdxFooter> {
    let (footer, records, fence_bytes) = parse_file(bytes)?;
    let fences = decode_fences(fence_bytes)?;
    let mut prev_end: Option<u64> = None;
    let mut eof = 0u64;
    for (i, chunk) in records.chunks_exact(INDEX_RECORD_BYTES as usize).enumerate() {
        let e = IndexEntry::from_bytes(chunk)?;
        if prev_end.is_some_and(|pe| e.logical_offset < pe) {
            return Err(PlfsError::CorruptContainer(format!(
                "spanidx record {i} out of order or overlapping at offset {}",
                e.logical_offset
            )));
        }
        if (i as u64).is_multiple_of(footer.fence_stride)
            && fences.get(i as u64 as usize / footer.fence_stride as usize)
                != Some(&e.logical_offset)
        {
            return Err(PlfsError::CorruptContainer(format!(
                "spanidx fence {} disagrees with record {i}",
                i as u64 / footer.fence_stride
            )));
        }
        let end = e.logical_offset.checked_add(e.length).ok_or_else(|| {
            PlfsError::CorruptContainer(format!("spanidx record {i} extent overflows u64"))
        })?;
        prev_end = Some(end);
        eof = eof.max(end);
    }
    if eof != footer.eof {
        return Err(PlfsError::CorruptContainer(format!(
            "spanidx footer eof {} disagrees with records ({eof})",
            footer.eof
        )));
    }
    Ok(footer)
}

/// Streaming spanidx writer: feed it sorted disjoint entries (the output
/// of [`crate::index::GlobalIndex::merge_streamed`] or
/// [`crate::index::GlobalIndex::to_entries`]), it appends record chunks
/// as they fill and the fence/footer trailer at [`SpanIdxWriter::finish`].
/// Working memory is O(chunk + fences), never O(entries).
pub struct SpanIdxWriter<'a, B: Backend> {
    backend: &'a B,
    path: String,
    fences: Vec<u64>,
    records: u64,
    eof: u64,
    last_end: u64,
    buf: Vec<u8>,
    chunk_bytes: usize,
}

impl<'a, B: Backend> SpanIdxWriter<'a, B> {
    /// Create (truncating any previous file at `path`) and start writing.
    /// `chunk_entries` bounds how many records buffer between appends.
    pub fn create(backend: &'a B, path: &str, chunk_entries: usize) -> Result<Self> {
        let create = IoOp::Create {
            path: path.to_string(),
            exclusive: false,
        };
        ioplane::as_unit(ioplane::submit_one(backend, create))?;
        Ok(SpanIdxWriter {
            backend,
            path: path.to_string(),
            fences: Vec::new(),
            records: 0,
            eof: 0,
            last_end: 0,
            buf: Vec::new(),
            chunk_bytes: chunk_entries.max(1) * INDEX_RECORD_BYTES as usize,
        })
    }

    /// Append one run of entries (sorted, disjoint, and non-overlapping
    /// with everything pushed before).
    pub fn push_run(&mut self, run: &[IndexEntry]) -> Result<()> {
        for e in run {
            if e.logical_offset < self.last_end {
                return Err(PlfsError::CorruptContainer(format!(
                    "spanidx writer fed out-of-order record at offset {}",
                    e.logical_offset
                )));
            }
            if self.records.is_multiple_of(SPANIDX_FENCE_STRIDE) {
                self.fences.push(e.logical_offset);
            }
            self.buf.extend_from_slice(&e.to_bytes());
            self.records += 1;
            self.last_end = e.logical_offset + e.length;
            self.eof = self.eof.max(self.last_end);
            if self.buf.len() >= self.chunk_bytes {
                self.flush_buf()?;
            }
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let chunk = Content::bytes(std::mem::take(&mut self.buf));
        let append = IoOp::Append {
            path: self.path.clone(),
            content: chunk,
        };
        ioplane::as_offset(ioplane::submit_one(self.backend, append))?;
        Ok(())
    }

    /// Flush remaining records and append the fence region and footer
    /// (one final append, so a complete footer implies the regions before
    /// it were acknowledged first). Returns the footer written.
    pub fn finish(mut self) -> Result<SpanIdxFooter> {
        self.flush_buf()?;
        let footer = SpanIdxFooter {
            version: SPANIDX_VERSION,
            record_count: self.records,
            fence_stride: SPANIDX_FENCE_STRIDE,
            fence_count: self.fences.len() as u64,
            eof: self.eof,
        };
        let mut trailer =
            Vec::with_capacity(self.fences.len() * SPANIDX_FENCE_BYTES as usize + 64);
        for f in &self.fences {
            trailer.extend_from_slice(&f.to_le_bytes());
        }
        trailer.extend_from_slice(&footer.to_bytes());
        let append = IoOp::Append {
            path: self.path.clone(),
            content: Content::bytes(trailer),
        };
        ioplane::as_offset(ioplane::submit_one(self.backend, append))?;
        Ok(footer)
    }
}

/// Bytes a bounded open reads from the end of a spanidx file in one op:
/// the footer plus the fence region of up to ~8 Mi records.
const OPEN_TAIL_BYTES: u64 = 64 * 1024;

/// Monotonic id distinguishing cache entries of different index
/// instances sharing one [`SpanCache`].
static NEXT_CACHE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A memory-bounded reader over one spanidx file: fences in memory,
/// record windows fetched on demand through batched list-I/O reads and
/// retained in a sharded, byte-budgeted [`SpanCache`].
pub struct OnDiskIndex {
    path: Arc<str>,
    footer: SpanIdxFooter,
    fences: Vec<u64>,
    cache: Arc<SpanCache>,
    cache_id: u64,
}

impl OnDiskIndex {
    /// Bootstrap from `path`: size probe, then `OnDiskIndex::open_sized`
    /// — two small plane submissions for up to ~8 Mi records, O(fences)
    /// memory. Returns `Ok(None)` when the file is absent **or** is not a
    /// structurally valid spanidx (legacy or torn flattened indices are a
    /// read-time accelerator only; callers fall back to aggregation and
    /// fsck flags the file).
    pub fn open<B: Backend>(b: &B, path: &str, cache: Arc<SpanCache>) -> Result<Option<Self>> {
        let probe = IoOp::Size {
            path: path.to_string(),
        };
        match ioplane::as_size(ioplane::submit_one(b, probe)) {
            Ok(size) => Self::open_sized(b, path, size, cache),
            Err(PlfsError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// [`OnDiskIndex::open`] of a file already sized (a mount's stamp
    /// carries the size): one read of the file's last 64 KiB
    /// — the footer, and the fence region with it whenever that fits (up
    /// to ~8 Mi records) — else a second read for the fences. `Ok(None)`
    /// as for `open`, and when the file is gone or no longer `size` bytes.
    pub(crate) fn open_sized<B: Backend>(
        b: &B,
        path: &str,
        size: u64,
        cache: Arc<SpanCache>,
    ) -> Result<Option<Self>> {
        Self::open_tail(b, path, size, OPEN_TAIL_BYTES, cache)
    }

    /// [`OnDiskIndex::open_sized`] with the first read `tail` bytes long.
    fn open_tail<B: Backend>(
        b: &B,
        path: &str,
        size: u64,
        tail: u64,
        cache: Arc<SpanCache>,
    ) -> Result<Option<Self>> {
        if size < SPANIDX_FOOTER_BYTES {
            return Ok(None);
        }
        let tail_at = size - size.min(tail.max(SPANIDX_FOOTER_BYTES));
        let tail_read = IoOp::ReadAt {
            path: path.to_string(),
            offset: tail_at,
            len: size - tail_at,
        };
        let tail = match ioplane::as_data(ioplane::submit_one(b, tail_read)) {
            Ok(tail) if tail.len() == size - tail_at => tail,
            Ok(_) | Err(PlfsError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let tail = tail.as_bytes();
        let footer_at = tail.len() - SPANIDX_FOOTER_BYTES as usize;
        let footer = match SpanIdxFooter::from_bytes(&tail[footer_at..]) {
            Ok(f) if f.expected_file_size() == size => f,
            Ok(_) | Err(PlfsError::CorruptContainer(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let fences_at = footer.record_count * INDEX_RECORD_BYTES;
        let fences = match fences_at.checked_sub(tail_at) {
            Some(lo) => decode_fences(&tail[lo as usize..footer_at])?,
            None => {
                let fence_read = IoOp::ReadAt {
                    path: path.to_string(),
                    offset: fences_at,
                    len: footer.fence_count * SPANIDX_FENCE_BYTES,
                };
                decode_fences(&ioplane::as_data(ioplane::submit_one(b, fence_read))?.as_bytes())?
            }
        };
        Ok(Some(OnDiskIndex {
            path: path.into(),
            footer,
            fences,
            cache,
            cache_id: NEXT_CACHE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }))
    }

    /// Logical end-of-file the index resolves to.
    pub fn eof(&self) -> u64 {
        self.footer.eof
    }

    /// The validated footer (geometry diagnostics, `plfsctl index inspect`).
    pub fn footer(&self) -> &SpanIdxFooter {
        &self.footer
    }

    /// Estimated resident bytes: fences and footer, whatever the record
    /// count (the records stay on disk or in the shared [`SpanCache`]).
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.fences.len() as u64) * SPANIDX_FENCE_BYTES
            + (self.path.len() + std::mem::size_of::<Self>()) as u64
    }

    /// Resolve a logical read into data-log extents and holes, appending
    /// mappings that exactly tile `[offset, offset + len)` (the end
    /// clamped to `u64::MAX`) like [`crate::GlobalIndex::lookup_into`].
    /// `&self`: the window cache locks internally, so one index serves
    /// every reader.
    pub fn lookup_into<B: Backend>(
        &self,
        b: &B,
        offset: u64,
        len: u64,
        out: &mut Vec<Mapping>,
    ) -> Result<()> {
        let end = offset.saturating_add(len);
        if end <= offset {
            return Ok(());
        }
        let windows = if self.footer.record_count > 0 {
            let (w_lo, w_hi) = self.window_range(offset, end);
            self.fetch_windows(b, w_lo, w_hi)?
        } else {
            Vec::new()
        };
        tile_into(windows.iter().map(|w| w.as_slice()), offset, len, out);
        Ok(())
    }

    /// Inclusive window range whose records can overlap `[offset, end)`.
    ///
    /// Fences are the logical offsets of each window's first record, so
    /// the predecessor fence of `offset` names the window holding the
    /// span that may cover `offset`, and the last fence strictly below
    /// `end` names the last window with records starting before `end`.
    fn window_range(&self, offset: u64, end: u64) -> (u64, u64) {
        let lo = self.fences.partition_point(|&f| f <= offset).max(1) as u64 - 1;
        let hi = self.fences.partition_point(|&f| f < end).max(1) as u64 - 1;
        (lo, hi.max(lo))
    }

    /// Fetch windows `w_lo..=w_hi` in order: cache probes first, then ONE
    /// batched list-I/O submission for every missed window.
    /// A miss reads by path, where a later flatten may have put another
    /// file (DESIGN.md §5j), so each window is read with the bytes after
    /// it and checked by [`OnDiskIndex::checked_window`].
    fn fetch_windows<B: Backend>(
        &self,
        b: &B,
        w_lo: u64,
        w_hi: u64,
    ) -> Result<Vec<Arc<Vec<IndexEntry>>>> {
        let stride = self.footer.fence_stride;
        let last = self.footer.fence_count.saturating_sub(1);
        let mut got: Vec<Option<Arc<Vec<IndexEntry>>>> =
            Vec::with_capacity((w_hi - w_lo + 1) as usize);
        // Each missed window with the piece of the list read that holds
        // its bytes: neighbouring windows overlap by one record, so a run
        // of misses is one `ReadAt`.
        let mut plan = ioplane::ListReadPlan::default();
        let mut missing: Vec<(u64, (usize, u64), u64)> = Vec::new(); // (window, at, len)
        for w in w_lo..=w_hi {
            match self.cache.get(self.cache_id, w) {
                Some(entries) => got.push(Some(entries)),
                None => {
                    let lo = w * stride * INDEX_RECORD_BYTES;
                    let hi = if w == last {
                        self.footer.expected_file_size()
                    } else {
                        ((w + 1) * stride + 1) * INDEX_RECORD_BYTES
                    };
                    missing.push((w, plan.push(&self.path, lo, hi - lo), hi - lo));
                    got.push(None);
                }
            }
        }
        if !missing.is_empty() {
            plan.submit(b, "flattened index")?;
            let mut filled = got.iter_mut().filter(|g| g.is_none());
            for (w, (read, off), len) in missing {
                let content = plan.read(read)?.slice(off, len);
                let entries = Arc::new(self.checked_window(w, &content.as_bytes())?);
                self.cache.insert(self.cache_id, w, Arc::clone(&entries));
                if let Some(slot) = filled.next() {
                    *slot = Some(entries);
                }
            }
        }
        Ok(got
            .into_iter()
            .map(|g| g.unwrap_or_default())
            .collect())
    }

    /// Decode window `w`, pinning both of its ends to this index: its
    /// first record's offset is its fence, and the bytes read after it
    /// are the next window's first record, at the next fence, or for the
    /// last window this index's fence region and footer. A window that
    /// passes holds all its file's records for its logical range; one
    /// that fails is `CorruptContainer`, never holes.
    fn checked_window(&self, w: u64, bytes: &[u8]) -> Result<Vec<IndexEntry>> {
        let stride = self.footer.fence_stride;
        let records = (((w + 1) * stride).min(self.footer.record_count) - w * stride) as usize;
        let changed = || {
            PlfsError::CorruptContainer(format!(
                "flattened index {} changed under its reader (window {w})",
                self.path
            ))
        };
        let (window, after) = bytes
            .split_at_checked(records * INDEX_RECORD_BYTES as usize)
            .ok_or_else(changed)?;
        let entries = IndexEntry::decode_all(window)?;
        check_extents(&self.path, &entries)?;
        let first = entries.first().map(|e| e.logical_offset);
        let pinned = match self.fences.get(w as usize + 1) {
            Some(&next) => IndexEntry::from_bytes(after)?.logical_offset == next,
            None => {
                let fence_bytes = self.fences.len() * SPANIDX_FENCE_BYTES as usize;
                let (fences, footer) = after.split_at_checked(fence_bytes).ok_or_else(changed)?;
                footer == self.footer.to_bytes()
                    && (fences.chunks_exact(SPANIDX_FENCE_BYTES as usize))
                        .zip(&self.fences)
                        .all(|(got, f)| *got == f.to_le_bytes())
            }
        };
        if !pinned || first != self.fences.get(w as usize).copied() {
            return Err(changed());
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{GlobalIndex, Source};
    use crate::memfs::MemFs;

    fn e(lo: u64, len: u64, phys: u64, w: u64, ts: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            writer: w,
            timestamp: ts,
        }
    }

    fn write_idx<B: Backend>(b: &B, path: &str, entries: &[IndexEntry]) -> SpanIdxFooter {
        let mut w = SpanIdxWriter::create(b, path, 16).unwrap();
        w.push_run(entries).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn footer_roundtrips_and_rejects_corruption() {
        let f = SpanIdxFooter {
            version: SPANIDX_VERSION,
            record_count: 5000,
            fence_stride: SPANIDX_FENCE_STRIDE,
            fence_count: fences_for(5000, SPANIDX_FENCE_STRIDE),
            eof: 123456,
        };
        let bytes = f.to_bytes();
        assert_eq!(SpanIdxFooter::from_bytes(&bytes).unwrap(), f);
        // Any flipped byte must fail parse (magic, field, or checksum).
        for i in 0..bytes.len() - 8 {
            let mut bad = bytes;
            bad[i] ^= 0xff;
            assert!(
                SpanIdxFooter::from_bytes(&bad).is_err(),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn writer_output_passes_deep_verification() {
        let b = MemFs::new();
        let entries: Vec<IndexEntry> = (0..3000u64).map(|i| e(i * 10, 10, i * 10, 1, 1)).collect();
        let footer = write_idx(&b, "/idx", &entries);
        assert_eq!(footer.record_count, 3000);
        assert_eq!(footer.fence_count, fences_for(3000, SPANIDX_FENCE_STRIDE));
        assert_eq!(footer.eof, 30000);
        let bytes = b
            .read_at("/idx", 0, b.size("/idx").unwrap())
            .unwrap()
            .materialize();
        assert_eq!(verify_deep(&bytes).unwrap(), footer);
    }

    #[test]
    fn writer_rejects_out_of_order_runs() {
        let b = MemFs::new();
        let mut w = SpanIdxWriter::create(&b, "/idx", 8).unwrap();
        w.push_run(&[e(100, 10, 0, 1, 1)]).unwrap();
        assert!(w.push_run(&[e(50, 10, 10, 1, 1)]).is_err());
    }

    #[test]
    fn open_rejects_legacy_and_torn_files() {
        let b = MemFs::new();
        let cache = Arc::new(SpanCache::with_budget(1 << 20));
        // Legacy: raw records, no footer.
        b.create("/legacy", true).unwrap();
        b.append(
            "/legacy",
            &Content::bytes(IndexEntry::encode_all(&[e(0, 10, 0, 1, 1)])),
        )
        .unwrap();
        assert!(OnDiskIndex::open(&b, "/legacy", Arc::clone(&cache))
            .unwrap()
            .is_none());
        // Torn: a valid file truncated mid-trailer.
        let entries: Vec<IndexEntry> = (0..100u64).map(|i| e(i * 8, 8, i * 8, 2, 1)).collect();
        write_idx(&b, "/whole", &entries);
        let size = b.size("/whole").unwrap();
        let torn = b.read_at("/whole", 0, size - 20).unwrap();
        b.create("/torn", true).unwrap();
        b.append("/torn", &torn).unwrap();
        assert!(OnDiskIndex::open(&b, "/torn", Arc::clone(&cache))
            .unwrap()
            .is_none());
        // Absent.
        assert!(OnDiskIndex::open(&b, "/missing", cache).unwrap().is_none());
    }

    #[test]
    fn lookups_match_global_index_across_window_boundaries() {
        let b = MemFs::new();
        let cache = Arc::new(SpanCache::with_budget(1 << 20));
        // Enough records to span several fence windows, with holes.
        let entries: Vec<IndexEntry> = (0..(3 * SPANIDX_FENCE_STRIDE + 100))
            .map(|i| e(i * 100, 60, i * 60, i % 7, 1))
            .collect();
        let gidx = GlobalIndex::from_entries(entries.clone());
        write_idx(&b, "/idx", &entries);
        let odx = OnDiskIndex::open(&b, "/idx", cache).unwrap().unwrap();
        assert_eq!(odx.eof(), gidx.eof());
        let probes: &[(u64, u64)] = &[
            (0, 50),
            (30, 100),
            (0, gidx.eof()),
            (SPANIDX_FENCE_STRIDE * 100 - 70, 500), // straddles window 0/1
            (gidx.eof() - 10, 100),                 // past eof
            (gidx.eof() + 1000, 5),                 // entirely past eof
            (55, 0),
        ];
        let lookup = |off, len| {
            let mut on_disk = Vec::new();
            odx.lookup_into(&b, off, len, &mut on_disk).unwrap();
            let mut in_mem = Vec::new();
            gidx.lookup_into(off, len, &mut in_mem);
            (on_disk, in_mem)
        };
        for &(off, len) in probes {
            let (on_disk, in_mem) = lookup(off, len);
            assert_eq!(on_disk, in_mem, "lookup({off}, {len})");
        }
        // An end past u64::MAX clamps on both sides alike.
        let (on_disk, in_mem) = lookup(u64::MAX - 1, 4);
        assert_eq!((on_disk.len(), &on_disk), (1, &in_mem));
    }

    #[test]
    fn fences_beyond_the_first_read_take_a_second() {
        use crate::backend::TracingBackend;
        let b = TracingBackend::new(MemFs::new());
        let entries: Vec<IndexEntry> = (0..3000u64).map(|i| e(i * 10, 10, i * 10, 1, 1)).collect();
        write_idx(&b, "/idx", &entries);
        let size = b.size("/idx").unwrap();
        b.take_trace();
        let odx = OnDiskIndex::open_tail(&b, "/idx", size, 0, Arc::default()).unwrap().unwrap();
        assert_eq!(b.take_trace().len(), 2, "the footer alone, then the fences");
        let mut out = Vec::new();
        odx.lookup_into(&b, 25_000, 20, &mut out).unwrap();
        assert_eq!(out[0].source, Source::Writer { writer: 1, physical_offset: 25_000 });
    }

    #[test]
    fn windows_reread_from_a_changed_file_are_refused_never_holes() {
        let b = MemFs::new();
        let stride = SPANIDX_FENCE_STRIDE;
        let old: Vec<IndexEntry> = (0..2 * stride).map(|i| e(i * 10, 10, i * 10, 1, 1)).collect();
        write_idx(&b, "/idx", &old);
        // A cache that retains nothing: every lookup re-reads its windows.
        let odx = OnDiskIndex::open(&b, "/idx", Arc::new(SpanCache::with_budget(0)));
        let odx = odx.unwrap().unwrap();
        let lookup = |off: u64| {
            let mut out = Vec::new();
            odx.lookup_into(&b, off, 10, &mut out).map(|()| out)
        };
        let (tail_of_0, head_of_1) = ((stride - 1) * 10, stride * 10);
        let want = lookup(tail_of_0).unwrap();
        assert_eq!(want[0].source, Source::Writer { writer: 1, physical_offset: tail_of_0 });
        // A newer index splits record 5: window 0 still starts at its
        // fence, but every later record moves one slot on, so window 0's
        // bytes now end one record short of its logical range.
        let mut split = old.clone();
        split[5].length = 5;
        split.insert(6, e(55, 5, 0, 2, 2));
        b.unlink("/idx").unwrap();
        write_idx(&b, "/idx", &split);
        for off in [tail_of_0, head_of_1] {
            assert!(matches!(lookup(off), Err(PlfsError::CorruptContainer(_))), "{off}");
        }
        // Gone, then back byte for byte.
        b.unlink("/idx").unwrap();
        assert!(lookup(0).is_err());
        write_idx(&b, "/idx", &old);
        assert_eq!(lookup(tail_of_0).unwrap(), want);
        assert!(lookup(head_of_1).is_ok());
    }

    #[test]
    fn lookup_batch_is_one_submission_per_miss() {
        use crate::backend::TracingBackend;
        let traced = TracingBackend::new(MemFs::new());
        let cache = Arc::new(SpanCache::with_budget(1 << 20));
        let entries: Vec<IndexEntry> = (0..(2 * SPANIDX_FENCE_STRIDE))
            .map(|i| e(i * 10, 10, i * 10, 1, 1))
            .collect();
        write_idx(&traced, "/idx", &entries);
        let odx = OnDiskIndex::open(&traced, "/idx", cache).unwrap().unwrap();
        traced.take_trace();
        let t0 = traced.trips();
        // A read spanning both windows: both miss, ONE submission.
        let mut out = Vec::new();
        odx.lookup_into(&traced, 0, 2 * SPANIDX_FENCE_STRIDE * 10, &mut out)
            .unwrap();
        assert_eq!(traced.trips() - t0, 1);
        // Both windows now cached: zero further submissions.
        odx.lookup_into(&traced, 5, 50, &mut out).unwrap();
        odx.lookup_into(&traced, SPANIDX_FENCE_STRIDE * 10 + 5, 50, &mut out)
            .unwrap();
        assert_eq!(traced.trips() - t0, 1);
        assert!(traced.take_trace().len() <= 1);
    }
}
