//! PLFS index machinery: per-write records, serialization, and the global
//! index that maps logical file offsets back to positions in writers' data
//! logs.
//!
//! Every `write(offset, len)` a process issues appends one [`IndexEntry`]
//! to that process's *index log*. PLFS does **no** coordination between
//! writers at write time; instead, overwrites of the same logical range by
//! different processes are resolved at read time by *timestamp* — the
//! paper notes PLFS assumes synchronized cluster clocks, and that HPC
//! checkpoints rarely overwrite in practice (§II, endnote 1).
//!
//! A [`GlobalIndex`] is the merge of all writers' entries: a sorted run of
//! disjoint spans mapping logical ranges to `(writer, physical offset)`,
//! with later-timestamp-wins semantics — or, when a read-open's
//! aggregation finds every log to be one arithmetic progression of writes
//! (`index::log`) and those progressions tile a period exactly, an O(writers)
//! interleave group that stands for the spans without materializing them
//! (DESIGN.md §5b). All three read strategies in the paper (Original,
//! Index Flatten, Parallel Index Read) produce *the same* `GlobalIndex` —
//! they differ only in who reads which index log and when, which is
//! exactly what the merge operation here supports (hierarchical partial
//! merges for Parallel Index Read).

use crate::error::{PlfsError, Result};
use interleave::Interleave;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

mod interleave;
pub(crate) mod log;
pub mod ondisk;
pub mod spancache;

pub use ondisk::OnDiskIndex;
pub use spancache::SpanCache;

/// Identifies one writer's data log within a container (rank or pid).
pub(crate) type WriterId = u64;

/// One record in a writer's index log: "logical range `[logical_offset,
/// logical_offset + length)` lives at `physical_offset` in my data log,
/// written at `timestamp`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// First logical byte the record covers.
    pub logical_offset: u64,
    /// Bytes covered.
    pub length: u64,
    /// Landing offset of the bytes in the writer's data log.
    pub physical_offset: u64,
    /// Writer whose data log holds the bytes.
    pub writer: WriterId,
    /// Write timestamp (overwrite resolution: higher wins).
    pub timestamp: u64,
}

/// Size of one serialized index record.
pub const INDEX_RECORD_BYTES: u64 = 40;

impl IndexEntry {
    /// Serialize to the fixed 40-byte little-endian on-log format.
    pub fn to_bytes(&self) -> [u8; INDEX_RECORD_BYTES as usize] {
        let mut out = [0u8; INDEX_RECORD_BYTES as usize];
        out[0..8].copy_from_slice(&self.logical_offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.length.to_le_bytes());
        out[16..24].copy_from_slice(&self.physical_offset.to_le_bytes());
        out[24..32].copy_from_slice(&self.writer.to_le_bytes());
        out[32..40].copy_from_slice(&self.timestamp.to_le_bytes());
        out
    }

    /// Deserialize one record.
    pub(crate) fn from_bytes(b: &[u8]) -> Result<IndexEntry> {
        b.first_chunk().map(Self::from_record).ok_or_else(|| {
            PlfsError::CorruptContainer(format!("index record truncated: {} bytes", b.len()))
        })
    }

    /// Decode one whole record; the array type carries the length check.
    fn from_record(r: &[u8; INDEX_RECORD_BYTES as usize]) -> IndexEntry {
        let (words, _) = r.as_chunks::<8>();
        let u = |i: usize| u64::from_le_bytes(words[i]);
        IndexEntry {
            logical_offset: u(0),
            length: u(1),
            physical_offset: u(2),
            writer: u(3),
            timestamp: u(4),
        }
    }

    /// Whether the logical and the physical extent the record names both
    /// end within `u64`. Every record an aggregation reads off a log is
    /// checked: the index arithmetic assumes it.
    pub(crate) fn extents_fit(&self) -> bool {
        self.logical_offset.checked_add(self.length).is_some()
            && self.physical_offset.checked_add(self.length).is_some()
    }

    /// One past the last logical byte the record covers.
    fn end(&self) -> u64 {
        self.logical_offset + self.length
    }

    /// The part of this record covering logical `[from, to)`.
    fn cut(&self, from: u64, to: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: from,
            length: to - from,
            physical_offset: self.physical_offset + (from - self.logical_offset),
            ..*self
        }
    }

    /// Serialize a batch of entries.
    pub fn encode_all(entries: &[IndexEntry]) -> Vec<u8> {
        let mut out = Vec::with_capacity(entries.len() * INDEX_RECORD_BYTES as usize);
        for e in entries {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }

    /// Deserialize a batch; the byte length must be a whole number of
    /// records. One length check covers the whole log; each record then
    /// decodes straight out of its fixed-width chunk, with no per-record
    /// `Result` and no intermediate copy of the buffer.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<IndexEntry>> {
        Ok(whole_records(bytes)?
            .iter()
            .map(IndexEntry::from_record)
            .collect())
    }

    /// Decode records straight out of a [`crate::Content`]: real bytes are
    /// borrowed (no whole-buffer copy); synthetic or zero content — which
    /// never legitimately holds index records — is generated once.
    pub(crate) fn decode_content(content: &crate::content::Content) -> Result<Vec<IndexEntry>> {
        Self::decode_all(&content.as_bytes())
    }
}

/// An index log of `len` bytes as its whole-record prefix and the bytes
/// of a torn record after it: `(whole bytes, trailing bytes)`.
pub(crate) fn whole_prefix(len: u64) -> (u64, u64) {
    let trailing = len % INDEX_RECORD_BYTES;
    (len - trailing, trailing)
}

/// `bytes` as fixed-width records; `CorruptContainer` unless they are a
/// whole number of them.
fn whole_records(bytes: &[u8]) -> Result<&[[u8; INDEX_RECORD_BYTES as usize]]> {
    let (whole, trailing) = whole_prefix(bytes.len() as u64);
    if trailing != 0 {
        return Err(PlfsError::CorruptContainer(format!(
            "index log length {} not a multiple of record size: {} whole records then {trailing} trailing bytes",
            bytes.len(),
            whole / INDEX_RECORD_BYTES,
        )));
    }
    Ok(bytes.as_chunks().0)
}

/// Refuse records read off `log` whose extents overflow `u64`
/// ([`IndexEntry::extents_fit`]): `CorruptContainer` naming the log and
/// the first such record.
pub(crate) fn check_extents(log: &str, entries: &[IndexEntry]) -> Result<()> {
    match entries.iter().position(|e| !e.extents_fit()) {
        None => Ok(()),
        Some(i) => Err(overflow(log, i, &entries[i])),
    }
}

/// The error for record `i` of `log`, `e`, whose extents overflow `u64`.
fn overflow(log: &str, i: usize, e: &IndexEntry) -> PlfsError {
    PlfsError::CorruptContainer(format!("index record {i} of {log} overflows u64: {e:?}"))
}

/// Where a logical extent's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Bytes live in `writer`'s data log starting at `physical_offset`.
    Writer {
        /// Whose data log serves the bytes.
        writer: WriterId,
        /// Offset of the first byte in that data log.
        physical_offset: u64,
    },
    /// Never written: reads back as zeros.
    Hole,
}

/// One piece of a resolved read: `length` logical bytes starting at
/// `logical_offset`, served from `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// First logical byte of the piece.
    pub logical_offset: u64,
    /// Bytes in the piece.
    pub length: u64,
    /// Where the bytes come from.
    pub source: Source,
}

/// The merged view of all writers' index logs: logical offset → data-log
/// position, with overwrites resolved.
///
/// Conflict rule: higher timestamp wins; on a timestamp tie the higher
/// writer id wins; on an exact `(timestamp, writer)` tie the record
/// **later in the input** wins — later in that writer's log, whichever
/// record starts lower (real PLFS relies on clocks differing; the
/// simulation and same-tick rewrites can produce exact ties).
///
/// Every bulk build (`from_entries`, `from_runs`, `merge_all`,
/// `merge_streamed`) is a thin caller of one k-way
/// resolve-and-compact kernel: O(n log k) over `k` ascending runs, one
/// pass, whose sorted output *is* the index (cost model in DESIGN.md §5b).
/// A read-open's aggregation may instead keep an N-1 strided
/// checkpoint's per-writer progressions as an interleave group; every call
/// answers the same for it as for the spans it stands for, and equality
/// compares those spans, not the representation.
///
/// # Examples
///
/// ```
/// use plfs::{GlobalIndex, IndexEntry};
/// use plfs::index::Source;
///
/// // Writer 1 wrote [0, 100) early; writer 2 overwrote [40, 60) later.
/// let idx = GlobalIndex::from_entries([
///     IndexEntry { logical_offset: 0, length: 100, physical_offset: 0, writer: 1, timestamp: 1 },
///     IndexEntry { logical_offset: 40, length: 20, physical_offset: 0, writer: 2, timestamp: 2 },
/// ]);
/// let mut pieces = Vec::new();
/// idx.lookup_into(30, 40, &mut pieces);
/// assert_eq!(pieces.len(), 3);
/// assert_eq!(pieces[1].source, Source::Writer { writer: 2, physical_offset: 0 });
/// assert_eq!(idx.eof(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalIndex {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Resolved spans: sorted by logical offset, pairwise disjoint, none
    /// empty.
    Spans(Vec<IndexEntry>),
    /// Per-writer progressions that tile a period exactly, never
    /// materialized.
    Group(Interleave),
}

impl Default for GlobalIndex {
    fn default() -> Self {
        Self::of_spans(Vec::new())
    }
}

impl PartialEq for GlobalIndex {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Spans(a), Repr::Spans(b)) => a == b,
            _ => self.span_count() == other.span_count() && self.spans() == other.spans(),
        }
    }
}

impl Eq for GlobalIndex {}

impl GlobalIndex {
    /// An empty index (EOF 0, no spans).
    pub fn new() -> Self {
        GlobalIndex::default()
    }

    fn of_spans(spans: Vec<IndexEntry>) -> Self {
        GlobalIndex {
            repr: Repr::Spans(spans),
        }
    }

    /// The resolved spans: borrowed from a flat index, expanded from a
    /// group.
    fn spans(&self) -> Cow<'_, [IndexEntry]> {
        match &self.repr {
            Repr::Spans(spans) => Cow::Borrowed(spans),
            Repr::Group(g) => Cow::Owned(g.expand()),
        }
    }

    /// The resolved spans, moved out of a flat index.
    fn into_spans(self) -> Vec<IndexEntry> {
        match self.repr {
            Repr::Spans(spans) => spans,
            Repr::Group(g) => g.expand(),
        }
    }

    /// Build from entries in issue order, across any number of writers:
    /// [`GlobalIndex::from_runs`] of that one sequence, uncompacted.
    pub fn from_entries<I: IntoIterator<Item = IndexEntry>>(entries: I) -> Self {
        Self::from_runs(&[entries.into_iter().collect::<Vec<_>>()], false)
    }

    /// Build from any number of entry sequences — one per writer log, in
    /// log order — in a single pass: a k-way merge that resolves
    /// overwrites and compacts inline when `compact` is set (for terminal
    /// aggregations only, see DESIGN.md §5b). The outcome is what
    /// overlaying the concatenated sequences one entry at a time would
    /// give; an exact tie goes to the later run.
    ///
    /// Compaction merges adjacent spans that are contiguous both
    /// logically and physically within the same writer's log. Checkpoint
    /// patterns produce long runs of such spans (a writer's strided blocks
    /// land back-to-back in its log), so compaction routinely shrinks a
    /// flattened index by the transfer-count factor — smaller
    /// `flattened.index` files and faster broadcasts. It is purely
    /// representational: lookups resolve identically with and without it
    /// (the merged span keeps the later timestamp, which cannot change any
    /// outcome because the merged spans were already the winners of their
    /// ranges), and compacting a compacted index changes nothing.
    pub fn from_runs<R: AsRef<[IndexEntry]>>(runs: &[R], compact: bool) -> Self {
        let _span = crate::telemetry::span(crate::telemetry::SPAN_INDEX_MERGE);
        let mut spans = Vec::with_capacity(runs.iter().map(|r| r.as_ref().len()).sum());
        resolve_runs(runs, compact, |e| spans.push(e));
        // Compaction can leave most of the reservation unused, and the
        // mount's index cache budgets by capacity (`heap_bytes`).
        spans.shrink_to_fit();
        Self::of_spans(spans)
    }

    /// The terminal aggregation of index logs decoded by [`log::decode`],
    /// one per writer: an interleave group when every log is one
    /// progression and they tile a period exactly (DESIGN.md §5b), else
    /// `from_runs` of their expansion, compacted. Either way it equals
    /// `from_runs(expanded, true)`.
    pub(crate) fn from_logs(logs: &[Vec<log::LogRecord>]) -> Self {
        let progressions = logs
            .iter()
            .filter(|l| matches!(l.as_slice(), [r] if r.count > 1))
            .count();
        crate::telemetry::count(
            crate::telemetry::CTR_INDEX_PROGRESSION_LOGS,
            progressions as u64,
        );
        if let Some(group) = Interleave::detect(logs) {
            crate::telemetry::count(crate::telemetry::CTR_INDEX_INTERLEAVE_GROUPS, 1);
            return GlobalIndex {
                repr: Repr::Group(group),
            };
        }
        let runs: Vec<Vec<IndexEntry>> = logs.iter().map(|l| log::expand(l)).collect();
        Self::from_runs(&runs, true)
    }

    /// Add one entry, resolving conflicts by (timestamp, writer) precedence.
    ///
    /// Order-independent: an entry that loses to an already-present span
    /// leaves the span intact (an exact tie goes to the later insert).
    /// O(spans): the reference the equivalence tests build against, kept
    /// independent of the bulk kernel.
    pub fn insert(&mut self, e: &IndexEntry) {
        if e.length == 0 {
            return;
        }
        let mut spans = std::mem::take(self).into_spans();
        let (lo, hi) = (e.logical_offset, e.end());
        // The spans `e` overlaps are one contiguous stretch; rebuild it.
        let first = spans.partition_point(|s| s.end() <= lo);
        let last = first + spans[first..].partition_point(|s| s.logical_offset < hi);
        let mut rebuilt = Vec::with_capacity(last - first + 2);
        // First byte of `e` not yet given to anyone.
        let mut cursor = lo;
        // What sticks out past `hi` of the last span `e` beats.
        let mut tail = None;
        for s in &spans[first..last] {
            if (s.timestamp, s.writer) > (e.timestamp, e.writer) {
                if s.logical_offset > cursor {
                    rebuilt.push(e.cut(cursor, s.logical_offset));
                }
                rebuilt.push(*s);
                cursor = s.end();
            } else {
                if s.logical_offset < lo {
                    rebuilt.push(s.cut(s.logical_offset, lo));
                }
                if s.end() > hi {
                    tail = Some(s.cut(hi, s.end()));
                }
            }
        }
        if cursor < hi {
            rebuilt.push(e.cut(cursor, hi));
        }
        rebuilt.extend(tail);
        spans.splice(first..last, rebuilt);
        *self = Self::of_spans(spans);
    }

    /// Merge many partial indices into one — the Parallel Index Read
    /// group tree collapsed into a single k-way pass over the parts'
    /// sorted spans (an exact tie goes to the later part).
    pub fn merge_all<I: IntoIterator<Item = GlobalIndex>>(parts: I) -> GlobalIndex {
        Self::from_runs(&Self::part_runs(parts), false)
    }

    /// Each part's spans as one ascending run, moved out of the part.
    pub(crate) fn part_runs<I>(parts: I) -> Vec<Vec<IndexEntry>>
    where
        I: IntoIterator<Item = GlobalIndex>,
    {
        parts.into_iter().map(Self::into_spans).collect()
    }

    /// Resolve a logical read into data-log extents and holes, appending
    /// to a caller-owned buffer so hot read loops (the reader, the mpio
    /// driver's per-rank resolution) reuse one allocation.
    ///
    /// The appended mappings exactly tile `[offset, offset + len)` in
    /// order, the end clamped to `u64::MAX`.
    pub fn lookup_into(&self, offset: u64, len: u64, out: &mut Vec<Mapping>) {
        match &self.repr {
            Repr::Spans(spans) => tile_into([&spans[..]], offset, len, out),
            Repr::Group(g) => g.tile_into(offset, len, out),
        }
    }

    /// Logical end-of-file: one past the highest written byte.
    pub fn eof(&self) -> u64 {
        match &self.repr {
            Repr::Spans(spans) => spans.last().map_or(0, IndexEntry::end),
            Repr::Group(g) => g.eof(),
        }
    }

    /// Number of resolved spans (diagnostic; grows with fragmentation).
    /// A group counts the spans it stands for.
    pub fn span_count(&self) -> usize {
        match &self.repr {
            Repr::Spans(spans) => spans.len(),
            Repr::Group(g) => g.span_count(),
        }
    }

    /// Heap bytes of the span vector, or of a group's per-writer lanes,
    /// by capacity (what the mount's index cache budgets by).
    pub(crate) fn heap_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Spans(spans) => (spans.capacity() * std::mem::size_of::<IndexEntry>()) as u64,
            Repr::Group(g) => g.heap_bytes(),
        }
    }

    /// Whether this index is kept as an interleave group.
    #[cfg(test)]
    pub(crate) fn is_group(&self) -> bool {
        matches!(self.repr, Repr::Group(_))
    }

    /// Whether nothing has been written (no spans at all).
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Spans(spans) => spans.is_empty(),
            Repr::Group(_) => false,
        }
    }

    /// Serialize as index records (for the flattened `global.index` file).
    pub fn to_entries(&self) -> Vec<IndexEntry> {
        self.spans().into_owned()
    }

    /// Streaming form of [`GlobalIndex::merge_all`] with compaction:
    /// merge the partial indices and hand the resolved, compacted entries
    /// to `emit` in sorted chunks of at most `chunk_entries`, without ever
    /// building the merged index. The emitted stream is bit-for-bit the
    /// entry sequence [`GlobalIndex::to_entries`] gives for
    /// [`GlobalIndex::from_runs`] of the parts' entries, compacted.
    pub fn merge_streamed<I, F>(parts: I, chunk_entries: usize, emit: F) -> Result<()>
    where
        I: IntoIterator<Item = GlobalIndex>,
        F: FnMut(&[IndexEntry]) -> Result<()>,
    {
        stream_runs(&Self::part_runs(parts), chunk_entries, emit)
    }
}

/// Append the mappings that exactly tile `[offset, offset + len)` (the
/// end clamped to `u64::MAX`) over `runs` — consecutive slices of one
/// sorted, pairwise disjoint sequence of spans: a piece per stretch a
/// span covers, a hole per stretch none does. Each slice is entered by
/// binary search; the walk stops at the first span starting at or past
/// the end. The one walk behind [`GlobalIndex::lookup_into`] (one slice)
/// and [`OnDiskIndex::lookup_into`] (one per fetched window).
pub(crate) fn tile_into<'a, I>(runs: I, offset: u64, len: u64, out: &mut Vec<Mapping>)
where
    I: IntoIterator<Item = &'a [IndexEntry]>,
{
    let end = offset.saturating_add(len);
    let mut cursor = offset;
    'walk: for run in runs {
        let first = run.partition_point(|s| s.end() <= cursor);
        for s in &run[first..] {
            if cursor >= end || s.logical_offset >= end {
                break 'walk;
            }
            if s.logical_offset > cursor {
                out.push(Mapping {
                    logical_offset: cursor,
                    length: s.logical_offset - cursor,
                    source: Source::Hole,
                });
                cursor = s.logical_offset;
            }
            let to = s.end().min(end);
            out.push(Mapping {
                logical_offset: cursor,
                length: to - cursor,
                source: Source::Writer {
                    writer: s.writer,
                    physical_offset: s.physical_offset + (cursor - s.logical_offset),
                },
            });
            cursor = to;
        }
    }
    if cursor < end {
        out.push(Mapping {
            logical_offset: cursor,
            length: end - cursor,
            source: Source::Hole,
        });
    }
}

/// Resolve and compact `runs` (see [`GlobalIndex::from_runs`]) straight
/// into `emit`, in sorted chunks of at most `chunk_entries`: Index
/// Flatten's path from the writers' entry buffers to the spanidx file.
/// Working memory beyond the input is O(runs + deepest overlap cluster +
/// chunk). Once `emit` fails nothing more is emitted.
pub(crate) fn stream_runs<R, F>(runs: &[R], chunk_entries: usize, mut emit: F) -> Result<()>
where
    R: AsRef<[IndexEntry]>,
    F: FnMut(&[IndexEntry]) -> Result<()>,
{
    let _span = crate::telemetry::span(crate::telemetry::SPAN_INDEX_MERGE);
    let chunk = chunk_entries.max(1);
    let mut out: Vec<IndexEntry> = Vec::with_capacity(chunk);
    let mut status = Ok(());
    resolve_runs(runs, true, |e| {
        if status.is_ok() {
            out.push(e);
            if out.len() >= chunk {
                status = emit(&out);
                out.clear();
            }
        }
    });
    if !out.is_empty() && status.is_ok() {
        status = emit(&out);
    }
    status
}

/// A resolved piece waiting in the precedence window, with the input
/// position of the entry it was cut from.
type Ranked = (IndexEntry, u64);

/// The kernel behind every bulk index build: k-way merge any number of
/// entry sequences by logical offset, resolve overwrites, optionally
/// compact, and hand the result — sorted, pairwise disjoint — to `emit`.
///
/// Each sequence is split where its offsets descend, so every run the
/// [`Tournament`] merges is ascending (a writer's log of a forward
/// checkpoint is one run; the concatenation of `k` such logs is `k` runs;
/// a log written backwards is one run per record). Precedence is the
/// total order `(timestamp, writer, position in the concatenated input)`,
/// so the output does not depend on pop order. Entries pop in ascending
/// start order; a piece whose end is at or before the next incoming start
/// can never be disturbed again and finalizes immediately, so the window
/// only ever holds the current overlap cluster. An entry that meets an
/// empty window and ends at or before the next incoming start — every
/// entry of a disjoint checkpoint — skips the window altogether.
fn resolve_runs<R, F>(logs: &[R], compact: bool, mut emit: F)
where
    R: AsRef<[IndexEntry]>,
    F: FnMut(IndexEntry),
{
    let mut merge = Tournament::new(logs);

    // Output stage: compaction across finalization boundaries — contiguous
    // logically and physically within one writer's log, keeping the later
    // timestamp.
    let mut carry: Option<IndexEntry> = None;
    let mut finalize = |fin: IndexEntry| match &mut carry {
        Some(c)
            if compact
                && c.end() == fin.logical_offset
                && c.writer == fin.writer
                && c.physical_offset + c.length == fin.physical_offset =>
        {
            c.length += fin.length;
            c.timestamp = c.timestamp.max(fin.timestamp);
        }
        _ => {
            if let Some(done) = carry.replace(fin) {
                emit(done);
            }
        }
    };

    let mut window: VecDeque<Ranked> = VecDeque::new();
    let mut scratch: Vec<Ranked> = Vec::new();
    while let Some((e, seq)) = merge.pop() {
        if e.length == 0 {
            continue;
        }
        while let Some(&(p, _)) = window.front() {
            if p.end() > e.logical_offset {
                break;
            }
            finalize(p);
            window.pop_front();
        }
        if window.is_empty() && merge.next_start() >= e.end() {
            finalize(e);
        } else {
            overlay(&mut window, &mut scratch, e, seq);
        }
    }
    window.into_iter().for_each(|(p, _)| finalize(p));
    if let Some(done) = carry {
        emit(done);
    }
}

/// The k-way merge of [`resolve_runs`]: a tournament (loser) tree over
/// the runs' next starts. A pop replays one leaf-to-root path, one
/// comparison per level, and none at all while the winning run's next
/// start stays below every key it beat (a segmented checkpoint's runs
/// pop whole). With fewer than two runs there is no tree and a pop is a
/// slice step.
struct Tournament<'a> {
    /// Each run: what is left of it, and the position of its first entry
    /// in the concatenated input.
    runs: Vec<(&'a [IndexEntry], u64)>,
    /// `(next start, run)` keys. `tree[0]` is the winner; `tree[n]`, for
    /// `n` in `1..tree.len()`, lost the match at node `n`, whose children
    /// are `2n` and `2n + 1` — node `tree.len() + r` being run `r`'s
    /// leaf. Leaves past the last run are padding, permanently
    /// [`Tournament::DONE`]. Empty with fewer than two runs.
    tree: Vec<(u64, usize)>,
    /// While the winner keeps winning: the least key on its path, which
    /// its next start must stay below to win again unreplayed (0 when
    /// not known).
    bound: u64,
}

impl<'a> Tournament<'a> {
    /// Key of an exhausted run, or padding. Ties go either way, so a
    /// record starting at `u64::MAX` may never pop — it is empty.
    const DONE: (u64, usize) = (u64::MAX, usize::MAX);

    fn new<R: AsRef<[IndexEntry]>>(logs: &'a [R]) -> Self {
        let mut runs = Vec::with_capacity(logs.len());
        let mut seq = 0u64;
        for log in logs {
            for run in log
                .as_ref()
                .chunk_by(|a, b| a.logical_offset <= b.logical_offset)
            {
                runs.push((run, seq));
                seq += run.len() as u64;
            }
        }
        let mut t = Tournament {
            runs,
            tree: Vec::new(),
            bound: 0,
        };
        if t.runs.len() > 1 {
            let size = t.runs.len().next_power_of_two();
            t.tree = vec![Self::DONE; size];
            // Bottom-up, each node first holds the winner of its subtree;
            // then top-down — a parent before its children overwrite
            // their winners — each takes the loser of its match.
            for n in (1..size).rev() {
                t.tree[n] = t.winner_at(2 * n).min(t.winner_at(2 * n + 1));
            }
            t.tree[0] = t.tree[1];
            for n in 1..size {
                t.tree[n] = t.winner_at(2 * n).max(t.winner_at(2 * n + 1));
            }
        }
        t
    }

    /// While building: the winner of the subtree at `node`.
    fn winner_at(&self, node: usize) -> (u64, usize) {
        match node.checked_sub(self.tree.len()) {
            Some(r) => match self.runs.get(r).and_then(|(rest, _)| rest.first()) {
                Some(e) => (e.logical_offset, r),
                None => Self::DONE,
            },
            None => self.tree[node],
        }
    }

    /// The next entry in start order, with its position in the
    /// concatenated input.
    fn pop(&mut self) -> Option<(IndexEntry, u64)> {
        let r = self.tree.first().map_or(0, |&(_, r)| r);
        let (rest, next_seq) = self.runs.get_mut(r)?;
        let (&e, tail) = rest.split_first()?;
        let popped = (e, *next_seq);
        *rest = tail;
        *next_seq += 1;
        if !self.tree.is_empty() {
            let mut key = tail.first().map_or(Self::DONE, |n| (n.logical_offset, r));
            if key.0 < self.bound {
                self.tree[0] = key;
                return Some(popped);
            }
            // Branch-free: which side wins is data, not a pattern.
            let mut node = (self.tree.len() + r) / 2;
            while node > 0 {
                let held = self.tree[node];
                let swap = held.0 < key.0;
                self.tree[node] = if swap { key } else { held };
                key = if swap { held } else { key };
                node /= 2;
            }
            self.tree[0] = key;
            self.bound = if key.1 == r { self.least_beaten() } else { 0 };
        }
        Some(popped)
    }

    /// The least key on the winner's leaf-to-root path.
    fn least_beaten(&self) -> u64 {
        let mut node = (self.tree.len() + self.tree[0].1) / 2;
        let mut least = u64::MAX;
        while node > 0 {
            least = least.min(self.tree[node].0);
            node /= 2;
        }
        least
    }

    /// Start of the entry the next pop returns (`u64::MAX` when none).
    fn next_start(&self) -> u64 {
        match self.tree.first() {
            Some(&(start, _)) => start,
            None => (self.runs.first())
                .and_then(|(rest, _)| rest.first())
                .map_or(u64::MAX, |e| e.logical_offset),
        }
    }
}

/// Overlay `e` onto the window. Every window piece ends past `e`'s start
/// (the rest were finalized) and the pieces are sorted and disjoint, so
/// the ones `e` touches are a prefix; it is rebuilt with each byte going
/// to the higher `(timestamp, writer, seq)`. Each entry keeps the maximal
/// stretches it wins, exactly like [`GlobalIndex::insert`].
fn overlay(window: &mut VecDeque<Ranked>, scratch: &mut Vec<Ranked>, e: IndexEntry, seq: u64) {
    let end = e.end();
    // First byte of `e` not yet given to anyone.
    let mut cursor = e.logical_offset;
    // What sticks out past `end` of the last piece `e` beat.
    let mut tail = None;
    while let Some(&(p, pseq)) = window.front() {
        if p.logical_offset >= end {
            break;
        }
        window.pop_front();
        if (p.timestamp, p.writer, pseq) > (e.timestamp, e.writer, seq) {
            if p.logical_offset > cursor {
                scratch.push((e.cut(cursor, p.logical_offset), seq));
            }
            scratch.push((p, pseq));
            cursor = p.end();
        } else {
            if p.logical_offset < e.logical_offset {
                scratch.push((p.cut(p.logical_offset, e.logical_offset), pseq));
            }
            if p.end() > end {
                tail = Some((p.cut(end, p.end()), pseq));
            }
        }
    }
    if cursor < end {
        scratch.push((e.cut(cursor, end), seq));
    }
    scratch.extend(tail);
    scratch.drain(..).rev().for_each(|r| window.push_front(r));
}

/// Coalesce adjacent mergeable mappings in `v[base..]` in place: runs of
/// holes, and same-writer pieces whose physical bytes are contiguous.
pub(crate) fn coalesce_mappings_from(v: &mut Vec<Mapping>, base: usize) {
    let mut w = base;
    for r in base..v.len() {
        if w > base {
            let prev = v[w - 1];
            let next = v[r];
            let mergeable = match (prev.source, next.source) {
                (Source::Hole, Source::Hole) => true,
                (
                    Source::Writer {
                        writer: pw,
                        physical_offset: pp,
                    },
                    Source::Writer {
                        writer: nw,
                        physical_offset: np,
                    },
                ) => pw == nw && pp + prev.length == np,
                _ => false,
            };
            if mergeable {
                v[w - 1].length += next.length;
                continue;
            }
        }
        v[w] = v[r];
        w += 1;
    }
    v.truncate(w);
}

/// How a reader resolves logical offsets: a materialized
/// [`GlobalIndex`] (aggregated logs, or a collective's index) or the
/// memory-bounded [`OnDiskIndex`] over a flattened container's spanidx.
/// Both sit behind an `Arc`, so every reader a mount opens on one
/// container state shares one — and a `Disk` one shares its warm
/// windows through the [`SpanCache`] it was opened with.
#[derive(Clone)]
pub enum IndexSource {
    /// The whole index in memory.
    Mem(Arc<GlobalIndex>),
    /// Footer and fences in memory, record windows fetched on demand.
    Disk(Arc<OnDiskIndex>),
}

impl IndexSource {
    /// Logical end-of-file: one past the highest written byte.
    pub fn eof(&self) -> u64 {
        match self {
            IndexSource::Mem(idx) => idx.eof(),
            IndexSource::Disk(odx) => odx.eof(),
        }
    }

    /// The materialized index, when this is one (`None` for `Disk`: by
    /// design no whole index exists).
    pub fn mem(&self) -> Option<&Arc<GlobalIndex>> {
        match self {
            IndexSource::Mem(idx) => Some(idx),
            IndexSource::Disk(_) => None,
        }
    }

    /// Append the mappings tiling `[offset, offset + len)` to `out`,
    /// coalesced so that each run one backend `read_at` can serve is one
    /// mapping: consecutive pieces of one writer whose bytes are
    /// contiguous in its data log, and runs of holes. Mappings already in
    /// `out` are left untouched. `b` fetches a `Disk` source's record
    /// windows; a `Mem` source ignores it and cannot fail.
    pub fn resolve_into<B: crate::backend::Backend>(
        &self,
        b: &B,
        offset: u64,
        len: u64,
        out: &mut Vec<Mapping>,
    ) -> Result<()> {
        let base = out.len();
        match self {
            IndexSource::Mem(idx) => idx.lookup_into(offset, len, out),
            IndexSource::Disk(odx) => odx.lookup_into(b, offset, len, out)?,
        }
        coalesce_mappings_from(out, base);
        Ok(())
    }

    /// Estimated resident bytes (what the mount's index cache budgets
    /// by): the span vector of a `Mem` source, the fences and footer of
    /// a `Disk` one — never its records.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match self {
            IndexSource::Mem(idx) => idx.heap_bytes(),
            IndexSource::Disk(odx) => odx.heap_bytes(),
        }
    }
}

impl From<GlobalIndex> for IndexSource {
    fn from(index: GlobalIndex) -> Self {
        IndexSource::Mem(Arc::new(index))
    }
}

impl From<Arc<GlobalIndex>> for IndexSource {
    fn from(index: Arc<GlobalIndex>) -> Self {
        IndexSource::Mem(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`GlobalIndex::lookup_into`] into a fresh buffer.
    fn lookup(idx: &GlobalIndex, offset: u64, len: u64) -> Vec<Mapping> {
        let mut out = Vec::new();
        idx.lookup_into(offset, len, &mut out);
        out
    }

    /// [`lookup`], coalesced as [`IndexSource::resolve_into`] does.
    fn coalesced(idx: &GlobalIndex, offset: u64, len: u64) -> Vec<Mapping> {
        let mut out = lookup(idx, offset, len);
        coalesce_mappings_from(&mut out, 0);
        out
    }

    fn e(lo: u64, len: u64, phys: u64, w: WriterId, ts: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            writer: w,
            timestamp: ts,
        }
    }

    #[test]
    fn record_serialization_roundtrips() {
        let entry = e(10, 20, 30, 7, 99);
        let bytes = entry.to_bytes();
        assert_eq!(IndexEntry::from_bytes(&bytes).unwrap(), entry);
        let batch = vec![entry, e(1, 2, 3, 4, 5)];
        let enc = IndexEntry::encode_all(&batch);
        assert_eq!(enc.len() as u64, 2 * INDEX_RECORD_BYTES);
        assert_eq!(IndexEntry::decode_all(&enc).unwrap(), batch);
    }

    #[test]
    fn truncated_records_are_corrupt() {
        assert!(matches!(
            IndexEntry::from_bytes(&[0u8; 10]),
            Err(PlfsError::CorruptContainer(_))
        ));
        assert!(matches!(
            IndexEntry::decode_all(&[0u8; 41]),
            Err(PlfsError::CorruptContainer(_))
        ));
    }

    #[test]
    fn disjoint_writes_resolve_directly() {
        let idx = GlobalIndex::from_entries([e(0, 10, 0, 1, 1), e(10, 10, 0, 2, 1)]);
        let m = lookup(&idx, 0, 20);
        assert_eq!(m.len(), 2);
        assert_eq!(
            m[0].source,
            Source::Writer {
                writer: 1,
                physical_offset: 0
            }
        );
        assert_eq!(
            m[1].source,
            Source::Writer {
                writer: 2,
                physical_offset: 0
            }
        );
        assert_eq!(idx.eof(), 20);
    }

    #[test]
    fn later_timestamp_wins_overwrite() {
        let idx = GlobalIndex::from_entries([e(0, 10, 0, 1, 1), e(0, 10, 0, 2, 2)]);
        let m = lookup(&idx, 0, 10);
        assert_eq!(m.len(), 1);
        assert_eq!(
            m[0].source,
            Source::Writer {
                writer: 2,
                physical_offset: 0
            }
        );
    }

    #[test]
    fn partial_overwrite_splits_span() {
        // Writer 1 covers [0,100); writer 2 later overwrites [40,60).
        let idx = GlobalIndex::from_entries([e(0, 100, 0, 1, 1), e(40, 20, 500, 2, 2)]);
        let m = lookup(&idx, 0, 100);
        assert_eq!(m.len(), 3);
        assert_eq!(
            m[0],
            Mapping {
                logical_offset: 0,
                length: 40,
                source: Source::Writer {
                    writer: 1,
                    physical_offset: 0
                }
            }
        );
        assert_eq!(
            m[1],
            Mapping {
                logical_offset: 40,
                length: 20,
                source: Source::Writer {
                    writer: 2,
                    physical_offset: 500
                }
            }
        );
        // The tail of writer 1's span keeps its shifted physical offset.
        assert_eq!(
            m[2],
            Mapping {
                logical_offset: 60,
                length: 40,
                source: Source::Writer {
                    writer: 1,
                    physical_offset: 60
                }
            }
        );
    }

    #[test]
    fn earlier_entry_loses_even_when_inserted_later() {
        // insert() must be order-independent, unlike raw overlay.
        let mut idx = GlobalIndex::new();
        idx.insert(&e(0, 10, 0, 2, 5)); // newer
        idx.insert(&e(0, 20, 100, 1, 1)); // older, wider
        let m = lookup(&idx, 0, 20);
        assert_eq!(m.len(), 2);
        assert_eq!(
            m[0].source,
            Source::Writer {
                writer: 2,
                physical_offset: 0
            }
        );
        // Old entry only contributes its non-shadowed tail, phys shifted.
        assert_eq!(
            m[1].source,
            Source::Writer {
                writer: 1,
                physical_offset: 110
            }
        );
    }

    #[test]
    fn timestamp_tie_broken_by_writer_id() {
        let a = GlobalIndex::from_entries([e(0, 10, 0, 1, 7), e(0, 10, 0, 2, 7)]);
        let b = GlobalIndex::from_entries([e(0, 10, 0, 2, 7), e(0, 10, 0, 1, 7)]);
        assert_eq!(a, b);
        assert_eq!(
            lookup(&a, 0, 10)[0].source,
            Source::Writer {
                writer: 2,
                physical_offset: 0
            }
        );
    }

    #[test]
    fn holes_read_as_holes() {
        let idx = GlobalIndex::from_entries([e(10, 5, 0, 1, 1)]);
        let m = lookup(&idx, 0, 20);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].source, Source::Hole);
        assert_eq!(m[0].length, 10);
        assert_eq!(m[2].source, Source::Hole);
        assert_eq!(m[2].length, 5);
        // Entirely past EOF.
        let past = lookup(&idx, 100, 10);
        assert_eq!(past.len(), 1);
        assert_eq!(past[0].source, Source::Hole);
    }

    #[test]
    fn lookup_tiles_range_exactly() {
        let idx =
            GlobalIndex::from_entries([e(0, 7, 0, 1, 1), e(7, 3, 7, 1, 1), e(15, 5, 10, 2, 2)]);
        let m = lookup(&idx, 2, 16);
        let mut cursor = 2;
        for piece in &m {
            assert_eq!(piece.logical_offset, cursor);
            cursor += piece.length;
        }
        assert_eq!(cursor, 18);
    }

    #[test]
    fn merging_partial_indices_in_any_order_matches_bulk_build() {
        let all = [
            e(0, 50, 0, 1, 1),
            e(25, 50, 0, 2, 2),
            e(10, 10, 500, 3, 3),
            e(60, 10, 900, 1, 4),
        ];
        let bulk = GlobalIndex::from_entries(all);
        // Partial merge in arbitrary group order (as Parallel Index Read does).
        let g1 = GlobalIndex::from_entries([all[2], all[0]]);
        let g2 = GlobalIndex::from_entries([all[3], all[1]]);
        assert_eq!(merged(&[&g2, &g1]), bulk);
        assert_eq!(merged(&[&g1, &g2]), bulk);
        // An exact `(timestamp, writer)` tie goes to the later run.
        let (x, y) = (e(0, 10, 0, 1, 7), e(0, 10, 100, 1, 7));
        assert_eq!(GlobalIndex::from_runs(&[[x], [y]], false).to_entries(), [y]);
        assert_eq!(GlobalIndex::from_runs(&[[y], [x]], false).to_entries(), [x]);
    }

    #[test]
    fn to_entries_roundtrips_through_from_entries() {
        let idx = GlobalIndex::from_entries([
            e(0, 100, 0, 1, 1),
            e(40, 20, 500, 2, 2),
            e(90, 30, 700, 3, 3),
        ]);
        let rebuilt = GlobalIndex::from_entries(idx.to_entries());
        assert_eq!(rebuilt, idx);
    }

    #[test]
    fn strided_n1_pattern_resolves() {
        // 4 writers, strided 1KB blocks, 4 blocks each — the classic N-1
        // checkpoint pattern.
        let mut entries = Vec::new();
        for w in 0..4u64 {
            for b in 0..4u64 {
                entries.push(e(
                    (b * 4 + w) * 1024, // logical: strided
                    1024,
                    b * 1024, // physical: sequential in own log
                    w,
                    1,
                ));
            }
        }
        let idx = GlobalIndex::from_entries(entries);
        assert_eq!(idx.eof(), 16 * 1024);
        assert_eq!(idx.span_count(), 16);
        // Every logical block maps to the right writer and physical offset.
        for blk in 0..16u64 {
            let m = lookup(&idx, blk * 1024, 1024);
            assert_eq!(m.len(), 1);
            assert_eq!(
                m[0].source,
                Source::Writer {
                    writer: blk % 4,
                    physical_offset: (blk / 4) * 1024
                }
            );
        }
    }

    #[test]
    fn compact_merges_contiguous_same_writer_spans() {
        // A writer's segmented region: 4 blocks, contiguous logically and
        // physically — compacts to one span.
        let idx_entries = (0..4u64).map(|k| e(k * 100, 100, k * 100, 1, k + 1));
        let idx = GlobalIndex::from_entries(idx_entries);
        assert_eq!(idx.span_count(), 4);
        let idx = compacted(&idx);
        assert_eq!(idx.span_count(), 1);
        assert_eq!(compacted(&idx), idx, "compaction is idempotent");
        assert_eq!(idx.eof(), 400);
        // Lookups unchanged.
        let m = lookup(&idx, 150, 100);
        assert_eq!(m.len(), 1);
        assert_eq!(
            m[0].source,
            Source::Writer {
                writer: 1,
                physical_offset: 150
            }
        );
    }

    #[test]
    fn compact_preserves_resolution_of_mixed_patterns() {
        // Strided two-writer pattern: alternating spans never merge
        // (different writers), but overwritten-then-contiguous runs do.
        let entries = vec![
            e(0, 10, 0, 1, 1),
            e(10, 10, 0, 2, 1),
            e(20, 10, 10, 1, 1),
            // Writer 2 later overwrites [0,20): contiguous in its log.
            e(0, 10, 10, 2, 5),
            e(10, 10, 20, 2, 5),
        ];
        let idx = GlobalIndex::from_entries(entries.clone());
        // Byte-level resolution must be identical before and after
        // compaction (mapping boundaries may differ).
        let resolve = |idx: &GlobalIndex| -> Vec<(u64, Source)> {
            let mut out = Vec::new();
            for m in lookup(idx, 0, 30) {
                for i in 0..m.length {
                    out.push((
                        m.logical_offset + i,
                        match m.source {
                            Source::Hole => Source::Hole,
                            Source::Writer {
                                writer,
                                physical_offset,
                            } => Source::Writer {
                                writer,
                                physical_offset: physical_offset + i,
                            },
                        },
                    ));
                }
            }
            out
        };
        let before = resolve(&idx);
        let idx = compacted(&idx);
        assert_eq!(resolve(&idx), before);
        // Writer 2's two overwrite spans merged into one.
        assert_eq!(idx.span_count(), 2);
    }

    #[test]
    fn compact_does_not_merge_across_holes_or_phys_gaps() {
        let idx = GlobalIndex::from_entries([
            e(0, 10, 0, 1, 1),
            e(20, 10, 10, 1, 1), // logical hole before it
            e(30, 10, 50, 1, 1), // physical gap in the log
        ]);
        assert_eq!(compacted(&idx).span_count(), 3);
    }

    #[test]
    fn zero_length_entries_ignored() {
        let mut idx = GlobalIndex::new();
        idx.insert(&e(5, 0, 0, 1, 1));
        assert!(idx.is_empty());
        assert_eq!(idx.eof(), 0);
        // The bulk build must filter them too.
        let bulk = GlobalIndex::from_entries([e(5, 0, 0, 1, 1), e(0, 4, 0, 2, 1)]);
        assert_eq!(bulk.span_count(), 1);
    }

    /// The parts' entries merged by the bulk kernel, uncompacted, in
    /// order: an exact tie goes to the later part.
    fn merged(parts: &[&GlobalIndex]) -> GlobalIndex {
        let runs: Vec<Vec<IndexEntry>> = parts.iter().map(|p| p.to_entries()).collect();
        GlobalIndex::from_runs(&runs, false)
    }

    /// `idx` compacted by the bulk kernel.
    fn compacted(idx: &GlobalIndex) -> GlobalIndex {
        GlobalIndex::from_runs(&[idx.to_entries()], true)
    }

    /// Reference merge: per-span precedence-resolving insert.
    fn merge_by_insert(dst: &mut GlobalIndex, src: &GlobalIndex) {
        for entry in src.to_entries() {
            dst.insert(&entry);
        }
    }

    #[test]
    fn zipper_merge_of_disjoint_indices_matches_insert_path() {
        // Interleaved strided halves: even blocks in one index, odd in the
        // other — fully disjoint, so no entry ever enters the window.
        let evens =
            GlobalIndex::from_entries((0..64u64).map(|b| e(2 * b * 100, 100, b * 100, 1, 1)));
        let odds =
            GlobalIndex::from_entries((0..64u64).map(|b| e((2 * b + 1) * 100, 100, b * 100, 2, 1)));
        let fast = merged(&[&evens, &odds]);
        let mut slow = evens.clone();
        merge_by_insert(&mut slow, &odds);
        assert_eq!(fast, slow);
        assert_eq!(fast.span_count(), 128);
        assert_eq!(fast.eof(), 128 * 100);
    }

    #[test]
    fn overlapping_merge_falls_back_to_precedence_resolution() {
        let base = GlobalIndex::from_entries([e(0, 100, 0, 1, 1)]);
        let over = GlobalIndex::from_entries([e(40, 20, 500, 2, 2), e(200, 10, 0, 2, 2)]);
        let fast = merged(&[&base, &over]);
        let mut slow = base.clone();
        merge_by_insert(&mut slow, &over);
        assert_eq!(fast, slow);
        // The overwrite split base's span: [0,40) [40,60) [60,100) [200,210).
        assert_eq!(fast.span_count(), 4);
    }

    #[test]
    fn merge_all_matches_bulk_build() {
        // 8 writers × 8 strided blocks, one partial index per writer —
        // the Parallel Index Read group tree collapsed in-process.
        let mut all = Vec::new();
        let mut parts = Vec::new();
        for w in 0..8u64 {
            let entries: Vec<IndexEntry> = (0..8u64)
                .map(|b| e((b * 8 + w) * 512, 512, b * 512, w, 1))
                .collect();
            all.extend(entries.iter().copied());
            parts.push(GlobalIndex::from_entries(entries));
        }
        let merged = GlobalIndex::merge_all(parts);
        assert_eq!(merged, GlobalIndex::from_entries(all));
        assert_eq!(
            GlobalIndex::merge_all(std::iter::empty()),
            GlobalIndex::new()
        );
    }

    #[test]
    fn merge_all_resolves_overlaps_like_serial_insert() {
        let parts = vec![
            GlobalIndex::from_entries([e(0, 100, 0, 1, 1)]),
            GlobalIndex::from_entries([e(40, 20, 0, 2, 2)]),
            GlobalIndex::from_entries([e(50, 100, 0, 3, 3)]),
            GlobalIndex::from_entries([e(10, 10, 0, 4, 4)]),
        ];
        let mut serial = GlobalIndex::new();
        for p in &parts {
            merge_by_insert(&mut serial, p);
        }
        assert_eq!(GlobalIndex::merge_all(parts), serial);
    }

    #[test]
    fn coalescing_merges_contiguous_runs_and_holes() {
        // Writer 1's blocks land back-to-back in its log; writer 2 breaks
        // the run; then a hole split across two unwritten gaps.
        let idx = GlobalIndex::from_entries([
            e(0, 10, 0, 1, 1),
            e(10, 10, 10, 1, 1),
            e(20, 10, 20, 1, 1),
            e(30, 10, 0, 2, 1),
            e(60, 10, 30, 1, 1),
        ]);
        let m = coalesced(&idx, 0, 80);
        assert_eq!(
            m,
            vec![
                Mapping {
                    logical_offset: 0,
                    length: 30,
                    source: Source::Writer {
                        writer: 1,
                        physical_offset: 0
                    }
                },
                Mapping {
                    logical_offset: 30,
                    length: 10,
                    source: Source::Writer {
                        writer: 2,
                        physical_offset: 0
                    }
                },
                Mapping {
                    logical_offset: 40,
                    length: 20,
                    source: Source::Hole
                },
                Mapping {
                    logical_offset: 60,
                    length: 10,
                    source: Source::Writer {
                        writer: 1,
                        physical_offset: 30
                    }
                },
                Mapping {
                    logical_offset: 70,
                    length: 10,
                    source: Source::Hole
                },
            ]
        );
    }

    #[test]
    fn lookup_into_appends_and_reuses_buffer() {
        let idx = GlobalIndex::from_entries([e(0, 10, 0, 1, 1), e(20, 10, 10, 1, 1)]);
        let source = IndexSource::from(idx.clone());
        let b = crate::memfs::MemFs::new();
        let mut buf = Vec::new();
        idx.lookup_into(0, 10, &mut buf);
        assert_eq!(buf.len(), 1);
        // Appends after existing content; coalescing never reaches back
        // past the appended region.
        source.resolve_into(&b, 0, 30, &mut buf).unwrap();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf[0], buf[1]); // the old mapping survived untouched
        assert_eq!(lookup(&idx, 0, 10), buf[..1].to_vec());
        buf.clear();
        source.resolve_into(&b, 0, 30, &mut buf).unwrap();
        assert_eq!(buf, coalesced(&idx, 0, 30));
    }

    #[test]
    fn lookup_end_clamps_instead_of_wrapping() {
        let idx = GlobalIndex::from_entries([e(0, 10, 0, 1, 1)]);
        let m = lookup(&idx, u64::MAX - 1, 4);
        assert_eq!(m.len(), 1);
        assert_eq!((m[0].logical_offset, m[0].length), (u64::MAX - 1, 1));
        assert_eq!(m[0].source, Source::Hole);
        assert!(lookup(&idx, u64::MAX, 4).is_empty());
    }

    /// Reference for streaming-merge tests: materialize the whole merge,
    /// compact, serialize.
    fn merged_compacted(parts: Vec<GlobalIndex>) -> Vec<IndexEntry> {
        compacted(&GlobalIndex::merge_all(parts)).to_entries()
    }

    fn streamed(parts: Vec<GlobalIndex>, chunk: usize) -> Vec<IndexEntry> {
        let mut got = Vec::new();
        GlobalIndex::merge_streamed(parts, chunk, |run| {
            got.extend_from_slice(run);
            Ok(())
        })
        .unwrap();
        got
    }

    #[test]
    fn merge_streamed_equals_merge_all_compact() {
        // Strided disjoint checkpoint: compacts across finalization
        // boundaries (each writer's blocks are physically sequential).
        let mut parts = Vec::new();
        for w in 0..8u64 {
            parts.push(GlobalIndex::from_entries(
                (0..16u64).map(|b| e((b * 8 + w) * 64, 64, b * 64, w, 1)),
            ));
        }
        for chunk in [1, 3, 64, 10_000] {
            assert_eq!(
                streamed(parts.clone(), chunk),
                merged_compacted(parts.clone()),
                "chunk {chunk}"
            );
        }
        // Overlapping parts: precedence resolution inside the window.
        let overlapping = vec![
            GlobalIndex::from_entries([e(0, 100, 0, 1, 1)]),
            GlobalIndex::from_entries([e(40, 20, 0, 2, 9), e(300, 10, 20, 2, 9)]),
            GlobalIndex::from_entries([e(50, 100, 0, 3, 3), e(10, 10, 100, 3, 3)]),
        ];
        for chunk in [1, 2, 7] {
            assert_eq!(
                streamed(overlapping.clone(), chunk),
                merged_compacted(overlapping.clone()),
                "chunk {chunk}"
            );
        }
        // Degenerate inputs.
        assert!(streamed(Vec::new(), 4).is_empty());
        assert!(streamed(vec![GlobalIndex::new()], 4).is_empty());
    }

    #[test]
    fn merge_streamed_emits_sorted_disjoint_runs() {
        let parts: Vec<GlobalIndex> = (0..4u64)
            .map(|w| {
                GlobalIndex::from_entries((0..32u64).map(|b| e((b * 4 + w) * 10, 10, b * 7, w, w)))
            })
            .collect();
        let mut chunks = 0usize;
        let mut last_end = 0u64;
        GlobalIndex::merge_streamed(parts, 8, |run| {
            chunks += 1;
            assert!(run.len() <= 8 + 1, "chunk overshoot: {}", run.len());
            for r in run {
                assert!(r.logical_offset >= last_end, "unsorted or overlapping");
                last_end = r.logical_offset + r.length;
            }
            Ok(())
        })
        .unwrap();
        assert!(chunks > 1, "expected incremental emission");
    }

    /// Reference build: overlay one entry at a time in precedence order,
    /// ties in input order.
    fn built_by_insert(entries: &[IndexEntry]) -> GlobalIndex {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|e| (e.timestamp, e.writer));
        let mut idx = GlobalIndex::new();
        for e in &sorted {
            idx.insert(e);
        }
        idx
    }

    #[test]
    fn window_fast_path_boundary() {
        for (ts_a, ts_b) in [(1, 2), (2, 1)] {
            // Next start == this end: disjoint, the window is never used.
            let touching = [e(0, 10, 0, 1, ts_a), e(10, 10, 0, 2, ts_b)];
            let idx = GlobalIndex::from_runs(&[&touching[..1], &touching[1..]], false);
            assert_eq!(idx, built_by_insert(&touching));
            assert_eq!(idx.to_entries(), touching);
            // Next start == this end - 1: one shared byte, so the first
            // entry must wait in the window and one of the two is cut.
            let overlapping = [e(0, 10, 0, 1, ts_a), e(9, 10, 0, 2, ts_b)];
            let idx = GlobalIndex::from_runs(&[&overlapping[..1], &overlapping[1..]], false);
            assert_eq!(idx, built_by_insert(&overlapping));
            let want = if ts_a < ts_b {
                vec![e(0, 9, 0, 1, ts_a), e(9, 10, 0, 2, ts_b)]
            } else {
                vec![e(0, 10, 0, 1, ts_a), e(10, 9, 1, 2, ts_b)]
            };
            assert_eq!(idx.to_entries(), want);
        }
    }

    #[test]
    fn exact_tie_goes_to_the_later_record_in_the_log() {
        // Same writer, same timestamp, overlapping: the record written
        // later wins the shared bytes, whichever starts lower — offset
        // order alone would hand [5,10) to the wrong one here.
        let log = [e(5, 10, 0, 1, 7), e(0, 10, 10, 1, 7)];
        let idx = GlobalIndex::from_entries(log);
        assert_eq!(idx, built_by_insert(&log));
        assert_eq!(
            idx.to_entries(),
            vec![e(0, 10, 10, 1, 7), e(10, 5, 5, 1, 7)]
        );
        let log = [e(0, 10, 0, 1, 7), e(5, 10, 10, 1, 7)];
        let idx = GlobalIndex::from_entries(log);
        assert_eq!(idx, built_by_insert(&log));
        assert_eq!(idx.to_entries(), vec![e(0, 5, 0, 1, 7), e(5, 10, 10, 1, 7)]);
        // Across runs the position in the concatenation decides.
        let (a, b) = ([e(0, 10, 0, 1, 7)], [e(0, 10, 10, 1, 7)]);
        assert_eq!(GlobalIndex::from_runs(&[a, b], false).to_entries(), b);
        assert_eq!(GlobalIndex::from_runs(&[b, a], false).to_entries(), a);
    }

    #[test]
    fn from_runs_compacts_inline_like_a_compacting_pass() {
        // Two writers' segmented regions, plus an overwrite that splits
        // one of them: inline compaction must equal build-then-compact.
        let runs = vec![
            (0..8u64)
                .map(|k| e(k * 10, 10, k * 10, 1, 1))
                .collect::<Vec<_>>(),
            vec![e(35, 10, 0, 2, 9)],
            Vec::new(),
            (0..8u64)
                .rev()
                .map(|k| e(100 + k * 10, 10, k * 10, 3, 1))
                .collect(),
        ];
        let want = built_by_insert(&runs.concat());
        assert_eq!(GlobalIndex::from_runs(&runs, false), want);
        let want = compacted(&want);
        assert_eq!(GlobalIndex::from_runs(&runs, true), want);
        assert_eq!(want.span_count(), 4);
    }

    #[test]
    fn a_compacted_contiguous_checkpoint_releases_its_reservation() {
        // 8 writers, each one contiguous segment of 1,024 blocks: 8,192
        // records reserved, 8 spans left after compaction.
        let runs: Vec<Vec<IndexEntry>> = (0..8u64)
            .map(|w| (0..1024u64).map(|k| e((w * 1024 + k) * 10, 10, k * 10, w, 1)).collect())
            .collect();
        let idx = GlobalIndex::from_runs(&runs, true);
        assert_eq!(idx.span_count(), 8);
        assert!(idx.heap_bytes() <= 8 * INDEX_RECORD_BYTES + 64, "{}", idx.heap_bytes());
    }

    /// `compact`'s rule applied by hand over an uncompacted index.
    fn compacted_by_hand(idx: &GlobalIndex) -> Vec<IndexEntry> {
        let mut out: Vec<IndexEntry> = Vec::new();
        for s in idx.to_entries() {
            match out.last_mut() {
                Some(c)
                    if c.end() == s.logical_offset
                        && c.writer == s.writer
                        && c.physical_offset + c.length == s.physical_offset =>
                {
                    c.length += s.length;
                    c.timestamp = c.timestamp.max(s.timestamp);
                }
                _ => out.push(s),
            }
        }
        out
    }

    /// `k` ascending runs, each of 1–4 records (zero lengths among them),
    /// with empty logs between; few writers and timestamps, so runs
    /// overlap and exact ties are common.
    fn arb_ascending_runs() -> impl proptest::Strategy<Value = Vec<Vec<IndexEntry>>> {
        use proptest::prelude::*;
        let k = prop::sample::select(vec![1usize, 2, 3, 63, 64, 65, 129]);
        let run = (prop::collection::vec((0u64..300, 0u64..60, 1u64..4), 1..5), 0u8..2);
        (k, prop::collection::vec(run, 129..130)).prop_map(|(k, runs)| {
            let mut logs = Vec::new();
            for (i, (records, empty_before)) in runs.into_iter().take(k).enumerate() {
                if empty_before == 1 {
                    logs.push(Vec::new());
                }
                let (mut at, mut phys) = (0, 0);
                let run = records.into_iter().map(|(gap, len, ts)| {
                    at += gap;
                    phys += len;
                    e(at, len, phys - len, i as u64 % 5, ts)
                });
                logs.push(run.collect());
            }
            logs
        })
    }

    proptest::proptest! {
        #[test]
        fn loser_tree_kernel_equals_insert_reference(logs in arb_ascending_runs()) {
            let want = built_by_insert(&logs.concat());
            proptest::prop_assert_eq!(&GlobalIndex::from_runs(&logs, false), &want);
            let compacted = GlobalIndex::from_runs(&logs, true);
            proptest::prop_assert_eq!(compacted.to_entries(), compacted_by_hand(&want));
        }
    }

    #[test]
    fn coalescing_does_not_merge_discontiguous_phys() {
        // Same writer, adjacent logical blocks, but a gap in the data log
        // (an overwritten region was cut out): two separate reads.
        let idx = GlobalIndex::from_entries([e(0, 10, 0, 1, 1), e(10, 10, 50, 1, 1)]);
        assert_eq!(coalesced(&idx, 0, 20).len(), 2);
        // And coalesced lookups tile exactly like plain lookups.
        let total: u64 = coalesced(&idx, 0, 20).iter().map(|m| m.length).sum();
        assert_eq!(total, 20);
    }
}
