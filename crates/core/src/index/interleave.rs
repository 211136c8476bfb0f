//! The interleave group: an index kept as the `W` per-writer
//! progressions of an N-1 strided checkpoint instead of the `W × count`
//! spans they expand to (DESIGN.md §5b).
//!
//! `W ≥ 2` writers, each of whose logs is one progression of `count`
//! elements of `length` bytes with stride `W × length`, first elements at
//! `base, base + length, …, base + (W − 1)·length`, tile
//! `[base, base + count·W·length)` exactly, with no overlap for a
//! timestamp to resolve and no neighbours of one writer for compaction
//! to fuse. Lookups tile by arithmetic, and the group's memory is O(W).

use super::log::LogRecord;
use super::{IndexEntry, Mapping, Source, WriterId};

/// `W` lanes tiling `[base, base + count · stride)`, `stride = W ·
/// length`: lane `i`'s element `k` covers `length` bytes at logical
/// `base + k·stride + i·length`.
#[derive(Debug, Clone)]
pub(crate) struct Interleave {
    base: u64,
    length: u64,
    count: u64,
    lanes: Vec<Lane>,
}

/// One writer's progression: its element `k` sits at `physical_offset +
/// k·length` in the writer's data log, stamped `timestamp + k·ts_step`.
#[derive(Debug, Clone)]
struct Lane {
    writer: WriterId,
    physical_offset: u64,
    timestamp: u64,
    ts_step: u64,
}

impl Interleave {
    /// The group the decoded `logs` form, or `None` unless every log that
    /// is not empty is one record, at least two of them, tiling as the
    /// module docs say, each of another writer.
    pub(crate) fn detect(logs: &[Vec<LogRecord>]) -> Option<Interleave> {
        let mut recs = Vec::with_capacity(logs.len());
        for log in logs {
            match log.as_slice() {
                [] => {}
                [r] => recs.push(*r),
                _ => return None,
            }
        }
        let head = *recs.first()?;
        let (length, count, stride) = (head.first.length, head.count, head.stride);
        let w = recs.len() as u64;
        if w < 2 || length == 0 || w.checked_mul(length) != Some(stride) {
            return None;
        }
        if recs
            .iter()
            .any(|r| (r.first.length, r.count, r.stride) != (length, count, stride))
        {
            return None;
        }
        recs.sort_unstable_by_key(|r| r.first.logical_offset);
        let base = recs[0].first.logical_offset;
        // Lane `i` starts `i · length` past the base: the lanes' starts
        // are one period, so with equal strides the elements tile.
        let tiles = (0..w)
            .zip(&recs)
            .all(|(i, r)| r.first.logical_offset - base == i * length);
        let mut writers: Vec<WriterId> = recs.iter().map(|r| r.first.writer).collect();
        writers.sort_unstable();
        writers.dedup();
        if !tiles || writers.len() != recs.len() {
            return None;
        }
        let lanes = recs
            .iter()
            .map(|r| Lane {
                writer: r.first.writer,
                physical_offset: r.first.physical_offset,
                timestamp: r.first.timestamp,
                ts_step: r.ts_step,
            })
            .collect();
        Some(Interleave {
            base,
            length,
            count,
            lanes,
        })
    }

    /// Bytes per period: one element of every lane.
    fn stride(&self) -> u64 {
        self.lanes.len() as u64 * self.length
    }

    /// One past the last byte of the last lane's last element.
    pub(crate) fn eof(&self) -> u64 {
        self.base + self.count * self.stride()
    }

    /// Spans the group stands for.
    pub(crate) fn span_count(&self) -> usize {
        usize::try_from(self.count.saturating_mul(self.lanes.len() as u64)).unwrap_or(usize::MAX)
    }

    /// Heap bytes of the lanes, by capacity.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.lanes.capacity() * std::mem::size_of::<Lane>()) as u64
    }

    /// Lane `i`'s element `k`, as a span.
    fn element(&self, k: u64, i: usize) -> IndexEntry {
        let lane = &self.lanes[i];
        IndexEntry {
            logical_offset: self.base + k * self.stride() + i as u64 * self.length,
            length: self.length,
            physical_offset: lane.physical_offset + k * self.length,
            writer: lane.writer,
            timestamp: lane.timestamp.wrapping_add(k.wrapping_mul(lane.ts_step)),
        }
    }

    /// Every span, in logical order: what the group stands for.
    pub(crate) fn expand(&self) -> Vec<IndexEntry> {
        let mut out = Vec::with_capacity(self.span_count());
        for k in 0..self.count {
            out.extend((0..self.lanes.len()).map(|i| self.element(k, i)));
        }
        out
    }

    /// Append the mappings that exactly tile `[offset, offset + len)`
    /// (the end clamped to `u64::MAX`): what [`super::tile_into`] appends
    /// over [`Interleave::expand`], computed from the offset instead of
    /// searched for.
    pub(crate) fn tile_into(&self, offset: u64, len: u64, out: &mut Vec<Mapping>) {
        let end = offset.saturating_add(len);
        let hole = |from: u64, to: u64, out: &mut Vec<Mapping>| {
            out.push(Mapping {
                logical_offset: from,
                length: to - from,
                source: Source::Hole,
            })
        };
        let mut cursor = offset;
        if cursor < end && cursor < self.base {
            let to = end.min(self.base);
            hole(cursor, to, out);
            cursor = to;
        }
        let stop = end.min(self.eof());
        if cursor < stop {
            let rel = cursor - self.base;
            let (k, within) = (rel / self.stride(), rel % self.stride());
            let (mut k, mut i, mut skip) =
                (k, (within / self.length) as usize, within % self.length);
            while cursor < stop {
                let lane = &self.lanes[i];
                let to = (cursor - skip + self.length).min(stop);
                out.push(Mapping {
                    logical_offset: cursor,
                    length: to - cursor,
                    source: Source::Writer {
                        writer: lane.writer,
                        physical_offset: lane.physical_offset + k * self.length + skip,
                    },
                });
                cursor = to;
                skip = 0;
                i += 1;
                if i == self.lanes.len() {
                    (i, k) = (0, k + 1);
                }
            }
        }
        if cursor < end {
            hole(cursor, end, out);
        }
    }
}
