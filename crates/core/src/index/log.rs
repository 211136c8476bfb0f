//! Reading an index log back as progressions (DESIGN.md §5b).
//!
//! A log is a run of 40-byte plain records, one per write. A run of them
//! is a **progression** when, from one record to the next, all four of
//!
//! * logical offset (`stride`, never negative),
//! * length (equal),
//! * physical offset (contiguous: each starts where the last ended),
//! * timestamp (`ts_step`, wrapping)
//!
//! step by a constant, all of one writer: the log of a writer in an N-1
//! strided checkpoint is one progression from its first write to its
//! last. [`decode`] reads a log as [`LogRecord`]s, each maximal
//! progression one record, so an aggregation can see that shape without
//! materializing a span per write; expanding the records reproduces the
//! log's entries element for element. The format on disk is unchanged.

use super::IndexEntry;
use crate::error::Result;

/// A progression of one writer's log: `count` writes of `first.length`
/// bytes, element `k` at logical `first.logical_offset + k·stride`,
/// physical `first.physical_offset + k·length`, timestamp
/// `first.timestamp + k·ts_step` (wrapping). A lone record is the
/// one-element case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogRecord {
    /// The first element.
    pub(crate) first: IndexEntry,
    /// Logical step from one element to the next.
    pub(crate) stride: u64,
    /// Timestamp step from one element to the next, wrapping.
    pub(crate) ts_step: u64,
    /// Elements, at least one.
    pub(crate) count: u64,
}

impl LogRecord {
    /// `e` alone.
    fn plain(e: IndexEntry) -> LogRecord {
        LogRecord {
            first: e,
            stride: 0,
            ts_step: 0,
            count: 1,
        }
    }

    /// Element `k`: one of the log's entries, so its arithmetic never
    /// overflows.
    fn element(&self, k: u64) -> IndexEntry {
        let e = &self.first;
        IndexEntry {
            logical_offset: e.logical_offset + k * self.stride,
            physical_offset: e.physical_offset + k * e.length,
            timestamp: e.timestamp.wrapping_add(k.wrapping_mul(self.ts_step)),
            ..*e
        }
    }

    /// The element after `last` in this progression, if its extents
    /// still end within `u64`.
    fn after(&self, last: &IndexEntry) -> Option<IndexEntry> {
        let next = IndexEntry {
            logical_offset: last.logical_offset.checked_add(self.stride)?,
            physical_offset: last.physical_offset.checked_add(last.length)?,
            timestamp: last.timestamp.wrapping_add(self.ts_step),
            ..*last
        };
        next.extents_fit().then_some(next)
    }
}

/// The step `(stride, ts_step)` from `a` to `b`, when `b` can follow `a`
/// in one progression: same writer and length, physically contiguous,
/// and not logically below it.
fn progression_step(a: &IndexEntry, b: &IndexEntry) -> Option<(u64, u64)> {
    let contiguous = a.physical_offset.checked_add(a.length) == Some(b.physical_offset);
    if a.writer != b.writer || a.length != b.length || !contiguous {
        return None;
    }
    let stride = b.logical_offset.checked_sub(a.logical_offset)?;
    Some((stride, b.timestamp.wrapping_sub(a.timestamp)))
}

/// Decode the index log `log`'s bytes, each maximal progression of its
/// records one [`LogRecord`], in log order. A log that is not a whole
/// number of records, or a record whose extents overflow `u64`, is
/// `CorruptContainer` naming it, as [`IndexEntry::decode_all`] and
/// [`super::check_extents`] refuse them. Once two records set a
/// progression's steps, each further one is only compared with the
/// element it must be.
pub(crate) fn decode(log: &str, bytes: &[u8]) -> Result<Vec<LogRecord>> {
    let slots = super::whole_records(bytes)?;
    let entry = |i: usize| {
        let e = IndexEntry::from_record(&slots[i]);
        if e.extents_fit() {
            Ok(e)
        } else {
            Err(super::overflow(log, i, &e))
        }
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        let mut rec = LogRecord::plain(entry(i)?);
        if i + 1 < slots.len() {
            let second = entry(i + 1)?;
            if let Some((stride, ts_step)) = progression_step(&rec.first, &second) {
                (rec.stride, rec.ts_step, rec.count) = (stride, ts_step, 2);
                let mut last = second;
                while let Some(slot) = slots.get(i + rec.count as usize) {
                    match rec.after(&last) {
                        Some(next) if IndexEntry::from_record(slot) == next => last = next,
                        _ => break,
                    }
                    rec.count += 1;
                }
            }
        }
        i += rec.count as usize;
        out.push(rec);
    }
    Ok(out)
}

/// Every element of `records`, in log order: the entries of the log they
/// were decoded from.
pub(crate) fn expand(records: &[LogRecord]) -> Vec<IndexEntry> {
    let total: u64 = records.iter().map(|r| r.count).sum();
    let mut out = Vec::with_capacity(total as usize);
    for r in records {
        out.extend((0..r.count).map(|k| r.element(k)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlfsError;

    fn e(lo: u64, len: u64, phys: u64, w: u64, ts: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            writer: w,
            timestamp: ts,
        }
    }

    /// Writer 3's `n` strided 10-byte blocks, every 40 bytes, clock
    /// stepping by 4.
    fn strided(n: u64) -> Vec<IndexEntry> {
        (0..n)
            .map(|k| e(k * 40 + 10, 10, k * 10, 3, 4 * k + 1))
            .collect()
    }

    #[test]
    fn a_strided_log_is_one_record() {
        let log = strided(1024);
        let recs = decode("l", &IndexEntry::encode_all(&log)).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            (recs[0].count, recs[0].stride, recs[0].ts_step),
            (1024, 40, 4)
        );
        assert_eq!(expand(&recs), log);
    }

    #[test]
    fn a_torn_or_overflowing_log_is_refused() {
        let bytes = IndexEntry::encode_all(&strided(3));
        for cut in [1, 39, 41, 119] {
            assert!(matches!(
                decode("l", &bytes[..cut]),
                Err(PlfsError::CorruptContainer(_))
            ));
        }
        let mut log = strided(2);
        log.push(e(u64::MAX - 5, 10, 20, 3, 9));
        let Err(PlfsError::CorruptContainer(msg)) = decode("l", &IndexEntry::encode_all(&log))
        else {
            panic!("an overflowing record must be refused");
        };
        assert!(msg.contains("index record 2 of l"), "{msg}");
    }

    /// Runs of one to four writes that each keep all four progressions,
    /// every run after the first opening with a break in one of them (a
    /// physical gap, a logical step back, a timestamp jump, a new length)
    /// or in the writer, or with none — then it continues the last run
    /// when its steps match. Strides, lengths (zero among them) and
    /// timestamp steps (one of them backwards) come from a few values,
    /// so long progressions and runs of exactly 1, 2 and 3 both occur;
    /// half the logs start 4,000 bytes below `u64::MAX`,
    /// which no log here advances past.
    fn arb_log() -> impl proptest::Strategy<Value = Vec<IndexEntry>> {
        use proptest::prelude::*;
        let run = (1u64..5, 0usize..2, 0usize..3, 0usize..3, 0u8..6);
        (0u8..2, prop::collection::vec(run, 0..12)).prop_map(|(high, runs)| {
            let start = if high == 1 { u64::MAX - 4000 } else { 0 };
            let (mut lo, mut phys, mut ts, mut w) = (start, start, 7u64, 1u64);
            let mut out = Vec::new();
            for (count, stride, len, ts_step, brk) in runs {
                let (stride, len, ts_step) =
                    ([16, 48][stride], [0, 8, 16][len], [0, 1, u64::MAX][ts_step]);
                match brk {
                    0 => phys = phys.saturating_add(3),
                    1 => lo = lo.saturating_sub(5),
                    2 => ts = ts.wrapping_add(100),
                    3 => w += 1,
                    _ => {}
                }
                for _ in 0..count {
                    out.push(e(lo, len, phys, w, ts));
                    lo = lo.saturating_add(stride);
                    phys = phys.saturating_add(len);
                    ts = ts.wrapping_add(ts_step);
                }
            }
            out
        })
    }

    proptest::proptest! {
        #[test]
        fn expand_of_decode_is_identity(log in arb_log()) {
            let recs = decode("l", &IndexEntry::encode_all(&log)).unwrap();
            proptest::prop_assert!(recs.len() <= log.len());
            // Maximal: no record could have taken its successor's first
            // element.
            for pair in recs.windows(2) {
                let last = pair[0].element(pair[0].count - 1);
                let step = progression_step(&last, &pair[1].first);
                proptest::prop_assert!(
                    step.is_none() || (pair[0].count > 1 && step != Some((pair[0].stride, pair[0].ts_step)))
                );
            }
            proptest::prop_assert_eq!(expand(&recs), log);
        }
    }
}
