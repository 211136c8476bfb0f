//! Property test for the one-pass read-open: reading the per-writer index
//! logs as runs and resolving them through the k-way kernel must equal the
//! serial reference at every aggregation thread count, compacted and not.
//!
//! The logs are written straight to the backend so the generators reach
//! shapes a well-behaved writer rarely produces: overlapping writers,
//! same-`(timestamp, writer)` rewrites in both issue orders, a log in
//! descending offsets (one kernel run per record), zero-length records
//! and an empty log.

#![allow(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap is the test's failure report; setup and checks call one backend op at a time"
)]

use plfs::{Backend, Container, Content, Federation, GlobalIndex, IndexEntry, MemFs};
use proptest::prelude::*;

/// One record before physical offsets are assigned: (offset, length,
/// timestamp). Few distinct timestamps, so exact ties are common.
fn arb_record() -> impl Strategy<Value = (u64, u64, u64)> {
    (0u64..1500, 0u64..200, 1u64..4)
}

/// How a writer's generated records become its log.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// As generated: arbitrary order, overlaps within and across writers.
    AsIssued,
    /// Sorted by descending offset.
    Descending,
    /// Ascending, then each overlapping same-timestamp neighbour pair is
    /// present in the order the flag picks.
    TiedPairs { swap: bool },
    /// No records at all.
    Empty,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (0u8..7, 0u8..2).prop_map(|(kind, swap)| match kind {
        0..=2 => Shape::AsIssued,
        3 => Shape::Descending,
        4 | 5 => Shape::TiedPairs { swap: swap == 1 },
        _ => Shape::Empty,
    })
}

fn build_log(writer: u64, shape: Shape, mut records: Vec<(u64, u64, u64)>) -> Vec<IndexEntry> {
    match shape {
        Shape::AsIssued => {}
        Shape::Descending => records.sort_by_key(|r| std::cmp::Reverse(r.0)),
        Shape::TiedPairs { swap } => {
            records.sort_by_key(|r| r.0);
            for pair in records.chunks_mut(2) {
                if let [a, b] = pair {
                    // Same tick, and `b` starts inside `a`.
                    b.2 = a.2;
                    a.1 = a.1.max(b.0 - a.0 + 1);
                    if swap {
                        pair.swap(0, 1);
                    }
                }
            }
        }
        Shape::Empty => records.clear(),
    }
    let mut phys = 0;
    records
        .into_iter()
        .map(|(logical_offset, length, timestamp)| {
            let e = IndexEntry {
                logical_offset,
                length,
                physical_offset: phys,
                writer,
                timestamp,
            };
            phys += length;
            e
        })
        .collect()
}

/// Overlay one entry at a time in precedence order, exact ties in input
/// order: the definition the kernel has to reproduce, built from
/// `GlobalIndex::insert` alone.
fn built_by_insert(concatenated: &[IndexEntry]) -> GlobalIndex {
    let mut sorted = concatenated.to_vec();
    sorted.sort_by_key(|e| (e.timestamp, e.writer));
    let mut idx = GlobalIndex::new();
    for e in &sorted {
        idx.insert(e);
    }
    idx
}

/// `GlobalIndex::from_runs`' compaction rule applied by hand: neighbours contiguous
/// logically and physically in one writer's log merge, later timestamp kept.
fn compacted_by_hand(idx: &GlobalIndex) -> Vec<IndexEntry> {
    let mut out: Vec<IndexEntry> = Vec::new();
    for e in idx.to_entries() {
        match out.last_mut() {
            Some(c)
                if c.logical_offset + c.length == e.logical_offset
                    && c.writer == e.writer
                    && c.physical_offset + c.length == e.physical_offset =>
            {
                c.length += e.length;
                c.timestamp = c.timestamp.max(e.timestamp);
            }
            _ => out.push(e),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_aggregation_equals_serial_reference(
        logs in prop::collection::vec(
            (arb_shape(), prop::collection::vec(arb_record(), 0..24)),
            1..10,
        ),
    ) {
        let b = MemFs::new();
        let cont = Container::new("/f", &Federation::single("/panfs", 3));
        cont.create(&b).unwrap();
        let mut concatenated = Vec::new();
        for (w, (shape, records)) in logs.into_iter().enumerate() {
            let w = w as u64;
            let log = build_log(w, shape, records);
            cont.ensure_subdir(&b, cont.subdir_for(w)).unwrap();
            let path = cont.index_log(&b, w).unwrap();
            b.create(&path, true).unwrap();
            b.append(&path, &Content::bytes(IndexEntry::encode_all(&log))).unwrap();
            concatenated.extend(log);
        }

        let reference = GlobalIndex::from_entries(concatenated.iter().copied());
        prop_assert_eq!(&reference, &built_by_insert(&concatenated));
        let compacted = GlobalIndex::from_runs(&[reference.to_entries()], true);
        prop_assert_eq!(compacted.to_entries(), compacted_by_hand(&reference));

        let resolved = cont.subdirs_phys_batch(&b).unwrap();
        let writers = cont.list_writers(&b).unwrap();
        prop_assert_eq!(&cont.read_index_logs(&b, &resolved, &writers).unwrap(), &concatenated);
        for threads in [1usize, 2, 3, 8] {
            let runs = cont.read_index_runs(&b, &resolved, &writers, threads).unwrap();
            prop_assert_eq!(&runs.concat(), &concatenated, "threads = {}", threads);
            prop_assert_eq!(&GlobalIndex::from_runs(&runs, false), &reference, "threads = {}", threads);
            prop_assert_eq!(&GlobalIndex::from_runs(&runs, true), &compacted, "threads = {}", threads);
        }
        // The read-open path: machine-dependent thread count, compacted.
        let probe = cont.probe_index(&b).unwrap().unwrap();
        let loaded = probe.load(&b, &std::sync::Arc::default()).unwrap();
        prop_assert_eq!(loaded.mem().map(|idx| &**idx), Some(&compacted));
    }
}
