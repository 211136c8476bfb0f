//! Property-based tests for the extension machinery: index compaction,
//! the sorted-run merge paths, threaded aggregation, fsck repair, and
//! the gap-filling calendar resource.

use plfs::{GlobalIndex, IndexEntry, IndexSource};
use proptest::prelude::*;
use simcore::{Calendar, Fifo, SimDuration, SimTime};
use std::collections::HashMap;

fn arb_entries() -> impl Strategy<Value = Vec<IndexEntry>> {
    prop::collection::vec((0u64..5, 0u64..1500, 1u64..200, 1u64..40), 1..30).prop_map(|ws| {
        let mut phys: HashMap<u64, u64> = HashMap::new();
        ws.into_iter()
            .map(|(w, off, len, ts)| {
                let p = *phys.get(&w).unwrap_or(&0);
                phys.insert(w, p + len);
                IndexEntry {
                    logical_offset: off,
                    length: len,
                    physical_offset: p,
                    writer: w,
                    timestamp: ts,
                }
            })
            .collect()
    })
}

/// Disjoint entries: consecutive logical extents (with gaps) handed out
/// to random writers — the shape that takes the zipper merge path.
fn arb_disjoint_entries() -> impl Strategy<Value = Vec<IndexEntry>> {
    prop::collection::vec((0u64..6, 1u64..300, 0u64..50, 1u64..40), 1..40).prop_map(|ws| {
        let mut phys: HashMap<u64, u64> = HashMap::new();
        let mut cursor = 0u64;
        ws.into_iter()
            .map(|(w, len, gap, ts)| {
                let p = *phys.get(&w).unwrap_or(&0);
                phys.insert(w, p + len);
                let off = cursor + gap;
                cursor = off + len;
                IndexEntry {
                    logical_offset: off,
                    length: len,
                    physical_offset: p,
                    writer: w,
                    timestamp: ts,
                }
            })
            .collect()
    })
}

/// Reference merge: per-span precedence-resolving insertion — exactly
/// what `GlobalIndex::merge` did before the zipper fast path.
fn merge_via_insert(mut acc: GlobalIndex, other: &GlobalIndex) -> GlobalIndex {
    for e in other.to_entries() {
        acc.insert(&e);
    }
    acc
}

/// Byte-level resolution of an index over `[0, eof)`.
fn resolve(idx: &GlobalIndex) -> Vec<(u64, Option<(u64, u64)>)> {
    let eof = idx.eof();
    let mut out = Vec::with_capacity(eof as usize);
    let mut mappings = Vec::new();
    idx.lookup_into(0, eof, &mut mappings);
    for m in mappings {
        for i in 0..m.length {
            let v = match m.source {
                plfs::index::Source::Hole => None,
                plfs::index::Source::Writer {
                    writer,
                    physical_offset,
                } => Some((writer, physical_offset + i)),
            };
            out.push((m.logical_offset + i, v));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compaction_never_changes_resolution(entries in arb_entries()) {
        let idx = GlobalIndex::from_entries(entries);
        let mut compacted = idx.clone();
        compacted.compact();
        prop_assert!(compacted.span_count() <= idx.span_count());
        prop_assert_eq!(compacted.eof(), idx.eof());
        prop_assert_eq!(resolve(&compacted), resolve(&idx));
    }

    #[test]
    fn compaction_is_idempotent(entries in arb_entries()) {
        let mut once = GlobalIndex::from_entries(entries);
        once.compact();
        let mut twice = once.clone();
        twice.compact();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn zipper_merge_equals_insert_merge_on_overlapping_workloads(
        entries in arb_entries(),
        split in 2u64..5,
    ) {
        // Partition by writer into two (generally overlapping) partials;
        // the merged result must match the per-span insert reference in
        // both directions, structurally.
        let a = GlobalIndex::from_entries(
            entries.iter().copied().filter(|e| e.writer % split == 0));
        let b = GlobalIndex::from_entries(
            entries.iter().copied().filter(|e| e.writer % split != 0));
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &merge_via_insert(a.clone(), &b));
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ba, &merge_via_insert(b, &a));
        prop_assert_eq!(resolve(&ab), resolve(&ba));
    }

    #[test]
    fn zipper_merge_equals_insert_merge_on_disjoint_workloads(
        entries in arb_disjoint_entries(),
        split in 2u64..5,
    ) {
        // Disjoint partials take the linear zipper; it must agree with
        // the insert reference and with the bulk build of everything.
        let a = GlobalIndex::from_entries(
            entries.iter().copied().filter(|e| e.writer % split == 0));
        let b = GlobalIndex::from_entries(
            entries.iter().copied().filter(|e| e.writer % split != 0));
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &merge_via_insert(a, &b));
        prop_assert_eq!(&ab, &GlobalIndex::from_entries(entries));
    }

    #[test]
    fn coalesced_resolution_resolves_identically(entries in arb_entries()) {
        // The coalesced mappings a reader resolves through must tile the
        // same byte→(writer, phys) resolution as the uncoalesced walk.
        let idx = GlobalIndex::from_entries(entries);
        let eof = idx.eof();
        let flat = resolve(&idx);
        let mut mappings = Vec::new();
        IndexSource::from(idx)
            .resolve_into(&plfs::MemFs::new(), 0, eof, &mut mappings)
            .unwrap();
        let mut coalesced = Vec::with_capacity(eof as usize);
        for m in mappings {
            for i in 0..m.length {
                let v = match m.source {
                    plfs::index::Source::Hole => None,
                    plfs::index::Source::Writer { writer, physical_offset } =>
                        Some((writer, physical_offset + i)),
                };
                coalesced.push((m.logical_offset + i, v));
            }
        }
        prop_assert_eq!(coalesced, flat);
    }

    #[test]
    fn threaded_aggregation_equals_serial(
        writes in prop::collection::vec((0u64..4, 0u64..1200, 1u64..200, 1u64..30), 1..40),
        threads in 2usize..6,
    ) {
        use plfs::writer::{IndexPolicy, WriteHandle};
        use plfs::{Container, Content, Federation, MemFs};
        use std::sync::Arc;

        let b = Arc::new(MemFs::new());
        let cont = Container::new("/f", &Federation::single("/panfs", 2));
        let mut handles: HashMap<u64, WriteHandle<Arc<MemFs>>> = HashMap::new();
        for &(w, off, len, ts) in &writes {
            let h = match handles.entry(w) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => v.insert(
                    WriteHandle::open(
                        Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose).unwrap()),
            };
            h.write(off, &Content::synthetic(w, len), ts).unwrap();
        }
        for (_, h) in handles {
            h.close(99).unwrap();
        }
        let resolved = cont.subdirs_phys_batch(&b).unwrap();
        let writers = cont.list_writers(&b).unwrap();
        let aggregate = |threads| {
            let runs = cont.read_index_runs(&b, &resolved, &writers, threads).unwrap();
            GlobalIndex::from_runs(&runs, false)
        };
        let serial = aggregate(1);
        prop_assert_eq!(&aggregate(threads), &serial);
        // A read-open loads the threaded aggregation, compacted.
        let mut compacted = serial;
        compacted.compact();
        let probe = cont.probe_index(&b).unwrap().unwrap();
        let loaded = probe.load(&b, &Arc::default()).unwrap();
        prop_assert_eq!(loaded.mem().map(|idx| &**idx), Some(&compacted));
    }

    #[test]
    fn calendar_and_fifo_agree_for_sorted_arrivals(
        mut jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..60),
        servers in 1usize..4,
    ) {
        jobs.sort_by_key(|&(a, _)| a);
        let mut cal = Calendar::new("c", servers);
        let mut fifo = Fifo::new("f", servers);
        for &(a, s) in &jobs {
            let g1 = cal.acquire(SimTime(a), SimDuration(s));
            let g2 = fifo.acquire(SimTime(a), SimDuration(s));
            prop_assert_eq!(g1, g2);
        }
        prop_assert_eq!(cal.drained_at(), fifo.drained_at());
        prop_assert_eq!(cal.busy_time(), fifo.busy_time());
    }

    #[test]
    fn calendar_never_overlaps_work_on_one_server(
        jobs in prop::collection::vec((0u64..5_000, 1u64..300), 1..50),
    ) {
        // Arbitrary (unsorted) arrivals on a single server: every grant
        // must start at/after its arrival and the busy intervals must
        // tile without overlap (total busy == sum of services).
        let mut cal = Calendar::new("c", 1);
        let mut grants = Vec::new();
        for &(a, s) in &jobs {
            let g = cal.acquire(SimTime(a), SimDuration(s));
            prop_assert!(g.start >= SimTime(a));
            prop_assert_eq!(g.finish.as_nanos() - g.start.as_nanos(), s);
            grants.push((g.start.as_nanos(), g.finish.as_nanos()));
        }
        grants.sort_unstable();
        for w in grants.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
    }
}

#[test]
fn fsck_repair_is_idempotent_and_converges() {
    use plfs::writer::{IndexPolicy, WriteHandle};
    use plfs::{Backend, Container, Content, Federation, MemFs};
    use std::sync::Arc;

    let b = Arc::new(MemFs::new());
    let cont = Container::new("/f", &Federation::single("/panfs", 3));
    for w in 0..4u64 {
        let mut h =
            WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose).unwrap();
        for k in 0..6u64 {
            h.write((k * 4 + w) * 128, &Content::synthetic(w, 128), k + 1)
                .unwrap();
        }
        h.close(9).unwrap();
    }
    // Corrupt two index logs with different partial-record lengths.
    for (w, junk) in [(1u64, 5usize), (3, 39)] {
        let ipath = cont.index_log(&b, w).unwrap();
        b.append(&ipath, &Content::bytes(vec![0xEE; junk])).unwrap();
    }
    let before = plfs::fsck::check(&b, &cont).unwrap();
    assert_eq!(before.issues.len(), 2);
    let after = plfs::fsck::repair(&b, &cont).unwrap();
    assert!(after.fully_repaired(), "{after:?}");
    assert_eq!(after.fixed.len(), 2);
    // Repairing a clean container changes nothing.
    let again = plfs::fsck::repair(&b, &cont).unwrap();
    assert!(again.fully_repaired());
    assert!(again.fixed.is_empty());
    assert_eq!(again.post.logical_size, after.post.logical_size);
    assert_eq!(again.post.spans, after.post.spans);
}
