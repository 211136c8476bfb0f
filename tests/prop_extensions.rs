//! Property-based tests for the extension machinery: index compaction,
//! the sorted-run merge paths, the reader's list reads, threaded
//! aggregation, fsck repair, and the gap-filling calendar resource.

#![allow(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap is the test's failure report; setup and checks call one backend op at a time"
)]

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

/// Two partial indices' spans merged as two runs by the bulk kernel, in
/// order: an exact tie goes to `b`.
fn merged(a: &GlobalIndex, b: &GlobalIndex) -> GlobalIndex {
    GlobalIndex::from_runs(&[a.to_entries(), b.to_entries()], false)
}

/// `idx` compacted by the bulk kernel.
fn compacted(idx: &GlobalIndex) -> GlobalIndex {
    GlobalIndex::from_runs(&[idx.to_entries()], true)
}

/// Reference merge: per-span precedence-resolving insertion, which
/// shares no code with the bulk kernel.
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
        let compacted = compacted(&idx);
        prop_assert!(compacted.span_count() <= idx.span_count());
        prop_assert_eq!(compacted.eof(), idx.eof());
        prop_assert_eq!(resolve(&compacted), resolve(&idx));
    }

    #[test]
    fn compaction_is_idempotent(entries in arb_entries()) {
        let once = compacted(&GlobalIndex::from_entries(entries));
        prop_assert_eq!(compacted(&once), once);
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
        let ab = merged(&a, &b);
        prop_assert_eq!(&ab, &merge_via_insert(a.clone(), &b));
        let ba = merged(&b, &a);
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
        let ab = merged(&a, &b);
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
    fn list_read_equals_a_read_per_mapping(
        writers in 1u64..5,
        blocks in 1u64..6,
        block in 1u64..64,
        overwrites in prop::collection::vec((0u64..5, 0u64..1200, 1u64..200), 0..12),
        reads in prop::collection::vec((0u64..1400, 0u64..1600), 1..8),
    ) {
        use plfs::index::Source;
        use plfs::reader::ReadHandle;
        use plfs::writer::{IndexPolicy, WriteHandle};
        use plfs::{Backend, Container, Content, Federation, MemFs};
        use std::sync::Arc;

        // A strided N-1 checkpoint (each writer's blocks back to back in
        // its log, so a read coalesces), then later writes from any
        // writer over it, into holes and past its end.
        let b = Arc::new(MemFs::new());
        let cont = Container::new("/f", &Federation::single("/panfs", 2));
        let mut handles: HashMap<u64, WriteHandle<Arc<MemFs>>> = HashMap::new();
        let mut write = |w: u64, off: u64, len: u64, ts: u64| {
            let h = handles.entry(w).or_insert_with(|| {
                WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose)
                    .unwrap()
            });
            h.write(off, &Content::synthetic(w * 1000 + ts, len), ts).unwrap();
        };
        for k in 0..blocks {
            for w in 0..writers {
                write(w, (k * writers + w) * block, block, 1 + k);
            }
        }
        for (i, &(w, off, len)) in overwrites.iter().enumerate() {
            write(w, off, len, 100 + i as u64);
        }
        for (_, h) in handles {
            h.close(999).unwrap();
        }
        let resolved = cont.subdirs_phys_batch(&b).unwrap();
        let ids = cont.list_writers(&b).unwrap();
        let index = GlobalIndex::from_runs(
            &cont.read_index_runs(&b, &resolved, &ids, 1).unwrap(), false);
        let eof = index.eof();
        let source = IndexSource::from(index);
        let mut r = ReadHandle::open(Arc::clone(&b), cont.clone(), source.clone());
        for (off, len) in reads {
            // The reference: every mapping read on its own.
            let mut mappings = Vec::new();
            let clamped = len.min(eof.saturating_sub(off));
            source.resolve_into(&*b, off, clamped, &mut mappings).unwrap();
            let mut want = Vec::new();
            for m in &mappings {
                match m.source {
                    Source::Hole => want.resize(want.len() + m.length as usize, 0),
                    Source::Writer { writer, physical_offset } => {
                        let log = cont.data_log(&*b, writer).unwrap();
                        let got = b.read_at(&log, physical_offset, m.length).unwrap();
                        prop_assert_eq!(got.len(), m.length);
                        want.extend_from_slice(&got.as_bytes());
                    }
                }
            }
            let got = r.read(off, len).unwrap();
            prop_assert_eq!(&got, &want, "read({}, {})", off, len);
            let pieces = r.read_pieces(off, len).unwrap();
            prop_assert_eq!(pieces.len(), mappings.len());
            let joined: Vec<u8> = pieces.iter().flat_map(Content::materialize).collect();
            prop_assert_eq!(&joined, &want, "read_pieces({}, {})", off, len);
        }
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
        let compacted = compacted(&serial);
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
