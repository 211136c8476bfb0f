//! Property-based tests for the memory-bounded read path (DESIGN.md §5j):
//!
//! * [`plfs::OnDiskIndex`] lookups over a written spanidx file resolve
//!   exactly like [`plfs::GlobalIndex`] lookups over the same entries,
//!   for arbitrary overlapping multi-writer patterns — including entry
//!   sets large enough to span several fence windows;
//! * the streamed zipper merge emits the flattened file bit-for-bit
//!   identical to merging everything in memory, compacting, and writing
//!   the result whole;
//! * the end-to-end bounded read path (`ReadHandle::open_bounded` over a
//!   flattened container) is byte-identical to reading through the index
//!   the logs resolve to, before and after a truncate rewrites the
//!   container.
//!
//! A crash mid-flatten is `tests/crash_states.rs`'s `flatten` row: every
//! crash state of a flatten close, bounded and plain reads compared in
//! each.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap or expect is the test's failure report; setup and checks call one backend op at a time"
)]

use plfs::index::ondisk::SpanIdxWriter;
use plfs::reader::ReadHandle;
use plfs::writer::{self, IndexPolicy, WriteHandle};
use plfs::{
    Container, Content, Federation, GlobalIndex, IndexEntry, IndexSource, MemFs, OnDiskIndex,
    SpanCache,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The index `c`'s logs resolve to, compacted — never its flattened one.
fn logs(b: &Arc<MemFs>, c: &Container) -> GlobalIndex {
    let resolved = c.subdirs_phys_batch(b).unwrap();
    let writers = c.list_writers(b).unwrap();
    GlobalIndex::from_runs(&c.read_index_runs(b, &resolved, &writers, 1).unwrap(), true)
}

/// An arbitrary write: (writer, logical offset, length, timestamp).
fn arb_write() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (0u64..6, 0u64..2000, 1u64..300, 1u64..50)
}

/// Turn a write pattern into raw index entries, physical offsets
/// accumulating per writer in issue order (append-only logs).
fn entries_from(writes: &[(u64, u64, u64, u64)]) -> Vec<IndexEntry> {
    let mut phys_cursor: HashMap<u64, u64> = HashMap::new();
    writes
        .iter()
        .map(|&(w, off, len, ts)| {
            let phys = *phys_cursor.get(&w).unwrap_or(&0);
            phys_cursor.insert(w, phys + len);
            IndexEntry {
                logical_offset: off,
                length: len,
                physical_offset: phys,
                writer: w,
                timestamp: ts,
            }
        })
        .collect()
}

/// Replicate a write pattern `tiles` times at disjoint logical regions,
/// so small generated patterns can grow past the fence stride (1024
/// records) and exercise multi-window fence search.
fn tile(writes: &[(u64, u64, u64, u64)], tiles: usize) -> Vec<(u64, u64, u64, u64)> {
    (0..tiles as u64)
        .flat_map(|t| {
            writes
                .iter()
                .map(move |&(w, off, len, ts)| (w, off + t * 2400, len, ts))
        })
        .collect()
}

/// Write `entries` (already resolved and sorted) as a spanidx file on a
/// fresh `MemFs`, split into `runs` separate `push_run` calls.
fn write_spanidx(entries: &[IndexEntry], runs: usize) -> Arc<MemFs> {
    let b = Arc::new(MemFs::new());
    let mut w = SpanIdxWriter::create(b.as_ref(), "/flat", 97).unwrap();
    let chunk = entries.len().div_ceil(runs.max(1)).max(1);
    for run in entries.chunks(chunk) {
        w.push_run(run).unwrap();
    }
    w.finish().unwrap();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The on-disk index and the in-memory index are the same function:
    /// every probe (and the full range) resolves to the same mappings,
    /// both plain and as a reader coalesces them, under a cache small
    /// enough to evict.
    #[test]
    fn ondisk_lookup_matches_global_index(
        writes in prop::collection::vec(arb_write(), 1..30),
        tiles in prop::sample::select(vec![1usize, 2, 48]),
        runs in 1usize..4,
        probes in prop::collection::vec((0u64..4000u64, 0u64..500u64), 1..10),
    ) {
        let idx = GlobalIndex::from_entries(entries_from(&tile(&writes, tiles)));
        let flat = idx.to_entries();
        let b = write_spanidx(&flat, runs);
        // A tiny budget forces eviction and re-fetch between probes; the
        // answers must not depend on what happens to be cached.
        let cache = Arc::new(SpanCache::with_budget(2048));
        let od = OnDiskIndex::open(b.as_ref(), "/flat", cache)
            .unwrap()
            .expect("a just-written spanidx must open");

        let eof = idx.eof();
        prop_assert_eq!(od.eof(), eof, "eof mismatch");
        let (od, idx) = (Arc::new(od), Arc::new(idx));
        let sources = [IndexSource::Disk(Arc::clone(&od)), IndexSource::Mem(Arc::clone(&idx))];
        let probes = probes.iter().map(|&(off, len)| (off % (eof + 500), len));
        for (off, len) in [(0, eof + 64), (7, 0)].into_iter().chain(probes) {
            let (mut on_disk, mut in_mem) = (Vec::new(), Vec::new());
            od.lookup_into(b.as_ref(), off, len, &mut on_disk).unwrap();
            idx.lookup_into(off, len, &mut in_mem);
            prop_assert_eq!(on_disk, in_mem, "lookup({}, {}) diverged", off, len);
            let mut resolved = [Vec::new(), Vec::new()];
            for (source, out) in sources.iter().zip(&mut resolved) {
                source.resolve_into(b.as_ref(), off, len, out).unwrap();
            }
            prop_assert_eq!(&resolved[0], &resolved[1], "resolve({}, {}) diverged", off, len);
        }
    }

    /// The streamed zipper merge writes the flattened file bit-for-bit
    /// identical to merging in memory, compacting, and writing whole —
    /// for any partition of the entries and any chunk size.
    #[test]
    fn streamed_merge_matches_merge_all_bit_for_bit(
        writes in prop::collection::vec(arb_write(), 1..40),
        split in 1usize..5,
        chunk in 1usize..64,
    ) {
        let entries = entries_from(&writes);
        let parts = |_| -> Vec<GlobalIndex> {
            (0..split)
                .map(|g| {
                    GlobalIndex::from_entries(
                        entries.iter().copied().filter(|e| (e.writer as usize) % split == g),
                    )
                })
                .collect()
        };

        // Entry-level equivalence at the chosen chunk size.
        let mut streamed: Vec<IndexEntry> = Vec::new();
        GlobalIndex::merge_streamed(parts(()), chunk, |run| {
            streamed.extend_from_slice(run);
            Ok(())
        })
        .unwrap();
        let merged = GlobalIndex::merge_all(parts(()));
        let merged = GlobalIndex::from_runs(&[merged.to_entries()], true);
        prop_assert_eq!(&streamed, &merged.to_entries(), "streamed entries diverged");

        // File-level equivalence through the container write paths.
        let fed = Federation::single("/panfs", 2);
        let cont = Container::new("/m", &fed);
        let (ba, bb) = (MemFs::new(), MemFs::new());
        cont.create(&ba).unwrap();
        cont.create(&bb).unwrap();
        let runs: Vec<_> = parts(()).iter().map(GlobalIndex::to_entries).collect();
        cont.write_flattened_runs(&ba, &runs).unwrap();
        cont.write_flattened_runs(&bb, &[merged.to_entries()]).unwrap();
        let path = cont.flattened_path();
        let bytes_a = {
            use plfs::Backend as _;
            ba.read_at(&path, 0, ba.size(&path).unwrap()).unwrap().materialize()
        };
        let bytes_b = {
            use plfs::Backend as _;
            bb.read_at(&path, 0, bb.size(&path).unwrap()).unwrap().materialize()
        };
        prop_assert_eq!(bytes_a, bytes_b, "flattened files are not bit-identical");
    }

    /// End to end: a flattened container reads byte-identically through
    /// the bounded (on-disk index + span cache) path and the plain
    /// aggregating path — including after a truncate rewrites the logs
    /// and the index is re-flattened.
    #[test]
    fn bounded_read_matches_plain_read(
        writes in prop::collection::vec(arb_write(), 1..25),
        trunc_sel in 0u64..1000,
    ) {
        // Distinct timestamps keep (ts, writer) precedence unambiguous.
        let writes: Vec<(u64, u64, u64, u64)> = writes
            .into_iter()
            .enumerate()
            .map(|(i, (w, o, l, _))| (w, o, l, i as u64 + 1))
            .collect();

        let backend = Arc::new(MemFs::new());
        let fed = Federation::single("/panfs", 3);
        let cont = Container::new("/prop", &fed);
        let mut handles: HashMap<u64, WriteHandle<Arc<MemFs>>> = HashMap::new();
        for &(w, off, len, ts) in &writes {
            let h = match handles.entry(w) {
                std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => v.insert(
                    WriteHandle::open(
                        Arc::clone(&backend),
                        cont.clone(),
                        w,
                        IndexPolicy::Flatten { threshold_entries: 4096 },
                    )
                    .unwrap(),
                ),
            };
            let phys = h.bytes_written();
            h.write(off, &Content::synthetic(w, phys + len).slice(phys, len), ts)
                .unwrap();
        }
        let flattened = writer::flatten_close(
            &backend,
            &cont,
            handles.into_values().collect(),
            1_000_000,
        )
        .unwrap();
        prop_assert!(flattened, "all writers can_flatten, so flatten must land");

        let assert_paths_agree = |label: &str| {
            let logs = logs(&backend, &cont);
            let mut plain = ReadHandle::open(Arc::clone(&backend), cont.clone(), logs);
            let cache = Arc::new(SpanCache::with_budget(4096));
            let mut bounded =
                ReadHandle::open_bounded(Arc::clone(&backend), cont.clone(), cache).unwrap();
            prop_assert!(
                bounded.index().is_none(),
                "{}: bounded open must take the on-disk repr when a \
                 flattened index is present", label
            );
            let eof = plain.size();
            prop_assert_eq!(bounded.size(), eof, "{}: eof diverged", label);
            prop_assert_eq!(
                bounded.read(0, eof).unwrap(),
                plain.read(0, eof).unwrap(),
                "{}: full read diverged", label
            );
            // A couple of sub-range reads through the (now warm) cache.
            for (off, len) in [(eof / 3, eof / 2 + 1), (eof / 2, 4096)] {
                prop_assert_eq!(
                    bounded.read(off, len).unwrap(),
                    plain.read(off, len).unwrap(),
                    "{}: read({}, {}) diverged", label, off, len
                );
            }
        };
        assert_paths_agree("pre-truncate");

        // Truncate rewrites the index logs and drops the flattened index;
        // re-flatten from the aggregated logs and compare again.
        let eof = logs(&backend, &cont).eof();
        let new_size = trunc_sel % (eof + 2);
        plfs::truncate::truncate(&backend, &cont, new_size).unwrap();
        let idx = logs(&backend, &cont);
        // The clipped indices may resolve to less than `new_size` when the
        // cut lands in a hole or beyond the old EOF (truncate.rs docs).
        prop_assert!(idx.eof() <= new_size, "truncate must clip eof");
        cont.write_flattened_runs(&backend, &[idx.to_entries()]).unwrap();
        assert_paths_agree("post-truncate");
    }
}
