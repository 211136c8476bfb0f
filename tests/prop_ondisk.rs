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
//!   flattened container) is byte-identical to the plain aggregating
//!   path, before and after a truncate rewrites the container;
//! * a seeded crash mid-flatten leaves a container fsck can repair, after
//!   which bounded and plain reads agree and no byte is invented.
//!
//! Seeds mix in `PLFS_FAULT_SEED` when set, exactly as the tier-1 crash
//! suite does, so a failure replays byte-identically in CI.

mod common;

use plfs::faults::{FaultBackend, FaultConfig};
use plfs::index::ondisk::SpanIdxWriter;
use plfs::reader::ReadHandle;
use plfs::writer::{self, IndexPolicy, WriteHandle};
use plfs::{
    fsck, Container, Content, Federation, GlobalIndex, IndexEntry, MemFs, OnDiskIndex, SpanCache,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// both plain and coalesced, under a cache small enough to evict.
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
        let mut od = OnDiskIndex::open(b.as_ref(), "/flat", cache)
            .unwrap()
            .expect("a just-written spanidx must open");

        let eof = idx.eof();
        prop_assert_eq!(od.eof(), eof, "eof mismatch");
        prop_assert_eq!(
            od.lookup(b.as_ref(), 0, eof + 64).unwrap(),
            idx.lookup(0, eof + 64),
            "full-range lookup diverged"
        );
        for &(off, len) in &probes {
            let off = off % (eof + 500);
            prop_assert_eq!(
                od.lookup(b.as_ref(), off, len).unwrap(),
                idx.lookup(off, len),
                "lookup({}, {}) diverged", off, len
            );
            prop_assert_eq!(
                od.lookup_coalesced(b.as_ref(), off, len).unwrap(),
                idx.lookup_coalesced(off, len),
                "lookup_coalesced({}, {}) diverged", off, len
            );
        }
        prop_assert_eq!(od.lookup(b.as_ref(), 7, 0).unwrap(), Vec::new());
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
        let mut merged = GlobalIndex::merge_all(parts(()));
        merged.compact();
        prop_assert_eq!(&streamed, &merged.to_entries(), "streamed entries diverged");

        // File-level equivalence through the container write paths.
        let fed = Federation::single("/panfs", 2);
        let cont = Container::new("/m", &fed);
        let (ba, bb) = (MemFs::new(), MemFs::new());
        cont.create(&ba).unwrap();
        cont.create(&bb).unwrap();
        cont.write_flattened_streamed(&ba, parts(())).unwrap();
        cont.write_flattened(&bb, &merged).unwrap();
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
            let mut plain = ReadHandle::open(Arc::clone(&backend), cont.clone()).unwrap();
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
        let eof = ReadHandle::open(Arc::clone(&backend), cont.clone()).unwrap().size();
        let new_size = trunc_sel % (eof + 2);
        plfs::truncate::truncate(&backend, &cont, new_size).unwrap();
        let idx = cont.acquire_index(&backend).unwrap();
        // The clipped indices may resolve to less than `new_size` when the
        // cut lands in a hole or beyond the old EOF (truncate.rs docs).
        prop_assert!(idx.eof() <= new_size, "truncate must clip eof");
        cont.write_flattened(&backend, &idx).unwrap();
        assert_paths_agree("post-truncate");
    }
}

/// Base seed for the crash sweep, pinnable via `PLFS_FAULT_SEED` so
/// tier-1 runs one known schedule on every build.
fn base_seed() -> u64 {
    common::fault_seed(0xC1_0C20_12)
}

/// Crash the backend at every point inside the close/flatten sequence in
/// turn. Whatever survives — torn spanidx tail, missing footer, stale
/// file — fsck must detect and repair, after which the bounded and plain
/// read paths agree byte-for-byte and never invent data.
#[test]
fn crash_mid_flatten_leaves_repairable_index() {
    const SLOT: u64 = 128;
    let writers = 3u64;
    let slots_per_writer = 6u64;
    let data_ops = writers * slots_per_writer;

    let mut torn_spanidx_seen = false;
    // Data writes occupy ops 1..=data_ops; everything after is the close
    // (index log appends) and the flatten (spanidx appends). Sweep far
    // enough to cross the whole flatten tail.
    for crash_at in data_ops + 1..data_ops + 16 {
        let cfg = FaultConfig {
            seed: base_seed() ^ crash_at,
            transient_prob: 0.0,
            torn_append_prob: 0.0,
            crash_after_data_ops: Some(crash_at),
            crash_tears_append: true,
        };
        let b = Arc::new(FaultBackend::new(MemFs::new(), cfg));
        let cont = Container::new("/ckpt", &Federation::single("/panfs", 4));
        let mut handles = Vec::new();
        for w in 0..writers {
            handles.push(
                WriteHandle::open(
                    Arc::clone(&b),
                    cont.clone(),
                    w,
                    IndexPolicy::Flatten { threshold_entries: 4096 },
                )
                .unwrap(),
            );
        }
        for s in 0..slots_per_writer {
            for (w, h) in handles.iter_mut().enumerate() {
                let slot = s * writers + w as u64;
                let phys = h.bytes_written();
                h.write(
                    slot * SLOT,
                    &Content::synthetic(w as u64, phys + SLOT).slice(phys, SLOT),
                    slot + 1,
                )
                .unwrap();
            }
        }
        let crashed = match writer::flatten_close(&b, &cont, handles, 9999) {
            Ok(flattened) => {
                assert!(flattened, "no crash before {crash_at}: flatten must land");
                false
            }
            Err(_) => {
                assert!(b.crashed(), "flatten_close may only fail via the crash");
                true
            }
        };
        b.revive();

        // Record whether this crash point left a torn spanidx behind (a
        // file that exists but does not open) — the sweep must hit that
        // shape at least once or it proves nothing about mid-flatten.
        {
            use plfs::Backend as _;
            let fpath = cont.flattened_path();
            if b.exists(&fpath)
                && OnDiskIndex::open(b.as_ref(), &fpath, Arc::new(SpanCache::new()))
                    .unwrap()
                    .is_none()
            {
                torn_spanidx_seen = true;
                let pre = fsck::check(&b, &cont).unwrap();
                assert!(
                    pre.issues
                        .iter()
                        .any(|i| matches!(i, fsck::Issue::InvalidFlattenedIndex { .. })),
                    "torn spanidx must be flagged: {:?}",
                    pre.issues
                );
            }
        }

        let outcome = fsck::repair(&b, &cont).unwrap();
        assert!(
            outcome.fully_repaired(),
            "crash_at={crash_at}: repair left damage: {:?}",
            outcome.post.issues
        );

        // Post-repair the two read paths agree, and every non-hole byte
        // is the byte the writer actually produced.
        let mut plain = ReadHandle::open(Arc::clone(&b), cont.clone()).unwrap();
        let mut bounded = ReadHandle::open_bounded(
            Arc::clone(&b),
            cont.clone(),
            Arc::new(SpanCache::new()),
        )
        .unwrap();
        assert_eq!(bounded.size(), plain.size(), "crash_at={crash_at}");
        let eof = plain.size();
        let got = plain.read(0, eof).unwrap();
        assert_eq!(
            bounded.read(0, eof).unwrap(),
            got,
            "crash_at={crash_at}: bounded and plain reads diverged after repair"
        );
        for slot in 0..writers * slots_per_writer {
            let w = slot % writers;
            let start = (slot * SLOT) as usize;
            if start >= got.len() {
                continue;
            }
            let phys0 = (slot / writers) * SLOT;
            for (j, &g) in got[start..(start + SLOT as usize).min(got.len())].iter().enumerate() {
                let want = plfs::content::synth_byte(w, phys0 + j as u64);
                assert!(
                    g == 0 || g == want,
                    "crash_at={crash_at} slot={slot} byte={j}: read 0x{g:02x}, \
                     expected 0x{want:02x} or a hole"
                );
            }
        }
        if !crashed {
            // Clean run: all data was acknowledged via flatten_close, so
            // the readback must be exact, not merely non-invented.
            for slot in 0..writers * slots_per_writer {
                let w = slot % writers;
                let start = (slot * SLOT) as usize;
                let phys0 = (slot / writers) * SLOT;
                for (j, &g) in got[start..start + SLOT as usize].iter().enumerate() {
                    assert_eq!(g, plfs::content::synth_byte(w, phys0 + j as u64));
                }
            }
        }
    }
    assert!(
        torn_spanidx_seen,
        "the sweep never crashed mid-spanidx-write; widen the crash range"
    );
}
