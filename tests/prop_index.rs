//! Property-based tests (proptest) on the core invariants:
//!
//! * the global index resolves arbitrary overlapping multi-writer write
//!   patterns exactly like a naive per-byte reference model;
//! * merge order never changes the result (Parallel Index Read soundness);
//! * the full middleware write/read path is byte-faithful for arbitrary
//!   patterns over a real backend.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a failed unwrap or expect is the test's failure report"
)]

use plfs::reader::ReadHandle;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Content, Federation, GlobalIndex, IndexEntry, MemFs};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// An arbitrary write: (writer, logical offset, length, timestamp).
fn arb_write() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (0u64..6, 0u64..2000, 1u64..300, 1u64..50)
}

/// Naive reference: apply writes byte-by-byte, last (timestamp, writer)
/// precedence wins; remember which writer owns each byte and the offset
/// within that writer's contribution.
#[derive(Clone, Copy, PartialEq, Debug)]
struct ByteOwner {
    writer: u64,
    phys: u64,
    ts: u64,
}

fn reference_model(writes: &[(u64, u64, u64, u64)]) -> HashMap<u64, ByteOwner> {
    // Physical offsets accumulate per writer in issue order (append-only
    // logs).
    let mut phys_cursor: HashMap<u64, u64> = HashMap::new();
    let mut bytes: HashMap<u64, ByteOwner> = HashMap::new();
    for &(w, off, len, ts) in writes {
        let phys0 = *phys_cursor.get(&w).unwrap_or(&0);
        for i in 0..len {
            let candidate = ByteOwner {
                writer: w,
                phys: phys0 + i,
                ts,
            };
            bytes
                .entry(off + i)
                .and_modify(|cur| {
                    if (ts, w) >= (cur.ts, cur.writer) {
                        *cur = candidate;
                    }
                })
                .or_insert(candidate);
        }
        phys_cursor.insert(w, phys0 + len);
    }
    bytes
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_naive_byte_model(writes in prop::collection::vec(arb_write(), 1..40)) {
        let idx = GlobalIndex::from_entries(entries_from(&writes));
        let reference = reference_model(&writes);
        let eof = idx.eof();
        prop_assert_eq!(
            eof,
            reference.keys().max().map(|m| m + 1).unwrap_or(0),
            "eof mismatch"
        );
        // Check every byte's resolution through lookup.
        let mut mappings = Vec::new();
        idx.lookup_into(0, eof, &mut mappings);
        for m in mappings {
            for i in 0..m.length {
                let logical = m.logical_offset + i;
                match m.source {
                    plfs::index::Source::Hole => {
                        prop_assert!(!reference.contains_key(&logical), "hole at written byte {logical}");
                    }
                    plfs::index::Source::Writer { writer, physical_offset } => {
                        let r = reference.get(&logical).expect("span over unwritten byte");
                        prop_assert_eq!(r.writer, writer, "wrong writer at {}", logical);
                        prop_assert_eq!(r.phys, physical_offset + i, "wrong phys at {}", logical);
                    }
                }
            }
        }
    }

    #[test]
    fn merge_is_order_independent(
        writes in prop::collection::vec(arb_write(), 1..30),
        split in 1usize..5,
    ) {
        let entries = entries_from(&writes);
        let bulk = GlobalIndex::from_entries(entries.clone());

        // Partition entries into groups by writer, so no exact
        // `(timestamp, writer)` tie spans two groups, and merge the
        // groups' resolved spans as runs in two different orders.
        let groups: Vec<Vec<IndexEntry>> = (0..split)
            .map(|g| {
                GlobalIndex::from_entries(
                    entries.iter().copied().filter(|e| (e.writer as usize) % split == g),
                )
                .to_entries()
            })
            .collect();
        let forward = GlobalIndex::from_runs(&groups, false);
        let reversed: Vec<_> = groups.iter().rev().cloned().collect();
        let backward = GlobalIndex::from_runs(&reversed, false);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &bulk);
    }

    #[test]
    fn middleware_roundtrip_is_byte_faithful(
        writes in prop::collection::vec(arb_write(), 1..25),
    ) {
        // Distinct timestamps per write keep the oracle unambiguous (real
        // clocks tie-break by writer; the reference model does too, but
        // equal-(ts,writer) duplicates are inherently ambiguous).
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
                        IndexPolicy::WriteClose,
                    )
                    .unwrap(),
                ),
            };
            // Writer w's payload bytes come from stream w at its current
            // physical cursor, mirroring the reference model.
            let phys = h.bytes_written();
            h.write(off, &Content::synthetic(w, phys + len).slice(phys, len), ts)
                .unwrap();
        }
        for (_, h) in handles {
            h.close(1_000_000).unwrap();
        }

        let reference = reference_model(&writes);
        let mut r = ReadHandle::open_bounded(Arc::clone(&backend), cont, Arc::default()).unwrap();
        let eof = r.size();
        let got = r.read(0, eof).unwrap();
        prop_assert_eq!(got.len() as u64, eof);
        for (logical, byte) in got.iter().enumerate() {
            let want = match reference.get(&(logical as u64)) {
                None => 0u8,
                Some(owner) => plfs::content::synth_byte(owner.writer, owner.phys),
            };
            prop_assert_eq!(*byte, want, "byte {} mismatch", logical);
        }
    }
}
