//! Criterion microbenches for the PLFS index machinery — the data
//! structure every read-open at 65k scale leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plfs::{GlobalIndex, IndexEntry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn strided_entries(writers: u64, per_writer: u64, block: u64) -> Vec<IndexEntry> {
    let mut out = Vec::with_capacity((writers * per_writer) as usize);
    for w in 0..writers {
        for k in 0..per_writer {
            out.push(IndexEntry {
                logical_offset: (k * writers + w) * block,
                length: block,
                physical_offset: k * block,
                writer: w,
                timestamp: 1,
            });
        }
    }
    out
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_build");
    for writers in [16u64, 64, 256] {
        let entries = strided_entries(writers, 100, 65536);
        g.throughput(Throughput::Elements(entries.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(writers),
            &entries,
            |b, entries| {
                b.iter(|| GlobalIndex::from_entries(black_box(entries.clone())));
            },
        );
    }
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let entries = strided_entries(256, 100, 65536);
    let idx = GlobalIndex::from_entries(entries);
    let eof = idx.eof();
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("index_lookup_random_64k", |b| {
        b.iter(|| {
            let off = rng.gen_range(0..eof - 65536);
            black_box(idx.lookup(off, 65536))
        });
    });
}

/// Reference build: one precedence-resolving insert per entry.
fn build_via_insert(entries: &[IndexEntry]) -> GlobalIndex {
    let mut g = GlobalIndex::new();
    for e in entries {
        g.insert(e);
    }
    g
}

/// A large strided checkpoint (64 writers × 1,000 entries each) handed
/// over as one concatenated sequence: the kernel finds the 64 ascending
/// runs itself. Against the per-entry overlay.
fn bench_build_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_build_large_64x1000");
    let entries = strided_entries(64, 1000, 65536);
    g.throughput(Throughput::Elements(entries.len() as u64));
    g.sample_size(10);
    g.bench_function("from_entries_bulk", |b| {
        b.iter(|| GlobalIndex::from_entries(black_box(entries.clone())));
    });
    g.bench_function("per_entry_insert", |b| {
        b.iter(|| build_via_insert(black_box(&entries)));
    });
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    // Group-leader merge: 4 partial indices of 64 writers each.
    let partials: Vec<GlobalIndex> = (0..4)
        .map(|g| {
            GlobalIndex::from_entries(
                strided_entries(256, 50, 65536)
                    .into_iter()
                    .filter(|e| e.writer % 4 == g),
            )
        })
        .collect();
    c.bench_function("index_merge_4_groups", |b| {
        b.iter(|| {
            let mut merged = GlobalIndex::new();
            for p in &partials {
                merged.merge(black_box(p));
            }
            black_box(merged)
        });
    });
}

/// The read-open kernel over per-writer runs, as `Container::aggregate`
/// feeds it: one ascending run per index log, resolved in one k-way pass
/// and bulk-built into the map once. `compacted` is the terminal
/// aggregation (`acquire_index`); on a strided checkpoint logical
/// neighbours belong to different writers, so it merges nothing and only
/// pays the check.
fn bench_aggregate_runs(c: &mut Criterion) {
    for (writers, per_writer) in [(128u64, 1024u64), (2048, 1000)] {
        let all = strided_entries(writers, per_writer, 1024);
        let runs: Vec<&[IndexEntry]> = all.chunks(per_writer as usize).collect();
        let mut g = c.benchmark_group(format!("aggregate_runs_{writers}x{per_writer}"));
        g.throughput(Throughput::Elements(all.len() as u64));
        g.sample_size(10);
        for (name, compact) in [("uncompacted", false), ("compacted", true)] {
            g.bench_function(name, |b| {
                b.iter(|| black_box(GlobalIndex::from_runs(black_box(&runs), compact)));
            });
        }
        g.finish();
    }
}

fn bench_lookup_coalesced(c: &mut Criterion) {
    // Contiguous single-writer file: coalescing collapses the whole range
    // into one mapping.
    let entries: Vec<IndexEntry> = (0..4096u64)
        .map(|k| IndexEntry {
            logical_offset: k * 4096,
            length: 4096,
            physical_offset: k * 4096,
            writer: 0,
            timestamp: 1,
        })
        .collect();
    let idx = GlobalIndex::from_entries(entries);
    let eof = idx.eof();
    c.bench_function("index_lookup_coalesced_full", |b| {
        b.iter(|| black_box(idx.lookup_coalesced(0, eof)));
    });
}

/// Bounded lookups through the on-disk index (DESIGN.md §5j): random
/// 64 KB probes over a 25,600-record spanidx file on MemFs, warm cache
/// vs a cache too small to retain a window (every probe pays a fetch).
fn bench_ondisk_lookup(c: &mut Criterion) {
    use plfs::index::ondisk::{OnDiskIndex, SpanIdxWriter};
    use plfs::{MemFs, SpanCache};
    use std::sync::Arc;

    let entries = strided_entries(256, 100, 65536);
    let idx = GlobalIndex::from_entries(entries);
    let flat = idx.to_entries();
    let eof = idx.eof();
    let b = MemFs::new();
    let mut w = SpanIdxWriter::create(&b, "/flat", 64 * 1024).unwrap();
    w.push_run(&flat).unwrap();
    w.finish().unwrap();

    let mut g = c.benchmark_group("ondisk_lookup_random_64k");
    for (name, budget) in [("warm_cache", 64 << 20), ("cold_cache", 1u64)] {
        let mut od = OnDiskIndex::open(&b, "/flat", Arc::new(SpanCache::with_budget(budget)))
            .unwrap()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        g.bench_function(name, |bench| {
            bench.iter(|| {
                let off = rng.gen_range(0..eof - 65536);
                black_box(od.lookup(&b, off, 65536).unwrap())
            });
        });
    }
    g.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let entries = strided_entries(64, 100, 65536);
    let bytes = IndexEntry::encode_all(&entries);
    let mut g = c.benchmark_group("index_serialization");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| black_box(IndexEntry::encode_all(black_box(&entries))));
    });
    g.bench_function("decode", |b| {
        b.iter(|| black_box(IndexEntry::decode_all(black_box(&bytes)).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_build_large,
    bench_lookup,
    bench_lookup_coalesced,
    bench_ondisk_lookup,
    bench_merge,
    bench_aggregate_runs,
    bench_serialization
);
criterion_main!(benches);
