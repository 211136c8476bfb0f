//! `restart_agg_mem` and `restart_flat_mem`: reading back one container
//! that set-up wrote over `MemFs`, through the two halves of the index
//! layer.
//!
//! `restart_agg_mem` opens with `Plfs::open_read` over a WriteClose
//! container, so every open aggregates all index logs
//! (`container::read_index_logs`, `GlobalIndex` build and merge) and the
//! reads resolve through the in-memory index. `restart_flat_mem` opens
//! with `ReadHandle::open_bounded` over a flattened container: fence
//! search in `index::ondisk`, record windows through one shared
//! `SpanCache` smaller than the index, no aggregation at all. A merge
//! speed-up must not move the second; a cache change must not move the
//! first.

use super::ckpt::{write_panel, Ckpt, ReadPart, PATH};
use super::{under_root, Pattern, Round, Traced, Workload};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::{CounterSnapshot, Role, TimedBackend, Trips};
use plfs::index::{GlobalIndex, IndexEntry, SpanCache};
use plfs::reader::ReadHandle;
use plfs::{Backend, MemFs, Plfs};
use std::sync::Arc;
use std::time::Instant;

/// Readers per round of `restart_agg_mem`, one after the other (each open
/// already runs the program's own aggregation threads), each opening the
/// file and reading its own contiguous share of it.
const AGG_READERS: u64 = 8;
/// Readers per round of `restart_flat_mem`, each opening the file and
/// reading one writer's strided blocks.
const FLAT_READERS: u64 = 16;

pub struct Restart {
    pat: Pattern,
    flat: bool,
    store: Arc<MemFs>,
    device: CounterSnapshot,
    open_trips: Trips,
    read_trips: Trips,
}

impl Restart {
    /// 128 writers x 1,024 x 1 KiB: 128 MiB behind 131,072 index records
    /// in 128 index logs.
    pub fn agg(seed: u64) -> Restart {
        Restart::new(Pattern::new(seed, 128, 1024, 1024), false)
    }

    /// 128 writers x 2,048 x 512 B: 128 MiB behind a 262,144-record
    /// flattened index (10 MiB — 2.5 times the default 4 MiB span cache).
    pub fn flat(seed: u64) -> Restart {
        Restart::new(Pattern::new(seed, 128, 2048, 512), true)
    }

    fn new(pat: Pattern, flat: bool) -> Restart {
        let store = Arc::new(MemFs::new());
        let fs = Plfs::new(Arc::clone(&store), Ckpt::config(flat)).expect("mount");
        let (part, _, _) = write_panel(&fs, &pat, 1, flat);
        assert_eq!(part.failed, 0, "set-up container must write cleanly");
        Restart {
            pat,
            flat,
            store,
            device: CounterSnapshot::default(),
            open_trips: Trips::default(),
            read_trips: Trips::default(),
        }
    }

    fn run<B: Backend + Clone>(&mut self, fs: &Plfs<B>, traced: bool, lat: &mut Samples) -> Round {
        let pat = &self.pat;
        let t0 = Instant::now();
        let mut p = ReadPart::default();
        under_root(|| {
            if self.flat {
                // One cache per round, shared by all its readers: every
                // round starts cold and sees the same hits and evictions.
                let cache = Arc::new(SpanCache::new());
                for i in 0..FLAT_READERS {
                    // Bounded open, then every block one writer wrote.
                    let w = i * (pat.writers / FLAT_READERS);
                    let open = || {
                        ReadHandle::open_bounded(
                            fs.backend().clone(),
                            fs.container(PATH),
                            Arc::clone(&cache),
                        )
                    };
                    if let Some(mut r) = p.open(open) {
                        for k in 0..pat.blocks {
                            p.read(&mut r, pat, pat.offset(w, k), pat.block);
                        }
                    }
                }
            } else {
                // Aggregating open, then a contiguous share of the file.
                let share = pat.file_bytes() / AGG_READERS;
                for i in 0..AGG_READERS {
                    p.open_and_read(fs, pat, i * share, (i + 1) * share);
                }
            }
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        lat.extend(&p.read_ns);
        if traced {
            self.open_trips.add(p.open_trips);
            self.read_trips.add(p.read_trips);
        }
        let bytes = if self.flat {
            FLAT_READERS * pat.blocks * pat.block
        } else {
            pat.file_bytes()
        };
        // What each workload is here for: the bounded path's reads, the
        // aggregating path's opens.
        let (ops, ops_ns) = if self.flat {
            (p.read_ns.len() as u64, wall_ns)
        } else {
            (p.open_ns.len() as u64, p.open_ns.iter().sum())
        };
        Round {
            wall_ns,
            ops,
            ops_ns,
            attempted: p.attempted,
            failed: p.failed,
            axis: vec![
                ("axis.read_open_ms", p.open_ms()),
                ("axis.read_mb_s", p.read_mb_s(bytes)),
            ],
        }
    }

    /// Call the index layer's public functions directly on this
    /// workload's container: what one read-open is made of.
    fn probe_agg(&self, m: &mut Metrics) {
        let b = &self.store;
        let c = Plfs::new(Arc::clone(b), Ckpt::config(false))
            .expect("mount")
            .container(PATH);
        let reps = 5;
        let ms = |f: &mut dyn FnMut()| {
            let v: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            stats::median(&v)
        };
        let mut entries: Vec<IndexEntry> = Vec::new();
        m.set(
            "container.index_read_ms",
            ms(&mut || {
                let resolved = c.subdirs_phys_batch(b).expect("subdirs");
                let writers = c.list_writers(b).expect("writers");
                entries = c
                    .read_index_logs(b, &resolved, &writers)
                    .expect("index logs");
            }),
        );
        m.set("index.entries", entries.len() as f64);
        let mut index = GlobalIndex::new();
        m.set(
            "index.build_ms",
            ms(&mut || index = GlobalIndex::from_entries(entries.iter().copied())),
        );
        let mut per_writer: Vec<Vec<IndexEntry>> = vec![Vec::new(); self.pat.writers as usize];
        for e in &entries {
            per_writer[e.writer as usize].push(*e);
        }
        let partials: Vec<GlobalIndex> = per_writer
            .into_iter()
            .map(GlobalIndex::from_entries)
            .collect();
        m.set(
            "index.merge_ms",
            ms(&mut || {
                std::hint::black_box(GlobalIndex::merge_all(partials.clone()));
            }),
        );
        let mut out = Vec::new();
        let (lookups, span) = (200_000u64, self.pat.block * 4);
        let t = Instant::now();
        let mut s = 1u64;
        for _ in 0..lookups {
            out.clear();
            let off = stats::splitmix(&mut s) % (self.pat.file_bytes() - span);
            index.lookup_into(off, span, &mut out);
            std::hint::black_box(&out);
        }
        m.set(
            "index.lookup_ns",
            t.elapsed().as_nanos() as f64 / lookups as f64,
        );
    }

    /// `OnDiskIndex::lookup_into` called directly, cold cache, in the
    /// order one reader walks its blocks.
    fn probe_flat(&self, m: &mut Metrics) {
        let b = &self.store;
        let c = Plfs::new(Arc::clone(b), Ckpt::config(true))
            .expect("mount")
            .container(PATH);
        let mut odx = c
            .open_ondisk_index(b, Arc::new(SpanCache::new()))
            .expect("spanidx readable")
            .expect("set-up flattened the container");
        m.set("index.entries", odx.footer().record_count as f64);
        let mut out = Vec::new();
        let t = Instant::now();
        for k in 0..self.pat.blocks {
            out.clear();
            odx.lookup_into(b, self.pat.offset(0, k), self.pat.block, &mut out)
                .expect("lookup");
            std::hint::black_box(&out);
        }
        m.set(
            "index.ondisk_lookup_us",
            t.elapsed().as_nanos() as f64 / 1e3 / self.pat.blocks as f64,
        );
    }
}

impl Workload for Restart {
    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round {
        let cfg = Ckpt::config(self.flat);
        if traced {
            let b = TimedBackend::new(Arc::clone(&self.store), Role::Device);
            let fs = Plfs::new(b.clone(), cfg).expect("mount");
            let before = b.counters().snapshot();
            let round = self.run(&fs, true, lat);
            self.device = self.device + (b.counters().snapshot() - before);
            round
        } else {
            let fs = Plfs::new(Arc::clone(&self.store), cfg).expect("mount");
            self.run(&fs, false, lat)
        }
    }

    fn layers(&mut self, t: &Traced, m: &mut Metrics) {
        m.set("reader.open_self_ms", t.self_us("reader.open") / 1e3);
        m.set("reader.read_self_us", t.self_us("reader.read"));
        m.set("ioplane.open_trips", self.open_trips.calls_per());
        m.set("ioplane.read_ops_per_call", self.read_trips.ops_per());
        let (hits, misses) = (
            t.counter_per_round("spancache.hits"),
            t.counter_per_round("spancache.misses"),
        );
        if hits + misses > 0.0 {
            m.set("index.spancache_hit_ratio", hits / (hits + misses));
        }
        m.set(
            "index.spancache_evictions",
            t.counter_per_round("spancache.evictions"),
        );
        if self.flat {
            self.probe_flat(m);
        } else {
            self.probe_agg(m);
        }
        t.backend_metrics(self.device, self.device, 0, m);
        m.set("trace.coverage_pct", t.coverage_pct(""));
    }
}
