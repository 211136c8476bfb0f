//! `meta_storm_mem`: the N-N create storm — the paper's third axis.
//!
//! One thread drives `Plfs` over a fresh `MemFs` under a 4-namespace
//! federation that hashes both containers and subdirs. A round makes a
//! directory, creates [`FILES`] one-block files (`open_write`, one 4 KiB
//! `write`, `close`), `stat`s each, lists the directory, renames every
//! eighth file and unlinks them all. `vfs`, `container::create`,
//! `federation` and the backend's metadata ops do the work; the data path
//! moves 4 KiB per file.

use super::{under_root, Round, Traced, Workload};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::{CounterSnapshot, Role, TimedBackend, Trips};
use crate::trace;
use plfs::writer::IndexPolicy;
use plfs::{Backend, Container, Content, Federation, MemFs, Plfs, PlfsConfig};
use std::sync::Arc;
use std::time::Instant;

/// Files per round.
const FILES: u64 = 2000;
const BLOCK: usize = 4096;
const DIR: &str = "/storm";

pub struct MetaStorm {
    /// Logical file names; the seed salts them, so placement across the
    /// namespaces differs from seed to seed.
    names: Vec<String>,
    renamed: Vec<String>,
    body: Content,
    device: CounterSnapshot,
    create_trips: Trips,
}

fn federation() -> Federation {
    Federation::new((0..4).map(|i| format!("/mds{i}")).collect(), 4, true, true)
}

impl MetaStorm {
    pub fn new(seed: u64) -> MetaStorm {
        let mut s = seed;
        let salt = stats::splitmix(&mut s) & 0xFFFF_FFFF;
        MetaStorm {
            names: (0..FILES)
                .map(|i| format!("{DIR}/f{salt:08x}-{i}"))
                .collect(),
            renamed: (0..FILES)
                .map(|i| format!("{DIR}/g{salt:08x}-{i}"))
                .collect(),
            body: Content::bytes(stats::seeded_bytes(seed, BLOCK)),
            device: CounterSnapshot::default(),
            create_trips: Trips::default(),
        }
    }

    fn run<B: Backend + Clone>(&mut self, backend: B, traced: bool, lat: &mut Samples) -> Round {
        let cfg = PlfsConfig {
            federation: federation(),
            index_policy: IndexPolicy::WriteClose,
        };
        let fs = Plfs::new(backend, cfg).expect("mount");
        let mut round = Round::default();
        let mut trips = Trips::default();
        let t0 = Instant::now();
        under_root(|| {
            let mut check = |ok: bool| {
                round.attempted += 1;
                round.failed += u64::from(!ok);
            };
            check(trace::timed("vfs.mkdir", || fs.mkdir(DIR)).0.is_ok());

            let t_create = Instant::now();
            for (i, name) in self.names.iter().enumerate() {
                let (r, ns) = trips.around(|| {
                    trace::timed("vfs.create", || {
                        let mut h = fs.open_write(name, i as u64)?;
                        h.write(0, &self.body, fs.timestamp())?;
                        h.close(fs.timestamp())
                    })
                });
                lat.push(ns);
                check(r.is_ok());
            }
            let create_s = t_create.elapsed().as_secs_f64();
            round
                .axis
                .push(("axis.create_per_s", FILES as f64 / create_s));

            for name in &self.names {
                let st = trace::timed("vfs.stat", || fs.stat(name)).0;
                check(matches!(st, Ok(s) if s.size == BLOCK as u64));
            }
            let listed = trace::timed("vfs.readdir", || fs.readdir(DIR)).0;
            check(matches!(&listed, Ok(l) if l.len() as u64 == FILES));
            for (old, new) in self.names.iter().zip(&self.renamed).step_by(8) {
                check(trace::timed("vfs.rename", || fs.rename(old, new)).0.is_ok());
            }
            for (i, (old, new)) in self.names.iter().zip(&self.renamed).enumerate() {
                let name = if i % 8 == 0 { new } else { old };
                check(trace::timed("vfs.unlink", || fs.unlink(name)).0.is_ok());
            }
            let after = trace::timed("vfs.readdir", || fs.readdir(DIR)).0;
            check(matches!(&after, Ok(l) if l.is_empty()));
        });
        round.wall_ns = t0.elapsed().as_nanos() as u64;
        // One op per vfs-level action (a create is open + write + close).
        round.ops = round.attempted;
        round.ops_ns = round.wall_ns;
        round.axis.push((
            "axis.meta_ops_per_s",
            round.ops as f64 / (round.wall_ns as f64 / 1e9),
        ));
        if traced {
            self.create_trips.add(trips);
        }
        round
    }
}

impl Workload for MetaStorm {
    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round {
        if traced {
            let b = TimedBackend::new(MemFs::new(), Role::Device);
            let round = self.run(b.clone(), true, lat);
            self.device = self.device + b.counters().snapshot();
            round
        } else {
            self.run(Arc::new(MemFs::new()), false, lat)
        }
    }

    fn layers(&mut self, t: &Traced, m: &mut Metrics) {
        m.set("vfs.create_us", t.total_us("vfs.create"));
        m.set("vfs.stat_us", t.total_us("vfs.stat"));
        m.set("vfs.readdir_ms", t.total_us("vfs.readdir") / 1e3);
        m.set("vfs.rename_us", t.total_us("vfs.rename"));
        m.set("vfs.unlink_us", t.total_us("vfs.unlink"));
        m.set("vfs.backend_ops_per_create", self.create_trips.ops_per());

        // Direct calls on this workload's own names.
        let fed = federation();
        let b = MemFs::new();
        for ns in fed.namespaces() {
            b.mkdir_all(&format!("{ns}{DIR}")).expect("namespace dir");
        }
        let t0 = Instant::now();
        for name in &self.names {
            Container::new(name, &fed)
                .create(&b)
                .expect("container create");
        }
        m.set(
            "container.create_us",
            t0.elapsed().as_nanos() as f64 / 1e3 / FILES as f64,
        );
        let t0 = Instant::now();
        for name in &self.names {
            std::hint::black_box(fed.canonical_container_path(name));
            std::hint::black_box(fed.subdir_namespace(name, 0));
        }
        m.set(
            "federation.route_ns",
            t0.elapsed().as_nanos() as f64 / FILES as f64,
        );

        t.backend_metrics(self.device, self.device, FILES * BLOCK as u64, m);
        m.set("trace.coverage_pct", t.coverage_pct(""));
    }
}
