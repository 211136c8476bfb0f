//! `sim_64k`: the simulator half of the repo, which none of the
//! real-middleware workloads touch.
//!
//! One repetition runs `mpiio_test` at [`N1_RANKS`] ranks (the N-1
//! checkpoint and restart of figures 4 and 5) and `nn_checkpoint` at
//! [`NN_RANKS`] (the create storm of figure 7) on `ClusterProfile::cielo`
//! through PLFS with Parallel Index Read and one metadata server, wired
//! from the public `mpio` / `pfs` API exactly as `harness::run_workload`
//! wires it: `workloads` compiles the program, the `mpio` driver turns
//! logical ops into `pfs` model calls, `simcore` orders the events.
//!
//! Host events per second is the measure. The simulated statistics are a
//! function of the seed alone, so every repetition of a run must produce
//! them bit for bit; one that does not fails the run.

use super::{under_root, Round, Traced, Workload};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::TimedDriver;
use harness::ClusterProfile;
use mpio::driver::exec_io;
use mpio::ops::CompiledProgram;
use mpio::{Ctx, Exec, Layout, PlfsDriver, PlfsDriverConfig, ReadStrategy};
use pfs::SimPfs;
use plfs::{Content, Federation, IoOp};
use simcore::{EventArena, SimTime};
use std::sync::OnceLock;
use std::time::Instant;

const N1_RANKS: usize = 65_536;
const NN_RANKS: usize = 16_384;
/// Ranks of the discarded warm-up jobs that end set-up.
const WARM_UP_RANKS: usize = 4_096;

/// What one simulated job produced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Job {
    events: u64,
    peak_live: u64,
    makespan_s: f64,
    lock_transfers: u64,
    bytes_written: u64,
    bytes_read: u64,
}

/// Host-side cost of one job.
#[derive(Debug, Clone, Copy, Default)]
struct Host {
    wall_ns: u64,
    driver_ns: u64,
    driver_calls: u64,
}

/// The simulated statistics of this process's first repetition; every
/// other one — of any set-up, all share the seed — must match it.
static FIRST: OnceLock<[Job; 2]> = OnceLock::new();

pub struct Sim {
    seed: u64,
    /// N-1 and N-N at full scale, then their warm-up copies.
    programs: [(usize, CompiledProgram); 4],
    compile_s: f64,
    /// Host costs of the traced repetitions, N-1 and N-N.
    traced: [Host; 2],
    /// Host events per second of every untraced job, N-1 and N-N.
    events_per_s: [Vec<f64>; 2],
}

impl Sim {
    pub fn new(seed: u64) -> Sim {
        let t = Instant::now();
        let programs = [
            (N1_RANKS, workloads::mpiio_test(N1_RANKS).compile()),
            (NN_RANKS, workloads::nn_checkpoint(NN_RANKS).compile()),
            (
                WARM_UP_RANKS,
                workloads::mpiio_test(WARM_UP_RANKS).compile(),
            ),
            (
                WARM_UP_RANKS,
                workloads::nn_checkpoint(WARM_UP_RANKS).compile(),
            ),
        ];
        Sim {
            seed,
            programs,
            compile_s: t.elapsed().as_secs_f64(),
            traced: [Host::default(); 2],
            events_per_s: [Vec::new(), Vec::new()],
        }
    }

    fn job(&self, which: usize, traced: bool) -> (Job, Host) {
        let (nprocs, program) = &self.programs[which];
        let cluster = ClusterProfile::cielo();
        let (nodes, ppn) = cluster.placement(*nprocs);
        let mut params = (cluster.pfs)(nodes);
        params.mds_count = 1;
        let mut ctx = Ctx::new(
            SimPfs::new(params, self.seed),
            cluster.net(),
            Layout::new(*nprocs, ppn),
        );
        let cfg = PlfsDriverConfig::new(
            Federation::single("/panfs", 32),
            ReadStrategy::ParallelIndexRead,
        );
        let mut host = Host::default();
        let t = Instant::now();
        let result = if traced {
            let mut d = TimedDriver::new(PlfsDriver::new(cfg));
            let sp = crate::trace::enter("mpio.exec");
            let r = Exec::new(program, &mut d, &mut ctx).run();
            sp.exit();
            (host.driver_ns, host.driver_calls) = (d.busy_ns, d.calls);
            r
        } else {
            let mut d = PlfsDriver::new(cfg);
            Exec::new(program, &mut d, &mut ctx).run()
        };
        host.wall_ns = t.elapsed().as_nanos() as u64;
        let job = Job {
            events: result.events,
            peak_live: result.peak_live_events as u64,
            makespan_s: result.makespan.as_secs_f64(),
            lock_transfers: ctx.pfs.lock_transfers(),
            bytes_written: ctx.pfs.bytes_written(),
            bytes_read: ctx.pfs.bytes_read(),
        };
        (job, host)
    }
}

impl Workload for Sim {
    /// A full repetition takes seconds and the simulator has no caches to
    /// fill: both jobs at [`WARM_UP_RANKS`] page the code in.
    fn warm_up(&mut self) -> Round {
        self.job(2, false);
        self.job(3, false);
        Round::default()
    }

    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round {
        let t0 = Instant::now();
        let ((n1, n1_host), (nn, nn_host)) =
            under_root(|| (self.job(0, traced), self.job(1, traced)));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let jobs = [n1, nn];
        let same = *FIRST.get_or_init(|| jobs) == jobs;
        for (i, (job, host)) in [(n1, n1_host), (nn, nn_host)].into_iter().enumerate() {
            if traced {
                self.traced[i].wall_ns += host.wall_ns;
                self.traced[i].driver_ns += host.driver_ns;
                self.traced[i].driver_calls += host.driver_calls;
            } else {
                self.events_per_s[i].push(job.events as f64 / (host.wall_ns as f64 / 1e9));
            }
        }
        lat.push(wall_ns);
        let ops = n1.events + nn.events;
        let ops_ns = n1_host.wall_ns + nn_host.wall_ns;
        Round {
            wall_ns,
            ops,
            ops_ns,
            attempted: 1,
            failed: u64::from(!same),
            axis: vec![("axis.sim_events_per_s", ops as f64 / (ops_ns as f64 / 1e9))],
        }
    }

    fn layers(&mut self, t: &Traced, m: &mut Metrics) {
        let r = t.rounds.max(1) as f64;
        let [n1, nn] = self.traced;
        m.set("workloads.compile_s", self.compile_s);
        m.set(
            "mpio.driver_busy_s",
            (n1.driver_ns + nn.driver_ns) as f64 / 1e9 / r,
        );
        m.set(
            "mpio.driver_calls",
            (n1.driver_calls + nn.driver_calls) as f64 / r,
        );
        m.set(
            "mpio.exec_self_s",
            ((n1.wall_ns + nn.wall_ns) - (n1.driver_ns + nn.driver_ns)) as f64 / 1e9 / r,
        );
        for (name, v) in [
            ("sim.n1_events_per_s", &self.events_per_s[0]),
            ("sim.nn_events_per_s", &self.events_per_s[1]),
        ] {
            if !v.is_empty() {
                m.set(name, stats::median(v));
            }
        }
        if let Some([a, b]) = FIRST.get() {
            m.set("simcore.events", (a.events + b.events) as f64);
            m.set("simcore.peak_live", a.peak_live.max(b.peak_live) as f64);
            m.set("sim.n1_makespan_s", a.makespan_s);
            m.set("sim.nn_makespan_s", b.makespan_s);
            m.set(
                "pfs.lock_transfers",
                (a.lock_transfers + b.lock_transfers) as f64,
            );
            m.set(
                "pfs.bytes_written",
                (a.bytes_written + b.bytes_written) as f64,
            );
            m.set("pfs.bytes_read", (a.bytes_read + b.bytes_read) as f64);
        }
        m.set("pfs.op_ns", pfs_op_ns(self.seed));
        m.set("simcore.event_ns", arena_event_ns());
        m.set("trace.coverage_pct", t.coverage_pct(""));
    }
}

/// Direct `mpio::exec_io` replay of a fixed `IoOp` program — create,
/// append, read back, per file — on a fresh `SimPfs`: nanoseconds of
/// host time per op inside the `pfs` model.
fn pfs_op_ns(seed: u64) -> f64 {
    let cluster = ClusterProfile::cielo();
    let (nodes, ppn) = cluster.placement(4096);
    let mut ctx = Ctx::new(
        SimPfs::new((cluster.pfs)(nodes), seed),
        cluster.net(),
        Layout::new(4096, ppn),
    );
    let files = 20_000usize;
    let body = Content::synthetic(seed, 1 << 20);
    let program: Vec<(usize, IoOp)> = (0..files)
        .flat_map(|i| {
            let path = format!("/probe/f{i}");
            let node = i % nodes;
            [
                (
                    node,
                    IoOp::Create {
                        path: path.clone(),
                        exclusive: true,
                    },
                ),
                (
                    node,
                    IoOp::Append {
                        path: path.clone(),
                        content: body.clone(),
                    },
                ),
                (
                    node,
                    IoOp::ReadAt {
                        path,
                        offset: 0,
                        len: 1 << 20,
                    },
                ),
            ]
        })
        .collect();
    let mut now = exec_io(
        &mut ctx,
        0,
        0,
        1,
        &IoOp::Mkdir {
            path: "/probe".into(),
        },
        SimTime::ZERO,
    );
    let t = Instant::now();
    for (node, op) in &program {
        now = exec_io(&mut ctx, *node, 0, 1, op, now);
    }
    std::hint::black_box(now);
    t.elapsed().as_nanos() as f64 / program.len() as f64
}

/// Direct `EventArena` pop + push with 65,536 events live, as one rank
/// per event keeps it: nanoseconds per event.
fn arena_event_ns() -> f64 {
    let live = 65_536u64;
    let mut q = EventArena::new();
    for i in 0..live {
        q.push(SimTime(i * 1_000), 0, i as u32);
    }
    let events = 2_000_000u64;
    let mut s = 7u64;
    let t = Instant::now();
    for _ in 0..events {
        let (at, kind, arg) = q.pop().expect("the queue stays full");
        let gap = live * 1_000 + stats::splitmix(&mut s) % 50_000;
        q.push(SimTime(at.0 + gap), kind, arg);
    }
    t.elapsed().as_nanos() as f64 / events as f64
}
