//! Wiring: workload × middleware × cluster → one simulated run.

use crate::profiles::ClusterProfile;
use mpio::{
    BurstDriver, BurstParams, Ctx, DirectDriver, Exec, Layout, Metrics, PlfsDriver,
    PlfsDriverConfig, ReadStrategy,
};
use pfs::SimPfs;
use plfs::Federation;
use simcore::Summary;
use workloads::Workload;

/// Which I/O stack serves the workload.
#[derive(Debug, Clone)]
pub enum Middleware {
    /// Straight to the underlying parallel file system.
    Direct,
    /// Through PLFS.
    Plfs {
        strategy: ReadStrategy,
        /// Metadata servers / namespaces to federate over ("PLFS-X").
        mds: usize,
        /// Subdirs per container.
        subdirs: usize,
        /// Parallel Index Read hierarchy group size.
        group_size: usize,
        /// Index Flatten per-writer buffering threshold (entries).
        flatten_threshold: u64,
    },
    /// Through PLFS behind a node-local burst buffer (the related-work
    /// extension: SCR-style absorb + asynchronous drain, composed with
    /// PLFS so N-1 files work).
    PlfsBurst {
        strategy: ReadStrategy,
        mds: usize,
        burst: BurstParams,
    },
}

impl Middleware {
    pub fn plfs(strategy: ReadStrategy, mds: usize) -> Self {
        Middleware::Plfs {
            strategy,
            mds,
            subdirs: 32,
            group_size: 64,
            flatten_threshold: 1 << 20,
        }
    }

    pub fn plfs_burst(strategy: ReadStrategy, mds: usize) -> Self {
        Middleware::PlfsBurst {
            strategy,
            mds,
            burst: BurstParams::node_ssd(),
        }
    }

    pub fn label(&self) -> String {
        match self {
            Middleware::Direct => "direct".into(),
            Middleware::Plfs { strategy, mds, .. } => {
                let s = match strategy {
                    ReadStrategy::Original => "orig",
                    ReadStrategy::IndexFlatten => "flatten",
                    ReadStrategy::ParallelIndexRead => "parallel",
                };
                format!("plfs-{mds}({s})")
            }
            Middleware::PlfsBurst { mds, .. } => format!("plfs-{mds}+bb"),
        }
    }

    fn federation(&self) -> Option<Federation> {
        let (mds, subdirs) = match self {
            Middleware::Direct => return None,
            Middleware::Plfs { mds, subdirs, .. } => (*mds, *subdirs),
            Middleware::PlfsBurst { mds, .. } => (*mds, 32),
        };
        Some(if mds <= 1 {
            Federation::single("/panfs", subdirs)
        } else {
            Federation::new(
                (0..mds).map(|i| format!("/vol{i}")).collect(),
                subdirs,
                true,
                true,
            )
        })
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub makespan_s: f64,
    pub lock_transfers: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub cache_hit_bytes: u64,
    /// Simulation events processed by the DES engine.
    pub events: u64,
    /// Peak simultaneous pending events (engine memory high-water proxy).
    pub peak_live_events: usize,
}

/// Execute one workload once.
pub fn run_workload(
    w: &Workload,
    cluster: &ClusterProfile,
    mw: &Middleware,
    seed: u64,
) -> RunOutput {
    run_workload_tweaked(w, cluster, mw, seed, |_| {})
}

/// Execute one workload once with a file-system parameter tweak applied
/// after profile resolution (used by the sensitivity ablations).
pub fn run_workload_tweaked(
    w: &Workload,
    cluster: &ClusterProfile,
    mw: &Middleware,
    seed: u64,
    tweak: impl Fn(&mut pfs::PfsParams),
) -> RunOutput {
    let nprocs = w.pattern.nprocs;
    let (nodes_used, ppn) = cluster.placement(nprocs);
    let mut params = (cluster.pfs)(nodes_used);
    match mw {
        Middleware::Plfs { mds, .. } | Middleware::PlfsBurst { mds, .. } => {
            params.mds_count = (*mds).max(1);
        }
        Middleware::Direct => {}
    }
    tweak(&mut params);
    let pfs = SimPfs::new(params, seed);
    let mut ctx = Ctx::new(pfs, cluster.net(), Layout::new(nprocs, ppn));

    // Programs run in compiled form: per-rank bytecode with no per-op
    // allocation (`Workload::compile`), equivalence-tested against the
    // spec interpreter in the workloads crate.
    let program = w.compile();
    let result = match mw {
        Middleware::Direct => {
            let mut d = DirectDriver::new();
            Exec::new(&program, &mut d, &mut ctx).run()
        }
        Middleware::Plfs {
            strategy,
            group_size,
            flatten_threshold,
            ..
        } => {
            #[expect(clippy::expect_used, reason = "Middleware::Plfs variants always carry a federation (constructor invariant)")]
            let fed = mw.federation().expect("plfs middleware has a federation");
            let mut cfg = PlfsDriverConfig::new(fed, *strategy);
            cfg.group_size = *group_size;
            cfg.flatten_threshold_entries = *flatten_threshold;
            let mut d = PlfsDriver::new(cfg);
            Exec::new(&program, &mut d, &mut ctx).run()
        }
        Middleware::PlfsBurst {
            strategy, burst, ..
        } => {
            #[expect(clippy::expect_used, reason = "Middleware::Plfs variants always carry a federation (constructor invariant)")]
            let fed = mw.federation().expect("plfs middleware has a federation");
            let inner = PlfsDriver::new(PlfsDriverConfig::new(fed, *strategy));
            let mut d = BurstDriver::new(inner, *burst, nodes_used);
            Exec::new(&program, &mut d, &mut ctx).run()
        }
    };

    RunOutput {
        metrics: result.metrics,
        makespan_s: result.makespan.as_secs_f64(),
        lock_transfers: ctx.pfs.lock_transfers(),
        bytes_written: ctx.pfs.bytes_written(),
        bytes_read: ctx.pfs.bytes_read(),
        cache_hit_bytes: ctx.pfs.cache_hit_bytes(),
        events: result.events,
        peak_live_events: result.peak_live_events,
    }
}

/// Run `reps` seeded repetitions and summarize `metric` over them — the
/// paper's "each data point is an average of 10 runs" with error bars.
pub fn repeat(
    w: &Workload,
    cluster: &ClusterProfile,
    mw: &Middleware,
    reps: u64,
    base_seed: u64,
    metric: impl Fn(&RunOutput) -> f64,
) -> Summary {
    let mut summary = Summary::new();
    for r in 0..reps {
        let out = run_workload(w, cluster, mw, base_seed.wrapping_add(r * 7919));
        summary.add(metric(&out));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpio::OpKind;
    use workloads::{metadata_storm, mpiio_test};

    fn prod() -> ClusterProfile {
        ClusterProfile::production_cluster()
    }

    #[test]
    fn direct_and_plfs_run_the_same_workload() {
        let w = mpiio_test(16);
        let direct = run_workload(&w, &prod(), &Middleware::Direct, 1);
        let plfs = run_workload(
            &w,
            &prod(),
            &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
            1,
        );
        // Both moved the same payload.
        assert_eq!(direct.bytes_written, w.write_bytes());
        // PLFS additionally writes index logs.
        assert!(plfs.bytes_written > w.write_bytes());
        // Direct N-1 hits locks; PLFS does not.
        assert!(direct.lock_transfers > 0);
        assert_eq!(plfs.lock_transfers, 0);
        // The headline: PLFS writes the checkpoint much faster.
        let d_bw = direct.metrics.effective_write_bandwidth();
        let p_bw = plfs.metrics.effective_write_bandwidth();
        assert!(p_bw > 2.0 * d_bw, "plfs {p_bw:.0} vs direct {d_bw:.0}");
    }

    #[test]
    fn repeat_produces_error_bars() {
        let w = mpiio_test(8);
        let s = repeat(
            &w,
            &prod(),
            &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
            5,
            42,
            |o| o.metrics.effective_read_bandwidth(),
        );
        assert_eq!(s.count(), 5);
        assert!(s.mean() > 0.0);
        // Jitter must produce some spread, but modest.
        assert!(s.cv() < 0.5, "cv {}", s.cv());
        assert!(s.std() > 0.0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let w = mpiio_test(8);
        let mw = Middleware::plfs(ReadStrategy::IndexFlatten, 2);
        let a = run_workload(&w, &prod(), &mw, 9);
        let b = run_workload(&w, &prod(), &mw, 9);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.bytes_written, b.bytes_written);
    }

    #[test]
    fn metadata_storm_sees_mds_scaling() {
        let w = metadata_storm(32, 4, false);
        let one = run_workload(&w, &prod(), &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1), 3);
        let ten = run_workload(&w, &prod(), &Middleware::plfs(ReadStrategy::ParallelIndexRead, 10), 3);
        let o1 = one.metrics.mean_duration_s(OpKind::OpenWrite);
        let o10 = ten.metrics.mean_duration_s(OpKind::OpenWrite);
        assert!(
            o1 > 2.0 * o10,
            "1 MDS open {o1} should be ≫ 10 MDS open {o10}"
        );
    }

    #[test]
    fn middleware_labels() {
        assert_eq!(Middleware::Direct.label(), "direct");
        assert_eq!(
            Middleware::plfs(ReadStrategy::IndexFlatten, 10).label(),
            "plfs-10(flatten)"
        );
    }
}
