//! Cross-crate integration tests of the simulated evaluation stack:
//! paper-level claims that must hold for the figures to be trustworthy.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a failed unwrap or expect is the test's failure report"
)]

use harness::{run_workload, run_workload_tweaked, ClusterProfile, Middleware};
use mpio::{OpKind, ReadStrategy};
use workloads::{ior, lanl1, metadata_storm, mpiio_test, nn_checkpoint};

fn prod() -> ClusterProfile {
    ClusterProfile::production_cluster()
}

#[test]
fn headline_write_speedup_is_an_order_of_magnitude_or_more() {
    let w = mpiio_test(64).write_only();
    let direct = run_workload(&w, &prod(), &Middleware::Direct, 1);
    let plfs = run_workload(
        &w,
        &prod(),
        &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
        1,
    );
    let speedup = plfs.metrics.effective_write_bandwidth()
        / direct.metrics.effective_write_bandwidth();
    assert!(
        speedup > 10.0,
        "expected ≥10x N-1 write speedup, got {speedup:.1}x"
    );
}

#[test]
fn original_read_open_scales_superlinearly() {
    // Doubling the job size should much-more-than-double Original's
    // read-open time (it is O(N²) opens), but not the optimized paths'.
    let open_time = |n: usize, s: ReadStrategy| {
        run_workload(&mpiio_test(n), &prod(), &Middleware::plfs(s, 1), 2)
            .metrics
            .mean_duration_s(OpKind::OpenRead)
    };
    // While the job still spreads one rank per node, every rank's opens
    // hit the metadata server (no client-cache dedup): N ranks × N index
    // logs = N² opens.
    let o16 = open_time(16, ReadStrategy::Original);
    let o64 = open_time(64, ReadStrategy::Original);
    assert!(
        o64 > 4.0 * o16,
        "Original should scale superlinearly: {o16} → {o64}"
    );
    let p16 = open_time(16, ReadStrategy::ParallelIndexRead);
    let p64 = open_time(64, ReadStrategy::ParallelIndexRead);
    assert!(
        p64 < 4.0 * p16.max(1e-3),
        "Parallel should scale mildly: {p16} → {p64}"
    );
    // And the optimized path is far cheaper at equal scale.
    assert!(o64 > 5.0 * p64);
}

#[test]
fn flatten_trades_write_close_for_read_open() {
    let run = |s| {
        run_workload(&mpiio_test(128), &prod(), &Middleware::plfs(s, 1), 3)
    };
    let flat = run(ReadStrategy::IndexFlatten);
    let parallel = run(ReadStrategy::ParallelIndexRead);
    assert!(
        flat.metrics.mean_duration_s(OpKind::CloseWrite)
            > parallel.metrics.mean_duration_s(OpKind::CloseWrite),
        "flatten must pay at close"
    );
    assert!(
        flat.metrics.mean_duration_s(OpKind::OpenRead)
            < parallel.metrics.mean_duration_s(OpKind::OpenRead),
        "flatten must win at read open"
    );
}

#[test]
fn federated_metadata_beats_single_mds_and_eventually_direct() {
    let w = metadata_storm(64, 8, false);
    let open = |mw: &Middleware| {
        run_workload(&w, &prod(), mw, 4)
            .metrics
            .mean_duration_s(OpKind::OpenWrite)
    };
    let direct = open(&Middleware::Direct);
    let plfs1 = open(&Middleware::plfs(ReadStrategy::ParallelIndexRead, 1));
    let plfs9 = open(&Middleware::plfs(ReadStrategy::ParallelIndexRead, 9));
    assert!(plfs1 > plfs9 * 3.0, "federation must help: {plfs1} vs {plfs9}");
    assert!(plfs1 > direct, "single-MDS PLFS pays the container burden");
    assert!(
        plfs9 < direct,
        "PLFS-9 should beat direct ({plfs9} vs {direct}) — Fig. 7a"
    );
}

#[test]
fn nn_reads_direct_and_plfs_are_comparable() {
    // Fig. 8a: N-N through PLFS tracks direct N-N closely.
    let w = nn_checkpoint(128);
    let direct = run_workload(&w, &prod(), &Middleware::Direct, 5)
        .metrics
        .effective_read_bandwidth();
    let plfs = run_workload(
        &w,
        &prod(),
        &Middleware::plfs(ReadStrategy::ParallelIndexRead, 10),
        5,
    )
    .metrics
    .effective_read_bandwidth();
    let ratio = plfs / direct;
    assert!(
        (0.5..=2.5).contains(&ratio),
        "N-N PLFS should be comparable to direct, ratio {ratio:.2}"
    );
}

#[test]
fn kernels_hit_their_paper_speedup_bands() {
    // IOR: paper says up to 4.5x read advantage; LANL1: up to 10x.
    let band = |w: &workloads::Workload, lo: f64, hi: f64| {
        let direct = run_workload(w, &prod(), &Middleware::Direct, 6)
            .metrics
            .effective_read_bandwidth();
        let plfs = run_workload(
            w,
            &prod(),
            &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
            6,
        )
        .metrics
        .effective_read_bandwidth();
        let r = plfs / direct;
        assert!(
            (lo..=hi).contains(&r),
            "{}: speedup {r:.2} outside [{lo}, {hi}]",
            w.name
        );
    };
    band(&ior(128), 2.0, 7.0);
    band(&lanl1(256), 5.0, 15.0);
}

#[test]
fn lock_cost_sensitivity_never_flips_the_write_result() {
    let w = mpiio_test(32).write_only();
    for factor in [0.1, 1.0, 10.0] {
        let direct = run_workload_tweaked(&w, &prod(), &Middleware::Direct, 7, |p| {
            p.lock_transfer_s *= factor;
        });
        let plfs = run_workload_tweaked(
            &w,
            &prod(),
            &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
            7,
            |p| p.lock_transfer_s *= factor,
        );
        assert!(
            plfs.metrics.effective_write_bandwidth()
                > direct.metrics.effective_write_bandwidth(),
            "PLFS must win writes even at lock factor {factor}"
        );
    }
}

#[test]
fn simulation_is_deterministic_and_seeds_differ() {
    let w = mpiio_test(32);
    let mw = Middleware::plfs(ReadStrategy::ParallelIndexRead, 2);
    let a = run_workload(&w, &prod(), &mw, 42);
    let b = run_workload(&w, &prod(), &mw, 42);
    let c = run_workload(&w, &prod(), &mw, 43);
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_ne!(a.makespan_s, c.makespan_s);
}

#[test]
fn cielo_profile_runs_a_large_job() {
    // A fast sanity run at 8192 ranks on the Cielo profile: completes,
    // moves the right bytes, and sustains plausible bandwidth.
    let w = mpiio_test(8192);
    let out = run_workload(
        &w,
        &ClusterProfile::cielo(),
        &Middleware::plfs(ReadStrategy::ParallelIndexRead, 10),
        8,
    );
    assert!(out.bytes_written >= w.write_bytes());
    let bw = out.metrics.effective_read_bandwidth();
    let peak = (ClusterProfile::cielo().pfs)(8192).net.aggregate_bw;
    assert!(bw > 0.05 * peak && bw < 10.0 * peak, "bw {bw}");
}

#[test]
fn shrunk_restart_reads_everything_with_fewer_ranks() {
    // Write with 64 ranks, restart with 16: all bytes come back, each
    // reader scanning whole logs sequentially (no seek storm).
    use mpio::{Ctx, Exec, Layout, PlfsDriver, PlfsDriverConfig};
    use pfs::SimPfs;
    use plfs::Federation;
    use workloads::shrunk_restart;

    let cluster = prod();
    let w = shrunk_restart(64, 16, 8 << 20, 64 * 1024);
    let (nodes, ppn) = cluster.placement(64);
    let params = (cluster.pfs)(nodes);
    let mut ctx = Ctx::new(SimPfs::new(params, 3), cluster.net(), Layout::new(64, ppn));
    let fed = Federation::single("/panfs", 16);
    let mut d = PlfsDriver::new(PlfsDriverConfig::new(
        fed,
        ReadStrategy::ParallelIndexRead,
    ));
    let prog = w.program();
    let res = Exec::new(&prog, &mut d, &mut ctx).run();
    // The cold restart read the whole checkpoint from storage.
    assert!(
        ctx.pfs.bytes_read() >= w.read_bytes(),
        "read {} of {}",
        ctx.pfs.bytes_read(),
        w.read_bytes()
    );
    assert!(res.metrics.effective_read_bandwidth() > 0.0);
    assert_eq!(ctx.pfs.lock_transfers(), 0);
}

#[test]
fn checkpoint_rotation_runs_and_reclaims() {
    use workloads::checkpoint_rotation;
    let w = checkpoint_rotation(32, 4, 2, 4 << 20, 64 * 1024);
    let plfs = run_workload(
        &w,
        &prod(),
        &Middleware::plfs(ReadStrategy::ParallelIndexRead, 2),
        9,
    );
    // Two generations written beyond keep → two container removals.
    assert_eq!(plfs.metrics.get(OpKind::Unlink).map(|s| s.count), Some(64));
    // (count is per rank: 2 collectives × 32 ranks)
    let direct = run_workload(&w, &prod(), &Middleware::Direct, 9);
    assert!(direct.metrics.get(OpKind::Unlink).is_some());
    // PLFS cleanup is heavier than a single direct unlink — log-structured
    // space reclaim walks the container.
    assert!(
        plfs.metrics.mean_duration_s(OpKind::Unlink)
            > direct.metrics.mean_duration_s(OpKind::Unlink)
    );
}

#[test]
fn timeline_shows_phase_structure() {
    use mpio::{Ctx, Exec, Layout, PlfsDriver, PlfsDriverConfig, Timeline};
    use pfs::SimPfs;
    use plfs::Federation;

    let cluster = prod();
    let w = mpiio_test(16);
    let (nodes, ppn) = cluster.placement(16);
    let mut ctx = Ctx::new(
        SimPfs::new((cluster.pfs)(nodes), 4),
        cluster.net(),
        Layout::new(16, ppn),
    );
    let mut d = PlfsDriver::new(PlfsDriverConfig::new(
        Federation::single("/panfs", 8),
        ReadStrategy::ParallelIndexRead,
    ));
    let prog = w.program();
    let mut tl = Timeline::new();
    let res = Exec::new(&prog, &mut d, &mut ctx).run_with_timeline(&mut tl);
    assert_eq!(tl.end(), res.makespan);
    // Every rank recorded every program step.
    for r in 0..16 {
        assert_eq!(tl.rank_spans(r).len(), prog_len(&w));
        // Ranks are busy most of the run (barriers count as busy).
        assert!(tl.rank_busy_fraction(r) > 0.8, "rank {r} mostly idle?");
    }
    // The Gantt renders with the write phase before the read phase.
    let g = tl.gantt(80);
    let row0 = g.lines().nth(1).unwrap();
    let wpos = row0.find('W').expect("write span");
    let rpos = row0.rfind('r').expect("read span");
    assert!(wpos < rpos, "writes must precede reads: {row0}");
}

fn prog_len(w: &workloads::Workload) -> usize {
    use mpio::ops::Program;
    w.program().len(0)
}

#[test]
fn burst_buffer_middleware_through_the_harness() {
    // The PlfsBurst middleware runs end-to-end and beats plain PLFS on
    // application-visible write bandwidth.
    let w = mpiio_test(64).write_only();
    let plain = run_workload(
        &w,
        &prod(),
        &Middleware::plfs(ReadStrategy::ParallelIndexRead, 1),
        12,
    );
    let burst = run_workload(
        &w,
        &prod(),
        &Middleware::plfs_burst(ReadStrategy::ParallelIndexRead, 1),
        12,
    );
    assert!(
        burst.metrics.effective_write_bandwidth()
            > 2.0 * plain.metrics.effective_write_bandwidth(),
        "burst {:.0} vs plain {:.0}",
        burst.metrics.effective_write_bandwidth(),
        plain.metrics.effective_write_bandwidth()
    );
    // Same bytes still reached the parallel file system.
    assert_eq!(burst.bytes_written, plain.bytes_written);
}
