//! Figure 4 — the read-scaling study on the production cluster
//! (§IV-C): MPI-IO Test, each stream writing/reading 50 MB in 50 KB
//! increments, comparing the Original PLFS design against Index Flatten
//! and Parallel Index Read at up to 2,048 concurrent streams.
//!
//! Prints four panels:
//!   (a) read open time (index aggregation) vs streams
//!   (b) effective read bandwidth (open+read+close) vs streams
//!   (c) write close time vs streams
//!   (d) effective write bandwidth vs streams

use harness::{render_figure, ClusterProfile, Middleware};
use mpio::{OpKind, ReadStrategy};
use plfs_bench::{scales, sweep};
use workloads::mpiio_test;

fn main() {
    let cluster = ClusterProfile::production_cluster();
    let xs = scales(&[16, 64, 256, 1024, 2048]);
    let strategies = [
        ("Original", ReadStrategy::Original),
        ("Index Flatten", ReadStrategy::IndexFlatten),
        ("Parallel Index Read", ReadStrategy::ParallelIndexRead),
    ];

    let panel = |metric: fn(&harness::RunOutput) -> f64| -> Vec<harness::Series> {
        strategies
            .iter()
            .map(|(label, strategy)| {
                sweep(
                    label,
                    &cluster,
                    &Middleware::plfs(*strategy, 1),
                    &xs,
                    mpiio_test,
                    metric,
                )
            })
            .collect()
    };

    let a = panel(|o| o.metrics.mean_duration_s(OpKind::OpenRead));
    println!(
        "{}",
        render_figure("Figure 4a: Read Open Time", "streams", "seconds", &a)
    );

    let b = panel(|o| o.metrics.effective_read_bandwidth() / 1e6);
    println!(
        "{}",
        render_figure("Figure 4b: Read Bandwidth", "streams", "MB/s", &b)
    );

    let c = panel(|o| o.metrics.mean_duration_s(OpKind::CloseWrite));
    println!(
        "{}",
        render_figure("Figure 4c: Write Close Time", "streams", "seconds", &c)
    );

    let d = panel(|o| o.metrics.effective_write_bandwidth() / 1e6);
    println!(
        "{}",
        render_figure("Figure 4d: Write Bandwidth", "streams", "MB/s", &d)
    );

    // 65,536-stream extension (DESIGN.md §5g): the two scalable designs
    // at the Cielo scale the paper targets. Original is omitted at this
    // scale only because its uncoordinated read open is N² index opens
    // (~4.3 billion at 65,536 streams) — exactly the collapse panel (a)
    // extrapolates from the measured 16–2,048 range.
    if !plfs_bench::quick() {
        let cielo = ClusterProfile::cielo();
        println!("# Figure 4 @ 65,536 streams (Cielo profile, 1 run, seed 42):");
        for (label, strategy) in [
            ("Index Flatten", ReadStrategy::IndexFlatten),
            ("Parallel Index Read", ReadStrategy::ParallelIndexRead),
        ] {
            let o = harness::run_workload(
                &mpiio_test(65_536),
                &cielo,
                &Middleware::plfs(strategy, 1),
                42,
            );
            println!(
                "#   {label}: read open {:.3}s, read bw {:.0} MB/s, write close {:.3}s, write bw {:.0} MB/s",
                o.metrics.mean_duration_s(OpKind::OpenRead),
                o.metrics.effective_read_bandwidth() / 1e6,
                o.metrics.mean_duration_s(OpKind::CloseWrite),
                o.metrics.effective_write_bandwidth() / 1e6,
            );
        }
        println!();
    }

    println!("# Paper shapes: (a) Original grows superlinearly, optimizations ~4x faster");
    println!("# at 2048; (b) ~3x read-bandwidth win at 2048, caching pushes values past");
    println!("# the 1250 MB/s network peak at ≥1024 streams; (c/d) Index Flatten pays a");
    println!("# higher close time / lower write bandwidth with more variance.");
}
