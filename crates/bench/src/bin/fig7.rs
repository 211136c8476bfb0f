//! Figure 7 — metadata performance with federated metadata servers
//! (§V): an N-N create storm (every process opens and closes many files)
//! under PLFS with 1/3/6/9 metadata servers vs direct access.
//!
//!   (a) open (including create) time vs number of files
//!   (b) close time vs number of files

use harness::{render_figure, repeat, ClusterProfile, Middleware, Series};
use mpio::{OpKind, ReadStrategy};
use plfs_bench::reps;
use workloads::metadata_storm;

fn main() {
    let cluster = ClusterProfile::production_cluster();
    let nprocs = 64;
    let files_per_proc: Vec<u64> = if plfs_bench::quick() {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };

    let mut middlewares: Vec<(String, Middleware)> = vec![("W/O PLFS".into(), Middleware::Direct)];
    for mds in [1usize, 3, 6, 9] {
        middlewares.push((
            format!("PLFS-{mds}"),
            Middleware::plfs(ReadStrategy::ParallelIndexRead, mds),
        ));
    }

    let mut opens: Vec<Series> = Vec::new();
    let mut closes: Vec<Series> = Vec::new();
    for (label, mw) in &middlewares {
        let mut so = Series::new(label.clone());
        let mut sc = Series::new(label.clone());
        for &fpp in &files_per_proc {
            let w = metadata_storm(nprocs, fpp, false);
            let total_files = nprocs as u64 * fpp;
            let open = repeat(&w, &cluster, mw, reps(), 7, |o| {
                o.metrics.mean_duration_s(OpKind::OpenWrite)
            });
            let close = repeat(&w, &cluster, mw, reps(), 7, |o| {
                o.metrics.mean_duration_s(OpKind::CloseWrite)
            });
            so.push(total_files, &open);
            sc.push(total_files, &close);
        }
        opens.push(so);
        closes.push(sc);
    }

    println!(
        "{}",
        render_figure(
            &format!("Figure 7a: N-N Open Time ({nprocs} procs)"),
            "files",
            "seconds",
            &opens
        )
    );
    println!(
        "{}",
        render_figure(
            &format!("Figure 7b: N-N Close Time ({nprocs} procs)"),
            "files",
            "seconds",
            &closes
        )
    );
    // 65,536-proc extension (DESIGN.md §5g): the same create storm at
    // one file per process on the Cielo profile — the full-machine N-N
    // open burst the paper's federation argument targets.
    if !plfs_bench::quick() {
        let cielo = ClusterProfile::cielo();
        let w = metadata_storm(65_536, 1, false);
        println!("# Figure 7 @ 65,536 procs, 1 file/proc (Cielo profile, 1 run, seed 42):");
        for (label, mw) in &middlewares {
            let o = harness::run_workload(&w, &cielo, mw, 42);
            println!(
                "#   {label}: open {:.4}s, close {:.4}s",
                o.metrics.mean_duration_s(OpKind::OpenWrite),
                o.metrics.mean_duration_s(OpKind::CloseWrite),
            );
        }
        println!();
    }

    println!("# Paper shapes: (a) open time falls as MDS count rises; PLFS-6/PLFS-9 beat");
    println!("# direct access despite the container-creation burden. (b) close time also");
    println!("# falls with MDS count, but close is so light that direct access wins it");
    println!("# everywhere.");
}
