//! Shared plumbing for the figure binaries.
//!
//! Every binary regenerates one figure of the paper's evaluation
//! (`fig2`, `fig4`, `fig5`, `fig7`, `fig8`) or an ablation
//! (`ablate_*`). Run them with:
//!
//! ```text
//! cargo run -p plfs-bench --release --bin fig4
//! ```
//!
//! Environment knobs:
//!
//! * `FIG_REPS` — seeded repetitions per data point (default 5; the paper
//!   uses 10).
//! * `FIG_QUICK=1` — truncate the scale sweeps for smoke testing.

use harness::{repeat, ClusterProfile, Middleware, RunOutput, Series};
use simcore::Summary;
use workloads::Workload;

/// Repetitions per data point.
pub fn reps() -> u64 {
    if quick() {
        2
    } else {
        std::env::var("FIG_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5)
    }
}

/// Whether to run a truncated sweep.
pub fn quick() -> bool {
    std::env::var("FIG_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Keep only the scales small enough for quick mode.
pub fn scales(all: &[usize]) -> Vec<usize> {
    if quick() {
        all.iter().copied().filter(|&n| n <= 256).collect()
    } else {
        all.to_vec()
    }
}

/// Sweep one metric over scales for one middleware, producing a series.
pub fn sweep(
    label: &str,
    cluster: &ClusterProfile,
    mw: &Middleware,
    scales: &[usize],
    workload: impl Fn(usize) -> Workload,
    metric: impl Fn(&RunOutput) -> f64 + Copy,
) -> Series {
    let mut s = Series::new(label);
    for &n in scales {
        let w = workload(n);
        let summary: Summary = repeat(&w, cluster, mw, reps(), 1000 + n as u64, metric);
        s.push(n as u64, &summary);
    }
    s
}

/// One-line engine report for a run — wall-clock, events, events/sec,
/// peak live events — appended to the large-scale figure panels.
pub fn engine_line(label: &str, o: &RunOutput) -> String {
    format!(
        "# engine[{label}]: {} events in {:.2}s wall ({:.0} events/s), peak {} live",
        o.events, o.wall_s, o.events_per_sec, o.peak_live_events
    )
}

/// Measured (not simulated) index-aggregation kernel timings shared by
/// the figure binaries: the real `plfs` index machinery run on this
/// host, so the figures can report the cost of the aggregation step the
/// simulator charges via `merge_ns_per_entry`.
pub mod agg_kernel {
    use plfs::{GlobalIndex, IndexEntry};
    use std::time::Instant;

    /// N-1 strided checkpoint entries: `writers × per_writer` blocks.
    pub fn strided_entries(writers: u64, per_writer: u64, block: u64) -> Vec<IndexEntry> {
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

    /// Reference aggregation: one precedence-resolving insert per entry —
    /// the hot path the sorted-run bulk build replaced.
    pub fn build_via_insert(entries: &[IndexEntry]) -> GlobalIndex {
        let mut g = GlobalIndex::new();
        for e in entries {
            g.insert(e);
        }
        g
    }

    /// Wall-clock seconds of `f`, best of `reps` runs.
    pub fn time_s<T>(reps: u64, mut f: impl FnMut() -> T) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            std::hint::black_box(f());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_kernel_paths_agree() {
        let entries = agg_kernel::strided_entries(8, 16, 4096);
        let bulk = plfs::GlobalIndex::from_entries(entries.clone());
        assert_eq!(bulk, agg_kernel::build_via_insert(&entries));
        assert!(agg_kernel::time_s(1, || 0) >= 0.0);
    }

    #[test]
    fn scales_respects_quick() {
        // Can't set env per-test safely in parallel; just exercise the
        // non-quick path.
        if !quick() {
            assert_eq!(scales(&[16, 64, 1024]), vec![16, 64, 1024]);
        }
    }
}
