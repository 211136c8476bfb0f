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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_respects_quick() {
        // Can't set env per-test safely in parallel; just exercise the
        // non-quick path.
        if !quick() {
            assert_eq!(scales(&[16, 64, 1024]), vec![16, 64, 1024]);
        }
    }
}
