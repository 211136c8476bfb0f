//! Experiment harness: calibrated cluster profiles, the runner that wires
//! workloads × middleware × cluster into simulation runs, repetition
//! statistics, and the table/series printers the figure binaries use.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        reason = "unit tests: a failed unwrap is the test's failure report"
    )
)]

pub mod profiles;
pub mod report;
mod runner;

pub use profiles::ClusterProfile;
pub use report::{render_figure, render_table, Series};
pub use runner::{repeat, run_workload, run_workload_tweaked, Middleware, RunOutput};
