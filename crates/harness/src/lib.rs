//! Experiment harness: calibrated cluster profiles, the runner that wires
//! workloads × middleware × cluster into simulation runs, repetition
//! statistics, and the table/series printers the figure binaries use.

pub mod profiles;
pub mod report;
pub mod runner;

pub use profiles::ClusterProfile;
pub use report::{render_figure, render_table, Point, Series};
pub use runner::{repeat, run_workload, run_workload_tweaked, Middleware, RunOutput};
