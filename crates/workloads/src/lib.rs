//! HPC I/O workload generators — the applications of the paper's
//! evaluation, reproduced from their documented access patterns.
//!
//! | Kernel | Paper section | Pattern |
//! |---|---|---|
//! | MPI-IO Test | §IV-C (Fig. 4) | N-1 strided, 50 MB/proc in 50 KB ops |
//! | Pixie3D | §IV-D.1 (Fig. 5a) | pnetcdf-lite, 1 GB/proc, weak scaling |
//! | ARAMCO | §IV-D.2 (Fig. 5b) | hdf5-lite, strong scaling (fixed total) |
//! | IOR | §IV-D.3 (Fig. 5c) | N-1, 50 MB/proc in 1 MB ops |
//! | MADbench | §IV-D.4 (Fig. 5d) | write file, read it back entirely |
//! | LANL 1 | §IV-D.5 (Fig. 5e) | weak scaling, ~500 KB strided |
//! | LANL 3 | §IV-D.6 (Fig. 5f) | strong scaling, 32 GB total, 1 KB ops with collective buffering |
//! | N-N storm | §V (Fig. 7) | open/close many files per process |
//!
//! Each kernel produces an [`mpio::ops::Program`]: a per-rank logical op
//! sequence (open / strided or segmented write bursts / close / barrier /
//! read-back with source hints). Read-back uses a configurable *rank
//! shift* — reading the neighbour rank's data — which is how benchmarks
//! defeat (or, at high ranks-per-node, accidentally hit) client caches;
//! see `pattern::IoPattern::read_op`.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::panic,
        reason = "unit tests: a failed unwrap or panic is the test's failure report"
    )
)]

mod fmtlib;
pub mod kernels;
pub mod metadata;
pub mod pattern;
pub mod restart;
mod rotation;
pub mod spec;
pub mod traffic;

pub use kernels::{aramco, ior, lanl1, lanl3, madbench, mpiio_test, nn_checkpoint, pixie3d, Kernel};
pub use metadata::metadata_storm;
pub use pattern::IoPattern;
pub use restart::shrunk_restart;
pub use rotation::checkpoint_rotation;
pub use spec::Workload;
pub use traffic::{ClientOp, TrafficEvent, TrafficSpec};
