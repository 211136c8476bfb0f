//! MPI-IO-like substrate over the simulator.
//!
//! Real PLFS gained its read-scaling optimizations by living inside the
//! MPI-IO library: the ADIO driver inherits communicators, so index
//! aggregation can be choreographed as collectives (§II, §IV of the
//! paper). This crate plays that role for the simulation:
//!
//! * [`ops`] — the logical I/O program each rank executes (open / write /
//!   read / close / barrier / exchange), produced by the `workloads`
//!   crate;
//! * [`exec`] — the discrete-event loop that interleaves thousands of
//!   ranks over the shared `pfs` resources and collects per-phase metrics;
//! * [`direct`] — the baseline driver: logical ops go straight to the
//!   underlying parallel file system (shared-file writes take stripe
//!   locks, strided reads defeat prefetch);
//! * [`PlfsDriver`] — the transformative middleware driver: logical ops
//!   are rewritten into container operations (log appends, index logs,
//!   federated metadata) with all three read-open strategies: Original,
//!   Index Flatten, and Parallel Index Read;
//! * [`burst`] — a burst-buffer wrapper around any driver (node-local
//!   absorb, asynchronous drain — the related-work extension);
//! * [`Timeline`] — opt-in per-rank op recording with an ASCII Gantt
//!   renderer for understanding small runs.
//!
//! The PLFS driver's op sequences are validated against recordings of the
//! *real* `plfs` library (its `TracingBackend`) by integration tests, so
//! the cost model cannot silently drift from what the middleware does.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::panic,
        reason = "unit tests: a failed unwrap or panic is the test's failure report"
    )
)]

pub mod burst;
pub mod direct;
pub mod driver;
pub mod exec;
pub mod layout;
pub mod metrics;
pub mod ops;
mod plfs_driver;
mod timeline;

pub use burst::{BurstDriver, BurstParams};
pub use direct::DirectDriver;
pub use driver::{Ctx, Driver, Step};
pub use exec::Exec;
pub use layout::Layout;
pub use metrics::{Metrics, OpKind};
pub use ops::{FileTag, LogicalOp, ReadSrc};
pub use plfs_driver::{PlfsDriver, PlfsDriverConfig, ReadStrategy};
pub use timeline::Timeline;
