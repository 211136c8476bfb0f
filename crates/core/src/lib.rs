//! PLFS-style transformative I/O middleware.
//!
//! This crate is the paper's primary contribution: a *Parallel
//! Log-structured File System* middleware layer that preserves an
//! application's logical view of a shared file while transforming the
//! physical I/O into a pattern the underlying parallel file system can
//! serve efficiently.
//!
//! The key transformation turns **N-1** workloads (N processes writing one
//! shared file) into **N-N** workloads: every writer is transparently
//! redirected to append to its own *data log* inside a **container** — a
//! physical directory that shares the name of the logical file — and a
//! record of each write is appended to the writer's *index log*. Random
//! logical writes therefore become sequential physical appends, and the
//! expensive work of resolving logical offsets is deferred from write time
//! to read time (§II of the paper).
//!
//! Read-time offset resolution is handled by the [`index`] module: per
//! writer index logs are merged into a [`index::GlobalIndex`] that resolves
//! overwrites by timestamp. The paper's two read-scaling contributions —
//! **Index Flatten** (aggregate the global index at write close) and
//! **Parallel Index Read** (hierarchical aggregation at read open) — are
//! supported here by container-level mechanics ([`container::Container::write_flattened_runs`],
//! per-subindex reads) while the collective choreography lives in the
//! `mpio` crate, mirroring how real PLFS implements them inside its MPI-IO
//! (ADIO) driver.
//!
//! The paper's third contribution, **federated metadata management**,
//! is implemented by [`federation`]: static hashing spreads containers and
//! the subdirs *within* a container across multiple metadata namespaces.
//!
//! Everything operates over a pluggable [`backend::Backend`] so that the
//! same middleware code runs:
//!
//! * un-simulated over [`memfs::MemFs`] (in-memory, byte-verified tests)
//!   and [`localfs::LocalFs`] (a real directory on a real file system —
//!   what the FUSE mount would provide), and
//! * time-simulated over the `pfs` crate's parallel file system model via
//!   the `mpio` crate (which validates its op traces against
//!   [`backend::TracingBackend`] recordings of this crate).
//!
//! Runtime observability — spans, counters, and latency histograms over
//! every hot path above — lives in [`telemetry`] and exports through
//! [`telemetry::TelemetrySnapshot`] (`plfsctl obs` renders it).

#![warn(missing_docs)]

pub mod backend;
pub mod container;
pub mod content;
pub mod error;
pub mod faults;
pub mod federation;
pub mod fsck;
pub mod index;
mod indexcache;
pub mod ioplane;
pub mod localfs;
pub mod memfs;
pub mod path;
pub mod reader;
pub mod service;
pub mod telemetry;
pub mod truncate;
pub mod vfs;
pub mod writer;

pub use backend::{Backend, Reactor, Ticket, TracingBackend};
pub use container::Container;
pub use content::Content;
pub use error::{retry_transient, PlfsError, Result, DEFAULT_RETRY_ATTEMPTS};
pub use faults::{FaultBackend, FaultConfig, FaultStats};
pub use federation::Federation;
pub use index::{GlobalIndex, IndexEntry, IndexSource, Mapping, OnDiskIndex, SpanCache, WriterId};
pub use ioplane::{IoOp, IoOutcome, IoStats, IoValue};
pub use localfs::LocalFs;
pub use memfs::MemFs;
pub use service::{Admitted, Service, ServiceConfig, SvcHandle};
pub use telemetry::TelemetrySnapshot;
pub use vfs::{Plfs, PlfsConfig};
