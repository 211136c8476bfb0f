//! A simulated parallel file system — the substrate the paper's PLFS
//! middleware runs on top of.
//!
//! The paper evaluates PLFS on PanFS (and cites earlier results on GPFS
//! and Lustre). We cannot attach a Panasas system, so this crate models
//! the mechanisms those file systems share and that PLFS's transformations
//! exploit:
//!
//! * **Metadata servers** ([`sim::SimPfs`]'s metadata ops) — each namespace is
//!   served by one MDS modeled as a FIFO queue with per-operation service
//!   times. Create storms against one directory all land on one MDS: the
//!   N-N bottleneck of §V.
//! * **Stripe write locks** ([`locks`]) — shared-file writes must own the
//!   stripe they touch; ownership transfers serialize through a per-file
//!   lock service. This is the N-1 write penalty PLFS removes.
//! * **Object storage servers** — striped data placement, per-server
//!   bandwidth, seek penalties for non-sequential access and cheap
//!   streaming for sequential access (prefetch) — why PLFS's log appends
//!   and log-sequential reads win.
//! * **Storage network** — a shared channel pool with an aggregate
//!   bandwidth cap (1.25 GB/s on the production cluster).
//! * **Client page caches** ([`cache`]) — per-node LRU; re-reading data
//!   that was written on the same node bypasses the storage network,
//!   which is how the paper's Figure 4b exceeds the theoretical peak.
//!
//! All state advances in virtual time: every operation takes an arrival
//! [`simcore::SimTime`] and returns a completion time computed against the
//! contended resources.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        reason = "unit tests: a failed unwrap is the test's failure report"
    )
)]

pub mod batch;
pub mod cache;
pub mod locks;
pub mod params;
pub mod sim;
pub mod state;

pub use params::PfsParams;
pub use sim::{AccessMode, SimPfs};
