//! Discrete-event simulation core for the Transformative I/O reproduction.
//!
//! This crate provides the primitives every simulated subsystem builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time, totally
//!   ordered and deterministic (no floating-point drift in the event queue).
//! * [`EventQueue`] — a min-heap of timestamped events with FIFO tie-breaking;
//!   retained as the differential-testing oracle for the arena scheduler.
//! * [`EventArena`] — the production event scheduler: a
//!   calendar queue over flat `(time, seq, kind, arg)` records with O(1)
//!   amortized pops, behind the same stable-FIFO contract.
//! * [`Fifo`] — a multi-server first-come-first-served resource with
//!   earliest-free-server bookkeeping; models metadata servers, object
//!   storage servers, and network channels.
//! * [`rng`] — small deterministic RNG helpers for seeded service-time
//!   jitter so repeated runs produce error bars, reproducibly.
//! * [`stats`] — streaming summary statistics (mean/std/min/max/percentiles)
//!   used by the experiment harness.
//!
//! The engine is deliberately *passive*: the simulation loop itself lives in
//! higher layers (`mpio::exec`) where ranks, middleware, and the simulated
//! parallel file system meet. Keeping the core passive makes each primitive
//! independently testable.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "unit tests: a failed unwrap or expect is the test's failure report"
    )
)]

pub mod arena;
mod calendar;
pub mod events;
mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use arena::EventArena;
pub use calendar::Calendar;
pub use events::EventQueue;
pub use resource::{Fifo, Grant};
pub use rng::Jitter;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
