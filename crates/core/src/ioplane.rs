//! The unified physical I/O plane: one op vocabulary for every layer.
//!
//! PLFS is a *transformation* layer — it rewrites logical I/O into a
//! different physical pattern — yet for a long time its physical plane
//! was a one-call-at-a-time [`Backend`] trait that every layer (writer
//! flush, parallel index read, fsck scans, federation mkdir storms, the
//! mpio simulation driver) invoked ad hoc, each re-implementing
//! coalescing, retry, fault handling, and accounting. This module is the
//! fix, following the list-I/O lesson of noncontiguous-I/O systems:
//! describe work as data ([`IoOp`]), submit it in batches, and get
//! per-op results back ([`IoOutcome`]).
//!
//! * [`IoOp`] is the closed vocabulary of physical operations. The same
//!   values are executed by real backends ([`Backend::submit`]), recorded
//!   by [`crate::backend::TracingBackend`], and replayed by the `mpio`
//!   simulation driver's cost model — one vocabulary across the real path
//!   and the simulated path, so recordings and simulations are
//!   structurally comparable.
//! * [`Backend::submit`] executes a batch **in order** with per-op
//!   outcomes: a failed op never aborts the ops after it (partial-batch
//!   outcomes, no all-or-nothing semantics). It is the one method a
//!   backend implements; `MemFs` executes a whole batch under a single
//!   lock acquisition and `LocalFs` groups adjacent same-file appends
//!   and reads over one descriptor.
//! * [`submit_retried`] is the plane's entry point for middleware call
//!   sites: it layers bounded per-op transient retry **and** the plane
//!   totals (telemetry counters) on top of any backend. Retries
//!   re-submit only the ops that failed transiently — an op that
//!   succeeded is never executed again (re-sending an acknowledged
//!   append would duplicate bytes).
//! * [`stats`] reads the default telemetry recorder's plane totals (ops
//!   issued, batches submitted, bytes moved, transient retries), and
//!   [`reset_stats`] resets that recorder; the coalesce ratio
//!   `ops / batches` is the plane's figure of merit.
//!
//! The authoritative op table (kinds, batchability, retry class) lives in
//! DESIGN.md §5e; `tests/contracts.rs` keeps this enum and that table in
//! lockstep.

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{
    next_backoff_us, PlfsError, Result, DEFAULT_RETRY_ATTEMPTS, RETRY_BACKOFF_START_US,
};
use crate::telemetry;

/// One physical operation against the underlying file system.
///
/// This is the plane's whole vocabulary: every physical effect the
/// middleware can request is one of these values, whether it is executed
/// for real, recorded in a trace, or charged by the simulator's cost
/// model. `Append` carries its [`Content`] (payloads are refcounted
/// `Bytes` or symbolic synthetics, so cloning an op is cheap), which
/// makes a recorded trace *replayable*: submitting it to a fresh backend
/// reproduces the original file state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// Create a directory; parent must exist.
    Mkdir {
        /// Directory to create.
        path: String,
    },
    /// Create a directory and any missing ancestors.
    MkdirAll {
        /// Directory to create, ancestors included.
        path: String,
    },
    /// Create an empty file (exclusive: fail if present).
    Create {
        /// File to create.
        path: String,
        /// Fail with `AlreadyExists` if the file is present.
        exclusive: bool,
    },
    /// Append content; outcome is the physical landing offset.
    Append {
        /// File to append to.
        path: String,
        /// Bytes (or symbolic synthetic extent) to append.
        content: Content,
    },
    /// Read `len` bytes at `offset` (short at EOF).
    ReadAt {
        /// File to read from.
        path: String,
        /// Byte offset to read at.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// File size in bytes.
    Size {
        /// File to measure.
        path: String,
    },
    /// What the path names (the existence/attribute probe).
    Kind {
        /// Path to probe.
        path: String,
    },
    /// Sorted entry names of a directory.
    Readdir {
        /// Directory to list.
        path: String,
    },
    /// Remove a file.
    Unlink {
        /// File to remove.
        path: String,
    },
    /// Remove a directory tree.
    RemoveAll {
        /// Root of the tree to remove.
        path: String,
    },
    /// Atomic rename.
    Rename {
        /// Current path.
        from: String,
        /// New path.
        to: String,
    },
}

impl IoOp {
    /// Is this a metadata operation (served by an MDS) as opposed to a
    /// data transfer (served by storage servers)?
    pub fn is_metadata(&self) -> bool {
        !matches!(self, IoOp::Append { .. } | IoOp::ReadAt { .. })
    }

    /// The primary path the op targets (`Rename` reports its source).
    pub fn path(&self) -> &str {
        match self {
            IoOp::Mkdir { path }
            | IoOp::MkdirAll { path }
            | IoOp::Create { path, .. }
            | IoOp::Append { path, .. }
            | IoOp::ReadAt { path, .. }
            | IoOp::Size { path }
            | IoOp::Kind { path }
            | IoOp::Readdir { path }
            | IoOp::Unlink { path }
            | IoOp::RemoveAll { path } => path,
            IoOp::Rename { from, .. } => from,
        }
    }

    /// The telemetry latency histogram this op variant records into
    /// (the `HIST_IOPLANE_*` vocabulary, DESIGN.md §5f).
    pub(crate) fn hist_name(&self) -> &'static str {
        match self {
            IoOp::Mkdir { .. } => telemetry::HIST_IOPLANE_MKDIR,
            IoOp::MkdirAll { .. } => telemetry::HIST_IOPLANE_MKDIR_ALL,
            IoOp::Create { .. } => telemetry::HIST_IOPLANE_CREATE,
            IoOp::Append { .. } => telemetry::HIST_IOPLANE_APPEND,
            IoOp::ReadAt { .. } => telemetry::HIST_IOPLANE_READ_AT,
            IoOp::Size { .. } => telemetry::HIST_IOPLANE_SIZE,
            IoOp::Kind { .. } => telemetry::HIST_IOPLANE_KIND,
            IoOp::Readdir { .. } => telemetry::HIST_IOPLANE_READDIR,
            IoOp::Unlink { .. } => telemetry::HIST_IOPLANE_UNLINK,
            IoOp::RemoveAll { .. } => telemetry::HIST_IOPLANE_REMOVE_ALL,
            IoOp::Rename { .. } => telemetry::HIST_IOPLANE_RENAME,
        }
    }
}

/// The successful result of one [`IoOp`], mirroring the per-op return
/// types of [`Backend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoValue {
    /// Structural ops (mkdir, create, unlink, remove_all, rename).
    Unit,
    /// `Append`: the physical offset the content landed at.
    Offset(u64),
    /// `Size`.
    Size(u64),
    /// `Kind`.
    Kind(NodeKind),
    /// `ReadAt`.
    Data(Content),
    /// `Readdir`.
    Names(Vec<String>),
}

/// Per-op outcome of a batch: exactly what the same op alone in a batch
/// would have returned.
pub type IoOutcome = Result<IoValue>;

// ---------------------------------------------------------------------
// Outcome accessors: call sites know which op they built at each index,
// so these convert an outcome back to the per-op return type. A variant
// mismatch is a plane bug, surfaced as a typed error, never a panic.

fn mismatch(want: &'static str, got: &IoValue) -> PlfsError {
    PlfsError::InvalidArg(format!(
        "io plane outcome mismatch: wanted {want}, got {got:?}"
    ))
}

/// Outcome of a structural op (`Mkdir`/`Create`/`Unlink`/...).
pub(crate) fn as_unit(o: IoOutcome) -> Result<()> {
    match o? {
        IoValue::Unit => Ok(()),
        v => Err(mismatch("unit", &v)),
    }
}

/// Outcome of an `Append`: physical landing offset.
pub(crate) fn as_offset(o: IoOutcome) -> Result<u64> {
    match o? {
        IoValue::Offset(n) => Ok(n),
        v => Err(mismatch("offset", &v)),
    }
}

/// Outcome of a `Size`.
pub fn as_size(o: IoOutcome) -> Result<u64> {
    match o? {
        IoValue::Size(n) => Ok(n),
        v => Err(mismatch("size", &v)),
    }
}

/// Outcome of a `Kind`.
pub(crate) fn as_kind(o: IoOutcome) -> Result<NodeKind> {
    match o? {
        IoValue::Kind(k) => Ok(k),
        v => Err(mismatch("kind", &v)),
    }
}

/// Outcome of a `ReadAt`.
pub fn as_data(o: IoOutcome) -> Result<Content> {
    match o? {
        IoValue::Data(c) => Ok(c),
        v => Err(mismatch("data", &v)),
    }
}

/// Outcome of a `Readdir`.
pub fn as_names(o: IoOutcome) -> Result<Vec<String>> {
    match o? {
        IoValue::Names(n) => Ok(n),
        v => Err(mismatch("names", &v)),
    }
}

/// Submit `op` to `b` as a one-op batch, unretried and uncounted, and
/// take its outcome: the lowering behind every provided per-op
/// [`Backend`] method, and one step of [`replay`].
pub(crate) fn lower<B: Backend + ?Sized>(b: &B, op: &IoOp) -> IoOutcome {
    take(&mut b.submit(std::slice::from_ref(op)).into_iter())
}

/// Pull the next outcome from a consumed batch result. `submit` returns
/// exactly one outcome per op; a backend that broke that contract
/// surfaces as a typed error here, never a panic.
pub fn take(outcomes: &mut std::vec::IntoIter<IoOutcome>) -> IoOutcome {
    outcomes.next().unwrap_or_else(|| {
        Err(PlfsError::Io(
            "backend returned fewer outcomes than ops".into(),
        ))
    })
}

// ---------------------------------------------------------------------
// Plane totals: five telemetry counters (DESIGN.md §5f), counted in
// `submit_retried` for every backend while the thread records.

/// The plane totals of the default telemetry recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Batches submitted through the plane.
    pub batches: u64,
    /// Ops issued (first submissions, not counting retries).
    pub ops: u64,
    /// Transiently-failed ops that were re-submitted.
    pub retries: u64,
    /// Bytes successfully appended.
    pub bytes_written: u64,
    /// Bytes successfully read.
    pub bytes_read: u64,
}

impl IoStats {
    /// Ops per submitted batch — the plane's figure of merit. 1.0 means
    /// nothing is batched; the refactored call sites push this up.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// Read the plane totals the default recorder holds: what the plane
/// counted while `telemetry::set_enabled` had recording on.
pub fn stats() -> IoStats {
    IoStats {
        batches: telemetry::counter(telemetry::CTR_IOPLANE_BATCHES),
        ops: telemetry::counter(telemetry::CTR_IOPLANE_OPS),
        retries: telemetry::counter(telemetry::CTR_IOPLANE_RETRIES),
        bytes_written: telemetry::counter(telemetry::CTR_IOPLANE_BYTES_WRITTEN),
        bytes_read: telemetry::counter(telemetry::CTR_IOPLANE_BYTES_READ),
    }
}

/// Zero the default recorder, plane totals included: the same as
/// `telemetry::reset` (benchmark harnesses bracket runs with this).
pub fn reset_stats() {
    telemetry::reset();
}

/// Submit a batch through the plane: one [`Backend::submit`] call, then
/// bounded per-op transient retry with capped exponential backoff.
///
/// Only ops whose outcome is [`PlfsError::Transient`] are re-submitted —
/// and only those, so an op that already succeeded is **never executed
/// twice** (re-sending an acknowledged append would duplicate its
/// bytes). Non-transient failures are final immediately; ops after a
/// failed op still run (partial-batch outcomes). While the thread
/// records, the plane totals are counted here, uniformly for every
/// backend.
pub fn submit_retried<B: Backend + ?Sized>(b: &B, batch: &[IoOp]) -> Vec<IoOutcome> {
    crate::sync::check_io();
    if batch.is_empty() {
        return Vec::new();
    }
    let _span = telemetry::span(telemetry::SPAN_IOPLANE_SUBMIT);
    let t0 = telemetry::enabled().then(std::time::Instant::now);
    let mut outcomes = b.submit(batch);
    let batch_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
    debug_assert_eq!(
        outcomes.len(),
        batch.len(),
        "submit must be 1:1 with its batch"
    );
    let mut backoff_us = RETRY_BACKOFF_START_US;
    for _ in 1..DEFAULT_RETRY_ATTEMPTS {
        let pending: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Err(e) if e.is_transient()))
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(backoff_us));
        backoff_us = next_backoff_us(backoff_us);
        telemetry::count(telemetry::CTR_IOPLANE_RETRIES, pending.len() as u64);
        let retry_batch: Vec<IoOp> = pending.iter().map(|&i| batch[i].clone()).collect();
        let retried = b.submit(&retry_batch);
        for (slot, outcome) in pending.into_iter().zip(retried) {
            outcomes[slot] = outcome;
        }
    }
    if let Some(batch_ns) = batch_ns {
        // Per-op latency inside a native batched submit is unobservable,
        // so the per-variant histograms record the batch's *amortized*
        // per-op latency (batch duration / batch length) — DESIGN.md §5f.
        let per_op_ns = batch_ns / batch.len() as u64;
        telemetry::record(|r| {
            r.record_ns(telemetry::HIST_IOPLANE_BATCH, batch_ns);
            r.count(telemetry::CTR_IOPLANE_BATCHES, 1);
            r.count(telemetry::CTR_IOPLANE_OPS, batch.len() as u64);
            for (op, out) in batch.iter().zip(&outcomes) {
                r.record_ns(op.hist_name(), per_op_ns);
                match (op, out) {
                    (IoOp::Append { content, .. }, Ok(_)) => {
                        r.count(telemetry::CTR_IOPLANE_BYTES_WRITTEN, content.len())
                    }
                    (IoOp::ReadAt { .. }, Ok(IoValue::Data(c))) => {
                        r.count(telemetry::CTR_IOPLANE_BYTES_READ, c.len())
                    }
                    _ => {} // structural op or failure: no bytes moved
                }
            }
        });
    }
    outcomes
}

/// Submit one op through the plane: [`submit_retried`] of a one-op batch.
pub fn submit_one<B: Backend + ?Sized>(b: &B, op: IoOp) -> IoOutcome {
    take(&mut submit_retried(b, std::slice::from_ref(&op)).into_iter())
}

/// Whether `path` exists, by one retried `Kind` probe. Only a definitive
/// `NotFound` means "no": a probe that still fails after its retries
/// proves nothing about absence, so it reports existence and the caller
/// falls through to the operation that surfaces the real error.
pub fn exists<B: Backend + ?Sized>(b: &B, path: &str) -> bool {
    !matches!(
        submit_one(b, IoOp::Kind { path: path.into() }),
        Err(PlfsError::NotFound(_))
    )
}

/// Replay a recorded op sequence against a backend, one op per
/// [`Backend::submit`] — the structural inverse of tracing, and the
/// sequential reference a native batched `submit` must match. Because
/// `Append` ops carry their content, replaying a `TracingBackend`
/// recording onto a fresh backend reproduces the original file state and
/// (re-traced) the identical op sequence; `tests/trace_fidelity.rs` pins
/// that round trip.
pub fn replay<B: Backend + ?Sized>(b: &B, ops: &[IoOp]) -> Vec<IoOutcome> {
    crate::sync::check_io();
    ops.iter().map(|op| lower(b, op)).collect()
}

// ---------------------------------------------------------------------
// List I/O: many byte ranges of one or more files as one plane submission
// — the PVFS list-I/O idiom. The planner coalesces touching ranges of a
// file into single `ReadAt` ops, the whole set goes down as ONE
// `Backend::submit`, and each caller range is located inside the
// coalesced reads, to be sliced (a refcount bump on real bytes) or
// copied straight into the caller's buffer.

/// A list read across files: the coalesced `ReadAt` batch and, once
/// submitted, its reads. Reusable: [`ListReadPlan::clear`] keeps the
/// allocations, so a caller on a hot path keeps one plan as scratch.
#[derive(Debug, Default)]
pub(crate) struct ListReadPlan {
    ops: Vec<IoOp>,
    reads: Vec<Content>,
}

impl ListReadPlan {
    /// Forget the planned ops and their reads, keeping the allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.reads.clear();
    }

    /// Plan `len` bytes of `path` at `offset`, and return where they will
    /// be: the index of the read that holds them and their offset inside
    /// it. A piece that touches or overlaps the last planned op's range
    /// of the same path joins that op, so a caller coalesces fully by
    /// pushing each file's pieces together, sorted by offset.
    pub fn push(&mut self, path: &str, offset: u64, len: u64) -> (usize, u64) {
        let last = self.ops.len().saturating_sub(1);
        if let Some(IoOp::ReadAt {
            path: p,
            offset: start,
            len: run,
        }) = self.ops.last_mut()
        {
            if p == path && *start <= offset && offset <= *start + *run {
                *run = (*run).max(offset + len - *start);
                return (last, offset - *start);
            }
        }
        self.ops.push(IoOp::ReadAt {
            path: path.to_string(),
            offset,
            len,
        });
        (self.ops.len() - 1, 0)
    }

    /// Submit the batch as one retried plane submission and keep its
    /// reads. A read that came back shorter than its op asked for means
    /// the file lacks bytes its caller's metadata promised: it is
    /// `CorruptContainer`, naming the file as `what` (`"data log"`).
    pub fn submit<B: Backend + ?Sized>(&mut self, b: &B, what: &str) -> Result<()> {
        self.reads.clear();
        for (op, outcome) in self.ops.iter().zip(submit_retried(b, &self.ops)) {
            let c = as_data(outcome)?;
            let IoOp::ReadAt { path, offset, len } = op else {
                return Err(PlfsError::Io("list-read plan holds a non-read op".into()));
            };
            if c.len() != *len {
                return Err(PlfsError::CorruptContainer(format!(
                    "{what} {path} short read: wanted {len} bytes at {offset}, got {}",
                    c.len()
                )));
            }
            self.reads.push(c);
        }
        Ok(())
    }

    /// The submitted read `i` (an index [`ListReadPlan::push`] returned);
    /// an error if the backend returned fewer outcomes than ops.
    pub fn read(&self, i: usize) -> Result<&Content> {
        self.reads
            .get(i)
            .ok_or_else(|| PlfsError::Io("backend returned fewer outcomes than ops".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Gated;
    use crate::memfs::MemFs;
    use std::sync::{Arc, Mutex};

    /// Spy gate: injects the scheduled number of transient failures per
    /// op and logs every *execution*, so tests can prove a succeeded op
    /// is never re-executed.
    struct Spy {
        /// op -> remaining transient failures to inject.
        flaky: Mutex<Vec<(IoOp, u32)>>,
        /// Execution log, one entry per actual call.
        log: Mutex<Vec<IoOp>>,
    }

    impl Spy {
        fn new(flaky: Vec<(IoOp, u32)>) -> Self {
            Spy {
                flaky: Mutex::new(flaky),
                log: Mutex::new(Vec::new()),
            }
        }

        /// A fresh `MemFs` behind this spy's gate.
        fn backend(&self) -> impl Backend + '_ {
            Gated {
                inner: MemFs::new(),
                gate: |op: &IoOp| {
                    self.log.lock().unwrap().push(op.clone());
                    let mut flaky = self.flaky.lock().unwrap();
                    if let Some(slot) = flaky.iter_mut().find(|(f, n)| f == op && *n > 0) {
                        slot.1 -= 1;
                        return Err(PlfsError::Transient(format!("{op:?}")));
                    }
                    Ok(())
                },
            }
        }

        fn executions(&self, op: &IoOp) -> usize {
            self.log.lock().unwrap().iter().filter(|o| *o == op).count()
        }
    }

    fn create(path: &str) -> IoOp {
        IoOp::Create {
            path: path.into(),
            exclusive: true,
        }
    }

    #[test]
    fn submit_returns_one_value_per_op() {
        let b = MemFs::new();
        let batch = vec![
            IoOp::MkdirAll {
                path: "/a/b".into(),
            },
            IoOp::Create {
                path: "/a/b/f".into(),
                exclusive: true,
            },
            IoOp::Append {
                path: "/a/b/f".into(),
                content: Content::bytes(vec![1, 2, 3]),
            },
            IoOp::ReadAt {
                path: "/a/b/f".into(),
                offset: 0,
                len: 3,
            },
            IoOp::Size {
                path: "/a/b/f".into(),
            },
            IoOp::Kind {
                path: "/a/b".into(),
            },
            IoOp::Readdir {
                path: "/a/b".into(),
            },
        ];
        let out = b.submit(&batch);
        assert_eq!(as_unit(out[0].clone()).ok(), Some(()));
        assert_eq!(as_offset(out[2].clone()).unwrap(), 0);
        assert_eq!(
            as_data(out[3].clone()).unwrap().materialize(),
            vec![1, 2, 3]
        );
        assert_eq!(as_size(out[4].clone()).unwrap(), 3);
        assert_eq!(as_kind(out[5].clone()).unwrap(), NodeKind::Dir);
        assert_eq!(as_names(out[6].clone()).unwrap(), vec!["f".to_string()]);
    }

    #[test]
    fn failed_op_does_not_abort_the_rest_of_the_batch() {
        let b = MemFs::new();
        let batch = vec![
            IoOp::Mkdir { path: "/d".into() },
            IoOp::Size {
                path: "/missing".into(),
            }, // fails
            IoOp::Create {
                path: "/d/f".into(),
                exclusive: true,
            }, // still runs
        ];
        let out = b.submit(&batch);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(PlfsError::NotFound(_))));
        assert!(out[2].is_ok());
        assert!(b.exists("/d/f"));
    }

    #[test]
    fn retry_resubmits_only_transient_failures() {
        let spy = Spy::new(vec![(create("/d/flaky"), 2)]);
        let b = spy.backend();
        b.mkdir("/d").unwrap();
        let missing = IoOp::Size {
            path: "/d/missing".into(),
        }; // non-transient failure
        let batch = vec![create("/d/ok"), create("/d/flaky"), missing.clone()];
        let out = submit_retried(&b, &batch);
        assert!(out[0].is_ok());
        assert!(out[1].is_ok(), "transient exhausted after 2 injections");
        assert!(matches!(out[2], Err(PlfsError::NotFound(_))));
        // The succeeded op ran exactly once; the flaky op ran 3 times
        // (2 transient failures + 1 success); the hard failure ran once
        // (non-transient errors are final, never retried).
        assert_eq!(spy.executions(&create("/d/ok")), 1);
        assert_eq!(spy.executions(&create("/d/flaky")), 3);
        assert_eq!(spy.executions(&missing), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let spy = Spy::new(vec![(create("/d/f"), 1000)]);
        let b = spy.backend();
        b.mkdir("/d").unwrap();
        let out = submit_retried(&b, &[create("/d/f")]);
        assert!(matches!(out[0], Err(PlfsError::Transient(_))));
        assert_eq!(
            spy.executions(&create("/d/f")),
            DEFAULT_RETRY_ATTEMPTS as usize
        );
    }

    #[test]
    fn counters_track_ops_batches_bytes_and_retries() {
        let flaky_append = IoOp::Append {
            path: "/f".into(),
            content: Content::bytes(vec![0; 10]),
        };
        let spy = Spy::new(vec![(flaky_append.clone(), 1)]);
        let b = spy.backend();
        b.create("/f", true).unwrap();
        // Seed a second file (un-injected path) for the in-batch read so
        // it does not depend on the flaky append having landed yet: the
        // read succeeds on the first submission and is never retried.
        b.create("/r", true).unwrap();
        b.append("/r", &Content::bytes(vec![9; 4])).unwrap();
        let batch = vec![
            flaky_append,
            IoOp::ReadAt {
                path: "/r".into(),
                offset: 0,
                len: 4,
            },
        ];
        let (out, snap) = telemetry::capture(|| submit_retried(&b, &batch));
        assert!(out.iter().all(Result::is_ok));
        // The five plane totals, in name order, and no other counter.
        let totals: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        assert_eq!(
            totals,
            [
                (telemetry::CTR_IOPLANE_BATCHES, 1),
                (telemetry::CTR_IOPLANE_BYTES_READ, 4),
                (telemetry::CTR_IOPLANE_BYTES_WRITTEN, 10),
                (telemetry::CTR_IOPLANE_OPS, 2),
                (telemetry::CTR_IOPLANE_RETRIES, 1),
            ]
        );
    }

    /// An empty batch never reaches the backend and counts as nothing.
    #[test]
    fn empty_batch_is_free() {
        let (out, snap) = telemetry::capture(|| submit_retried(&MemFs::new(), &[]));
        assert!(out.is_empty());
        assert_eq!(snap, telemetry::TelemetrySnapshot::default());
    }

    #[test]
    fn replay_reproduces_recorded_state() {
        let src = MemFs::new();
        let ops = vec![
            IoOp::MkdirAll { path: "/a".into() },
            IoOp::Create {
                path: "/a/f".into(),
                exclusive: true,
            },
            IoOp::Append {
                path: "/a/f".into(),
                content: Content::bytes(vec![7; 16]),
            },
        ];
        for o in replay(&src, &ops) {
            o.unwrap();
        }
        assert_eq!(src.size("/a/f").unwrap(), 16);
        assert_eq!(
            src.read_at("/a/f", 0, 16).unwrap().materialize(),
            vec![7; 16]
        );
    }

    #[test]
    fn metadata_classification() {
        assert!(IoOp::Create {
            path: "/x".into(),
            exclusive: false
        }
        .is_metadata());
        assert!(IoOp::Readdir { path: "/x".into() }.is_metadata());
        assert!(!IoOp::Append {
            path: "/x".into(),
            content: Content::Zeros { len: 1 }
        }
        .is_metadata());
        assert!(!IoOp::ReadAt {
            path: "/x".into(),
            offset: 0,
            len: 1
        }
        .is_metadata());
    }

    #[test]
    fn list_read_coalesces_each_files_touching_pieces() {
        let b = crate::backend::TracingBackend::new(MemFs::new());
        for (path, byte) in [("/a", 1u8), ("/b", 2)] {
            b.create(path, true).unwrap();
            b.append(path, &Content::bytes((0..100).map(|i| i + byte).collect()))
                .unwrap();
        }
        let mut plan = ListReadPlan::default();
        // Touching, overlapping and contained pieces of /a share one op;
        // a gap, another file, or a step back starts a new one.
        let pieces = [
            ("/a", 0, 10),
            ("/a", 10, 5),
            ("/a", 12, 8),
            ("/a", 13, 2),
            ("/a", 30, 10),
            ("/b", 30, 10),
            ("/b", 0, 5),
        ];
        let at: Vec<_> = pieces
            .iter()
            .map(|&(p, off, len)| plan.push(p, off, len))
            .collect();
        assert_eq!(
            at,
            [(0, 0), (0, 10), (0, 12), (0, 13), (1, 0), (2, 0), (3, 0)]
        );
        b.take_trace();
        plan.submit(&b, "test file").unwrap();
        let read = |path: &str, offset, len| IoOp::ReadAt {
            path: path.into(),
            offset,
            len,
        };
        let want = [
            read("/a", 0, 20),
            read("/a", 30, 10),
            read("/b", 30, 10),
            read("/b", 0, 5),
        ];
        assert_eq!(b.take_trace(), want);
        for (&(path, off, len), &(read, at)) in pieces.iter().zip(&at) {
            let want = b.read_at(path, off, len).unwrap();
            assert_eq!(plan.read(read).unwrap().slice(at, len), want);
        }
        assert!(plan.read(4).is_err());

        // A file shorter than its planned op is corruption.
        plan.clear();
        plan.push("/a", 90, 20);
        match plan.submit(&b, "test file") {
            Err(PlfsError::CorruptContainer(msg)) => {
                assert_eq!(
                    msg,
                    "test file /a short read: wanted 20 bytes at 90, got 10"
                )
            }
            other => panic!("expected CorruptContainer, got {other:?}"),
        }
    }

    #[test]
    fn arc_backend_forwards_submit() {
        let fs = Arc::new(MemFs::new());
        let out = fs.submit(&[IoOp::Mkdir { path: "/d".into() }]);
        assert!(out[0].is_ok());
        assert!(fs.exists("/d"));
    }
}
