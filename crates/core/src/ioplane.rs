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
//!   outcomes, no all-or-nothing semantics). The default implementation
//!   is sequential; `MemFs` executes a whole batch under a single lock
//!   acquisition and `LocalFs` groups adjacent same-file appends and
//!   reads over one descriptor.
//! * [`submit_retried`] is the plane's entry point for middleware call
//!   sites: it layers bounded per-op transient retry **and** the global
//!   op counters on top of any backend. Retries re-submit only the ops
//!   that failed transiently — an op that succeeded is never executed
//!   again (re-sending an acknowledged append would duplicate bytes).
//! * [`stats`]/[`reset_stats`] expose the per-process counters (ops
//!   issued, batches submitted, bytes moved, transient retries); the
//!   coalesce ratio `ops / batches` is the plane's figure of merit.
//!
//! The authoritative op table (kinds, batchability, retry class) lives in
//! DESIGN.md §5e; `plfs-lint`'s drift check keeps this enum and that
//! table in lockstep.

use crate::backend::{Backend, NodeKind};
use crate::content::Content;
use crate::error::{
    next_backoff_us, PlfsError, Result, DEFAULT_RETRY_ATTEMPTS, RETRY_BACKOFF_START_US,
};
use crate::telemetry;
use std::sync::atomic::{AtomicU64, Ordering};

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
    pub fn hist_name(&self) -> &'static str {
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

/// Per-op outcome of a batch: exactly what the equivalent sequential
/// [`Backend`] call would have returned.
pub type IoOutcome = Result<IoValue>;

/// Execute a single op against a backend's per-op methods. This is the
/// default [`Backend::submit`] in loop form and the shared fallback for
/// native batched backends when an op has no fast path.
pub fn dispatch_one<B: Backend + ?Sized>(b: &B, op: &IoOp) -> IoOutcome {
    match op {
        IoOp::Mkdir { path } => b.mkdir(path).map(|()| IoValue::Unit),
        IoOp::MkdirAll { path } => b.mkdir_all(path).map(|()| IoValue::Unit),
        IoOp::Create { path, exclusive } => b.create(path, *exclusive).map(|()| IoValue::Unit),
        IoOp::Append { path, content } => b.append(path, content).map(IoValue::Offset),
        IoOp::ReadAt { path, offset, len } => b.read_at(path, *offset, *len).map(IoValue::Data),
        IoOp::Size { path } => b.size(path).map(IoValue::Size),
        IoOp::Kind { path } => b.kind(path).map(IoValue::Kind),
        IoOp::Readdir { path } => b.list(path).map(IoValue::Names),
        IoOp::Unlink { path } => b.unlink(path).map(|()| IoValue::Unit),
        IoOp::RemoveAll { path } => b.remove_all(path).map(|()| IoValue::Unit),
        IoOp::Rename { from, to } => b.rename(from, to).map(|()| IoValue::Unit),
    }
}

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
pub fn as_unit(o: IoOutcome) -> Result<()> {
    match o? {
        IoValue::Unit => Ok(()),
        v => Err(mismatch("unit", &v)),
    }
}

/// Outcome of an `Append`: physical landing offset.
pub fn as_offset(o: IoOutcome) -> Result<u64> {
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
pub fn as_kind(o: IoOutcome) -> Result<NodeKind> {
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
// Per-process plane counters. Monotonic atomics: every layer that goes
// through `submit_retried` is accounted uniformly, whatever the backend.

static BATCHES: AtomicU64 = AtomicU64::new(0);
static OPS: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
static BYTES_READ: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the plane's per-process counters.
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

/// Read the counters.
pub fn stats() -> IoStats {
    IoStats {
        batches: BATCHES.load(Ordering::Relaxed),
        ops: OPS.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        bytes_written: BYTES_WRITTEN.load(Ordering::Relaxed),
        bytes_read: BYTES_READ.load(Ordering::Relaxed),
    }
}

/// Zero the counters (benchmark harnesses bracket runs with this).
pub fn reset_stats() {
    BATCHES.store(0, Ordering::Relaxed);
    OPS.store(0, Ordering::Relaxed);
    RETRIES.store(0, Ordering::Relaxed);
    BYTES_WRITTEN.store(0, Ordering::Relaxed);
    BYTES_READ.store(0, Ordering::Relaxed);
}

fn account(batch: &[IoOp], outcomes: &[IoOutcome]) {
    let mut written = 0u64;
    let mut read = 0u64;
    for (op, out) in batch.iter().zip(outcomes) {
        match (op, out) {
            (IoOp::Append { content, .. }, Ok(_)) => written += content.len(),
            (IoOp::ReadAt { .. }, Ok(IoValue::Data(c))) => read += c.len(),
            _ => {} // structural op or failure: no bytes moved
        }
    }
    BYTES_WRITTEN.fetch_add(written, Ordering::Relaxed);
    BYTES_READ.fetch_add(read, Ordering::Relaxed);
}

/// Submit a batch through the plane: one [`Backend::submit`] call, then
/// bounded per-op transient retry with capped exponential backoff.
///
/// Only ops whose outcome is [`PlfsError::Transient`] are re-submitted —
/// and only those, so an op that already succeeded is **never executed
/// twice** (re-sending an acknowledged append would duplicate its
/// bytes). Non-transient failures are final immediately; ops after a
/// failed op still run (partial-batch outcomes). Counters are updated
/// here, uniformly for every backend.
pub fn submit_retried<B: Backend + ?Sized>(b: &B, batch: &[IoOp]) -> Vec<IoOutcome> {
    if batch.is_empty() {
        return Vec::new();
    }
    let _span = telemetry::span(telemetry::SPAN_IOPLANE_SUBMIT);
    BATCHES.fetch_add(1, Ordering::Relaxed);
    OPS.fetch_add(batch.len() as u64, Ordering::Relaxed);
    // Per-op latency inside a native batched submit is unobservable, so
    // the per-variant histograms record the batch's *amortized* per-op
    // latency (batch duration / batch length) — DESIGN.md §5f.
    let timed = telemetry::enabled();
    let t0 = timed.then(std::time::Instant::now);
    let mut outcomes = b.submit(batch);
    if let Some(t0) = t0 {
        let batch_ns = t0.elapsed().as_nanos() as u64;
        telemetry::record_ns(telemetry::HIST_IOPLANE_BATCH, batch_ns);
        let per_op_ns = batch_ns / batch.len() as u64;
        for op in batch {
            telemetry::record_ns(op.hist_name(), per_op_ns);
        }
    }
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
        RETRIES.fetch_add(pending.len() as u64, Ordering::Relaxed);
        let retry_batch: Vec<IoOp> = pending.iter().map(|&i| batch[i].clone()).collect();
        let retried = b.submit(&retry_batch);
        for (slot, outcome) in pending.into_iter().zip(retried) {
            outcomes[slot] = outcome;
        }
    }
    account(batch, &outcomes);
    outcomes
}

/// Replay a recorded op sequence against a backend, one op per batch —
/// the structural inverse of tracing. Because `Append` ops carry their
/// content, replaying a `TracingBackend` recording onto a fresh backend
/// reproduces the original file state and (re-traced) the identical op
/// sequence; `tests/trace_fidelity.rs` pins that round trip.
pub fn replay<B: Backend + ?Sized>(b: &B, ops: &[IoOp]) -> Vec<IoOutcome> {
    ops.iter().map(|op| dispatch_one(b, op)).collect()
}

// ---------------------------------------------------------------------
// List I/O: many byte ranges of one file as one plane submission — the
// PVFS list-I/O idiom. The planner coalesces touching ranges into single
// `ReadAt` ops, the whole set goes down as ONE `Backend::submit`, and the
// splitter slices each caller range back out of the coalesced reads (a
// refcount bump on real bytes, not a copy).

/// A planned list read over one file: the coalesced `ReadAt` batch plus,
/// per requested range, where its bytes live inside that batch.
#[derive(Debug, Clone)]
pub struct ListReadPlan {
    ops: Vec<IoOp>,
    /// Per requested range: (op index, offset within the op's read, len).
    splits: Vec<(usize, u64, u64)>,
}

/// Plan one list read of `ranges` (`(offset, len)` pairs, sorted by
/// offset) from `path`. Touching or overlapping ranges share one
/// `ReadAt`.
///
/// # Panics
/// Debug-asserts that `ranges` is sorted by offset.
pub fn plan_list_read(path: &str, ranges: &[(u64, u64)]) -> ListReadPlan {
    debug_assert!(
        ranges.windows(2).all(|w| w[0].0 <= w[1].0),
        "list-read ranges must be sorted by offset"
    );
    let mut ops: Vec<IoOp> = Vec::new();
    let mut splits = Vec::with_capacity(ranges.len());
    let mut cur: Option<(u64, u64)> = None; // (start, end) of the op being grown
    for &(off, len) in ranges {
        match &mut cur {
            Some((start, end)) if off <= *end => {
                *end = (*end).max(off + len);
                splits.push((ops.len(), off - *start, len));
            }
            _ => {
                if let Some((start, end)) = cur.take() {
                    ops.push(IoOp::ReadAt {
                        path: path.to_string(),
                        offset: start,
                        len: end - start,
                    });
                }
                cur = Some((off, off + len));
                splits.push((ops.len(), 0, len));
            }
        }
    }
    if let Some((start, end)) = cur {
        ops.push(IoOp::ReadAt {
            path: path.to_string(),
            offset: start,
            len: end - start,
        });
    }
    ListReadPlan { ops, splits }
}

impl ListReadPlan {
    /// The coalesced `ReadAt` batch (submit it, then hand the outcomes to
    /// [`ListReadPlan::split`]).
    pub fn ops(&self) -> &[IoOp] {
        &self.ops
    }

    /// Slice each requested range out of the batch outcomes. A read that
    /// came back shorter than its op asked for is surfaced as an error —
    /// the file shrank under us.
    pub fn split(&self, outcomes: Vec<IoOutcome>) -> Result<Vec<Content>> {
        let mut reads = Vec::with_capacity(self.ops.len());
        for (op, outcome) in self.ops.iter().zip(outcomes) {
            let c = as_data(outcome)?;
            let IoOp::ReadAt { path, offset, len } = op else {
                return Err(PlfsError::Io("list-read plan holds a non-read op".into()));
            };
            if c.len() != *len {
                return Err(PlfsError::Io(format!(
                    "list read short: wanted {len} bytes at {path}:{offset}, got {}",
                    c.len()
                )));
            }
            reads.push(c);
        }
        self.splits
            .iter()
            .map(|&(op_idx, off, len)| {
                reads
                    .get(op_idx)
                    .map(|c| c.slice(off, len))
                    .ok_or_else(|| PlfsError::Io("list-read split out of bounds".into()))
            })
            .collect()
    }
}

/// Read many ranges of one file as a single retried plane submission.
pub fn list_read<B: Backend + ?Sized>(
    b: &B,
    path: &str,
    ranges: &[(u64, u64)],
) -> Result<Vec<Content>> {
    let plan = plan_list_read(path, ranges);
    let outcomes = submit_retried(b, plan.ops());
    plan.split(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Gated;
    use crate::memfs::MemFs;
    use parking_lot::Mutex;
    use std::sync::Arc;

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
                    self.log.lock().push(op.clone());
                    let mut flaky = self.flaky.lock();
                    if let Some(slot) = flaky.iter_mut().find(|(f, n)| f == op && *n > 0) {
                        slot.1 -= 1;
                        return Err(PlfsError::Transient(format!("{op:?}")));
                    }
                    Ok(())
                },
            }
        }

        fn executions(&self, op: &IoOp) -> usize {
            self.log.lock().iter().filter(|o| *o == op).count()
        }
    }

    fn create(path: &str) -> IoOp {
        IoOp::Create {
            path: path.into(),
            exclusive: true,
        }
    }

    #[test]
    fn default_submit_matches_sequential_calls() {
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
        // Counters are process-global; measure deltas.
        let before = stats();
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
        let out = submit_retried(&b, &batch);
        assert!(out.iter().all(Result::is_ok));
        let after = stats();
        // Counters are monotonic and shared with concurrently-running
        // tests, so assert the floor contributed by this batch.
        assert!(after.batches - before.batches >= 1);
        assert!(after.ops - before.ops >= 2);
        assert!(after.retries - before.retries >= 1);
        assert!(after.bytes_written - before.bytes_written >= 10);
        assert!(after.bytes_read - before.bytes_read >= 4);
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
    fn empty_batch_is_free() {
        let before = stats();
        let out = submit_retried(&MemFs::new(), &[]);
        assert!(out.is_empty());
        assert_eq!(stats().batches, before.batches);
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
    fn arc_backend_forwards_submit() {
        let fs = Arc::new(MemFs::new());
        let out = fs.submit(&[IoOp::Mkdir { path: "/d".into() }]);
        assert!(out[0].is_ok());
        assert!(fs.exists("/d"));
    }
}
