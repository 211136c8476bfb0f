//! The backend abstraction: what PLFS needs from an underlying file system.
//!
//! PLFS is middleware; everything it does bottoms out in a small set of
//! operations against the *underlying parallel file system*. This trait is
//! that set. Three implementations exist:
//!
//! * [`crate::memfs::MemFs`] — in-memory, thread-safe, real bytes;
//! * [`crate::localfs::LocalFs`] — a real directory via `std::fs` (the
//!   role the FUSE mount plays for real PLFS);
//! * the simulated parallel file system in the `pfs` crate (driven through
//!   the `mpio` crate's op traces, which are validated against
//!   [`TracingBackend`] recordings of this API).
//!
//! All methods take `&self`; implementations provide interior locking so
//! multiple writer threads can target one container concurrently, as real
//! N-1 checkpoint processes do.
//!
//! Middleware code does not call the per-op methods: it builds [`IoOp`]
//! batches and submits them through [`crate::ioplane::submit_retried`]
//! (or [`crate::ioplane::submit_one`]), which add per-op retry and the
//! plane counters. A backend implements [`Backend::submit`]; each per-op
//! method is provided as a one-op batch through it, and the root
//! `clippy.toml` disallows calling them from any other production code.
//! The one exception is the writer's per-write data append, which
//! `MemFs` also serves directly (DESIGN.md §5d).

use crate::content::Content;
use crate::error::Result;
use crate::ioplane::{self, IoOp, IoOutcome};
use crate::sync::{class, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// Operations PLFS issues against the underlying file system.
///
/// A backend *is* its [`Backend::submit`]: that is the one method an
/// implementation must write. Every per-op method is provided as a
/// one-op batch through it, so a wrapper that implements `submit` sees
/// every op, whichever way it was issued. A backend overrides a per-op
/// method only where building the op is a measured cost: `MemFs` keeps a
/// direct `append` for the writer's per-write data append (DESIGN.md
/// §5d).
pub trait Backend: Send + Sync {
    /// Execute a batch **in order**, returning one outcome per op.
    ///
    /// A failed op never aborts the ops after it; outcomes are per-op
    /// (partial-batch semantics). A native shape may run the batch more
    /// cheaply than one op at a time (`MemFs`: whole batch under one
    /// lock acquisition; `LocalFs`: adjacent same-file appends and reads
    /// share one descriptor), but what it observes must be what one-op
    /// batches would, which `tests/prop_ioplane.rs` pins against
    /// [`ioplane::replay`].
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome>;

    /// Create a directory; parent must exist.
    fn mkdir(&self, path: &str) -> Result<()> {
        ioplane::as_unit(ioplane::lower(self, &IoOp::Mkdir { path: path.into() }))
    }

    /// Create a directory and any missing ancestors.
    fn mkdir_all(&self, path: &str) -> Result<()> {
        ioplane::as_unit(ioplane::lower(self, &IoOp::MkdirAll { path: path.into() }))
    }

    /// Create an empty file. With `exclusive`, fail if it already exists;
    /// otherwise truncate an existing file.
    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        let path = path.into();
        ioplane::as_unit(ioplane::lower(self, &IoOp::Create { path, exclusive }))
    }

    /// Append content to a file, returning the physical offset at which it
    /// landed. The file must exist.
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        let (path, content) = (path.into(), content.clone());
        ioplane::as_offset(ioplane::lower(self, &IoOp::Append { path, content }))
    }

    /// Read `len` bytes at `offset`. Short reads at EOF return what exists;
    /// reads entirely past EOF return empty content.
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        let path = path.into();
        ioplane::as_data(ioplane::lower(self, &IoOp::ReadAt { path, offset, len }))
    }

    /// Current size of a file in bytes.
    fn size(&self, path: &str) -> Result<u64> {
        ioplane::as_size(ioplane::lower(self, &IoOp::Size { path: path.into() }))
    }

    /// What `path` names, or `NotFound`.
    fn kind(&self, path: &str) -> Result<NodeKind> {
        ioplane::as_kind(ioplane::lower(self, &IoOp::Kind { path: path.into() }))
    }

    /// Whether `path` exists at all.
    ///
    /// Only a definitive `NotFound` means "no": a transient or permission
    /// failure proves nothing about absence, and reporting absent on one
    /// misleads fsck's orphan detection and federation's placement
    /// probes. This is [`ioplane::exists`]: transients are retried; a
    /// probe that still fails conservatively reports existence, so the
    /// caller falls through to the operation that surfaces the real
    /// error instead of re-creating over (or writing off) state it could
    /// not see.
    fn exists(&self, path: &str) -> bool {
        ioplane::exists(self, path)
    }

    /// Names (not full paths) of entries in a directory, sorted.
    fn list(&self, path: &str) -> Result<Vec<String>> {
        ioplane::as_names(ioplane::lower(self, &IoOp::Readdir { path: path.into() }))
    }

    /// Remove a file.
    fn unlink(&self, path: &str) -> Result<()> {
        ioplane::as_unit(ioplane::lower(self, &IoOp::Unlink { path: path.into() }))
    }

    /// Remove a directory and everything beneath it.
    fn remove_all(&self, path: &str) -> Result<()> {
        ioplane::as_unit(ioplane::lower(self, &IoOp::RemoveAll { path: path.into() }))
    }

    /// Atomically rename a file or directory.
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let (from, to) = (from.into(), to.into());
        ioplane::as_unit(ioplane::lower(self, &IoOp::Rename { from, to }))
    }

    /// Submit a batch "asynchronously": the batch runs inline through
    /// [`Backend::submit`] and the returned [`Ticket`] is already
    /// complete. It stays only while the benchmark names it (DESIGN.md
    /// §5h).
    fn submit_async(&self, batch: &[IoOp]) -> Ticket {
        Ticket::completed(self.submit(batch))
    }
}

/// The outcomes of a [`Backend::submit_async`] batch, one per op in
/// submission order, exactly as [`Backend::submit`] returned them.
#[must_use = "a dropped ticket abandons its outcomes; wait() redeems it"]
pub struct Ticket {
    outcomes: Vec<IoOutcome>,
}

impl Ticket {
    /// A ticket carrying `outcomes`.
    pub fn completed(outcomes: Vec<IoOutcome>) -> Ticket {
        Ticket { outcomes }
    }

    /// Take the per-op outcomes.
    pub fn wait(self) -> Vec<IoOutcome> {
        self.outcomes
    }
}

/// A passthrough over `inner`: `submit` and `append` forward to it
/// directly; every other per-op method lowers to a one-op `submit`.
///
/// The two sizing arguments of [`Reactor::with_config`] are ignored.
/// The type exists only because the benchmark's `svc_mixed` stack
/// (`benchmark/src/workloads/svc.rs` and `timed.rs`) constructs one; it
/// is deleted by the benchmark-only follow-up to ROADMAP item 2.
pub struct Reactor<B> {
    inner: Arc<B>,
}

impl<B: Backend> Reactor<B> {
    /// Wrap `inner`; `_workers` and `_window` are ignored.
    pub fn with_config(inner: Arc<B>, _workers: usize, _window: usize) -> Reactor<B> {
        Reactor { inner }
    }
}

/// Wraps any backend and records every operation issued through it as
/// [`IoOp`] values — the same vocabulary the plane executes and the
/// `mpio` simulation driver replays, so a recording *is* a replayable
/// program ([`crate::ioplane::replay`]). `Append` payloads are refcounted
/// (`Bytes`) or symbolic (`Synthetic`), so recording stays cheap.
pub struct TracingBackend<B: Backend> {
    inner: B,
    trace: Arc<Mutex<Vec<IoOp>, class::RecordingTrace>>,
    trips: AtomicU64,
}

impl<B: Backend> TracingBackend<B> {
    /// Wrap `inner`, recording every op issued through the wrapper.
    pub fn new(inner: B) -> Self {
        TracingBackend {
            inner,
            trace: Arc::new(Mutex::new(Vec::new())),
            trips: AtomicU64::new(0),
        }
    }

    /// A handle to the trace that survives moving `self` into PLFS.
    pub fn trace_handle(&self) -> Arc<Mutex<Vec<IoOp>, class::RecordingTrace>> {
        Arc::clone(&self.trace)
    }

    /// Snapshot of operations recorded so far.
    pub fn take_trace(&self) -> Vec<IoOp> {
        std::mem::take(&mut *self.trace.lock())
    }

    /// Round trips so far: one per call into any [`Backend`] method of
    /// this wrapper, so a batch of N ops is one trip and N trace entries.
    /// Unlike [`ioplane::stats`] the count belongs to this instance, so
    /// tests running in parallel in one process do not see each other.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

impl<B: Backend> Backend for TracingBackend<B> {
    /// Record every op in the batch, then forward the batch whole so the
    /// inner backend's native fast path still runs. A batch of N ops
    /// records N entries and one trip; a per-op call, lowered to a one-op
    /// batch, records one of each.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.trace.lock().extend(batch.iter().cloned());
        self.inner.submit(batch)
    }
}

// Allow `Arc<B>` to be used wherever a backend is expected, so a single
// MemFs can be shared by many writer threads. Every method forwards, so
// an override in `B` (`MemFs::append`) is still reached.
#[expect(clippy::disallowed_methods, reason = "a forwarding impl")]
impl<B: Backend + ?Sized> Backend for Arc<B> {
    fn mkdir(&self, path: &str) -> Result<()> {
        (**self).mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        (**self).mkdir_all(path)
    }
    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        (**self).create(path, exclusive)
    }
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        (**self).append(path, content)
    }
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        (**self).read_at(path, offset, len)
    }
    fn size(&self, path: &str) -> Result<u64> {
        (**self).size(path)
    }
    fn kind(&self, path: &str) -> Result<NodeKind> {
        (**self).kind(path)
    }
    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }
    fn list(&self, path: &str) -> Result<Vec<String>> {
        (**self).list(path)
    }
    fn unlink(&self, path: &str) -> Result<()> {
        (**self).unlink(path)
    }
    fn remove_all(&self, path: &str) -> Result<()> {
        (**self).remove_all(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        (**self).rename(from, to)
    }
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        (**self).submit(batch)
    }
}

impl<B: Backend> Backend for Reactor<B> {
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.inner.submit(batch)
    }

    // Forwarded as it is, not as a one-op `submit`: `svc_mixed` sends
    // its writers' per-write appends through here.
    #[expect(
        clippy::disallowed_methods,
        reason = "a forwarding impl, deleted with Reactor (ROADMAP item 2)"
    )]
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        self.inner.append(path, content)
    }
}

/// The one hand-written test double: runs `gate` on every op and forwards
/// the op to `inner` only if the gate passes, so a test injects faults,
/// delays or counters with a closure over an [`IoOp`] instead of a fresh
/// `impl Backend`.
#[cfg(test)]
pub(crate) struct Gated<B, F> {
    pub(crate) inner: B,
    pub(crate) gate: F,
}

#[cfg(test)]
impl<B: Backend, F: Fn(&IoOp) -> Result<()> + Send + Sync> Backend for Gated<B, F> {
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        batch
            .iter()
            .map(|op| {
                (self.gate)(op)?;
                ioplane::lower(&self.inner, op)
            })
            .collect()
    }
}

/// Issue `op` through the per-op method that names it, for a test to set
/// beside the same op in a batch.
#[cfg(test)]
pub(crate) fn per_op_call<B: Backend + ?Sized>(b: &B, op: &IoOp) -> IoOutcome {
    use ioplane::IoValue::{Data, Kind, Names, Offset, Size, Unit};
    match op {
        IoOp::Mkdir { path } => b.mkdir(path).map(|()| Unit),
        IoOp::MkdirAll { path } => b.mkdir_all(path).map(|()| Unit),
        IoOp::Create { path, exclusive } => b.create(path, *exclusive).map(|()| Unit),
        IoOp::Append { path, content } => b.append(path, content).map(Offset),
        IoOp::ReadAt { path, offset, len } => b.read_at(path, *offset, *len).map(Data),
        IoOp::Size { path } => b.size(path).map(Size),
        IoOp::Kind { path } => b.kind(path).map(Kind),
        IoOp::Readdir { path } => b.list(path).map(Names),
        IoOp::Unlink { path } => b.unlink(path).map(|()| Unit),
        IoOp::RemoveAll { path } => b.remove_all(path).map(|()| Unit),
        IoOp::Rename { from, to } => b.rename(from, to).map(|()| Unit),
    }
}

/// Every op kind, with the errors that tell apart ops whose outcomes
/// look alike, in an order where each runs against what the ones before
/// it left: the op list of the tests that set one way of issuing an op
/// beside another.
#[cfg(test)]
pub(crate) fn vocabulary() -> Vec<IoOp> {
    vec![
        IoOp::Mkdir { path: "/a".into() },
        // No parent: `Mkdir` refuses what `MkdirAll` would do.
        IoOp::Mkdir {
            path: "/x/y".into(),
        },
        IoOp::MkdirAll {
            path: "/a/b/c".into(),
        },
        IoOp::Create {
            path: "/a/b/f".into(),
            exclusive: true,
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
            offset: 1,
            len: 5,
        },
        IoOp::Size {
            path: "/a/b/f".into(),
        },
        IoOp::Kind {
            path: "/a/b".into(),
        },
        IoOp::Size {
            path: "/a/b".into(),
        },
        IoOp::Readdir {
            path: "/a/b".into(),
        },
        IoOp::Rename {
            from: "/a/b/f".into(),
            to: "/a/g".into(),
        },
        // A directory: both sides refuse it alike.
        IoOp::Unlink {
            path: "/a/b".into(),
        },
        IoOp::RemoveAll { path: "/a".into() },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlfsError;
    use crate::memfs::MemFs;

    #[test]
    fn tracing_records_the_io_plane_vocabulary() {
        let t = TracingBackend::new(MemFs::new());
        let direct = MemFs::new();
        let ops = vocabulary();
        // Each per-op method, lowered to a one-op `submit`, answers as
        // the same call on a plain `MemFs` does, and is one trace entry
        // and one trip (`take_trace` drains).
        for op in &ops {
            let trips = t.trips();
            let (got, want) = (per_op_call(&t, op), per_op_call(&direct, op));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{op:?}");
            let trace = t.take_trace();
            assert_eq!(trace, std::slice::from_ref(op), "{op:?} is one entry");
            assert_eq!(t.trips(), trips + 1, "{op:?} is one trip");
        }
        // The twelfth, `exists`, is a retried `Kind` probe.
        assert_eq!(t.exists("/a"), direct.exists("/a"));
        assert_eq!(t.take_trace(), [IoOp::Kind { path: "/a".into() }]);
        assert_eq!(t.trips(), ops.len() as u64 + 1);
    }

    #[test]
    fn tracing_submit_records_per_op_and_forwards_whole_batch() {
        let t = TracingBackend::new(MemFs::new());
        let batch = vec![
            IoOp::Mkdir { path: "/d".into() },
            IoOp::Create {
                path: "/d/f".into(),
                exclusive: true,
            },
        ];
        let out = t.submit(&batch);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(t.take_trace(), batch, "batch of N records N entries");
        assert_eq!(t.trips(), 1, "and is one round trip");
        t.size("/d/f").unwrap();
        assert_eq!(t.submit_async(&batch).wait().len(), 2);
        assert_eq!(t.trips(), 3, "a lone op and an async batch are a trip each");
    }

    #[test]
    fn arc_backend_delegates() {
        let fs = Arc::new(MemFs::new());
        fs.mkdir("/d").unwrap();
        fs.create("/d/f", true).unwrap();
        assert!(fs.exists("/d/f"));
        assert_eq!(fs.kind("/d").unwrap(), NodeKind::Dir);
    }

    /// Satellite fix: `exists` must not report a file absent on errors
    /// other than `NotFound`.
    #[test]
    fn exists_distinguishes_not_found_from_other_errors() {
        let failing = |err: fn(String) -> PlfsError| Gated {
            inner: MemFs::new(),
            gate: move |op: &IoOp| Err(err(op.path().into())),
        };
        assert!(
            !failing(PlfsError::NotFound).exists("/f"),
            "NotFound means absent"
        );
        assert!(
            failing(PlfsError::Io).exists("/f"),
            "a permission error is not evidence of absence"
        );
        assert!(
            failing(PlfsError::Transient).exists("/f"),
            "a persistent transient is not evidence of absence"
        );
    }

    /// Transient blips on the probe are retried away entirely.
    #[test]
    fn exists_retries_transient_probes() {
        let failures = std::sync::Mutex::new(2u32);
        let b = Gated {
            inner: MemFs::new(),
            gate: |op: &IoOp| {
                let mut f = failures.lock().unwrap();
                if matches!(op, IoOp::Kind { .. }) && *f > 0 {
                    *f -= 1;
                    return Err(PlfsError::Transient("blip".into()));
                }
                Ok(())
            },
        };
        // Nothing created: after the blips clear, the honest answer is no.
        assert!(!b.exists("/nope"));
        assert_eq!(*failures.lock().unwrap(), 0, "both blips were spent on retries");
    }
}
