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
//! Middleware code does not call these methods: it builds [`IoOp`]
//! batches and submits them through [`crate::ioplane::submit_retried`]
//! (or [`crate::ioplane::submit_one`]), which add per-op retry and the
//! plane counters. The per-op methods remain the primitive vocabulary —
//! the default `submit` is exactly a sequential loop over them — and the
//! root `clippy.toml` disallows calling them from any other production
//! code; the one exception is the writer's per-write data append
//! (DESIGN.md §5d).

use crate::content::Content;
use crate::error::Result;
use crate::ioplane::{self, IoOp, IoOutcome};
use parking_lot::Mutex;
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
pub trait Backend: Send + Sync {
    /// Create a directory; parent must exist.
    fn mkdir(&self, path: &str) -> Result<()>;

    /// Create a directory and any missing ancestors.
    fn mkdir_all(&self, path: &str) -> Result<()>;

    /// Create an empty file. With `exclusive`, fail if it already exists;
    /// otherwise truncate an existing file.
    fn create(&self, path: &str, exclusive: bool) -> Result<()>;

    /// Append content to a file, returning the physical offset at which it
    /// landed. The file must exist.
    fn append(&self, path: &str, content: &Content) -> Result<u64>;

    /// Read `len` bytes at `offset`. Short reads at EOF return what exists;
    /// reads entirely past EOF return empty content.
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content>;

    /// Current size of a file in bytes.
    fn size(&self, path: &str) -> Result<u64>;

    /// What `path` names, or `NotFound`.
    fn kind(&self, path: &str) -> Result<NodeKind>;

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
    fn list(&self, path: &str) -> Result<Vec<String>>;

    /// Remove a file.
    fn unlink(&self, path: &str) -> Result<()>;

    /// Remove a directory and everything beneath it.
    fn remove_all(&self, path: &str) -> Result<()>;

    /// Atomically rename a file or directory.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Execute a batch of ops **in order**, returning one outcome per op.
    ///
    /// A failed op never aborts the ops after it; outcomes are per-op
    /// (partial-batch semantics). The default implementation is a
    /// sequential loop over the per-op methods; backends with a cheaper
    /// native shape override it (`MemFs`: whole batch under one lock
    /// acquisition; `LocalFs`: adjacent same-file appends and reads share
    /// one descriptor) — observable behaviour must stay identical, which
    /// `tests/prop_ioplane.rs` pins.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        batch
            .iter()
            .map(|op| ioplane::dispatch_one(self, op))
            .collect()
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

/// A passthrough over `inner`: every method forwards to it directly.
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
    trace: Arc<Mutex<Vec<IoOp>>>,
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
    pub fn trace_handle(&self) -> Arc<Mutex<Vec<IoOp>>> {
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

    fn record(&self, op: IoOp) {
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.trace.lock().push(op);
    }

    fn record_batch(&self, batch: &[IoOp]) {
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.trace.lock().extend(batch.iter().cloned());
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "a forwarding wrapper: each method records its op and calls the same method inside"
)]
impl<B: Backend> Backend for TracingBackend<B> {
    fn mkdir(&self, path: &str) -> Result<()> {
        self.record(IoOp::Mkdir { path: path.into() });
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.record(IoOp::MkdirAll { path: path.into() });
        self.inner.mkdir_all(path)
    }

    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        self.record(IoOp::Create {
            path: path.into(),
            exclusive,
        });
        self.inner.create(path, exclusive)
    }

    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        self.record(IoOp::Append {
            path: path.into(),
            content: content.clone(),
        });
        self.inner.append(path, content)
    }

    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        self.record(IoOp::ReadAt {
            path: path.into(),
            offset,
            len,
        });
        self.inner.read_at(path, offset, len)
    }

    fn size(&self, path: &str) -> Result<u64> {
        self.record(IoOp::Size { path: path.into() });
        self.inner.size(path)
    }

    fn kind(&self, path: &str) -> Result<NodeKind> {
        self.record(IoOp::Kind { path: path.into() });
        self.inner.kind(path)
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        self.record(IoOp::Readdir { path: path.into() });
        self.inner.list(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.record(IoOp::Unlink { path: path.into() });
        self.inner.unlink(path)
    }

    fn remove_all(&self, path: &str) -> Result<()> {
        self.record(IoOp::RemoveAll { path: path.into() });
        self.inner.remove_all(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.record(IoOp::Rename {
            from: from.into(),
            to: to.into(),
        });
        self.inner.rename(from, to)
    }

    /// Record every op in the batch, then forward the batch whole so the
    /// inner backend's native fast path still runs. Per-op visibility in
    /// the trace is preserved: a batch of N ops records N entries,
    /// exactly as the sequential path would.
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.record_batch(batch);
        self.inner.submit(batch)
    }
}

// Allow `Arc<B>` and `&B` to be used wherever a backend is expected, so a
// single MemFs can be shared by many writer threads.
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

// Forwards each method as it is (not as a one-op `submit`): `svc_mixed`
// sends its writer appends through here.
#[expect(
    clippy::disallowed_methods,
    reason = "a forwarding impl, deleted with Reactor (ROADMAP item 2)"
)]
impl<B: Backend> Backend for Reactor<B> {
    fn mkdir(&self, path: &str) -> Result<()> {
        self.inner.mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }
    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        self.inner.create(path, exclusive)
    }
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        self.inner.append(path, content)
    }
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        self.inner.read_at(path, offset, len)
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }
    fn kind(&self, path: &str) -> Result<NodeKind> {
        self.inner.kind(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, path: &str) -> Result<Vec<String>> {
        self.inner.list(path)
    }
    fn unlink(&self, path: &str) -> Result<()> {
        self.inner.unlink(path)
    }
    fn remove_all(&self, path: &str) -> Result<()> {
        self.inner.remove_all(path)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.inner.submit(batch)
    }
}

/// The one hand-written test double: runs `gate` on every op — spelled
/// as the [`IoOp`] it is — and forwards to `inner` only if the gate
/// passes, so a test injects faults, delays or counters with a closure
/// instead of a fresh eleven-method `impl Backend`.
#[cfg(test)]
pub(crate) struct Gated<B, F> {
    pub(crate) inner: B,
    pub(crate) gate: F,
}

#[cfg(test)]
impl<B: Backend, F: Fn(&IoOp) -> Result<()> + Send + Sync> Gated<B, F> {
    fn run(&self, op: IoOp) -> IoOutcome {
        (self.gate)(&op)?;
        ioplane::dispatch_one(&self.inner, &op)
    }
}

#[cfg(test)]
impl<B: Backend, F: Fn(&IoOp) -> Result<()> + Send + Sync> Backend for Gated<B, F> {
    fn mkdir(&self, path: &str) -> Result<()> {
        ioplane::as_unit(self.run(IoOp::Mkdir { path: path.into() }))
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        ioplane::as_unit(self.run(IoOp::MkdirAll { path: path.into() }))
    }
    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        let path = path.into();
        ioplane::as_unit(self.run(IoOp::Create { path, exclusive }))
    }
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        let (path, content) = (path.into(), content.clone());
        ioplane::as_offset(self.run(IoOp::Append { path, content }))
    }
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        let path = path.into();
        ioplane::as_data(self.run(IoOp::ReadAt { path, offset, len }))
    }
    fn size(&self, path: &str) -> Result<u64> {
        ioplane::as_size(self.run(IoOp::Size { path: path.into() }))
    }
    fn kind(&self, path: &str) -> Result<NodeKind> {
        ioplane::as_kind(self.run(IoOp::Kind { path: path.into() }))
    }
    fn list(&self, path: &str) -> Result<Vec<String>> {
        ioplane::as_names(self.run(IoOp::Readdir { path: path.into() }))
    }
    fn unlink(&self, path: &str) -> Result<()> {
        ioplane::as_unit(self.run(IoOp::Unlink { path: path.into() }))
    }
    fn remove_all(&self, path: &str) -> Result<()> {
        ioplane::as_unit(self.run(IoOp::RemoveAll { path: path.into() }))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let (from, to) = (from.into(), to.into());
        ioplane::as_unit(self.run(IoOp::Rename { from, to }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlfsError;
    use crate::memfs::MemFs;

    #[test]
    fn tracing_records_the_io_plane_vocabulary() {
        let t = TracingBackend::new(MemFs::new());
        t.mkdir_all("/a/b").unwrap();
        t.create("/a/b/f", true).unwrap();
        t.append("/a/b/f", &Content::bytes(vec![1, 2, 3])).unwrap();
        t.read_at("/a/b/f", 0, 2).unwrap();
        let trace = t.take_trace();
        assert_eq!(
            trace,
            vec![
                IoOp::MkdirAll {
                    path: "/a/b".into()
                },
                IoOp::Create {
                    path: "/a/b/f".into(),
                    exclusive: true
                },
                IoOp::Append {
                    path: "/a/b/f".into(),
                    content: Content::bytes(vec![1, 2, 3])
                },
                IoOp::ReadAt {
                    path: "/a/b/f".into(),
                    offset: 0,
                    len: 2
                },
            ]
        );
        // take_trace drains.
        assert!(t.take_trace().is_empty());
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
        assert!(!failing(PlfsError::NotFound).exists("/f"), "NotFound means absent");
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
        let failures = Mutex::new(2u32);
        let b = Gated {
            inner: MemFs::new(),
            gate: |op: &IoOp| {
                let mut f = failures.lock();
                if matches!(op, IoOp::Kind { .. }) && *f > 0 {
                    *f -= 1;
                    return Err(PlfsError::Transient("blip".into()));
                }
                Ok(())
            },
        };
        // Nothing created: after the blips clear, the honest answer is no.
        assert!(!b.exists("/nope"));
        assert_eq!(*failures.lock(), 0, "both blips were spent on retries");
    }
}
