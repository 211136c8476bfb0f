//! The asynchronous I/O plane: submission/completion queues over
//! [`Backend::submit`].
//!
//! The batched [`IoOp`] vocabulary is an io_uring-shaped interface
//! already — this module adds the completion-based mode on top of it.
//! [`Backend::submit_async`] returns a [`Ticket`] immediately; the caller
//! overlaps compute (or more submissions) with the physical I/O and
//! collects the per-op outcomes later with [`Ticket::wait`]. The
//! middleware itself submits synchronously (DESIGN.md §5h says why); this
//! is the API for callers that bring their own overlap.
//!
//! Two execution shapes stand behind the same interface:
//!
//! * **Inline** (the trait default): `submit_async` runs the batch on
//!   the calling thread and returns an already-complete ticket. Every
//!   backend is async-capable with unchanged semantics; callers need no
//!   capability probe.
//! * **[`Reactor`]** — a worker pool over any inner backend. Submission
//!   enqueues the batch (blocking only while the bounded in-flight
//!   window is full) and workers drain the queue by calling the inner
//!   backend's `submit`, publishing outcomes into the ticket's slot.
//!
//! # Exactly once per batch
//!
//! The reactor workers run each submitted batch exactly once and make no
//! retry decision, so the outcomes a ticket delivers describe the only
//! execution there was: an op reported `Ok` landed once, an op reported
//! failed did not land twice. `tests/prop_ioplane.rs` holds this under
//! seeded fault injection, with a crash point between submission and
//! wait.
//!
//! # Telemetry across the thread boundary
//!
//! Worker-side execution records a [`telemetry::SPAN_ASYNC_EXEC`] span
//! whose parent id is captured on the *submitting* thread and carried
//! inside the job ([`telemetry::span_with_parent`]), so the exported
//! span forest nests reactor work under the span that submitted it
//! instead of orphaning it as a per-thread root. Waiting time is
//! accounted to [`telemetry::CTR_ASYNC_BLOCKED_NS`]; the overlap ratio
//! `1 - blocked/total` is the plane's figure of merit; the benchmark
//! reports the numerator as `ioplane.async_blocked_ms`.
//!
//! [`Backend::submit`]: crate::backend::Backend::submit
//! [`Backend::submit_async`]: crate::backend::Backend::submit_async

use super::{IoOp, IoOutcome};
use crate::backend::Backend;
use crate::telemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default number of reactor worker threads.
pub const DEFAULT_ASYNC_WORKERS: usize = 4;

/// Default bound on batches in flight (queued + executing) per reactor.
/// Submission past the window blocks until a worker drains a batch, so
/// a fast producer cannot queue unbounded memory.
pub const DEFAULT_ASYNC_WINDOW: usize = 16;

static NEXT_TICKET_ID: AtomicU64 = AtomicU64::new(1);

/// Recover the guard from a poisoned `std::sync` lock: the plane's shared
/// state is a queue of jobs and completion slots, all valid at every
/// instruction boundary, so a panicking worker does not invalidate it.
fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One completion slot, shared between a [`Ticket`] and its producer.
struct Slot {
    state: Mutex<Option<Vec<IoOutcome>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, outcomes: Vec<IoOutcome>) {
        *relock(self.state.lock()) = Some(outcomes);
        self.cv.notify_all();
    }
}

/// Handle to one asynchronously submitted batch.
///
/// Returned by [`Backend::submit_async`]; redeemed exactly once with
/// [`Ticket::wait`]. Dropping a ticket without waiting abandons the
/// outcomes but not the effects — the batch still executes.
///
/// [`Backend::submit_async`]: crate::backend::Backend::submit_async
#[must_use = "a dropped ticket abandons its outcomes; wait() redeems it"]
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl Ticket {
    fn pending() -> Ticket {
        Ticket {
            id: NEXT_TICKET_ID.fetch_add(1, Ordering::Relaxed),
            slot: Slot::new(),
        }
    }

    /// An already-complete ticket carrying `outcomes` — the inline
    /// execution shape behind the `submit_async` trait default.
    pub fn completed(outcomes: Vec<IoOutcome>) -> Ticket {
        let t = Ticket::pending();
        t.slot.fill(outcomes);
        t
    }

    /// Stable id of this submission (unique per process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the outcomes have been published (a non-blocking probe).
    pub fn is_complete(&self) -> bool {
        relock(self.slot.state.lock()).is_some()
    }

    /// Block until the batch completes and take its outcomes.
    ///
    /// Time spent blocked here is accounted to
    /// [`telemetry::CTR_ASYNC_BLOCKED_NS`] — the numerator of the
    /// overlap ratio the async plane exists to shrink.
    pub fn wait(self) -> Completion {
        let t0 = telemetry::enabled().then(Instant::now);
        let mut state = relock(self.slot.state.lock());
        while state.is_none() {
            state = relock(self.slot.cv.wait(state));
        }
        let outcomes = state.take().unwrap_or_default();
        drop(state);
        if let Some(t0) = t0 {
            telemetry::count(
                telemetry::CTR_ASYNC_BLOCKED_NS,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Completion {
            ticket: self.id,
            outcomes,
        }
    }
}

/// The completed form of a [`Ticket`]: one outcome per submitted op, in
/// submission order, exactly as the synchronous `submit` would have
/// returned them.
#[derive(Debug)]
pub struct Completion {
    /// Id of the ticket this completion redeems.
    pub ticket: u64,
    /// Per-op outcomes, 1:1 with the submitted batch.
    pub outcomes: Vec<IoOutcome>,
}

// ---------------------------------------------------------------------
// The reactor: a worker pool making `submit_async` genuinely concurrent
// over any inner backend.

struct Job {
    batch: Vec<IoOp>,
    slot: Arc<Slot>,
    /// Span id captured on the submitting thread; the worker reopens
    /// under it so the forest nests execution under the submitter.
    parent: Option<u64>,
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Batches submitted but not yet completed (queued + executing).
    in_flight: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Workers sleep here for jobs (or shutdown).
    job_cv: Condvar,
    /// Submitters sleep here for window room.
    room_cv: Condvar,
    window: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        relock(self.queue.lock())
    }
}

/// A completion-queue executor over any [`Backend`]: `submit_async`
/// enqueues, a fixed worker pool drains, outcomes land in the ticket.
///
/// * **Bounded in-flight window** — submission blocks while `window`
///   batches are outstanding, so a fast producer cannot queue unbounded
///   memory. The window counts batches from submission until
///   their outcomes are published.
/// * **Backend passthrough** — `Reactor` itself implements [`Backend`]:
///   the per-op methods and synchronous `submit` forward straight to the
///   inner backend, so one reactor handle serves a whole container
///   (writer, reader, fsck) and only the explicitly asynchronous call
///   sites change behaviour.
/// * **Shutdown** — dropping the reactor finishes every queued batch
///   first, then joins the workers; no submitted ticket is left
///   unresolved.
pub struct Reactor<B: Backend + 'static> {
    inner: Arc<B>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl<B: Backend + 'static> Reactor<B> {
    /// Spawn a reactor with [`DEFAULT_ASYNC_WORKERS`] workers and a
    /// [`DEFAULT_ASYNC_WINDOW`]-batch in-flight window.
    pub fn new(inner: Arc<B>) -> Reactor<B> {
        Reactor::with_config(inner, DEFAULT_ASYNC_WORKERS, DEFAULT_ASYNC_WINDOW)
    }

    /// Spawn a reactor with an explicit worker count and in-flight
    /// window (both clamped to at least 1).
    pub fn with_config(inner: Arc<B>, workers: usize, window: usize) -> Reactor<B> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            room_cv: Condvar::new(),
            window: window.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let backend = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&shared, &backend))
            })
            .collect();
        Reactor {
            inner,
            shared,
            workers,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<B> {
        &self.inner
    }
}

fn worker_loop<B: Backend>(shared: &Shared, backend: &Arc<B>) {
    loop {
        let job = {
            let mut q = shared.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = relock(shared.job_cv.wait(q));
            }
        };
        let outcomes = {
            let _span = telemetry::span_with_parent(telemetry::SPAN_ASYNC_EXEC, job.parent);
            backend.submit(&job.batch)
        };
        job.slot.fill(outcomes);
        let mut q = shared.lock();
        q.in_flight -= 1;
        drop(q);
        shared.room_cv.notify_one();
    }
}

impl<B: Backend + 'static> Backend for Reactor<B> {
    fn mkdir(&self, path: &str) -> crate::error::Result<()> {
        self.inner.mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> crate::error::Result<()> {
        self.inner.mkdir_all(path)
    }
    fn create(&self, path: &str, exclusive: bool) -> crate::error::Result<()> {
        self.inner.create(path, exclusive)
    }
    fn append(&self, path: &str, content: &crate::content::Content) -> crate::error::Result<u64> {
        self.inner.append(path, content)
    }
    fn read_at(
        &self,
        path: &str,
        offset: u64,
        len: u64,
    ) -> crate::error::Result<crate::content::Content> {
        self.inner.read_at(path, offset, len)
    }
    fn size(&self, path: &str) -> crate::error::Result<u64> {
        self.inner.size(path)
    }
    fn kind(&self, path: &str) -> crate::error::Result<crate::backend::NodeKind> {
        self.inner.kind(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn list(&self, path: &str) -> crate::error::Result<Vec<String>> {
        self.inner.list(path)
    }
    fn unlink(&self, path: &str) -> crate::error::Result<()> {
        self.inner.unlink(path)
    }
    fn remove_all(&self, path: &str) -> crate::error::Result<()> {
        self.inner.remove_all(path)
    }
    fn rename(&self, from: &str, to: &str) -> crate::error::Result<()> {
        self.inner.rename(from, to)
    }
    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.inner.submit(batch)
    }

    /// Enqueue the batch for the worker pool, blocking only while the
    /// in-flight window is full. The ticket completes when a worker has
    /// run the batch against the inner backend.
    fn submit_async(&self, batch: &[IoOp]) -> Ticket {
        let ticket = Ticket::pending();
        let parent = telemetry::current_span_id();
        let mut q = self.shared.lock();
        while q.in_flight >= self.shared.window && !q.shutdown {
            q = relock(self.shared.room_cv.wait(q));
        }
        if q.shutdown {
            // Late submission during teardown: complete inline rather
            // than strand the ticket (drop runs after user code, so this
            // only guards pathological interleavings).
            drop(q);
            ticket.slot.fill(self.inner.submit(batch));
            return ticket;
        }
        q.in_flight += 1;
        q.jobs.push_back(Job {
            batch: batch.to_vec(),
            slot: Arc::clone(&ticket.slot),
            parent,
        });
        drop(q);
        self.shared.job_cv.notify_one();
        ticket
    }
}

impl<B: Backend + 'static> Drop for Reactor<B> {
    fn drop(&mut self) {
        {
            let mut q = self.shared.lock();
            q.shutdown = true;
        }
        self.shared.job_cv.notify_all();
        self.shared.room_cv.notify_all();
        for w in self.workers.drain(..) {
            // A panicked worker already published what it could; the
            // remaining queue entries were drained by other workers.
            let _join = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Gated;
    use crate::content::Content;
    use crate::memfs::MemFs;

    fn write_batch(path: &str, payload: Vec<u8>) -> Vec<IoOp> {
        vec![
            IoOp::Create {
                path: path.into(),
                exclusive: true,
            },
            IoOp::Append {
                path: path.into(),
                content: Content::bytes(payload),
            },
        ]
    }

    #[test]
    fn default_submit_async_completes_inline() {
        let fs = MemFs::new();
        let ticket = fs.submit_async(&write_batch("/f", vec![1, 2, 3]));
        assert!(ticket.is_complete(), "inline default completes eagerly");
        let done = ticket.wait();
        assert_eq!(done.outcomes.len(), 2);
        assert!(done.outcomes.iter().all(Result::is_ok));
        assert_eq!(fs.size("/f").unwrap(), 3);
    }

    #[test]
    fn reactor_executes_submissions_and_orders_within_batch() {
        let reactor = Reactor::with_config(Arc::new(MemFs::new()), 3, 8);
        let tickets: Vec<(Vec<IoOp>, Ticket)> = (0..32)
            .map(|i| {
                let batch = write_batch(&format!("/f{i}"), vec![i as u8; 64]);
                let t = reactor.submit_async(&batch);
                (batch, t)
            })
            .collect();
        for (batch, t) in tickets {
            let done = t.wait();
            assert_eq!(done.outcomes.len(), batch.len());
            assert!(done.outcomes.iter().all(Result::is_ok), "{batch:?}");
        }
        for i in 0..32 {
            assert_eq!(reactor.inner().size(&format!("/f{i}")).unwrap(), 64);
        }
    }

    #[test]
    fn reactor_matches_sequential_outcomes() {
        // submit_async ≡ submit, op for op, on identical state.
        let sync_fs = MemFs::new();
        let reactor = Reactor::new(Arc::new(MemFs::new()));
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
                content: Content::bytes(vec![7; 16]),
            },
            IoOp::Size {
                path: "/a/b/missing".into(),
            },
            IoOp::ReadAt {
                path: "/a/b/f".into(),
                offset: 4,
                len: 4,
            },
        ];
        let sync_out = sync_fs.submit(&batch);
        let async_out = reactor.submit_async(&batch).wait().outcomes;
        assert_eq!(sync_out, async_out);
    }

    #[test]
    fn window_bounds_in_flight_batches() {
        // One worker, window of 2: submitting from this thread can never
        // observe more than 2 outstanding batches. The probe relies on
        // the submitter itself blocking, so in_flight never exceeds the
        // window even with a deliberately slow consumer.
        let slow = Gated {
            inner: MemFs::new(),
            gate: |_: &IoOp| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(())
            },
        };
        let reactor = Reactor::with_config(Arc::new(slow), 1, 2);
        let tickets: Vec<(Vec<IoOp>, Ticket)> = (0..6)
            .map(|i| {
                let batch = write_batch(&format!("/w{i}"), vec![0; 8]);
                let t = reactor.submit_async(&batch);
                let q = reactor.shared.lock();
                assert!(q.in_flight <= 2, "window must bound in-flight batches");
                drop(q);
                (batch, t)
            })
            .collect();
        for (_, t) in tickets {
            assert!(t.wait().outcomes.iter().all(Result::is_ok));
        }
    }

    #[test]
    fn drop_without_wait_still_executes_the_batch() {
        let reactor = Reactor::new(Arc::new(MemFs::new()));
        let inner = Arc::clone(reactor.inner());
        {
            let ticket = reactor.submit_async(&write_batch("/fire", vec![9; 4]));
            drop(ticket);
        }
        drop(reactor); // drains the queue before joining workers
        assert_eq!(inner.size("/fire").unwrap(), 4);
    }

    #[test]
    fn ticket_ids_are_unique() {
        let fs = MemFs::new();
        let a = fs.submit_async(&[]);
        let b = fs.submit_async(&[]);
        assert_ne!(a.id(), b.id());
        let _ = a.wait();
        let _ = b.wait();
    }
}
