//! Runtime observability for the PLFS hot paths: spans, counters, and
//! latency histograms, exportable as a span tree or machine JSON.
//!
//! The paper's read-path results were only findable because the authors
//! could *see* where open time went (318 s of Original read-open
//! collapsing to sub-second once index aggregation was fixed, Fig. 4).
//! This module gives the library the same instrument-then-optimize
//! loop: every hot path — writer open/append/flush/close, index
//! flatten, the read-open fan-out, subindex merge, coalesced lookup,
//! fsck scan/repair, federation routing, and every [`Backend::submit`]
//! batch — records into a *recorder* that exports as a
//! [`TelemetrySnapshot`] (`plfsctl obs` renders it). A thread records
//! into the process default while [`set_enabled`] has it on, or into a
//! recorder of its own inside [`capture`], whatever the switch says.
//!
//! [`Backend::submit`]: crate::backend::Backend::submit
//!
//! Three instrument kinds, all drawn from the **closed vocabulary**
//! defined by the `SPAN_`/`CTR_`/`HIST_` constants below (DESIGN.md §5f
//! is the authoritative table; `tests/contracts.rs` keeps the two in
//! lockstep, exactly like the §5d format and §5e op tables):
//!
//! * **Spans** ([`span`]) — RAII-guarded regions with monotonic timing,
//!   parent links, and a per-thread span stack. Nesting stays
//!   well-formed under early returns and panics because closing happens
//!   in [`SpanGuard`]'s `Drop`, and a guard dropped out of order pops
//!   every (leaked) child above it. A worker thread joins its
//!   submitter's tree and recorder through a `Handoff`.
//! * **Counters** ([`count`]) — named monotonic totals (bytes served,
//!   holes read, shadow-subdir routes, fsck issues, and the I/O plane's
//!   batches, ops, retries and bytes that [`crate::ioplane::stats`]
//!   reads).
//! * **Histograms** ([`record_ns`]) — fixed-bucket latency histograms:
//!   [`HIST_BUCKET_COUNT`] power-of-two buckets, bucket `i` covering
//!   `[2^i, 2^(i+1))` nanoseconds with the last bucket open-ended. The
//!   I/O plane feeds one histogram per [`IoOp`](crate::ioplane::IoOp)
//!   variant (amortized per-op latency of the batch each op rode in)
//!   plus one for whole-batch latency.
//!
//! # Cost model
//!
//! Telemetry is **off by default**. While nothing records anywhere — the
//! switch off and no capture live — every instrumentation point is a
//! single relaxed atomic load and an early return. Recording is
//! lock-cheap: span records accumulate in a thread-local buffer and only
//! drain into the recorder (one mutex acquisition) when the thread's
//! **root** span closes; a counter or histogram bucket is one add under
//! the recorder's mutex.
//!
//! # Example
//!
//! ```
//! use plfs::telemetry;
//!
//! let ((), snap) = telemetry::capture(|| {
//!     let _root = telemetry::span(telemetry::SPAN_READ_OPEN);
//!     let _child = telemetry::span(telemetry::SPAN_INDEX_AGGREGATE);
//!     // The names a snapshot keys by; DESIGN.md §5f lists them all.
//!     telemetry::count("read.bytes", 4096);
//!     telemetry::record_ns("ioplane.read_at", 1500);
//! }); // guards close innermost-first; the root drains the thread buffer
//! assert_eq!(snap.counters["read.bytes"], 4096);
//! assert_eq!(snap.spans[0].name, "read.open");
//! assert_eq!(snap.spans[0].children[0].name, "index.aggregate");
//! // The process default saw none of it.
//! assert!(telemetry::snapshot().counters.is_empty());
//! ```

use crate::sync::{class, Mutex};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Vocabulary. Every name a recorder speaks is one of these constants;
// DESIGN.md §5f is the authoritative table and `tests/contracts.rs`
// checks the two against each other both ways (an undocumented constant
// and a table row naming a dead constant both fail).

/// Span: `WriteHandle::open` — container create + openhosts registration.
pub const SPAN_WRITE_OPEN: &str = "write.open";
/// Span: one logical write landing as a data-log append.
pub(crate) const SPAN_WRITE_APPEND: &str = "write.append";
/// Span: flushing buffered index entries to the writer's index log.
pub(crate) const SPAN_WRITE_FLUSH: &str = "write.flush";
/// Span: writer close — final index flush, metadir record, deregister.
pub(crate) const SPAN_WRITE_CLOSE: &str = "write.close";
/// Span: coordinated Index Flatten close (gather, merge, compact, persist).
pub(crate) const SPAN_WRITE_FLATTEN: &str = "write.flatten";
/// Span: `Plfs::open_read` / `ReadHandle::open_bounded` — the read-open
/// index acquisition (a mount's stamp, then on a miss the load).
pub const SPAN_READ_OPEN: &str = "read.open";
/// Span: one coalesced logical read (index walk + batched data reads).
pub(crate) const SPAN_READ_LOOKUP: &str = "read.lookup";
/// Span: container-level index aggregation (serial or threaded).
pub const SPAN_INDEX_AGGREGATE: &str = "index.aggregate";
/// Span: one k-way resolve of index runs into a bulk index build.
pub(crate) const SPAN_INDEX_MERGE: &str = "index.merge";
/// Span: `fsck::check` — the full container scan phase.
pub(crate) const SPAN_FSCK_SCAN: &str = "fsck.scan";
/// Span: `fsck::repair` — the mechanical repair phase.
pub(crate) const SPAN_FSCK_REPAIR: &str = "fsck.repair";
/// Span: one `Backend::submit` batch through `submit_retried`.
pub(crate) const SPAN_IOPLANE_SUBMIT: &str = "ioplane.submit";

/// Counter: logical bytes acknowledged on the write path.
pub(crate) const CTR_WRITE_BYTES: &str = "write.bytes";
/// Counter: index records buffered (one per logical write).
pub(crate) const CTR_WRITE_RECORDS: &str = "write.records";
/// Counter: logical bytes served on the read path.
pub(crate) const CTR_READ_BYTES: &str = "read.bytes";
/// Counter: hole pieces served as zeros on the read path.
pub(crate) const CTR_READ_HOLES: &str = "read.holes";
/// Counter: subdir placements routed to a shadow (off-canonical) namespace.
pub(crate) const CTR_FED_SHADOW_SUBDIRS: &str = "federation.shadow_subdirs";
/// Counter: issues found by fsck scans.
pub(crate) const CTR_FSCK_ISSUES: &str = "fsck.issues";
/// Counter: simulation events popped by the DES scheduler.
pub const CTR_SIM_EVENTS: &str = "sim.events";
/// Counter: peak simultaneous pending DES events per run (a snapshot
/// spanning several runs sums their peaks).
pub const CTR_SIM_PEAK_LIVE: &str = "sim.peak_live";
/// Counter: span-cache window probes served from the cache.
pub(crate) const CTR_SPANCACHE_HITS: &str = "spancache.hits";
/// Counter: span-cache window probes that missed and went to the backend.
pub(crate) const CTR_SPANCACHE_MISSES: &str = "spancache.misses";
/// Counter: cached record windows evicted to hold the byte budget.
pub(crate) const CTR_SPANCACHE_EVICTIONS: &str = "spancache.evictions";
/// Counter: mount read-opens served a shared index (the stamp matched).
pub(crate) const CTR_INDEX_CACHE_HITS: &str = "index.cache.hits";
/// Counter: mount read-opens that aggregated (nothing shared, or stale).
pub(crate) const CTR_INDEX_CACHE_MISSES: &str = "index.cache.misses";
/// Counter: mount read-opens that waited on another open's aggregation of
/// the same container (single-flight followers; each then also counts as
/// a hit or a miss).
pub(crate) const CTR_INDEX_CACHE_WAITS: &str = "index.cache.waits";
/// Counter: shared indices dropped to hold the mount's byte budget.
pub(crate) const CTR_INDEX_CACHE_EVICTIONS: &str = "index.cache.evictions";
/// Counter: index logs a read-open's aggregation decoded as one
/// progression of two or more writes, the shape an interleave group needs.
pub(crate) const CTR_INDEX_PROGRESSION_LOGS: &str = "index.progression_logs";
/// Counter: log aggregations kept as an interleave group instead of a
/// span vector.
pub(crate) const CTR_INDEX_INTERLEAVE_GROUPS: &str = "index.interleave_groups";
/// Counter: service-layer ops admitted and completed (open/append/read/close).
pub(crate) const CTR_SVC_OPS: &str = "svc.ops";
/// Counter: service-layer admissions deferred by a tenant's token bucket.
pub(crate) const CTR_SVC_THROTTLED: &str = "svc.throttled";
/// Counter: service-layer sessions opened (writer + reader).
pub(crate) const CTR_SVC_OPENS: &str = "svc.opens";
/// Counter: index flushes forced by a tenant's dirty-byte budget.
pub(crate) const CTR_SVC_DIRTY_FLUSHES: &str = "svc.dirty_flushes";
/// Counter: batches submitted through `ioplane::submit_retried`.
pub(crate) const CTR_IOPLANE_BATCHES: &str = "ioplane.batches";
/// Counter: ops in those batches (first submissions, not retries).
pub(crate) const CTR_IOPLANE_OPS: &str = "ioplane.ops";
/// Counter: transiently-failed ops the plane re-submitted.
pub(crate) const CTR_IOPLANE_RETRIES: &str = "ioplane.retries";
/// Counter: bytes the plane's appends wrote.
pub(crate) const CTR_IOPLANE_BYTES_WRITTEN: &str = "ioplane.bytes_written";
/// Counter: bytes the plane's reads returned.
pub(crate) const CTR_IOPLANE_BYTES_READ: &str = "ioplane.bytes_read";

/// Histogram: whole-batch `Backend::submit` latency.
pub(crate) const HIST_IOPLANE_BATCH: &str = "ioplane.batch";
/// Histogram: amortized per-op latency of `Mkdir` ops.
pub(crate) const HIST_IOPLANE_MKDIR: &str = "ioplane.mkdir";
/// Histogram: amortized per-op latency of `MkdirAll` ops.
pub(crate) const HIST_IOPLANE_MKDIR_ALL: &str = "ioplane.mkdir_all";
/// Histogram: amortized per-op latency of `Create` ops.
pub(crate) const HIST_IOPLANE_CREATE: &str = "ioplane.create";
/// Histogram: amortized per-op latency of `Append` ops.
pub(crate) const HIST_IOPLANE_APPEND: &str = "ioplane.append";
/// Histogram: amortized per-op latency of `ReadAt` ops.
pub(crate) const HIST_IOPLANE_READ_AT: &str = "ioplane.read_at";
/// Histogram: amortized per-op latency of `Size` ops.
pub(crate) const HIST_IOPLANE_SIZE: &str = "ioplane.size";
/// Histogram: amortized per-op latency of `Kind` ops.
pub(crate) const HIST_IOPLANE_KIND: &str = "ioplane.kind";
/// Histogram: amortized per-op latency of `Readdir` ops.
pub(crate) const HIST_IOPLANE_READDIR: &str = "ioplane.readdir";
/// Histogram: amortized per-op latency of `Unlink` ops.
pub(crate) const HIST_IOPLANE_UNLINK: &str = "ioplane.unlink";
/// Histogram: amortized per-op latency of `RemoveAll` ops.
pub(crate) const HIST_IOPLANE_REMOVE_ALL: &str = "ioplane.remove_all";
/// Histogram: amortized per-op latency of `Rename` ops.
pub(crate) const HIST_IOPLANE_RENAME: &str = "ioplane.rename";
/// Histogram: end-to-end service-layer op latency (admission through
/// completion; throttled probes are not recorded).
pub(crate) const HIST_SVC_OP: &str = "svc.op";

/// Number of fixed histogram buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns); the last bucket is
/// open-ended, catching everything ≥ ~2.1 s. Lint-pinned by the
/// DESIGN.md §5d format table so the bucket layout cannot drift
/// silently out from under exported snapshots.
pub const HIST_BUCKET_COUNT: usize = 32;

/// Cap on *retained* finished span records. Aggregate [`SpanStat`]s keep
/// counting past the cap; only the per-span tree nodes are dropped (and
/// counted in [`TelemetrySnapshot::dropped_spans`]).
pub(crate) const SPAN_CAPACITY: usize = 1 << 16;

/// Inclusive lower bound of histogram bucket `i` in nanoseconds.
pub fn bucket_floor_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Bucket index for a latency of `ns` nanoseconds.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKET_COUNT - 1)
}

// ---------------------------------------------------------------------
// Recorders.

/// One sink of telemetry: everything recorded into it, under one lock.
type Recorder = Mutex<Recorded, class::Telemetry>;

/// What a recorder holds; [`record`] lends it out locked.
pub(crate) struct Recorded {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, [u64; HIST_BUCKET_COUNT]>,
    /// Finished spans, flat (the tree is rebuilt at snapshot).
    records: Vec<SpanRecord>,
    dropped: u64,
    stats: BTreeMap<&'static str, SpanStat>,
}

/// One finished span, as stored.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

impl Recorded {
    const fn new() -> Recorded {
        Recorded {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            records: Vec::new(),
            dropped: 0,
            stats: BTreeMap::new(),
        }
    }

    /// Add `delta` to counter `name`; a zero adds no entry.
    pub(crate) fn count(&mut self, name: &'static str, delta: u64) {
        if delta != 0 {
            *self.counters.entry(name).or_default() += delta;
        }
    }

    /// Count a latency of `ns` nanoseconds in histogram `name`.
    pub(crate) fn record_ns(&mut self, name: &'static str, ns: u64) {
        self.hists.entry(name).or_default()[bucket_index(ns)] += 1;
    }

    fn drain(&mut self, buf: &mut Vec<SpanRecord>) {
        for span in buf.iter() {
            let s = self.stats.entry(span.name).or_default();
            s.count += 1;
            s.total_ns += span.dur_ns;
            s.max_ns = s.max_ns.max(span.dur_ns);
        }
        let room = SPAN_CAPACITY.saturating_sub(self.records.len());
        if buf.len() > room {
            self.dropped += (buf.len() - room) as u64;
        }
        self.records.extend(buf.drain(..).take(room));
        buf.clear();
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let hist = |b: &[u64; HIST_BUCKET_COUNT]| HistogramSnapshot {
            buckets: b.to_vec(),
        };
        TelemetrySnapshot {
            counters: named(&self.counters, |&n| n),
            histograms: named(&self.hists, hist),
            span_stats: named(&self.stats, |&s| s),
            spans: build_forest(&self.records),
            dropped_spans: self.dropped,
        }
    }
}

/// `m` keyed by owned names, each value through `f`.
fn named<V, W>(m: &BTreeMap<&'static str, V>, f: impl Fn(&V) -> W) -> BTreeMap<String, W> {
    m.iter().map(|(k, v)| (k.to_string(), f(v))).collect()
}

// ---------------------------------------------------------------------
// Process state: the default recorder and the gate in front of it.

/// The recorder behind [`snapshot`] and [`reset`], which a thread outside
/// any capture records into while the switch is on.
static DEFAULT: Recorder = Mutex::new(Recorded::new());

/// Bit 0 is the switch ([`set_enabled`]); the bits above it count the
/// sinks entered by live captures and hand-offs. Zero means nothing
/// records anywhere, so every instrumentation point returns after this
/// one load. Relaxed: the gate publishes no data, each recorder guards
/// its own.
static GATE: AtomicUsize = AtomicUsize::new(0);
const SWITCH: usize = 1;
const ENTERED: usize = 2;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Turn recording into the default recorder on or off process-wide. Off
/// is the default. A [`capture`] records whatever this says.
pub fn set_enabled(on: bool) {
    if on {
        GATE.fetch_or(SWITCH, Ordering::Relaxed);
    } else {
        GATE.fetch_and(!SWITCH, Ordering::Relaxed);
    }
}

/// Whether what this thread records right now lands anywhere: it is
/// inside a capture or a hand-off from one, or the switch is on.
#[inline]
pub fn enabled() -> bool {
    with_sink(|_, _| ()).is_some()
}

/// Nanoseconds since an epoch shared by every thread, so span start
/// times are comparable across threads within one process.
fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A thread's recording state.
struct Tls {
    /// Ids of currently-open spans on this thread, outermost first.
    stack: Vec<u64>,
    /// Finished spans awaiting the root-span drain.
    buf: Vec<SpanRecord>,
    /// The capture's recorder this thread records into; `None` is the
    /// default, which records only while the switch is on.
    sink: Option<Arc<Recorder>>,
}

impl Tls {
    fn drain(&mut self) {
        if !self.buf.is_empty() {
            let sink = self.sink.as_deref().unwrap_or(&DEFAULT);
            sink.lock().drain(&mut self.buf);
        }
    }
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls {
            stack: Vec::new(),
            buf: Vec::new(),
            sink: None,
        })
    };
}

/// Run `f` on this thread's span stack and the recorder it records into,
/// if it records.
#[inline]
fn with_sink<R>(f: impl FnOnce(&mut Vec<u64>, &Recorder) -> R) -> Option<R> {
    let gate = GATE.load(Ordering::Relaxed);
    if gate == 0 {
        return None;
    }
    TLS.try_with(|t| {
        let t = &mut *t.borrow_mut();
        let sink = match t.sink.as_deref() {
            Some(r) => r,
            None if gate & SWITCH != 0 => &DEFAULT,
            None => return None,
        };
        Some(f(&mut t.stack, sink))
    })
    .ok()
    .flatten()
}

/// Make `sink` this thread's recorder, with a fresh span stack and
/// buffer, and return the state it replaces.
fn enter(sink: Arc<Recorder>) -> Option<Tls> {
    let fresh = Tls {
        stack: Vec::new(),
        buf: Vec::new(),
        sink: Some(sink),
    };
    let saved = TLS
        .try_with(|t| std::mem::replace(&mut *t.borrow_mut(), fresh))
        .ok()?;
    GATE.fetch_add(ENTERED, Ordering::Relaxed);
    Some(saved)
}

/// A thread's stint in another recorder, made by [`capture`] and
/// [`Handoff::span`]: the span it opened closes, then the thread's own
/// state comes back.
#[must_use = "a hand-off records only while its guard is alive"]
pub(crate) struct Entered {
    span: Option<SpanGuard>,
    saved: Option<Tls>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        drop(self.span.take());
        let Some(saved) = self.saved.take() else {
            return;
        };
        GATE.fetch_sub(ENTERED, Ordering::Relaxed);
        if let Ok(mut mine) = TLS.try_with(|t| std::mem::replace(&mut *t.borrow_mut(), saved)) {
            // A span left open inside (a forgotten guard) strands its
            // finished children in the buffer.
            mine.drain();
        }
    }
}

/// Run `f` with a fresh recorder as this thread's sink and return what it
/// recorded: spans, counters and histograms of `f` and of every worker it
/// hands work to through a `Handoff`, and nothing else. They land there
/// and nowhere else, whether or not the switch is on; a thread `f` starts
/// without a hand-off records nothing into it.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    let recorder = Arc::new(Mutex::new(Recorded::new()));
    let entered = Entered {
        span: None,
        saved: enter(Arc::clone(&recorder)),
    };
    let out = f();
    drop(entered);
    let snap = recorder.lock().snapshot();
    (out, snap)
}

/// What a worker thread needs to record as part of the work that
/// started it: the submitter's capture, if any, and its innermost open
/// span. Take it with [`handoff`] on the submitting thread and open the
/// worker's span with [`Handoff::span`], so the worker's spans nest under
/// the submitter's in the same recorder instead of surfacing as roots.
#[derive(Default)]
pub(crate) struct Handoff {
    parent: Option<u64>,
    sink: Option<Arc<Recorder>>,
}

/// This thread's [`Handoff`]; inert while the thread does not record.
pub(crate) fn handoff() -> Handoff {
    TLS.try_with(|t| {
        let t = t.borrow();
        Handoff {
            parent: t.stack.last().copied(),
            sink: t.sink.clone(),
        }
    })
    .unwrap_or_default()
}

impl Handoff {
    /// Open `name` on this (worker) thread as a child of the submitter's
    /// span, recording where the submitter records until the guard drops.
    pub(crate) fn span(&self, name: &'static str) -> Entered {
        let saved = self.sink.clone().and_then(enter);
        Entered {
            span: Some(open(name, self.parent)),
            saved,
        }
    }
}

// ---------------------------------------------------------------------
// Spans.

/// RAII guard for one span: created by [`span`], closed by `Drop`.
///
/// Dropping records the span's duration into the thread-local buffer
/// and pops the per-thread stack. Early returns and panics both unwind
/// through the guard, so nesting stays well-formed; a guard dropped
/// while children are still open (a leaked child guard) pops those
/// children too rather than corrupting the stack.
#[must_use = "a span measures the scope it is alive in; binding it to `_` drops it immediately"]
pub struct SpanGuard(Option<SpanRecord>);

/// Open a span named `name` on this thread. `name` should be one of the
/// `SPAN_` vocabulary constants — DESIGN.md §5f documents them and
/// `tests/contracts.rs` holds the two sets equal.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Open `name` under `parent`, or under this thread's innermost span.
#[inline]
fn open(name: &'static str, parent: Option<u64>) -> SpanGuard {
    SpanGuard(with_sink(|stack, _| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = parent.or(stack.last().copied());
        stack.push(id);
        SpanRecord {
            id,
            parent,
            name,
            start_ns: epoch_ns(),
            dur_ns: 0,
        }
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut record) = self.0.take() else {
            return; // opened while not recording: a no-op
        };
        record.dur_ns = epoch_ns().saturating_sub(record.start_ns);
        // Thread-local storage is gone only while the thread is torn
        // down, and a span closed then is lost.
        let _kept: std::result::Result<(), _> = TLS.try_with(|t| {
            let t = &mut *t.borrow_mut();
            // Pop through our own id: tolerates leaked child guards.
            if let Some(at) = t.stack.iter().rposition(|&id| id == record.id) {
                t.stack.truncate(at);
            }
            t.buf.push(record);
            if t.stack.is_empty() {
                t.drain();
            }
        });
    }
}

// ---------------------------------------------------------------------
// Counters and histograms.

/// Add `delta` to the counter named `name` (a `CTR_` vocabulary
/// constant). No-op while this thread does not record.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    record(|r| r.count(name, delta));
}

/// Record a latency of `ns` nanoseconds into the histogram named `name`
/// (a `HIST_` vocabulary constant). No-op while this thread does not
/// record.
#[inline]
pub fn record_ns(name: &'static str, ns: u64) {
    record(|r| r.record_ns(name, ns));
}

/// Run `f` on this thread's recorder, locked, if the thread records:
/// several adds for one lock acquisition.
#[inline]
pub(crate) fn record(f: impl FnOnce(&mut Recorded)) {
    with_sink(|_, r| f(&mut r.lock()));
}

/// The default recorder's total for counter `name`.
pub(crate) fn counter(name: &str) -> u64 {
    DEFAULT.lock().counters.get(name).copied().unwrap_or(0)
}

// ---------------------------------------------------------------------
// Snapshot types.

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single duration, nanoseconds.
    pub max_ns: u64,
}

/// Bucket counts of one fixed-bucket latency histogram (length
/// [`HIST_BUCKET_COUNT`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total samples across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The non-empty buckets as `(ge_ns, lt_ns, count)`; the last bucket
    /// has no upper bound.
    fn nonzero(&self) -> impl Iterator<Item = (u64, Option<u64>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(b, &n)| {
                let lt = (b + 1 < HIST_BUCKET_COUNT).then(|| bucket_floor_ns(b + 1));
                (bucket_floor_ns(b), lt, n)
            })
    }
}

/// One node of the exported span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (a `SPAN_` vocabulary constant's value).
    pub name: String,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

/// A point-in-time export of everything a recorder holds: counters,
/// histograms, per-name span statistics, and the reconstructed span
/// forest. Obtained from [`snapshot`] or [`capture`]; merged with
/// [`TelemetrySnapshot::merge`] (associative, so shards combine in any
/// grouping); rendered with [`TelemetrySnapshot::render_json`] /
/// [`TelemetrySnapshot::render_tree`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Aggregate span statistics by name (counted past `SPAN_CAPACITY`).
    pub span_stats: BTreeMap<String, SpanStat>,
    /// Reconstructed span forest: one root per outermost span, per
    /// thread, in drain order.
    pub spans: Vec<SpanNode>,
    /// Finished spans beyond `SPAN_CAPACITY` that kept their stats but
    /// lost their tree nodes.
    pub dropped_spans: u64,
}

/// Export the default recorder's current contents. Non-destructive: the
/// counters keep accumulating; bracket with [`snapshot`]-before /
/// [`snapshot`]-after or call [`reset`] for per-run numbers. Spans
/// still open (or finished but not yet drained by their root) are not
/// included.
pub fn snapshot() -> TelemetrySnapshot {
    DEFAULT.lock().snapshot()
}

/// Zero every counter, histogram, and retained span of the default
/// recorder. Open spans on other threads drain into it when their roots
/// close.
pub fn reset() {
    *DEFAULT.lock() = Recorded::new();
}

fn build_forest(records: &[SpanRecord]) -> Vec<SpanNode> {
    // Children grouped by parent id; present ids for root detection (a
    // parent evicted by the capacity cap promotes its children to roots).
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in records {
        match r.parent {
            Some(p) if present.contains(&p) => children.entry(p).or_default().push(r),
            _ => roots.push(r),
        }
    }
    fn build(r: &SpanRecord, children: &BTreeMap<u64, Vec<&SpanRecord>>) -> SpanNode {
        let mut kids: Vec<SpanNode> = children
            .get(&r.id)
            .map(|c| c.iter().map(|k| build(k, children)).collect())
            .unwrap_or_default();
        kids.sort_by_key(|k| k.start_ns);
        SpanNode {
            name: r.name.to_string(),
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            children: kids,
        }
    }
    let mut out: Vec<SpanNode> = roots.iter().map(|r| build(r, &children)).collect();
    out.sort_by_key(|n| n.start_ns);
    out
}

impl TelemetrySnapshot {
    /// Fold `other` into `self`. Counters, histogram buckets, and span
    /// stats add field-wise; span forests concatenate. Associative:
    /// `(a+b)+c == a+(b+c)`, so shards from many threads or processes
    /// combine in any grouping.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.buckets
                .resize(HIST_BUCKET_COUNT.max(h.buckets.len()), 0);
            for (m, o) in mine.buckets.iter_mut().zip(&h.buckets) {
                *m += o;
            }
        }
        for (k, s) in &other.span_stats {
            let mine = self.span_stats.entry(k.clone()).or_default();
            mine.count += s.count;
            mine.total_ns += s.total_ns;
            mine.max_ns = mine.max_ns.max(s.max_ns);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.dropped_spans += other.dropped_spans;
    }

    /// Render as machine-readable JSON (schema documented in the README
    /// Observability section). Histograms list only non-empty buckets,
    /// each with its `[ge_ns, lt_ns)` bounds.
    pub fn render_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| format!("\n    {}: {v}", json_str(k)));
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets = h.nonzero().map(|(ge, lt, n)| {
                let lt = lt.map_or("null".to_string(), |lt| lt.to_string());
                format!("{{\"ge_ns\": {ge}, \"lt_ns\": {lt}, \"count\": {n}}}")
            });
            format!(
                "\n    {}: {{\"count\": {}, \"buckets\": [{}]}}",
                json_str(k),
                h.count(),
                buckets.collect::<Vec<_>>().join(", ")
            )
        });
        let span_stats = self.span_stats.iter().map(|(k, st)| {
            format!(
                "\n    {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json_str(k),
                st.count,
                st.total_ns,
                st.max_ns
            )
        });
        let spans = self.spans.iter().map(|n| json_span(n, 4));
        format!(
            "{{\n  \"counters\": {{{}\n  }},\n  \"histograms\": {{{}\n  }},\n  \"span_stats\": {{{}\n  }},\n  \"dropped_spans\": {},\n  \"spans\": [{}\n  ]\n}}\n",
            counters.collect::<Vec<_>>().join(","),
            histograms.collect::<Vec<_>>().join(","),
            span_stats.collect::<Vec<_>>().join(","),
            self.dropped_spans,
            spans.collect::<Vec<_>>().join(",")
        )
    }

    /// Render as a human-readable report: the span tree (indented,
    /// durations scaled), then counters, then histogram summaries.
    pub fn render_tree(&self) -> String {
        let mut s = String::from("spans:\n");
        if self.spans.is_empty() {
            s.push_str("  (none recorded)\n");
        }
        for root in &self.spans {
            tree_lines(&mut s, root, "  ", "");
        }
        if self.dropped_spans > 0 {
            s.push_str(&format!(
                "  ({} span(s) past the {} retained-span cap kept stats only)\n",
                self.dropped_spans, SPAN_CAPACITY
            ));
        }
        s.push_str("span totals:\n");
        for (name, st) in &self.span_stats {
            s.push_str(&format!(
                "  {name:<20} count {:>6}  total {:>10}  max {:>10}\n",
                st.count,
                fmt_ns(st.total_ns),
                fmt_ns(st.max_ns)
            ));
        }
        s.push_str("counters:\n");
        if self.counters.is_empty() {
            s.push_str("  (none)\n");
        }
        for (name, v) in &self.counters {
            s.push_str(&format!("  {name:<28} {v}\n"));
        }
        s.push_str("histograms:\n");
        for (name, h) in &self.histograms {
            let buckets = h.nonzero().map(|(ge, lt, n)| {
                format!("[{},{}):{n}", fmt_ns(ge), lt.map_or("inf".into(), fmt_ns))
            });
            let buckets = buckets.collect::<Vec<_>>().join("  ");
            s.push_str(&format!("  {name:<20} count {:>6}  {buckets}\n", h.count()));
        }
        s
    }
}

/// `n` and its subtree as a JSON object on lines indented by `indent`,
/// each line led by its newline.
fn json_span(n: &SpanNode, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let children: Vec<String> = n
        .children
        .iter()
        .map(|c| json_span(c, indent + 2))
        .collect();
    let close = if children.is_empty() {
        String::new()
    } else {
        format!("\n{pad}")
    };
    format!(
        "\n{pad}{{\"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"children\": [{}{close}]}}",
        json_str(&n.name),
        n.start_ns,
        n.dur_ns,
        children.join(",")
    )
}

fn tree_lines(s: &mut String, n: &SpanNode, pad: &str, rail: &str) {
    s.push_str(&format!(
        "{pad}{rail}{:<w$} {:>10}",
        n.name,
        fmt_ns(n.dur_ns),
        w = 30usize.saturating_sub(rail.len())
    ));
    s.push('\n');
    for (i, c) in n.children.iter().enumerate() {
        let last = i + 1 == n.children.len();
        let connector = if last { "└─ " } else { "├─ " };
        let next_rail = format!(
            "{}{}",
            rail.replace("├─ ", "│  ").replace("└─ ", "   "),
            connector
        );
        tree_lines(s, c, pad, &next_rail);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    //! Every test records into a [`capture`] of its own; none turns the
    //! process switch on, so they run in parallel without seeing each
    //! other and the default recorder stays empty.
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKET_COUNT - 1);
        // Every bucket's floor maps back into that bucket, and the
        // value one below the floor maps strictly lower.
        for i in 0..HIST_BUCKET_COUNT {
            assert_eq!(bucket_index(bucket_floor_ns(i)), i);
            if i > 0 {
                assert!(bucket_index(bucket_floor_ns(i) - 1) < i);
            }
        }
    }

    fn roots(snap: &TelemetrySnapshot) -> Vec<&str> {
        snap.spans.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn spans_nest_and_export_as_a_tree() {
        let ((), snap) = capture(|| {
            let _root = span(SPAN_READ_OPEN);
            {
                let _child = span(SPAN_INDEX_AGGREGATE);
                let _grandchild = span(SPAN_INDEX_MERGE);
            }
            let _sibling = span(SPAN_READ_LOOKUP);
        });
        assert_eq!(snap.spans.len(), 1);
        let root = &snap.spans[0];
        assert_eq!(root.name, SPAN_READ_OPEN);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, SPAN_INDEX_AGGREGATE);
        assert_eq!(root.children[0].children[0].name, SPAN_INDEX_MERGE);
        assert_eq!(root.children[1].name, SPAN_READ_LOOKUP);
        assert_eq!(snap.span_stats[SPAN_READ_OPEN].count, 1);
    }

    #[test]
    fn early_return_and_panic_keep_nesting_well_formed() {
        fn early(x: bool) -> u32 {
            let _s = span(SPAN_WRITE_FLUSH);
            if x {
                return 1; // guard drops here
            }
            2
        }
        let ((), snap) = capture(|| {
            assert_eq!(early(true), 1);
            let caught = std::panic::catch_unwind(|| {
                let _root = span(SPAN_WRITE_CLOSE);
                let _child = span(SPAN_WRITE_FLUSH);
                panic!("boom");
            });
            assert!(caught.is_err());
            // Stack unwound cleanly: a fresh root still exports as a root.
            let _r = span(SPAN_FSCK_SCAN);
        });
        assert_eq!(
            roots(&snap),
            [SPAN_WRITE_FLUSH, SPAN_WRITE_CLOSE, SPAN_FSCK_SCAN]
        );
        // The panicking pair still closed child-inside-parent.
        let close = &snap.spans[1];
        assert_eq!(close.children.len(), 1);
        assert_eq!(close.children[0].name, SPAN_WRITE_FLUSH);
    }

    #[test]
    fn leaked_child_guard_does_not_corrupt_the_stack() {
        let ((), snap) = capture(|| {
            let root = span(SPAN_WRITE_OPEN);
            let child = span(SPAN_WRITE_APPEND);
            // Drop out of order: root first, then child.
            drop(root);
            drop(child);
            let _next = span(SPAN_FSCK_REPAIR);
        });
        // The next span must be a root, not a child of the leaked one.
        assert_eq!(roots(&snap), [SPAN_WRITE_OPEN, SPAN_FSCK_REPAIR]);
        assert_eq!(snap.span_stats[SPAN_WRITE_APPEND].count, 1);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        // Outside a capture with the switch off (other tests' live
        // captures open the gate, not this thread's sink).
        assert!(!enabled());
        {
            let _s = span(SPAN_READ_OPEN);
            count(CTR_READ_BYTES, 100);
            record_ns(HIST_IOPLANE_READ_AT, 500);
        }
        assert_eq!(snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let ((), snap) = capture(|| {
            count(CTR_WRITE_BYTES, 10);
            count(CTR_WRITE_BYTES, 5);
            record_ns(HIST_IOPLANE_APPEND, 3); // bucket 1
            record_ns(HIST_IOPLANE_APPEND, 3);
            record_ns(HIST_IOPLANE_APPEND, 1 << 20); // bucket 20
        });
        assert_eq!(snap.counters[CTR_WRITE_BYTES], 15);
        let h = &snap.histograms[HIST_IOPLANE_APPEND];
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[20], 1);
    }

    #[test]
    fn merge_is_associative_and_snapshot_nondestructive() {
        let mut recorder = Recorded::new();
        recorder.count(CTR_READ_BYTES, 7);
        let a = recorder.snapshot();
        let b = recorder.snapshot();
        assert_eq!(a, b, "snapshot must not drain state");
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counters[CTR_READ_BYTES], 14);
    }

    /// Two threads capture at once, each opening its span while the
    /// other's is open: each sees only its own span, as a root, and its
    /// own counter.
    #[test]
    fn per_thread_stacks_are_independent() {
        let both_open = Barrier::new(2);
        let record = |name: &'static str, bytes: u64| {
            capture(|| {
                let _s = span(name);
                count(CTR_READ_BYTES, bytes);
                both_open.wait();
            })
            .1
        };
        let (a, b) = std::thread::scope(|sc| {
            let a = sc.spawn(|| record(SPAN_READ_OPEN, 1));
            let b = sc.spawn(|| record(SPAN_INDEX_MERGE, 2));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (snap, name, bytes) in [(a, SPAN_READ_OPEN, 1), (b, SPAN_INDEX_MERGE, 2)] {
            assert_eq!(roots(&snap), [name]);
            assert!(snap.spans[0].children.is_empty());
            assert_eq!(snap.counters.len(), 1);
            assert_eq!(snap.counters[CTR_READ_BYTES], bytes);
        }
    }

    #[test]
    fn a_handoff_carries_ancestry_and_sink_across_threads() {
        let ((), snap) = capture(|| {
            let _outer = span(SPAN_WRITE_FLUSH);
            let handoff = handoff();
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    // Without the hand-off this thread would record
                    // nothing into the capture.
                    let _worker = handoff.span(SPAN_INDEX_AGGREGATE);
                    let _inner = span(SPAN_IOPLANE_SUBMIT);
                    count(CTR_READ_BYTES, 3);
                });
            });
        });
        assert_eq!(roots(&snap), [SPAN_WRITE_FLUSH]);
        let worker = &snap.spans[0].children;
        assert_eq!(worker.len(), 1);
        assert_eq!(worker[0].name, SPAN_INDEX_AGGREGATE);
        // TLS nesting still works underneath the carried parent.
        assert_eq!(worker[0].children[0].name, SPAN_IOPLANE_SUBMIT);
        assert_eq!(snap.counters[CTR_READ_BYTES], 3);
    }

    #[test]
    fn a_thread_started_without_a_handoff_records_nothing_into_the_capture() {
        let ((), snap) = capture(|| {
            let _outer = span(SPAN_WRITE_FLUSH);
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    assert!(!enabled());
                    let _s = span(SPAN_INDEX_AGGREGATE);
                    count(CTR_READ_BYTES, 3);
                });
            });
        });
        assert_eq!(roots(&snap), [SPAN_WRITE_FLUSH]);
        assert!(snap.spans[0].children.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snapshot(), TelemetrySnapshot::default());
    }

    #[test]
    fn a_handoff_is_inert_when_not_recording_or_idle() {
        let idle = handoff();
        assert!(idle.parent.is_none() && idle.sink.is_none());
        capture(|| {
            let idle = handoff();
            assert!(idle.parent.is_none() && idle.sink.is_some());
            let _root = span(SPAN_READ_OPEN);
            assert!(handoff().parent.is_some());
        });
    }

    #[test]
    fn json_export_is_structurally_sound() {
        let ((), snap) = capture(|| {
            let _r = span(SPAN_READ_OPEN);
            count(CTR_READ_BYTES, 1);
            record_ns(HIST_IOPLANE_READ_AT, 100);
        });
        let j = snap.render_json();
        for key in [
            "\"counters\"",
            "\"histograms\"",
            "\"span_stats\"",
            "\"spans\"",
            "\"dropped_spans\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.contains("\"read.open\""));
        // Balanced braces/brackets (cheap structural check; the CLI test
        // exercises a real consumer).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn capacity_cap_drops_trees_but_keeps_stats() {
        let ((), snap) = capture(|| {
            for _ in 0..(SPAN_CAPACITY + 10) {
                let _s = span(SPAN_WRITE_APPEND);
            }
        });
        assert_eq!(snap.spans.len(), SPAN_CAPACITY);
        assert_eq!(snap.dropped_spans, 10);
        assert_eq!(
            snap.span_stats[SPAN_WRITE_APPEND].count,
            (SPAN_CAPACITY + 10) as u64
        );
    }
}
