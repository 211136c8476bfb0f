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
//! batch — records into one process-global registry that exports as a
//! [`TelemetrySnapshot`] (`plfsctl obs` renders it).
//!
//! [`Backend::submit`]: crate::backend::Backend::submit
//!
//! Three instrument kinds, all drawn from the **closed vocabulary**
//! defined by the `SPAN_`/`CTR_`/`HIST_` constants below (DESIGN.md §5f
//! is the authoritative table; `plfs-lint`'s drift check keeps the two
//! in lockstep, exactly like the §5d format and §5e op tables):
//!
//! * **Spans** ([`span`]) — RAII-guarded regions with monotonic timing,
//!   parent links, and a per-thread span stack. Nesting stays
//!   well-formed under early returns and panics because closing happens
//!   in [`SpanGuard`]'s `Drop`, and a guard dropped out of order pops
//!   every (leaked) child above it.
//! * **Counters** ([`count`]) — named monotonic totals (bytes served,
//!   holes read, shadow-subdir routes, fsck issues).
//! * **Histograms** ([`record_ns`]) — fixed-bucket latency histograms:
//!   [`HIST_BUCKET_COUNT`] power-of-two buckets, bucket `i` covering
//!   `[2^i, 2^(i+1))` nanoseconds with the last bucket open-ended. The
//!   I/O plane feeds one histogram per [`IoOp`](crate::ioplane::IoOp)
//!   variant (amortized per-op latency of the batch each op rode in)
//!   plus one for whole-batch latency.
//!
//! # Cost model
//!
//! Telemetry is **off by default**. Disabled, every instrumentation
//! point is a single relaxed atomic load and an early return — the
//! instrumented index-aggregation microbenches are required (tier-1
//! acceptance) to stay within noise of `results/index_ops_perf.md`.
//! Enabled, recording is lock-cheap: span records accumulate in a
//! thread-local buffer and only drain into the global store (one mutex
//! acquisition) when the thread's **root** span closes; counters and
//! histogram buckets are relaxed atomic adds behind a read lock that is
//! only write-acquired the first time a name is seen.
//!
//! # Example
//!
//! ```
//! use plfs::telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _root = telemetry::span(telemetry::SPAN_READ_OPEN);
//!     let _child = telemetry::span(telemetry::SPAN_INDEX_AGGREGATE);
//!     telemetry::count(telemetry::CTR_READ_BYTES, 4096);
//!     telemetry::record_ns(telemetry::HIST_IOPLANE_READ_AT, 1500);
//! } // guards close innermost-first; the root drains the thread buffer
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["read.bytes"], 4096);
//! assert_eq!(snap.spans[0].name, "read.open");
//! assert_eq!(snap.spans[0].children[0].name, "index.aggregate");
//! telemetry::set_enabled(false);
//! telemetry::reset();
//! ```

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------
// Vocabulary. Every name the registry speaks is one of these constants;
// DESIGN.md §5f is the authoritative table and plfs-lint checks the two
// against each other both ways (an undocumented constant and a table
// row naming a dead constant are both findings).

/// Span: `WriteHandle::open` — container create + openhosts registration.
pub const SPAN_WRITE_OPEN: &str = "write.open";
/// Span: one logical write landing as a data-log append.
pub const SPAN_WRITE_APPEND: &str = "write.append";
/// Span: flushing buffered index entries to the writer's index log.
pub const SPAN_WRITE_FLUSH: &str = "write.flush";
/// Span: writer close — final index flush, metadir record, deregister.
pub const SPAN_WRITE_CLOSE: &str = "write.close";
/// Span: coordinated Index Flatten close (gather, merge, compact, persist).
pub const SPAN_WRITE_FLATTEN: &str = "write.flatten";
/// Span: `Plfs::open_read` / `ReadHandle::open_bounded` — the read-open
/// index acquisition (a mount's stamp, then on a miss the load).
pub const SPAN_READ_OPEN: &str = "read.open";
/// Span: one coalesced logical read (index walk + batched data reads).
pub const SPAN_READ_LOOKUP: &str = "read.lookup";
/// Span: container-level index aggregation (serial or threaded).
pub const SPAN_INDEX_AGGREGATE: &str = "index.aggregate";
/// Span: one k-way resolve of index runs into a bulk index build.
pub const SPAN_INDEX_MERGE: &str = "index.merge";
/// Span: `fsck::check` — the full container scan phase.
pub const SPAN_FSCK_SCAN: &str = "fsck.scan";
/// Span: `fsck::repair` — the mechanical repair phase.
pub const SPAN_FSCK_REPAIR: &str = "fsck.repair";
/// Span: one `Backend::submit` batch through `submit_retried`.
pub const SPAN_IOPLANE_SUBMIT: &str = "ioplane.submit";

/// Counter: logical bytes acknowledged on the write path.
pub const CTR_WRITE_BYTES: &str = "write.bytes";
/// Counter: index records buffered (one per logical write).
pub const CTR_WRITE_RECORDS: &str = "write.records";
/// Counter: logical bytes served on the read path.
pub const CTR_READ_BYTES: &str = "read.bytes";
/// Counter: hole pieces served as zeros on the read path.
pub const CTR_READ_HOLES: &str = "read.holes";
/// Counter: subdir placements routed to a shadow (off-canonical) namespace.
pub const CTR_FED_SHADOW_SUBDIRS: &str = "federation.shadow_subdirs";
/// Counter: issues found by fsck scans.
pub const CTR_FSCK_ISSUES: &str = "fsck.issues";
/// Counter: simulation events popped by the DES scheduler.
pub const CTR_SIM_EVENTS: &str = "sim.events";
/// Counter: peak simultaneous pending DES events per run (a snapshot
/// spanning several runs sums their peaks).
pub const CTR_SIM_PEAK_LIVE: &str = "sim.peak_live";
/// Counter: span-cache window probes served from the cache.
pub const CTR_SPANCACHE_HITS: &str = "spancache.hits";
/// Counter: span-cache window probes that missed and went to the backend.
pub const CTR_SPANCACHE_MISSES: &str = "spancache.misses";
/// Counter: cached record windows evicted to hold the byte budget.
pub const CTR_SPANCACHE_EVICTIONS: &str = "spancache.evictions";
/// Counter: mount read-opens served a shared index (the stamp matched).
pub const CTR_INDEX_CACHE_HITS: &str = "index.cache.hits";
/// Counter: mount read-opens that aggregated (nothing shared, or stale).
pub const CTR_INDEX_CACHE_MISSES: &str = "index.cache.misses";
/// Counter: mount read-opens that waited on another open's aggregation of
/// the same container (single-flight followers; each then also counts as
/// a hit or a miss).
pub const CTR_INDEX_CACHE_WAITS: &str = "index.cache.waits";
/// Counter: shared indices dropped to hold the mount's byte budget.
pub const CTR_INDEX_CACHE_EVICTIONS: &str = "index.cache.evictions";
/// Counter: index logs a read-open's aggregation decoded as one
/// progression of two or more writes, the shape an interleave group needs.
pub const CTR_INDEX_PROGRESSION_LOGS: &str = "index.progression_logs";
/// Counter: log aggregations kept as an interleave group instead of a
/// span vector.
pub const CTR_INDEX_INTERLEAVE_GROUPS: &str = "index.interleave_groups";
/// Counter: service-layer ops admitted and completed (open/append/read/close).
pub const CTR_SVC_OPS: &str = "svc.ops";
/// Counter: service-layer admissions deferred by a tenant's token bucket.
pub const CTR_SVC_THROTTLED: &str = "svc.throttled";
/// Counter: service-layer sessions opened (writer + reader).
pub const CTR_SVC_OPENS: &str = "svc.opens";
/// Counter: index flushes forced by a tenant's dirty-byte budget.
pub const CTR_SVC_DIRTY_FLUSHES: &str = "svc.dirty_flushes";

/// Histogram: whole-batch `Backend::submit` latency.
pub const HIST_IOPLANE_BATCH: &str = "ioplane.batch";
/// Histogram: amortized per-op latency of `Mkdir` ops.
pub const HIST_IOPLANE_MKDIR: &str = "ioplane.mkdir";
/// Histogram: amortized per-op latency of `MkdirAll` ops.
pub const HIST_IOPLANE_MKDIR_ALL: &str = "ioplane.mkdir_all";
/// Histogram: amortized per-op latency of `Create` ops.
pub const HIST_IOPLANE_CREATE: &str = "ioplane.create";
/// Histogram: amortized per-op latency of `Append` ops.
pub const HIST_IOPLANE_APPEND: &str = "ioplane.append";
/// Histogram: amortized per-op latency of `ReadAt` ops.
pub const HIST_IOPLANE_READ_AT: &str = "ioplane.read_at";
/// Histogram: amortized per-op latency of `Size` ops.
pub const HIST_IOPLANE_SIZE: &str = "ioplane.size";
/// Histogram: amortized per-op latency of `Kind` ops.
pub const HIST_IOPLANE_KIND: &str = "ioplane.kind";
/// Histogram: amortized per-op latency of `Readdir` ops.
pub const HIST_IOPLANE_READDIR: &str = "ioplane.readdir";
/// Histogram: amortized per-op latency of `Unlink` ops.
pub const HIST_IOPLANE_UNLINK: &str = "ioplane.unlink";
/// Histogram: amortized per-op latency of `RemoveAll` ops.
pub const HIST_IOPLANE_REMOVE_ALL: &str = "ioplane.remove_all";
/// Histogram: amortized per-op latency of `Rename` ops.
pub const HIST_IOPLANE_RENAME: &str = "ioplane.rename";
/// Histogram: end-to-end service-layer op latency (admission through
/// completion; throttled probes are not recorded).
pub const HIST_SVC_OP: &str = "svc.op";

/// Number of fixed histogram buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns); the last bucket is
/// open-ended, catching everything ≥ ~2.1 s. Lint-pinned by the
/// DESIGN.md §5d format table so the bucket layout cannot drift
/// silently out from under exported snapshots.
pub const HIST_BUCKET_COUNT: usize = 32;

/// Cap on *retained* finished span records. Aggregate [`SpanStat`]s keep
/// counting past the cap; only the per-span tree nodes are dropped (and
/// counted in [`TelemetrySnapshot::dropped_spans`]).
pub const SPAN_CAPACITY: usize = 1 << 16;

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
// Global state.

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Turn recording on or off process-wide. Off is the default; disabled,
/// every instrumentation point is one relaxed load and an early return.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether telemetry is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Registry {
    counters: BTreeMap<&'static str, AtomicU64>,
    hists: BTreeMap<&'static str, Box<[AtomicU64]>>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(Registry {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        })
    })
}

/// One finished span, as stored (flat; the tree is rebuilt at snapshot).
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct SpanStore {
    records: Vec<SpanRecord>,
    dropped: u64,
    stats: BTreeMap<&'static str, SpanStat>,
}

fn span_store() -> &'static Mutex<SpanStore> {
    static STORE: OnceLock<Mutex<SpanStore>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(SpanStore::default()))
}

/// Monotonic epoch shared by every thread, so span start times are
/// comparable across threads within one process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Tls {
    /// Ids of currently-open spans on this thread, outermost first.
    stack: Vec<u64>,
    /// Finished spans awaiting the root-span drain.
    buf: Vec<SpanRecord>,
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls {
            stack: Vec::new(),
            buf: Vec::new(),
        })
    };
}

fn drain(buf: &mut Vec<SpanRecord>) {
    if buf.is_empty() {
        return;
    }
    let mut store = span_store().lock();
    for r in buf.iter() {
        let s = store.stats.entry(r.name).or_default();
        s.count += 1;
        s.total_ns += r.dur_ns;
        s.max_ns = s.max_ns.max(r.dur_ns);
    }
    let room = SPAN_CAPACITY.saturating_sub(store.records.len());
    if buf.len() > room {
        store.dropped += (buf.len() - room) as u64;
    }
    store.records.extend(buf.drain(..).take(room));
    buf.clear();
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
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Option<Instant>,
    start_ns: u64,
}

/// Open a span named `name` on this thread. `name` should be one of the
/// `SPAN_` vocabulary constants — DESIGN.md §5f documents them and the
/// lint gate holds the two sets equal.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: None,
            name,
            start: None,
            start_ns: 0,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = TLS
        .try_with(|t| {
            let mut t = t.borrow_mut();
            let p = t.stack.last().copied();
            t.stack.push(id);
            p
        })
        .unwrap_or(None);
    SpanGuard {
        id,
        parent,
        name,
        start: Some(Instant::now()),
        start_ns: epoch_ns(),
    }
}

/// Id of the innermost span currently open on this thread, if any.
///
/// This is the handle for carrying span ancestry across an execution
/// boundary that TLS cannot follow: capture it on the submitting thread,
/// ship it with the work, and reopen with [`span_with_parent`] on the
/// thread that actually runs the work. Returns `None` while telemetry is
/// disabled or no span is open.
#[inline]
pub fn current_span_id() -> Option<u64> {
    if !enabled() {
        return None;
    }
    TLS.try_with(|t| t.borrow().stack.last().copied())
        .unwrap_or(None)
}

/// Open a span with an explicit parent id instead of the thread-local
/// stack top.
///
/// Per-thread span stacks mean a span opened on a spawned worker thread
/// is a root there — it has no way to know it logically belongs under
/// the span that *submitted* the work. `span_with_parent` closes that
/// gap: pass the submitting thread's [`current_span_id`] and the worker
/// span (and, via the normal TLS stack, all of its children) nests under
/// the submitter in the exported forest. `None` makes an explicit root.
#[inline]
pub fn span_with_parent(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: None,
            name,
            start: None,
            start_ns: 0,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    // Still push onto the local stack so children opened on this thread
    // nest under this span; only the *parent link* is overridden. A
    // failed push means TLS is mid-teardown: the span still records,
    // its children just cannot nest on this thread.
    let _pushed: std::result::Result<(), _> =
        TLS.try_with(|t| t.borrow_mut().stack.push(id));
    SpanGuard {
        id,
        parent,
        name,
        start: Some(Instant::now()),
        start_ns: epoch_ns(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return; // created while disabled: a no-op
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns,
        };
        // try_with: thread-local storage may already be gone during
        // thread teardown; the record cannot be buffered then, so it
        // counts against `dropped_spans` like a capacity overflow.
        let teardown = TLS
            .try_with(|t| {
                let mut t = t.borrow_mut();
                // Pop until our own id: tolerates leaked child guards.
                while let Some(top) = t.stack.pop() {
                    if top == self.id {
                        break;
                    }
                }
                t.buf.push(record);
                if t.stack.is_empty() {
                    drain(&mut t.buf);
                }
            })
            .is_err();
        if teardown {
            span_store().lock().dropped += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Counters and histograms.

/// Add `delta` to the counter named `name` (a `CTR_` vocabulary
/// constant). No-op while disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    {
        let reg = registry().read();
        if let Some(c) = reg.counters.get(name) {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
    }
    let mut reg = registry().write();
    reg.counters
        .entry(name)
        .or_insert_with(|| AtomicU64::new(0))
        .fetch_add(delta, Ordering::Relaxed);
}

/// Record a latency of `ns` nanoseconds into the histogram named `name`
/// (a `HIST_` vocabulary constant). No-op while disabled.
#[inline]
pub fn record_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    let idx = bucket_index(ns);
    {
        let reg = registry().read();
        if let Some(h) = reg.hists.get(name) {
            h[idx].fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    let mut reg = registry().write();
    reg.hists.entry(name).or_insert_with(|| {
        (0..HIST_BUCKET_COUNT)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
    })[idx]
        .fetch_add(1, Ordering::Relaxed);
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

/// A point-in-time export of everything the registry holds: counters,
/// histograms, per-name span statistics, and the reconstructed span
/// forest. Obtained from [`snapshot`]; merged with
/// [`TelemetrySnapshot::merge`] (associative, so shards combine in any
/// grouping); rendered with [`TelemetrySnapshot::render_json`] /
/// [`TelemetrySnapshot::render_tree`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Aggregate span statistics by name (counted past [`SPAN_CAPACITY`]).
    pub span_stats: BTreeMap<String, SpanStat>,
    /// Reconstructed span forest: one root per outermost span, per
    /// thread, in drain order.
    pub spans: Vec<SpanNode>,
    /// Finished spans beyond [`SPAN_CAPACITY`] that kept their stats but
    /// lost their tree nodes.
    pub dropped_spans: u64,
}

/// Export the registry's current contents. Non-destructive: the
/// counters keep accumulating; bracket with [`snapshot`]-before /
/// [`snapshot`]-after or call [`reset`] for per-run numbers. Spans
/// still open (or finished but not yet drained by their root) are not
/// included.
pub fn snapshot() -> TelemetrySnapshot {
    let reg = registry().read();
    let counters = reg
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .hists
        .iter()
        .map(|(k, v)| {
            (
                k.to_string(),
                HistogramSnapshot {
                    buckets: v.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                },
            )
        })
        .collect();
    drop(reg);
    let store = span_store().lock();
    let span_stats = store
        .stats
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let spans = build_forest(&store.records);
    TelemetrySnapshot {
        counters,
        histograms,
        span_stats,
        spans,
        dropped_spans: store.dropped,
    }
}

/// Zero every counter, histogram, and retained span. Open spans on
/// other threads drain into the fresh store when their roots close.
pub fn reset() {
    let mut reg = registry().write();
    reg.counters.clear();
    reg.hists.clear();
    drop(reg);
    let mut store = span_store().lock();
    *store = SpanStore::default();
}

fn build_forest(records: &[SpanRecord]) -> Vec<SpanNode> {
    // Children grouped by parent id; present ids for root detection (a
    // parent evicted by the capacity cap promotes its children to roots).
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut present: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for r in records {
        present.insert(r.id);
    }
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
            let mine = self
                .histograms
                .entry(k.clone())
                .or_insert_with(|| HistogramSnapshot {
                    buckets: vec![0; HIST_BUCKET_COUNT],
                });
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
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_str(k), v));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"buckets\": [",
                json_str(k),
                h.count()
            ));
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    s.push_str(", ");
                }
                first = false;
                let lt = if b + 1 >= HIST_BUCKET_COUNT {
                    "null".to_string()
                } else {
                    bucket_floor_ns(b + 1).to_string()
                };
                s.push_str(&format!(
                    "{{\"ge_ns\": {}, \"lt_ns\": {}, \"count\": {}}}",
                    bucket_floor_ns(b),
                    lt,
                    n
                ));
            }
            s.push_str("]}");
        }
        s.push_str("\n  },\n  \"span_stats\": {");
        for (i, (k, st)) in self.span_stats.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json_str(k),
                st.count,
                st.total_ns,
                st.max_ns
            ));
        }
        s.push_str(&format!(
            "\n  }},\n  \"dropped_spans\": {},\n  \"spans\": [",
            self.dropped_spans
        ));
        for (i, n) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            json_span(&mut s, n, 4);
        }
        s.push_str("\n  ]\n}\n");
        s
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
                "  ({} span(s) past the {} retained-span cap kept stats only)",
                self.dropped_spans, SPAN_CAPACITY
            ));
            s.push('\n');
        }
        s.push_str("span totals:\n");
        for (name, st) in &self.span_stats {
            s.push_str(&format!(
                "  {name:<20} count {:>6}  total {:>10}  max {:>10}",
                st.count,
                fmt_ns(st.total_ns),
                fmt_ns(st.max_ns)
            ));
            s.push('\n');
        }
        s.push_str("counters:\n");
        if self.counters.is_empty() {
            s.push_str("  (none)\n");
        }
        for (name, v) in &self.counters {
            s.push_str(&format!("  {name:<28} {v}"));
            s.push('\n');
        }
        s.push_str("histograms:\n");
        for (name, h) in &self.histograms {
            s.push_str(&format!("  {name:<20} count {:>6}  ", h.count()));
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    s.push_str("  ");
                }
                first = false;
                let lt = if b + 1 >= HIST_BUCKET_COUNT {
                    "inf".into()
                } else {
                    fmt_ns(bucket_floor_ns(b + 1))
                };
                s.push_str(&format!("[{},{lt}):{n}", fmt_ns(bucket_floor_ns(b))));
            }
            s.push('\n');
        }
        s
    }
}

fn json_span(s: &mut String, n: &SpanNode, indent: usize) {
    let pad = " ".repeat(indent);
    s.push_str(&format!(
        "{pad}{{\"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"children\": [",
        json_str(&n.name),
        n.start_ns,
        n.dur_ns
    ));
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        json_span(s, c, indent + 2);
    }
    if !n.children.is_empty() {
        s.push_str(&format!("\n{pad}"));
    }
    s.push_str("]}");
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
    use super::*;

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
}
