//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files only — around its calls
//! into a layer's public functions and inside the [`crate::timed`]
//! wrappers — never from inside the program. A span is
//! `(id, parent, name, thread, start_ns, end_ns)`; spans nest per thread,
//! so a layer's *self time* (its duration minus the part its same-thread
//! children cover) is accumulated as each span closes. Every closed span
//! folds into a per-name aggregate; the first [`RAW_SPANS_PER_THREAD`] of
//! each thread are also kept raw for `out/trace-<workload>.json`.
//!
//! Disabled (the end-to-end pass), [`enter`] is one relaxed load plus the
//! `Instant::now()` the caller needs anyway for its latency sample.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept per thread for the trace file; aggregates are unbounded.
pub const RAW_SPANS_PER_THREAD: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one; 0 for a thread root. A span run on
    /// another thread than its cause (reactor workers) still names it.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Default)]
struct Sink {
    aggs: BTreeMap<&'static str, Agg>,
    raw: Vec<SpanRec>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::default()))
}

struct Frame {
    id: u64,
    child_ns: u64,
}

struct Local {
    thread: u32,
    next: u64,
    stack: Vec<Frame>,
    aggs: BTreeMap<&'static str, Agg>,
    raw: Vec<SpanRec>,
}

impl Local {
    fn flush(&mut self) {
        if self.aggs.is_empty() && self.raw.is_empty() {
            return;
        }
        let mut sink = sink().lock().expect("trace sink poisoned");
        for (name, a) in std::mem::take(&mut self.aggs) {
            let s = sink.aggs.entry(name).or_default();
            s.count += a.count;
            s.total_ns += a.total_ns;
            s.self_ns += a.self_ns;
        }
        sink.raw.append(&mut self.raw);
    }
}

// A thread the program owns (a reactor worker) cannot be asked to flush,
// so its spans reach the sink when its thread-local is destroyed — which
// happens before `Reactor::drop` finishes joining it.
impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next: 1,
        stack: Vec::new(),
        aggs: BTreeMap::new(),
        raw: Vec::new(),
    });
}

/// Turn span recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span. [`Span::exit`] closes it and returns its duration, which
/// the caller also uses as its latency sample — so a span costs nothing
/// beyond that timestamp when recording is off.
#[must_use = "call exit() where the measured call returns"]
pub struct Span {
    name: &'static str,
    start: Instant,
    /// 0 when recording was off at entry.
    id: u64,
    parent: u64,
}

/// Open a span under the innermost open span of this thread.
#[inline]
pub fn enter(name: &'static str) -> Span {
    enter_caused_by(name, 0)
}

/// Open a span; when this thread has no open span, `cause` (a span id
/// from another thread, or 0) is recorded as its parent.
#[inline]
pub fn enter_caused_by(name: &'static str, cause: u64) -> Span {
    let start = Instant::now();
    if !enabled() {
        return Span {
            name,
            start,
            id: 0,
            parent: 0,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = (u64::from(l.thread) << 40) | l.next;
        l.next += 1;
        let parent = l.stack.last().map_or(cause, |f| f.id);
        l.stack.push(Frame { id, child_ns: 0 });
        Span {
            name,
            start,
            id,
            parent,
        }
    })
}

/// Whether this thread has an open span.
pub fn in_span() -> bool {
    LOCAL.with(|l| !l.borrow().stack.is_empty())
}

impl Span {
    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Nanoseconds since the trace epoch at which the span opened.
    pub fn start_ns(&self) -> u64 {
        self.start.duration_since(epoch()).as_nanos() as u64
    }

    /// Close the span; returns its duration in nanoseconds.
    #[inline]
    pub fn exit(self) -> u64 {
        let dur = self.start.elapsed().as_nanos() as u64;
        if self.id == 0 {
            return dur;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Spans close in LIFO order on their own thread; anything
            // else is a bug in the benchmark, not in the program.
            let frame = l.stack.pop().expect("span exit without enter");
            assert_eq!(
                frame.id, self.id,
                "span `{}` closed out of order",
                self.name
            );
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += dur;
            }
            let a = l.aggs.entry(self.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(frame.child_ns);
            if l.raw.len() < RAW_SPANS_PER_THREAD {
                let start_ns = self.start_ns();
                let thread = l.thread;
                l.raw.push(SpanRec {
                    id: self.id,
                    parent: self.parent,
                    name: self.name,
                    thread,
                    start_ns,
                    end_ns: start_ns + dur,
                });
            }
        });
        dur
    }
}

/// Time `f` under a span named `name`; returns its result and duration.
#[inline]
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let sp = enter(name);
    let v = f();
    (v, sp.exit())
}

/// Move this thread's closed spans to the global sink. Threads the
/// benchmark spawns call this before they end; the main thread before
/// [`take`].
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Everything recorded so far, leaving the sink empty.
pub fn take() -> (BTreeMap<&'static str, Agg>, Vec<SpanRec>) {
    flush_thread();
    let mut sink = sink().lock().expect("trace sink poisoned");
    let s = std::mem::take(&mut *sink);
    (s.aggs, s.raw)
}

/// Render spans and aggregates as the `trace-<workload>.json` document.
pub fn render_json(
    workload: &str,
    aggs: &BTreeMap<&'static str, Agg>,
    raw: &[SpanRec],
    exact: &[&str],
) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(raw.len() * 96 + 4096);
    let _ = write!(s, "{{\"workload\":\"{workload}\",\"exact\":[");
    for (i, e) in exact.iter().enumerate() {
        let _ = write!(s, "{}\"{e}\"", if i == 0 { "" } else { "," });
    }
    s.push_str("],\n\"layers\":[");
    for (i, (name, a)) in aggs.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { "," },
            a.count,
            a.total_ns,
            a.self_ns
        );
    }
    s.push_str("],\n\"spans\":[");
    for (i, r) in raw.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            r.id,
            r.parent,
            r.name,
            r.thread,
            r.start_ns,
            r.end_ns
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the recorder is process-global, and cargo runs tests of
    // a binary on parallel threads.
    #[test]
    fn self_time_excludes_same_thread_children_and_disabled_records_nothing() {
        let sp = enter("off");
        assert_eq!(sp.id(), 0);
        sp.exit();
        set_enabled(true);
        let outer = enter("t.outer");
        let outer_id = outer.id();
        let inner = enter("t.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = inner.exit();
        let outer_ns = outer.exit();
        let worker = std::thread::spawn(move || {
            let sp = enter_caused_by("t.worker", outer_id);
            sp.exit();
            flush_thread();
        });
        worker.join().unwrap();
        set_enabled(false);
        let (aggs, raw) = take();
        assert!(!aggs.contains_key("off"));
        assert_eq!(aggs["t.inner"].self_ns, inner_ns);
        assert_eq!(aggs["t.outer"].total_ns, outer_ns);
        assert_eq!(aggs["t.outer"].self_ns, outer_ns - inner_ns);
        let by = |n: &str| *raw.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by("t.inner").parent, outer_id);
        assert_eq!(by("t.outer").parent, 0);
        assert_eq!(by("t.worker").parent, outer_id);
        assert_ne!(by("t.worker").thread, by("t.outer").thread);
        let json = render_json("w", &aggs, &raw, &["x"]);
        assert!(json.contains("\"name\":\"t.inner\"") && json.contains("\"exact\":[\"x\"]"));
    }
}
