//! Tests that switch the process-global telemetry plane on, or read the
//! process-global I/O-plane counters exactly.
//!
//! They live in a test binary of their own, and every test here holds
//! [`Scope`]: inside the crate's unit-test binary they shared a process
//! with some two hundred tests that run in parallel and record spans and
//! counters of their own, which no lock taken only by these tests can
//! keep out of a snapshot.

use plfs::ioplane;
use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::telemetry::*;
use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Content, Federation, MemFs, Plfs, PlfsConfig};
use std::sync::{Arc, Mutex, MutexGuard};

/// One lock serializes the tests; the plane starts reset, and dropping
/// the scope (also on a panic) leaves it disabled and reset before the
/// lock is released. A test builds its fixture under the lock too, so
/// its backend ops never land in another test's snapshot.
struct Scope {
    _lock: MutexGuard<'static, ()>,
}

impl Scope {
    /// The lock, with the plane disabled: build the fixture, then
    /// `set_enabled(true)` to record.
    fn disabled() -> Scope {
        static LOCK: Mutex<()> = Mutex::new(());
        // A test that failed while holding the lock poisons it; the
        // state it guards is reset below either way.
        let scope = Scope {
            _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        };
        reset();
        scope
    }

    fn enabled() -> Scope {
        let scope = Scope::disabled();
        set_enabled(true);
        scope
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        set_enabled(false);
        reset();
    }
}

#[test]
fn spans_nest_and_export_as_a_tree() {
    let _scope = Scope::enabled();
    {
        let _root = span(SPAN_READ_OPEN);
        {
            let _child = span(SPAN_INDEX_AGGREGATE);
            let _grandchild = span(SPAN_INDEX_MERGE);
        }
        let _sibling = span(SPAN_READ_LOOKUP);
    }
    let snap = snapshot();
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
    let _scope = Scope::enabled();
    fn early(x: bool) -> u32 {
        let _s = span(SPAN_WRITE_FLUSH);
        if x {
            return 1; // guard drops here
        }
        2
    }
    assert_eq!(early(true), 1);
    let caught = std::panic::catch_unwind(|| {
        let _root = span(SPAN_WRITE_CLOSE);
        let _child = span(SPAN_WRITE_FLUSH);
        panic!("boom");
    });
    assert!(caught.is_err());
    // Stack unwound cleanly: a fresh root still exports as a root.
    {
        let _r = span(SPAN_FSCK_SCAN);
    }
    let snap = snapshot();
    let roots: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(roots.contains(&SPAN_WRITE_FLUSH), "{roots:?}");
    assert!(roots.contains(&SPAN_WRITE_CLOSE), "{roots:?}");
    assert!(roots.contains(&SPAN_FSCK_SCAN), "{roots:?}");
    // The panicking pair still closed child-inside-parent.
    let close = snap
        .spans
        .iter()
        .find(|s| s.name == SPAN_WRITE_CLOSE)
        .unwrap();
    assert_eq!(close.children.len(), 1);
    assert_eq!(close.children[0].name, SPAN_WRITE_FLUSH);
}

#[test]
fn leaked_child_guard_does_not_corrupt_the_stack() {
    let _scope = Scope::enabled();
    {
        let root = span(SPAN_WRITE_OPEN);
        let child = span(SPAN_WRITE_APPEND);
        // Drop out of order: root first, then child.
        drop(root);
        drop(child);
    }
    {
        let _next = span(SPAN_FSCK_REPAIR);
    }
    let snap = snapshot();
    let roots: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    // The next span must be a root, not a child of the leaked one.
    assert!(roots.contains(&SPAN_FSCK_REPAIR), "{roots:?}");
}

#[test]
fn disabled_mode_records_nothing() {
    let _scope = Scope::enabled();
    set_enabled(false);
    {
        let _s = span(SPAN_READ_OPEN);
        count(CTR_READ_BYTES, 100);
        record_ns(HIST_IOPLANE_READ_AT, 500);
    }
    let snap = snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.span_stats.is_empty());
}

#[test]
fn counters_and_histograms_accumulate() {
    let _scope = Scope::enabled();
    count(CTR_WRITE_BYTES, 10);
    count(CTR_WRITE_BYTES, 5);
    record_ns(HIST_IOPLANE_APPEND, 3); // bucket 1
    record_ns(HIST_IOPLANE_APPEND, 3);
    record_ns(HIST_IOPLANE_APPEND, 1 << 20); // bucket 20
    let snap = snapshot();
    assert_eq!(snap.counters[CTR_WRITE_BYTES], 15);
    let h = &snap.histograms[HIST_IOPLANE_APPEND];
    assert_eq!(h.count(), 3);
    assert_eq!(h.buckets[1], 2);
    assert_eq!(h.buckets[20], 1);
}

#[test]
fn merge_is_associative_and_snapshot_nondestructive() {
    let _scope = Scope::enabled();
    count(CTR_READ_BYTES, 7);
    let a = snapshot();
    let b = snapshot();
    assert_eq!(a, b, "snapshot must not drain state");
    let mut ab = a.clone();
    ab.merge(&b);
    assert_eq!(ab.counters[CTR_READ_BYTES], 14);
}

#[test]
fn per_thread_stacks_are_independent() {
    let _scope = Scope::enabled();
    std::thread::scope(|sc| {
        let _outer = span(SPAN_READ_OPEN);
        sc.spawn(|| {
            let _inner = span(SPAN_INDEX_MERGE);
        });
    });
    let snap = snapshot();
    // The spawned thread's span is a root of its own, never a child
    // of the other thread's open span.
    let merge_root = snap.spans.iter().find(|s| s.name == SPAN_INDEX_MERGE);
    assert!(merge_root.is_some(), "{:?}", snap.spans);
}

#[test]
fn explicit_parent_carries_ancestry_across_threads() {
    let _scope = Scope::enabled();
    std::thread::scope(|sc| {
        let outer = span(SPAN_WRITE_FLUSH);
        let parent = current_span_id();
        assert!(parent.is_some());
        sc.spawn(move || {
            // Without the explicit parent this would export as an
            // orphan root on the worker thread.
            let _worker = span_with_parent(SPAN_INDEX_AGGREGATE, parent);
            let _inner = span(SPAN_IOPLANE_SUBMIT);
        })
        .join()
        .unwrap();
        drop(outer);
    });
    let snap = snapshot();
    let root = snap
        .spans
        .iter()
        .find(|s| s.name == SPAN_WRITE_FLUSH)
        .expect("submitting span must be a root");
    let worker = root
        .children
        .iter()
        .find(|c| c.name == SPAN_INDEX_AGGREGATE)
        .expect("worker span must nest under the submitter");
    // TLS nesting still works underneath the carried parent.
    assert_eq!(worker.children[0].name, SPAN_IOPLANE_SUBMIT);
    // And no orphan copy of the worker span exists at the top level.
    assert!(snap.spans.iter().all(|s| s.name != SPAN_INDEX_AGGREGATE));
}

#[test]
fn current_span_id_is_none_when_disabled_or_idle() {
    let _scope = Scope::enabled();
    assert_eq!(current_span_id(), None);
    {
        let _root = span(SPAN_READ_OPEN);
        assert!(current_span_id().is_some());
    }
    // Disabled again: even inside a (no-op) span, no id.
    set_enabled(false);
    let _dead = span(SPAN_READ_OPEN);
    assert_eq!(current_span_id(), None);
}

#[test]
fn json_export_is_structurally_sound() {
    let _scope = Scope::enabled();
    {
        let _r = span(SPAN_READ_OPEN);
        count(CTR_READ_BYTES, 1);
        record_ns(HIST_IOPLANE_READ_AT, 100);
    }
    let j = snapshot().render_json();
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
    let _scope = Scope::enabled();
    for _ in 0..(SPAN_CAPACITY + 10) {
        let _s = span(SPAN_WRITE_APPEND);
    }
    let snap = snapshot();
    assert_eq!(snap.spans.len(), SPAN_CAPACITY);
    assert_eq!(snap.dropped_spans, 10);
    assert_eq!(
        snap.span_stats[SPAN_WRITE_APPEND].count,
        (SPAN_CAPACITY + 10) as u64
    );
}

#[test]
fn svc_telemetry_counts_ops_and_throttles() {
    fn grant<T>(a: Admitted<T>) -> T {
        a.granted().expect("admitted")
    }
    let mut cfg = ServiceConfig::basic("/panfs");
    cfg.token_rate = 1;
    cfg.token_burst = 2;
    let _scope = Scope::disabled();
    let s = Service::new(Arc::new(MemFs::new()), cfg).unwrap();
    set_enabled(true);
    let h = grant(s.open_write("t", "/f").unwrap());
    s.append(h, 0, &Content::bytes(vec![1])).unwrap();
    assert!(s
        .append(h, 1, &Content::bytes(vec![2]))
        .unwrap()
        .is_throttled());
    set_enabled(false);
    let snap = snapshot();
    assert_eq!(snap.counters[CTR_SVC_OPENS], 1);
    assert_eq!(snap.counters[CTR_SVC_THROTTLED], 1);
    assert!(snap.counters[CTR_SVC_OPS] >= 2);
    assert!(snap.histograms[HIST_SVC_OP].count() >= 2);
}

#[test]
fn index_cache_counts_say_whether_an_open_aggregated_or_shared() {
    let _scope = Scope::disabled();
    let fs = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/panfs")).unwrap();
    let mut w = fs.open_write("/f", 0).unwrap();
    w.write(0, &Content::bytes(vec![1; 8]), 1).unwrap();
    w.close(2).unwrap();
    set_enabled(true);
    for _ in 0..3 {
        fs.open_read("/f").unwrap();
    }
    set_enabled(false);
    let snap = snapshot();
    assert_eq!(snap.counters[CTR_INDEX_CACHE_MISSES], 1);
    assert_eq!(snap.counters[CTR_INDEX_CACHE_HITS], 2);
    assert!(!snap.counters.contains_key(CTR_INDEX_CACHE_WAITS));
    assert!(!snap.counters.contains_key(CTR_INDEX_CACHE_EVICTIONS));
    // All three opens are `read.open` spans; only the miss aggregated.
    let opens: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == SPAN_READ_OPEN)
        .collect();
    assert_eq!(opens.len(), 3);
    let aggregated = |s: &&&SpanNode| s.children.iter().any(|c| c.name == SPAN_INDEX_AGGREGATE);
    assert_eq!(opens.iter().filter(aggregated).count(), 1);
}

#[test]
fn index_cache_followers_count_as_waits_and_then_as_hits() {
    const THREADS: u64 = 4;
    let _scope = Scope::disabled();
    let store = Arc::new(MemFs::new());
    let fs = Plfs::new(Arc::clone(&store), PlfsConfig::basic("/panfs")).unwrap();
    let mut w = fs.open_write("/f", 0).unwrap();
    w.write(0, &Content::bytes(vec![1; 8]), 1).unwrap();
    w.close(2).unwrap();
    set_enabled(true);
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                fs.open_read("/f").unwrap();
            });
        }
    });
    set_enabled(false);
    let snap = snapshot();
    // One leader whatever the schedule; a follower waited only if it
    // arrived while the leader was still aggregating.
    assert_eq!(snap.counters[CTR_INDEX_CACHE_MISSES], 1);
    assert_eq!(snap.counters[CTR_INDEX_CACHE_HITS], THREADS - 1);
    let waits = snap.counters.get(CTR_INDEX_CACHE_WAITS).copied();
    assert!(waits.unwrap_or(0) < THREADS);
}

/// Figure-4 read-open shape: 16 writers × 20 strided 4 KiB blocks into
/// one 4-subdir container, written before recording starts.
fn build_fig4(backend: &Arc<MemFs>, cont: &Container) {
    const WRITERS: u64 = 16;
    const BLOCK: u64 = 4096;
    for w in 0..WRITERS {
        let mut h =
            WriteHandle::open(Arc::clone(backend), cont.clone(), w, IndexPolicy::WriteClose)
                .unwrap();
        for k in 0..20 {
            h.write((k * WRITERS + w) * BLOCK, &Content::synthetic(w, BLOCK), k + 1)
                .unwrap();
        }
        h.close(99).unwrap();
    }
}

/// Count spans named `name` anywhere in the forest.
fn count_named(nodes: &[SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| usize::from(n.name == name) + count_named(&n.children, name))
        .sum()
}

/// A mount's read-open of a fig-4 container records a `read.open` root
/// whose subtree holds the index-aggregation fan-out, with the I/O plane
/// underneath.
#[test]
fn fig4_read_open_span_tree() {
    let _scope = Scope::disabled();
    let backend = Arc::new(MemFs::new());
    let federation = Federation::single("/panfs", 4);
    build_fig4(&backend, &Container::new("/fig4/ckpt", &federation));
    let config = PlfsConfig {
        federation,
        index_policy: IndexPolicy::WriteClose,
    };
    let fs = Plfs::new(backend, config).unwrap();
    set_enabled(true);
    fs.open_read("/fig4/ckpt").unwrap();
    set_enabled(false);
    let snap = snapshot();

    // Exactly one read.open, and it is a root on the opening thread.
    assert_eq!(count_named(&snap.spans, SPAN_READ_OPEN), 1);
    let open = snap
        .spans
        .iter()
        .find(|n| n.name == SPAN_READ_OPEN)
        .expect("read.open must be a root span");

    // index.aggregate runs inside the open.
    let agg = open
        .children
        .iter()
        .find(|n| n.name == SPAN_INDEX_AGGREGATE)
        .expect("index.aggregate must be a child of read.open");
    assert!(agg.dur_ns <= open.dur_ns, "open covers aggregation");
    assert!(
        agg.start_ns >= open.start_ns,
        "aggregation starts inside the open"
    );

    // Subdir listings and index-log reads all go through submit — on the
    // opening thread or under a shard thread's nested `index.aggregate`,
    // so require presence anywhere in the forest, never as a root.
    assert!(
        count_named(&snap.spans, SPAN_IOPLANE_SUBMIT) > 0,
        "read-open must hit the I/O plane"
    );
    assert!(
        snap.spans.iter().all(|n| n.name != SPAN_IOPLANE_SUBMIT),
        "a shard thread's submit must never be an orphan root"
    );

    // And the rollup agrees with the raw records.
    let stat = &snap.span_stats[SPAN_READ_OPEN];
    assert_eq!(stat.count, 1);
    assert_eq!(stat.max_ns, open.dur_ns);
}

/// Cross-thread ancestry that holds on one core: 16 index logs are four
/// read slices, so a 4-thread aggregation runs four shard threads
/// whatever the core count, and every `index.aggregate` and
/// `ioplane.submit` they record nests under the caller's
/// `index.aggregate` — no orphan root.
#[test]
fn fig4_parallel_aggregation_keeps_cross_thread_ancestry() {
    let _scope = Scope::disabled();
    let backend = Arc::new(MemFs::new());
    let cont = Container::new("/fig4/ckpt", &Federation::single("/panfs", 4));
    build_fig4(&backend, &cont);
    let resolved = cont.subdirs_phys_batch(&backend).unwrap();
    let writers = cont.list_writers(&backend).unwrap();
    set_enabled(true);
    let aggregated = {
        let _caller = span(SPAN_INDEX_AGGREGATE);
        cont.read_index_runs(&backend, &resolved, &writers, 4)
    };
    set_enabled(false);
    aggregated.unwrap();
    let snap = snapshot();

    let roots: Vec<&SpanNode> = snap
        .spans
        .iter()
        .filter(|n| n.name == SPAN_INDEX_AGGREGATE)
        .collect();
    assert_eq!(roots.len(), 1, "one caller root: {:?}", snap.spans);
    let root = std::slice::from_ref(roots[0]);
    let shards = root[0]
        .children
        .iter()
        .filter(|n| n.name == SPAN_INDEX_AGGREGATE)
        .count();
    assert_eq!(shards, 4, "one nested index.aggregate per shard thread");
    for name in [SPAN_INDEX_AGGREGATE, SPAN_IOPLANE_SUBMIT] {
        assert_eq!(
            count_named(&snap.spans, name),
            count_named(root, name),
            "every {name} nests under the caller"
        );
    }
    assert!(count_named(root, SPAN_IOPLANE_SUBMIT) >= 4);
}

/// An empty batch never reaches the backend and counts as nothing.
#[test]
fn empty_batch_is_free() {
    let _scope = Scope::disabled();
    let before = ioplane::stats();
    assert!(ioplane::submit_retried(&MemFs::new(), &[]).is_empty());
    assert_eq!(ioplane::stats(), before);
}
