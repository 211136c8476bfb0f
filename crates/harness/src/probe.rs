//! Real-middleware telemetry probes.
//!
//! The harness mostly *simulates* PLFS (`mpio::PlfsDriver` over
//! `SimPfs`), which is the right tool for figure-scale sweeps but never
//! exercises the real write/read/index code. The probes here close that
//! gap: they drive the actual middleware crate over `MemFs` in the same
//! shapes the figures use, with the telemetry plane (DESIGN.md §5f)
//! enabled, and hand back the captured [`plfs::TelemetrySnapshot`] so
//! callers can assert on (or render) the span tree the real code
//! produced.

use plfs::writer::{IndexPolicy, WriteHandle};
use plfs::{Container, Content, Federation, MemFs, Plfs, PlfsConfig, TelemetrySnapshot};
use std::sync::Arc;

/// Figure-4 read-open shape: 16 writers × 20 strided 4 KiB blocks into
/// one 4-subdir container.
const WRITERS: u64 = 16;
const BLOCKS: u64 = 20;
const BLOCK: u64 = 4096;
const SUBDIRS: usize = 4;

/// Build a fig-4-shaped container on `MemFs` and open it for reading
/// through a fresh mount with telemetry enabled; return the captured
/// snapshot.
///
/// The snapshot covers the *open only* — the parallel index-aggregation
/// fan-out that Figure 4 of the paper measures — not the byte reads.
/// The span forest shows `read.open` with an `index.aggregate` child on
/// the opening thread; when aggregation fans out to worker threads,
/// each reopens `index.aggregate` under the opener's span, so their
/// `ioplane.submit` spans stay inside the same tree.
///
/// Telemetry is process-global: the probe resets it, records only its
/// own read-open window (the container build happens *before* recording
/// starts), and disables it again before returning.
pub fn fig4_read_open_snapshot() -> Result<TelemetrySnapshot, String> {
    let backend = Arc::new(MemFs::new());
    let federation = Federation::single("/panfs", SUBDIRS);
    build_fig4(&backend, &Container::new("/fig4/ckpt", &federation))?;
    let config = PlfsConfig {
        federation,
        index_policy: IndexPolicy::WriteClose,
    };
    let fs = Plfs::new(backend, config).map_err(|e| format!("mount: {e}"))?;

    plfs::telemetry::reset();
    plfs::telemetry::set_enabled(true);
    let opened = fs.open_read("/fig4/ckpt");
    plfs::telemetry::set_enabled(false);
    opened.map_err(|e| format!("read open: {e}"))?;
    Ok(plfs::telemetry::snapshot())
}

fn build_fig4(backend: &Arc<MemFs>, cont: &Container) -> Result<(), String> {
    for w in 0..WRITERS {
        let mut h =
            WriteHandle::open(Arc::clone(backend), cont.clone(), w, IndexPolicy::WriteClose)
                .map_err(|e| format!("open writer {w}: {e}"))?;
        for k in 0..BLOCKS {
            h.write(
                (k * WRITERS + w) * BLOCK,
                &Content::synthetic(w, BLOCK),
                k + 1,
            )
            .map_err(|e| format!("write {w}/{k}: {e}"))?;
        }
        h.close(99).map_err(|e| format!("close writer {w}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plfs::telemetry::{SpanNode, SPAN_INDEX_AGGREGATE, SPAN_IOPLANE_SUBMIT, SPAN_READ_OPEN};

    /// Telemetry is process-global; probe tests must not interleave.
    fn telemetry_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Count spans named `name` anywhere in the forest.
    fn count_named(nodes: &[SpanNode], name: &str) -> usize {
        nodes
            .iter()
            .map(|n| usize::from(n.name == name) + count_named(&n.children, name))
            .sum()
    }

    /// The fig-4 read-open probe produces the expected span tree from
    /// the real middleware: a `read.open` root whose subtree contains
    /// the index-aggregation fan-out, with the I/O plane underneath.
    #[test]
    fn fig4_read_open_span_tree() {
        let _guard = telemetry_guard();
        let snap = fig4_read_open_snapshot().unwrap();

        // Exactly one read.open, and it is a root on the opening thread.
        assert_eq!(
            count_named(&snap.spans, SPAN_READ_OPEN),
            1,
            "expected one read.open span"
        );
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

        // The I/O plane is exercised underneath: subdir listings and
        // index-log reads all go through submit — on the opening thread
        // or under a shard thread's nested `index.aggregate`, so require
        // presence anywhere in the forest rather than a fixed parent.
        assert!(
            count_named(&snap.spans, SPAN_IOPLANE_SUBMIT) > 0,
            "read-open must hit the I/O plane"
        );
        assert!(
            snap.spans.iter().all(|n| n.name != SPAN_IOPLANE_SUBMIT),
            "a shard thread's submit must never be an orphan root"
        );

        // And the rollup agrees with the raw records.
        let stat = snap
            .span_stats
            .get(SPAN_READ_OPEN)
            .expect("span totals must include read.open");
        assert_eq!(stat.count, 1);
        assert_eq!(stat.max_ns, open.dur_ns);
    }

    /// Cross-thread ancestry that holds on one core: 16 index logs are
    /// four read slices, so a 4-thread aggregation runs four shard
    /// threads whatever the core count, and every `index.aggregate` and
    /// `ioplane.submit` they record nests under the caller's
    /// `index.aggregate` — no orphan root.
    #[test]
    fn fig4_parallel_aggregation_keeps_cross_thread_ancestry() {
        let _guard = telemetry_guard();
        let backend = Arc::new(MemFs::new());
        let cont = Container::new("/fig4/ckpt", &Federation::single("/panfs", SUBDIRS));
        build_fig4(&backend, &cont).unwrap();

        let resolved = cont.subdirs_phys_batch(&backend).unwrap();
        let writers = cont.list_writers(&backend).unwrap();
        plfs::telemetry::reset();
        plfs::telemetry::set_enabled(true);
        let aggregated = {
            let _caller = plfs::telemetry::span(SPAN_INDEX_AGGREGATE);
            cont.read_index_runs(&backend, &resolved, &writers, 4)
        };
        plfs::telemetry::set_enabled(false);
        aggregated.unwrap();
        let snap = plfs::telemetry::snapshot();

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
}
