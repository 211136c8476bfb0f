//! `io_plane` — op-count / round-trip profiler for the unified I/O
//! plane (DESIGN.md §5e), and the tier-1 ratchet behind
//! `results/io_plane.md`.
//!
//! Four profiles run over `TracingBackend<MemFs>` at debug-friendly
//! sizes (the same shapes the pre-refactor baseline was measured at):
//!
//! * `write-close`  — 1 writer × 20 × 4 KB strided writes + close
//! * `read-open`    — 16 writers × 20 × 4 KB, 4 subdirs;
//!   `ReadHandle::open` (the parallel index-aggregation fan-out)
//! * `strided-read` — the same container read back as 20 × 64 KB
//!   sequential slices
//! * `fsck-scan`    — `fsck::check` full container scan
//!
//! Reported per profile:
//!
//! * `ops`      — backend ops issued (every op was its own round trip
//!   before the plane existed, so this is also the "before" trip count)
//! * `batches`  — `submit` calls that reached the backend
//! * `trips`    — batches + ops that bypassed the plane: physical round
//!   trips now
//! * `coalesce` — plane ops per batch
//! * `wall`     — wall-clock, microseconds (informational, unratcheted:
//!   MemFs timing is noisy and the op counts are the real contract)
//!
//! Modes: plain run prints the table; `--write <file>` rewrites the
//! results file; `--check <file>` exits 1 if any profile's `ops` or
//! `trips` exceed the committed numbers — the budget only ratchets down.
//! `--spans` runs the same profiles with the telemetry plane (DESIGN.md
//! §5f) enabled and appends the captured span tree, counters, and
//! per-op latency histograms after the table — wall-clock numbers in
//! that mode include recording overhead, so it is never combined with
//! `--check`.
//!
//! `--async` switches to the asynchronous-plane panels (DESIGN.md §5h):
//! each fig4-shaped probe runs twice over a `SlowBackend` (MemFs plus a
//! fixed per-data-op latency), once on the synchronous plane and once
//! through a `Reactor`, reporting both walls plus the overlap ratio
//! `1 − blocked_ns / async_wall` from the `async.blocked_ns` counter.
//! `--async --write <file>` records the panels and an overlap floor in
//! `results/io_async.md`; `--async --check <file>` re-runs and fails if
//! a checked panel stops beating its synchronous twin or the measured
//! overlap falls under the committed floor (the floor only ratchets up).

use plfs::backend::NodeKind;
use plfs::reader::ReadHandle;
use plfs::writer::{flatten_close, flatten_close_async, FlattenHandle, IndexPolicy, WriteHandle};
use plfs::{
    fsck, ioplane, Backend, Container, Content, Federation, MemFs, Reactor, Result as PlfsResult,
    TracingBackend,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KB: u64 = 1024;
const WRITERS: u64 = 16;
const BLOCKS: u64 = 20;
const BLOCK: u64 = 4 * KB;
const SUBDIRS: usize = 4;

struct Profile {
    name: &'static str,
    ops: u64,
    batches: u64,
    trips: u64,
    coalesce: f64,
    wall_us: u128,
}

/// Run `f` with the trace and plane counters bracketed; fold the
/// deltas into a [`Profile`].
fn measure<F: FnOnce()>(
    name: &'static str,
    traced: &TracingBackend<MemFs>,
    f: F,
) -> Profile {
    traced.take_trace();
    let before = ioplane::stats();
    let t0 = Instant::now();
    f();
    let wall_us = t0.elapsed().as_micros();
    let after = ioplane::stats();
    let ops = traced.take_trace().len() as u64;
    let batches = after.batches - before.batches;
    let plane_ops = after.ops - before.ops;
    // Ops that bypassed the plane (lone probes through retry_transient)
    // are one round trip each.
    let trips = batches + ops.saturating_sub(plane_ops);
    let coalesce = if batches == 0 {
        1.0
    } else {
        plane_ops as f64 / batches as f64
    };
    Profile {
        name,
        ops,
        batches,
        trips,
        coalesce,
        wall_us,
    }
}

fn build_container(
    traced: &Arc<TracingBackend<MemFs>>,
    cont: &Container,
    writers: u64,
) -> Result<(), String> {
    for w in 0..writers {
        let mut h = WriteHandle::open(Arc::clone(traced), cont.clone(), w, IndexPolicy::WriteClose)
            .map_err(|e| format!("open writer {w}: {e}"))?;
        for k in 0..BLOCKS {
            h.write(
                (k * writers + w) * BLOCK,
                &Content::synthetic(w, BLOCK),
                k + 1,
            )
            .map_err(|e| format!("write {w}/{k}: {e}"))?;
        }
        h.close(99).map_err(|e| format!("close {w}: {e}"))?;
    }
    Ok(())
}

fn run_profiles() -> Result<Vec<Profile>, String> {
    let mut out = Vec::new();
    let fed = Federation::single("/panfs", SUBDIRS);

    // write-close: a lone writer's full lifecycle.
    {
        let traced = Arc::new(TracingBackend::new(MemFs::new()));
        let cont = Container::new("/wc", &fed);
        let mut err = None;
        out.push(measure("write-close", &traced, || {
            err = build_container(&traced, &cont, 1).err();
        }));
        if let Some(e) = err {
            return Err(e);
        }
    }

    // The shared 16-writer container for the read-side profiles.
    let traced = Arc::new(TracingBackend::new(MemFs::new()));
    let cont = Container::new("/ckpt", &fed);
    build_container(&traced, &cont, WRITERS)?;

    // read-open: index aggregation fan-out only.
    let mut opened = None;
    let mut err = None;
    out.push(measure("read-open", &traced, || {
        match ReadHandle::open(Arc::clone(&traced), cont.clone()) {
            Ok(h) => opened = Some(h),
            Err(e) => err = Some(format!("read open: {e}")),
        }
    }));
    if let Some(e) = err {
        return Err(e);
    }
    let Some(mut rh) = opened else {
        return Err("read open returned no handle".into());
    };

    // strided-read: the whole logical file as 20 × 64 KB slices.
    let total = WRITERS * BLOCKS * BLOCK;
    let slice = 64 * KB;
    let mut err = None;
    out.push(measure("strided-read", &traced, || {
        for off in (0..total).step_by(slice as usize) {
            if let Err(e) = rh.read(off, slice) {
                err = Some(format!("read at {off}: {e}"));
                return;
            }
        }
    }));
    if let Some(e) = err {
        return Err(e);
    }

    // fsck-scan: full container check.
    let mut err = None;
    out.push(measure("fsck-scan", &traced, || {
        if let Err(e) = fsck::check(&*traced, &cont) {
            err = Some(format!("fsck: {e}"));
        }
    }));
    if let Some(e) = err {
        return Err(e);
    }

    Ok(out)
}

fn render_table(profiles: &[Profile]) -> String {
    let mut s = String::from(
        "| profile | ops | batches | trips | coalesce | wall (us) |\n\
         | --- | ---: | ---: | ---: | ---: | ---: |\n",
    );
    for p in profiles {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {} |\n",
            p.name, p.ops, p.batches, p.trips, p.coalesce, p.wall_us
        ));
    }
    s
}

fn render_results(profiles: &[Profile]) -> String {
    format!(
        "# I/O-plane op counts: batched round trips per workload\n\
         \n\
         Generated by `cargo run --release --bin io_plane -- --write results/io_plane.md`\n\
         (release build, `TracingBackend<MemFs>`; shapes in `src/bin/io_plane.rs`).\n\
         `ops` is the number of backend operations issued — before the I/O\n\
         plane, each was its own round trip. `trips` is the round trips now:\n\
         one per submitted batch plus one per op still issued alone. `wall`\n\
         is informational; `scripts/tier1.sh` ratchets `ops` and `trips`\n\
         (`io_plane --check`), so the budget only ratchets down.\n\
         \n\
         Pre-refactor baseline (seed tree, same shapes, every op a round\n\
         trip): fsck full-scan 92 ops / 539 us, read-open fan-out 57 ops /\n\
         670 us, strided read 336 ops, single-writer write+close 33 ops.\n\
         \n\
         read-open carries 3 extra trips since the async plane landed: the\n\
         index reads go up in `READ_OVERLAP_CHUNK`-op tickets instead of\n\
         one batch, buying the overlap ratcheted in `results/io_async.md`\n\
         (DESIGN.md \u{a7}5h) at the cost of chunk-count trips here. The slices\n\
         are cut by log count, not by aggregation thread: the opening thread\n\
         sizes every index log in one batch and the shard threads only share\n\
         out the read slices, so the row is the same at any thread count.\n\
         \n\
         {}",
        render_table(profiles)
    )
}

/// Parse committed `| profile | ops | batches | trips | ... |` rows.
fn parse_results(text: &str) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 4 {
            continue;
        }
        if let (Ok(ops), Ok(trips)) = (cells[1].parse::<u64>(), cells[3].parse::<u64>()) {
            out.push((cells[0].to_string(), ops, trips));
        }
    }
    out
}

fn check(profiles: &[Profile], committed: &[(String, u64, u64)]) -> Vec<String> {
    let mut errs = Vec::new();
    for p in profiles {
        let Some((_, ops, trips)) = committed.iter().find(|(n, _, _)| n == p.name) else {
            errs.push(format!(
                "profile `{}` has no committed row; regenerate with --write",
                p.name
            ));
            continue;
        };
        if p.ops > *ops {
            errs.push(format!(
                "profile `{}`: ops grew {} -> {} (the op budget only ratchets down)",
                p.name, ops, p.ops
            ));
        }
        if p.trips > *trips {
            errs.push(format!(
                "profile `{}`: round trips grew {} -> {} (the trip budget only ratchets down)",
                p.name, trips, p.trips
            ));
        }
    }
    errs
}

// ---------------------------------------------------------------------------
// Asynchronous-plane panels (`--async`, DESIGN.md §5h)
// ---------------------------------------------------------------------------

/// Per-data-op latency `SlowBackend` injects. MemFs alone completes ops
/// in nanoseconds, so overlap would be unmeasurable noise; a fixed
/// `append`/`read_at` cost makes the sync-vs-async gap the sleeps the
/// reactor hides, not allocator jitter.
const ASYNC_DATA_OP_US: u64 = 200;
/// write-flush panel: one writer, this many write+flush rounds.
const ASYNC_FLUSHES: u64 = 16;
/// flatten-close panel: writers × buffered writes each.
const ASYNC_FLATTEN_WRITERS: u64 = 8;
const ASYNC_FLATTEN_BLOCKS: u64 = 4;
/// read-open panel: fig4 shape scaled up so the open fans out wide.
const ASYNC_READ_WRITERS: u64 = 64;
const ASYNC_READ_BLOCKS: u64 = 8;
/// Safety margin subtracted from the measured overlap when `--write`
/// records the committed floor (scheduling noise headroom).
const OVERLAP_MARGIN: f64 = 0.20;
/// Repetitions per panel side; the best (minimum) wall is reported.
/// Single-shot walls on a 1-vCPU runner swing by ±40%, which would make
/// the `--check` gate a coin flip — best-of-N compares the structural
/// cost of each plane, not scheduler luck.
const ASYNC_REPS: usize = 3;

/// MemFs plus a fixed sleep on every *data* op (`append`, `read_at`).
/// Metadata ops stay fast, matching the parallel-file-system reality the
/// probes model: data movement dominates, directory ops are cheap.
struct SlowBackend {
    inner: MemFs,
}

impl SlowBackend {
    fn new() -> Self {
        SlowBackend { inner: MemFs::new() }
    }
}

impl Backend for SlowBackend {
    fn mkdir(&self, path: &str) -> PlfsResult<()> {
        self.inner.mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> PlfsResult<()> {
        self.inner.mkdir_all(path)
    }
    fn create(&self, path: &str, exclusive: bool) -> PlfsResult<()> {
        self.inner.create(path, exclusive)
    }
    fn append(&self, path: &str, content: &Content) -> PlfsResult<u64> {
        std::thread::sleep(Duration::from_micros(ASYNC_DATA_OP_US));
        self.inner.append(path, content)
    }
    fn read_at(&self, path: &str, offset: u64, len: u64) -> PlfsResult<Content> {
        std::thread::sleep(Duration::from_micros(ASYNC_DATA_OP_US));
        self.inner.read_at(path, offset, len)
    }
    fn size(&self, path: &str) -> PlfsResult<u64> {
        self.inner.size(path)
    }
    fn kind(&self, path: &str) -> PlfsResult<NodeKind> {
        self.inner.kind(path)
    }
    fn list(&self, path: &str) -> PlfsResult<Vec<String>> {
        self.inner.list(path)
    }
    fn unlink(&self, path: &str) -> PlfsResult<()> {
        self.inner.unlink(path)
    }
    fn remove_all(&self, path: &str) -> PlfsResult<()> {
        self.inner.remove_all(path)
    }
    fn rename(&self, from: &str, to: &str) -> PlfsResult<()> {
        self.inner.rename(from, to)
    }
}

struct AsyncPanel {
    name: &'static str,
    sync_us: u128,
    async_us: u128,
    /// Whether `--check` gates on `async < sync` for this panel. The
    /// flatten-close margin is a single background hop, too close to
    /// scheduler noise to ratchet; it stays informational.
    checked: bool,
}

impl AsyncPanel {
    fn speedup(&self) -> f64 {
        if self.async_us == 0 {
            1.0
        } else {
            self.sync_us as f64 / self.async_us as f64
        }
    }
}

/// Time the synchronous twin of a panel. Telemetry is enabled here too,
/// even though the counters are discarded: both sides of every panel
/// must pay the same recording overhead or the comparison is rigged.
fn time_us<F: FnOnce() -> Result<(), String>>(f: F) -> Result<u128, String> {
    plfs::telemetry::reset();
    plfs::telemetry::set_enabled(true);
    let t0 = Instant::now();
    let r = f();
    let us = t0.elapsed().as_micros();
    plfs::telemetry::set_enabled(false);
    plfs::telemetry::reset();
    r?;
    Ok(us)
}

/// Time `f` with telemetry bracketing it; also return the blocked-ns
/// delta the async plane recorded (`async.blocked_ns`: time `Ticket::wait`
/// spent parked — the un-overlapped remainder).
fn time_async_us<F: FnOnce() -> Result<(), String>>(f: F) -> Result<(u128, u64), String> {
    plfs::telemetry::reset();
    plfs::telemetry::set_enabled(true);
    let t0 = Instant::now();
    let r = f();
    let us = t0.elapsed().as_micros();
    plfs::telemetry::set_enabled(false);
    let blocked = plfs::telemetry::snapshot()
        .counters
        .get(plfs::telemetry::CTR_ASYNC_BLOCKED_NS)
        .copied()
        .unwrap_or(0);
    plfs::telemetry::reset();
    r?;
    Ok((us, blocked))
}

struct AsyncReport {
    panels: Vec<AsyncPanel>,
    /// 1 − blocked_ns / async-wall-ns across all async measurements.
    overlap: f64,
    blocked_us: u128,
    async_total_us: u128,
}

/// Best (minimum) wall over [`ASYNC_REPS`] runs of a sync panel side.
fn best_of<F: FnMut() -> Result<u128, String>>(mut f: F) -> Result<u128, String> {
    let mut best = u128::MAX;
    for _ in 0..ASYNC_REPS {
        best = best.min(f()?);
    }
    Ok(best)
}

/// Best run of an async panel side; the blocked-ns reading travels with
/// the wall it was measured against.
fn best_of_async<F: FnMut() -> Result<(u128, u64), String>>(
    mut f: F,
) -> Result<(u128, u64), String> {
    let mut best = (u128::MAX, 0u64);
    for _ in 0..ASYNC_REPS {
        let r = f()?;
        if r.0 < best.0 {
            best = r;
        }
    }
    Ok(best)
}

fn run_async_panels() -> Result<AsyncReport, String> {
    let fed = Federation::single("/panfs", SUBDIRS);
    let mut panels = Vec::new();
    let mut blocked_ns_total: u64 = 0;
    let mut async_total_us: u128 = 0;

    // -- write-flush: per-write index flushes, sync vs write-behind. ----
    let sync_us = best_of(|| {
        let b = Arc::new(SlowBackend::new());
        let cont = Container::new("/wf", &fed);
        time_us(|| {
            let mut h =
                WriteHandle::open(Arc::clone(&b), cont.clone(), 0, IndexPolicy::WriteClose)
                    .map_err(|e| format!("write-flush sync open: {e}"))?;
            for k in 0..ASYNC_FLUSHES {
                h.write(k * BLOCK, &Content::synthetic(0, BLOCK), k + 1)
                    .map_err(|e| format!("write-flush sync write {k}: {e}"))?;
                h.flush_index()
                    .map_err(|e| format!("write-flush sync flush {k}: {e}"))?;
            }
            h.close(99).map_err(|e| format!("write-flush sync close: {e}"))?;
            Ok(())
        })
    })?;
    let (async_us, blocked) = best_of_async(|| {
        let b = Arc::new(SlowBackend::new());
        let reactor = Arc::new(Reactor::with_config(Arc::clone(&b), 8, 32));
        let cont = Container::new("/wf-async", &fed);
        time_async_us(|| {
            let mut h = WriteHandle::open(
                Arc::clone(&reactor),
                cont.clone(),
                0,
                IndexPolicy::WriteClose,
            )
            .map_err(|e| format!("write-flush async open: {e}"))?;
            h.enable_write_behind(8);
            for k in 0..ASYNC_FLUSHES {
                h.write(k * BLOCK, &Content::synthetic(0, BLOCK), k + 1)
                    .map_err(|e| format!("write-flush async write {k}: {e}"))?;
                h.flush_index_async()
                    .map_err(|e| format!("write-flush async flush {k}: {e}"))?;
            }
            h.close(99)
                .map_err(|e| format!("write-flush async close: {e}"))?;
            Ok(())
        })
    })?;
    blocked_ns_total += blocked;
    async_total_us += async_us;
    panels.push(AsyncPanel {
        name: "write-flush",
        sync_us,
        async_us,
        checked: true,
    });

    // -- flatten-close: Index Flatten on vs off the critical path. ------
    let open_flatten_writers =
        |b: &Arc<SlowBackend>, cont: &Container| -> Result<Vec<WriteHandle<Arc<SlowBackend>>>, String> {
            let mut handles = Vec::new();
            for w in 0..ASYNC_FLATTEN_WRITERS {
                let mut h = WriteHandle::open(
                    Arc::clone(b),
                    cont.clone(),
                    w,
                    IndexPolicy::Flatten {
                        threshold_entries: 1024,
                    },
                )
                .map_err(|e| format!("flatten open {w}: {e}"))?;
                for k in 0..ASYNC_FLATTEN_BLOCKS {
                    h.write(
                        (k * ASYNC_FLATTEN_WRITERS + w) * BLOCK,
                        &Content::synthetic(w, BLOCK),
                        k + 1,
                    )
                    .map_err(|e| format!("flatten write {w}/{k}: {e}"))?;
                }
                handles.push(h);
            }
            Ok(handles)
        };
    let sync_us = best_of(|| {
        let b = Arc::new(SlowBackend::new());
        let cont = Container::new("/fl", &fed);
        let handles = open_flatten_writers(&b, &cont)?;
        time_us(|| {
            let flattened = flatten_close(&b, &cont, handles, 99)
                .map_err(|e| format!("flatten-close sync: {e}"))?;
            if !flattened {
                return Err("flatten-close sync: expected a flattened index".into());
            }
            Ok(())
        })
    })?;
    let (async_us, blocked) = best_of_async(|| {
        let b = Arc::new(SlowBackend::new());
        let cont = Container::new("/fl-async", &fed);
        let handles = open_flatten_writers(&b, &cont)?;
        let mut fh = None;
        let us = time_async_us(|| {
            fh = Some(
                flatten_close_async(Arc::clone(&b), &cont, handles, 99)
                    .map_err(|e| format!("flatten-close async: {e}"))?,
            );
            Ok(())
        })?;
        // The background flatten must still land — just off the clock.
        match fh.map(FlattenHandle::wait) {
            Some(Ok(true)) => {}
            Some(Ok(false)) => return Err("flatten-close async: flatten skipped".into()),
            Some(Err(e)) => return Err(format!("flatten-close async wait: {e}")),
            None => return Err("flatten-close async: no handle".into()),
        }
        Ok(us)
    })?;
    blocked_ns_total += blocked;
    async_total_us += async_us;
    panels.push(AsyncPanel {
        name: "flatten-close",
        sync_us,
        async_us,
        checked: false,
    });

    // -- read-open: the fig4 fan-out, sequential vs overlapped chunks. --
    let b = Arc::new(SlowBackend::new());
    let cont = Container::new("/ro", &fed);
    for w in 0..ASYNC_READ_WRITERS {
        let mut h = WriteHandle::open(Arc::clone(&b), cont.clone(), w, IndexPolicy::WriteClose)
            .map_err(|e| format!("read-open build open {w}: {e}"))?;
        for k in 0..ASYNC_READ_BLOCKS {
            h.write(
                (k * ASYNC_READ_WRITERS + w) * BLOCK,
                &Content::synthetic(w, BLOCK),
                k + 1,
            )
            .map_err(|e| format!("read-open build write {w}/{k}: {e}"))?;
        }
        h.close(99)
            .map_err(|e| format!("read-open build close {w}: {e}"))?;
    }
    let sync_us = best_of(|| {
        time_us(|| {
            ReadHandle::open(Arc::clone(&b), cont.clone())
                .map(drop)
                .map_err(|e| format!("read-open sync: {e}"))
        })
    })?;
    let reactor = Arc::new(Reactor::with_config(Arc::clone(&b), 16, 64));
    let (async_us, blocked) = best_of_async(|| {
        time_async_us(|| {
            ReadHandle::open(Arc::clone(&reactor), cont.clone())
                .map(drop)
                .map_err(|e| format!("read-open async: {e}"))
        })
    })?;
    blocked_ns_total += blocked;
    async_total_us += async_us;
    panels.push(AsyncPanel {
        name: "read-open",
        sync_us,
        async_us,
        checked: true,
    });

    let blocked_us = u128::from(blocked_ns_total) / 1000;
    let overlap = if async_total_us == 0 {
        0.0
    } else {
        (1.0 - blocked_us as f64 / async_total_us as f64).max(0.0)
    };
    Ok(AsyncReport {
        panels,
        overlap,
        blocked_us,
        async_total_us,
    })
}

fn render_async_table(report: &AsyncReport) -> String {
    let mut s = String::from(
        "| panel | sync (us) | async (us) | speedup | checked |\n\
         | --- | ---: | ---: | ---: | --- |\n",
    );
    for p in &report.panels {
        s.push_str(&format!(
            "| {} | {} | {} | {:.2} | {} |\n",
            p.name,
            p.sync_us,
            p.async_us,
            p.speedup(),
            if p.checked { "yes" } else { "no" }
        ));
    }
    s.push_str(&format!(
        "\nmeasured overlap = {:.2} (blocked {} us of {} us async wall)\n",
        report.overlap, report.blocked_us, report.async_total_us
    ));
    s
}

fn render_async_results(report: &AsyncReport) -> String {
    let floor = (report.overlap - OVERLAP_MARGIN).max(0.0);
    format!(
        "# Asynchronous I/O plane: overlapped vs synchronous wall clock\n\
         \n\
         Generated by `cargo run --bin io_plane -- --async --write results/io_async.md`\n\
         (debug build; shapes in `src/bin/io_plane.rs`, design in DESIGN.md §5h).\n\
         Each panel runs a fig4-shaped probe twice over a `SlowBackend` — MemFs\n\
         plus a fixed {} us cost per data op (`append`/`read_at`) so the walls\n\
         measure I/O overlap, not allocator noise — once on the synchronous\n\
         plane and once through a `Reactor` worker pool. Walls are the best\n\
         of {} runs per side (single-shot timing on a 1-vCPU runner swings\n\
         by ±40%):\n\
         \n\
         * `write-flush`   — 1 writer × {} write+flush rounds + close;\n\
         \x20 `flush_index` vs write-behind (`enable_write_behind(8)` +\n\
         \x20 `flush_index_async`, staging drains overlap the next writes)\n\
         * `flatten-close` — {} writers × {} buffered writes; `flatten_close`\n\
         \x20 vs `flatten_close_async` (merge/compact/persist moves to a\n\
         \x20 background thread; informational, not ratcheted — the margin is\n\
         \x20 one background hop)\n\
         * `read-open`     — {} writers × {} blocks; `ReadHandle::open`'s\n\
         \x20 index aggregation with sequential index-log reads vs overlapped\n\
         \x20 chunked submission through the reactor\n\
         \n\
         `overlap` is 1 − blocked/total across every async measurement:\n\
         blocked is the `async.blocked_ns` counter (time `Ticket::wait` spent\n\
         parked), total is the async wall clock. `scripts/tier1.sh` re-runs\n\
         the panels (`io_plane --async --check`) and fails if a checked\n\
         panel's async wall stops beating its synchronous twin or measured\n\
         overlap drops under the committed floor — the floor only ratchets up.\n\
         \n\
         {}\n\
         overlap-floor = {:.2}\n",
        ASYNC_DATA_OP_US,
        ASYNC_REPS,
        ASYNC_FLUSHES,
        ASYNC_FLATTEN_WRITERS,
        ASYNC_FLATTEN_BLOCKS,
        ASYNC_READ_WRITERS,
        ASYNC_READ_BLOCKS,
        render_async_table(report),
        floor
    )
}

/// Parse the committed `overlap-floor = 0.NN` line.
fn parse_overlap_floor(text: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.trim()
            .strip_prefix("overlap-floor")
            .and_then(|rest| rest.trim().strip_prefix('='))
            .and_then(|v| v.trim().parse::<f64>().ok())
    })
}

fn check_async(report: &AsyncReport, committed: &str) -> Vec<String> {
    let mut errs = Vec::new();
    for p in report.panels.iter().filter(|p| p.checked) {
        if p.async_us >= p.sync_us {
            errs.push(format!(
                "panel `{}`: async wall {} us no longer beats sync wall {} us",
                p.name, p.async_us, p.sync_us
            ));
        }
    }
    match parse_overlap_floor(committed) {
        None => errs.push("no committed `overlap-floor =` line; regenerate with --write".into()),
        Some(floor) => {
            if report.overlap < floor {
                errs.push(format!(
                    "overlap {:.2} fell under the committed floor {floor:.2} \
                     (the floor only ratchets up)",
                    report.overlap
                ));
            }
        }
    }
    errs
}

fn main_async(mode: Option<&str>, path: Option<&String>) -> ExitCode {
    let report = match run_async_panels() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("io_plane --async: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (mode, path) {
        (None, _) => {
            print!("{}", render_async_table(&report));
            ExitCode::SUCCESS
        }
        (Some("--write"), Some(path)) => {
            if let Err(e) = std::fs::write(path, render_async_results(&report)) {
                eprintln!("io_plane --async: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        (Some("--check"), Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("io_plane --async: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let errs = check_async(&report, &text);
            print!("{}", render_async_table(&report));
            for e in &errs {
                eprintln!("error[io-async]: {e}");
            }
            if errs.is_empty() {
                println!("io_plane --async: within committed budget ({path})");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: io_plane --async [--write <file> | --check <file>]");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--async") {
        return main_async(args.get(2).map(String::as_str), args.get(3));
    }
    let spans = args.get(1).map(String::as_str) == Some("--spans");
    if spans {
        plfs::telemetry::reset();
        plfs::telemetry::set_enabled(true);
    }
    let profiles = match run_profiles() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("io_plane: {e}");
            return ExitCode::FAILURE;
        }
    };
    if spans {
        plfs::telemetry::set_enabled(false);
        print!("{}", render_table(&profiles));
        println!();
        print!("{}", plfs::telemetry::snapshot().render_tree());
        return ExitCode::SUCCESS;
    }
    match (args.get(1).map(String::as_str), args.get(2)) {
        (None, _) => {
            print!("{}", render_table(&profiles));
            ExitCode::SUCCESS
        }
        (Some("--write"), Some(path)) => {
            if let Err(e) = std::fs::write(path, render_results(&profiles)) {
                eprintln!("io_plane: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        (Some("--check"), Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("io_plane: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let errs = check(&profiles, &parse_results(&text));
            print!("{}", render_table(&profiles));
            for e in &errs {
                eprintln!("error[io-plane]: {e}");
            }
            if errs.is_empty() {
                println!("io_plane: within committed budget ({path})");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: io_plane [--spans | --write <file> | --check <file>]");
            ExitCode::from(2)
        }
    }
}
