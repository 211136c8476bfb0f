//! The numbers this repository pins exactly. Speed is measured in one
//! place, `benchmark/` (BENCHMARK.json); what does not depend on the
//! clock is asserted here, in tier-1, on any core count:
//!
//! * backend ops and round trips of six canonical I/O-plane profiles
//!   (DESIGN.md §5e), that the index-log reads are the same at every
//!   aggregation thread count, and that a mount's re-open of an
//!   unchanged container reads no index log (§5l) and no fence;
//! * the peak RSS, ops and round trips of a mount's read-open of a
//!   flattened index several times larger than the RSS ceiling (§5j);
//! * the simulator's event count and O(ranks) event footprint (§5g).
//!
//! The budgets are the `const`s below. They only move down, except by a
//! deliberate one-line diff here. `-- --nocapture` prints what was
//! measured.

mod common;

use common::TempDir;
use harness::{run_workload, ClusterProfile, Middleware};
use mpio::ReadStrategy;
use plfs::index::ondisk::SpanIdxWriter;
use plfs::index::INDEX_RECORD_BYTES;
use plfs::writer::{flatten_close, IndexPolicy, WriteHandle};
use plfs::{
    fsck, Backend, Container, Content, Federation, IndexEntry, IoOp, LocalFs, MemFs, Plfs,
    PlfsConfig, TracingBackend,
};
use std::process::Command;
use std::sync::Arc;
use workloads::{mpiio_test, nn_checkpoint, Workload};

// ---------------------------------------------------------------------
// I/O-plane profiles.

/// What one profile may cost: `ops` is the length of the backend trace,
/// `trips` the calls into the backend (a batch of N ops is one trip).
struct IoBudget {
    profile: &'static str,
    ops: u64,
    trips: u64,
}

/// Before the I/O plane every op was its own trip: write-close 33,
/// read-open 57, strided-read 336, fsck-scan 92 (DESIGN.md §5e).
/// `write-close` is 34 since a writer's create batch also unlinks the
/// flattened index (§5b). `read-open` is a mount's first open less the
/// two ops only a mount needs, the access-file probe and the generation
/// `Size`, which ride the same trips. `read-reopen` is a mount's open of
/// a container it has an index for (§5l): the stamp's three batches and
/// not one `ReadAt`; `flat-reopen` is the same for a flattened container.
/// `strided-read` fell from 336/36 to 320/20 when a mount's readers began
/// reusing the data-log paths its stamp resolved.
#[rustfmt::skip]
const IO_BUDGETS: [IoBudget; 6] = [
    IoBudget { profile: "write-close",  ops: 34,  trips: 27 },
    IoBudget { profile: "read-open",    ops: 41,  trips: 7 },
    IoBudget { profile: "read-reopen",  ops: 27,  trips: 3 },
    IoBudget { profile: "flat-reopen",  ops: 27,  trips: 3 },
    IoBudget { profile: "strided-read", ops: 320, trips: 20 },
    IoBudget { profile: "fsck-scan",    ops: 60,  trips: 9 },
];
/// Ops a mount's open adds in front of `read-open`'s first batch.
const MOUNT_PROBE_OPS: u64 = 2;

const KB: u64 = 1024;
const WRITERS: u64 = 16;
const BLOCKS: u64 = 20;
const BLOCK: u64 = 4 * KB;
const SUBDIRS: usize = 4;

type Traced = Arc<TracingBackend<MemFs>>;
type Handle = WriteHandle<Traced>;

fn traced_memfs() -> Traced {
    Arc::new(TracingBackend::new(MemFs::new()))
}

/// `writers` × 20 × 4 KB strided writes, each writer opened and closed
/// in turn.
fn build_container(b: &Traced, cont: &Container, writers: u64) {
    for w in 0..writers {
        build_writer(b, cont, w, writers);
    }
}

/// Writer `w`'s 20 × 4 KB blocks of a `stride`-writer strided file.
fn build_writer(b: &Traced, cont: &Container, w: u64, stride: u64) {
    writer(b, cont, w, stride, IndexPolicy::WriteClose)
        .close(99)
        .unwrap();
}

/// [`build_writer`]'s blocks, the handle left open.
fn writer(b: &Traced, c: &Container, w: u64, stride: u64, policy: IndexPolicy) -> Handle {
    let mut h = WriteHandle::open(Arc::clone(b), c.clone(), w, policy).unwrap();
    for k in 0..BLOCKS {
        h.write((k * stride + w) * BLOCK, &Content::synthetic(w, BLOCK), k + 1)
            .unwrap();
    }
    h
}

/// The 16-writer container the read-side profiles share.
fn shared_container() -> (Traced, Container) {
    let b = traced_memfs();
    let cont = Container::new("/ckpt", &Federation::single("/panfs", SUBDIRS));
    build_container(&b, &cont, WRITERS);
    (b, cont)
}

/// `(ops, trips)` that `f` costs on `b`.
fn measure<T>(b: &TracingBackend<impl Backend>, f: impl FnOnce() -> T) -> (T, u64, u64) {
    b.take_trace();
    let trips = b.trips();
    let out = f();
    (out, b.take_trace().len() as u64, b.trips() - trips)
}

fn assert_within(profile: &str, ops: u64, trips: u64) {
    let budget = IO_BUDGETS
        .iter()
        .find(|b| b.profile == profile)
        .expect("profile has a budget row");
    println!("{profile}: {ops} ops, {trips} trips");
    assert!(
        ops <= budget.ops && trips <= budget.trips,
        "{profile}: {ops} ops / {trips} trips, budget {} / {}",
        budget.ops,
        budget.trips
    );
}

#[test]
fn io_plane_profiles_stay_within_budget() {
    // write-close: a lone writer's whole lifecycle.
    let b = traced_memfs();
    let cont = Container::new("/wc", &Federation::single("/panfs", SUBDIRS));
    let ((), ops, trips) = measure(&b, || build_container(&b, &cont, 1));
    assert_within("write-close", ops, trips);

    // read-open: the index aggregation fan-out alone.
    let (b, cont) = shared_container();
    let fs = Plfs::new(Arc::clone(&b), PlfsConfig::basic("/panfs")).unwrap();
    let (rh, ops, trips) = measure(&b, || fs.open_read("/ckpt"));
    assert_within("read-open", ops - MOUNT_PROBE_OPS, trips);
    let mut rh = rh.unwrap();

    // strided-read: the whole logical file as 20 × 64 KB slices.
    let total = WRITERS * BLOCKS * BLOCK;
    let slice = 64 * KB;
    let ((), ops, trips) = measure(&b, || {
        for off in (0..total).step_by(slice as usize) {
            assert_eq!(rh.read(off, slice).unwrap().len() as u64, slice);
        }
    });
    assert_within("strided-read", ops, trips);

    // fsck-scan: a full container check.
    let (report, ops, trips) = measure(&b, || fsck::check(&*b, &cont));
    assert_within("fsck-scan", ops, trips);
    assert!(report.unwrap().is_clean());
}

#[test]
fn reopen_of_an_unchanged_container_reads_no_log() {
    let (b, cont) = shared_container();
    let fs = Plfs::new(Arc::clone(&b), PlfsConfig::basic("/panfs")).unwrap();
    let open = || {
        b.take_trace();
        let trips = b.trips();
        let handle = fs.open_read("/ckpt").unwrap();
        let trace = b.take_trace();
        let log_reads = trace
            .iter()
            .filter(|op| matches!(op, IoOp::ReadAt { .. }))
            .count() as u64;
        (handle, trace.len() as u64, b.trips() - trips, log_reads)
    };

    // Cold: a full aggregation, within read-open's trips.
    let (first, ops, trips, log_reads) = open();
    assert_within("read-open", ops - MOUNT_PROBE_OPS, trips);
    assert_eq!(log_reads, WRITERS);

    // Unchanged: the stamp alone.
    let (second, ops, trips, log_reads) = open();
    assert_within("read-reopen", ops, trips);
    assert_eq!(log_reads, 0, "a hit reads no index log");
    assert!(Arc::ptr_eq(first.index().unwrap(), second.index().unwrap()));

    // One more writer closes: sizes changed, so back to a full aggregation.
    build_writer(&b, &cont, WRITERS, WRITERS + 1);
    let (third, _, _, log_reads) = open();
    assert_eq!(log_reads, WRITERS + 1);
    assert!(
        third.size() > second.size(),
        "and the new writer's blocks show"
    );
}

#[test]
fn reopen_of_an_unchanged_flattened_container_reads_no_fence() {
    let b = traced_memfs();
    let cont = Container::new("/flat", &Federation::single("/panfs", SUBDIRS));
    let policy = IndexPolicy::Flatten {
        threshold_entries: BLOCKS as usize,
    };
    let handles = (0..WRITERS)
        .map(|w| writer(&b, &cont, w, WRITERS, policy))
        .collect();
    assert!(flatten_close(&b, &cont, handles, 99).unwrap());
    let fs = Plfs::new(Arc::clone(&b), PlfsConfig::basic("/panfs")).unwrap();
    let total = WRITERS * BLOCKS * BLOCK;
    let mut cold = fs.open_read("/flat").unwrap();
    assert!(cold.index().is_none(), "served bounded");
    cold.read(0, total).unwrap();

    // Unchanged: the stamp alone, and the reader shares the warm window.
    let (mut warm, ops, trips) = measure(&b, || fs.open_read("/flat").unwrap());
    assert_within("flat-reopen", ops, trips);
    let ((), ops, _) = measure(&b, || assert_eq!(warm.read(0, total).unwrap().len() as u64, total));
    assert_eq!(ops, WRITERS * BLOCKS, "the blocks alone: no footer, fence or window");
}

#[test]
fn read_open_trips_are_the_same_at_every_thread_count() {
    let (b, cont) = shared_container();
    let resolved = cont.subdirs_phys_batch(&*b).unwrap();
    let writers = cont.list_writers(&*b).unwrap();
    let runs: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            let (runs, ops, trips) =
                measure(&b, || cont.read_index_runs(&*b, &resolved, &writers, threads));
            (runs.unwrap(), ops, trips)
        })
        .collect();
    for (threads, run) in [2, 8].into_iter().zip(&runs[1..]) {
        assert_eq!(run, &runs[0], "{threads} threads against 1");
    }
    // Read-open's threaded part, the log reads: one `Size` batch, then
    // every log's `ReadAt` four to a batch.
    assert_eq!((runs[0].1, runs[0].2), (2 * WRITERS, 1 + WRITERS / 4));
}

// ---------------------------------------------------------------------
// Memory-bounded read-open.

/// Records in the flattened index: 38 MiB of spanidx, which keeps the
/// debug-profile build in seconds.
const RSS_ENTRIES: u64 = 1_000_000;
/// Logical bytes per record.
const RSS_SPAN: u64 = 64;
/// Real data-log bytes the records point into, cyclically: the index is
/// what is measured, so the data log stays small.
const RSS_DATA_BYTES: u64 = 1 << 20;
/// Scattered reads after the open, and bytes per read.
const RSS_READS: u64 = 8;
const RSS_READ_LEN: u64 = 64 * KB;
/// Ceiling on the child's `VmHWM`: 1.5 × the 5,236 kB measured in
/// the debug profile. A quarter of the index file is 9,765 kB, so an
/// open that materializes the index cannot pass.
const RSS_CEILING_KB: u64 = 7_854;
/// Backend ops and round trips of the open plus the scattered reads.
/// Through a mount the open is the stamp (7 + 1 + 1 ops in 3 trips) and
/// one tail read, where the mount-less open was a `Size` and two reads:
/// 26 ops, the same 20 trips.
const RSS_OPS: u64 = 26;
const RSS_TRIPS: u64 = 20;
/// Carries the probe directory to the re-executed child.
const RSS_CHILD_DIR: &str = "PLFS_BUDGETS_RSS_DIR";

const RSS_PATH: &str = "/bigread";

fn rss_federation() -> Federation {
    Federation::single("/m", 4)
}

fn rss_container() -> Container {
    Container::new(RSS_PATH, &rss_federation())
}

/// A small real data log plus a flattened index of [`RSS_ENTRIES`]
/// records, streamed so the build itself stays O(chunk).
fn build_rss_probe(dir: &TempDir) {
    let b = Arc::new(LocalFs::new(dir.path()).unwrap());
    let cont = rss_container();
    let mut h =
        WriteHandle::open(Arc::clone(&b), cont.clone(), 0, IndexPolicy::WriteClose).unwrap();
    let block = 64 * KB;
    for k in 0..RSS_DATA_BYTES / block {
        h.write(
            k * block,
            &Content::synthetic(0, RSS_DATA_BYTES).slice(k * block, block),
            k + 1,
        )
        .unwrap();
    }
    h.close(99).unwrap();

    let chunk = 64 * KB;
    let mut w = SpanIdxWriter::create(b.as_ref(), &cont.flattened_path(), chunk as usize).unwrap();
    let slots = RSS_DATA_BYTES / RSS_SPAN;
    let mut run = Vec::with_capacity(chunk as usize);
    for start in (0..RSS_ENTRIES).step_by(chunk as usize) {
        run.clear();
        run.extend((start..RSS_ENTRIES.min(start + chunk)).map(|i| IndexEntry {
            logical_offset: i * RSS_SPAN,
            length: RSS_SPAN,
            physical_offset: (i % slots) * RSS_SPAN,
            writer: 0,
            timestamp: 1,
        }));
        w.push_run(&run).unwrap();
    }
    w.finish().unwrap();
}

/// Peak resident set of this process in kB.
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    line.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status")
}

/// The measured half: run alone in a fresh process, so `VmHWM` is the
/// read path's peak RSS and not the build's or another test's.
#[test]
#[ignore = "re-executed by bounded_open_peak_rss_stays_far_below_the_index_size"]
fn bounded_open_child() {
    let dir = std::env::var(RSS_CHILD_DIR).expect("set by the parent test");
    let b = Arc::new(TracingBackend::new(LocalFs::new(&dir).unwrap()));
    let config = PlfsConfig {
        federation: rss_federation(),
        index_policy: IndexPolicy::WriteClose,
    };
    let fs = Plfs::new(Arc::clone(&b), config).unwrap();
    b.take_trace();
    let trips = b.trips();
    let mut rh = fs.open_read(RSS_PATH).unwrap();
    assert!(rh.index().is_none(), "fell back to the in-memory index");
    let eof = rh.size();
    assert_eq!(eof, RSS_ENTRIES * RSS_SPAN);
    for i in 0..RSS_READS {
        let got = rh.read(i * (eof / RSS_READS), RSS_READ_LEN).unwrap();
        assert_eq!(got.len() as u64, RSS_READ_LEN);
    }
    let (ops, trips) = (b.take_trace().len() as u64, b.trips() - trips);
    println!(
        "bounded-open: ops={ops} trips={trips} vmhwm_kb={}",
        vmhwm_kb()
    );
    assert!(
        ops <= RSS_OPS && trips <= RSS_TRIPS,
        "{ops} ops / {trips} trips, budget {RSS_OPS} / {RSS_TRIPS}"
    );
}

#[test]
fn bounded_open_peak_rss_stays_far_below_the_index_size() {
    let index_kb = RSS_ENTRIES * INDEX_RECORD_BYTES / KB;
    assert!(
        RSS_CEILING_KB < index_kb / 4,
        "the ceiling must rule out a materialized index"
    );

    let dir = TempDir::new("plfs-budgets-rss");
    build_rss_probe(&dir);
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "bounded_open_child", "--ignored", "--nocapture"])
        .env(RSS_CHILD_DIR, dir.path())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let report = stdout.lines().find(|l| l.starts_with("bounded-open:"));
    let kb: u64 = report
        .and_then(|l| l.rsplit_once("vmhwm_kb=")?.1.parse().ok())
        .unwrap_or_else(|| panic!("no vmhwm_kb in:\n{stdout}"));
    println!("{} (index file {index_kb} kB)", report.unwrap_or_default());
    assert!(
        kb <= RSS_CEILING_KB,
        "VmHWM {kb} kB, ceiling {RSS_CEILING_KB} kB"
    );
}

// ---------------------------------------------------------------------
// Simulator engine.

const SIM_RANKS: usize = 4096;
const SIM_SEED: u64 = 42;

/// Events popped by a pinned-seed run on the Cielo profile through PLFS
/// with Parallel Index Read. `benchmark/`'s `sim_64k` reports the same
/// two counts at 65,536 ranks.
struct SimBudget {
    name: &'static str,
    workload: fn(usize) -> Workload,
    events: u64,
}

#[rustfmt::skip]
const SIM_BUDGETS: [SimBudget; 2] = [
    SimBudget { name: "mpiio_test",    workload: mpiio_test,    events: 98_305 },
    SimBudget { name: "nn_checkpoint", workload: nn_checkpoint, events: 139_264 },
];

#[test]
fn engine_events_are_pinned_and_live_events_are_one_per_rank() {
    let cluster = ClusterProfile::cielo();
    let mw = Middleware::plfs(ReadStrategy::ParallelIndexRead, 1);
    for b in SIM_BUDGETS {
        let out = run_workload(&(b.workload)(SIM_RANKS), &cluster, &mw, SIM_SEED);
        let (name, live) = (b.name, out.peak_live_events);
        println!("{name}: {} events, {live} peak live", out.events);
        assert_eq!(out.events, b.events, "{name}: events");
        assert_eq!(live, SIM_RANKS, "{name}: peak live events");
    }
}
