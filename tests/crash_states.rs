//! Every crash state, not a sample (DESIGN.md §5c).
//!
//! Each row of [`SCENARIOS`] runs once over a `TracingBackend<MemFs>` and
//! notes the trace length at every call that returned `Ok`: its
//! acknowledgement points. The middleware is synchronous, so a trace
//! prefix *is* a crash state. For every `k` in `0..=len` the first `k` ops
//! are replayed onto a fresh `MemFs`; when op `k` is an append, so is each
//! torn prefix of it of length 1, len/2 and len−1. Cuts inside a batch are
//! deliberate: `LocalFs` and a real parallel file system can stop
//! mid-batch. In every state, every file of the row must
//!
//! * repair: `fsck::repair` returns `Ok` and `fully_repaired()` holds;
//! * read back every slot acknowledged at or before `k` byte-exact;
//! * read every other byte as a byte written there, or 0;
//! * read the same through a mount, the mount-less bounded open, and the
//!   index its logs resolve to;
//! * check clean without repair once its last acknowledgement says the
//!   file is quiesced.
//!
//! No seed and no sampling: the state count of each row is pinned, and
//! the result is the same on any core count.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test code: a failed unwrap, expect or panic is the test's failure report; setup and checks call one backend op at a time"
)]

use plfs::container::staged_log;
use plfs::faults::{FaultBackend, FaultConfig};
use plfs::reader::ReadHandle;
use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::writer::{flatten_close, IndexPolicy, WriteHandle};
use plfs::{
    fsck, ioplane, Backend, Container, Content, Federation, GlobalIndex, IndexEntry, IoOp, MemFs,
    Plfs, PlfsConfig, TracingBackend,
};
use std::sync::Arc;

/// One row: how to record it, and how many crash states it has. The two
/// flatten rows count the writer listing `flatten_close` makes before it
/// writes the flattened index (7 states each).
struct Scenario {
    name: &'static str,
    record: fn() -> Rec,
    states: usize,
    /// Some state must leave a torn flattened index for repair to drop.
    torn_flatten: bool,
}

#[rustfmt::skip]
const SCENARIOS: [Scenario; 8] = [
    Scenario { name: "write-close", record: write_close, states: 63, torn_flatten: false },
    Scenario { name: "flatten", record: flatten, states: 92, torn_flatten: true },
    Scenario { name: "torn-writer", record: torn_writer, states: 88, torn_flatten: false },
    Scenario { name: "truncate-reflatten", record: truncate_reflatten, states: 165, torn_flatten: true },
    Scenario { name: "repair", record: repair, states: 143, torn_flatten: false },
    Scenario { name: "rename", record: rename, states: 140, torn_flatten: false },
    Scenario { name: "unlink", record: unlink, states: 104, torn_flatten: false },
    Scenario { name: "service", record: service, states: 61, torn_flatten: false },
];

/// Bytes per slot: slot `s` is written at `s * SLOT`.
const SLOT: u64 = 64;

/// The bytes of slot `s`: distinct per slot, so a byte served from the
/// wrong place shows.
fn slot(s: u64) -> Content {
    Content::synthetic(s + 1, SLOT)
}

/// One slot a scenario wrote, and when it was acknowledged.
struct Write {
    offset: u64,
    bytes: Vec<u8>,
    acked: Option<usize>,
}

/// A truncate (or, at size 0, an unlink): from `begin` on, bytes at or
/// past `size` may be gone; from `ack` on, the file ends by `size`.
#[derive(Clone, Copy)]
struct Cut {
    size: u64,
    begin: usize,
    ack: usize,
}

/// What a scenario promises about one logical file.
struct File {
    fed: Federation,
    /// The file lives at whichever of these has a container: a rename
    /// moves it from the first to the second.
    paths: &'static [&'static str],
    writes: Vec<Write>,
    cut: Option<Cut>,
    /// From this trace position on, the container checks clean as it is.
    quiesced: Option<usize>,
}

/// A scenario's promises, noted against the length of its live trace,
/// and then the trace itself.
struct Rec {
    len: Box<dyn Fn() -> usize>,
    files: Vec<File>,
    ops: Vec<IoOp>,
}

impl Rec {
    fn new<B: Backend>(traced: &TracingBackend<B>) -> Rec {
        let trace = traced.trace_handle();
        Rec {
            len: Box::new(move || trace.lock().len()),
            files: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn now(&self) -> usize {
        (self.len)()
    }

    /// A new file living at `paths`: its id, and its container at the
    /// first of them.
    fn file(&mut self, fed: &Federation, paths: &'static [&'static str]) -> (usize, Container) {
        self.files.push(File {
            fed: fed.clone(),
            paths,
            writes: Vec::new(),
            cut: None,
            quiesced: None,
        });
        (self.files.len() - 1, Container::new(paths[0], fed))
    }

    /// Note that slot `s` of file `f` is about to be written; returns its
    /// id for [`Rec::ack`].
    fn put(&mut self, f: usize, s: u64) -> usize {
        let writes = &mut self.files[f].writes;
        writes.push(Write {
            offset: s * SLOT,
            bytes: slot(s).materialize(),
            acked: None,
        });
        writes.len() - 1
    }

    /// The writes in `pending` are acknowledged now.
    fn ack(&mut self, f: usize, pending: &mut Vec<usize>) {
        let now = self.now();
        for id in pending.drain(..) {
            self.files[f].writes[id].acked = Some(now);
        }
    }

    fn quiesced(&mut self, f: usize) {
        self.files[f].quiesced = Some(self.now());
    }

    /// File `f` was cut to `size` by a call that began at trace position
    /// `begin` and has just returned.
    fn cut(&mut self, f: usize, size: u64, begin: usize) {
        let ack = self.now();
        self.files[f].cut = Some(Cut { size, begin, ack });
    }

    fn finish(self, ops: Vec<IoOp>) -> Rec {
        Rec { ops, ..self }
    }
}

type Traced = Arc<TracingBackend<MemFs>>;

fn traced() -> (Traced, Rec) {
    let b = Arc::new(TracingBackend::new(MemFs::new()));
    let rec = Rec::new(&b);
    (b, rec)
}

fn writer(b: &Traced, c: &Container, w: u64, policy: IndexPolicy) -> WriteHandle<Traced> {
    WriteHandle::open(Arc::clone(b), c.clone(), w, policy).unwrap()
}

/// Two writers, a mid-run index flush, then close.
fn write_close() -> Rec {
    let (b, mut rec) = traced();
    let (f, c) = rec.file(&Federation::single("/panfs", 4), &["/wc"]);
    let mut handles: Vec<_> = (0..2)
        .map(|w| writer(&b, &c, w, IndexPolicy::WriteClose))
        .collect();
    let mut pending = [Vec::new(), Vec::new()];
    for s in 0..6u64 {
        let w = (s % 2) as usize;
        pending[w].push(rec.put(f, s));
        handles[w].write(s * SLOT, &slot(s), s + 1).unwrap();
        if s == 2 {
            handles[0].flush_index().unwrap();
            rec.ack(f, &mut pending[0]);
        }
    }
    for (w, h) in handles.into_iter().enumerate() {
        h.close(9).unwrap();
        rec.ack(f, &mut pending[w]);
    }
    rec.quiesced(f);
    rec.finish(b.take_trace())
}

/// Three Flatten-policy writers on `c`, two strided slots each, through
/// one `flatten_close`.
fn flattened(b: &Traced, rec: &mut Rec, f: usize, c: &Container) {
    let policy = IndexPolicy::Flatten {
        threshold_entries: 100,
    };
    let mut handles: Vec<_> = (0..3).map(|w| writer(b, c, w, policy)).collect();
    let mut pending = Vec::new();
    for s in 0..6u64 {
        pending.push(rec.put(f, s));
        handles[(s % 3) as usize]
            .write(s * SLOT, &slot(s), s + 1)
            .unwrap();
    }
    assert!(
        flatten_close(b, c, handles, 99).unwrap(),
        "no writer overflowed"
    );
    rec.ack(f, &mut pending);
}

/// Three writers through `flatten_close`.
fn flatten() -> Rec {
    let (b, mut rec) = traced();
    let (f, c) = rec.file(&Federation::single("/panfs", 4), &["/flat"]);
    flattened(&b, &mut rec, f, &c);
    rec.quiesced(f);
    rec.finish(b.take_trace())
}

/// Fixed seed of the torn-writer row's `FaultConfig::flaky` schedule: it
/// tears one data append and one index flush among twelve writes.
const TORN_SEED: u64 = 40;

/// A writer that survives a torn data append and a torn index flush,
/// recorded under the fault injector so the trace holds exactly the
/// bytes that landed.
fn torn_writer() -> Rec {
    let traced = TracingBackend::new(MemFs::new());
    let mut rec = Rec::new(&traced);
    let b = Arc::new(FaultBackend::new(traced, FaultConfig::flaky(TORN_SEED)));
    let (f, c) = rec.file(&Federation::single("/panfs", 2), &["/torn"]);
    let mut h = WriteHandle::open(Arc::clone(&b), c, 0, IndexPolicy::WriteClose).unwrap();
    let mut pending = Vec::new();
    let mut torn_data = 0;
    for s in 0..12u64 {
        let id = rec.put(f, s);
        match h.write(s * SLOT, &slot(s), s + 1) {
            Ok(()) => pending.push(id),
            Err(e) => torn_data += u32::from(!e.is_transient()),
        }
        if s % 3 == 2 && h.flush_index().is_ok() {
            rec.ack(f, &mut pending);
        }
    }
    assert!(
        (0..4).any(|_| h.close_in_place(99).is_ok()),
        "close never landed"
    );
    rec.ack(f, &mut pending);
    rec.quiesced(f);
    assert!(torn_data > 0, "the schedule tore no data append");
    let ops = b.inner().take_trace();
    assert!(
        ops.iter()
            .any(|op| matches!(op, IoOp::Rename { from, .. } if staged_log(from).is_some())),
        "the schedule tore no index flush, so nothing was realigned"
    );
    rec.finish(ops)
}

/// Clip-truncate a flattened file inside a slot, then re-flatten it.
fn truncate_reflatten() -> Rec {
    let (b, mut rec) = traced();
    let (f, c) = rec.file(&Federation::single("/panfs", 4), &["/trunc"]);
    flattened(&b, &mut rec, f, &c);
    let (begin, size) = (rec.now(), 3 * SLOT + SLOT / 2);
    plfs::truncate::truncate(&b, &c, size).unwrap();
    rec.cut(f, size, begin);
    let logs = c.probe_index(&b).unwrap().unwrap().load(&b, &Arc::default());
    let logs = logs.unwrap().mem().cloned().expect("truncate dropped the flattened index");
    c.write_flattened_runs(&b, &[logs.to_entries()]).unwrap();
    rec.quiesced(f);
    rec.finish(b.take_trace())
}

/// `fsck::repair` of a container whose dead writer left a torn trailing
/// index record and an unindexed data tail.
fn repair() -> Rec {
    let (b, mut rec) = traced();
    let (f, c) = rec.file(&Federation::single("/panfs", 4), &["/fix"]);
    let mut pending = Vec::new();
    for w in 0..2u64 {
        let mut h = writer(&b, &c, w, IndexPolicy::WriteClose);
        for s in [w, w + 2] {
            pending.push(rec.put(f, s));
            h.write(s * SLOT, &slot(s), s + 1).unwrap();
        }
        h.close(9).unwrap();
        rec.ack(f, &mut pending);
    }
    let mut dead = writer(&b, &c, 2, IndexPolicy::WriteClose);
    pending.push(rec.put(f, 4));
    dead.write(4 * SLOT, &slot(4), 5).unwrap();
    dead.flush_index().unwrap();
    rec.ack(f, &mut pending);
    rec.put(f, 5);
    dead.write(5 * SLOT, &slot(5), 6).unwrap();
    // It died 23 bytes into flushing slot 5's record.
    let torn = IndexEntry::encode_all(dead.buffered_index())[..23].to_vec();
    b.append(&c.index_log(&b, 2).unwrap(), &Content::bytes(torn))
        .unwrap();
    drop(dead);
    assert!(fsck::repair(&b, &c).unwrap().fully_repaired());
    rec.quiesced(f);
    rec.finish(b.take_trace())
}

/// Three namespaces, containers and subdirs spread: `/old` and `/new`
/// hash to different namespaces, and their four subdirs take every kind
/// of move a rename makes (shadow to shadow, shadow into the container,
/// plain subdir out to a shadow).
fn spread(b: &Traced) -> Plfs<Traced> {
    let namespaces = vec!["/v0".into(), "/v1".into(), "/v2".into()];
    let config = PlfsConfig {
        federation: Federation::new(namespaces, 4, true, true),
        index_policy: IndexPolicy::WriteClose,
    };
    Plfs::new(Arc::clone(b), config).unwrap()
}

/// Four writers, one slot each, so every subdir of `path` exists.
fn four_writers(fs: &Plfs<Traced>, rec: &mut Rec, f: usize, path: &str) {
    for w in 0..4u64 {
        let mut pending = vec![rec.put(f, w)];
        let mut h = fs.open_write(path, w).unwrap();
        h.write(w * SLOT, &slot(w), fs.timestamp()).unwrap();
        h.close(fs.timestamp()).unwrap();
        rec.ack(f, &mut pending);
    }
}

/// A rename across namespaces in a spread federation.
fn rename() -> Rec {
    let (b, mut rec) = traced();
    let fs = spread(&b);
    let (f, _) = rec.file(fs.federation(), &["/old", "/new"]);
    four_writers(&fs, &mut rec, f, "/old");
    fs.rename("/old", "/new").unwrap();
    rec.quiesced(f);
    rec.finish(b.take_trace())
}

/// An unlink in a spread federation.
fn unlink() -> Rec {
    let (b, mut rec) = traced();
    let fs = spread(&b);
    let (f, _) = rec.file(fs.federation(), &["/ckpt"]);
    four_writers(&fs, &mut rec, f, "/ckpt");
    let begin = rec.now();
    fs.unlink("/ckpt").unwrap();
    rec.cut(f, 0, begin);
    rec.finish(b.take_trace())
}

fn grant<T>(a: plfs::Result<Admitted<T>>) -> T {
    match a.unwrap() {
        Admitted::Granted(v) => v,
        Admitted::Throttled { wait_ns } => panic!("throttled for {wait_ns} ns"),
    }
}

/// Two tenants on one `Service`: `dead` is abandoned mid-append, `live`
/// crosses a three-slot dirty budget once (a forced flush) and closes.
fn service() -> Rec {
    let (b, mut rec) = traced();
    let mut cfg = ServiceConfig::basic("/panfs");
    cfg.dirty_budget = 3 * SLOT;
    // Repaired first: the survivor is checked after the wreck is cleared.
    let (dead, _) = rec.file(&cfg.plfs.federation, &["/dead/ckpt"]);
    let (live, _) = rec.file(&cfg.plfs.federation, &["/live/data"]);
    let svc = Service::new(Arc::clone(&b), cfg).unwrap();
    let lw = grant(svc.open_write("live", "/data"));
    let dw = grant(svc.open_write("dead", "/ckpt"));
    let (mut pending, mut forced) = (Vec::new(), false);
    for s in 0..5u64 {
        pending.push(rec.put(live, s));
        grant(svc.append(lw, s * SLOT, &slot(s)));
        if svc.tenant_dirty("live") == 0 {
            forced = true;
            rec.ack(live, &mut pending);
        }
        if s < 2 {
            rec.put(dead, s);
            grant(svc.append(dw, s * SLOT, &slot(s)));
        }
    }
    assert!(forced, "the live tenant never crossed its dirty budget");
    assert!(svc.abandon(dw));
    svc.close(lw).unwrap();
    rec.ack(live, &mut pending);
    rec.quiesced(live);
    rec.finish(b.take_trace())
}

/// What the crash states of one row showed.
#[derive(Default)]
struct Outcome {
    states: usize,
    failures: Vec<String>,
    torn_flatten: bool,
}

/// Rebuild the state `ops[..k]` (plus `tear` bytes of op `k`) leaves and
/// hold every file of `rec` to its promises there.
fn crash_state(rec: &Rec, k: usize, tear: Option<u64>, out: &mut Outcome) {
    let fs = Arc::new(MemFs::new());
    ioplane::replay(&*fs, &rec.ops[..k]);
    if let (Some(len), Some(IoOp::Append { path, content })) = (tear, rec.ops.get(k)) {
        let torn = IoOp::Append {
            path: path.clone(),
            content: content.slice(0, len),
        };
        ioplane::replay(&*fs, &[torn]);
    }
    out.states += 1;
    for file in &rec.files {
        if let Err(e) = hold(&fs, file, k, &mut out.torn_flatten) {
            let at = file.paths.join("→");
            out.failures.push(format!("k={k} tear={tear:?} {at}: {e}"));
        }
    }
}

/// One file's promises in the crash state at `k`.
fn hold(fs: &Arc<MemFs>, file: &File, k: usize, torn_flatten: &mut bool) -> Result<(), String> {
    let ctx = |what: &'static str| move |e: plfs::PlfsError| format!("{what}: {e}");
    // Bytes at or past a cut that has begun may already be gone.
    let cut_from = file
        .cut
        .filter(|c| c.begin < k)
        .map_or(u64::MAX, |c| c.size);
    let required = |w: &&Write| w.acked.is_some_and(|a| a <= k) && w.offset < cut_from;
    let containers = file.paths.iter().map(|p| Container::new(p, &file.fed));
    let Some(c) = containers.into_iter().find(|c| c.exists(&**fs)) else {
        return match file.writes.iter().find(required) {
            Some(w) => Err(format!("container gone, slot at {} acknowledged", w.offset)),
            None => Ok(()),
        };
    };
    if file.quiesced.is_some_and(|q| q <= k) {
        let report = fsck::check(fs, &c).map_err(ctx("check"))?;
        if !report.is_clean() {
            return Err(format!("quiesced, yet check finds {:?}", report.issues));
        }
    }
    let outcome = fsck::repair(fs, &c).map_err(ctx("repair"))?;
    if !outcome.fully_repaired() {
        let (unrepaired, post) = (&outcome.unrepaired, &outcome.post.issues);
        return Err(format!("unrepaired {unrepaired:?}, post-repair {post:?}"));
    }
    let torn = |i: &fsck::Issue| matches!(i, fsck::Issue::InvalidFlattenedIndex { .. });
    *torn_flatten |= outcome.fixed.iter().any(torn);
    let resolved = c.subdirs_phys_batch(&**fs).map_err(ctx("subdirs"))?;
    let writers = c.list_writers(&**fs).map_err(ctx("writers"))?;
    let runs = c
        .read_index_runs(&**fs, &resolved, &writers, 1)
        .map_err(ctx("logs"))?;
    let logs = GlobalIndex::from_runs(&runs, true);
    let mut plain = ReadHandle::open(Arc::clone(fs), c.clone(), logs);
    let eof = plain.size();
    let got = plain.read(0, eof).map_err(ctx("read"))?;
    let config = PlfsConfig {
        federation: file.fed.clone(),
        index_policy: IndexPolicy::WriteClose,
    };
    let mount = Plfs::new(Arc::clone(fs), config).map_err(ctx("mount"))?;
    let others = [
        ("bounded", ReadHandle::open_bounded(Arc::clone(fs), c.clone(), Arc::default())),
        ("mount", mount.open_read(c.logical_path())),
    ];
    for (path, r) in others {
        let mut r = r.map_err(|e| format!("{path} open: {e}"))?;
        if r.size() != eof || r.read(0, eof).map_err(|e| format!("{path} read: {e}"))? != got {
            return Err(format!("{path} read differs from the logs' ({eof} B)"));
        }
    }
    if let Some(cut) = file.cut.filter(|c| c.ack <= k && eof > c.size) {
        return Err(format!("truncated to {}, yet {eof} bytes long", cut.size));
    }
    for (p, &g) in (0u64..).zip(&got) {
        let at = |w: &Write| Some(*w.bytes.get(p.checked_sub(w.offset)? as usize)?);
        if g != 0 && !file.writes.iter().any(|w| at(w) == Some(g)) {
            return Err(format!(
                "byte {p} reads {g:#04x}, which nothing wrote there"
            ));
        }
    }
    for w in file.writes.iter().filter(required) {
        for (p, &want) in (w.offset..cut_from).zip(&w.bytes) {
            if got.get(p as usize) != Some(&want) {
                return Err(format!("acknowledged byte {p} lost"));
            }
        }
    }
    Ok(())
}

/// Every crash state of one row: each trace prefix, and — where the next
/// op is an append — that append torn at 1, len/2 and len−1 bytes.
fn explore(rec: &Rec) -> Outcome {
    let mut out = Outcome::default();
    for k in 0..=rec.ops.len() {
        let mut tears = vec![None];
        if let Some(IoOp::Append { content, .. }) = rec.ops.get(k) {
            let n = content.len();
            let torn = [1, n / 2, n.saturating_sub(1)]
                .into_iter()
                .filter(|&t| t > 0 && t < n);
            tears.extend(torn.map(Some));
            tears.dedup();
        }
        for tear in tears {
            crash_state(rec, k, tear, &mut out);
        }
    }
    out
}

#[test]
fn every_crash_state_recovers() {
    let mut wrong = Vec::new();
    for row in &SCENARIOS {
        let out = explore(&(row.record)());
        let (states, failing) = (out.states, out.failures.len());
        println!("{:<18} {states:>4} states, {failing:>3} failing", row.name);
        for f in out.failures.iter().take(3) {
            println!("    {f}");
        }
        if failing > 0 {
            wrong.push(format!("{}: {failing} failing states", row.name));
        }
        if states != row.states {
            wrong.push(format!(
                "{}: {states} states, pinned {}",
                row.name, row.states
            ));
        }
        if row.torn_flatten && !out.torn_flatten {
            wrong.push(format!("{}: no state tore the flattened index", row.name));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
