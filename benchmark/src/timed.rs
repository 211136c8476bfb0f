//! Benchmark-owned wrappers at the seams the public API already offers:
//! [`TimedBackend`] over any [`Backend`], [`TimedDriver`] over any
//! [`mpio::Driver`]. Both forward every call unchanged, open a
//! [`crate::trace`] span around it and count it; neither is present in
//! the end-to-end pass.
//!
//! A `TimedBackend` sits at one of two boundaries. [`Role::Device`] is
//! directly over `MemFs`/`LocalFs` (what the backend layer does);
//! [`Role::Plane`] is what the middleware submits to when a `Reactor`
//! stands between the two (`svc_mixed`). Without a reactor the two
//! boundaries coincide and one `Device` wrapper serves as both.

use crate::trace;
use mpio::{Ctx, Driver, LogicalOp, Step};
use plfs::backend::NodeKind;
use plfs::{Backend, Content, IoOp, IoOutcome, PlfsError, Result, Ticket};
use simcore::SimTime;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Which boundary a [`TimedBackend`] stands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Above the reactor: the batches the middleware hands to the plane.
    Plane,
    /// Directly over the storage backend.
    Device,
}

/// What kind of work an op is, for the per-kind device numbers.
#[derive(Clone, Copy)]
enum Kind {
    Append,
    Read,
    Meta,
}

fn kind_of(op: &IoOp) -> Kind {
    match op {
        IoOp::Append { .. } => Kind::Append,
        IoOp::ReadAt { .. } => Kind::Read,
        _ => Kind::Meta,
    }
}

/// What one boundary counts. Times are nanoseconds summed over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    /// `submit` + `submit_async` calls.
    Batches,
    /// Ops carried by those batches.
    BatchOps,
    /// Per-op method calls (ops that bypassed a batch).
    SingleOps,
    /// Time inside any forwarded call.
    BusyNs,
    AppendOps,
    AppendNs,
    AppendBytes,
    ReadOps,
    ReadNs,
    ReadBytes,
    MetaOps,
    MetaNs,
    /// Ops that returned an error other than `NotFound`/`AlreadyExists`
    /// (those two are answers to a probe, not failures).
    Failed,
    AsyncBatches,
    /// Time inside `submit_async` (window back-pressure).
    SubmitAsyncNs,
    /// Batches matched from a plane `submit_async` to their device run.
    Queued,
    /// Plane `submit_async` entry → device `submit` entry.
    QueueWaitNs,
}

const COUNTERS: usize = C::QueueWaitNs as usize + 1;

/// Counters of one boundary, shared by every clone of its wrapper.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; COUNTERS]);

/// A plain copy of [`Counters`]; subtract two to get one round's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot([u64; COUNTERS]);

impl std::ops::Index<C> for CounterSnapshot {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::Add for CounterSnapshot {
    type Output = CounterSnapshot;
    fn add(self, o: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot(std::array::from_fn(|i| self.0[i] + o.0[i]))
    }
}

impl std::ops::Sub for CounterSnapshot {
    type Output = CounterSnapshot;
    fn sub(self, o: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot(std::array::from_fn(|i| self.0[i] - o.0[i]))
    }
}

impl CounterSnapshot {
    /// All ops seen at this boundary, batched or not.
    pub fn ops(&self) -> u64 {
        self[C::BatchOps] + self[C::SingleOps]
    }
}

impl Counters {
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot(std::array::from_fn(|i| self.0[i].load(Relaxed)))
    }

    fn add(&self, c: C, n: u64) {
        self.0[c as usize].fetch_add(n, Relaxed);
    }

    fn count_op(&self, kind: Kind, ns: u64, bytes: u64) {
        let (ops, time, moved) = match kind {
            Kind::Append => (C::AppendOps, C::AppendNs, Some(C::AppendBytes)),
            Kind::Read => (C::ReadOps, C::ReadNs, Some(C::ReadBytes)),
            Kind::Meta => (C::MetaOps, C::MetaNs, None),
        };
        self.add(ops, 1);
        self.add(time, ns);
        if let Some(m) = moved {
            self.add(m, bytes);
        }
    }

    fn count_failure<T>(&self, r: &Result<T>) {
        if let Err(e) = r {
            if !matches!(e, PlfsError::NotFound(_) | PlfsError::AlreadyExists(_)) {
                self.add(C::Failed, 1);
            }
        }
    }
}

thread_local! {
    /// `(calls, ops)` this thread has made across the boundary the
    /// middleware submits to — exact per thread, whatever others do.
    static TRIPS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Round trips across the topmost timed boundary, summed over `n`
/// measured calls into the middleware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trips {
    pub n: u64,
    pub calls: u64,
    pub ops: u64,
}

impl Trips {
    /// Run `f` on this thread and add what it sent across the boundary.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = TRIPS.with(std::cell::Cell::get);
        let v = f();
        let after = TRIPS.with(std::cell::Cell::get);
        self.n += 1;
        self.calls += after.0 - before.0;
        self.ops += after.1 - before.1;
        v
    }

    pub fn add(&mut self, o: Trips) {
        self.n += o.n;
        self.calls += o.calls;
        self.ops += o.ops;
    }

    /// Boundary calls per measured call.
    pub fn calls_per(&self) -> f64 {
        self.calls as f64 / self.n.max(1) as f64
    }

    /// Boundary ops per measured call.
    pub fn ops_per(&self) -> f64 {
        self.ops as f64 / self.n.max(1) as f64
    }
}

/// Hands a plane-side `submit_async` to the device-side `submit` that a
/// reactor worker later runs for it: batches are matched first-in
/// first-out on a fingerprint (length + first op), which is exact as
/// long as equal-looking batches are not in flight at once and close
/// enough for a wait-time average when they are.
#[derive(Debug, Default)]
pub struct Link {
    pending: Mutex<HashMap<u64, VecDeque<(u64, u64)>>>,
}

fn fingerprint(batch: &[IoOp]) -> u64 {
    let mut h = DefaultHasher::new();
    batch.len().hash(&mut h);
    if let Some(op) = batch.first() {
        std::mem::discriminant(op).hash(&mut h);
        op.path().hash(&mut h);
    }
    h.finish()
}

/// A backend wrapper that forwards everything and times it.
pub struct TimedBackend<B> {
    inner: Arc<B>,
    role: Role,
    counters: Arc<Counters>,
    link: Option<Arc<Link>>,
}

impl<B> Clone for TimedBackend<B> {
    fn clone(&self) -> Self {
        TimedBackend {
            inner: Arc::clone(&self.inner),
            role: self.role,
            counters: Arc::clone(&self.counters),
            link: self.link.clone(),
        }
    }
}

impl<B: Backend> TimedBackend<B> {
    /// Wrap `inner` at boundary `role`.
    pub fn new(inner: B, role: Role) -> Self {
        TimedBackend {
            inner: Arc::new(inner),
            role,
            counters: Arc::default(),
            link: None,
        }
    }

    /// Share `link` with the wrapper on the other side of a reactor.
    pub fn with_link(mut self, link: Arc<Link>) -> Self {
        self.link = Some(link);
        self
    }

    /// The counters of this boundary (shared by every clone).
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// Count one call of `ops` ops on this thread, if this wrapper is the
    /// one the middleware talks to (a linked device has a plane above).
    fn count_trip(&self, ops: usize) {
        if self.role == Role::Plane || self.link.is_none() {
            TRIPS.with(|t| {
                let (calls, n) = t.get();
                t.set((calls + 1, n + ops as u64));
            });
        }
    }

    fn span_name(&self, kind: Kind) -> &'static str {
        match (self.role, kind) {
            (Role::Plane, _) => "ioplane.op",
            (Role::Device, Kind::Append) => "backend.append",
            (Role::Device, Kind::Read) => "backend.read",
            (Role::Device, Kind::Meta) => "backend.meta",
        }
    }

    /// One per-op method call; `moved` reads the bytes it transferred
    /// off a successful result.
    fn single<T>(
        &self,
        kind: Kind,
        f: impl FnOnce(&B) -> Result<T>,
        moved: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        self.count_trip(1);
        let sp = trace::enter(self.span_name(kind));
        let r = f(&self.inner);
        let ns = sp.exit();
        let c = &self.counters;
        c.add(C::SingleOps, 1);
        c.add(C::BusyNs, ns);
        c.count_op(kind, ns, r.as_ref().map_or(0, moved));
        c.count_failure(&r);
        r
    }

    fn meta<T>(&self, f: impl FnOnce(&B) -> Result<T>) -> Result<T> {
        self.single(Kind::Meta, f, |_| 0)
    }

    /// Account a finished batch: its time is split evenly over its ops
    /// (a native batched submit offers nothing finer).
    fn count_batch(&self, batch: &[IoOp], outcomes: &[IoOutcome], ns: u64) {
        let c = &self.counters;
        c.add(C::Batches, 1);
        c.add(C::BatchOps, batch.len() as u64);
        c.add(C::BusyNs, ns);
        let share = ns / batch.len().max(1) as u64;
        for (op, out) in batch.iter().zip(outcomes) {
            let bytes = match (op, out) {
                (IoOp::Append { content, .. }, Ok(_)) => content.len(),
                (IoOp::ReadAt { .. }, Ok(plfs::IoValue::Data(d))) => d.len(),
                _ => 0,
            };
            c.count_op(kind_of(op), share, bytes);
            c.count_failure(out);
        }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn mkdir(&self, path: &str) -> Result<()> {
        self.meta(|b| b.mkdir(path))
    }
    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.meta(|b| b.mkdir_all(path))
    }
    fn create(&self, path: &str, exclusive: bool) -> Result<()> {
        self.meta(|b| b.create(path, exclusive))
    }
    fn append(&self, path: &str, content: &Content) -> Result<u64> {
        self.single(Kind::Append, |b| b.append(path, content), |_| content.len())
    }
    fn read_at(&self, path: &str, offset: u64, len: u64) -> Result<Content> {
        self.single(Kind::Read, |b| b.read_at(path, offset, len), Content::len)
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.meta(|b| b.size(path))
    }
    fn kind(&self, path: &str) -> Result<NodeKind> {
        self.meta(|b| b.kind(path))
    }
    fn exists(&self, path: &str) -> bool {
        self.meta(|b| Ok(b.exists(path))).unwrap_or(true)
    }
    fn list(&self, path: &str) -> Result<Vec<String>> {
        self.meta(|b| b.list(path))
    }
    fn unlink(&self, path: &str) -> Result<()> {
        self.meta(|b| b.unlink(path))
    }
    fn remove_all(&self, path: &str) -> Result<()> {
        self.meta(|b| b.remove_all(path))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.meta(|b| b.rename(from, to))
    }

    fn submit(&self, batch: &[IoOp]) -> Vec<IoOutcome> {
        self.count_trip(batch.len());
        let name = match self.role {
            Role::Plane => "ioplane.submit",
            Role::Device => "backend.submit",
        };
        // A device-side batch with no open span on this thread is being
        // run by a reactor worker: find the submit_async that queued it.
        let mut cause = (0, 0);
        if self.role == Role::Device && trace::enabled() && !trace::in_span() {
            if let Some(link) = &self.link {
                let mut pending = link.pending.lock().expect("link poisoned");
                if let Some(q) = pending.get_mut(&fingerprint(batch)) {
                    cause = q.pop_front().unwrap_or_default();
                }
            }
        }
        let sp = trace::enter_caused_by(name, cause.0);
        if cause.0 != 0 {
            self.counters.add(C::Queued, 1);
            self.counters
                .add(C::QueueWaitNs, sp.start_ns().saturating_sub(cause.1));
        }
        let outcomes = self.inner.submit(batch);
        self.count_batch(batch, &outcomes, sp.exit());
        outcomes
    }

    fn submit_async(&self, batch: &[IoOp]) -> Ticket {
        // Storage backends complete inline (the trait default); going
        // through the timed `submit` keeps the batch counted here.
        if self.role == Role::Device {
            return Ticket::completed(self.submit(batch));
        }
        self.count_trip(batch.len());
        let sp = trace::enter("ioplane.submit_async");
        if let (Some(link), true) = (&self.link, sp.id() != 0) {
            link.pending
                .lock()
                .expect("link poisoned")
                .entry(fingerprint(batch))
                .or_default()
                .push_back((sp.id(), sp.start_ns()));
        }
        let ticket = self.inner.submit_async(batch);
        let ns = sp.exit();
        // Busy time belongs to whoever runs the batch (the device wrapper
        // under the reactor counts it); this call only queued it.
        let c = &self.counters;
        c.add(C::Batches, 1);
        c.add(C::AsyncBatches, 1);
        c.add(C::BatchOps, batch.len() as u64);
        c.add(C::SubmitAsyncNs, ns);
        ticket
    }
}

/// A driver wrapper that forwards `step`/`collective` and times them.
pub struct TimedDriver<D> {
    inner: D,
    /// `step` + `collective` calls.
    pub calls: u64,
    /// Nanoseconds inside them: the `mpio` driver plus `pfs` and `simnet`
    /// below it. The rest of a run is the `Exec` loop and `simcore`.
    pub busy_ns: u64,
}

impl<D: Driver> TimedDriver<D> {
    pub fn new(inner: D) -> Self {
        TimedDriver {
            inner,
            calls: 0,
            busy_ns: 0,
        }
    }
}

impl<D: Driver> Driver for TimedDriver<D> {
    fn step(
        &mut self,
        rank: usize,
        pc: usize,
        op: &LogicalOp,
        now: SimTime,
        ctx: &mut Ctx,
    ) -> Step {
        let sp = trace::enter("mpio.step");
        let r = self.inner.step(rank, pc, op, now, ctx);
        self.busy_ns += sp.exit();
        self.calls += 1;
        r
    }

    fn collective(
        &mut self,
        pc: usize,
        op: &LogicalOp,
        arrivals: &[SimTime],
        ctx: &mut Ctx,
    ) -> Vec<SimTime> {
        let sp = trace::enter("mpio.collective");
        let r = self.inner.collective(pc, op, arrivals, ctx);
        self.busy_ns += sp.exit();
        self.calls += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpio::{Exec, Layout, PlfsDriver, PlfsDriverConfig, ReadStrategy};
    use plfs::{Federation, MemFs, Plfs, PlfsConfig, Reactor};

    /// Write a small strided file through `fs`, read it back whole.
    fn round_trip<B: Backend + Clone>(fs: &Plfs<B>) -> Vec<u8> {
        let mut handles: Vec<_> = (0..4).map(|w| fs.open_write("/f", w).unwrap()).collect();
        for k in 0..8u64 {
            for (w, h) in handles.iter_mut().enumerate() {
                let body = Content::bytes(vec![(k * 4 + w as u64) as u8; 100]);
                h.write((k * 4 + w as u64) * 100, &body, fs.timestamp())
                    .unwrap();
            }
        }
        for h in handles {
            h.close(fs.timestamp()).unwrap();
        }
        assert_eq!(fs.stat("/f").unwrap().size, 3200);
        let mut r = fs.open_read("/f").unwrap();
        r.read(0, 3200).unwrap()
    }

    #[test]
    fn timed_backend_is_transparent_and_counts() {
        let plain = Plfs::new(Arc::new(MemFs::new()), PlfsConfig::basic("/p")).unwrap();
        let want = round_trip(&plain);

        let timed = TimedBackend::new(MemFs::new(), Role::Device);
        let fs = Plfs::new(timed.clone(), PlfsConfig::basic("/p")).unwrap();
        assert_eq!(round_trip(&fs), want);
        let c = timed.counters().snapshot();
        assert_eq!(c[C::AppendBytes], plain.backend().total_bytes());
        assert_eq!(
            c[C::ReadBytes],
            3200 + 32 * 40,
            "data plus 32 index records"
        );
        assert_eq!(c[C::Failed], 0);
        assert!(c[C::Batches] > 0 && c[C::BatchOps] > c[C::Batches] && c[C::SingleOps] >= 32);

        // Through a reactor, with a wrapper on each side of it.
        let link = Arc::new(Link::default());
        let device = TimedBackend::new(MemFs::new(), Role::Device).with_link(Arc::clone(&link));
        let reactor = Reactor::with_config(Arc::new(device.clone()), 2, 4);
        let plane = TimedBackend::new(reactor, Role::Plane).with_link(link);
        let fs = Plfs::new(plane.clone(), PlfsConfig::basic("/p")).unwrap();
        assert_eq!(round_trip(&fs), want);
        assert_eq!(
            plane.counters().snapshot().ops(),
            device.counters().snapshot().ops(),
            "every op the middleware submits reaches the device once"
        );
    }

    fn sim(timed: bool) -> (u64, usize, SimTime, String, u64) {
        let w = workloads::mpiio_test(256);
        let cluster = harness::ClusterProfile::production_cluster();
        let (nodes, ppn) = cluster.placement(256);
        let pfs = pfs::SimPfs::new((cluster.pfs)(nodes), 7);
        let mut ctx = Ctx::new(pfs, cluster.net(), Layout::new(256, ppn));
        let cfg = PlfsDriverConfig::new(
            Federation::single("/panfs", 32),
            ReadStrategy::ParallelIndexRead,
        );
        let program = w.compile();
        let r = if timed {
            let mut d = TimedDriver::new(PlfsDriver::new(cfg));
            let r = Exec::new(&program, &mut d, &mut ctx).run();
            assert!(d.calls >= r.events && d.busy_ns > 0);
            r
        } else {
            let mut d = PlfsDriver::new(cfg);
            Exec::new(&program, &mut d, &mut ctx).run()
        };
        let mut stats: Vec<String> = [
            mpio::OpKind::OpenWrite,
            mpio::OpKind::Write,
            mpio::OpKind::CloseWrite,
            mpio::OpKind::OpenRead,
            mpio::OpKind::Read,
        ]
        .iter()
        .map(|k| format!("{:?}", r.metrics.get(*k)))
        .collect();
        stats.sort();
        (
            r.events,
            r.peak_live_events,
            r.makespan,
            stats.join(";"),
            ctx.pfs.bytes_written(),
        )
    }

    #[test]
    fn timed_driver_is_transparent() {
        assert_eq!(sim(true), sim(false));
    }
}
