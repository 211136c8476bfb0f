//! `svc_mixed`: the multi-tenant service axis.
//!
//! A seeded `workloads::traffic` trace — 512 clients in 32 tenants, 256
//! ops each of open / 4 KiB append / read / close with heavy-tailed gaps —
//! is replayed against one `Service` over `Reactor::with_config(MemFs, 4,
//! 64)`, a fresh one per phase. Token rates never limit; the 2 MiB dirty
//! budget does force index flushes through the asynchronous plane.
//!
//! * Phase A, closed loop: the whole trace, each client's next op sent
//!   when its previous one returned. Gives ops/s; a slower service simply
//!   receives less load, so its latency says little.
//! * Phase B, open loop: the first [`OPEN_LOOP_OPS`] ops of the trace,
//!   op `i` due at `i / `[`OPEN_LOOP_RATE`] seconds whatever the service
//!   does, each timed from its due time. The rate is frozen here so the
//!   latency stays comparable from commit to commit.
//!
//! One thread replays (the reactor's four workers run beside it). With
//! two replay threads the appended bytes land in whichever allocator
//! arena each thread happens to get, and the peak RSS came out at either
//! 330 or 470 MB; the open loop's median wandered with how the two
//! senders were scheduled. `service.threads2_speedup` keeps the
//! two-thread closed-loop rate on record.

use super::{on_threads, Round, Traced, Workload};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::{CounterSnapshot, Link, Role, TimedBackend};
use crate::trace;
use plfs::service::admission::{DirtyBudget, TokenBucket};
use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::{Backend, Content, MemFs, Reactor, SvcHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::traffic::{self, ClientOp, TrafficEvent, TrafficSpec};

const CLIENTS: u32 = 512;
const APPENDS_PER_FILE: u32 = 6;
const APPEND_BYTES: u64 = 4096;
/// Open-loop send rate, ops per second: about a quarter of the
/// closed-loop rate this box sustained when the benchmark was defined, so
/// that a stall delays the ops behind it but no backlog builds.
const OPEN_LOOP_RATE: u64 = 30_000;
/// Ops of the trace replayed per open-loop phase.
const OPEN_LOOP_OPS: usize = 20_000;
/// What a failed or refused op counts as: over any latency limit.
const FAILED_NS: u64 = 60_000_000_000;

pub struct SvcMixed {
    events: Vec<TrafficEvent>,
    /// `bodies[client]`: everything one client's file holds, and
    /// `appends[client][j]` the refcounted slice its `j`-th append sends.
    bodies: Vec<Vec<u8>>,
    appends: Vec<Vec<Content>>,
    /// The untraced stack, kept across phases and wiped between them: a
    /// reactor per phase meant four new worker threads each time, and
    /// the allocator arenas they left behind moved the peak RSS by a
    /// fifth from run to run.
    bare: Arc<Reactor<MemFs>>,
    /// Bytes one round's two phases append.
    appended: u64,
    /// How late the open-loop generator sent each op.
    lag: Samples,
    plane: CounterSnapshot,
    device: CounterSnapshot,
}

/// When op `i` of an open-loop phase that began at `start` is due.
fn due(start: Instant, i: usize) -> Instant {
    start + Duration::from_nanos(i as u64 * 1_000_000_000 / OPEN_LOOP_RATE)
}

#[derive(Default)]
struct Replayed {
    lat: Vec<u64>,
    lag: Vec<u64>,
    done: u64,
    failed: u64,
}

/// Retry `op` until admitted, sleeping out the advertised wait. A
/// throttle is backpressure, counted by the service, not a failure.
fn admitted<T>(mut op: impl FnMut() -> plfs::Result<Admitted<T>>) -> plfs::Result<T> {
    loop {
        match op()? {
            Admitted::Granted(v) => return Ok(v),
            Admitted::Throttled { wait_ns } => {
                std::thread::sleep(Duration::from_nanos(wait_ns.clamp(1_000, 5_000_000)));
            }
        }
    }
}

impl SvcMixed {
    pub fn new(seed: u64) -> SvcMixed {
        let spec = TrafficSpec {
            clients: CLIENTS,
            tenants: 32,
            ops_per_client: 256,
            appends_per_file: APPENDS_PER_FILE,
            append_bytes: APPEND_BYTES,
            read_bytes: APPEND_BYTES,
            mean_gap_ns: 1_000,
            alpha: 1.5,
            seed,
        };
        let file_bytes = (u64::from(APPENDS_PER_FILE) * APPEND_BYTES) as usize;
        let bodies: Vec<Vec<u8>> = (0..u64::from(CLIENTS))
            .map(|c| {
                stats::seeded_bytes(
                    seed ^ (c + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
                    file_bytes,
                )
            })
            .collect();
        let appends = bodies
            .iter()
            .map(|b| {
                let whole = Content::bytes(b.clone());
                (0..u64::from(APPENDS_PER_FILE))
                    .map(|j| whole.slice(j * APPEND_BYTES, APPEND_BYTES))
                    .collect()
            })
            .collect();
        let events = traffic::generate(&spec);
        let appended = |evs: &[TrafficEvent]| -> u64 {
            evs.iter()
                .map(|e| match e.op {
                    ClientOp::Append { len, .. } => len,
                    _ => 0,
                })
                .sum()
        };
        SvcMixed {
            appended: appended(&events) + appended(&events[..OPEN_LOOP_OPS]),
            events,
            bodies,
            appends,
            bare: Arc::new(Reactor::with_config(Arc::new(MemFs::new()), 4, 64)),
            lag: Samples::new(1 << 16),
            plane: CounterSnapshot::default(),
            device: CounterSnapshot::default(),
        }
    }

    fn config() -> ServiceConfig {
        let mut cfg = ServiceConfig::basic("/svc");
        cfg.token_rate = 1 << 22;
        cfg.token_burst = 1 << 16;
        cfg.dirty_budget = 2 * 1024 * 1024;
        cfg.expected_clients = CLIENTS as usize;
        cfg
    }

    /// One op of the trace against `svc`; `Ok(false)` is a wrong read.
    fn apply<B: Backend + Clone>(
        &self,
        svc: &Service<B>,
        e: &TrafficEvent,
        open: &mut HashMap<u32, SvcHandle>,
    ) -> plfs::Result<bool> {
        let tenant = format!("t{}", e.tenant);
        let path = |file: u32| format!("/c{}/f{file}", e.client);
        match e.op {
            ClientOp::OpenWrite { file } => {
                let sp = trace::enter("service.open_write");
                let h = admitted(|| svc.open_write(&tenant, &path(file)));
                sp.exit();
                open.insert(e.client, h?);
            }
            ClientOp::OpenRead { file } => {
                let sp = trace::enter("service.open_read");
                let h = admitted(|| svc.open_read(&tenant, &path(file)));
                sp.exit();
                open.insert(e.client, h?);
            }
            ClientOp::Append { offset, .. } => {
                let body = &self.appends[e.client as usize][(offset / APPEND_BYTES) as usize];
                let h = open[&e.client];
                let sp = trace::enter("service.append");
                let r = admitted(|| svc.append(h, offset, body));
                sp.exit();
                r?;
            }
            ClientOp::Read { offset, len } => {
                let h = open[&e.client];
                let sp = trace::enter("service.read");
                let r = admitted(|| svc.read(h, offset, len));
                sp.exit();
                let want =
                    &self.bodies[e.client as usize][offset as usize..(offset + len) as usize];
                return Ok(r? == want);
            }
            ClientOp::Close => {
                if let Some(h) = open.remove(&e.client) {
                    let sp = trace::enter("service.close");
                    let r = svc.close(h);
                    sp.exit();
                    r?;
                }
            }
        }
        Ok(true)
    }

    /// Replay `events` (indices into the trace prefix) on this thread:
    /// as fast as the service answers, or — given the start of an open
    /// loop — each when it is due.
    fn replay<B: Backend + Clone>(
        &self,
        svc: &Service<B>,
        events: &[usize],
        open_loop_start: Option<Instant>,
    ) -> Replayed {
        let mut out = Replayed::default();
        let mut open = HashMap::new();
        for &i in events {
            let mut due_at = None;
            if let Some(start) = open_loop_start {
                let d = due(start, i);
                // Yield rather than sleep: a timer's slack is longer than
                // the gap between two ops, and the reactor's workers
                // share these cores.
                while Instant::now() < d {
                    std::thread::yield_now();
                }
                out.lag.push(d.elapsed().as_nanos() as u64);
                due_at = Some(d);
            }
            let ok = matches!(self.apply(svc, &self.events[i], &mut open), Ok(true));
            out.done += 1;
            out.failed += u64::from(!ok);
            if let Some(d) = due_at {
                out.lat.push(if ok {
                    d.elapsed().as_nanos() as u64
                } else {
                    FAILED_NS
                });
            }
        }
        // An open-loop prefix ends mid-lifecycle for most clients.
        for (_, h) in open {
            out.failed += u64::from(svc.close(h).is_err());
        }
        out
    }

    /// One phase over a fresh service on `backend`: the first `n` ops of
    /// the trace, clients striped over `threads` replay threads. Returns
    /// the merged thread results and the phase's wall time.
    fn phase<B: Backend + Clone>(
        &self,
        backend: B,
        n: usize,
        open_loop: bool,
        threads: usize,
    ) -> (Replayed, u64) {
        // Untraced phases share one reactor: wipe what the last one left.
        let wiped = backend.remove_all("/svc");
        assert!(
            matches!(wiped, Ok(()) | Err(plfs::PlfsError::NotFound(_))),
            "cannot wipe the service root: {wiped:?}"
        );
        let svc = Service::new(backend, SvcMixed::config()).expect("service mount");
        let mut per_thread = vec![Vec::new(); threads];
        for (i, e) in self.events[..n].iter().enumerate() {
            per_thread[e.client as usize % threads].push(i);
        }
        let t0 = Instant::now();
        let start = open_loop.then_some(t0);
        let parts = on_threads(threads, |t| self.replay(&svc, &per_thread[t], start));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let mut all = Replayed::default();
        for p in parts {
            all.lat.extend(p.lat);
            all.lag.extend(p.lag);
            all.done += p.done;
            all.failed += p.failed;
        }
        // Every session the trace opened must be gone again.
        all.done += 1;
        all.failed += u64::from(svc.open_handles() != 0 || all.done != n as u64 + 1);
        (all, wall_ns)
    }

    /// Ops per second of one closed-loop phase on the bare stack.
    fn closed_loop_ops_per_s(&self, threads: usize) -> f64 {
        let (r, ns) = self.phase(Arc::clone(&self.bare), self.events.len(), false, threads);
        assert_eq!(r.failed, 0, "closed-loop replay failed");
        self.events.len() as f64 / (ns as f64 / 1e9)
    }
}

/// The traced stack: plane wrapper → reactor → device wrapper → `MemFs`.
type TracedStack = TimedBackend<Reactor<TimedBackend<MemFs>>>;

fn traced_stack() -> (TracedStack, TimedBackend<MemFs>) {
    let link = Arc::new(Link::default());
    let device = TimedBackend::new(MemFs::new(), Role::Device).with_link(Arc::clone(&link));
    let reactor = Reactor::with_config(Arc::new(device.clone()), 4, 64);
    (
        TimedBackend::new(reactor, Role::Plane).with_link(link),
        device,
    )
}

impl Workload for SvcMixed {
    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round {
        let t0 = Instant::now();
        let n = self.events.len();
        let ((a, a_ns), (b, _)) = if traced {
            let mut run = |n, open_loop| {
                let (plane, device) = traced_stack();
                let r = self.phase(plane.clone(), n, open_loop, 1);
                // The reactor is gone with the service: its workers have
                // flushed their spans and counted their last batch.
                self.plane = self.plane + plane.counters().snapshot();
                self.device = self.device + device.counters().snapshot();
                r
            };
            (run(n, false), run(OPEN_LOOP_OPS, true))
        } else {
            (
                self.phase(Arc::clone(&self.bare), n, false, 1),
                self.phase(Arc::clone(&self.bare), OPEN_LOOP_OPS, true, 1),
            )
        };
        lat.extend(&b.lat);
        if !traced {
            self.lag.extend(&b.lag);
        }
        let mut pool = Samples::new(b.lat.len());
        pool.extend(&b.lat);
        let (p50, p99) = pool.p50_p99_us();
        let ops_per_s = n as f64 / (a_ns as f64 / 1e9);
        Round {
            wall_ns: t0.elapsed().as_nanos() as u64,
            ops: n as u64,
            ops_ns: a_ns,
            attempted: a.done + b.done,
            failed: a.failed + b.failed,
            axis: vec![
                ("axis.svc_ops_per_s", ops_per_s),
                ("axis.svc_p50_us", p50),
                ("axis.svc_p99_us", p99),
            ],
        }
    }

    fn layers(&mut self, t: &Traced, m: &mut Metrics) {
        for (metric, span) in [
            ("service.open_write_self_us", "service.open_write"),
            ("service.open_read_self_us", "service.open_read"),
            ("service.append_self_us", "service.append"),
            ("service.read_self_us", "service.read"),
            ("service.close_self_us", "service.close"),
        ] {
            m.set(metric, t.self_us(span));
        }
        m.set("service.throttled", t.counter_per_round("svc.throttled"));
        m.set(
            "service.dirty_flushes",
            t.counter_per_round("svc.dirty_flushes"),
        );
        m.set("service.opens", t.counter_per_round("svc.opens"));
        m.set("service.gen_lag_p99_us", self.lag.p50_p99_us().1);

        // Direct calls: one admission decision, as `Service::admit`
        // makes it for an append.
        let mut bucket = TokenBucket::new(1 << 22, 1 << 16);
        let mut dirty = DirtyBudget::new(2 * 1024 * 1024);
        let probes = 1_000_000u64;
        let t0 = Instant::now();
        for i in 0..probes {
            std::hint::black_box(bucket.try_take(i * 1000));
            if dirty.charge(APPEND_BYTES) {
                dirty.drain();
            }
        }
        m.set(
            "service.admission_ns",
            t0.elapsed().as_nanos() as f64 / probes as f64,
        );

        // Untraced closed-loop rates, alternating so drift hits all sides
        // alike: `plfs::telemetry` on against off, and two replay threads
        // against one.
        let (mut off, mut on, mut two) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            off.push(self.closed_loop_ops_per_s(1));
            plfs::telemetry::set_enabled(true);
            on.push(self.closed_loop_ops_per_s(1));
            plfs::telemetry::set_enabled(false);
            plfs::telemetry::reset();
            two.push(self.closed_loop_ops_per_s(stats::threads(2)));
        }
        m.set(
            "telemetry.enabled_overhead_pct",
            100.0 * (stats::median(&off) / stats::median(&on) - 1.0),
        );
        m.set(
            "service.threads2_speedup",
            stats::median(&two) / stats::median(&off),
        );

        t.backend_metrics(self.plane, self.device, self.appended, m);
        m.set("trace.coverage_pct", t.coverage_pct("backend."));
    }
}
