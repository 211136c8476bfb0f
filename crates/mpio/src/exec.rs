//! The discrete-event execution loop.
//!
//! Every rank is an entity with its own virtual clock walking its logical
//! program. The loop pops the earliest-ready rank, steps its current op
//! through the driver, and reschedules it. Collective ops park ranks until
//! the last one arrives, then the driver computes release times. Because
//! events are processed in global time order, ranks interleave correctly
//! on the shared file-system resources — the property that makes metadata
//! storms and bandwidth contention come out right.
//!
//! The loop is built for 65,536-rank scale:
//!
//! * events go through the calendar-queue [`simcore::EventArena`]; the
//!   seed [`simcore::EventQueue`] heap stays as the differential oracle
//!   the determinism suite hands to [`Exec::run_on`];
//! * a rank's decoded current op is cached across `Step::Yield`
//!   micro-steps instead of re-derived from the program every event;
//! * collective rendezvous state is one reusable arrival buffer — SPMD
//!   programs can have at most one collective gathering at a time (no
//!   rank passes collective *k* until all ranks have), so there is no
//!   per-collective map on the hot path.

use crate::driver::{Ctx, Driver, Step};
use crate::metrics::{Metrics, OpKind};
use crate::ops::Program;
use crate::timeline::Timeline;
use plfs::telemetry;
use simcore::{EventArena, EventQueue, SimTime};

/// Executes one job (program × driver × context) to completion.
pub struct Exec<'a, P: Program, D: Driver> {
    program: &'a P,
    driver: &'a mut D,
    ctx: &'a mut Ctx,
}

/// Result of a completed run.
pub struct RunResult {
    pub metrics: Metrics,
    /// Virtual time at which the last rank finished its program.
    pub makespan: SimTime,
    /// Scheduler events processed over the run.
    pub events: u64,
    /// Highest simultaneous pending-event count the scheduler saw.
    pub peak_live_events: usize,
}

/// What the loop needs from its event queue: rank wake-ups out in
/// `(time, push order)` order. Production runs on the [`EventArena`];
/// the [`EventQueue`] heap is the reference the determinism suite
/// compares it against.
pub trait RankQueue {
    /// Wake `rank` at `at`.
    fn push(&mut self, at: SimTime, rank: u32);
    /// The earliest pending wake-up.
    fn pop(&mut self) -> Option<(SimTime, u32)>;
    /// Wake-ups not yet popped.
    fn pending(&self) -> usize;
}

impl RankQueue for EventArena {
    fn push(&mut self, at: SimTime, rank: u32) {
        EventArena::push(self, at, 0, rank);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        EventArena::pop(self).map(|(at, _kind, rank)| (at, rank))
    }
    fn pending(&self) -> usize {
        EventArena::len(self)
    }
}

impl RankQueue for EventQueue<u32> {
    fn push(&mut self, at: SimTime, rank: u32) {
        EventQueue::push(self, at, rank);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        EventQueue::pop(self)
    }
    fn pending(&self) -> usize {
        EventQueue::len(self)
    }
}

/// The (single) collective currently gathering arrivals. SPMD programs
/// admit at most one at a time, so the buffers are reused run-long.
struct Rendezvous {
    /// `pc` of the gathering collective, if one is open.
    pc: Option<usize>,
    /// Arrival time per rank (only the first `arrived` logically valid).
    arrivals: Vec<SimTime>,
    /// Ranks parked so far.
    arrived: usize,
}

impl<'a, P: Program, D: Driver> Exec<'a, P, D> {
    pub fn new(program: &'a P, driver: &'a mut D, ctx: &'a mut Ctx) -> Self {
        Exec {
            program,
            driver,
            ctx,
        }
    }

    /// Run all ranks to program completion; panics on deadlock (a
    /// collective some ranks never reach).
    pub fn run(self) -> RunResult {
        self.run_on(EventArena::new())
    }

    /// [`Exec::run`] on a caller-supplied (empty) queue — the
    /// determinism suite runs the same job on the heap and compares.
    pub fn run_on(self, queue: impl RankQueue) -> RunResult {
        self.run_impl(queue, None)
    }

    /// Like [`Exec::run`], additionally recording every completed op into
    /// `timeline` (opt-in: costs one span per op).
    pub fn run_with_timeline(self, timeline: &mut Timeline) -> RunResult {
        self.run_impl(EventArena::new(), Some(timeline))
    }

    fn run_impl<Q: RankQueue>(
        self,
        mut queue: Q,
        mut timeline: Option<&mut Timeline>,
    ) -> RunResult {
        let n = self.ctx.layout.nprocs;
        // Engine counters: events popped, and the most ever pending.
        let mut events = 0u64;
        let mut peak_live_events = 0usize;
        let mut wake = |queue: &mut Q, at: SimTime, rank: usize| {
            queue.push(at, rank as u32);
            peak_live_events = peak_live_events.max(queue.pending());
        };
        // Hot per-rank state in one compact record — program counter and
        // op start time — so dispatching an event touches one cache line
        // of rank state, not parallel vectors.
        #[derive(Clone, Copy)]
        struct RankState {
            pc: u32,
            begin: Option<SimTime>,
        }
        let mut rs = vec![RankState { pc: 0, begin: None }; n];
        // Decoded current op per rank, kept across Yield micro-steps
        // (separate: it is fat and only touched on op boundaries and
        // yields, not on every dispatch).
        let mut cur_op = Vec::with_capacity(n);
        cur_op.resize_with(n, || None);
        let mut rdv = Rendezvous {
            pc: None,
            arrivals: vec![SimTime::ZERO; n],
            arrived: 0,
        };
        let mut metrics = Metrics::new();
        let mut makespan = SimTime::ZERO;
        let mut done_ranks = 0usize;

        for r in 0..n {
            if self.program.len(r) == 0 {
                done_ranks += 1;
            } else {
                wake(&mut queue, SimTime::ZERO, r);
            }
        }

        while let Some((now, rank)) = queue.pop() {
            events += 1;
            let rank = rank as usize;
            let rpc = rs[rank].pc as usize;
            debug_assert!(rpc < self.program.len(rank));
            let op = match cur_op[rank].take() {
                Some(op) => op,
                None => self.program.op(rank, rpc),
            };
            let begin = *rs[rank].begin.get_or_insert(now);
            match self.driver.step(rank, rpc, &op, now, self.ctx) {
                Step::Yield(at) => {
                    cur_op[rank] = Some(op);
                    wake(&mut queue, at, rank);
                }
                Step::Done(fin) => {
                    metrics.record(OpKind::from(&op), begin, fin, op.bytes());
                    if let Some(tl) = timeline.as_deref_mut() {
                        tl.record(rank, OpKind::from(&op), begin, fin);
                    }
                    rs[rank].begin = None;
                    rs[rank].pc += 1;
                    if (rs[rank].pc as usize) < self.program.len(rank) {
                        wake(&mut queue, fin, rank);
                    } else {
                        makespan = makespan.max(fin);
                        done_ranks += 1;
                    }
                }
                Step::Collective => {
                    match rdv.pc {
                        None => rdv.pc = Some(rpc),
                        Some(open) => assert_eq!(
                            open, rpc,
                            "deadlock: ranks parked in different collectives ({open} vs {rpc})"
                        ),
                    }
                    rdv.arrivals[rank] = now;
                    rdv.arrived += 1;
                    if rdv.arrived == n {
                        rdv.pc = None;
                        rdv.arrived = 0;
                        let releases =
                            self.driver.collective(rpc, &op, &rdv.arrivals, self.ctx);
                        assert_eq!(releases.len(), n, "driver must release every rank");
                        let kind = OpKind::from(&op);
                        // `op.bytes()` is per-rank for collectives too.
                        for (r, release) in releases.into_iter().enumerate() {
                            metrics.record(kind, rdv.arrivals[r], release, op.bytes());
                            if let Some(tl) = timeline.as_deref_mut() {
                                tl.record(r, kind, rdv.arrivals[r], release);
                            }
                            rs[r].begin = None;
                            rs[r].pc += 1;
                            if (rs[r].pc as usize) < self.program.len(r) {
                                wake(&mut queue, release.max(now), r);
                            } else {
                                makespan = makespan.max(release);
                                done_ranks += 1;
                            }
                        }
                    }
                }
            }
        }

        assert_eq!(
            rdv.arrived, 0,
            "deadlock: {} ranks parked in a collective no one completed",
            rdv.arrived
        );
        assert_eq!(done_ranks, n, "not all ranks finished their programs");
        telemetry::count(telemetry::CTR_SIM_EVENTS, events);
        telemetry::count(telemetry::CTR_SIM_PEAK_LIVE, peak_live_events as u64);
        RunResult {
            metrics,
            makespan,
            events,
            peak_live_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generic_collective;
    use crate::layout::Layout;
    use crate::ops::{FnProgram, LogicalOp, Program};

    /// A trivially materialized program: the same op list for every rank.
    struct VecProgram {
        ops: Vec<LogicalOp>,
    }

    impl Program for VecProgram {
        fn len(&self, _rank: usize) -> usize {
            self.ops.len()
        }
        fn op(&self, _rank: usize, pc: usize) -> LogicalOp {
            self.ops[pc].clone()
        }
    }
    use pfs::{PfsParams, SimPfs};
    use simnet::{Interconnect, InterconnectParams};
    use std::collections::HashMap;

    /// A toy driver: Compute advances time; Barrier via generic handler.
    struct ToyDriver;

    impl Driver for ToyDriver {
        fn step(
            &mut self,
            _rank: usize,
            _pc: usize,
            op: &LogicalOp,
            now: SimTime,
            _ctx: &mut Ctx,
        ) -> Step {
            match op {
                LogicalOp::Compute { nanos } => {
                    Step::Done(now + simcore::SimDuration::from_nanos(*nanos))
                }
                LogicalOp::Barrier | LogicalOp::Exchange { .. } => Step::Collective,
                other => panic!("toy driver got {other:?}"),
            }
        }

        fn collective(
            &mut self,
            _pc: usize,
            op: &LogicalOp,
            arrivals: &[SimTime],
            ctx: &mut Ctx,
        ) -> Vec<SimTime> {
            generic_collective(op, arrivals, ctx)
        }
    }

    fn ctx(n: usize) -> Ctx {
        Ctx::new(
            SimPfs::new(PfsParams::panfs_production(64), 1),
            Interconnect::new(InterconnectParams::infiniband()),
            Layout::new(n, 16),
        )
    }

    #[test]
    fn ranks_progress_independently_until_barrier() {
        // Rank r computes r microseconds, then barrier, then 1us.
        let prog = FnProgram {
            count: 3,
            f: |rank, pc| match pc {
                0 => LogicalOp::Compute {
                    nanos: rank as u64 * 1000,
                },
                1 => LogicalOp::Barrier,
                _ => LogicalOp::Compute { nanos: 1000 },
            },
        };
        let mut ctx = ctx(8);
        let mut d = ToyDriver;
        let res = Exec::new(&prog, &mut d, &mut ctx).run();
        // Everyone waits for the slowest (7us) at the barrier.
        let barrier = res.metrics.get(OpKind::Barrier).unwrap();
        assert_eq!(barrier.count, 8);
        assert!(res.makespan > SimTime::from_secs_f64(8e-6));
        assert!(res.makespan < SimTime::from_secs_f64(30e-6));
        // Compute phase recorded 16 completions (2 per rank).
        assert_eq!(res.metrics.get(OpKind::Compute).unwrap().count, 16);
    }

    #[test]
    fn empty_program_terminates() {
        let prog = VecProgram { ops: vec![] };
        let mut ctx = ctx(4);
        let mut d = ToyDriver;
        let res = Exec::new(&prog, &mut d, &mut ctx).run();
        assert_eq!(res.makespan, SimTime::ZERO);
    }

    #[test]
    fn consecutive_barriers_do_not_deadlock() {
        let prog = VecProgram {
            ops: vec![LogicalOp::Barrier, LogicalOp::Barrier, LogicalOp::Barrier],
        };
        let mut ctx = ctx(16);
        let mut d = ToyDriver;
        let res = Exec::new(&prog, &mut d, &mut ctx).run();
        assert_eq!(res.metrics.get(OpKind::Barrier).unwrap().count, 48);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_collectives_are_detected() {
        // Rank 0 hits a barrier; rank 1's program ends without one — the
        // run must fail loudly instead of hanging or silently dropping
        // the parked rank.
        struct Ragged;
        impl crate::ops::Program for Ragged {
            fn len(&self, rank: usize) -> usize {
                if rank == 0 {
                    1
                } else {
                    0
                }
            }
            fn op(&self, _r: usize, _pc: usize) -> LogicalOp {
                LogicalOp::Barrier
            }
        }
        let mut ctx = ctx(2);
        let mut d = ToyDriver;
        Exec::new(&Ragged, &mut d, &mut ctx).run();
    }

    /// A driver that yields twice before finishing, to exercise micro-steps.
    struct YieldingDriver {
        steps: HashMap<usize, u32>,
    }

    impl Driver for YieldingDriver {
        fn step(
            &mut self,
            rank: usize,
            _pc: usize,
            _op: &LogicalOp,
            now: SimTime,
            _ctx: &mut Ctx,
        ) -> Step {
            let c = self.steps.entry(rank).or_insert(0);
            *c += 1;
            if *c < 3 {
                Step::Yield(now + simcore::SimDuration::from_nanos(100))
            } else {
                Step::Done(now + simcore::SimDuration::from_nanos(100))
            }
        }

        fn collective(
            &mut self,
            _pc: usize,
            _op: &LogicalOp,
            _arrivals: &[SimTime],
            _ctx: &mut Ctx,
        ) -> Vec<SimTime> {
            unreachable!()
        }
    }

    #[test]
    fn yields_resume_until_done() {
        let prog = VecProgram {
            ops: vec![LogicalOp::Compute { nanos: 0 }],
        };
        let mut ctx = ctx(2);
        let mut d = YieldingDriver {
            steps: HashMap::new(),
        };
        let res = Exec::new(&prog, &mut d, &mut ctx).run();
        // 3 steps × 100ns each.
        assert_eq!(res.makespan, SimTime::from_secs_f64(300e-9));
        // The op's duration spans all micro-steps.
        let c = res.metrics.get(OpKind::Compute).unwrap();
        assert!((c.mean_duration_s() - 300e-9).abs() < 1e-15);
    }
}
