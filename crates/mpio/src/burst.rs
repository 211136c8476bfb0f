//! Burst-buffer extension: absorb checkpoints in node-local storage and
//! drain to the parallel file system asynchronously.
//!
//! The paper's related work contrasts PLFS with SCR (node-local
//! checkpointing, N-N only) and DataStager (asynchronous staging, at the
//! cost of jitter during compute). This driver composes the ideas the way
//! the PLFS team later did with burst buffers: writes land in a per-node
//! buffer at local bandwidth, a background drain pushes each writer's log
//! through the wrapped driver (so N-1 files work, unlike SCR), and the
//! *application-visible* checkpoint time is the local absorb — while the
//! next checkpoint may stall if the previous drain hasn't finished
//! (the classic burst-buffer sizing trade).
//!
//! Reads and metadata pass straight through to the wrapped driver; a read
//! of data still draining waits for the drain.

use crate::driver::{Ctx, Driver, Step};
use crate::ops::LogicalOp;
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Max in-flight drains per node before a new absorb must wait for the
/// oldest completion.
const DRAIN_WINDOW: usize = 16;

/// Burst-buffer parameters.
#[derive(Debug, Clone, Copy)]
pub struct BurstParams {
    /// Node-local absorb bandwidth per node (bytes/s), e.g. local NVM.
    pub local_bw: f64,
    /// Capacity per node in bytes; a checkpoint larger than the free
    /// space must wait for draining.
    pub capacity: u64,
}

impl BurstParams {
    /// A 2012-plausible SSD staging area.
    pub fn node_ssd() -> Self {
        BurstParams {
            local_bw: 1.0e9,
            capacity: 32 << 30,
        }
    }
}

/// Wraps any driver with burst-buffer write absorption.
///
/// Draining is *completion-driven*: each node keeps a FIFO completion
/// queue of in-flight drains as `(completion time, bytes)` entries.
/// Buffer space comes back as individual drains complete, instead of the
/// all-or-nothing wait a single scalar "drain done" timestamp forces — a
/// checkpoint that needs only a little room blocks only on the oldest
/// completion(s), not on the entire backlog.
pub struct BurstDriver<D: Driver> {
    inner: D,
    params: BurstParams,
    /// Per node: in-flight drains as (completion time, bytes released on
    /// completion), FIFO in submission order.
    in_flight: Vec<VecDeque<(SimTime, u64)>>,
    /// Per node: completion time of the most recently submitted drain
    /// (drains serialize through the node's pipe to the PFS).
    last_done: Vec<SimTime>,
    buffered: Vec<u64>,
    /// Per node: when the local device is free (ranks on a node share it).
    local_free: Vec<SimTime>,
}

impl<D: Driver> BurstDriver<D> {
    pub fn new(inner: D, params: BurstParams, nodes: usize) -> Self {
        BurstDriver {
            inner,
            params,
            in_flight: vec![VecDeque::new(); nodes.max(1)],
            last_done: vec![SimTime::ZERO; nodes.max(1)],
            buffered: vec![0; nodes.max(1)],
            local_free: vec![SimTime::ZERO; nodes.max(1)],
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Latest drain completion across nodes (diagnostic: when the data is
    /// actually safe on the parallel file system).
    #[cfg(test)]
    pub(crate) fn last_drain_done(&self) -> SimTime {
        self.last_done
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Retire every drain that has completed by `at`, releasing its
    /// buffer space.
    fn retire(&mut self, node: usize, at: SimTime) {
        while let Some(&(done, b)) = self.in_flight[node].front() {
            if done > at {
                break;
            }
            self.in_flight[node].pop_front();
            self.buffered[node] = self.buffered[node].saturating_sub(b);
        }
    }
}

impl<D: Driver> Driver for BurstDriver<D> {
    fn step(&mut self, rank: usize, pc: usize, op: &LogicalOp, now: SimTime, ctx: &mut Ctx) -> Step {
        match op {
            LogicalOp::Write { len, reps, .. } => {
                let node = ctx.node_of(rank) % self.in_flight.len();
                let bytes = len * reps;

                // Completion-driven space reclaim: every drain that has
                // finished by the time the device is free releases its
                // bytes.
                let mut start = now.max(self.local_free[node]);
                self.retire(node, start);

                // Backpressure: while the buffer lacks room or the drain
                // window is full, block on the *oldest* completion only —
                // not on the whole backlog.
                while let Some(&(done, b)) = self.in_flight[node].front() {
                    if self.buffered[node] + bytes <= self.params.capacity
                        && self.in_flight[node].len() < DRAIN_WINDOW
                    {
                        break;
                    }
                    start = start.max(done);
                    self.in_flight[node].pop_front();
                    self.buffered[node] = self.buffered[node].saturating_sub(b);
                }

                // Absorb locally; ranks on one node share the device.
                let absorb = SimDuration::for_bytes(bytes, self.params.local_bw);
                let absorbed = start + absorb;
                self.local_free[node] = absorbed;
                self.buffered[node] += bytes;

                // Drain asynchronously through the wrapped driver: charge
                // the same logical write against the real stack, starting
                // no earlier than the absorb completion and the previous
                // drain (drains serialize through the node's pipe).
                let drain_start = absorbed.max(self.last_done[node]);
                match self.inner.step(rank, pc, op, drain_start, ctx) {
                    Step::Done(fin) => {
                        self.last_done[node] = fin;
                        self.in_flight[node].push_back((fin, bytes));
                        // The application sees only the absorb.
                        Step::Done(absorbed)
                    }
                    // Composite inner writes are not expected (PLFS writes
                    // are single-step); treat a yield as synchronous.
                    Step::Yield(at) => Step::Yield(at),
                    Step::Collective => Step::Collective,
                }
            }
            LogicalOp::CloseWrite { .. } => {
                // Per-rank close (index flush + metadir) is absorbed
                // locally and drained behind the data: drive the inner
                // composite close to completion on the drain timeline. A
                // collective close (Index Flatten) passes through — the
                // first inner step reports it without side effects.
                let node = ctx.node_of(rank) % self.in_flight.len();
                let mut t = now.max(self.last_done[node]);
                loop {
                    match self.inner.step(rank, pc, op, t, ctx) {
                        Step::Yield(at) => t = at,
                        Step::Done(fin) => {
                            self.last_done[node] = fin;
                            // Close drains the completion queue: once the
                            // composite close lands, everything buffered
                            // is on the parallel file system.
                            self.retire(node, fin);
                            // Application sees a local flush.
                            return Step::Done(now + SimDuration::from_micros_f64(200.0));
                        }
                        Step::Collective => return Step::Collective,
                    }
                }
            }
            LogicalOp::Read { .. } => {
                // Reads must observe drained data: wait for every
                // outstanding completion, not just the oldest.
                let node = ctx.node_of(rank) % self.in_flight.len();
                let start = now.max(self.last_done[node]);
                self.retire(node, start);
                self.inner.step(rank, pc, op, start, ctx)
            }
            _ => self.inner.step(rank, pc, op, now, ctx),
        }
    }

    fn collective(
        &mut self,
        pc: usize,
        op: &LogicalOp,
        arrivals: &[SimTime],
        ctx: &mut Ctx,
    ) -> Vec<SimTime> {
        self.inner.collective(pc, op, arrivals, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::layout::Layout;
    use crate::metrics::OpKind;
    use crate::ops::{FileTag, FnProgram};
    use crate::plfs_driver::{PlfsDriver, PlfsDriverConfig, ReadStrategy};
    use pfs::{PfsParams, SimPfs};
    use plfs::Federation;
    use simnet::{Interconnect, InterconnectParams};

    fn ctx(nprocs: usize) -> Ctx {
        let mut p = PfsParams::panfs_production(64);
        p.jitter_spread = 0.0;
        p.jitter_tail_prob = 0.0;
        Ctx::new(
            SimPfs::new(p, 1),
            Interconnect::new(InterconnectParams::infiniband()),
            Layout::new(nprocs, 16),
        )
    }

    fn checkpoint(_nprocs: usize) -> impl crate::ops::Program {
        let file = FileTag::shared("/bb");
        FnProgram {
            count: 4,
            f: move |rank, pc| match pc {
                0 => LogicalOp::OpenWrite { file: file.clone() },
                1 => LogicalOp::Write {
                    file: file.clone(),
                    offset: rank as u64 * (32 << 20),
                    len: 1 << 20,
                    stride: 1 << 20,
                    reps: 32,
                },
                2 => LogicalOp::CloseWrite { file: file.clone() },
                _ => LogicalOp::Barrier,
            },
        }
    }

    fn plfs_driver() -> PlfsDriver {
        PlfsDriver::new(PlfsDriverConfig::new(
            Federation::single("/panfs", 8),
            ReadStrategy::ParallelIndexRead,
        ))
    }

    #[test]
    fn burst_buffer_hides_storage_time_from_the_application() {
        let nprocs = 64;
        let mut c1 = ctx(nprocs);
        let mut plain = plfs_driver();
        let base = Exec::new(&checkpoint(nprocs), &mut plain, &mut c1).run();

        let mut c2 = ctx(nprocs);
        let mut burst = BurstDriver::new(plfs_driver(), BurstParams::node_ssd(), 4);
        let fast = Exec::new(&checkpoint(nprocs), &mut burst, &mut c2).run();

        let base_w = base.metrics.span_s(OpKind::Write);
        let fast_w = fast.metrics.span_s(OpKind::Write);
        assert!(
            fast_w < base_w * 0.8,
            "burst absorb {fast_w} should beat direct-to-pfs {base_w}"
        );
        // The data still reached the parallel file system (drain charged).
        assert_eq!(c2.pfs.bytes_written(), c1.pfs.bytes_written());
        // And the drain finishes after the application-visible writes.
        assert!(burst.last_drain_done().as_secs_f64() >= fast_w);
    }

    #[test]
    fn tiny_buffers_stall_on_capacity() {
        let nprocs = 16;
        let small = BurstParams {
            local_bw: 1.0e9,
            capacity: 8 << 20, // smaller than one rank's burst
        };
        let mut c = ctx(nprocs);
        let mut burst = BurstDriver::new(plfs_driver(), small, 1);
        let res = Exec::new(&checkpoint(nprocs), &mut burst, &mut c).run();

        let mut c2 = ctx(nprocs);
        let mut roomy = BurstDriver::new(plfs_driver(), BurstParams::node_ssd(), 1);
        let res2 = Exec::new(&checkpoint(nprocs), &mut roomy, &mut c2).run();
        assert!(
            res.metrics.span_s(OpKind::Write) > res2.metrics.span_s(OpKind::Write),
            "capacity stalls must slow the absorb"
        );
    }

    #[test]
    fn close_drains_the_completion_queue() {
        let nprocs = 16;
        let mut c = ctx(nprocs);
        let mut burst = BurstDriver::new(plfs_driver(), BurstParams::node_ssd(), 2);
        Exec::new(&checkpoint(nprocs), &mut burst, &mut c).run();
        // Once every rank's close has landed, no drain is outstanding and
        // all buffer space is back.
        for node in 0..burst.in_flight.len() {
            assert!(
                burst.in_flight[node].is_empty(),
                "completion queue must drain at close"
            );
            assert_eq!(burst.buffered[node], 0, "buffer space released");
        }
    }

    #[test]
    fn non_write_ops_pass_through() {
        let nprocs = 8;
        let mut c = ctx(nprocs);
        let mut burst = BurstDriver::new(plfs_driver(), BurstParams::node_ssd(), 1);
        let res = Exec::new(&checkpoint(nprocs), &mut burst, &mut c).run();
        // Open/close/barrier all executed by the wrapped driver.
        assert_eq!(res.metrics.get(OpKind::OpenWrite).unwrap().count, nprocs as u64);
        assert_eq!(res.metrics.get(OpKind::Barrier).unwrap().count, nprocs as u64);
    }
}
