//! The driver abstraction: how logical ops become physical ops.
//!
//! A [`Driver`] is the simulation-side analogue of an ADIO driver: the
//! execution loop hands it one logical op at a time for one rank, and it
//! charges virtual time against the shared [`Ctx`] (simulated file
//! system plus interconnect). Collective ops block until every rank arrives, then
//! the driver computes per-rank release times.

use crate::layout::Layout;
use crate::ops::LogicalOp;
use pfs::SimPfs;
use plfs::IoOp;
use simcore::SimTime;
use simnet::Interconnect;

/// Shared simulation context: one per job run.
pub struct Ctx {
    pub pfs: SimPfs,
    pub net: Interconnect,
    pub layout: Layout,
}

impl Ctx {
    pub fn new(pfs: SimPfs, net: Interconnect, layout: Layout) -> Self {
        Ctx { pfs, net, layout }
    }

    /// Compute node hosting `rank`.
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        self.layout.node_of(rank)
    }
}

/// Outcome of stepping one rank's current op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The op completed at this time.
    Done(SimTime),
    /// The op is partially executed (driver holds micro-state); re-step
    /// the rank at this time.
    Yield(SimTime),
    /// The op is collective: the rank blocks until all ranks reach the
    /// same program counter, then [`Driver::collective`] runs.
    Collective,
}

/// Translates logical ops into simulated physical operations.
pub trait Driver {
    /// Execute (part of) `op` for `rank` at `now`.
    fn step(&mut self, rank: usize, pc: usize, op: &LogicalOp, now: SimTime, ctx: &mut Ctx) -> Step;

    /// All ranks have arrived at collective op `op` (program counter
    /// `pc`); `arrivals[r]` is rank r's arrival time. Returns each rank's
    /// release time.
    fn collective(
        &mut self,
        pc: usize,
        op: &LogicalOp,
        arrivals: &[SimTime],
        ctx: &mut Ctx,
    ) -> Vec<SimTime>;
}

/// Charge one `plfs::ioplane::IoOp` against the simulated file system.
///
/// This is the simulator's half of the shared op vocabulary: drivers (and
/// trace replay) describe physical work with the same [`IoOp`] values the
/// real middleware submits to its backends, so a `TracingBackend`
/// recording drives the simulator without translation. `ns` routes
/// metadata ops to the owning simulated MDS; `reps` charges an op as that
/// many back-to-back repetitions (aggregated transfer for `Append` /
/// `ReadAt`, which the simulator prices by total bytes).
pub fn exec_io(
    ctx: &mut Ctx,
    node: usize,
    ns: usize,
    reps: u64,
    op: &IoOp,
    now: SimTime,
) -> SimTime {
    match op {
        IoOp::Mkdir { path } | IoOp::MkdirAll { path } => ctx.pfs.mkdir(ns, path, now),
        IoOp::Create { path, .. } => ctx.pfs.create_file(ns, path, now),
        // A metadata probe costs what an open costs: one MDS round trip.
        IoOp::Kind { path } | IoOp::Size { path } => ctx.pfs.open_file(ns, node, path, now),
        IoOp::Readdir { path } => ctx.pfs.readdir(ns, node, path, now),
        IoOp::Unlink { path } | IoOp::RemoveAll { path } => ctx.pfs.unlink_file(ns, path, now),
        IoOp::Rename { from, to } => {
            let t = ctx.pfs.unlink_file(ns, from, now);
            ctx.pfs.create_file(ns, to, t)
        }
        IoOp::Append { path, content } => {
            ctx.pfs.append_batch(node, path, reps, content.len(), now).1
        }
        IoOp::ReadAt { path, offset, len } => {
            ctx.pfs.read_batch(node, path, *offset, len * reps, reps, now)
        }
    }
}

/// Default handling for the driver-agnostic collectives (barrier and
/// all-to-all exchange); drivers call this for ops they don't specialize.
pub(crate) fn generic_collective(
    op: &LogicalOp,
    arrivals: &[SimTime],
    ctx: &mut Ctx,
) -> Vec<SimTime> {
    let sync = arrivals.iter().copied().max().unwrap_or(SimTime::ZERO);
    let p = arrivals.len();
    let release = match op {
        LogicalOp::Barrier => sync + ctx.net.barrier(p),
        LogicalOp::Exchange { bytes_per_rank } => sync + ctx.net.alltoall(p, *bytes_per_rank),
        LogicalOp::FlushCaches => {
            ctx.pfs.clear_client_caches();
            sync + ctx.net.barrier(p)
        }
        #[expect(clippy::panic, reason = "dispatcher routes only collective ops here; a data op is a driver bug worth aborting the simulation on")]
        other => panic!("generic_collective cannot handle {other:?}"),
    };
    vec![release; p]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::PfsParams;
    use simnet::InterconnectParams;

    fn ctx(nprocs: usize) -> Ctx {
        Ctx::new(
            SimPfs::new(PfsParams::panfs_production(64), 1),
            Interconnect::new(InterconnectParams::infiniband()),
            Layout::new(nprocs, 16),
        )
    }

    #[test]
    fn barrier_releases_all_at_max_plus_cost() {
        let mut c = ctx(4);
        let arrivals = vec![
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(3.0),
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(0.5),
        ];
        let rel = generic_collective(&LogicalOp::Barrier, &arrivals, &mut c);
        assert_eq!(rel.len(), 4);
        assert!(rel.iter().all(|r| *r == rel[0]));
        assert!(rel[0] > SimTime::from_secs_f64(3.0));
        assert!(rel[0] < SimTime::from_secs_f64(3.001));
    }

    #[test]
    fn exchange_scales_with_bytes() {
        let mut c = ctx(8);
        let arrivals = vec![SimTime::ZERO; 8];
        let small = generic_collective(
            &LogicalOp::Exchange { bytes_per_rank: 1024 },
            &arrivals,
            &mut c,
        )[0];
        let large = generic_collective(
            &LogicalOp::Exchange {
                bytes_per_rank: 64 << 20,
            },
            &arrivals,
            &mut c,
        )[0];
        assert!(large > small);
    }

    #[test]
    #[should_panic(expected = "cannot handle")]
    fn generic_collective_rejects_non_collectives() {
        let mut c = ctx(2);
        generic_collective(
            &LogicalOp::Compute { nanos: 5 },
            &[SimTime::ZERO, SimTime::ZERO],
            &mut c,
        );
    }
}
