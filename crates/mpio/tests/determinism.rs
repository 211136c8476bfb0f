//! Differential determinism for the rebuilt engine (DESIGN.md §5g): a
//! full simulated job — drivers, resources, caches, jittered RNG — must
//! produce identical results whether the event loop runs on the seed
//! binary-heap oracle or the calendar-queue arena. Any divergence in
//! event order would reorder resource admissions and RNG draws and show
//! up as a different makespan, event count, or metric.

use mpio::ops::{FileTag, FnProgram, LogicalOp};
use mpio::exec::RunResult;
use mpio::{Ctx, DirectDriver, Exec, Layout, PlfsDriver, PlfsDriverConfig, ReadStrategy};
use pfs::{PfsParams, SimPfs};
use plfs::Federation;
use proptest::prelude::*;
use simcore::EventQueue;
use simnet::{Interconnect, InterconnectParams};

/// One generated job shape: every rank opens, writes a (possibly
/// strided) pattern, closes, synchronizes, then optionally reads the
/// data back.
#[derive(Debug, Clone)]
struct Shape {
    nprocs: usize,
    ppn: usize,
    shared: bool,
    len: u64,
    /// Stride as a multiple of `len` (1 = segmented, >1 = holes).
    stride_factor: u64,
    reps: u64,
    read_back: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (2usize..96, 1usize..8),
        prop::sample::select(vec![false, true]),
        prop::sample::select(vec![4096u64, 65_536, 1 << 20]),
        1u64..4,
        1u64..6,
        prop::sample::select(vec![false, true]),
    )
        .prop_map(
            |((nprocs, ppn), shared, len, stride_factor, reps, read_back)| Shape {
                nprocs,
                ppn,
                shared,
                len,
                stride_factor,
                reps,
                read_back,
            },
        )
}

fn program_for(shape: &Shape) -> FnProgram<impl Fn(usize, usize) -> LogicalOp + Sync> {
    let s = shape.clone();
    let count = if s.read_back { 9 } else { 4 };
    FnProgram {
        count,
        f: move |rank: usize, pc: usize| {
            let file = if s.shared {
                FileTag::shared("/job/ckpt")
            } else {
                FileTag::per_rank("/job/ckpt", 0)
            };
            let stride = s.len * s.stride_factor;
            let offset = if s.shared {
                rank as u64 * s.len
            } else {
                0
            };
            let write_stride = if s.shared {
                stride * s.nprocs as u64
            } else {
                stride
            };
            match pc {
                0 => LogicalOp::OpenWrite { file },
                1 => LogicalOp::Write {
                    file,
                    offset,
                    len: s.len,
                    stride: write_stride,
                    reps: s.reps,
                },
                2 => LogicalOp::CloseWrite { file },
                3 => LogicalOp::Barrier,
                4 => LogicalOp::FlushCaches,
                5 => LogicalOp::OpenRead { file },
                6 => LogicalOp::Read {
                    file,
                    offset,
                    len: s.len,
                    stride: write_stride,
                    reps: s.reps,
                    src: None,
                },
                7 => LogicalOp::CloseRead { file },
                _ => LogicalOp::Barrier,
            }
        },
    }
}

/// What drives the event loop: the reference heap, or `Exec::run`'s
/// arena.
#[derive(Clone, Copy)]
enum Queue {
    Heap,
    Arena,
}

/// Run the shape's job on one queue; return a full fingerprint.
fn fingerprint(shape: &Shape, queue: Queue, plfs: bool) -> String {
    let mut ctx = Ctx::new(
        SimPfs::new(PfsParams::panfs_production(64), 7),
        Interconnect::new(InterconnectParams::infiniband()),
        Layout::new(shape.nprocs, shape.ppn),
    );
    let program = program_for(shape);
    fn run<D: mpio::Driver>(exec: Exec<'_, impl mpio::ops::Program, D>, on: Queue) -> RunResult {
        match on {
            Queue::Heap => exec.run_on(EventQueue::new()),
            Queue::Arena => exec.run(),
        }
    }
    let result = if plfs {
        let mut d = PlfsDriver::new(PlfsDriverConfig::new(
            Federation::single("/panfs", 4),
            ReadStrategy::ParallelIndexRead,
        ));
        run(Exec::new(&program, &mut d, &mut ctx), queue)
    } else {
        let mut d = DirectDriver::new();
        run(Exec::new(&program, &mut d, &mut ctx), queue)
    };
    use mpio::OpKind;
    // Metrics holds a HashMap, so fingerprint the kinds in a fixed order.
    let kinds = [
        OpKind::OpenWrite,
        OpKind::Write,
        OpKind::CloseWrite,
        OpKind::OpenRead,
        OpKind::Read,
        OpKind::CloseRead,
        OpKind::Barrier,
        OpKind::Compute,
        OpKind::Exchange,
        OpKind::FlushCaches,
        OpKind::Unlink,
    ];
    let mut out = format!(
        "makespan={:?} events={} peak={}",
        result.makespan, result.events, result.peak_live_events
    );
    for kind in kinds {
        out.push_str(&format!(" {kind:?}={:?}", result.metrics.get(kind)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PLFS jobs: heap and arena runs are observationally identical.
    #[test]
    fn plfs_runs_identical_under_both_schedulers(shape in shape_strategy()) {
        prop_assert_eq!(
            fingerprint(&shape, Queue::Heap, true),
            fingerprint(&shape, Queue::Arena, true)
        );
    }

    /// Direct-to-PFS jobs: same property on the other driver, which
    /// exercises the strided per-op path and its event grouping.
    #[test]
    fn direct_runs_identical_under_both_schedulers(shape in shape_strategy()) {
        prop_assert_eq!(
            fingerprint(&shape, Queue::Heap, false),
            fingerprint(&shape, Queue::Arena, false)
        );
    }
}
