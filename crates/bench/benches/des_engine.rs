//! Criterion microbenches for the discrete-event engine primitives — the
//! per-event cost that bounds how big a simulated job can get.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simcore::{EventArena, EventQueue, Fifo, SimDuration, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop_10k_live", |b| {
        // Steady state with 10k events in flight (≈ a 10k-rank job).
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime(i), i);
        }
        let mut t = 10_000u64;
        b.iter(|| {
            let (time, payload) = q.pop().expect("non-empty");
            t += 1;
            q.push(SimTime(time.as_nanos() + t), black_box(payload));
        });
    });
    g.finish();
}

fn bench_fifo(c: &mut Criterion) {
    let mut g = c.benchmark_group("fifo");
    g.throughput(Throughput::Elements(1));
    for servers in [1usize, 8, 96] {
        g.bench_function(format!("acquire_{servers}_servers"), |b| {
            let mut f = Fifo::new("bench", servers);
            let mut t = 0u64;
            b.iter(|| {
                t += 100;
                black_box(f.acquire(SimTime(t), SimDuration(1_000)));
            });
        });
    }
    g.finish();
}

/// Steady-state push/pop with N events in flight — the scheduler cost a
/// job of N ranks pays per event — for the seed `BinaryHeap` queue and
/// the calendar `EventArena` at 1k/16k/64k live events.
fn bench_arena_vs_heap(c: &mut Criterion) {
    for live in [1_024u64, 16_384, 65_536] {
        let mut g = c.benchmark_group(format!("queue_{}k_live", live / 1024));
        g.throughput(Throughput::Elements(1));
        g.bench_function("heap", |b| {
            let mut q = EventQueue::new();
            for i in 0..live {
                q.push(SimTime(i), i);
            }
            let mut t = live;
            b.iter(|| {
                let (time, payload) = q.pop().expect("non-empty");
                t += 1;
                q.push(SimTime(time.as_nanos() + t), black_box(payload));
            });
        });
        g.bench_function("arena", |b| {
            let mut q = EventArena::new();
            for i in 0..live {
                q.push(SimTime(i), 0, i as u32);
            }
            let mut t = live;
            b.iter(|| {
                let (time, _kind, arg) = q.pop().expect("non-empty");
                t += 1;
                q.push(SimTime(time.as_nanos() + t), 0, black_box(arg));
            });
        });
        g.finish();
    }
}

fn bench_full_sim_event_rate(c: &mut Criterion) {
    use mpio::ops::{FileTag, LogicalOp};
    use mpio::{Ctx, Exec, Layout, PlfsDriver, PlfsDriverConfig, ReadStrategy};
    use pfs::{PfsParams, SimPfs};
    use plfs::Federation;
    use simnet::{Interconnect, InterconnectParams};

    c.bench_function("simulated_checkpoint_256_ranks", |b| {
        b.iter(|| {
            let mut p = PfsParams::panfs_production(64);
            p.jitter_spread = 0.0;
            p.jitter_tail_prob = 0.0;
            let mut ctx = Ctx::new(
                SimPfs::new(p, 1),
                Interconnect::new(InterconnectParams::infiniband()),
                Layout::new(256, 16),
            );
            let fed = Federation::single("/panfs", 32);
            let mut d = PlfsDriver::new(PlfsDriverConfig::new(
                fed,
                ReadStrategy::ParallelIndexRead,
            ));
            let file = FileTag::shared("/ckpt");
            let prog = mpio::ops::FnProgram {
                count: 4,
                f: move |rank: usize, pc: usize| match pc {
                    0 => LogicalOp::OpenWrite { file: file.clone() },
                    1 => LogicalOp::Write {
                        file: file.clone(),
                        offset: rank as u64 * 65536,
                        len: 65536,
                        stride: 256 * 65536,
                        reps: 16,
                    },
                    2 => LogicalOp::CloseWrite { file: file.clone() },
                    _ => LogicalOp::Barrier,
                },
            };
            black_box(Exec::new(&prog, &mut d, &mut ctx).run().makespan)
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_arena_vs_heap,
    bench_fifo,
    bench_full_sim_event_rate
);
criterion_main!(benches);
