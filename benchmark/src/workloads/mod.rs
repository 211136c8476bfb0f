//! The seven workloads. Each builds its inputs from the seed in
//! [`setup`], then runs rounds of fixed work; the program under test
//! only ever sees the generated inputs.

mod ckpt;
mod meta;
mod restart;
mod sim;
mod svc;

use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::timed::{CounterSnapshot, C};
use crate::trace::Agg;
use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "ckpt_n1_mem",
    "restart_agg_mem",
    "restart_flat_mem",
    "ckpt_restart_local",
    "meta_storm_mem",
    "svc_mixed",
    "sim_64k",
];

/// What one round of a workload's fixed work measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the whole round.
    pub wall_ns: u64,
    /// The workload's headline operations, and the wall time of the
    /// phase they ran in (`ops_per_s` is their quotient).
    pub ops: u64,
    pub ops_ns: u64,
    /// Operations issued plus output checks made, and how many of them
    /// errored or compared wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Paper-axis values of this round (`axis.*` names).
    pub axis: Vec<(&'static str, f64)>,
}

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// Run one round. `traced` rounds put the [`crate::timed`] wrappers
    /// in the stack and keep their counters; untraced rounds run the
    /// program bare. Latencies of the headline call go to `lat`.
    fn round(&mut self, traced: bool, lat: &mut Samples) -> Round;

    /// The discarded round that ends set-up: caches filled, lazy set-up
    /// done, allocator warm.
    fn warm_up(&mut self) -> Round {
        self.round(false, &mut Samples::new(0))
    }

    /// Output checks left for after the last round; `(attempted, failed)`.
    fn verify(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Turn what the traced rounds gathered into per-layer metrics.
    fn layers(&mut self, t: &Traced, m: &mut Metrics);
}

/// Build workload `name` from `seed`: inputs, set-up containers and one
/// warm-up round, returned for its output checks only.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, Round)> {
    let mut w: Box<dyn Workload> = match name {
        "ckpt_n1_mem" => Box::new(ckpt::Ckpt::n1_mem(seed)),
        "ckpt_restart_local" => Box::new(ckpt::Ckpt::restart_local(seed)),
        "restart_agg_mem" => Box::new(restart::Restart::agg(seed)),
        "restart_flat_mem" => Box::new(restart::Restart::flat(seed)),
        "meta_storm_mem" => Box::new(meta::MetaStorm::new(seed)),
        "svc_mixed" => Box::new(svc::SvcMixed::new(seed)),
        "sim_64k" => Box::new(sim::Sim::new(seed)),
        _ => return None,
    };
    let warm_up = w.warm_up();
    Some((w, warm_up))
}

/// The traced rounds of a run, as [`Workload::layers`] sees them.
pub struct Traced {
    /// Per span name: count, total and self time over all traced rounds.
    pub aggs: BTreeMap<&'static str, Agg>,
    pub rounds: u64,
    /// The program's own `plfs::telemetry` counters and I/O plane
    /// statistics over the traced rounds (read in this pass only).
    pub counters: BTreeMap<String, u64>,
    pub io: plfs::IoStats,
}

impl Traced {
    /// A `plfs::telemetry` counter, per round.
    pub fn counter_per_round(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64 / self.rounds.max(1) as f64
    }

    fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Mean self time of one `name` span, microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        a.self_ns as f64 / 1e3 / a.count.max(1) as f64
    }

    /// Mean duration of one `name` span, microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        a.total_ns as f64 / 1e3 / a.count.max(1) as f64
    }

    /// Self time of all `name` spans of one round, milliseconds.
    pub fn self_ms_per_round(&self, name: &str) -> f64 {
        self.agg(name).self_ns as f64 / 1e6 / self.rounds.max(1) as f64
    }

    /// `name` spans per round.
    pub fn per_round(&self, name: &str) -> f64 {
        self.agg(name).count as f64 / self.rounds.max(1) as f64
    }

    /// Share of the load-generating threads' time spent inside calls into
    /// the program: the self times of every span that is not the
    /// benchmark's own (`bench.thread`), over the `bench.thread` roots.
    /// The rest is the benchmark's loops and output checks. Spans always
    /// nest, so all self times — `bench.thread`'s included — add up to
    /// the roots exactly; this is the part of that sum the layers own.
    /// `skip` names spans that also run on threads without a root
    /// (device spans on reactor workers).
    pub fn coverage_pct(&self, skip: &str) -> f64 {
        let inside: u64 = self
            .aggs
            .iter()
            .filter(|(n, _)| !n.starts_with("bench.") && (skip.is_empty() || !n.starts_with(skip)))
            .map(|(_, a)| a.self_ns)
            .sum();
        100.0 * inside as f64 / self.agg("bench.thread").total_ns.max(1) as f64
    }

    /// The `backend.*` and whole-round `ioplane.*` metrics every
    /// real-middleware workload shares. `plane` and `device` are the
    /// counters of the two boundaries summed over the traced rounds (the
    /// same snapshot twice when no reactor separates them);
    /// `logical_written` is what the workload asked to write per round.
    pub fn backend_metrics(
        &self,
        plane: CounterSnapshot,
        device: CounterSnapshot,
        logical_written: u64,
        m: &mut Metrics,
    ) {
        let r = self.rounds.max(1) as f64;
        let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
        m.set("ioplane.batches", plane[C::Batches] as f64 / r);
        m.set("ioplane.ops", plane.ops() as f64 / r);
        m.set(
            "ioplane.coalesce",
            plane[C::BatchOps] as f64 / plane[C::Batches].max(1) as f64,
        );
        m.set("ioplane.bypass_ops", plane[C::SingleOps] as f64 / r);
        m.set("ioplane.retries", self.io.retries as f64 / r);
        m.set(
            "ioplane.async_blocked_ms",
            self.counter_per_round("async.blocked_ns") / 1e6,
        );
        m.set(
            "ioplane.submit_async_us",
            per(plane[C::SubmitAsyncNs], plane[C::AsyncBatches]),
        );
        m.set(
            "ioplane.queue_wait_us",
            per(device[C::QueueWaitNs], device[C::Queued]),
        );
        m.set("backend.busy_s", device[C::BusyNs] as f64 / 1e9 / r);
        m.set(
            "backend.share_pct",
            100.0 * device[C::BusyNs] as f64 / self.agg("bench.thread").total_ns.max(1) as f64,
        );
        m.set("backend.ops", device.ops() as f64 / r);
        m.set("backend.batches", device[C::Batches] as f64 / r);
        m.set("backend.bytes_written", device[C::AppendBytes] as f64 / r);
        m.set("backend.bytes_read", device[C::ReadBytes] as f64 / r);
        m.set(
            "backend.append_us",
            per(device[C::AppendNs], device[C::AppendOps]),
        );
        m.set(
            "backend.read_us",
            per(device[C::ReadNs], device[C::ReadOps]),
        );
        m.set(
            "backend.meta_us",
            per(device[C::MetaNs], device[C::MetaOps]),
        );
        m.set("backend.failed", device[C::Failed] as f64 / r);
        if logical_written > 0 {
            m.set(
                "backend.write_amp",
                device[C::AppendBytes] as f64 / r / logical_written as f64,
            );
        }
    }
}

/// Run `f` on this thread under a `bench.thread` root span, so that
/// every call into the program has a benchmark span above it.
pub fn under_root<T>(f: impl FnOnce() -> T) -> T {
    let root = crate::trace::enter("bench.thread");
    let v = f();
    root.exit();
    crate::trace::flush_thread();
    v
}

/// Run `f` on `threads` scoped threads (inline for one), each under its
/// own root span, and return their results in thread order.
pub fn on_threads<T: Send>(threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return vec![under_root(|| f(0))];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || under_root(|| f(t))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect()
    })
}

/// The N-1 strided pattern the checkpoint and restart workloads write:
/// block `k` of writer `w` lives at logical `(k * writers + w) * block`,
/// and carries a slice of that writer's seeded buffer.
pub struct Pattern {
    pub writers: u64,
    pub blocks: u64,
    pub block: u64,
    bufs: Vec<Vec<u8>>,
    /// `payloads[w][j]`: the `j`-th block-sized slice of writer `w`'s
    /// buffer — refcounted views, so a write copies no payload.
    pub payloads: Vec<Vec<plfs::Content>>,
}

/// Bytes of seeded buffer per writer; blocks cycle through it.
const PATTERN_BUF: u64 = 256 * 1024;

impl Pattern {
    pub fn new(seed: u64, writers: u64, blocks: u64, block: u64) -> Pattern {
        assert!(
            PATTERN_BUF.is_multiple_of(block),
            "block must divide the buffer"
        );
        let bufs: Vec<Vec<u8>> = (0..writers)
            .map(|w| {
                stats::seeded_bytes(
                    seed ^ (w + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                    PATTERN_BUF as usize,
                )
            })
            .collect();
        let payloads = bufs
            .iter()
            .map(|b| {
                let whole = plfs::Content::bytes(b.clone());
                (0..PATTERN_BUF / block)
                    .map(|j| whole.slice(j * block, block))
                    .collect()
            })
            .collect();
        Pattern {
            writers,
            blocks,
            block,
            bufs,
            payloads,
        }
    }

    /// Logical size of the file.
    pub fn file_bytes(&self) -> u64 {
        self.writers * self.blocks * self.block
    }

    /// Logical offset of block `k` of writer `w`.
    pub fn offset(&self, w: u64, k: u64) -> u64 {
        (k * self.writers + w) * self.block
    }

    /// Payload of block `k` of writer `w`.
    pub fn payload(&self, w: u64, k: u64) -> &plfs::Content {
        &self.payloads[w as usize][(k % (PATTERN_BUF / self.block)) as usize]
    }

    /// Whether `data`, read at logical `offset`, is what was written
    /// there. `offset` and the length are block-aligned.
    pub fn matches(&self, offset: u64, data: &[u8]) -> bool {
        if !offset.is_multiple_of(self.block) || !(data.len() as u64).is_multiple_of(self.block) {
            return false;
        }
        data.chunks_exact(self.block as usize)
            .zip(offset / self.block..)
            .all(|(got, b)| {
                let (w, k) = (b % self.writers, b / self.writers);
                let at = ((k * self.block) % PATTERN_BUF) as usize;
                got == &self.bufs[w as usize][at..at + self.block as usize]
            })
    }
}

/// Median of the per-round values of axis `name`, if any round had it.
pub fn axis_median(rounds: &[Round], name: &str) -> Option<f64> {
    let v: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.axis.iter().filter(|a| a.0 == name).map(|a| a.1))
        .collect();
    (!v.is_empty()).then(|| stats::median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_check_catches_one_bad_byte() {
        let p = Pattern::new(1, 4, 8, 4096);
        let mut file = vec![0u8; p.file_bytes() as usize];
        for w in 0..4 {
            for k in 0..8 {
                let at = p.offset(w, k) as usize;
                file[at..at + 4096].copy_from_slice(&p.payload(w, k).materialize());
            }
        }
        assert!(p.matches(0, &file));
        assert!(p.matches(8192, &file[8192..8192 + 4096 * 5]));
        file[70_000] ^= 1;
        assert!(!p.matches(0, &file), "one flipped byte must fail the check");
        assert!(
            !p.matches(1, &file[1..4097]),
            "unaligned reads are not checkable"
        );
    }
}
