//! Service-layer scale bench: replay a deterministic [`workloads`]
//! traffic trace against one shared [`Service`] instance and report
//! sustained throughput plus tail latency from the `svc.*` telemetry.
//!
//! The trace fixes *what* every client does (seeded, heavy-tailed
//! arrival order); the replay threads only decide interleaving, so two
//! runs differ in timing but never in the work performed. Throttled
//! probes are retried after backing off — admission is backpressure,
//! and the bench counts how often it engaged. Used by `plfsctl serve
//! --bench`.

use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::{telemetry, Content, MemFs, PlfsConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::traffic::{ClientOp, TrafficSpec};

/// Knobs for one service bench run.
#[derive(Debug, Clone)]
pub struct SvcBenchConfig {
    /// Simulated concurrent clients.
    pub clients: u32,
    /// Tenants the clients are spread across.
    pub tenants: u32,
    /// Ops each client issues.
    pub ops_per_client: u32,
    /// OS threads replaying the trace (clients are striped across
    /// threads, so every thread drives many interleaved clients).
    pub threads: usize,
    /// Trace seed.
    pub seed: u64,
    /// Bytes per append.
    pub append_bytes: u64,
    /// Per-tenant token rate override (tokens/sec).
    pub token_rate: u64,
    /// Per-tenant token burst override.
    pub token_burst: u64,
    /// Per-tenant dirty-byte budget override.
    pub dirty_budget: u64,
}

impl SvcBenchConfig {
    /// The full-scale shape: 1,024 clients over 32 tenants, rates high
    /// enough that throughput is lock- not policy-limited.
    pub fn scale(seed: u64) -> SvcBenchConfig {
        SvcBenchConfig {
            clients: 1024,
            tenants: 32,
            ops_per_client: 96,
            threads: 8,
            seed,
            append_bytes: 4096,
            token_rate: 1 << 22,
            token_burst: 1 << 16,
            dirty_budget: 2 * 1024 * 1024,
        }
    }
}

/// What one bench run measured.
#[derive(Debug, Clone)]
pub struct SvcBenchReport {
    /// Clients replayed.
    pub clients: u32,
    /// Admitted-and-completed service ops (`svc.ops`).
    pub ops: u64,
    /// Throttled probes retried by the replay (`svc.throttled`).
    pub throttled: u64,
    /// Sessions opened (`svc.opens`).
    pub opens: u64,
    /// Index flushes forced by a tenant's dirty budget
    /// (`svc.dirty_flushes`): 0 unless the open writers' unflushed bytes
    /// cross it.
    pub dirty_flushes: u64,
    /// Wall-clock nanoseconds for the replay.
    pub wall_ns: u64,
    /// Sustained admitted ops per second.
    pub ops_per_sec: u64,
    /// 99th-percentile service-op latency, nanoseconds (histogram
    /// bucket upper bound from `svc.op`).
    pub p99_ns: u64,
}

/// p99 from a power-of-two-bucket latency histogram: the upper bound
/// of the first bucket at which the cumulative count reaches 99%.
fn p99_from_buckets(buckets: &[u64]) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let need = total - total / 100;
    let mut seen = 0;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= need {
            return 1u64 << (i + 1).min(63);
        }
    }
    u64::MAX
}

/// Replay the trace for `cfg` against a fresh `Service` over [`MemFs`]
/// and measure it.
pub fn run_svc_bench(cfg: &SvcBenchConfig) -> SvcBenchReport {
    let spec = TrafficSpec {
        clients: cfg.clients,
        tenants: cfg.tenants,
        ops_per_client: cfg.ops_per_client,
        appends_per_file: 6,
        append_bytes: cfg.append_bytes,
        read_bytes: cfg.append_bytes,
        mean_gap_ns: 1_000,
        alpha: 1.5,
        seed: cfg.seed,
    };
    let events = workloads::traffic::generate(&spec);

    let mut svc_cfg = ServiceConfig::basic("/svc");
    svc_cfg.plfs = PlfsConfig::basic("/svc");
    svc_cfg.token_rate = cfg.token_rate;
    svc_cfg.token_burst = cfg.token_burst;
    svc_cfg.dirty_budget = cfg.dirty_budget;
    svc_cfg.expected_clients = cfg.clients as usize;
    #[expect(clippy::expect_used, reason = "bench driver — a failed in-memory mount is a broken harness, abort loudly")]
    let svc = Service::new(Arc::new(MemFs::new()), svc_cfg).expect("service mount over MemFs");

    // Stripe clients across threads; each thread replays its clients'
    // events in trace order, so per-client op order is preserved.
    let threads = cfg.threads.max(1);
    let mut per_thread: Vec<Vec<&workloads::TrafficEvent>> = vec![Vec::new(); threads];
    for e in &events {
        per_thread[e.client as usize % threads].push(e);
    }

    telemetry::reset();
    telemetry::set_enabled(true);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for slice in &per_thread {
            scope.spawn(|| replay(&svc, slice));
        }
    });
    let wall = start.elapsed();
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    telemetry::reset();

    let ctr = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let ops = ctr(telemetry::CTR_SVC_OPS);
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    let ops_per_sec = if wall_ns == 0 {
        0
    } else {
        ((u128::from(ops) * 1_000_000_000) / u128::from(wall_ns)) as u64
    };
    let p99_ns = snap
        .histograms
        .get(telemetry::HIST_SVC_OP)
        .map_or(0, |h| p99_from_buckets(&h.buckets));
    SvcBenchReport {
        clients: cfg.clients,
        ops,
        throttled: ctr(telemetry::CTR_SVC_THROTTLED),
        opens: ctr(telemetry::CTR_SVC_OPENS),
        dirty_flushes: ctr(telemetry::CTR_SVC_DIRTY_FLUSHES),
        wall_ns,
        ops_per_sec,
        p99_ns,
    }
}

/// Drive one thread's clients through the service, retrying throttled
/// probes after the bucket's advertised wait.
fn replay<B: plfs::Backend + Clone>(svc: &Service<B>, events: &[&workloads::TrafficEvent]) {
    let mut open: HashMap<u32, plfs::SvcHandle> = HashMap::new();
    for e in events {
        let tenant = format!("t{}", e.tenant);
        match e.op {
            ClientOp::OpenWrite { file } => {
                let path = format!("/c{}/f{file}", e.client);
                let h = admit_loop(|| svc.open_write(&tenant, &path));
                open.insert(e.client, h);
            }
            ClientOp::OpenRead { file } => {
                let path = format!("/c{}/f{file}", e.client);
                let h = admit_loop(|| svc.open_read(&tenant, &path));
                open.insert(e.client, h);
            }
            ClientOp::Append { offset, len } => {
                let h = open[&e.client];
                let body = Content::bytes(vec![0xA5; len as usize]);
                admit_loop(|| svc.append(h, offset, &body));
            }
            ClientOp::Read { offset, len } => {
                let h = open[&e.client];
                let bytes = admit_loop(|| svc.read(h, offset, len));
                assert_eq!(bytes.len() as u64, len, "short service read");
            }
            ClientOp::Close => {
                if let Some(h) = open.remove(&e.client) {
                    #[expect(clippy::expect_used, reason = "bench driver — close errors mean the run is invalid, abort loudly")]
                    svc.close(h).expect("service close");
                }
            }
        }
    }
    // A trace may end mid-lifecycle; close the stragglers.
    for (_, h) in open {
        #[expect(clippy::expect_used, reason = "bench driver — close errors mean the run is invalid, abort loudly")]
        svc.close(h).expect("service close at drain");
    }
}

/// Retry `op` until admitted, sleeping out any advertised wait (capped
/// so a mis-tuned bucket cannot hang the bench).
fn admit_loop<T>(mut op: impl FnMut() -> plfs::Result<Admitted<T>>) -> T {
    loop {
        #[expect(clippy::expect_used, reason = "bench driver — op errors mean the run is invalid, abort loudly")]
        match op().expect("service op") {
            Admitted::Granted(v) => return v,
            Admitted::Throttled { wait_ns } => {
                let ns = wait_ns.clamp(1_000, 5_000_000);
                std::thread::sleep(Duration::from_nanos(ns));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_completes_and_accounts() {
        let cfg = SvcBenchConfig {
            clients: 32,
            tenants: 4,
            ops_per_client: 24,
            threads: 4,
            seed: 9,
            append_bytes: 512,
            token_rate: 1 << 20,
            token_burst: 1 << 12,
            dirty_budget: 1 << 20,
        };
        let report = run_svc_bench(&cfg);
        assert_eq!(report.clients, 32);
        assert!(report.ops >= u64::from(cfg.clients * cfg.ops_per_client));
        assert!(report.opens > 0);
        assert!(report.ops_per_sec > 0);
        assert!(report.p99_ns > 0);
    }

    #[test]
    fn tight_buckets_engage_admission() {
        let cfg = SvcBenchConfig {
            clients: 16,
            tenants: 2,
            ops_per_client: 32,
            threads: 4,
            seed: 5,
            append_bytes: 256,
            token_rate: 50_000,
            token_burst: 4,
            dirty_budget: 1 << 20,
        };
        let report = run_svc_bench(&cfg);
        assert!(report.throttled > 0, "tight buckets must throttle");
        assert!(report.ops >= u64::from(cfg.clients * cfg.ops_per_client));
    }

    #[test]
    fn p99_picks_the_right_bucket() {
        let mut buckets = vec![0u64; 32];
        buckets[3] = 99;
        buckets[10] = 1;
        assert_eq!(p99_from_buckets(&buckets), 1 << 4);
        buckets[10] = 2;
        assert_eq!(p99_from_buckets(&buckets), 1 << 11);
        assert_eq!(p99_from_buckets(&[0; 32]), 0);
    }
}
