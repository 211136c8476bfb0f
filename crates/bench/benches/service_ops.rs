//! Criterion microbenches for the service layer's per-op overheads —
//! the costs every client of a shared `Service` pays on every
//! operation: an admission probe, a handle-table hit, and (for the
//! trace itself) generating one heavy-tailed client event.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plfs::service::admission::TokenBucket;
use plfs::service::{Admitted, Service, ServiceConfig};
use plfs::{Content, MemFs};
use std::hint::black_box;
use std::sync::Arc;
use workloads::traffic::TrafficSpec;

/// Uncontended token-bucket probe: the fixed admission tax on every
/// service op when the tenant is under its rate.
fn bench_admission_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("svc_admission_probe");
    g.throughput(Throughput::Elements(1));
    g.bench_function("granted", |b| {
        let mut bucket = TokenBucket::new(1 << 30, 1 << 20);
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000;
            black_box(bucket.try_take(black_box(now)))
        });
    });
    g.bench_function("denied", |b| {
        // Rate 1/sec, burst 1: exhausted after the first grant, so the
        // steady state measures the rejection path.
        let mut bucket = TokenBucket::new(1, 1);
        let _ = bucket.try_take(1);
        b.iter(|| black_box(bucket.try_take(black_box(2))));
    });
    g.finish();
}

/// One admitted append through the full service stack (admission +
/// shard lookup + session lock + PLFS write), single-threaded so the
/// number is pure per-op overhead, not contention.
fn bench_service_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("svc_append");
    for bytes in [256u64, 4096] {
        let mut cfg = ServiceConfig::basic("/panfs");
        cfg.token_rate = 1 << 30;
        cfg.token_burst = 1 << 20;
        let svc = Service::new(Arc::new(MemFs::new()), cfg).expect("mount");
        let h = match svc.open_write("t0", "/bench").expect("open") {
            Admitted::Granted(h) => h,
            Admitted::Throttled { .. } => unreachable!("fresh bucket"),
        };
        let body = Content::bytes(vec![0xB6; bytes as usize]);
        let mut offset = 0u64;
        g.throughput(Throughput::Bytes(bytes));
        g.bench_with_input(BenchmarkId::from_parameter(bytes), &body, |b, body| {
            b.iter(|| {
                let r = svc.append(black_box(h), offset, body).expect("append");
                offset += bytes;
                black_box(r)
            });
        });
    }
    g.finish();
}

/// Trace generation: producing the full sorted event stream for a
/// client population, amortized per event.
fn bench_traffic_generate(c: &mut Criterion) {
    let mut g = c.benchmark_group("svc_traffic_generate");
    for clients in [64u32, 1024] {
        let spec = TrafficSpec {
            clients,
            tenants: clients / 32,
            ops_per_client: 96,
            appends_per_file: 6,
            append_bytes: 4096,
            read_bytes: 4096,
            mean_gap_ns: 1_000,
            alpha: 1.5,
            seed: 7,
        };
        g.throughput(Throughput::Elements(
            u64::from(clients) * u64::from(spec.ops_per_client),
        ));
        g.bench_with_input(BenchmarkId::from_parameter(clients), &spec, |b, spec| {
            b.iter(|| black_box(workloads::traffic::generate(black_box(spec))));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_admission_probe,
    bench_service_append,
    bench_traffic_generate
);
criterion_main!(benches);
