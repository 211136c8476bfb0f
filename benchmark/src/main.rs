//! The repo's benchmark: one process runs one workload.
//!
//! ```text
//! plfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up [`SETUPS`] times and after each
//! set-up measures rounds of its fixed work for a third of `--seconds`,
//! with no wrapper in the stack and `plfs::telemetry` off; it checks the
//! outputs and prints the end-to-end metrics. `--trace 1` spends half of `--seconds` the same way (for the
//! paper-axis numbers and the untraced baseline) and the other half with
//! the [`timed`] wrappers and the span recorder on, prints the per-layer
//! metrics and writes `benchmark/out/trace-<workload>.json`.
//!
//! The last line of standard output is the result object `BENCHMARK.json`
//! describes; everything else goes to standard error.

mod metrics;
mod stats;
mod timed;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END, EXACT, PER_LAYER};
use stats::Samples;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Round, Traced, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Latency samples held for the percentiles (a reservoir beyond that).
const LAT_SAMPLES: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0xC0FFEE,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {v}: not {what}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

/// Run rounds until `budget` has passed, and at least `min` of them.
fn measure(
    w: &mut dyn Workload,
    traced: bool,
    budget: Duration,
    min: usize,
    lat: &mut Samples,
) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min || t0.elapsed() < budget {
        rounds.push(w.round(traced, lat));
    }
    let ms: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", r.wall_ns as f64 / 1e6))
        .collect();
    eprintln!("round walls (ms, traced={traced}): {}", ms.join(" "));
    rounds
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Sum `(attempted, failed)` over rounds and extra checks.
fn outcome(rounds: &[&Round], extra: (u64, u64)) -> (u64, u64) {
    rounds
        .iter()
        .fold(extra, |(a, f), r| (a + r.attempted, f + r.failed))
}

fn end_to_end(a: &Args) -> String {
    // Measuring is spread over the set-ups: each one lays its containers
    // and buffers out afresh, so no single memory layout decides a run.
    let budget = Duration::from_secs_f64(a.seconds / SETUPS as f64);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rounds = Vec::new();
    let mut lat = Samples::new(LAT_SAMPLES);
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (mut w, warm_up) =
            workloads::setup(&a.workload, a.seed).expect("workload name was checked");
        setups.push(t.elapsed().as_secs_f64());
        let measured = measure(&mut *w, false, budget, 1, &mut lat);
        let mut all: Vec<&Round> = measured.iter().collect();
        all.push(&warm_up);
        let (n, bad) = outcome(&all, w.verify());
        attempted += n;
        failed += bad;
        rounds.extend(measured);
        // `w` ends here: two set-ups alive at once would double the peak
        // RSS this run reports.
    }

    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups));
    m.set("round_ms", median_of(&rounds, |r| r.wall_ns as f64 / 1e6));
    m.set(
        "ops_per_s",
        median_of(&rounds, |r| r.ops as f64 / (r.ops_ns as f64 / 1e9)),
    );
    m.set("p50_us", lat.p50_p99_us().0);
    m.set("peak_rss_mb", stats::peak_rss_mb());
    eprintln!(
        "{}: {} rounds over {SETUPS} set-ups, {} latency samples, {} threads available",
        a.workload,
        rounds.len(),
        lat.seen(),
        stats::threads(usize::MAX)
    );
    m.render(END_TO_END, failed == 0, attempted, failed)
}

fn per_layer(a: &Args) -> String {
    let (mut w, warm_up) =
        workloads::setup(&a.workload, a.seed).expect("workload name was checked");
    let half = Duration::from_secs_f64(a.seconds / 2.0);
    let mut lat = Samples::new(LAT_SAMPLES);
    let plain = measure(&mut *w, false, half, 1, &mut lat);

    plfs::ioplane::reset_stats();
    plfs::telemetry::reset();
    plfs::telemetry::set_enabled(true);
    trace::set_enabled(true);
    let traced = measure(&mut *w, true, half, 1, &mut Samples::new(0));
    trace::set_enabled(false);
    plfs::telemetry::set_enabled(false);
    let (aggs, raw) = trace::take();
    let t = Traced {
        aggs,
        rounds: traced.len() as u64,
        counters: plfs::telemetry::snapshot().counters,
        io: plfs::ioplane::stats(),
    };
    plfs::telemetry::reset();

    let mut m = Metrics::default();
    for (name, _, _) in PER_LAYER.iter().filter(|d| d.0.starts_with("axis.")) {
        if let Some(v) = workloads::axis_median(&plain, name) {
            m.set(name, v);
        }
    }
    m.set("axis.p99_us", lat.p50_p99_us().1);
    let wall = |r: &[Round]| median_of(r, |r| r.wall_ns as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (wall(&traced) / wall(&plain) - 1.0),
    );
    w.layers(&t, &mut m);
    let verified = w.verify();

    let path = format!("benchmark/out/trace-{}.json", a.workload);
    let doc = trace::render_json(&a.workload, &t.aggs, &raw, EXACT);
    if let Err(e) =
        std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(&path, doc))
    {
        eprintln!("{path}: {e} (run from the root of the checkout)");
    }
    eprintln!(
        "{}: {} untraced + {} traced rounds, spans in {path}",
        a.workload,
        plain.len(),
        traced.len()
    );
    let mut all: Vec<&Round> = plain.iter().chain(&traced).collect();
    all.push(&warm_up);
    let (attempted, failed) = outcome(&all, verified);
    m.render(PER_LAYER, failed == 0, attempted, failed)
}

/// Pin glibc malloc's thresholds. Left alone they adapt to the sizes a
/// process has freed so far, and the benchmark showed it: a second into
/// every `ckpt_restart_local` process the restart's 1 MiB reads dropped
/// from 3.2 to 1.2 GB/s for good, and `ckpt_n1_mem` ran at either 0.52 or
/// 0.67 us per write depending on the run. With everything under 32 MiB
/// served from the heap and nothing handed back to the system, a round
/// finds memory the way the round before left it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's own tuning call; it only stores two
    // integers in the allocator's parameters, and runs here before any
    // other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plfs-benchmark: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args(&[
            "--workload",
            "sim_64k",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_64k", 7, 2.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sim_64k", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sim_64k", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sim_64k", "--frobnicate", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&[]).is_err());
    }
}
