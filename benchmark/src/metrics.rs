//! Every metric the benchmark prints, by name. `BENCHMARK.json` at the
//! root of the repo lists the same names, units and directions; a test
//! below holds the two equal.

use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// What a user of the system sees; printed by `--trace 0`, every one by
/// every workload. What "op" and "round" mean per workload is in the
/// README's workload table.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("round_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Numbers of single layers and of single paper axes; printed by
/// `--trace 1`. A workload prints 0 for a metric its layers never touch.
pub const PER_LAYER: &[Def] = &[
    // The tail of the latency whose median is the end-to-end `p50_us`.
    // Not bounded: where a call waits for another thread (a reactor
    // worker, an aggregation thread) the 99th percentile measured this
    // box's scheduler, and moved by half from run to run.
    ("axis.p99_us", "us", "lower"),
    // The paper's axes, each from the untraced half of the traced run.
    ("axis.write_mb_s", "MB/s", "higher"),
    ("axis.close_ms", "ms", "lower"),
    ("axis.flatten_close_ms", "ms", "lower"),
    ("axis.read_open_ms", "ms", "lower"),
    ("axis.read_mb_s", "MB/s", "higher"),
    ("axis.create_per_s", "1/s", "higher"),
    ("axis.meta_ops_per_s", "1/s", "higher"),
    ("axis.svc_ops_per_s", "1/s", "higher"),
    ("axis.svc_p50_us", "us", "lower"),
    ("axis.svc_p99_us", "us", "lower"),
    ("axis.sim_events_per_s", "1/s", "higher"),
    // writer
    ("writer.write_self_us", "us", "lower"),
    ("writer.calls", "count", "lower"),
    ("writer.close_self_ms", "ms", "lower"),
    ("writer.flatten_self_ms", "ms", "lower"),
    ("writer.threads2_speedup", "ratio", "higher"),
    // reader
    ("reader.open_self_ms", "ms", "lower"),
    ("reader.read_self_us", "us", "lower"),
    // container / index
    ("container.index_read_ms", "ms", "lower"),
    ("container.create_us", "us", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.merge_ms", "ms", "lower"),
    ("index.merge_streamed_ms", "ms", "lower"),
    ("index.entries", "count", "lower"),
    ("index.lookup_ns", "ns", "lower"),
    ("index.ondisk_lookup_us", "us", "lower"),
    ("index.spancache_hit_ratio", "ratio", "higher"),
    ("index.spancache_evictions", "count", "lower"),
    // I/O plane: what the middleware hands down, per round
    ("ioplane.batches", "count", "lower"),
    ("ioplane.ops", "count", "lower"),
    ("ioplane.coalesce", "ratio", "higher"),
    ("ioplane.retries", "count", "lower"),
    ("ioplane.bypass_ops", "count", "lower"),
    ("ioplane.close_trips", "count", "lower"),
    ("ioplane.close_ops", "count", "lower"),
    ("ioplane.open_trips", "count", "lower"),
    ("ioplane.read_ops_per_call", "ratio", "lower"),
    ("ioplane.submit_async_us", "us", "lower"),
    ("ioplane.queue_wait_us", "us", "lower"),
    ("ioplane.async_blocked_ms", "ms", "lower"),
    // backend: directly over MemFs / LocalFs, per round
    ("backend.busy_s", "s", "lower"),
    ("backend.share_pct", "%", "lower"),
    ("backend.ops", "count", "lower"),
    ("backend.batches", "count", "lower"),
    ("backend.bytes_written", "count", "lower"),
    ("backend.bytes_read", "count", "lower"),
    ("backend.append_us", "us", "lower"),
    ("backend.read_us", "us", "lower"),
    ("backend.meta_us", "us", "lower"),
    ("backend.failed", "count", "lower"),
    ("backend.write_amp", "ratio", "lower"),
    // vfs / federation
    ("vfs.create_us", "us", "lower"),
    ("vfs.stat_us", "us", "lower"),
    ("vfs.readdir_ms", "ms", "lower"),
    ("vfs.rename_us", "us", "lower"),
    ("vfs.unlink_us", "us", "lower"),
    ("vfs.backend_ops_per_create", "ratio", "lower"),
    ("federation.route_ns", "ns", "lower"),
    // service
    ("service.open_write_self_us", "us", "lower"),
    ("service.open_read_self_us", "us", "lower"),
    ("service.append_self_us", "us", "lower"),
    ("service.read_self_us", "us", "lower"),
    ("service.close_self_us", "us", "lower"),
    ("service.admission_ns", "ns", "lower"),
    ("service.throttled", "count", "lower"),
    ("service.dirty_flushes", "count", "lower"),
    ("service.opens", "count", "lower"),
    ("service.gen_lag_p99_us", "us", "lower"),
    ("service.threads2_speedup", "ratio", "higher"),
    // simulator
    ("workloads.compile_s", "s", "lower"),
    ("mpio.driver_busy_s", "s", "lower"),
    ("mpio.driver_calls", "count", "lower"),
    ("mpio.exec_self_s", "s", "lower"),
    ("pfs.op_ns", "ns", "lower"),
    ("simcore.event_ns", "ns", "lower"),
    ("sim.n1_events_per_s", "1/s", "higher"),
    ("sim.nn_events_per_s", "1/s", "higher"),
    ("simcore.events", "count", "lower"),
    ("simcore.peak_live", "count", "lower"),
    ("sim.n1_makespan_s", "s", "lower"),
    ("sim.nn_makespan_s", "s", "lower"),
    ("pfs.lock_transfers", "count", "lower"),
    ("pfs.bytes_written", "count", "lower"),
    ("pfs.bytes_read", "count", "lower"),
    // the measurement itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("telemetry.enabled_overhead_pct", "%", "lower"),
];

/// Simulated statistics: a function of the seed alone. An engine-only
/// change leaves them identical; a model change moves them and says so.
pub const EXACT: &[&str] = &[
    "simcore.events",
    "simcore.peak_live",
    "sim.n1_makespan_s",
    "sim.nn_makespan_s",
    "pfs.lock_transfers",
    "pfs.bytes_written",
    "pfs.bytes_read",
];

/// Metric values collected during a run, checked against a table when
/// rendered.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.0 == name),
            "metric `{name}` is not in the tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The contract's result line. Every metric of `table` appears; one
    /// the workload never set reads 0 (only per-layer metrics may be).
    pub fn render(&self, table: &[Def], correct: bool, attempted: u64, failed: u64) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit, _)) in table.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            assert!(v.is_finite(), "metric `{name}` is not finite");
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"key": "value"` string fields out of one JSON object body.
    fn field<'a>(obj: &'a str, key: &str) -> &'a str {
        let k = format!("\"{key}\":");
        let rest = &obj[obj.find(&k).unwrap_or_else(|| panic!("no {key} in {obj}")) + k.len()..];
        let rest = &rest[rest.find('"').unwrap() + 1..];
        &rest[..rest.find('"').unwrap()]
    }

    fn section(doc: &str, key: &str) -> Vec<(String, String, String)> {
        let k = format!("\"{key}\":");
        let body = &doc[doc.find(&k).unwrap() + k.len()..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|o| {
                (
                    field(o, "name").to_string(),
                    field(o, "unit").to_string(),
                    field(o, "better").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let want = |t: &[Def]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect()
        };
        assert_eq!(section(&doc, "end_to_end"), want(END_TO_END));
        assert_eq!(section(&doc, "per_layer"), want(PER_LAYER));
        let names: Vec<String> = section_names(&doc);
        assert_eq!(names, crate::workloads::NAMES);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for e in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.0 == *e), "{e}");
        }
    }

    fn section_names(doc: &str) -> Vec<String> {
        let body = &doc[doc.find("\"workloads\":").unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|o| field(o, "name").to_string())
            .collect()
    }

    #[test]
    fn render_is_the_contract_line() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = m.render(&END_TO_END[..1], true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
