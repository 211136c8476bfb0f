//! Property tests for the telemetry plane (DESIGN.md §5f): histogram
//! bucketing must partition the latency axis, snapshot merge must be
//! associative (and commutative on the aggregate maps) so per-thread or
//! per-run shards combine in any grouping, randomly nested spans must
//! always reconstruct into a well-formed forest, and a disabled plane
//! must record nothing at all. Nothing here turns the switch on, so the
//! default recorder stays empty while the nesting test captures.

use plfs::telemetry::{
    self, HistogramSnapshot, SpanNode, SpanStat, TelemetrySnapshot, HIST_BUCKET_COUNT,
};
use proptest::prelude::*;

/// Names drawn from the real vocabulary (recording requires `&'static
/// str` names; these are the ones the middleware itself uses).
const NAMES: &[&str] = &[
    telemetry::SPAN_WRITE_OPEN,
    telemetry::SPAN_READ_OPEN,
    telemetry::SPAN_INDEX_AGGREGATE,
];

/// A histogram built the same way the registry builds one: every sample
/// dropped into its `bucket_index` slot.
fn arb_hist() -> impl Strategy<Value = HistogramSnapshot> {
    prop::collection::vec(0u64..u64::MAX, 0..8).prop_map(|samples| {
        let mut buckets = vec![0u64; HIST_BUCKET_COUNT];
        for ns in samples {
            buckets[telemetry::bucket_index(ns)] += 1;
        }
        HistogramSnapshot { buckets }
    })
}

fn arb_node() -> impl Strategy<Value = SpanNode> {
    (0usize..NAMES.len(), 0u64..1 << 40, 0u64..1 << 30).prop_map(|(n, start_ns, dur_ns)| SpanNode {
        name: NAMES[n].to_string(),
        start_ns,
        dur_ns,
        children: Vec::new(),
    })
}

fn arb_snapshot() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        prop::collection::vec((0usize..NAMES.len(), 0u64..1 << 40), 0..6),
        prop::collection::vec((0usize..NAMES.len(), arb_hist()), 0..4),
        prop::collection::vec(
            (0usize..NAMES.len(), 0u64..100, 0u64..1 << 40, 0u64..1 << 40),
            0..6,
        ),
        prop::collection::vec(arb_node(), 0..4),
        0u64..10,
    )
        .prop_map(|(counters, hists, stats, spans, dropped_spans)| {
            let mut snap = TelemetrySnapshot {
                spans,
                dropped_spans,
                ..Default::default()
            };
            for (n, v) in counters {
                *snap.counters.entry(NAMES[n].to_string()).or_insert(0) += v;
            }
            for (n, h) in hists {
                snap.histograms.insert(NAMES[n].to_string(), h);
            }
            for (n, count, total_ns, max_ns) in stats {
                snap.span_stats.insert(
                    NAMES[n].to_string(),
                    SpanStat {
                        count,
                        total_ns: total_ns.max(max_ns),
                        max_ns,
                    },
                );
            }
            snap
        })
}

/// Nodes in a forest, all depths.
fn forest_len(nodes: &[SpanNode]) -> usize {
    nodes.iter().map(|n| 1 + forest_len(&n.children)).sum()
}

/// Every child starts no earlier than its parent, recursively.
fn starts_nest(nodes: &[SpanNode]) -> bool {
    nodes.iter().all(|n| {
        n.children.iter().all(|c| c.start_ns >= n.start_ns) && starts_nest(&n.children)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `bucket_index` partitions `[0, u64::MAX]`: every sample lands in
    /// exactly the bucket whose `[floor(i), floor(i+1))` range holds it
    /// (the last bucket is open-ended), and the mapping is monotone.
    #[test]
    fn bucket_index_partitions_the_latency_axis(ns in 0u64..u64::MAX, other in 0u64..u64::MAX) {
        let i = telemetry::bucket_index(ns);
        prop_assert!(i < HIST_BUCKET_COUNT);
        prop_assert!(telemetry::bucket_floor_ns(i) <= ns || ns == 0);
        if i + 1 < HIST_BUCKET_COUNT {
            prop_assert!(ns < telemetry::bucket_floor_ns(i + 1));
        }
        let (lo, hi) = (ns.min(other), ns.max(other));
        prop_assert!(telemetry::bucket_index(lo) <= telemetry::bucket_index(hi));
    }

    /// `(a+b)+c == a+(b+c)` over everything a snapshot holds, including
    /// the span forest and the dropped-span count.
    #[test]
    fn merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The aggregate maps commute: `a+b` and `b+a` agree on counters,
    /// histograms, span stats, and dropped spans. (The span *forest*
    /// concatenates in merge order, so it is deliberately excluded.)
    #[test]
    fn merge_aggregates_commute(a in arb_snapshot(), b in arb_snapshot()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(&ab.counters, &ba.counters);
        prop_assert_eq!(&ab.span_stats, &ba.span_stats);
        prop_assert_eq!(ab.dropped_spans, ba.dropped_spans);
        // Histogram bucket vectors may differ in trailing-zero length
        // depending on merge order; compare per-bucket counts.
        prop_assert_eq!(
            ab.histograms.keys().collect::<Vec<_>>(),
            ba.histograms.keys().collect::<Vec<_>>()
        );
        for (k, h) in &ab.histograms {
            let o = &ba.histograms[k];
            for i in 0..HIST_BUCKET_COUNT.max(h.buckets.len()).max(o.buckets.len()) {
                prop_assert_eq!(
                    h.buckets.get(i).copied().unwrap_or(0),
                    o.buckets.get(i).copied().unwrap_or(0)
                );
            }
        }
    }

    /// Random open/close scripts — including scripts that leave guards
    /// open at the end (closed LIFO by drop) — always reconstruct into
    /// a forest with one node per span and child starts nested inside
    /// their parents.
    #[test]
    fn random_nesting_reconstructs_wellformed(script in prop::collection::vec(0usize..3, 0..48)) {
        let (created, snap) = telemetry::capture(|| {
            let mut open = Vec::new();
            let mut created = 0u64;
            for &step in &script {
                match step {
                    // Two opens per close on average keeps nesting deep.
                    0 | 1 => {
                        open.push(telemetry::span(NAMES[created as usize % NAMES.len()]));
                        created += 1;
                    }
                    _ => {
                        open.pop();
                    }
                }
            }
            // Close leftovers innermost-first.
            while open.pop().is_some() {}
            created
        });
        prop_assert_eq!(forest_len(&snap.spans) as u64, created);
        prop_assert_eq!(
            snap.span_stats.values().map(|s| s.count).sum::<u64>(),
            created
        );
        prop_assert!(starts_nest(&snap.spans));
    }

    /// With the plane disabled, arbitrary instrumentation is free of
    /// observable effect: the next snapshot is completely empty.
    #[test]
    fn disabled_plane_records_nothing(ops in prop::collection::vec((0usize..3, 0usize..NAMES.len(), 1u64..1 << 20), 0..32)) {
        for (kind, n, v) in ops {
            match kind {
                0 => drop(telemetry::span(NAMES[n])),
                1 => telemetry::count(NAMES[n], v),
                _ => telemetry::record_ns(NAMES[n], v),
            }
        }
        let snap = telemetry::snapshot();
        prop_assert_eq!(snap, TelemetrySnapshot::default());
    }
}
