//! The flat `"key": number` report `bench_smoke` and `bench_serving`
//! print, with its counter keys derived from the stats structs'
//! [`Counters`] schema instead of spelled by hand.
//!
//! A counter visited as `name` under prefix `p` is emitted as the
//! integral key `p_name` — and thereby gated exactly by `bench_check`,
//! which fails on any tracked key the baseline lacks. The `RULES` table
//! below is the whole list of deviations.

use tkij_core::{summed_counters, Counters};

/// How a visited counter deviates from `"{prefix}_{name}": <integer>`.
enum Rule {
    /// Not emitted.
    Skip,
    /// Emitted under another suffix.
    Rename(&'static str),
    /// An `f64` visited as bits: emitted as the ratio it is.
    Ratio,
}

/// Every deviation, by visited counter name (names are unique across
/// the stats structs), each with its reason.
const RULES: [(&str, Rule); 9] = [
    // TopBucketsStats `u128` magnitudes: a 64-bit half is not exactly
    // representable in JSON's f64; their gated derivative is the
    // pruning counters.
    ("total_results_hi", Rule::Skip),
    ("total_results_lo", Rule::Skip),
    ("selected_results_hi", Rule::Skip),
    ("selected_results_lo", Rule::Skip),
    // DistributionSummary: the baseline key predates the field name.
    ("estimated_shuffle_records", Rule::Rename("shuffle_records")),
    ("replication_factor", Rule::Ratio),
    ("result_imbalance", Rule::Ratio),
    // LocalJoinStats: score bits have no sum over reducers (the scores
    // surface as `ExecutionReport::reducer_kth_scores`).
    ("kth_score", Rule::Skip),
    // LocalJoinStats: an execution-shape record that follows the thread
    // knobs and folds by max; emitted by hand as `hot_intra_threads_used`.
    ("intra_threads_used", Rule::Skip),
];

/// One harness report: metric lines in emission order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, String)>,
}

impl Report {
    /// Emits a hand-written (non-schema) metric: a timing, a ratio, a
    /// microbench count.
    pub fn push(&mut self, key: &str, value: String) {
        self.metrics.push((key.to_string(), value));
    }

    /// Emits every counter `stats` visits as `{prefix}_{name}`.
    pub fn counters(&mut self, prefix: &str, stats: &dyn Counters) {
        stats.visit(&mut |name, value| self.counter(prefix, name, value));
    }

    /// Emits every counter of `items` summed over the slice (the
    /// per-reducer stats of one execution) as `{prefix}_{name}`.
    pub fn summed<C: Counters>(&mut self, prefix: &str, items: &[C]) {
        for (name, total) in summed_counters(items) {
            self.counter(prefix, name, total);
        }
    }

    fn counter(&mut self, prefix: &str, name: &str, value: u64) {
        let (suffix, value) = match RULES.iter().find(|(ruled, _)| *ruled == name) {
            Some((_, Rule::Skip)) => return,
            Some((_, Rule::Rename(suffix))) => (*suffix, value.to_string()),
            Some((_, Rule::Ratio)) => (name, format!("{:.6}", f64::from_bits(value))),
            None => (name, value.to_string()),
        };
        self.push(&format!("{prefix}_{suffix}"), value);
    }

    /// Prints the report as JSON on stdout; `workload` is the body of
    /// the `"workload"` echo object.
    pub fn print(&self, workload: &str) {
        println!("{{");
        println!("  \"schema\": 3,");
        println!("  \"workload\": {{ {workload} }},");
        println!("  \"metrics\": {{");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            println!("    \"{key}\": {value}{comma}");
        }
        println!("  }}");
        println!("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{is_tracked, parse_metrics};
    use std::collections::BTreeSet;
    use std::time::Duration;
    use tkij_core::{
        DistributionPolicy, DistributionSummary, LocalJoinBackend, LocalJoinStats, ServingStats,
        ShuffleStats, TopBucketsStats,
    };

    /// Baseline keys no stats struct declares: wall-clock ratios, the
    /// probe-level microbench, and the hot-bucket probe's own copies of
    /// the local-join counters.
    const NON_SCHEMA_KEYS: [&str; 13] = [
        "sweep_speedup",
        "join_speedup",
        "intra_join_speedup",
        "chunked_probe_speedup",
        "serving_qps",
        "rtree_probe_scanned",
        "sweep_probe_scanned",
        "probe_hits",
        "hot_probe_chunks",
        "hot_intra_threads_used",
        "hot_index_probes",
        "hot_items_scanned",
        "hot_tuples_scored",
    ];

    #[test]
    fn baseline_keys_equal_schema_keys() {
        // The walk both harnesses run, over empty stats: no workload.
        let mut walk = Report::default();
        for (backend, _) in LocalJoinBackend::all() {
            walk.summed(backend, &[LocalJoinStats::default()]);
        }
        walk.counters("topbuckets", &TopBucketsStats::default());
        walk.counters(
            "dtb",
            &DistributionSummary {
                policy: DistributionPolicy::Dtb,
                duration: Duration::ZERO,
                replication_factor: 0.0,
                estimated_shuffle_records: 0,
                result_imbalance: 0.0,
                assignments_scored: 0,
                cap_fallbacks: 0,
            },
        );
        walk.counters("shuffle", &ShuffleStats::default());
        walk.counters("serving", &ServingStats::default());
        let schema: BTreeSet<&str> = walk.metrics.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(schema.len(), walk.metrics.len(), "the walk emits no key twice");

        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_BASELINE.json"
        ))
        .expect("BENCH_BASELINE.json readable");
        let parsed = parse_metrics(&text);
        let baseline: BTreeSet<&str> =
            parsed.iter().map(|(key, _)| key.as_str()).filter(|key| is_tracked(key)).collect();

        let ungated: Vec<_> = schema.difference(&baseline).collect();
        assert!(ungated.is_empty(), "schema keys BENCH_BASELINE.json does not gate: {ungated:?}");
        let non_schema: BTreeSet<&str> = NON_SCHEMA_KEYS.into_iter().collect();
        let extra: BTreeSet<&str> = baseline.difference(&schema).copied().collect();
        assert_eq!(extra, non_schema, "baseline keys outside the schema");
    }
}
