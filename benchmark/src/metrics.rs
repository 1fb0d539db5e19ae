//! The metric tables: every name the benchmark reports, with its unit,
//! its better direction and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen before a change is a
//! regression. `BENCHMARK.json` lists the same tables (a test keeps the
//! two in step).

use crate::json::Metric;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees; reported with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.20),
    e2e("query_p90_ms", "ms", "lower", 0.20),
    e2e("queries_per_s", "1/s", "higher", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

/// Single layers (layer = module name); reported by the traced pass. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("stats.prepare_ms", "ms", "lower"),
    layer("stats.nonempty_buckets", "count", "lower"),
    layer("stats.shuffle_bytes", "bytes", "lower"),
    layer("topbuckets.ms", "ms", "lower"),
    layer("topbuckets.candidates", "count", "lower"),
    layer("topbuckets.selected", "count", "lower"),
    layer("topbuckets.pruned_local", "count", "higher"),
    layer("topbuckets.solver_calls", "count", "lower"),
    layer("topbuckets.ns_per_candidate", "ns", "lower"),
    layer("topbuckets.selected_ratio", "ratio", "lower"),
    layer("solver.ns_per_call", "ns", "lower"),
    layer("solver.est_share", "ratio", "lower"),
    layer("distribute.ms", "ms", "lower"),
    layer("distribute.assignments_scored", "count", "lower"),
    layer("distribute.cap_fallbacks", "count", "lower"),
    layer("distribute.replication_factor", "ratio", "lower"),
    layer("distribute.result_imbalance", "ratio", "lower"),
    layer("distribute.shuffle_estimate_ratio", "ratio", "lower"),
    layer("joinphase.ms", "ms", "lower"),
    layer("joinphase.input_assembly_ms", "ms", "lower"),
    layer("mapreduce.map_busy_ms", "ms", "lower"),
    layer("mapreduce.reduce_busy_ms", "ms", "lower"),
    layer("mapreduce.reduce_max_ms", "ms", "lower"),
    layer("mapreduce.reduce_imbalance", "ratio", "lower"),
    layer("mapreduce.shuffle_gather_ms", "ms", "lower"),
    layer("mapreduce.parallel_efficiency", "ratio", "higher"),
    layer("mapreduce.shuffle_records", "count", "lower"),
    layer("mapreduce.shuffle_bytes", "bytes", "lower"),
    layer("mapreduce.spill_segments", "count", "lower"),
    layer("mapreduce.spill_bytes", "bytes", "lower"),
    layer("mapreduce.spill_write_amp", "ratio", "lower"),
    layer("mapreduce.shuffle_mb_per_s", "MB/s", "higher"),
    layer("mapreduce.accept_ms", "ms", "lower"),
    layer("mapreduce.gather_ms", "ms", "lower"),
    layer("index.build_ms", "ms", "lower"),
    layer("index.ns_per_item_scanned", "ns", "lower"),
    layer("localjoin.index_probes", "count", "lower"),
    layer("localjoin.items_scanned", "count", "lower"),
    layer("localjoin.candidates_visited", "count", "lower"),
    layer("localjoin.tuples_scored", "count", "lower"),
    layer("localjoin.scan_efficiency", "ratio", "higher"),
    layer("localjoin.combos_processed_ratio", "ratio", "lower"),
    layer("merge.ms", "ms", "lower"),
    layer("serving.hit_p50_ms", "ms", "lower"),
    layer("serving.miss_p50_ms", "ms", "lower"),
    layer("serving.plan_cache_hit_ratio", "ratio", "higher"),
    layer("serving.plan_cache_evictions", "ratio", "lower"),
    layer("serving.index_pool_len", "count", "lower"),
    layer("serving.solo_p50_ms", "ms", "lower"),
    layer("serving.concurrency_slowdown", "ratio", "lower"),
    layer("serving.p99_ms", "ms", "lower"),
    layer("engine.coverage", "ratio", "higher"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// The values of one pass, filled by name and emitted in table order.
#[derive(Debug)]
pub struct Report {
    table: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report over `table`.
    pub fn new(table: &'static [MetricDef]) -> Self {
        Report { table, values: vec![None; table.len()] }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not declare — a typo must not
    /// silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[slot] = Some(value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.table.iter().position(|m| m.name == name).and_then(|slot| self.values[slot])
    }

    /// Every declared metric in table order; one never set reads 0 (it
    /// does not apply to this workload).
    pub fn metrics(&self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(def, value)| Metric {
                name: def.name.to_string(),
                value: value.unwrap_or(0.0),
                unit: def.unit.to_string(),
            })
            .collect()
    }

    /// Prints every metric by name with its unit, one per line.
    pub fn print(&self, notes: &[(&str, String)]) {
        for m in self.metrics() {
            let note = notes.iter().find(|(name, _)| *name == m.name).map(|(_, n)| n.as_str());
            match note {
                Some(note) => println!("  {:<36} {:>16.4} {:<6} ({note})", m.name, m.value, m.unit),
                None => println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in &END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()), "per-layer metrics have no bound");
    }

    #[test]
    fn report_emits_every_declared_metric_in_order() {
        let mut r = Report::new(&END_TO_END);
        r.set("query_p50_ms", 1.5);
        let metrics = r.metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].name, "setup_s");
        assert_eq!((metrics[1].value, metrics[1].unit.as_str()), (1.5, "ms"));
        assert_eq!(metrics[2].value, 0.0, "unset reads 0");
        assert_eq!(r.get("query_p50_ms"), Some(1.5));
        assert_eq!(r.get("query_p90_ms"), None);
    }

    #[test]
    #[should_panic(expected = "is not declared")]
    fn undeclared_names_are_refused() {
        Report::new(&END_TO_END).set("query_p95_ms", 1.0);
    }

    /// `BENCHMARK.json` at the repo root lists exactly these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in &WORKLOADS {
            let entry =
                format!("{{\"name\": \"{}\", \"why\": {}}}", w.name, crate::json::string(w.why));
            assert!(text.contains(&entry), "workload entry {entry}");
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.unwrap()
            );
            assert!(text.contains(&entry), "end-to-end entry {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "per-layer entry {entry}");
        }
        let count = |needle: &str| text.matches(needle).count();
        assert_eq!(count("\"why\":"), WORKLOADS.len());
        assert_eq!(count("\"bound\":"), END_TO_END.len());
        assert_eq!(count("\"better\":"), END_TO_END.len() + PER_LAYER.len());
    }
}
