//! The counter schema itself: every stats struct declares its
//! deterministic counters once, in its `Counters::visit`;
//! `ExecutionReport::fingerprint()` and the key set of
//! `tests/pinned_counters.rs` both walk that declaration. These tests pin
//! the declaration's own invariants.

use std::collections::BTreeSet;
use std::time::Duration;
use tkij::core::{summed_counters, DistributionSummary, LocalJoinStats, TopBucketsStats};
use tkij::mapreduce::{JobMetrics, ShuffleStats};
use tkij::prelude::*;

fn visited(stats: &dyn Counters) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    stats.visit(&mut |name, value| out.push((name, value)));
    out
}

/// `stats` has distinct non-zero fields: `expected` unique names and
/// `expected` unique non-zero values mean no field is visited twice,
/// dropped, or reported under another's name twice over.
fn assert_visits_each_field_once(what: &str, stats: &dyn Counters, expected: usize) {
    let got = visited(stats);
    assert_eq!(got.len(), expected, "{what}: {got:?}");
    let names: BTreeSet<_> = got.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), expected, "{what}: a name is visited twice: {got:?}");
    let values: BTreeSet<_> = got.iter().map(|(_, value)| *value).collect();
    assert_eq!(values.len(), expected, "{what}: a field is visited twice: {got:?}");
    assert!(!values.contains(&0), "{what}: a visited value is not a field: {got:?}");
}

#[test]
fn every_impl_visits_each_counter_once_under_a_unique_name() {
    let shuffle =
        ShuffleStats { records_spilled: 1, spill_segments: 2, spill_bytes: 3, checksum: 4 };
    assert_visits_each_field_once("ShuffleStats", &shuffle, 4);
    assert_visits_each_field_once(
        "JobMetrics",
        &JobMetrics {
            map_durations: vec![Duration::from_millis(5)],
            reduce_durations: vec![Duration::from_millis(6)],
            shuffle_records: vec![10, 20],
            shuffle_bytes: vec![100, 200],
            shuffle,
            wall: Duration::from_millis(7),
        },
        6,
    );
    assert_visits_each_field_once(
        "TopBucketsStats",
        &TopBucketsStats {
            candidates: 1,
            selected: 2,
            solver_calls: 3,
            pruned_local: 4,
            pruned_merge: 5,
            total_results: (7 << 64) | 8,
            selected_results: (9 << 64) | 10,
            duration: Duration::from_millis(11),
        },
        9,
    );
    assert_visits_each_field_once(
        "DistributionSummary",
        &DistributionSummary {
            policy: DistributionPolicy::Dtb,
            duration: Duration::from_millis(1),
            replication_factor: 1.5,
            estimated_shuffle_records: 2,
            result_imbalance: 2.5,
            assignments_scored: 3,
            cap_fallbacks: 4,
        },
        5,
    );
    assert_visits_each_field_once(
        "LocalJoinStats",
        &LocalJoinStats {
            combos_assigned: 1,
            combos_processed: 2,
            tuples_scored: 3,
            candidates_visited: 4,
            index_probes: 5,
            items_scanned: 6,
            buckets_sweep: 7,
            buckets_opened: 8,
            records_opened: 9,
            kth_score: 0.5,
        },
        10,
    );
    assert_visits_each_field_once(
        "ServingStats",
        &ServingStats {
            queries: 1,
            plan_cache_hits: 2,
            plan_cache_misses: 3,
            plan_cache_evictions: 4,
        },
        4,
    );
}

fn sample_report() -> ExecutionReport {
    let engine = Tkij::new(TkijConfig::default().with_granules(4).with_reducers(3));
    let dataset = engine.prepare(uniform_collections(3, 120, 99)).unwrap();
    engine.execute(&dataset, &table1::q_om(PredicateParams::P1), 20).unwrap()
}

#[test]
fn report_accessors_fold_the_same_named_local_join_counter() {
    let report = sample_report();
    let sums = summed_counters(&report.local_stats);
    for (name, accessor) in [
        ("tuples_scored", report.tuples_scored()),
        ("index_probes", report.index_probes()),
        ("items_scanned", report.items_scanned()),
        ("buckets_sweep", report.buckets_sweep()),
        ("buckets_opened", report.buckets_opened()),
        ("records_opened", report.records_opened()),
    ] {
        let (_, sum) = sums.iter().find(|(n, _)| *n == name).expect("a visited counter");
        assert_eq!(accessor, *sum, "ExecutionReport::{name}()");
    }
}

#[test]
fn fingerprint_mismatch_names_the_drifting_counter() {
    let reference = sample_report().fingerprint();
    for key in ["topbuckets.candidates", "distribution.assignments_scored", "join.shuffle.checksum"]
    {
        assert!(reference.counters.iter().any(|(name, _)| name == key), "no `{key}` lane");
    }
    let mut drifted = reference.clone();
    let lane = drifted.counters.iter_mut().find(|(name, _)| name == "merge.shuffle_records");
    let lane = lane.expect("a merge lane");
    let was = lane.1;
    lane.1 += 1;
    let panic = std::panic::catch_unwind(|| assert_eq!(drifted, reference)).unwrap_err();
    let text = panic.downcast_ref::<String>().expect("assert_eq! panics with a String");
    assert!(text.contains(&format!("(\"merge.shuffle_records\", {was})")), "{text}");
    assert!(text.contains(&format!("(\"merge.shuffle_records\", {})", was + 1)), "{text}");
}
