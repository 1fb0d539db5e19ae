//! Pinned work counters: the deterministic work of fixed dense workloads
//! (the paper's §4 lens: combinations pruned, records shuffled, items
//! scanned), checked bit-for-bit against one table, [`PINNED`].
//!
//! Every visited key must be pinned and every pin visited, with its exact
//! `u64` (`f64`s as bits, `u128`s as halves). Keys are `<label>.<counter>`:
//! the fingerprint counters, `local.*` (`LocalJoinStats` summed over
//! reducers), `shuffle.*` (the merged spill accounting) and `probe.*`.
//! Runs that share a counter by contract share its label and must agree:
//! planning ignores transport and threads (`dense`, `hot`). Every run
//! spells out the config a pin depends on; nothing in the environment can
//! move one. To re-pin, paste the lines a failure prints,
//! `("key", value),`, with a one-line reason per key.

use std::collections::BTreeMap;
use tkij::core::summed_counters;
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::index::{threshold_candidates, SweepIndex};
use tkij::prelude::*;
use tkij::temporal::expr::Side;

/// Every counter the runs so far visited, by key.
#[derive(Default)]
struct Visited(BTreeMap<String, u64>);

impl Visited {
    fn put(&mut self, key: String, value: u64) {
        if let Some(was) = self.0.insert(key.clone(), value) {
            assert_eq!(was, value, "runs sharing `{key}` disagree");
        }
    }

    /// Runs `q_om` (P1, k = 100), visiting its planning counters under
    /// `plan` and the rest under `label`; returns the top-k score bits.
    fn run(&mut self, plan: &str, label: &str, data: &PreparedDataset, engine: Tkij) -> Vec<u64> {
        let report = engine.execute(data, &table1::q_om(PredicateParams::P1), 100).unwrap();
        for (key, value) in report.fingerprint().counters {
            let planning = key.starts_with("topbuckets.") || key.starts_with("distribution.");
            self.put(format!("{}.{key}", if planning { plan } else { label }), value);
        }
        for (name, total) in summed_counters(&report.local_stats) {
            self.put(format!("{label}.local.{name}"), total);
        }
        let shuffle = report.shuffle_stats();
        shuffle.visit(&mut |name, value| self.put(format!("{label}.shuffle.{name}"), value));
        report.results.iter().map(|t| t.score.to_bits()).collect()
    }

    /// The probe microbench: one `meets` window (v = 0.8) per tenth item.
    fn probe(&mut self, label: &str, index: &SweepIndex, items: &[Interval]) {
        let pred = TemporalPredicate::meets(PredicateParams::P1);
        let (mut scanned, mut hits) = (0, 0);
        for anchor in items.iter().step_by(10) {
            scanned += threshold_candidates(index, &pred, anchor, Side::Left, 0.8, |_| hits += 1);
        }
        self.put(format!("probe.{label}.scanned"), scanned);
        self.put("probe.hits".into(), hits);
    }
}

/// Two-sided comparison of `visited` against `pinned`: one line per
/// mismatched, missing or unpinned key; empty when they agree.
fn drift(pinned: &[(&str, u64)], visited: &BTreeMap<String, u64>) -> String {
    let mut lines = Vec::new();
    for &(key, pin) in pinned {
        match visited.get(key) {
            Some(&v) if v != pin => lines.push(format!("changed from {pin}: (\"{key}\", {v}),")),
            None => lines.push(format!("missing (never visited): (\"{key}\", {pin}),")),
            Some(_) => {}
        }
    }
    for (key, value) in visited {
        if !pinned.iter().any(|(pin, _)| pin == key) {
            lines.push(format!("unpinned: (\"{key}\", {value}),"));
        }
    }
    lines.join("\n")
}

/// 3 × `size` uniform intervals starting in `[0, span)`, seed 4242.
fn uniform(size: usize, span: i64) -> Vec<IntervalCollection> {
    let cfg = SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed: 4242 };
    (0..3).map(|i| uniform_collection(CollectionId(i), &cfg)).collect()
}

#[test]
fn work_counters_match_the_pins() {
    let mut visited = Visited::default();

    // Dense: ~30 concurrent intervals per timestamp, g = 20, 4 reducers,
    // in memory, then through the spill path at threshold 0 (one segment
    // per record).
    let config = TkijConfig::default().with_granules(20).with_reducers(4);
    let dense = Tkij::new(config.clone()).prepare(uniform(6_000, 20_000)).unwrap();
    let sweep = visited.run("dense", "sweep", &dense, Tkij::new(config.clone()));
    let spill = config.with_shuffle_spill_threshold_bytes(0);
    assert_eq!(visited.run("dense", "spill", &dense, Tkij::new(spill)), sweep, "the dense top-k");

    // Hot: g = 1 is one combination on one reducer, one rank-join over a
    // single 4,000-item first-step run.
    let config = TkijConfig::default().with_granules(1).with_reducers(1);
    let hot = Tkij::new(config.clone()).prepare(uniform(4_000, 120_000)).unwrap();
    visited.run("hot", "hot_seq", &hot, Tkij::new(config));

    let items = uniform(20_000, 20_000).swap_remove(0).intervals().to_vec();
    visited.probe("sweep", &SweepIndex::build(items.clone()), &items);

    let drift = drift(PINNED, &visited.0);
    assert!(drift.is_empty(), "pinned counters drifted; re-pin with a reason per key:\n{drift}");
}

#[test]
fn a_changed_value_fails_naming_the_key() {
    let run = BTreeMap::from([("dense.topbuckets.selected".to_string(), 8)]);
    let drift = drift(&[("dense.topbuckets.selected", 7)], &run);
    assert_eq!(drift, "changed from 7: (\"dense.topbuckets.selected\", 8),");
}

#[test]
fn a_pin_no_run_visits_fails_naming_the_key() {
    let drift = drift(&[("sweep.local.gone", 7)], &BTreeMap::new());
    assert_eq!(drift, "missing (never visited): (\"sweep.local.gone\", 7),");
}

#[test]
fn a_visited_key_without_a_pin_fails_naming_the_key() {
    let drift = drift(&[], &BTreeMap::from([("sweep.local.new".to_string(), 3)]));
    assert_eq!(drift, "unpinned: (\"sweep.local.new\", 3),");
}

/// Every visited counter, sorted by key as a failure prints them.
#[rustfmt::skip]
const PINNED: &[(&str, u64)] = &[
    ("dense.distribution.assignments_scored", 35219), ("dense.distribution.cap_fallbacks", 0),
    ("dense.distribution.estimated_shuffle_records", 68759),
    ("dense.distribution.replication_factor", 4615784168988305406), // 3.819944
    ("dense.distribution.result_imbalance", 4608892355109582890), // 1.379682
    ("dense.topbuckets.candidates", 59319), ("dense.topbuckets.pruned_local", 45232),
    ("dense.topbuckets.pruned_merge", 0), ("dense.topbuckets.selected", 14087),
    ("dense.topbuckets.selected_results_hi", 0),
    ("dense.topbuckets.selected_results_lo", 48400771436), ("dense.topbuckets.solver_calls", 3042),
    ("dense.topbuckets.total_results_hi", 0), ("dense.topbuckets.total_results_lo", 216000000000),
    ("hot.distribution.assignments_scored", 1),
    ("hot.distribution.cap_fallbacks", 0), ("hot.distribution.estimated_shuffle_records", 12000),
    ("hot.distribution.replication_factor", 4607182418800017408), // 1.0
    ("hot.distribution.result_imbalance", 4607182418800017408), ("hot.topbuckets.candidates", 1),
    ("hot.topbuckets.pruned_local", 0), ("hot.topbuckets.pruned_merge", 0),
    ("hot.topbuckets.selected", 1), ("hot.topbuckets.selected_results_hi", 0),
    ("hot.topbuckets.selected_results_lo", 64000000000), ("hot.topbuckets.solver_calls", 2),
    ("hot.topbuckets.total_results_hi", 0), ("hot.topbuckets.total_results_lo", 64000000000),
    ("hot_seq.join.shuffle.checksum", 0),
    ("hot_seq.join.shuffle.records_spilled", 0), ("hot_seq.join.shuffle.spill_bytes", 0),
    ("hot_seq.join.shuffle.spill_segments", 0), ("hot_seq.join.shuffle_bytes", 360000),
    ("hot_seq.join.shuffle_records", 12000),
    // Index on first open: the one combination opens all three slices.
    ("hot_seq.local.buckets_opened", 3),
    ("hot_seq.local.buckets_sweep", 3),
    // Re-pinned: probe strictly above the requirement.
    ("hot_seq.local.candidates_visited", 8689),
    ("hot_seq.local.combos_assigned", 1), ("hot_seq.local.combos_processed", 1),
    // Re-pinned: the frozen wave floor is gone; every probe prunes against the live heap.
    ("hot_seq.local.index_probes", 947),
    // Re-pinned: probe strictly above the requirement.
    ("hot_seq.local.items_scanned", 8957),
    ("hot_seq.local.kth_score", 4607182418800017408),
    // Index on first open: every shipped record is opened.
    ("hot_seq.local.records_opened", 12000),
    // Re-pinned: the frozen wave floor is gone; every probe prunes against the live heap.
    ("hot_seq.local.tuples_scored", 373),
    ("hot_seq.merge.shuffle.checksum", 0), ("hot_seq.merge.shuffle.records_spilled", 0),
    ("hot_seq.merge.shuffle.spill_bytes", 0), ("hot_seq.merge.shuffle.spill_segments", 0),
    ("hot_seq.merge.shuffle_bytes", 3300), ("hot_seq.merge.shuffle_records", 100),
    ("hot_seq.shuffle.checksum", 0), ("hot_seq.shuffle.records_spilled", 0),
    ("hot_seq.shuffle.spill_bytes", 0), ("hot_seq.shuffle.spill_segments", 0),
    ("probe.hits", 29985), ("probe.sweep.scanned", 29985),
    ("spill.join.shuffle.checksum", 1175183932), ("spill.join.shuffle.records_spilled", 68759),
    ("spill.join.shuffle.spill_bytes", 3437950), ("spill.join.shuffle.spill_segments", 68759),
    ("spill.join.shuffle_bytes", 2062770), ("spill.join.shuffle_records", 68759),
    // Index on first open: 19 of the 431 shipped slices are opened.
    ("spill.local.buckets_opened", 19),
    ("spill.local.buckets_sweep", 431),
    // Re-pinned: probe strictly above the requirement.
    ("spill.local.candidates_visited", 18706),
    ("spill.local.combos_assigned", 14087), ("spill.local.combos_processed", 12),
    ("spill.local.index_probes", 15730),
    // Re-pinned: probe strictly above the requirement.
    ("spill.local.items_scanned", 23863),
    ("spill.local.kth_score", 18428729675200069632),
    // Index on first open: the opened slices hold 3 523 of 68 759 shipped records.
    ("spill.local.records_opened", 3523),
    ("spill.local.tuples_scored", 2443),
    ("spill.merge.shuffle.checksum", 3537127936), ("spill.merge.shuffle.records_spilled", 400),
    ("spill.merge.shuffle.spill_bytes", 21200), ("spill.merge.shuffle.spill_segments", 400),
    ("spill.merge.shuffle_bytes", 13200), ("spill.merge.shuffle_records", 400),
    ("spill.shuffle.checksum", 2497685564), ("spill.shuffle.records_spilled", 69159),
    ("spill.shuffle.spill_bytes", 3459150), ("spill.shuffle.spill_segments", 69159),
    ("sweep.join.shuffle.checksum", 0), ("sweep.join.shuffle.records_spilled", 0),
    ("sweep.join.shuffle.spill_bytes", 0), ("sweep.join.shuffle.spill_segments", 0),
    ("sweep.join.shuffle_bytes", 2062770), ("sweep.join.shuffle_records", 68759),
    // Index on first open: 19 of the 431 shipped slices are opened.
    ("sweep.local.buckets_opened", 19),
    ("sweep.local.buckets_sweep", 431),
    // Re-pinned: probe strictly above the requirement.
    ("sweep.local.candidates_visited", 18706),
    ("sweep.local.combos_assigned", 14087), ("sweep.local.combos_processed", 12),
    ("sweep.local.index_probes", 15730),
    // Re-pinned: probe strictly above the requirement.
    ("sweep.local.items_scanned", 23863),
    ("sweep.local.kth_score", 18428729675200069632),
    // Index on first open: the opened slices hold 3 523 of 68 759 shipped records.
    ("sweep.local.records_opened", 3523),
    ("sweep.local.tuples_scored", 2443),
    ("sweep.merge.shuffle.checksum", 0), ("sweep.merge.shuffle.records_spilled", 0),
    ("sweep.merge.shuffle.spill_bytes", 0), ("sweep.merge.shuffle.spill_segments", 0),
    ("sweep.merge.shuffle_bytes", 13200), ("sweep.merge.shuffle_records", 400),
    ("sweep.shuffle.checksum", 0), ("sweep.shuffle.records_spilled", 0),
    ("sweep.shuffle.spill_bytes", 0), ("sweep.shuffle.spill_segments", 0),
];
