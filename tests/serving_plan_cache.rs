//! Plan-cache correctness, property-tested: a cache-*hit* query must be
//! bitwise-identical — scores, ids, and every work counter except the
//! serving cache counters themselves — to a cold-cache run and to a
//! solo `Tkij::execute` run, across all three TopBuckets strategies.
//!
//! This is the property that makes plan caching safe to enable by
//! default: planning is a pure function of (dataset statistics, query,
//! k, config), so replaying a cached plan may never move a result bit
//! or a gated counter.

use proptest::prelude::*;
use tkij::prelude::*;
// `proptest::prelude::Strategy` (the generator trait) shadows TKIJ's
// TopBuckets `Strategy` enum under the double glob import.
use tkij::core::Strategy;

/// Results plus every deterministic work counter of one execution.
#[derive(Debug, Clone, PartialEq)]
struct Capture {
    results: Vec<(Vec<u64>, u64)>,
    local_stats: Vec<tkij::core::LocalJoinStats>,
    topbuckets_selected: usize,
    topbuckets_solver_calls: usize,
    shuffle_records: u64,
    buckets: u64,
}

fn capture(report: &ExecutionReport) -> Capture {
    Capture {
        results: report.results.iter().map(|t| (t.ids.clone(), t.score.to_bits())).collect(),
        local_stats: report.local_stats.clone(),
        topbuckets_selected: report.topbuckets.selected,
        topbuckets_solver_calls: report.topbuckets.solver_calls,
        shuffle_records: report.join.total_shuffle_records(),
        buckets: report.buckets_sweep(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cache_hit_is_bitwise_identical_to_cold_run(
        seed in 0u64..10_000,
        size in 12usize..32,
        k in 1usize..10,
        g in 2u32..7,
        q_idx in 0usize..4,
    ) {
        let collections = uniform_collections(3, size, seed);
        let q = match q_idx {
            0 => table1::q_om(PredicateParams::P1),
            1 => table1::q_sm(PredicateParams::P2),
            2 => table1::q_oo(PredicateParams::P1),
            _ => table1::q_bb(PredicateParams::P3),
        };
        for (sname, strategy) in Strategy::all() {
            let engine = Tkij::new(
                TkijConfig::default().with_granules(g).with_reducers(3).with_strategy(strategy),
            );
            // Statistics collection is deterministic, so a second prepare
            // of the same collections is the same dataset.
            let dataset = engine.prepare(collections.clone()).unwrap();
            let solo = capture(&engine.execute(&dataset, &q, k).unwrap());
            let server = engine.serve(dataset);
            let cold = capture(&server.query(&q, k).unwrap());
            let hit = capture(&server.query(&q, k).unwrap());
            let stats = server.stats();
            prop_assert_eq!(stats.plan_cache_misses, 1);
            prop_assert_eq!(stats.plan_cache_hits, 1);
            prop_assert_eq!(
                &cold, &solo,
                "{}: cold-cache serving diverges from solo execute", sname
            );
            prop_assert_eq!(&hit, &cold, "{}: cache-hit run diverges from cold-cache run", sname);
        }
    }
}
