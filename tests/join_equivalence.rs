//! Local-join equivalence, end to end through the public facade: every
//! TopBuckets strategy must return the naive oracle's top-k scores for
//! randomized workloads and queries, the sharded join must not depend on
//! its thread count, and the shared score bound may only prune.

use proptest::prelude::*;
use tkij::prelude::*;
// `proptest::prelude::Strategy` (the generator trait) shadows TKIJ's
// TopBuckets `Strategy` enum under the double glob import.
use tkij::core::Strategy;

fn assert_matches_oracle(
    strategy: Strategy,
    collections: &[IntervalCollection],
    q: &Query,
    k: usize,
    g: u32,
) {
    let engine =
        Tkij::new(TkijConfig::default().with_granules(g).with_reducers(3).with_strategy(strategy));
    let dataset = engine.prepare(collections.to_vec()).unwrap();
    let report = engine.execute(&dataset, q, k).unwrap();
    let refs: Vec<&IntervalCollection> =
        q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    let expected = naive_topk(q, &refs, k);
    assert_eq!(report.results.len(), expected.len(), "{strategy:?}: cardinality");
    for (got, want) in report.results.iter().zip(&expected) {
        assert!(
            (got.score - want.score).abs() < 1e-9,
            "{strategy:?}: {} vs oracle {}",
            got.score,
            want.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every TopBuckets strategy returns the oracle's top-k scores for
    /// random workloads and queries.
    #[test]
    fn strategies_match_the_oracle(
        seed in 0u64..10_000,
        size in 12usize..40,
        k in 1usize..12,
        g in 2u32..9,
        q_idx in 0usize..4,
    ) {
        let collections = uniform_collections(3, size, seed);
        let q = match q_idx {
            0 => table1::q_om(PredicateParams::P1),
            1 => table1::q_sm(PredicateParams::P2),
            2 => table1::q_oo(PredicateParams::P1),
            _ => table1::q_bb(PredicateParams::P3),
        };
        for (_, strategy) in Strategy::all() {
            assert_matches_oracle(strategy, &collections, &q, k, g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded/parallel local join at random chunk sizes — including
    /// 1 and longer than every candidate run — stays exact against the
    /// naive oracle, is bit-identical (ids and counters included) to its
    /// own sequential execution, and its shared score bound may only
    /// *prune*: `items_scanned` never exceeds the unbounded run's (and
    /// exactly equals the sequential path's, since the thread count
    /// cannot change the plan).
    #[test]
    fn sharded_path_is_exact_thread_invariant_and_bound_only_prunes(
        seed in 0u64..10_000,
        size in 20usize..60,
        k in 1usize..10,
        chunk_sel in 0usize..6,
    ) {
        // Chunk sizes spanning the degenerate (1), several non-divisors,
        // and one longer than any candidate run.
        let chunk = [1usize, 2, 7, 19, 64, 100_000][chunk_sel];
        let collections = uniform_collections(3, size, seed);
        let q = table1::q_om(PredicateParams::P1);
        let exec = |threads: usize, bound: bool| {
            let mut config =
                TkijConfig::default().with_granules(5).with_reducers(3).with_probe_chunk_items(chunk);
            if !bound {
                config = config.without_intra_bound();
            }
            let engine = Tkij::with_cluster(
                config,
                ClusterConfig::default().with_intra_join_threads(threads),
            );
            let dataset = engine.prepare(collections.clone()).unwrap();
            engine.execute(&dataset, &q, k).unwrap()
        };
        let seq = exec(0, true);
        let par = exec(2, true);
        let unbounded = exec(2, false);

        // Exact vs the oracle.
        let refs: Vec<&IntervalCollection> =
            q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_topk(&q, &refs, k);
        prop_assert_eq!(par.results.len(), expected.len(), "chunk={}", chunk);
        for (got, want) in par.results.iter().zip(&expected) {
            prop_assert!(
                (got.score - want.score).abs() < 1e-9,
                "chunk={}: {} vs oracle {}", chunk, got.score, want.score
            );
        }
        // Thread-invariance: same plan, bit-identical execution record.
        prop_assert_eq!(seq.results.len(), par.results.len());
        for (a, b) in seq.results.iter().zip(&par.results) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(&a.ids, &b.ids, "chunk={}: tie-breaks diverge", chunk);
        }
        prop_assert_eq!(seq.items_scanned(), par.items_scanned());
        prop_assert_eq!(seq.index_probes(), par.index_probes());
        prop_assert_eq!(seq.probe_chunks(), par.probe_chunks());
        prop_assert_eq!(seq.tuples_scored(), par.tuples_scored());
        // The shared bound may only prune: identical scores, never more
        // scans than the unbounded (maximally stale) run.
        for (a, b) in par.results.iter().zip(&unbounded.results) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        prop_assert!(
            par.items_scanned() <= unbounded.items_scanned(),
            "chunk={}: bound added scans: {} vs {}",
            chunk, par.items_scanned(), unbounded.items_scanned()
        );
    }
}

/// A density sweep (`Qo,m`, `k = 100`, lengths 1–100, `g = 20`, `r = 4`,
/// seed 7), from sparse small buckets to very dense ones: at every point
/// each reducer indexes each (vertex, bucket) it was shipped exactly
/// once — the count the plan's `bucket_map` predicts — and its index
/// examines at least every candidate it visits.
#[test]
fn every_shipped_bucket_is_indexed_once_across_densities() {
    let q = table1::q_om(PredicateParams::P1);
    let engine = Tkij::new(TkijConfig::default().with_granules(20).with_reducers(4));
    for &(size, span) in &[(3000usize, 50_000i64), (3000, 5_000), (3000, 1_250), (6_000, 20_000)] {
        let collections: Vec<IntervalCollection> = (0..3u32)
            .map(|c| {
                tkij::datagen::synthetic::uniform_collection(
                    CollectionId(c),
                    &tkij::datagen::synthetic::SyntheticConfig {
                        size,
                        start_range: (0, span),
                        length_range: (1, 100),
                        seed: 7,
                    },
                )
            })
            .collect();
        let dataset = engine.prepare(collections).unwrap();
        let plan = engine.plan_query(&dataset, &q, 100).unwrap();
        let shipped: u64 = plan
            .assignment
            .bucket_map
            .iter()
            .filter(|((v, bucket), _)| {
                let collection = q.vertices[*v as usize].0 as usize;
                dataset.matrices[collection].count(*bucket) > 0
            })
            .map(|(_, reducers)| reducers.len() as u64)
            .sum();
        let report = engine.execute_planned(&dataset, &q, 100, &plan).unwrap();
        assert_eq!(report.results.len(), 100, "size {size} span {span}");
        assert_eq!(report.buckets_sweep(), shipped, "size {size} span {span}");
        for stats in &report.local_stats {
            assert!(stats.items_scanned >= stats.candidates_visited, "size {size} span {span}");
        }
    }
}

#[test]
fn early_termination_fires_with_the_sweep_backend() {
    // A workload with a dominant score cluster: once k high scorers are
    // found, dominated combinations must be skipped by the runtime
    // early-termination check.
    let engine =
        Tkij::new(TkijConfig::default().with_granules(10).with_reducers(2).without_pruning());
    let dataset = engine.prepare(uniform_collections(2, 120, 31)).unwrap();
    let q = {
        use tkij::temporal::{predicate::TemporalPredicate, query::QueryEdge};
        Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![QueryEdge {
                src: 0,
                dst: 1,
                predicate: TemporalPredicate::meets(PredicateParams::P1),
            }],
            Aggregation::NormalizedSum,
        )
        .unwrap()
    };
    let report = engine.execute(&dataset, &q, 3).unwrap();
    let assigned: usize = report.local_stats.iter().map(|s| s.combos_assigned).sum();
    let processed: usize = report.local_stats.iter().map(|s| s.combos_processed).sum();
    assert!(processed > 0);
    assert!(
        processed < assigned,
        "early termination must skip dominated combos with the sweep backend \
         (processed {processed} of {assigned})"
    );
}
