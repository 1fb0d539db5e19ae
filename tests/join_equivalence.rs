//! Local-join equivalence, end to end through the public facade: every
//! TopBuckets strategy must return the naive oracle's top-k scores for
//! randomized workloads and queries, every shipped bucket is indexed
//! once, and runtime early termination saves work without changing the
//! top-k.

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

    /// Each reducer runs one sequential rank-join, so the worker-thread
    /// count only schedules the reduce tasks: on random workloads the
    /// results stay the oracle's, and every id, tie-break and work
    /// counter is bit-identical to the sequential run's.
    #[test]
    fn one_rank_join_per_reducer_is_exact_at_every_worker_count(
        seed in 0u64..10_000,
        size in 20usize..60,
        k in 1usize..10,
        workers in 1usize..5,
    ) {
        let collections = uniform_collections(3, size, seed);
        let q = table1::q_om(PredicateParams::P1);
        let exec = |worker_threads: usize| {
            let engine = Tkij::with_cluster(
                TkijConfig::default().with_granules(5).with_reducers(3),
                ClusterConfig { worker_threads, ..Default::default() },
            );
            let dataset = engine.prepare(collections.clone()).unwrap();
            engine.execute(&dataset, &q, k).unwrap()
        };
        let seq = exec(0);
        let par = exec(workers);

        let refs: Vec<&IntervalCollection> =
            q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_topk(&q, &refs, k);
        prop_assert_eq!(par.results.len(), expected.len(), "workers={}", workers);
        for (got, want) in par.results.iter().zip(&expected) {
            prop_assert!(
                (got.score - want.score).abs() < 1e-9,
                "workers={}: {} vs oracle {}", workers, got.score, want.score
            );
        }
        prop_assert_eq!(seq.fingerprint(), par.fingerprint(), "workers={}", workers);
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
        let report = engine.execute_planned(&dataset, &plan).unwrap();
        assert_eq!(report.results.len(), 100, "size {size} span {span}");
        assert_eq!(report.buckets_sweep(), shipped, "size {size} span {span}");
        for stats in &report.local_stats {
            assert!(stats.items_scanned >= stats.candidates_visited, "size {size} span {span}");
        }
    }
}

#[test]
fn early_termination_fires_with_the_sweep_backend() {
    // A 2-vertex `meets` workload with a dominant score cluster, static
    // TopBuckets pruning off: every combination survives with honest
    // bounds, so any work saving comes from *runtime* early termination.
    // Once k high scorers are found, dominated combinations and the rest
    // of a dominated first-step run must be skipped.
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
    assert_eq!(report.results.len(), 3);
    let assigned: usize = report.local_stats.iter().map(|s| s.combos_assigned).sum();
    let processed: usize = report.local_stats.iter().map(|s| s.combos_processed).sum();
    assert!(processed > 0);
    assert!(
        processed < assigned,
        "early termination must skip dominated combos with the sweep backend \
         (processed {processed} of {assigned})"
    );

    // Exhaustive reference: a k no workload of this size can fill, so
    // the admission threshold never rises and nothing is ever skipped.
    let exhaustive = engine.execute(&dataset, &q, 100_000).unwrap();
    assert!(
        report.index_probes() < exhaustive.index_probes(),
        "probes must stay below the exhaustive count: {} vs {}",
        report.index_probes(),
        exhaustive.index_probes()
    );
    assert!(
        report.items_scanned() < exhaustive.items_scanned(),
        "scans must stay below the exhaustive count: {} vs {}",
        report.items_scanned(),
        exhaustive.items_scanned()
    );
    // The exhaustive run returns every tuple; the early-terminated run's
    // scores must be its true top prefix.
    for (got, want) in report.results.iter().zip(&exhaustive.results) {
        assert_eq!(got.score.to_bits(), want.score.to_bits());
    }
}

#[test]
fn a_combination_dominated_mid_run_stops_its_first_step_walk() {
    // Every pair scores the same s < 1, and the one combination's upper
    // bound is exactly s. Once k tuples fill the heap, τ = s = UB, so the
    // rest of the first-step run is dominated and must not be walked: the
    // probe threshold alone (s must beat τ < 1) would still probe once
    // per remaining item.
    use tkij::core::{local_topk_join, ComboSet};
    use tkij::temporal::bucket::BucketId;
    let q = Query::new(
        vec![CollectionId(0), CollectionId(1)],
        vec![QueryEdge {
            src: 0,
            dst: 1,
            predicate: TemporalPredicate::meets(PredicateParams::P1),
        }],
        Aggregation::NormalizedSum,
    )
    .unwrap();
    let left: Vec<Interval> = (0..8).map(|id| Interval::new(id, 0, 10).unwrap()).collect();
    let right: Vec<Interval> = (0..8).map(|id| Interval::new(id, 20, 30).unwrap()).collect();
    let s = q.score_tuple(&[left[0], right[0]]);
    assert!(s > 0.0 && s < 1.0, "a partial score, so the probe threshold stays below 1: {s}");
    let bucket = BucketId::new(0, 0);
    let mut combos = ComboSet::new(2);
    combos.push(&[bucket, bucket], 64, s, s);
    let data = std::collections::BTreeMap::from([((0, bucket), left), ((1, bucket), right)]);
    let (topk, stats) = local_topk_join(&q, &q.plan(), 3, &combos, &[0], &data);
    assert_eq!(topk.sorted_scores(), vec![s; 3]);
    assert_eq!(stats.index_probes, 1, "the walk must stop once the combination is dominated");
    assert_eq!(stats.tuples_scored, 3);
}

#[test]
fn a_plan_executes_the_query_and_k_it_was_made_for() {
    // A plan carries its own (query, k), so no caller can run it against
    // another shape: a k = 1 plan (one selected combination) and a
    // k = 5000 plan each return their own exact top-k, and a plan for a
    // 2-vertex star stays that query beside a 3-vertex one.
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
    let dataset = engine.prepare(uniform_collections(3, 60, 5)).unwrap();
    let p = PredicateParams::P1;
    for (q, k) in [
        (table1::q_bb(p), 1),
        (table1::q_bb(p), 5000),
        (table1::q_b_star(2, p), 10),
        (table1::q_sfm(p), 10),
    ] {
        let plan = engine.plan_query(&dataset, &q, k).unwrap();
        assert_eq!((&plan.query, plan.k), (&q, k));
        let report = engine.execute_planned(&dataset, &plan).unwrap();
        assert_eq!(report.fingerprint(), engine.execute(&dataset, &q, k).unwrap().fingerprint());
        let refs: Vec<&IntervalCollection> =
            q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk(&q, &refs, k);
        assert_eq!(report.results.len(), expected.len(), "{} k = {k}", q.name());
        for (got, want) in report.results.iter().zip(&expected) {
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "{} k = {k}", q.name());
        }
    }
}
