//! The paper's central guarantee, verified end to end through the public
//! facade: TKIJ returns the **exact** top-k — its score sequence equals an
//! exhaustive oracle's for every query shape, parameterization,
//! granularity, k and data distribution we can afford to enumerate.

use tkij::prelude::*;

/// Runs TKIJ and the oracle and compares score sequences; also validates
/// every returned tuple by re-scoring it against the actual intervals.
fn assert_exact(engine: &Tkij, dataset: &PreparedDataset, query: &Query, k: usize, label: &str) {
    let report = engine.execute(dataset, query, k).expect(label);
    let refs: Vec<&IntervalCollection> =
        query.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    let expected = naive_topk(query, &refs, k);
    assert_eq!(report.results.len(), expected.len(), "{label}: cardinality");
    for (i, (got, want)) in report.results.iter().zip(&expected).enumerate() {
        assert!(
            (got.score - want.score).abs() < 1e-9,
            "{label}: rank {i}: {} vs {}",
            got.score,
            want.score
        );
        let tuple: Vec<Interval> = got
            .ids
            .iter()
            .zip(&query.vertices)
            .map(|(id, c)| {
                *dataset.collections[c.0 as usize]
                    .intervals()
                    .iter()
                    .find(|iv| iv.id == *id)
                    .unwrap_or_else(|| panic!("{label}: unknown id {id}"))
            })
            .collect();
        assert!(
            (query.score_tuple(&tuple) - got.score).abs() < 1e-9,
            "{label}: rank {i} reports a wrong score"
        );
    }
}

#[test]
fn synthetic_all_table1_queries_and_params() {
    for seed in [1u64, 7] {
        let engine = Tkij::new(TkijConfig::default().with_granules(7).with_reducers(5));
        let dataset = engine.prepare(uniform_collections(3, 45, seed)).unwrap();
        let avg = dataset.collections[0].avg_length();
        for (pname, params) in PredicateParams::table2() {
            for (qname, q) in table1::all(params, avg) {
                assert_exact(&engine, &dataset, &q, 6, &format!("{qname}/{pname}/seed{seed}"));
            }
        }
    }
}

#[test]
fn k_sweep_and_granularity_sweep() {
    let engine_for = |g: u32| Tkij::new(TkijConfig::default().with_granules(g).with_reducers(4));
    let q = table1::q_om(PredicateParams::P2);
    for g in [1u32, 2, 5, 13] {
        let engine = engine_for(g);
        let dataset = engine.prepare(uniform_collections(3, 30, 33)).unwrap();
        for k in [1usize, 2, 5, 29, 100, 40_000] {
            assert_exact(&engine, &dataset, &q, k, &format!("Qom/g{g}/k{k}"));
        }
    }
}

#[test]
fn alternative_aggregations() {
    let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(3));
    let dataset = engine.prepare(uniform_collections(3, 35, 88)).unwrap();
    let p = PredicateParams::P1;
    let make = |agg: Aggregation| {
        Query::new(
            vec![CollectionId(0), CollectionId(1), CollectionId(2)],
            vec![
                QueryEdge { src: 0, dst: 1, predicate: TemporalPredicate::overlaps(p) },
                QueryEdge { src: 1, dst: 2, predicate: TemporalPredicate::meets(p) },
            ],
            agg,
        )
        .unwrap()
    };
    assert_exact(&engine, &dataset, &make(Aggregation::Min), 8, "min-agg");
    assert_exact(
        &engine,
        &dataset,
        &make(Aggregation::WeightedSum(vec![3.0, 1.0])),
        8,
        "weighted-agg",
    );
}

#[test]
fn traffic_data_self_join() {
    let cfg = TrafficConfig::calibrated(600, 5);
    let (base, _) = traffic_collection(&cfg, 1.0, CollectionId(0));
    // Use a prefix so the oracle stays cheap.
    let small = IntervalCollection::new(
        CollectionId(0),
        base.intervals().iter().take(60).copied().collect(),
    )
    .unwrap();
    let avg = small.avg_length();
    let collections =
        vec![small.clone(), small.copy_as(CollectionId(1)), small.copy_as(CollectionId(2))];
    let engine = Tkij::new(TkijConfig::default().with_granules(10).with_reducers(4));
    let dataset = engine.prepare(collections).unwrap();
    for (qname, q) in [
        ("QjB,jB", table1::q_jbjb(PredicateParams::P3, avg)),
        ("QsM,sM", table1::q_smsm(PredicateParams::P3, avg)),
        ("Qo,o", table1::q_oo(PredicateParams::P3)),
    ] {
        assert_exact(&engine, &dataset, &q, 10, qname);
    }
}

#[test]
fn adversarial_clustered_data() {
    // All intervals inside one granule, plus a far outlier cluster:
    // stresses same-granule buckets (invalid box corners) and pruning.
    let mut intervals = Vec::new();
    for i in 0..40u64 {
        intervals
            .push(Interval::new(i, 1000 + (i as i64 % 7), 1000 + (i as i64 % 11) + 5).unwrap());
    }
    for i in 40..50u64 {
        intervals.push(Interval::new(i, 50_000, 50_040 + i as i64).unwrap());
    }
    let c = IntervalCollection::new(CollectionId(0), intervals).unwrap();
    let collections = vec![c.clone(), c.copy_as(CollectionId(1)), c.copy_as(CollectionId(2))];
    let engine = Tkij::new(TkijConfig::default().with_granules(12).with_reducers(6));
    let dataset = engine.prepare(collections).unwrap();
    for (qname, q) in table1::all(PredicateParams::P1, c.avg_length()) {
        assert_exact(&engine, &dataset, &q, 5, &format!("clustered/{qname}"));
    }
}

#[test]
fn two_way_queries_are_supported() {
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
    let dataset = engine.prepare(uniform_collections(2, 80, 4)).unwrap();
    let p = PredicateParams::P1;
    for pred in [
        TemporalPredicate::before(p),
        TemporalPredicate::equals(p),
        TemporalPredicate::contains(p),
        TemporalPredicate::sparks(p, 10),
    ] {
        let q = Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![QueryEdge { src: 0, dst: 1, predicate: pred.clone() }],
            Aggregation::NormalizedSum,
        )
        .unwrap();
        assert_exact(&engine, &dataset, &q, 12, &pred.to_string());
    }
}

#[test]
fn reported_scores_are_bit_identical_to_rescoring_the_tuple() {
    // The rank-join aggregates each tuple's edge scores in one per-reducer
    // buffer reused across tuples and cycle checks. A stale entry left in
    // it would shift a reported score away from `Query::score_tuple` of
    // the same intervals, so the two must agree to the bit — for chains,
    // stars and the cyclic `Q_{s,f,m}`, under every aggregation.
    let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(3));
    let dataset = engine.prepare(uniform_collections(3, 40, 5)).unwrap();
    let avg = dataset.collections[0].avg_length();
    let p = PredicateParams::P2;
    let mut queries = table1::all(p, avg);
    for (name, agg) in [
        ("chain/min", Aggregation::Min),
        ("chain/weighted", Aggregation::WeightedSum(vec![3.0, 1.0])),
    ] {
        let q = Query::new(
            vec![CollectionId(0), CollectionId(1), CollectionId(2)],
            vec![
                QueryEdge { src: 0, dst: 1, predicate: TemporalPredicate::overlaps(p) },
                QueryEdge { src: 1, dst: 2, predicate: TemporalPredicate::meets(p) },
            ],
            agg,
        )
        .unwrap();
        queries.push((name, q));
    }
    for (name, q) in &queries {
        let report = engine.execute(&dataset, q, 12).expect(name);
        assert!(!report.results.is_empty(), "{name}: produces results");
        for (i, got) in report.results.iter().enumerate() {
            let tuple: Vec<Interval> = got
                .ids
                .iter()
                .zip(&q.vertices)
                .map(|(id, c)| {
                    *dataset.collections[c.0 as usize]
                        .intervals()
                        .iter()
                        .find(|iv| iv.id == *id)
                        .unwrap_or_else(|| panic!("{name}: unknown id {id}"))
                })
                .collect();
            assert_eq!(
                q.score_tuple(&tuple).to_bits(),
                got.score.to_bits(),
                "{name}: rank {i} reports a score its intervals do not give"
            );
        }
    }
}
