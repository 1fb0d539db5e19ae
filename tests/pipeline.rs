//! Full-pipeline plumbing: dataset preparation, updates, persistence,
//! determinism across cluster shapes, the public phase functions,
//! report contents.

use tkij::core::{distribute, run_join_phase_with, run_merge_phase, run_topbuckets};
use tkij::mapreduce::JobMetrics;
use tkij::prelude::*;

#[test]
fn updates_are_equivalent_to_rebuilding() {
    let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(3));
    let mut dataset = engine.prepare(uniform_collections(3, 40, 64)).unwrap();
    let q = table1::q_om(PredicateParams::P1);

    // Apply a batch of inserts and deletes.
    dataset.insert(0, Interval::new(900, 50_000, 50_040).unwrap()).unwrap();
    dataset.insert(1, Interval::new(901, 50_010, 50_060).unwrap()).unwrap();
    dataset.insert(2, Interval::new(902, 50_060, 50_100).unwrap()).unwrap();
    let removed = dataset.remove(0, 3).expect("id 3 exists");
    assert_eq!(removed.id, 3);

    // A dataset rebuilt from the updated collections must agree.
    let rebuilt = engine.prepare(dataset.collections.clone()).unwrap();
    assert_eq!(dataset.matrices, rebuilt.matrices, "incremental == rebuild");

    let a = engine.execute(&dataset, &q, 8).unwrap();
    let b = engine.execute(&rebuilt, &q, 8).unwrap();
    assert_eq!(
        a.results.iter().map(|t| t.ids.clone()).collect::<Vec<_>>(),
        b.results.iter().map(|t| t.ids.clone()).collect::<Vec<_>>()
    );
    // The inserted chain is a strong match and must surface.
    assert!(a.results.iter().any(|t| t.ids == vec![900, 901, 902]));
}

#[test]
fn text_persistence_roundtrip_through_files() {
    let dir = std::env::temp_dir().join("tkij-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let collections = uniform_collections(2, 60, 77);
    // Write + read back through the plain-text format.
    let mut restored = Vec::new();
    for c in &collections {
        let path = dir.join(format!("c{}.csv", c.id.0));
        let mut buf = Vec::new();
        c.write_text(&mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        restored.push(IntervalCollection::read_text(c.id, file).unwrap());
    }
    assert_eq!(collections, restored);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_across_cluster_shapes() {
    let q = table1::q_sfm(PredicateParams::P2);
    let mut outputs = Vec::new();
    for (threads, map_slots) in [(0usize, 2usize), (4, 6), (2, 1)] {
        let engine = Tkij::with_cluster(
            TkijConfig::default().with_granules(7).with_reducers(5),
            ClusterConfig {
                map_slots,
                reduce_slots: 24,
                worker_threads: threads,
                ..Default::default()
            },
        );
        let dataset = engine.prepare(uniform_collections(3, 70, 1234)).unwrap();
        let report = engine.execute(&dataset, &q, 6).unwrap();
        outputs.push(report.results.iter().map(|t| (t.ids.clone(), t.score)).collect::<Vec<_>>());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

#[test]
fn public_phase_functions_compose_to_execute() {
    // `benchmark/`'s traced pass recomposes a query from the public phase
    // functions (run_topbuckets → distribute → run_join_phase_with →
    // run_merge_phase); that composition must compute exactly what
    // `Tkij::execute` does: results, per-reducer stats, job counters.
    let engine = Tkij::new(TkijConfig::default().with_granules(4).with_reducers(4));
    let dataset = engine.prepare(uniform_collections(3, 150, 2024)).unwrap();
    let config = &engine.config;
    let cluster = engine.job_cluster();
    let k = 10;
    let bits = |ts: &[MatchTuple]| {
        ts.iter().map(|t| (t.ids.clone(), t.score.to_bits())).collect::<Vec<_>>()
    };
    let counters = |m: &JobMetrics| {
        let mut out = Vec::new();
        m.visit(&mut |name, value| out.push((name, value)));
        out
    };
    for query in [table1::q_om(PredicateParams::P1), table1::q_sfm(PredicateParams::P1)] {
        let (selected, _) = run_topbuckets(
            &query,
            &dataset.matrices,
            k as u64,
            config.strategy,
            &config.solver,
            config.topbuckets_workers,
        );
        let assignment =
            distribute(&selected, config.distribution, config.reducers, &query, &dataset.matrices);
        let (outputs, join) = run_join_phase_with(
            &dataset,
            &query,
            &selected,
            &assignment,
            k,
            &cluster,
            config.local_backend,
            config.sweep_scan,
            None,
            engine.intra_join(),
        );
        let (results, merge) = run_merge_phase(&outputs, k, &cluster);
        let local_stats: Vec<_> = outputs.into_iter().map(|o| o.stats).collect();

        let report = engine.execute(&dataset, &query, k).unwrap();
        assert_eq!(results.len(), k, "{}", report.query_name);
        assert_eq!(bits(&results), bits(&report.results), "{}", report.query_name);
        assert_eq!(local_stats, report.local_stats, "{}", report.query_name);
        assert_eq!(counters(&join), counters(&report.join), "{}", report.query_name);
        assert_eq!(counters(&merge), counters(&report.merge), "{}", report.query_name);
    }
}

#[test]
fn report_exposes_all_paper_metrics() {
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(6));
    let dataset = engine.prepare(uniform_collections(3, 90, 2)).unwrap();
    let report = engine.execute(&dataset, &table1::q_oo(PredicateParams::P1), 5).unwrap();

    // Fig. 9 / 10c: phase breakdown.
    assert!(report.phase_line().contains("TopBuckets"));
    // Fig. 10b: imbalance is max/avg ≥ 1 (or exactly 1 when degenerate).
    assert!(report.join.imbalance() >= 1.0 - 1e-9);
    // Fig. 8b: max reducer time ≤ sum of reducer times.
    let sum: std::time::Duration = report.join.reduce_durations.iter().sum();
    assert!(report.join.max_reduce() <= sum + std::time::Duration::from_nanos(1));
    // Fig. 8c: min k-th score within [0, 1].
    let kth = report.min_kth_score();
    assert!((0.0..=1.0).contains(&kth));
    // Fig. 10c: pruning percentage within [0, 100].
    assert!((0.0..=100.0).contains(&report.pruned_pct()));
    // §4.2.2: shuffle accounting present.
    assert!(report.distribution.estimated_shuffle_records > 0);
    // The online wall time composes the phases.
    assert!(report.total_wall() >= report.topbuckets.duration);
    // Statistics job also produced metrics.
    assert!(dataset.stats_metrics.total_shuffle_records() > 0);
}

#[test]
fn stats_collection_insensitive_to_granularity_cost() {
    // §4: "only the number of intervals per collection had a significant
    // impact on statistics collection time" — structurally, the job's
    // shuffle volume depends on g only through matrix size, not on |Ci|.
    let engine20 = Tkij::new(TkijConfig::default().with_granules(20));
    let engine40 = Tkij::new(TkijConfig::default().with_granules(40));
    let c = uniform_collections(2, 500, 8);
    let d20 = engine20.prepare(c.clone()).unwrap();
    let d40 = engine40.prepare(c).unwrap();
    assert_eq!(
        d20.stats_metrics.total_shuffle_records(),
        d40.stats_metrics.total_shuffle_records(),
        "one matrix message per mapper per collection, regardless of g"
    );
    assert_eq!(d20.matrices[0].total(), d40.matrices[0].total());
}

#[test]
fn empty_selection_yields_empty_results_not_errors() {
    // A query whose collections cannot produce positive scores still runs
    // and returns the best (possibly zero-score) tuples, never erroring.
    let c1 = IntervalCollection::new(
        CollectionId(0),
        vec![Interval::new(0, 0, 10).unwrap(), Interval::new(1, 5, 15).unwrap()],
    )
    .unwrap();
    let c2 = IntervalCollection::new(
        CollectionId(1),
        vec![Interval::new(0, 1_000_000, 1_000_010).unwrap()],
    )
    .unwrap();
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
    let engine = Tkij::new(TkijConfig::default().with_granules(4).with_reducers(2));
    let dataset = engine.prepare(vec![c1, c2]).unwrap();
    let report = engine.execute(&dataset, &q, 5).unwrap();
    // All pairs score 0 under s-meets; the exact top-k still returns them.
    assert_eq!(report.results.len(), 2);
    assert!(report.results.iter().all(|t| t.score == 0.0));
}

#[test]
fn zero_reducers_is_an_error_not_a_panic() {
    // A join with no reducer to run on is rejected by every query entry
    // point — solo, planned and served — before planning starts.
    let engine = Tkij::new(TkijConfig::default().with_granules(4).with_reducers(0));
    let dataset = engine.prepare(uniform_collections(3, 30, 5)).unwrap();
    let q = table1::q_om(PredicateParams::P1);
    let rejected = |got: Result<(), tkij::temporal::error::TemporalError>| {
        let message = got.expect_err("zero reducers must be rejected").to_string();
        assert!(message.contains("reducer"), "{message}");
    };
    rejected(engine.execute(&dataset, &q, 3).map(drop));
    rejected(engine.plan_query(&dataset, &q, 3).map(drop));
    rejected(engine.serve(dataset).query(&q, 3).map(drop));
}
