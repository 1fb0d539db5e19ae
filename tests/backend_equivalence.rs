//! Local-join backend equivalence, end to end through the public facade:
//! the R-tree and sweep candidate sources must produce **identical**
//! top-k results against the naive oracle, across all three TopBuckets
//! strategies, for randomized workloads and queries.
//!
//! Scores are compared *bitwise* between backends: both evaluate the same
//! winning tuples with identical floating-point arithmetic, so the score
//! vectors must match to the last bit — any divergence means a backend
//! served a wrong candidate set.

use proptest::prelude::*;
use tkij::prelude::*;
// `proptest::prelude::Strategy` (the generator trait) shadows TKIJ's
// TopBuckets `Strategy` enum under the double glob import.
use tkij::core::Strategy;

fn run(
    backend: LocalJoinBackend,
    strategy: Strategy,
    scan: SweepScanKind,
    collections: &[IntervalCollection],
    q: &Query,
    k: usize,
    g: u32,
) -> Vec<f64> {
    let engine = Tkij::new(
        TkijConfig::default()
            .with_granules(g)
            .with_reducers(3)
            .with_strategy(strategy)
            .with_local_backend(backend)
            .with_sweep_scan(scan),
    );
    let dataset = engine.prepare(collections.to_vec()).unwrap();
    let report = engine.execute(&dataset, q, k).unwrap();
    let refs: Vec<&IntervalCollection> =
        q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    let expected = naive_topk(q, &refs, k);
    assert_eq!(report.results.len(), expected.len(), "{strategy:?}/{backend:?}: cardinality");
    for (got, want) in report.results.iter().zip(&expected) {
        assert!(
            (got.score - want.score).abs() < 1e-9,
            "{strategy:?}/{backend:?}: {} vs oracle {}",
            got.score,
            want.score
        );
    }
    report.results.iter().map(|t| t.score).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both backends equal the oracle and each other (bitwise) for random
    /// workloads, across every TopBuckets strategy and both sweep scan
    /// kinds: a randomly drawn kind drives the sweep-indexed runs, and
    /// the *other* kind must reproduce the sweep run bit for bit.
    #[test]
    fn backends_identical_across_strategies(
        seed in 0u64..10_000,
        size in 12usize..40,
        k in 1usize..12,
        g in 2u32..9,
        q_idx in 0usize..4,
        scan_idx in 0usize..2,
    ) {
        let collections = uniform_collections(3, size, seed);
        let q = match q_idx {
            0 => table1::q_om(PredicateParams::P1),
            1 => table1::q_sm(PredicateParams::P2),
            2 => table1::q_oo(PredicateParams::P1),
            _ => table1::q_bb(PredicateParams::P3),
        };
        let scan = SweepScanKind::all()[scan_idx].1;
        let other = SweepScanKind::all()[1 - scan_idx].1;
        for (_, strategy) in Strategy::all() {
            let rt = run(LocalJoinBackend::RTree, strategy, scan, &collections, &q, k, g);
            let sw = run(LocalJoinBackend::Sweep, strategy, scan, &collections, &q, k, g);
            let sw_other = run(LocalJoinBackend::Sweep, strategy, other, &collections, &q, k, g);
            prop_assert_eq!(rt.len(), sw.len());
            prop_assert_eq!(sw.len(), sw_other.len());
            for ((a, b), d) in rt.iter().zip(&sw).zip(&sw_other) {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?}/{:?}: backend scores diverge: {} vs {}", strategy, scan, a, b
                );
                prop_assert_eq!(
                    b.to_bits(), d.to_bits(),
                    "{:?}: sweep diverges between scan kinds: {} vs {}", strategy, b, d
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded/parallel local join at random chunk sizes — including
    /// 1 and longer than every candidate run — stays exact against the
    /// naive oracle, is bit-identical (ids and counters included) to its
    /// own sequential execution *and* to the scalar-scan execution (the
    /// chunked lane scan may not move a counter), and its shared score
    /// bound may only *prune*: `items_scanned` never exceeds the
    /// unbounded run's (and exactly equals the sequential path's, since
    /// neither the thread count nor the scan kind can change the plan).
    #[test]
    fn sharded_path_is_exact_thread_and_scan_invariant_and_bound_only_prunes(
        seed in 0u64..10_000,
        size in 20usize..60,
        k in 1usize..10,
        chunk_sel in 0usize..6,
        backend_idx in 0usize..2,
    ) {
        // Chunk sizes spanning the degenerate (1), several non-divisors,
        // and one longer than any candidate run.
        let chunk = [1usize, 2, 7, 19, 64, 100_000][chunk_sel];
        let backend = LocalJoinBackend::all()[backend_idx].1;
        let collections = uniform_collections(3, size, seed);
        let q = table1::q_om(PredicateParams::P1);
        let exec = |threads: usize, bound: bool, scan: SweepScanKind| {
            let mut config = TkijConfig::default()
                .with_granules(5)
                .with_reducers(3)
                .with_local_backend(backend)
                .with_sweep_scan(scan)
                .with_probe_chunk_items(chunk);
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
        let seq = exec(0, true, SweepScanKind::Chunked);
        let par = exec(2, true, SweepScanKind::Chunked);
        let unbounded = exec(2, false, SweepScanKind::Chunked);
        let scalar = exec(0, true, SweepScanKind::Scalar);

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
        // Scan-kind invariance, end to end: the scalar-scan execution is
        // bit-identical to the chunked one — results (ids included) and
        // every work counter.
        prop_assert_eq!(seq.results.len(), scalar.results.len());
        for (a, b) in seq.results.iter().zip(&scalar.results) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(&a.ids, &b.ids, "chunk={}: scan kinds exchange ties", chunk);
        }
        prop_assert_eq!(seq.items_scanned(), scalar.items_scanned());
        prop_assert_eq!(seq.index_probes(), scalar.index_probes());
        prop_assert_eq!(seq.probe_chunks(), scalar.probe_chunks());
        prop_assert_eq!(seq.tuples_scored(), scalar.tuples_scored());
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

/// The fig15 density sweep (`Qo,m`, `k = 100`, lengths 1–100, `g = 20`,
/// `r = 4`, seed 7), from sparse small buckets to very dense ones: at
/// every point the two backends return bitwise-identical scores, and each
/// query indexes every shipped bucket on its one configured backend.
#[test]
fn each_query_runs_on_its_one_backend_across_densities() {
    let q = table1::q_om(PredicateParams::P1);
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
        let report = |backend: LocalJoinBackend| {
            let engine = Tkij::new(
                TkijConfig::default()
                    .with_granules(20)
                    .with_reducers(4)
                    .with_local_backend(backend),
            );
            let dataset = engine.prepare(collections.clone()).unwrap();
            engine.execute(&dataset, &q, 100).unwrap()
        };
        let rt = report(LocalJoinBackend::RTree);
        let sw = report(LocalJoinBackend::Sweep);
        let bits = |r: &ExecutionReport| -> Vec<u64> {
            r.results.iter().map(|t| t.score.to_bits()).collect()
        };
        assert_eq!(rt.results.len(), 100, "size {size} span {span}");
        assert_eq!(bits(&rt), bits(&sw), "size {size} span {span}: backend scores diverge");
        assert!(rt.buckets_rtree() > 0, "size {size} span {span}");
        assert_eq!(rt.buckets_sweep(), 0, "size {size} span {span}");
        assert_eq!(sw.buckets_rtree(), 0, "size {size} span {span}");
        assert_eq!(rt.buckets_rtree(), sw.buckets_sweep(), "size {size} span {span}");
    }
}

#[test]
fn early_termination_fires_with_the_sweep_backend() {
    // A workload with a dominant score cluster: once k high scorers are
    // found, dominated combinations must be skipped by the runtime
    // early-termination check regardless of the backend.
    let engine = Tkij::new(
        TkijConfig::default()
            .with_granules(10)
            .with_reducers(2)
            .with_local_backend(LocalJoinBackend::Sweep)
            .without_pruning(),
    );
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
