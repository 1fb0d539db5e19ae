//! Concurrent-serving determinism: a query served by a shared
//! `TkijServer` must produce results and a **work-counter fingerprint**
//! bit-identical to running it alone through `Tkij::execute` — whether
//! it runs solo, repeated (plan-cache hits), or interleaved with other
//! query shapes from `threads ∈ {1, 2, 4}` concurrent handles, on the
//! in-memory shuffle and through the spill path.
//!
//! The serving counters themselves are also pinned: with the plan cache
//! enabled, misses equal the number of distinct served shapes and hits
//! the remainder, regardless of interleaving — so this battery asserts
//! them exactly, by name through the `Counters` visitor.

use std::sync::Arc;
use tkij::prelude::*;

const K: usize = 8;
const ROUNDS: usize = 2;

/// The mixed query-shape workload every serving run interleaves: six
/// `table1` families, `q_bb` the only "before" shape.
fn mixed_queries() -> Vec<Query> {
    vec![
        table1::q_om(PredicateParams::P1),
        table1::q_oo(PredicateParams::P1),
        table1::q_sm(PredicateParams::P2),
        table1::q_ss(PredicateParams::P1),
        table1::q_ff(PredicateParams::P1),
        table1::q_bb(PredicateParams::P3),
    ]
}

fn engine(backend: LocalJoinBackend) -> Tkij {
    Tkij::new(TkijConfig::default().with_granules(6).with_reducers(4).with_local_backend(backend))
}

/// Serves every query `ROUNDS` times from each of `threads` concurrent
/// handles (each thread starts the rotation at its own offset, so
/// different shapes genuinely interleave), asserting every served
/// report reproduces its solo reference bit for bit. With `spill`, every
/// job runs the serialized shuffle at threshold 0.
fn assert_serving_matches_solo(backend: LocalJoinBackend, threads: usize, spill: bool) {
    let mut engine = engine(backend);
    if spill {
        engine.config = engine.config.with_shuffle_spill_threshold_bytes(0);
    }
    let dataset = engine.prepare(uniform_collections(3, 80, 555)).unwrap();
    let queries = mixed_queries();
    let solo: Vec<Fingerprint> = queries
        .iter()
        .map(|q| {
            let report = engine.execute(&dataset, q, K).unwrap();
            assert_eq!(report.shuffle_stats().records_spilled > 0, spill, "{backend:?}");
            report.fingerprint()
        })
        .collect();

    let server = Arc::new(engine.serve(dataset));
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads {
            let handle = server.handle();
            let queries = &queries;
            workers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for round in 0..ROUNDS {
                    for i in 0..queries.len() {
                        let qi = (i + t + round) % queries.len();
                        let report = handle.query(&queries[qi], K).unwrap();
                        got.push((qi, report.fingerprint()));
                    }
                }
                got
            }));
        }
        for worker in workers {
            for (qi, fp) in worker.join().unwrap() {
                assert_eq!(
                    fp, solo[qi],
                    "backend {backend:?}, threads {threads}, spill {spill}: served query {qi} \
                     diverges from its solo fingerprint"
                );
            }
        }
    });

    // The serving counters are interleaving-independent: one miss per
    // distinct shape, hits for every repeat, and no evictions — the
    // mix sits far below the default plan-cache capacity.
    // Compared through the `Counters` schema, so a new serving counter
    // fails here until the battery states its expected value.
    let total = (threads * ROUNDS * queries.len()) as u64;
    let shapes = queries.len() as u64;
    let mut stats = Vec::new();
    server.stats().visit(&mut |name, value| stats.push((name, value)));
    assert_eq!(
        stats,
        [
            ("queries", total),
            ("plan_cache_hits", total - shapes),
            ("plan_cache_misses", shapes),
            ("plan_cache_evictions", 0),
        ]
    );
    assert_eq!(server.plan_cache_len(), queries.len());

    // Latency is artifact-only telemetry, but its sample count is a
    // counter: every served query must land in the histogram.
    let latency = server.latency();
    assert_eq!(latency.samples, total);
    assert!(latency.p50_ms <= latency.p95_ms && latency.p95_ms <= latency.p99_ms);
}

#[test]
fn served_fingerprints_match_solo_at_all_thread_counts() {
    for spill in [false, true] {
        for threads in [1usize, 2, 4] {
            assert_serving_matches_solo(LocalJoinBackend::default(), threads, spill);
        }
    }
}

#[test]
fn auto_backend_serving_matches_solo_interleaved() {
    // The pooled Auto path: shared per-(collection, bucket) indexes must
    // record the same statistics-planned choices as per-query builds.
    assert_serving_matches_solo(LocalJoinBackend::Auto, 2, false);
}

#[test]
fn rtree_backend_serving_matches_solo_interleaved() {
    assert_serving_matches_solo(LocalJoinBackend::RTree, 2, false);
}

/// Two vertices over collection 0: the same bucket plays two roles.
fn self_join() -> Query {
    Query::new(
        vec![CollectionId(0), CollectionId(0)],
        vec![QueryEdge {
            src: 0,
            dst: 1,
            predicate: TemporalPredicate::meets(PredicateParams::P1),
        }],
        Aggregation::NormalizedSum,
    )
    .unwrap()
}

#[test]
fn pool_hits_on_unsorted_storage_match_solo() {
    // Collections stored in *descending* start order: no shipped slice
    // arrives canonically sorted. The first served answer builds (and
    // sorts) every index; the second is all pool hits and sorts nothing.
    // Both must equal the solo run, in memory and through the spill path.
    let collections: Vec<IntervalCollection> = uniform_collections(3, 80, 555)
        .into_iter()
        .map(|c| {
            let mut intervals = c.intervals().to_vec();
            intervals.sort_unstable_by_key(|iv| std::cmp::Reverse((iv.start, iv.end, iv.id)));
            IntervalCollection::new(c.id, intervals).unwrap()
        })
        .collect();
    for (name, backend) in LocalJoinBackend::all() {
        for spill in [false, true] {
            let mut config = engine(backend).config;
            if spill {
                config = config.with_shuffle_spill_threshold_bytes(0);
            }
            let engine = Tkij::new(config);
            let dataset = engine.prepare(collections.clone()).unwrap();
            let queries = [table1::q_om(PredicateParams::P1), self_join()];
            let solo: Vec<Fingerprint> = queries
                .iter()
                .map(|q| {
                    let report = engine.execute(&dataset, q, K).unwrap();
                    assert!(!spill || report.shuffle_stats().records_spilled > 0, "{name}");
                    report.fingerprint()
                })
                .collect();
            let server = engine.serve(dataset);
            for round in 0..2 {
                for (q, solo) in queries.iter().zip(&solo) {
                    let served = server.query(q, K).unwrap().fingerprint();
                    assert_eq!(&served, solo, "{name}, spill {spill}, round {round}");
                }
            }
        }
    }
}

#[test]
fn pool_holds_one_index_per_shipped_collection_bucket() {
    // Two shapes over one dataset sharing collection 0 — one of them a
    // self-join, whose two vertices read the same indexes. The pool is
    // keyed by (collection, bucket), so after serving both it holds
    // exactly the distinct pairs the two plans ship, on every backend.
    let queries = [table1::q_om(PredicateParams::P1), self_join()];
    for (name, backend) in LocalJoinBackend::all() {
        let engine = engine(backend);
        let dataset = engine.prepare(uniform_collections(3, 80, 555)).unwrap();
        let mut shipped = std::collections::BTreeSet::new();
        let mut solo = Vec::new();
        for q in &queries {
            let plan = engine.plan_query(&dataset, q, K).unwrap();
            let keys = plan.assignment.bucket_map.keys();
            shipped.extend(keys.map(|&(v, bucket)| (q.vertices[v as usize].0, bucket)));
            solo.push(engine.execute(&dataset, q, K).unwrap().fingerprint());
        }
        let server = engine.serve(dataset);
        for round in 0..2 {
            for (q, solo) in queries.iter().zip(&solo) {
                let served = server.query(q, K).unwrap().fingerprint();
                assert_eq!(&served, solo, "{name}, round {round}");
            }
            assert_eq!(server.index_pool_len(), shipped.len(), "{name}, round {round}");
        }
    }
}

#[test]
fn repeated_serving_runs_are_bit_identical() {
    // Two servers over identically prepared datasets serve the same
    // interleaved workload: every fingerprint and the final serving
    // counters must repeat exactly.
    let run = || {
        let engine = engine(LocalJoinBackend::default());
        let dataset = engine.prepare(uniform_collections(3, 80, 777)).unwrap();
        let server = engine.serve(dataset);
        let mut fps = Vec::new();
        for q in mixed_queries() {
            for _ in 0..2 {
                fps.push(server.query(&q, K).unwrap().fingerprint());
            }
        }
        (fps, server.stats())
    };
    let (fps_a, stats_a) = run();
    let (fps_b, stats_b) = run();
    assert_eq!(fps_a, fps_b);
    assert_eq!(stats_a, stats_b);
}
