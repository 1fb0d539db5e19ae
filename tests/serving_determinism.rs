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
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
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

fn engine() -> Tkij {
    Tkij::new(TkijConfig::default().with_granules(6).with_reducers(4))
}

/// Serves every query `ROUNDS` times from each of `threads` concurrent
/// handles (each thread starts the rotation at its own offset, so
/// different shapes genuinely interleave), asserting every served
/// report reproduces its solo reference bit for bit. With `spill`, every
/// job runs the serialized shuffle at threshold 0.
fn assert_serving_matches_solo(threads: usize, spill: bool) {
    let mut engine = engine();
    if spill {
        engine.config = engine.config.with_shuffle_spill_threshold_bytes(0);
    }
    let dataset = engine.prepare(uniform_collections(3, 80, 555)).unwrap();
    let queries = mixed_queries();
    let solo: Vec<Fingerprint> = queries
        .iter()
        .map(|q| {
            let report = engine.execute(&dataset, q, K).unwrap();
            assert_eq!(report.shuffle_stats().records_spilled > 0, spill);
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
                    "threads {threads}, spill {spill}: served query {qi} diverges from its solo \
                     fingerprint"
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
            assert_serving_matches_solo(threads, spill);
        }
    }
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
    // arrives canonically sorted. The first served answer builds every
    // index (`SweepIndex::build` sorts its copy); the second is all pool
    // hits and sorts nothing. Both must equal the solo run, in memory and
    // through the spill path.
    let collections: Vec<IntervalCollection> = uniform_collections(3, 80, 555)
        .into_iter()
        .map(|c| {
            let mut intervals = c.intervals().to_vec();
            intervals.sort_unstable_by_key(|iv| std::cmp::Reverse((iv.start, iv.end, iv.id)));
            IntervalCollection::new(c.id, intervals).unwrap()
        })
        .collect();
    for spill in [false, true] {
        let mut engine = engine();
        if spill {
            engine.config = engine.config.with_shuffle_spill_threshold_bytes(0);
        }
        let dataset = engine.prepare(collections.clone()).unwrap();
        let queries = [table1::q_om(PredicateParams::P1), self_join()];
        let solo: Vec<Fingerprint> = queries
            .iter()
            .map(|q| {
                let report = engine.execute(&dataset, q, K).unwrap();
                assert!(!spill || report.shuffle_stats().records_spilled > 0);
                report.fingerprint()
            })
            .collect();
        let server = engine.serve(dataset);
        for round in 0..2 {
            for (q, solo) in queries.iter().zip(&solo) {
                let served = server.query(q, K).unwrap().fingerprint();
                assert_eq!(&served, solo, "spill {spill}, round {round}");
            }
        }
    }
}

#[test]
fn pool_holds_one_index_per_opened_collection_bucket() {
    // Two shapes over one dataset sharing collection 0 — one of them a
    // self-join, whose two vertices read the same indexes. The pool is
    // keyed by (collection, bucket) and gains an entry only when a
    // reducer opens a shipped slice: after serving both it holds no more
    // than the distinct pairs the two plans ship, nor than the opens the
    // solo runs count, and no fewer than any one reducer of `q_om` (three
    // collections) opened. A second round opens the same buckets.
    let queries = [table1::q_om(PredicateParams::P1), self_join()];
    let engine = engine();
    let dataset = engine.prepare(uniform_collections(3, 80, 555)).unwrap();
    let mut shipped = std::collections::BTreeSet::new();
    let mut solo = Vec::new();
    let mut opened = 0;
    for q in &queries {
        let plan = engine.plan_query(&dataset, q, K).unwrap();
        let keys = plan.assignment.bucket_map.keys();
        shipped.extend(keys.map(|&(v, bucket)| (q.vertices[v as usize].0, bucket)));
        let report = engine.execute(&dataset, q, K).unwrap();
        opened += report.buckets_opened();
        solo.push(report);
    }
    let busiest = solo[0].local_stats.iter().map(|s| s.buckets_opened).max().unwrap();
    let server = engine.serve(dataset);
    let mut pooled = None;
    for round in 0..2 {
        for (q, solo) in queries.iter().zip(&solo) {
            let served = server.query(q, K).unwrap().fingerprint();
            assert_eq!(served, solo.fingerprint(), "round {round}");
        }
        let len = server.index_pool_len();
        assert!(busiest as usize <= len && len as u64 <= opened, "round {round}: {len}");
        assert!(len <= shipped.len(), "round {round}: {len} of {}", shipped.len());
        assert_eq!(*pooled.get_or_insert(len), len, "round {round}: the pool grew");
    }
}

#[test]
fn early_termination_leaves_shipped_buckets_out_of_the_pool() {
    // Dense data (~15 intervals per collection live at any timestamp)
    // ranks 1.0 ties early, so the one reducer's UB walk stops after a
    // few combinations and most shipped buckets are never opened, indexed
    // or pooled. `q_om` reads three collections, so every opened (vertex,
    // bucket) is its own pool entry: the pool holds exactly the opened
    // buckets.
    let q = table1::q_om(PredicateParams::P1);
    let cfg =
        SyntheticConfig { size: 300, start_range: (0, 1_000), length_range: (1, 100), seed: 4242 };
    let collections = (0..3).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(1));
    let dataset = engine.prepare(collections).unwrap();
    let shipped = engine.plan_query(&dataset, &q, K).unwrap().assignment.bucket_map.len();
    let solo = engine.execute(&dataset, &q, K).unwrap();
    assert_eq!(solo.buckets_sweep(), shipped as u64);
    let server = engine.serve(dataset);
    for round in 0..2 {
        assert_eq!(server.query(&q, K).unwrap().fingerprint(), solo.fingerprint(), "round {round}");
        let len = server.index_pool_len();
        assert_eq!(len as u64, solo.buckets_opened(), "round {round}");
        assert!(len < shipped, "round {round}: every one of {shipped} shipped buckets opened");
    }
}

#[test]
fn repeated_serving_runs_are_bit_identical() {
    // Two servers over identically prepared datasets serve the same
    // interleaved workload: every fingerprint and the final serving
    // counters must repeat exactly.
    let run = || {
        let engine = engine();
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
