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

/// Serves each of `queries` twice from one server, in memory and through
/// the spill path, asserting every served answer equals its solo run;
/// returns the solo reports of the in-memory pass.
fn assert_served_twice_like_solo(
    engine: &Tkij,
    collections: &[IntervalCollection],
    queries: &[Query],
) -> Vec<ExecutionReport> {
    let mut in_memory = Vec::new();
    for spill in [false, true] {
        let mut engine = engine.clone();
        if spill {
            engine.config = engine.config.with_shuffle_spill_threshold_bytes(0);
        }
        let dataset = engine.prepare(collections.to_vec()).unwrap();
        let solo: Vec<ExecutionReport> =
            queries.iter().map(|q| engine.execute(&dataset, q, K).unwrap()).collect();
        for report in &solo {
            assert_eq!(report.shuffle_stats().records_spilled > 0, spill);
        }
        let server = engine.serve(dataset);
        for round in 0..2 {
            for (q, solo) in queries.iter().zip(&solo) {
                let served = server.query(q, K).unwrap().fingerprint();
                assert_eq!(served, solo.fingerprint(), "spill {spill}, round {round}");
            }
        }
        assert_eq!(server.index_pool_len(), 0, "a server shares no indexes");
        if !spill {
            in_memory = solo;
        }
    }
    in_memory
}

#[test]
fn unsorted_storage_serves_like_solo() {
    // Collections stored in *descending* start order: no shipped slice
    // arrives canonically sorted, so every index build sorts its slice.
    // `q_om` and a self-join, whose two vertices read one collection.
    let reversed: Vec<IntervalCollection> = uniform_collections(3, 80, 555)
        .into_iter()
        .map(|c| {
            let mut intervals = c.intervals().to_vec();
            intervals.sort_unstable_by_key(|iv| std::cmp::Reverse((iv.start, iv.end, iv.id)));
            IntervalCollection::new(c.id, intervals).unwrap()
        })
        .collect();
    let queries = [table1::q_om(PredicateParams::P1), self_join()];
    assert_served_twice_like_solo(&engine(), &reversed, &queries);
}

#[test]
fn early_termination_leaves_shipped_slices_unopened() {
    // Dense data (~15 intervals per collection live at any timestamp) on
    // one reducer: 1.0 ties rank early, so the UB walk stops after a few
    // combinations and most shipped slices are never opened, indexed or
    // read — served or solo.
    let q = table1::q_om(PredicateParams::P1);
    let cfg =
        SyntheticConfig { size: 300, start_range: (0, 1_000), length_range: (1, 100), seed: 4242 };
    let dense: Vec<_> = (0..3).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(1));
    let shipped = {
        let dataset = engine.prepare(dense.clone()).unwrap();
        engine.plan_query(&dataset, &q, K).unwrap().assignment.bucket_map.len() as u64
    };
    let solo = assert_served_twice_like_solo(&engine, &dense, &[q]).remove(0);
    assert_eq!(solo.buckets_sweep(), shipped);
    let opened = solo.buckets_opened();
    assert!(0 < opened && opened < shipped, "{opened} of {shipped} shipped slices opened");
    assert!(solo.records_opened() < solo.join.total_shuffle_records());
}

#[test]
fn every_reducer_opens_only_slices_it_was_shipped() {
    // Six shapes and a self-join over one dataset: at each reducer the
    // opened slices are a subset of the shipped ones, and their records
    // a subset of the records shuffled to it. Serving changes none of it.
    let mut queries = mixed_queries();
    queries.push(self_join());
    let reports =
        assert_served_twice_like_solo(&engine(), &uniform_collections(3, 80, 555), &queries);
    for (q, report) in queries.iter().zip(&reports) {
        let received = &report.join.shuffle_records;
        assert_eq!(report.local_stats.len(), received.len(), "{}", q.name());
        assert!(report.buckets_opened() > 0, "{}: no slice opened", q.name());
        for (r, (stats, &received)) in report.local_stats.iter().zip(received).enumerate() {
            assert!(stats.buckets_opened <= stats.buckets_sweep, "{} reducer {r}", q.name());
            assert!(stats.records_opened <= received, "{} reducer {r}", q.name());
        }
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
