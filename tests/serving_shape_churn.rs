//! Shape-churn battery for the bounded plan cache: a server whose
//! workload cycles through **more distinct query shapes than the cache
//! holds** must stay within its capacity at every step, evict in a
//! deterministic LRU order under serial access, and still serve every
//! query bit-identical to its solo `Tkij::execute` reference — an
//! evicted plan is recomputed, never a different plan.
//!
//! Capacity 0 keeps the pre-bounded behavior (never evicts), and the
//! default capacity is large enough that the other batteries' mixes
//! never churn — which is what lets `bench_serving` pin evictions at 0.

use tkij::prelude::*;

/// Distinct plan shapes: the cache key includes `k`, so one query
/// family at `SHAPES` different result sizes churns through `SHAPES`
/// distinct cache entries without changing the probe workload much.
const SHAPES: usize = 8;

fn churn_queries() -> Vec<(Query, usize)> {
    (1..=SHAPES).map(|k| (table1::q_om(PredicateParams::P1), k)).collect()
}

fn engine(capacity: usize) -> Tkij {
    Tkij::new(
        TkijConfig::default().with_granules(6).with_reducers(4).with_plan_cache_capacity(capacity),
    )
}

#[test]
fn churn_stays_within_capacity_and_matches_solo() {
    // More distinct shapes than the cache holds, several passes: the
    // cache must never exceed its capacity at *any* step, every shape
    // must miss on every pass (sequential churn through 8 shapes in a
    // 3-slot LRU evicts each shape before its next use), and every
    // served report must still reproduce its solo reference bit for
    // bit — eviction only costs a re-plan, never changes a plan.
    const CAPACITY: usize = 3;
    const PASSES: usize = 3;
    let engine = engine(CAPACITY);
    let dataset = engine.prepare(uniform_collections(3, 80, 555)).unwrap();
    let queries = churn_queries();
    let solo: Vec<Fingerprint> = queries
        .iter()
        .map(|(q, k)| engine.execute(&dataset, q, *k).unwrap().fingerprint())
        .collect();

    let server = engine.serve(dataset);
    assert_eq!(server.plan_cache_capacity(), CAPACITY);
    for _ in 0..PASSES {
        for (i, (q, k)) in queries.iter().enumerate() {
            let report = server.query(q, *k).unwrap();
            assert!(
                server.plan_cache_len() <= CAPACITY,
                "cache grew past its capacity after shape {i}: {} > {CAPACITY}",
                server.plan_cache_len()
            );
            assert_eq!(report.fingerprint(), solo[i], "churned shape {i} diverges from solo");
        }
    }

    let stats = server.stats();
    let total = (PASSES * SHAPES) as u64;
    assert_eq!(stats.queries, total);
    assert_eq!(stats.plan_cache_misses, total, "every pass re-misses every evicted shape");
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.plan_cache_evictions, total - CAPACITY as u64);
    assert_eq!(server.plan_cache_len(), CAPACITY);
}

#[test]
fn eviction_sequence_is_deterministic_across_runs() {
    // Two servers over identically prepared datasets serve the same
    // serial churn workload: the full stats snapshot — including the
    // eviction count — and every fingerprint must repeat exactly.
    let run = || {
        let engine = engine(2);
        let dataset = engine.prepare(uniform_collections(3, 80, 777)).unwrap();
        let server = engine.serve(dataset);
        let mut fps = Vec::new();
        for _ in 0..2 {
            for (q, k) in churn_queries() {
                fps.push(server.query(&q, k).unwrap().fingerprint());
            }
        }
        (fps, server.stats(), server.plan_cache_len())
    };
    let (fps_a, stats_a, len_a) = run();
    let (fps_b, stats_b, len_b) = run();
    assert_eq!(fps_a, fps_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(len_a, len_b);
    assert!(stats_a.plan_cache_evictions > 0, "the churn workload must actually evict");
}

#[test]
fn lru_keeps_hot_shapes_served() {
    // Server-level LRU semantics: with capacity 2, re-touching shape A
    // before inserting C makes B the victim — A stays a hit, B
    // re-misses. Counters pin the exact hit/miss/eviction sequence.
    let engine = engine(2);
    let dataset = engine.prepare(uniform_collections(3, 60, 111)).unwrap();
    let server = engine.serve(dataset);
    let q = table1::q_om(PredicateParams::P1);

    server.query(&q, 1).unwrap(); // A: miss
    server.query(&q, 2).unwrap(); // B: miss
    server.query(&q, 1).unwrap(); // A: hit (now most recent)
    server.query(&q, 3).unwrap(); // C: miss, evicts B (LRU)
    server.query(&q, 1).unwrap(); // A: hit — survived the eviction
    server.query(&q, 2).unwrap(); // B: re-miss, evicts C

    let stats = server.stats();
    assert_eq!(stats.queries, 6);
    assert_eq!(stats.plan_cache_hits, 2);
    assert_eq!(stats.plan_cache_misses, 4);
    assert_eq!(stats.plan_cache_evictions, 2);
    assert_eq!(server.plan_cache_len(), 2);
}

#[test]
fn zero_capacity_is_unbounded() {
    // Capacity 0 preserves the pre-bounded behavior: every distinct
    // shape stays cached and nothing is ever evicted.
    let engine = engine(0);
    let dataset = engine.prepare(uniform_collections(3, 60, 222)).unwrap();
    let server = engine.serve(dataset);
    assert_eq!(server.plan_cache_capacity(), 0);
    for _ in 0..2 {
        for (q, k) in churn_queries() {
            server.query(&q, k).unwrap();
        }
    }
    let stats = server.stats();
    assert_eq!(stats.plan_cache_misses, SHAPES as u64, "one miss per shape, no churn");
    assert_eq!(stats.plan_cache_hits, SHAPES as u64, "the second pass hits every shape");
    assert_eq!(stats.plan_cache_evictions, 0);
    assert_eq!(server.plan_cache_len(), SHAPES);
}
