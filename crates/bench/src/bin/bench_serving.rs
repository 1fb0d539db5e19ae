//! CI serving-throughput probe: a pinned synthetic workload served as a
//! mixed stream of `table1` query families from fixed concurrent
//! threads against one shared `TkijServer`, emitting a flat JSON report
//! on stdout (the same shape as `bench_smoke`).
//!
//! Before timing anything, every query shape is run solo through
//! `Tkij::execute` and each served report is asserted **bit-identical**
//! to its solo reference — results (ids and score bits) and every work
//! counter — so the throughput number can never be bought with a
//! correctness or determinism regression. The serving counters (every
//! `ServingStats` counter, emitted as `serving_*` by walking its
//! `Counters` schema) are exact by construction: misses equal the
//! number of distinct shapes — far below the default plan-cache
//! capacity, so evictions pin at 0 — however the threads interleave,
//! and are gated exactly (integral
//! counters gate bit-for-bit); `serving_qps` (served queries per
//! second, best-of [`TIMED_REPS`] timed repetitions) is the wall-clock
//! throughput metric, gated with a generous floor (`bench_check` knows
//! `qps` keys are better-higher). The per-query latency percentiles
//! (`serving_p50_ms`/`serving_p95_ms`/`serving_p99_ms`, from the
//! server's log-spaced-bucket histogram over every served query) are
//! machine-dependent wall-clock artifacts: the `*_ms` suffix keeps them
//! out of the gate and the fingerprints by construction.
//!
//! Usage: `bench_serving` (no arguments; the gated configuration).
//!
//! Refresh the baseline by re-running both harnesses and re-gating —
//! see the "Serving layer" section of the README.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tkij_bench::emit::Report;
use tkij_core::{Fingerprint, Tkij, TkijConfig, TkijServer};
use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij_temporal::collection::CollectionId;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::query::{table1, Query};

/// Timed repetitions of the threaded serve phase (best-of).
const TIMED_REPS: usize = 3;
/// Concurrent query threads (fixed: the gated configuration).
const THREADS: usize = 4;
/// Full passes over the query mix each thread makes per repetition.
const ROUNDS: usize = 2;
/// Intervals per collection.
const SIZE: usize = 3_000;
/// Startpoint span (dense enough that probe work dominates).
const START_SPAN: i64 = 15_000;
const SEED: u64 = 4242;
const GRANULES: u32 = 12;
const REDUCERS: usize = 4;
const K: usize = 50;

/// The mixed `table1` query families every thread rotates through.
fn query_mix() -> Vec<(&'static str, Query)> {
    vec![
        ("q_om", table1::q_om(PredicateParams::P1)),
        ("q_oo", table1::q_oo(PredicateParams::P1)),
        ("q_sm", table1::q_sm(PredicateParams::P2)),
        ("q_ss", table1::q_ss(PredicateParams::P1)),
        ("q_ff", table1::q_ff(PredicateParams::P1)),
        ("q_bb", table1::q_bb(PredicateParams::P3)),
    ]
}

/// One timed repetition: every thread serves the full mix [`ROUNDS`]
/// times (offset rotation, so shapes interleave across threads), each
/// report checked against its solo reference. Returns the wall time.
fn serve_rep(
    server: &Arc<TkijServer>,
    queries: &[(&'static str, Query)],
    solo: &[Fingerprint],
) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let handle = server.handle();
            workers.push(scope.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..queries.len() {
                        let qi = (i + t + round) % queries.len();
                        let report = handle.query(&queries[qi].1, K).expect("serve");
                        assert_eq!(
                            report.fingerprint(),
                            solo[qi],
                            "served {} diverges from its solo reference",
                            queries[qi].0
                        );
                    }
                }
            }));
        }
        for worker in workers {
            worker.join().expect("serving thread");
        }
    });
    started.elapsed()
}

fn main() {
    let cfg = SyntheticConfig {
        size: SIZE,
        start_range: (0, START_SPAN),
        length_range: (1, 100),
        seed: SEED,
    };
    let collections: Vec<_> =
        (0..3u32).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::new(TkijConfig::default().with_granules(GRANULES).with_reducers(REDUCERS));
    let dataset = engine.prepare(collections).expect("prepare");

    // Solo references: each shape end-to-end through the single-query
    // engine path (also the warm-up).
    let queries = query_mix();
    let solo: Vec<Fingerprint> = queries
        .iter()
        .map(|(_, q)| engine.execute(&dataset, q, K).expect("solo").fingerprint())
        .collect();

    let server = Arc::new(engine.serve(dataset));
    let mut best = Duration::MAX;
    for _ in 0..TIMED_REPS {
        best = best.min(serve_rep(&server, &queries, &solo));
    }

    let stats = server.stats();
    let per_rep = (THREADS * ROUNDS * queries.len()) as u64;
    let shapes = queries.len() as u64;
    // The serving counters are deterministic: one miss per distinct
    // shape (the plan-cache OnceLock construction), hits for every
    // repeat, regardless of thread interleaving — and the mix is far
    // below the default cache capacity, so nothing is ever evicted.
    assert_eq!(stats.queries, per_rep * TIMED_REPS as u64, "every query counted");
    assert_eq!(stats.plan_cache_misses, shapes, "one miss per distinct shape");
    assert_eq!(stats.plan_cache_hits, stats.queries - shapes, "hits are the repeats");
    assert_eq!(stats.plan_cache_evictions, 0, "the mix fits the bounded cache");
    assert!(shapes <= server.plan_cache_capacity() as u64, "the gated mix must fit the cache");
    assert_eq!(server.plan_cache_len(), queries.len());
    assert!(server.index_pool_len() > 0, "the shared index pool filled");
    let latency = server.latency();
    assert_eq!(latency.samples, stats.queries, "every served query lands in the histogram");
    assert!(
        latency.p50_ms <= latency.p95_ms && latency.p95_ms <= latency.p99_ms,
        "percentiles are monotone"
    );

    let wall_ms = best.as_secs_f64() * 1e3;
    let qps = per_rep as f64 / best.as_secs_f64().max(1e-9);

    let mut out = Report::default();
    out.push("serving_qps", format!("{qps:.3}"));
    out.push("serving_wall_ms", format!("{wall_ms:.3}"));
    out.counters("serving", &stats);
    // Latency percentiles: artifact-only (`*_ms` keys never gate and
    // never enter a fingerprint) — the paper's §4 response-time view of
    // the same runs the counters above pin exactly.
    out.push("serving_p50_ms", format!("{:.3}", latency.p50_ms));
    out.push("serving_p95_ms", format!("{:.3}", latency.p95_ms));
    out.push("serving_p99_ms", format!("{:.3}", latency.p99_ms));

    let names: Vec<&str> = queries.iter().map(|(n, _)| *n).collect();
    out.print(&format!(
        "\"collections\": 3, \"size\": {SIZE}, \"start_span\": {START_SPAN}, \
         \"granules\": {GRANULES}, \"reducers\": {REDUCERS}, \"k\": {K}, \"seed\": {SEED}, \
         \"threads\": {THREADS}, \"rounds\": {ROUNDS}, \"reps\": {TIMED_REPS}, \
         \"queries\": \"{}\"",
        names.join("+")
    ));
}
