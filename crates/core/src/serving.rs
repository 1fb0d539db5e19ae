//! The serving layer: many concurrent queries over one shared,
//! immutable [`PreparedDataset`].
//!
//! The paper's pipeline evaluates one query end-to-end; a production
//! deployment amortizes the offline work across millions of requests.
//! This module splits the engine's lifecycle accordingly:
//!
//! * **Prepare once** — [`Tkij::prepare`] collects statistics; wrapping
//!   the result in a [`TkijServer`] freezes dataset, configuration, and
//!   cluster shape into shared immutable state.
//! * **Query many** — any number of threads call [`TkijServer::query`]
//!   concurrently, each on a shared reference or a cheap clone. Each query gets
//!   its own top-k heap, work counters, and [`ExecutionReport`]; the
//!   *shared* state is strictly read-only.
//!
//! Two caches make repeated shapes cheap without touching a single
//! result bit:
//!
//! * a **bounded plan cache** ([`crate::plancache::PlanCache`]) keyed
//!   by [`PlanKey`] — the canonical query graph and `k` (a server has
//!   one configuration) — so repeated query shapes skip
//!   TopBuckets planning and distribution entirely. Planning is a pure
//!   deterministic function of (dataset statistics, query, k, config),
//!   so a cached [`QueryPlan`](crate::engine::QueryPlan) is
//!   bit-identical to a freshly computed
//!   one. [`TkijConfig::plan_cache_capacity`] bounds the cache against
//!   adversarial shape churn: beyond it the least-recently-used shape
//!   is evicted (deterministic LRU on a monotone logical access stamp)
//!   and simply re-planned when requested again.
//! * a shared **index pool** ([`IndexPools`]) holding one immutable
//!   index per (collection, bucket): reducers of every query reuse them
//!   instead of rebuilding. Pool contents are query-independent (each
//!   entry indexes the full canonical bucket slice), so probe order and
//!   every examined-item counter match a per-query build exactly.
//!
//! The determinism contract therefore extends to serving: a query's
//! results and work-counter fingerprint are bit-identical whether it
//! runs solo through [`Tkij::execute`], repeated through a server, or
//! interleaved with other queries from any number of threads — locked
//! by `tests/serving_determinism.rs` and `tests/serving_shape_churn.rs`.
//! Only the serving counters themselves ([`ServingStats`]) are new, and
//! they are deterministic too: with the cache enabled and no evictions,
//! misses equal the number of *distinct* served shapes and hits the
//! remainder, regardless of thread interleaving; under churn past the
//! capacity, every counter is still an exact function of the serial
//! access order.
//!
//! The paper frames its whole evaluation (§4) in per-query response
//! time, so the server also keeps **latency observability**: each
//! query's wall latency lands in a fixed log-spaced-bucket histogram
//! ([`LatencySnapshot`] extracts p50/p95/p99). Latency is the one
//! deliberately *non*-deterministic artifact here — it feeds only
//! `*_ms` metrics, never a result, counter, or pin.

use crate::bucketindex::IndexPools;
use crate::config::TkijConfig;
use crate::engine::{ExecutionReport, Tkij};
use crate::plancache::PlanCache;
use crate::stats::PreparedDataset;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tkij_mapreduce::Counters;
use tkij_temporal::error::TemporalError;
use tkij_temporal::query::Query;

/// The plan-cache key: one entry per served query *shape*.
///
/// The query graph is keyed by its canonical `Debug` rendering —
/// `Query` carries `f64` predicate parameters (no `Eq`/`Ord`), and
/// Rust's float `Debug` prints the shortest round-tripping decimal, so
/// the rendering is injective: equal strings ⇔ structurally equal
/// queries. The rest of what determines a plan, the configuration, is
/// fixed per server.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Canonical rendering of the query graph (vertices, edges,
    /// predicates, aggregation).
    pub query_graph: String,
    /// Result budget the plan was made for (TopBuckets prunes against
    /// it, so different `k` need different plans).
    pub k: usize,
}

impl PlanKey {
    /// The key under which a server caches plans for `(query, k)`.
    pub fn new(query: &Query, k: usize) -> Self {
        PlanKey { query_graph: format!("{query:?}"), k }
    }
}

/// Snapshot of a server's serving counters ([`TkijServer::stats`]).
///
/// All three are deterministic work counters (never timings): for a
/// given multiset of served queries they are independent of thread
/// count and interleaving, so the serving tests pin them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries served (successful [`TkijServer::query`] calls;
    /// validation rejects are not counted).
    pub queries: u64,
    /// Served queries whose plan came from the cache. With the cache
    /// enabled this is exactly `queries − distinct shapes`, however the
    /// callers interleave.
    pub plan_cache_hits: u64,
    /// Served queries that computed a fresh plan — one per distinct
    /// [`PlanKey`] while no shape has been evicted (or every query,
    /// with the cache disabled); an evicted shape misses again on its
    /// next request.
    pub plan_cache_misses: u64,
    /// Shapes evicted from the bounded plan cache (LRU order). Always
    /// `0` while distinct served shapes stay within
    /// [`TkijConfig::plan_cache_capacity`]; under churn past the bound
    /// it is an exact function of the serial access order.
    pub plan_cache_evictions: u64,
}

impl Counters for ServingStats {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let ServingStats { queries, plan_cache_hits, plan_cache_misses, plan_cache_evictions } =
            self;
        f("queries", *queries);
        f("plan_cache_hits", *plan_cache_hits);
        f("plan_cache_misses", *plan_cache_misses);
        f("plan_cache_evictions", *plan_cache_evictions);
    }
}

/// How many log-spaced latency buckets the serving histogram keeps:
/// powers of two from 1 µs up (the last bucket is open-ended), covering
/// ~1 µs to ~9 minutes in fixed space.
pub const LATENCY_BUCKETS: usize = 40;

/// Per-query wall-latency percentiles extracted from the server's
/// fixed log-spaced-bucket histogram ([`TkijServer::latency`]).
///
/// Each percentile is the *upper bound* of the histogram bucket holding
/// that rank (conservative: never under-reports), in milliseconds.
/// Latency is wall-clock telemetry — an artifact, never part of the
/// determinism contract: no fingerprint or pinned counter reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySnapshot {
    /// Median per-query latency (bucket upper bound), ms.
    pub p50_ms: f64,
    /// 95th-percentile latency (bucket upper bound), ms.
    pub p95_ms: f64,
    /// 99th-percentile latency (bucket upper bound), ms.
    pub p99_ms: f64,
    /// Queries recorded (equals [`ServingStats::queries`]).
    pub samples: u64,
}

/// Fixed log-spaced histogram of per-query wall latencies: bucket `i`
/// spans `(2^(i−1), 2^i]` µs, the last bucket is open-ended. Plain
/// `u64` counts behind the one serving mutex that is not on the query
/// hot path's lock-free counters — recording is one lock + one
/// increment per served query, negligible against the query itself.
#[derive(Debug)]
struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    samples: u64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram { counts: [0; LATENCY_BUCKETS], samples: 0 }
    }

    fn record(&mut self, micros: u128) {
        // First bucket whose upper bound 2^i µs holds `micros` — i.e.
        // `⌈log₂ micros⌉`; everything past the range lands in the
        // open-ended last bucket.
        let ceil_log2 = if micros <= 1 { 0 } else { 128 - (micros - 1).leading_zeros() as usize };
        self.counts[ceil_log2.min(LATENCY_BUCKETS - 1)] += 1;
        self.samples += 1;
    }

    /// Upper bound (ms) of the bucket containing the `q`-quantile rank.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Bucket i's upper bound is 2^i µs.
                return 2f64.powi(i as i32) / 1e3;
            }
        }
        unreachable!("ranks are clamped to the recorded sample count")
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            p50_ms: self.quantile_ms(0.50),
            p95_ms: self.quantile_ms(0.95),
            p99_ms: self.quantile_ms(0.99),
            samples: self.samples,
        }
    }
}

/// Shared immutable state behind a server and all its clones.
#[derive(Debug)]
struct ServerInner {
    engine: Tkij,
    dataset: PreparedDataset,
    /// Bounded plan cache: each key's slot is created (and the LRU
    /// bookkeeping done) under the cache's own lock, but the
    /// (expensive) plan is computed inside the slot's `OnceLock` —
    /// concurrent first requests for one shape serialize on the slot,
    /// exactly one computes (the miss), and the cache lock is never
    /// held across planning.
    plans: PlanCache,
    pools: IndexPools,
    /// Per-query wall-latency histogram — pure observability; see
    /// [`LatencySnapshot`].
    latency: Mutex<LatencyHistogram>,
    // Monotone event counters. Relaxed ordering suffices for all three:
    // each is independently incremented and only ever read as a
    // point-in-time snapshot (`stats`); no other memory is published
    // through them, and their totals are interleaving-independent by
    // the OnceLock construction above (as long as nothing is evicted;
    // under eviction churn they follow the serial access order).
    queries: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
}

impl ServerInner {
    fn query(&self, query: &Query, k: usize) -> Result<ExecutionReport, TemporalError> {
        self.engine.validate(&self.dataset, query, k)?;
        // Ordering rationale: Relaxed — monotone counter, see field docs.
        self.queries.fetch_add(1, Ordering::Relaxed);
        #[allow(
            clippy::disallowed_methods,
            reason = "feeds only LatencySnapshot::{p50_ms, p95_ms, p99_ms}, timing fields"
        )]
        let started = std::time::Instant::now();

        // The plan is the cached slot's (computed by exactly one of the
        // slot's concurrent first requesters) or, cache disabled, fresh.
        let slot = if self.engine.config.plan_cache {
            self.plans.slot(PlanKey::new(query, k))
        } else {
            Arc::default()
        };
        let mut fresh = false;
        let plan = slot.get_or_init(|| {
            fresh = true;
            self.engine.plan_query(&self.dataset, query, k).expect("validated above")
        });
        // Ordering rationale: Relaxed — monotone counters, see field
        // docs. `get_or_init` guarantees exactly one closure run per
        // slot, so misses = distinct shapes deterministically (every
        // query, with the cache disabled: its slot is its own).
        if fresh {
            self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let report = self.engine.execute_planned_impl(&self.dataset, plan, Some(&self.pools));
        self.latency.lock().record(started.elapsed().as_micros());
        Ok(report)
    }

    fn stats(&self) -> ServingStats {
        // Ordering rationale: Relaxed loads — point-in-time snapshot of
        // independent monotone counters, see field docs.
        ServingStats {
            queries: self.queries.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            plan_cache_evictions: self.plans.evictions(),
        }
    }
}

/// A prepared, immutable TKIJ serving instance: one engine
/// configuration + cluster shape + [`PreparedDataset`], shared by any
/// number of concurrent queriers.
///
/// ```
/// use std::sync::Arc;
/// use tkij_core::serving::TkijServer;
/// use tkij_core::{Tkij, TkijConfig};
/// use tkij_datagen::uniform_collections;
/// use tkij_temporal::params::PredicateParams;
/// use tkij_temporal::query::table1;
///
/// let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
/// let dataset = engine.prepare(uniform_collections(3, 120, 42)).unwrap();
/// let server = Arc::new(engine.serve(dataset));
///
/// // Any number of threads may query concurrently; results are
/// // bit-identical to running each query alone.
/// let query = table1::q_om(PredicateParams::P1);
/// std::thread::scope(|scope| {
///     for _ in 0..2 {
///         let server = Arc::clone(&server);
///         let query = query.clone();
///         scope.spawn(move || {
///             let report = server.query(&query, 5).unwrap();
///             assert_eq!(report.results.len(), 5);
///         });
///     }
/// });
/// let stats = server.stats();
/// assert_eq!(stats.queries, 2);
/// assert_eq!(stats.plan_cache_misses, 1, "one distinct shape");
/// assert_eq!(stats.plan_cache_hits, 1);
/// ```
///
/// Clones are cheap and share the dataset, plan cache, index pool and
/// counters.
#[derive(Debug, Clone)]
pub struct TkijServer {
    inner: Arc<ServerInner>,
}

impl TkijServer {
    /// Freezes an engine and a prepared dataset into a serving instance
    /// (also reachable as [`Tkij::serve`]). Caches start empty and fill
    /// lazily as queries arrive.
    pub fn new(engine: Tkij, dataset: PreparedDataset) -> Self {
        let capacity = engine.config.plan_cache_capacity;
        TkijServer {
            inner: Arc::new(ServerInner {
                engine,
                dataset,
                plans: PlanCache::new(capacity),
                pools: IndexPools::new(),
                latency: Mutex::new(LatencyHistogram::new()),
                queries: AtomicU64::new(0),
                plan_cache_hits: AtomicU64::new(0),
                plan_cache_misses: AtomicU64::new(0),
            }),
        }
    }

    /// Serves one query: plans (or replays a cached plan), runs the
    /// distributed join and merge, and returns the full
    /// [`ExecutionReport`] — bit-identical, results and work counters,
    /// to [`Tkij::execute`] on the same inputs.
    pub fn query(&self, query: &Query, k: usize) -> Result<ExecutionReport, TemporalError> {
        self.inner.query(query, k)
    }

    /// A clone sharing this server's state — the thing to hand each
    /// worker thread of a request loop.
    pub fn handle(&self) -> TkijServer {
        self.clone()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServingStats {
        self.inner.stats()
    }

    /// The shared prepared dataset queries run against.
    pub fn dataset(&self) -> &PreparedDataset {
        &self.inner.dataset
    }

    /// The frozen engine configuration.
    pub fn config(&self) -> &TkijConfig {
        &self.inner.engine.config
    }

    /// Distinct query shapes currently in the plan cache — never more
    /// than [`TkijConfig::plan_cache_capacity`] when that bound is set.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plans.len()
    }

    /// The plan cache's configured capacity (`0` = unbounded).
    pub fn plan_cache_capacity(&self) -> usize {
        self.inner.plans.capacity()
    }

    /// Per-query wall-latency percentiles recorded so far (p50/p95/p99
    /// over every query served by this server and its clones).
    pub fn latency(&self) -> LatencySnapshot {
        self.inner.latency.lock().snapshot()
    }

    /// Indexes currently in the shared (collection, bucket) pool: one per
    /// bucket some served query's reducer opened.
    pub fn index_pool_len(&self) -> usize {
        self.inner.pools.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_datagen::uniform_collections;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn server() -> TkijServer {
        let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(4));
        let dataset = engine.prepare(uniform_collections(3, 80, 7)).unwrap();
        engine.serve(dataset)
    }

    #[test]
    fn served_query_matches_solo_execute() {
        let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(4));
        let dataset = engine.prepare(uniform_collections(3, 80, 7)).unwrap();
        let q = table1::q_om(PredicateParams::P1);
        let solo = engine.execute(&dataset, &q, 6).unwrap();
        let srv = engine.serve(dataset);
        for _ in 0..2 {
            let served = srv.query(&q, 6).unwrap();
            assert_eq!(served.results.len(), solo.results.len());
            for (a, b) in served.results.iter().zip(&solo.results) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.ids, b.ids);
            }
            assert_eq!(served.local_stats, solo.local_stats);
            assert_eq!(served.topbuckets.selected, solo.topbuckets.selected);
        }
        assert_eq!(
            srv.stats(),
            ServingStats {
                queries: 2,
                plan_cache_hits: 1,
                plan_cache_misses: 1,
                plan_cache_evictions: 0
            }
        );
        assert_eq!(srv.plan_cache_len(), 1);
        assert!(srv.index_pool_len() > 0, "the pool filled");
    }

    #[test]
    fn distinct_shapes_miss_distinctly() {
        let srv = server();
        let q1 = table1::q_om(PredicateParams::P1);
        let q2 = table1::q_oo(PredicateParams::P1);
        srv.query(&q1, 5).unwrap();
        srv.query(&q2, 5).unwrap();
        srv.query(&q1, 5).unwrap();
        srv.query(&q1, 6).unwrap(); // same graph, different k: its own plan
        let stats = srv.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.plan_cache_misses, 3);
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(srv.plan_cache_len(), 3);
    }

    #[test]
    fn disabled_cache_counts_every_query_as_miss() {
        let engine =
            Tkij::new(TkijConfig::default().with_granules(6).with_reducers(4).without_plan_cache());
        let dataset = engine.prepare(uniform_collections(3, 60, 9)).unwrap();
        let srv = engine.serve(dataset);
        let q = table1::q_om(PredicateParams::P1);
        let first = srv.query(&q, 5).unwrap();
        let second = srv.query(&q, 5).unwrap();
        assert_eq!(first.results, second.results);
        assert_eq!(
            srv.stats(),
            ServingStats {
                queries: 2,
                plan_cache_hits: 0,
                plan_cache_misses: 2,
                plan_cache_evictions: 0
            }
        );
        assert_eq!(srv.plan_cache_len(), 0);
    }

    #[test]
    fn invalid_queries_are_rejected_and_uncounted() {
        let srv = server();
        let q = table1::q_om(PredicateParams::P1);
        assert!(srv.query(&q, 0).is_err(), "k = 0 rejected");
        assert_eq!(srv.stats(), ServingStats::default());
    }

    #[test]
    fn handles_share_state() {
        let srv = server();
        let handle = srv.handle();
        let q = table1::q_sm(PredicateParams::P2);
        handle.query(&q, 4).unwrap();
        handle.clone().query(&q, 4).unwrap();
        assert_eq!(srv.stats(), handle.stats());
        assert_eq!(srv.stats().plan_cache_hits, 1);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(3); // bucket 2: (2, 4] µs
        }
        for _ in 0..5 {
            h.record(1000); // bucket 10: (512, 1024] µs
        }
        let snap = h.snapshot();
        assert_eq!(snap.samples, 105);
        assert_eq!(snap.p50_ms, 0.004, "median in the 4 µs bucket");
        assert_eq!(snap.p95_ms, 0.004, "rank 100 still in the 4 µs bucket");
        assert_eq!(snap.p99_ms, 1.024, "rank 104 reaches the 1024 µs bucket");
    }

    #[test]
    fn histogram_edges() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.snapshot(), LatencySnapshot::default(), "empty snapshot is all zeros");
        h.record(0); // sub-µs: first bucket
        h.record(1);
        h.record(2);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        h.record(u128::MAX); // far past the range: open-ended last bucket
        assert_eq!(h.counts[LATENCY_BUCKETS - 1], 1);
        let single = {
            let mut h = LatencyHistogram::new();
            h.record(300);
            h.snapshot()
        };
        // One sample: every percentile is its bucket's upper bound.
        assert_eq!((single.p50_ms, single.p95_ms, single.p99_ms), (0.512, 0.512, 0.512));
    }

    #[test]
    fn server_records_latency_for_every_query() {
        let srv = server();
        let q = table1::q_om(PredicateParams::P1);
        for _ in 0..3 {
            srv.query(&q, 5).unwrap();
        }
        let snap = srv.latency();
        assert_eq!(snap.samples, srv.stats().queries);
        assert!(snap.p50_ms > 0.0, "a real query takes measurable time");
        assert!(snap.p50_ms <= snap.p95_ms && snap.p95_ms <= snap.p99_ms);
        assert_eq!(srv.handle().latency(), snap, "handles see the shared histogram");
    }

    #[test]
    fn bounded_cache_evicts_lru_shapes() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(6).with_reducers(4).with_plan_cache_capacity(2),
        );
        let dataset = engine.prepare(uniform_collections(3, 80, 7)).unwrap();
        let srv = engine.serve(dataset);
        assert_eq!(srv.plan_cache_capacity(), 2);
        let q = table1::q_om(PredicateParams::P1);
        for k in 1..=4 {
            srv.query(&q, k).unwrap();
            assert!(srv.plan_cache_len() <= 2);
        }
        let stats = srv.stats();
        assert_eq!(stats.plan_cache_misses, 4, "four distinct shapes");
        assert_eq!(stats.plan_cache_evictions, 2, "k=1 and k=2 were evicted");
        // k=4 is the most recent shape: a repeat hits...
        srv.query(&q, 4).unwrap();
        assert_eq!(srv.stats().plan_cache_hits, 1);
        // ... while the evicted k=1 misses again (and re-enters).
        srv.query(&q, 1).unwrap();
        let stats = srv.stats();
        assert_eq!(stats.plan_cache_misses, 5);
        assert_eq!(stats.plan_cache_evictions, 3);
    }

    #[test]
    fn plan_key_is_injective_across_table1() {
        let avg = 40;
        let mut keys = std::collections::BTreeSet::new();
        for (_, q) in table1::all(PredicateParams::P1, avg) {
            keys.insert(PlanKey::new(&q, 10));
        }
        assert_eq!(keys.len(), table1::all(PredicateParams::P1, avg).len());
        // Parameter changes change the key too.
        let a = PlanKey::new(&table1::q_om(PredicateParams::P1), 10);
        let b = PlanKey::new(&table1::q_om(PredicateParams::P2), 10);
        assert_ne!(a, b);
    }
}
