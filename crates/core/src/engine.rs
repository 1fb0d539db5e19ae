//! The TKIJ engine: orchestration of the full pipeline of paper Fig. 5
//! and the [`ExecutionReport`] the evaluation section reads its numbers
//! from.

use crate::combos::{ComboSet, TopBucketsStats};
use crate::config::{DistributionPolicy, Strategy, TkijConfig};
use crate::distribute::{distribute, Assignment};
use crate::joinphase::run_join_phase_impl;
use crate::localjoin::LocalJoinStats;
use crate::merge::run_merge_phase;
use crate::stats::{collect_statistics, PreparedDataset};
use crate::topbuckets::run_topbuckets;
use std::time::Duration;
use tkij_mapreduce::{
    ClusterConfig, Counters, JobMetrics, ShuffleMode, ShuffleStats, SpillSinkKind,
};
use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::error::TemporalError;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

/// The TKIJ query engine.
///
/// ```
/// use tkij_core::{Tkij, TkijConfig};
/// use tkij_datagen::uniform_collections;
/// use tkij_temporal::params::PredicateParams;
/// use tkij_temporal::query::table1;
///
/// let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
/// let dataset = engine.prepare(uniform_collections(3, 200, 42)).unwrap();
/// let query = table1::q_om(PredicateParams::P1);
/// let report = engine.execute(&dataset, &query, 10).unwrap();
/// assert_eq!(report.results.len(), 10);
/// assert!(report.results.windows(2).all(|w| w[0].score >= w[1].score));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tkij {
    /// Algorithmic configuration.
    pub config: TkijConfig,
    /// Simulated cluster shape.
    pub cluster: ClusterConfig,
}

impl Tkij {
    /// An engine with the given configuration and the paper's default
    /// cluster (6 workers, 24 reducers).
    pub fn new(config: TkijConfig) -> Self {
        Tkij { config, cluster: ClusterConfig::default() }
    }

    /// An engine with an explicit cluster shape.
    pub fn with_cluster(config: TkijConfig, cluster: ClusterConfig) -> Self {
        Tkij { config, cluster }
    }

    /// Ignored: the argument `benchmark/` hands
    /// [`crate::run_join_phase_with`], which no longer reads it. ROADMAP
    /// step 0(a) deletes it.
    pub fn intra_join(&self) -> crate::config::IntraJoin {
        crate::config::IntraJoin
    }

    /// The cluster shape engine jobs actually run on: the configured
    /// cluster, with [`TkijConfig::shuffle_spill_threshold_bytes`]
    /// overriding the shuffle transport when set. Spilled segments live
    /// in memory — the engine's out-of-core knob exercises the
    /// serialization/spill/merge machinery without inheriting filesystem
    /// failure modes; `ClusterConfig::shuffle` can still select
    /// [`SpillSinkKind::TempDir`] directly.
    pub fn job_cluster(&self) -> ClusterConfig {
        match self.config.shuffle_spill_threshold_bytes {
            None => self.cluster,
            Some(spill_threshold_bytes) => ClusterConfig {
                shuffle: ShuffleMode::Serialized {
                    spill_threshold_bytes,
                    sink: SpillSinkKind::Memory,
                },
                ..self.cluster
            },
        }
    }

    /// Offline phase: collects statistics for a dataset (paper §3.2).
    pub fn prepare(
        &self,
        collections: Vec<IntervalCollection>,
    ) -> Result<PreparedDataset, TemporalError> {
        collect_statistics(collections, self.config.granules, &self.job_cluster())
    }

    /// Online phase: evaluates an RTJ query, returning the exact top-k and
    /// the full execution report. Equivalent to [`Tkij::plan_query`]
    /// followed by [`Tkij::execute_planned`] — the serving layer
    /// ([`crate::serving::TkijServer`]) splits the two so repeated query
    /// shapes reuse the plan.
    pub fn execute(
        &self,
        dataset: &PreparedDataset,
        query: &Query,
        k: usize,
    ) -> Result<ExecutionReport, TemporalError> {
        let plan = self.plan_query(dataset, query, k)?;
        Ok(self.execute_planned_impl(dataset, &plan))
    }

    /// Rejects queries the engine cannot evaluate against `dataset`:
    /// `k = 0`, a configuration with no reducers, or a vertex referencing
    /// a collection the dataset does not hold. Planning and execution are
    /// infallible afterwards.
    pub(crate) fn validate(
        &self,
        dataset: &PreparedDataset,
        query: &Query,
        k: usize,
    ) -> Result<(), TemporalError> {
        if k == 0 {
            return Err(TemporalError::InvalidQuery("k must be ≥ 1".into()));
        }
        if self.config.reducers == 0 {
            return Err(TemporalError::InvalidQuery("the join needs at least one reducer".into()));
        }
        for cid in &query.vertices {
            if cid.0 as usize >= dataset.collections.len() {
                return Err(TemporalError::InvalidQuery(format!(
                    "query references {} but the dataset has {} collections",
                    cid,
                    dataset.collections.len()
                )));
            }
        }
        Ok(())
    }

    /// Planning phase: validates the query, then runs the driver-side
    /// phases — TopBuckets (paper Fig. 5b) and workload distribution
    /// (Fig. 5c) — producing an immutable [`QueryPlan`] that
    /// [`Tkij::execute_planned`] can evaluate any number of times. With
    /// [`TkijConfig::pruning`] off the plan keeps the bounds (for
    /// ordering and runtime termination) but retains every combination.
    ///
    /// Planning reads only the dataset's statistics (never the interval
    /// data) and is bit-deterministic: the same (dataset, query, k,
    /// config) always yields the same plan, which is what makes the
    /// serving layer's plan cache sound.
    pub fn plan_query(
        &self,
        dataset: &PreparedDataset,
        query: &Query,
        k: usize,
    ) -> Result<QueryPlan, TemporalError> {
        self.validate(dataset, query, k)?;
        // The plan's own copy of the query is made first: allocated after
        // the temporaries of TopBuckets and distribute are freed, the
        // small long-lived copy lands at the top of the heap and keeps it
        // from shrinking (under glibc malloc, +5 MB peak RSS on the
        // `serve-mix` benchmark workload).
        let own_query = query.clone();
        // (b) TopBuckets: bound and prune bucket combinations.
        let effective_k = if self.config.pruning { k as u64 } else { u64::MAX };
        let (selected, topbuckets) = run_topbuckets(
            query,
            &dataset.matrices,
            effective_k,
            self.config.strategy,
            &self.config.solver,
            self.config.topbuckets_workers,
        );

        // (c) Workload distribution.
        let assignment = distribute(
            &selected,
            self.config.distribution,
            self.config.reducers,
            query,
            &dataset.matrices,
        );

        Ok(QueryPlan { query: own_query, k, selected, topbuckets, assignment })
    }

    /// Execution phase: evaluates a previously planned query — the
    /// distributed join (paper Fig. 5d) and merge (Fig. 5e) — and
    /// assembles the full [`ExecutionReport`]. The query and `k` are the
    /// plan's own, so a plan cannot be run against a shape it was not
    /// made for.
    ///
    /// `plan` must come from [`Tkij::plan_query`] on the same dataset
    /// and config; the report is then bit-identical to what
    /// [`Tkij::execute`] would produce (the plan's recorded TopBuckets
    /// and distribution wall times are replayed verbatim — timings are
    /// never part of determinism fingerprints).
    pub fn execute_planned(
        &self,
        dataset: &PreparedDataset,
        plan: &QueryPlan,
    ) -> Result<ExecutionReport, TemporalError> {
        self.validate(dataset, &plan.query, plan.k)?;
        Ok(self.execute_planned_impl(dataset, plan))
    }

    /// [`Tkij::execute_planned`] after validation — the one place the
    /// engine composes join → merge → report.
    pub(crate) fn execute_planned_impl(
        &self,
        dataset: &PreparedDataset,
        plan: &QueryPlan,
    ) -> ExecutionReport {
        let QueryPlan { query, k, selected, topbuckets, assignment } = plan;
        let k = *k;

        // (d) Distributed local joins, one rank-join per reducer.
        let cluster = self.job_cluster();
        let (outputs, join_metrics) =
            run_join_phase_impl(dataset, query, selected, assignment, k, &cluster);

        // (e) Merge.
        let (results, merge_metrics) = run_merge_phase(&outputs, k, &cluster);

        let mut local_stats = Vec::with_capacity(outputs.len());
        let mut reducer_kth_scores = Vec::new();
        for o in outputs {
            if !o.results.is_empty() {
                reducer_kth_scores.push(o.stats.kth_score);
            }
            local_stats.push(o.stats);
        }

        ExecutionReport {
            query_name: query.name(),
            k,
            granules: dataset.granules,
            strategy: self.config.strategy,
            policy: self.config.distribution,
            topbuckets: topbuckets.clone(),
            distribution: DistributionSummary {
                policy: self.config.distribution,
                duration: assignment.duration,
                replication_factor: assignment.replication_factor,
                estimated_shuffle_records: assignment.estimated_shuffle_records,
                result_imbalance: assignment.result_imbalance(),
                assignments_scored: assignment.assignments_scored,
                cap_fallbacks: assignment.cap_fallbacks,
            },
            join: join_metrics,
            merge: merge_metrics,
            local_stats,
            reducer_kth_scores,
            results,
        }
    }

    /// Consumes the engine and a prepared dataset into a shareable
    /// [`crate::serving::TkijServer`] for concurrent querying.
    pub fn serve(self, dataset: PreparedDataset) -> crate::serving::TkijServer {
        crate::serving::TkijServer::new(self, dataset)
    }
}

/// An immutable driver-side execution plan for one (query, k) shape: the
/// shape itself, the selected combinations `Ω_{k,S}` from TopBuckets,
/// the phase's telemetry, and the reducer assignment the distribution
/// policy chose.
///
/// Produced by [`Tkij::plan_query`], consumed (any number of times) by
/// [`Tkij::execute_planned`]. The serving layer caches plans per query
/// shape — see [`crate::serving::TkijServer`] — which is sound because
/// planning is a pure, deterministic function of (dataset statistics,
/// query, k, config).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The query the plan was made for.
    pub query: Query,
    /// The result budget the plan was made for (TopBuckets pruned
    /// against it).
    pub k: usize,
    /// The selected bucket-combination set `Ω_{k,S}` (TopBuckets output).
    pub selected: ComboSet,
    /// TopBuckets telemetry recorded when the plan was made (its
    /// `duration` is the original planning wall time, replayed verbatim
    /// into every report built from this plan).
    pub topbuckets: TopBucketsStats,
    /// The (combo → reducer) assignment and its shuffle plan.
    pub assignment: Assignment,
}

/// Summary of the distribution phase.
#[derive(Debug, Clone)]
pub struct DistributionSummary {
    /// Policy used (DTB or LPT).
    pub policy: DistributionPolicy,
    /// Wall time of the assignment computation.
    pub duration: Duration,
    /// Average number of reducers each needed record ships to.
    pub replication_factor: f64,
    /// Records the join shuffle will move.
    pub estimated_shuffle_records: u64,
    /// Worst-case `max/avg` potential-result imbalance.
    pub result_imbalance: f64,
    /// (combo, reducer) candidacies scored while assigning (deterministic
    /// work counter; see `Assignment::assignments_scored`).
    pub assignments_scored: u64,
    /// Times the `2 × avgRes` cap excluded every reducer.
    pub cap_fallbacks: u64,
}

impl Counters for DistributionSummary {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let DistributionSummary {
            policy: _,   // configuration echo
            duration: _, // timing
            replication_factor,
            estimated_shuffle_records,
            result_imbalance,
            assignments_scored,
            cap_fallbacks,
        } = self;
        f("replication_factor", replication_factor.to_bits());
        f("estimated_shuffle_records", *estimated_shuffle_records);
        f("result_imbalance", result_imbalance.to_bits());
        f("assignments_scored", *assignments_scored);
        f("cap_fallbacks", *cap_fallbacks);
    }
}

/// Every deterministic (non-timing) quantity of one execution, in a
/// directly comparable shape ([`ExecutionReport::fingerprint`]) — what
/// the determinism batteries assert bit-identical across threads,
/// transports, caches and repeats, and `tests/pinned_counters.rs` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// The top-k as (interval ids, score bits).
    pub results: Vec<(Vec<u64>, u64)>,
    /// Per-reducer local join telemetry, wholesale.
    pub local_stats: Vec<LocalJoinStats>,
    /// [`ExecutionReport::reducer_kth_scores`] as bits.
    pub reducer_kth_bits: Vec<u64>,
    /// Every [`Counters`]-visited counter of the report's `topbuckets`,
    /// `distribution`, `join` and `merge` members, keyed
    /// `<member>.<counter>` so a failed `assert_eq!` names what drifted.
    pub counters: Vec<(String, u64)>,
}

/// Everything one TKIJ execution produces: the exact top-k plus the
/// telemetry each figure of the paper's evaluation is built from.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Paper-style query name.
    pub query_name: String,
    /// Result budget.
    pub k: usize,
    /// Granules the statistics were collected with.
    pub granules: u32,
    /// TopBuckets strategy used.
    pub strategy: Strategy,
    /// Distribution policy used.
    pub policy: DistributionPolicy,
    /// TopBuckets telemetry (Fig. 9 black box, Fig. 10c pruning curve).
    pub topbuckets: TopBucketsStats,
    /// Distribution telemetry (shuffle cost comparisons of §4.2.2).
    pub distribution: DistributionSummary,
    /// Join-phase job metrics (Fig. 8b max reducer time, Fig. 10b
    /// imbalance).
    pub join: JobMetrics,
    /// Merge-phase job metrics.
    pub merge: JobMetrics,
    /// Per-reducer local join telemetry.
    pub local_stats: Vec<LocalJoinStats>,
    /// `kth` (minimum) local score per non-empty reducer (Fig. 8c).
    pub reducer_kth_scores: Vec<f64>,
    /// The exact top-k, best first.
    pub results: Vec<MatchTuple>,
}

impl ExecutionReport {
    /// Measured wall time of the online phases.
    pub fn total_wall(&self) -> Duration {
        self.topbuckets.duration + self.distribution.duration + self.join.wall + self.merge.wall
    }

    /// Minimum score of the k-th result across reducers (Fig. 8c).
    pub fn min_kth_score(&self) -> f64 {
        self.reducer_kth_scores.iter().copied().fold(f64::INFINITY, f64::min).min(1.0)
    }

    /// Total tuples materialized by all reducers ("intermediate results").
    pub fn tuples_scored(&self) -> u64 {
        self.local_stats.iter().map(|s| s.tuples_scored).sum()
    }

    /// Total window probes issued against the local-join indexes.
    pub fn index_probes(&self) -> u64 {
        self.local_stats.iter().map(|s| s.index_probes).sum()
    }

    /// Total stored items the indexes examined serving those probes —
    /// the scan effort behind the window probes.
    pub fn items_scanned(&self) -> u64 {
        self.local_stats.iter().map(|s| s.items_scanned).sum()
    }

    /// (Vertex, bucket) slices shipped, summed over reducers, opened or
    /// not.
    pub fn buckets_sweep(&self) -> u64 {
        self.local_stats.iter().map(|s| s.buckets_sweep).sum()
    }

    /// Shipped slices some combination opened, summed over reducers: each
    /// indexed once, by its reducer.
    pub fn buckets_opened(&self) -> u64 {
        self.local_stats.iter().map(|s| s.buckets_opened).sum()
    }

    /// Shipped records in the opened slices, summed over reducers; the
    /// rest of `join.shuffle_records` was shipped and never read.
    pub fn records_opened(&self) -> u64 {
        self.local_stats.iter().map(|s| s.records_opened).sum()
    }

    /// Combined serialized-shuffle spill accounting of the online jobs
    /// (join + merge): summed spill counters, xor-folded checksum.
    /// All-zero when both jobs ran the in-memory transport.
    pub fn shuffle_stats(&self) -> ShuffleStats {
        self.join.shuffle.merged(&self.merge.shuffle)
    }

    /// The bit-comparable essence of this execution: results, per-reducer
    /// telemetry and every deterministic counter — never a timing or a
    /// configuration echo.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut counters = Vec::new();
        let members: [(&str, &dyn Counters); 4] = [
            ("topbuckets", &self.topbuckets),
            ("distribution", &self.distribution),
            ("join", &self.join),
            ("merge", &self.merge),
        ];
        for (member, stats) in members {
            stats.visit(&mut |name, value| counters.push((format!("{member}.{name}"), value)));
        }
        Fingerprint {
            results: self.results.iter().map(|t| (t.ids.clone(), t.score.to_bits())).collect(),
            local_stats: self.local_stats.clone(),
            reducer_kth_bits: self.reducer_kth_scores.iter().map(|s| s.to_bits()).collect(),
            counters,
        }
    }

    /// Share of the potential result space pruned by TopBuckets (Fig 10c).
    pub fn pruned_pct(&self) -> f64 {
        self.topbuckets.pruned_pct()
    }

    /// One-line phase breakdown (Fig. 9 / Fig. 10c style).
    pub fn phase_line(&self) -> String {
        format!(
            "TopBuckets {:>8.3}s | DTB {:>8.3}s | Join {:>8.3}s | Merge {:>8.3}s",
            self.topbuckets.duration.as_secs_f64(),
            self.distribution.duration.as_secs_f64(),
            self.join.wall.as_secs_f64(),
            self.merge.wall.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_datagen::uniform_collections;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn engine(g: u32, r: usize) -> Tkij {
        Tkij::new(TkijConfig::default().with_granules(g).with_reducers(r))
    }

    #[test]
    fn report_telemetry_is_consistent() {
        let tk = engine(8, 6);
        let dataset = tk.prepare(uniform_collections(3, 80, 7)).unwrap();
        let q = table1::q_oo(PredicateParams::P1);
        let report = tk.execute(&dataset, &q, 5).unwrap();
        assert_eq!(report.results.len(), 5);
        assert!(report.results.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(report.local_stats.len(), 6, "one stats record per reducer");
        assert!(report.topbuckets.selected > 0);
        assert!(report.topbuckets.selected <= report.topbuckets.candidates);
        assert!(report.distribution.replication_factor >= 1.0);
        assert!(report.min_kth_score() <= 1.0);
        assert!(report.total_wall() >= report.topbuckets.duration);
        assert!(!report.phase_line().is_empty());
        assert!(report.pruned_pct() >= 0.0 && report.pruned_pct() <= 100.0);
        assert!(report.index_probes() > 0, "probes are counted");
        assert!(report.items_scanned() > 0, "scan effort is counted");
        // Phase-level work counters are filled and self-consistent.
        assert!(report.distribution.assignments_scored > 0, "distribution work is counted");
        assert_eq!(report.distribution.cap_fallbacks, 0);
        assert_eq!(
            report.topbuckets.candidates
                - report.topbuckets.pruned_local
                - report.topbuckets.pruned_merge,
            report.topbuckets.selected,
            "TopBuckets pruning counters account for every candidate"
        );
        assert!(report.buckets_sweep() > 0, "shipped buckets are counted");
        assert!(report.buckets_opened() > 0, "opened buckets are counted");
        assert!(report.buckets_opened() <= report.buckets_sweep(), "only shipped ones open");
        assert!(report.records_opened() <= report.join.total_shuffle_records());
        // The join shuffle matches the assignment estimate.
        assert_eq!(
            report.join.total_shuffle_records(),
            report.distribution.estimated_shuffle_records
        );
    }

    #[test]
    fn prepare_rejects_a_time_range_overflowing_i64() {
        use tkij_temporal::collection::{CollectionId, IntervalCollection};
        use tkij_temporal::interval::Interval;
        let extreme = IntervalCollection::new(
            CollectionId(0),
            vec![Interval::new(0, -10, -5).unwrap(), Interval::new(1, 0, i64::MAX).unwrap()],
        )
        .unwrap();
        let prepared = engine(4, 2).prepare(vec![extreme]);
        assert!(matches!(prepared, Err(TemporalError::InvalidPartitioning(_))));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let tk = engine(4, 2);
        let dataset = tk.prepare(uniform_collections(2, 10, 1)).unwrap();
        let q3 = table1::q_bb(PredicateParams::P1); // needs 3 collections
        assert!(tk.execute(&dataset, &q3, 5).is_err());
        let q2 = {
            use tkij_temporal::{
                aggregate::Aggregation, collection::CollectionId, query::QueryEdge,
            };
            Query::new(
                vec![CollectionId(0), CollectionId(1)],
                vec![QueryEdge {
                    src: 0,
                    dst: 1,
                    predicate: tkij_temporal::predicate::TemporalPredicate::before(
                        PredicateParams::P1,
                    ),
                }],
                Aggregation::NormalizedSum,
            )
            .unwrap()
        };
        assert!(tk.execute(&dataset, &q2, 0).is_err(), "k = 0 rejected");
        assert!(tk.execute(&dataset, &q2, 3).is_ok());
        // A configuration without reducers is an error on every entry
        // point, not a panic inside planning.
        let no_reducers = Tkij::new(TkijConfig { reducers: 0, ..tk.config.clone() });
        let invalid = |got: Result<(), TemporalError>| {
            assert!(matches!(got, Err(TemporalError::InvalidQuery(_))), "{got:?}");
        };
        invalid(no_reducers.execute(&dataset, &q2, 3).map(drop));
        invalid(no_reducers.plan_query(&dataset, &q2, 3).map(drop));
        invalid(no_reducers.serve(dataset).query(&q2, 3).map(drop));
    }

    #[test]
    fn no_pruning_ablation_same_results_more_work() {
        let collections = uniform_collections(3, 60, 500);
        let q = table1::q_om(PredicateParams::P1);
        let run = |config: TkijConfig| {
            let tk = Tkij::new(config.with_granules(6).with_reducers(4));
            tk.execute(&tk.prepare(collections.clone()).unwrap(), &q, 5).unwrap()
        };
        let (r1, r2) = (run(TkijConfig::default()), run(TkijConfig::default().without_pruning()));
        // Same exact answers...
        for (a, b) in r1.results.iter().zip(&r2.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        // ...but the ablation keeps every combination and ships more.
        assert_eq!(r2.topbuckets.selected, r2.topbuckets.candidates);
        assert!(r1.topbuckets.selected <= r2.topbuckets.selected);
        let shipped = |r: &ExecutionReport| r.distribution.estimated_shuffle_records;
        assert!(shipped(&r1) <= shipped(&r2));
    }
}
