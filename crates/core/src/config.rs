//! TKIJ engine configuration.

use tkij_solver::SolverConfig;

/// The sweep store's former run-scan kind, which nothing reads (defined
/// next to [`tkij_index::SweepIndex`]; re-exported for
/// [`TkijConfig::sweep_scan`]).
pub use tkij_index::SweepScanKind;

/// The TopBuckets strategy (paper §3.3, Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Solver bounds on full n-ary combinations (`brute-force`).
    BruteForce,
    /// Solver bounds per bucket pair, aggregated monotonically (`loose`) —
    /// the paper's recommended strategy.
    Loose,
    /// `loose` selection, then exact n-ary refinement of the survivors
    /// (`two-phase`).
    TwoPhase,
}

impl Strategy {
    /// All strategies with their paper names, for harness sweeps.
    pub fn all() -> [(&'static str, Strategy); 3] {
        [
            ("brute-force", Strategy::BruteForce),
            ("two-phase", Strategy::TwoPhase),
            ("loose", Strategy::Loose),
        ]
    }

    /// Paper name of the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BruteForce => "brute-force",
            Strategy::Loose => "loose",
            Strategy::TwoPhase => "two-phase",
        }
    }
}

/// The candidate-source backend of the reducer-local rank-join. There is
/// one: [`tkij_index::SweepIndex`], the endpoint-sorted sweeping store
/// (Piatov et al.) that replaced the paper's R-tree (§4) because it scans
/// fewer items for the same probes. The type and
/// [`TkijConfig::local_backend`] remain only because the repository's
/// `benchmark/` still spells them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalJoinBackend {
    /// Endpoint-sorted sweeping store.
    #[default]
    Sweep,
}

/// The former probe-stream sharding plan of the local join. Each reducer
/// now runs one sequential rank-join, so this is ignored; it remains only
/// because the repository's `benchmark/` passes [`crate::Tkij::intra_join`]
/// to [`crate::run_join_phase_with`]. ROADMAP step 0(a) deletes it.
#[derive(Debug, Clone, Copy)]
pub struct IntraJoin;

/// Ignored: the former probe-chunk length, kept as
/// [`TkijConfig::probe_chunk_items`]' default because the repository's
/// `benchmark/` names it. ROADMAP step 0(a) deletes it.
pub const PROBE_CHUNK_ITEMS: usize = 256;

/// The workload-distribution policy of the join phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionPolicy {
    /// `DistributeTopBuckets` (Algorithm 3) — the paper's contribution:
    /// spread high-scoring combinations evenly, minimize replication.
    Dtb,
    /// Longest-Processing-Time scheduling on `nbRes` — the baseline of
    /// §4.2.2.
    Lpt,
}

impl DistributionPolicy {
    /// Paper name of the policy.
    pub fn name(&self) -> &'static str {
        match self {
            DistributionPolicy::Dtb => "DTB",
            DistributionPolicy::Lpt => "LPT",
        }
    }
}

/// Full configuration of a TKIJ execution.
#[derive(Debug, Clone)]
pub struct TkijConfig {
    /// Number of granules `g` per collection (paper sweet spot: ≈ 40).
    pub granules: u32,
    /// Number of join-phase reducers `r` (paper: 24).
    pub reducers: usize,
    /// TopBuckets strategy.
    pub strategy: Strategy,
    /// Workload distribution policy.
    pub distribution: DistributionPolicy,
    /// Candidate-source backend of the reducer-local join; it has one
    /// value (see [`LocalJoinBackend`]).
    pub local_backend: LocalJoinBackend,
    /// Former run-scan kind of the sweeping store; ignored (see
    /// [`SweepScanKind`]).
    pub sweep_scan: SweepScanKind,
    /// Bound-solver configuration.
    pub solver: SolverConfig,
    /// Ignored: the former number of TopBuckets worker groups (the
    /// paper's 6). TopBuckets now makes one selection over the whole
    /// lattice. It remains because the repository's `benchmark/` sets
    /// it; ROADMAP step 0(a) deletes it.
    pub topbuckets_workers: usize,
    /// Ignored: the former probe-chunk length of the sharded local join.
    /// It remains because the repository's `benchmark/` sets it; ROADMAP
    /// step 0(a) deletes it.
    pub probe_chunk_items: usize,
    /// Ignored: the former shared-bound switch of the sharded local
    /// join. It remains because the repository's `benchmark/` sets it;
    /// ROADMAP step 0(a) deletes it.
    pub intra_shared_bound: bool,
    /// Ablation switch: when `false`, `getTopBuckets` pruning is disabled
    /// and every bucket combination is processed (bounds are still
    /// computed and drive the UB-descending access order and runtime
    /// early termination). Quantifies the benefit of Ω_{k,S} selection.
    pub pruning: bool,
    /// Serving-layer plan cache switch (`tkij_core::serving`). When `true`
    /// (default) a `TkijServer` caches the driver-side plan — TopBuckets
    /// selection and reducer assignment — per (query graph, k) shape and
    /// replays it on repeats; when `false` every query plans from
    /// scratch (every served query then counts as a cache miss). Pure
    /// wall-clock knob: planning is deterministic, so a cached plan is
    /// bit-identical to a fresh one and results/counters never depend on
    /// this switch.
    pub plan_cache: bool,
    /// Capacity of the serving plan cache, in distinct query shapes
    /// (default [`PLAN_CACHE_CAPACITY`]; `0` = unbounded, the pre-cap
    /// behavior). Beyond it the least-recently-used shape is evicted —
    /// deterministically under a serial access order (the cache stamps
    /// accesses with a monotone logical clock, never a wall clock or
    /// thread id) — so adversarial shape churn cannot grow the cache
    /// without bound. Like [`TkijConfig::plan_cache`] this is a pure
    /// wall-clock knob: an evicted shape is simply re-planned on its
    /// next request, bit-identical to the evicted plan.
    pub plan_cache_capacity: usize,
    /// Out-of-core shuffle switch: `Some(threshold)` routes every engine
    /// Map-Reduce job (statistics, join, merge — serving included)
    /// through the serialized shuffle transport, spilling checksummed
    /// segments whenever a map task's buffered partition exceeds
    /// `threshold` bytes (`0` = spill every record into its own
    /// segment). `None` (default) keeps the cluster's transport, which
    /// is in-memory unless `ClusterConfig::shuffle` says otherwise.
    /// Results, shuffle record/byte counters, and every pinned counter
    /// are bit-identical across transports — only the
    /// [`tkij_mapreduce::ShuffleStats`] spill counters change, which the
    /// spill determinism battery locks.
    pub shuffle_spill_threshold_bytes: Option<u64>,
}

/// Default bound of the serving plan cache, in distinct query shapes.
pub const PLAN_CACHE_CAPACITY: usize = 256;

impl Default for TkijConfig {
    fn default() -> Self {
        TkijConfig {
            granules: 40,
            reducers: 24,
            strategy: Strategy::Loose,
            distribution: DistributionPolicy::Dtb,
            local_backend: LocalJoinBackend::Sweep,
            sweep_scan: SweepScanKind::Chunked,
            // Bounds stay sound under a node cap and a 1 % convergence
            // gap — they merely get (marginally) looser, which is the
            // trade-off the paper's loose strategy embraces. Corner
            // sampling makes most pair problems converge at the root.
            solver: SolverConfig { eps: 0.01, max_nodes: 500 },
            topbuckets_workers: 6,
            probe_chunk_items: PROBE_CHUNK_ITEMS,
            intra_shared_bound: true,
            pruning: true,
            plan_cache: true,
            plan_cache_capacity: PLAN_CACHE_CAPACITY,
            shuffle_spill_threshold_bytes: None,
        }
    }
}

impl TkijConfig {
    /// Convenience: override the number of granules.
    pub fn with_granules(mut self, g: u32) -> Self {
        self.granules = g;
        self
    }

    /// Convenience: override the strategy.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Convenience: override the distribution policy.
    pub fn with_distribution(mut self, d: DistributionPolicy) -> Self {
        self.distribution = d;
        self
    }

    /// Convenience: override the number of reducers.
    pub fn with_reducers(mut self, r: usize) -> Self {
        self.reducers = r;
        self
    }

    /// Convenience: disable `getTopBuckets` pruning (ablation).
    pub fn without_pruning(mut self) -> Self {
        self.pruning = false;
        self
    }

    /// Convenience: disable the serving layer's plan cache (every served
    /// query plans from scratch and counts as a cache miss).
    pub fn without_plan_cache(mut self) -> Self {
        self.plan_cache = false;
        self
    }

    /// Convenience: override the serving plan cache's capacity in
    /// distinct shapes (`0` = unbounded).
    pub fn with_plan_cache_capacity(mut self, shapes: usize) -> Self {
        self.plan_cache_capacity = shapes;
        self
    }

    /// Convenience: route every engine job through the serialized
    /// out-of-core shuffle, spilling segments past `bytes` buffered
    /// bytes per (task, partition).
    pub fn with_shuffle_spill_threshold_bytes(mut self, bytes: u64) -> Self {
        self.shuffle_spill_threshold_bytes = Some(bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TkijConfig::default();
        assert_eq!(c.granules, 40);
        assert_eq!(c.reducers, 24);
        assert_eq!(c.strategy, Strategy::Loose);
        assert_eq!(c.distribution, DistributionPolicy::Dtb);
        assert_eq!(c.topbuckets_workers, 6);
        assert!(c.plan_cache, "the serving plan cache is on by default");
        assert_eq!(c.plan_cache_capacity, PLAN_CACHE_CAPACITY, "bounded by default");
        assert_eq!(c.shuffle_spill_threshold_bytes, None, "in-memory shuffle by default");
    }

    #[test]
    fn builders_compose() {
        let c = TkijConfig::default()
            .with_granules(15)
            .with_strategy(Strategy::TwoPhase)
            .with_distribution(DistributionPolicy::Lpt)
            .with_reducers(8)
            .without_plan_cache()
            .with_plan_cache_capacity(16)
            .with_shuffle_spill_threshold_bytes(4096);
        assert_eq!(c.granules, 15);
        assert_eq!(c.strategy.name(), "two-phase");
        assert_eq!(c.distribution.name(), "LPT");
        assert_eq!(c.reducers, 8);
        assert!(!c.plan_cache);
        assert_eq!(c.plan_cache_capacity, 16);
        assert_eq!(c.shuffle_spill_threshold_bytes, Some(4096));
    }

    #[test]
    fn strategy_registry_names() {
        let names: Vec<_> = Strategy::all().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["brute-force", "two-phase", "loose"]);
    }
}
