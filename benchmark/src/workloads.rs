//! The four pinned workloads: their data, queries and engine settings.
//!
//! Every workload runs over an **ensemble** of independently generated
//! datasets. The engine's join cost is set by how soon each reducer
//! happens to find `k` top-scoring tuples, which swings by tens of
//! percent from one random dataset to the next; a single dataset per
//! seed would make every timing follow that luck rather than the code.
//! Cycling the query over several datasets averages it out, so that two
//! seeds agree within the bounds `BENCHMARK.json` fixes.

use tkij_core::config::PLAN_CACHE_CAPACITY;
use tkij_core::{
    DistributionPolicy, LocalJoinBackend, ShuffleMode, SpillSinkKind, Strategy, SweepScanKind,
    Tkij, TkijConfig,
};
use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij_mapreduce::ClusterConfig;
use tkij_solver::SolverConfig;
use tkij_temporal::collection::{CollectionId, IntervalCollection};
use tkij_temporal::params::PredicateParams;
use tkij_temporal::query::{table1, Query};

/// Join-phase reducers, as in the paper's platform.
pub const REDUCERS: usize = 24;

/// Size of the scaled-down twin checked against the naive oracle.
pub const TWIN_SIZE: usize = 150;
/// Result budget of the twin.
pub const TWIN_K: usize = 20;

/// Which query shapes a workload asks (all from the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shapes {
    /// `Q_{o,m}` at P1.
    OverlapsMeets,
    /// `Q_{o,o}` at P1.
    OverlapsOverlaps,
    /// Nine shapes at P3, served: a `TkijServer` per dataset and two
    /// closed-loop clients rotating the shapes (the other workloads have
    /// one caller and a cold `Tkij::execute` per query).
    ServingMix,
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Final name; later issues refer to it.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Ensemble size: independent datasets the queries cycle over.
    pub datasets: usize,
    /// Intervals per collection (three uniform collections, paper
    /// §4.2: lengths in `[1, 100]`).
    pub size: usize,
    /// Upper end of the start range `[0, span]`.
    pub span: i64,
    /// Granules `g` per collection.
    pub granules: u32,
    /// Query shapes.
    pub shapes: Shapes,
    /// Result budget.
    pub k: usize,
    /// Shuffle transport, spelled out.
    pub shuffle: ShuffleMode,
    /// Engine task threads (`0` = sequential).
    pub worker_threads: usize,
    /// Serving plan-cache capacity, in shapes per server.
    pub plan_cache_capacity: usize,
}

/// Closed-loop clients of the serving workload.
pub const SERVE_CLIENTS: usize = 2;
/// Every `FRESH_EVERY`-th request of a client asks for a shape nobody
/// asked for before (a plan-cache miss).
pub const FRESH_EVERY: usize = 4;

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "join-dense",
        why: "dense uniform data, reduce tasks (index build + probe + score) on 2 worker threads \
              dominate; index, local-join and thread-pool work shows here",
        datasets: 32,
        size: 3_000,
        span: 5_000,
        granules: 12,
        shapes: Shapes::OverlapsMeets,
        k: 100,
        shuffle: ShuffleMode::InMemory,
        worker_threads: 2,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
    },
    Workload {
        name: "plan-wide",
        why: "small data under many granules, TopBuckets + distribution dominate; solver and \
              planning work shows here and a join-layer change must not move it",
        datasets: 8,
        size: 1_000,
        span: 3_750,
        granules: 30,
        shapes: Shapes::OverlapsMeets,
        k: 100,
        shuffle: ShuffleMode::InMemory,
        worker_threads: 0,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
    },
    Workload {
        name: "shuffle-spill",
        why: "largest input on the serialized transport, map + shuffle (encode, spill, merge, \
              decode) carry over a third of the query; the only workload off the in-memory shuffle",
        datasets: 16,
        size: 6_000,
        span: 30_000,
        granules: 24,
        shapes: Shapes::OverlapsOverlaps,
        k: 100,
        shuffle: ShuffleMode::Serialized {
            spill_threshold_bytes: 32 * 1024,
            sink: SpillSinkKind::Memory,
        },
        worker_threads: 0,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
    },
    Workload {
        name: "serve-mix",
        why: "nine query shapes served to 2 closed-loop clients, 3 in 4 requests hit the plan \
              cache and pooled indexes, 1 in 4 plans afresh; cache, pool and contention work shows here",
        datasets: 4,
        size: 1_500,
        span: 2_500,
        granules: 24,
        shapes: Shapes::ServingMix,
        k: 100,
        shuffle: ShuffleMode::InMemory,
        worker_threads: 0,
        // Bounded well below the default so that memory does not grow
        // with the number of fresh shapes a run gets through; the nine
        // base shapes stay resident (LRU), fresh ones evict each other.
        plan_cache_capacity: 32,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 step: derives independent generator seeds from the run's
/// seed, so ensemble members share nothing but the distribution.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Whether the workload goes through the serving layer.
    pub fn served(&self) -> bool {
        self.shapes == Shapes::ServingMix
    }

    /// The engine with every knob spelled out — nothing is left to a
    /// `Default` that an environment hook could change.
    pub fn engine(&self) -> Tkij {
        Tkij::with_cluster(
            TkijConfig {
                granules: self.granules,
                reducers: REDUCERS,
                strategy: Strategy::Loose,
                distribution: DistributionPolicy::Dtb,
                local_backend: LocalJoinBackend::Sweep,
                sweep_scan: SweepScanKind::Chunked,
                solver: SolverConfig { eps: 0.01, max_nodes: 500 },
                topbuckets_workers: 6,
                probe_chunk_items: tkij_core::PROBE_CHUNK_ITEMS,
                intra_shared_bound: true,
                pruning: true,
                plan_cache: true,
                plan_cache_capacity: self.plan_cache_capacity,
                shuffle_spill_threshold_bytes: None,
            },
            ClusterConfig {
                map_slots: 6,
                reduce_slots: REDUCERS,
                worker_threads: self.worker_threads,
                intra_join_threads: 0,
                shuffle: self.shuffle,
            },
        )
    }

    /// Member `member`'s collections for run seed `seed`.
    pub fn collections(&self, seed: u64, member: usize) -> Vec<IntervalCollection> {
        generate(self.size, self.span, mix(seed, member as u64))
    }

    /// The scaled-down twin of [`Workload::collections`]: the same
    /// generator at [`TWIN_SIZE`] intervals per collection and the same
    /// density, small enough for the cubic naive oracle.
    pub fn twin_collections(&self, seed: u64) -> Vec<IntervalCollection> {
        let span = (self.span as i128 * TWIN_SIZE as i128 / self.size as i128).max(1) as i64;
        generate(TWIN_SIZE, span, mix(seed, u64::MAX))
    }

    /// The query shapes of the workload, with display names.
    /// `avg_length` parameterizes the two shapes that shift by the
    /// collection's average interval length.
    pub fn queries(&self, avg_length: i64) -> Vec<(&'static str, Query)> {
        match self.shapes {
            Shapes::OverlapsMeets => vec![("q_om", table1::q_om(PredicateParams::P1))],
            Shapes::OverlapsOverlaps => vec![("q_oo", table1::q_oo(PredicateParams::P1))],
            Shapes::ServingMix => {
                let p = PredicateParams::P3;
                vec![
                    ("q_bb", table1::q_bb(p)),
                    ("q_fb", table1::q_fb(p)),
                    ("q_oo", table1::q_oo(p)),
                    ("q_om", table1::q_om(p)),
                    ("q_ss", table1::q_ss(p)),
                    ("q_ff", table1::q_ff(p)),
                    ("q_sm", table1::q_sm(p)),
                    ("q_jbjb", table1::q_jbjb(p, avg_length)),
                    ("q_smsm", table1::q_smsm(p, avg_length)),
                ]
            }
        }
    }
}

fn generate(size: usize, span: i64, seed: u64) -> Vec<IntervalCollection> {
    (0..3u32)
        .map(|i| {
            uniform_collection(
                CollectionId(i),
                &SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_final_and_unique() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ["join-dense", "plan-wide", "shuffle-spill", "serve-mix"]);
        assert!(find("plan-wide").is_some());
        assert!(find("plan-narrow").is_none());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why fits one line", w.name);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = w.twin_collections(7);
            let b = w.twin_collections(7);
            let c = w.twin_collections(8);
            assert_eq!(a[0].intervals(), b[0].intervals(), "{}", w.name);
            assert_ne!(a[0].intervals(), c[0].intervals(), "{}", w.name);
            assert_eq!(a.len(), 3);
        }
    }

    #[test]
    fn ensemble_members_differ() {
        let w = find("plan-wide").unwrap();
        assert_ne!(w.collections(1, 0)[0].intervals(), w.collections(1, 1)[0].intervals());
    }

    #[test]
    fn only_one_workload_is_serialized_and_only_one_is_threaded() {
        let spilled: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.shuffle != ShuffleMode::InMemory)
            .map(|w| w.name)
            .collect();
        assert_eq!(spilled, ["shuffle-spill"]);
        let threaded: Vec<_> =
            WORKLOADS.iter().filter(|w| w.worker_threads > 0).map(|w| w.name).collect();
        assert_eq!(threaded, ["join-dense"]);
        assert!(WORKLOADS.iter().all(|w| w.worker_threads <= 2), "host budget: 2 busy threads");
    }
}
