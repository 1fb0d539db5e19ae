//! # tkij-core — Top-K Interval Joins
//!
//! The reference implementation of **TKIJ** (Pilourdault, Leroy,
//! Amer-Yahia: *Distributed Evaluation of Top-k Temporal Joins*,
//! SIGMOD 2016): exact top-k evaluation of n-ary Ranked Temporal Join
//! queries on a Map-Reduce substrate.
//!
//! The pipeline follows the paper's Fig. 5:
//!
//! 1. **Statistics collection** ([`stats`], offline): one bucket matrix
//!    per collection over `g` uniform time granules.
//! 2. **TopBuckets** ([`topbuckets`], per query): solver-backed score
//!    bounds on bucket combinations and the `getTopBuckets` pruning of
//!    Algorithm 1, under the `brute-force` / `loose` / `two-phase`
//!    strategies of Algorithm 2.
//! 3. **DistributeTopBuckets** ([`mod@distribute`]): Algorithms 3–4, plus the
//!    LPT baseline of §4.2.2.
//! 4. **Distributed join** ([`joinphase`], [`localjoin`]): per-reducer
//!    rank-joins with threshold access and early termination, every
//!    bucket indexed by a `tkij_index::SweepIndex`.
//! 5. **Merge** ([`merge`]): the final global top-k.
//!
//! The [`Tkij`] engine ties the phases together and emits an
//! [`ExecutionReport`] carrying every statistic the paper's evaluation
//! plots. [`naive`] provides the exhaustive oracle used to verify the
//! engine's exactness guarantee.
//!
//! For long-lived deployments, [`serving`] splits the lifecycle into a
//! *prepare* phase (statistics + immutable shared state) and a *query*
//! phase any number of threads run concurrently — with a plan cache that
//! is bit-transparent to results and counters. Every reducer, served or
//! solo, indexes the slices it opens itself.

#![warn(missing_docs)]

pub mod combos;
pub mod config;
pub mod distribute;
pub mod engine;
pub mod joinphase;
pub mod localjoin;
pub mod merge;
pub mod naive;
pub mod plancache;
pub mod serving;
pub mod stats;
pub mod topbuckets;

pub use combos::{ComboSet, TopBucketsStats, VertexBuckets};
pub use config::{
    DistributionPolicy, LocalJoinBackend, Strategy, SweepScanKind, TkijConfig, PROBE_CHUNK_ITEMS,
};
pub use distribute::{distribute, Assignment};
pub use engine::{DistributionSummary, ExecutionReport, Fingerprint, QueryPlan, Tkij};
pub use joinphase::{run_join_phase_with, ReducerOutput};
pub use localjoin::{local_topk_join, LocalJoinStats};
pub use merge::run_merge_phase;
pub use naive::{all_pair_scores, naive_boolean, naive_topk};
pub use plancache::PlanCache;
pub use serving::{LatencySnapshot, PlanKey, ServingStats, TkijServer};
pub use stats::{collect_statistics, PreparedDataset};
pub use topbuckets::{get_top_buckets, run_topbuckets};
// The out-of-core shuffle vocabulary callers need to read
// `ExecutionReport::shuffle_stats` or select a transport explicitly, and
// the counter schema every stats struct here implements.
pub use tkij_mapreduce::{
    summed_counters, Counters, ShuffleMode, ShuffleStats, SpillSinkKind, SPILL_THRESHOLD_ENV,
};
