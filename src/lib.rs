//! # tkij — Distributed Evaluation of Top-k Temporal Joins
//!
//! A complete Rust implementation of **TKIJ** (Pilourdault, Leroy,
//! Amer-Yahia: *Distributed Evaluation of Top-k Temporal Joins*,
//! SIGMOD 2016): exact top-k evaluation of n-ary **Ranked Temporal Join
//! (RTJ)** queries — joins over interval collections whose predicates are
//! graded (fuzzy) versions of Allen-algebra relations — on an in-process
//! Map-Reduce substrate.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`temporal`] | intervals, scored predicates, queries, granules, bucket statistics |
//! | [`solver`] | branch-and-bound score bounds for bucket combinations |
//! | [`mapreduce`] | the Map-Reduce engine with shuffle accounting |
//! | [`index`] | the sweeping endpoint index the local joins probe with score-threshold windows |
//! | [`datagen`] | synthetic and simulated network-traffic workloads |
//! | [`core`](mod@core) | the TKIJ engine itself (statistics, TopBuckets, DTB, joins) |
//! | [`baselines`] | the Boolean competitors RCCIS and All-Matrix |
//!
//! ## Quickstart
//!
//! ```
//! use tkij::prelude::*;
//!
//! // Three collections of 200 uniform intervals (the paper's generator).
//! let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
//! let dataset = engine.prepare(uniform_collections(3, 200, 7)).unwrap();
//!
//! // Q{o,m}: x1 overlaps x2, x2 meets x3 — scored, top-10.
//! let query = table1::q_om(PredicateParams::P1);
//! let report = engine.execute(&dataset, &query, 10).unwrap();
//!
//! assert_eq!(report.results.len(), 10);
//! assert!(report.results.windows(2).all(|w| w[0].score >= w[1].score));
//! ```
//!
//! ## Serving: prepare once, query many
//!
//! For long-lived deployments, freeze the engine + dataset into a
//! [`TkijServer`](crate::prelude::TkijServer) and query it from any
//! number of threads — results and work counters are bit-identical to
//! solo runs, and repeated query shapes reuse a cached plan:
//!
//! ```
//! use std::sync::Arc;
//! use tkij::prelude::*;
//!
//! let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
//! let dataset = engine.prepare(uniform_collections(3, 150, 7)).unwrap();
//! let server = Arc::new(engine.serve(dataset));
//!
//! let queries = [table1::q_om(PredicateParams::P1), table1::q_oo(PredicateParams::P1)];
//! std::thread::scope(|scope| {
//!     for query in &queries {
//!         let handle = server.handle();
//!         scope.spawn(move || {
//!             let report = handle.query(query, 5).unwrap();
//!             assert_eq!(report.results.len(), 5);
//!         });
//!     }
//! });
//! assert_eq!(server.stats().queries, 2);
//! ```
//!
//! See `ARCHITECTURE.md` for the phase pipeline, the prepare/query
//! split, and where each determinism guarantee is enforced.

#![warn(missing_docs)]

pub use tkij_baselines as baselines;
pub use tkij_core as core;
pub use tkij_datagen as datagen;
pub use tkij_index as index;
pub use tkij_mapreduce as mapreduce;
pub use tkij_solver as solver;
pub use tkij_temporal as temporal;

// Compile-check every Rust block in the README as a doctest, so the
// examples there cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The common imports for building and running RTJ queries.
pub mod prelude {
    pub use tkij_core::{
        collect_statistics, naive_boolean, naive_topk, Counters, DistributionPolicy,
        ExecutionReport, Fingerprint, LatencySnapshot, PlanKey, PreparedDataset, QueryHandle,
        QueryPlan, ServingStats, Strategy, Tkij, TkijConfig, TkijServer,
    };
    pub use tkij_datagen::{traffic_collection, uniform_collections, TrafficConfig};
    pub use tkij_mapreduce::ClusterConfig;
    pub use tkij_temporal::{
        query::table1, Aggregation, CollectionId, Interval, IntervalCollection, MatchTuple,
        PredicateKind, PredicateParams, Query, QueryEdge, TemporalPredicate, Timestamp,
    };
}
