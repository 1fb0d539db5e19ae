//! # tkij-temporal — data model for Ranked Temporal Joins
//!
//! This crate provides the substrate data model used by the TKIJ engine
//! (Pilourdault, Leroy, Amer-Yahia: *Distributed Evaluation of Top-k
//! Temporal Joins*, SIGMOD 2016):
//!
//! * [`Interval`] — closed integer-timestamped intervals with identifiers.
//! * [`IntervalCollection`] — the joined relations `C_1 … C_m`.
//! * Graded endpoint comparators `equals`/`greater` (paper Fig. 3) in
//!   [`comparators`], controlled by a [`Tolerance`] `(λ, ρ)`.
//! * Boolean and **scored temporal predicates** (paper Fig. 2 and Fig. 4):
//!   the seven Allen predicates plus `justBefore`, `shiftMeets`, `sparks`,
//!   in [`predicate`].
//! * Monotone aggregation functions in [`aggregate`].
//! * The n-ary RTJ [`Query`] graph and the paper's Table 1 query set.
//! * Uniform time partitioning into granules ([`TimePartitioning`]) and
//!   per-collection bucket statistics ([`BucketMatrix`], paper §3.2).
//! * Scored result tuples and deterministic top-k accumulation in
//!   [`result`].
//!
//! Everything here is deterministic and free of I/O except the plain-text
//! collection reader/writer, so the higher layers (solver, Map-Reduce
//! engine, TKIJ itself) can be tested hermetically.

pub mod aggregate;
pub mod bucket;
pub mod collection;
pub mod comparators;
pub mod error;
pub mod expr;
pub mod granule;
pub mod interval;
pub mod params;
pub mod parse;
pub mod predicate;
pub mod query;
pub mod result;

pub use aggregate::Aggregation;
pub use bucket::{BucketId, BucketMatrix};
pub use collection::{CollectionId, IntervalCollection};
pub use comparators::Tolerance;
pub use error::TemporalError;
pub use expr::{Endpoint, EndpointExpr, Side};
pub use granule::TimePartitioning;
pub use interval::{Interval, Timestamp};
pub use params::PredicateParams;
pub use parse::parse_query;
pub use predicate::{PredicateClass, PredicateKind, Primitive, PrimitiveKind, TemporalPredicate};
pub use query::{JoinPlan, JoinStep, Query, QueryEdge};
pub use result::{MatchTuple, TopK};
