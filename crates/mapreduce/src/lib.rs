//! # tkij-mapreduce — an in-process Map-Reduce engine
//!
//! TKIJ (paper §3) is specified as a sequence of Map-Reduce jobs on a
//! Hadoop cluster. This crate substitutes a small, deterministic,
//! in-process engine that preserves everything the paper's analysis
//! depends on:
//!
//! * the **dataflow**: per-split stateful mappers → map-side partitioning
//!   → a real shuffle stage → per-partition grouped reducers;
//! * the **cost counters** the paper reasons about: shuffle records and
//!   bytes per reducer (replication/input cost), per-task durations, the
//!   simulated makespan on a fixed number of reducer slots, and the
//!   max/avg reducer imbalance plotted in Fig. 10b;
//! * **determinism**: outputs are independent of the number of worker
//!   threads (partitions are sorted and grouped before reduction), so
//!   distributed execution order can never change query answers.
//!
//! Two nested layers of real OS-thread parallelism are available, each
//! defaulting to sequential (`0`): whole tasks execute on a pool of
//! [`ClusterConfig::worker_threads`], and one join-phase reduce task may
//! additionally shard its probe stream across
//! [`ClusterConfig::intra_join_threads`] chunk workers (the intra-reducer
//! parallel join of `tkij_core::localjoin`). The layers share one
//! thread budget — [`ClusterConfig::thread_budget`] throttles the inner
//! layer so `outer × inner` never oversubscribes the host, and
//! [`ClusterConfig::assert_within_budget`] hard-asserts it. Sequential
//! execution remains the benchmark default: on a single-core host it
//! gives unpolluted per-task timings, and wave makespans are *computed*
//! by list-scheduling the measured durations onto the configured slots —
//! see [`JobMetrics`]. Neither knob can change outputs or work counters.

//!
//! Two **shuffle transports** sit behind [`ShuffleMode`]: the default
//! in-memory `Vec` gather, and a serialized out-of-core path
//! ([`shuffle::SerializedTransport`]) that frame-encodes records
//! ([`Record`]), spills checksummed segments once a configurable byte
//! threshold is exceeded, and merge-sorts them back on the reduce side —
//! bit-identical grouped partitions either way, with spill work surfaced
//! in [`ShuffleStats`].

pub mod cluster;
pub mod engine;
pub mod metrics;
pub mod shuffle;
pub mod sizeof;

pub use cluster::ClusterConfig;
pub use engine::{run_map_reduce, run_map_reduce_with, try_run_map_reduce, Emitter};
pub use metrics::{list_schedule_makespan, summed_counters, Counters, JobMetrics};
pub use shuffle::{
    CodecError, FrameReader, Record, ShuffleError, ShuffleMode, ShuffleStats, ShuffleTransport,
    SpillSinkKind, TaskSink, SPILL_THRESHOLD_ENV,
};
pub use sizeof::SizeOf;
