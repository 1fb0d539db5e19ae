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
//!   bytes per reducer (replication/input cost), per-task durations, and
//!   the max/avg reducer imbalance plotted in Fig. 10b;
//! * **determinism**: outputs are independent of the number of worker
//!   threads (partitions are sorted and grouped before reduction), so
//!   distributed execution order can never change query answers.
//!
//! One layer of real OS-thread parallelism is available: whole tasks
//! execute on [`ClusterConfig::worker_threads`] threads (`0` =
//! sequential, on the calling thread). Each join-phase reduce task runs
//! one sequential rank-join, so parallelism is across tasks, as in the
//! paper's 24 reducers on 6 workers. The thread count never changes
//! outputs or work counters.
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
pub use engine::{run_map_reduce, run_map_reduce_with, run_tasks, try_run_map_reduce, Emitter};
pub use metrics::{summed_counters, Counters, JobMetrics};
pub use shuffle::{
    CodecError, FrameReader, Record, ShuffleError, ShuffleMode, ShuffleStats, ShuffleTransport,
    SpillSinkKind, TaskSink, SPILL_THRESHOLD_ENV,
};
pub use sizeof::SizeOf;
