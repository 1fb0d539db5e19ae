//! Cluster shape: the map-split count, the task-level thread count, and
//! the shuffle-transport selection ([`ShuffleMode`]).

use crate::shuffle::ShuffleMode;

/// Describes the simulated cluster a job runs on.
///
/// The defaults mirror the paper's platform (§4): 6 workers and 24
/// reducers.
///
/// One knob controls real OS-thread parallelism:
/// [`worker_threads`](Self::worker_threads) executes whole map/reduce
/// *tasks* concurrently (`0` = sequential). Each join-phase reduce task
/// runs one sequential rank-join, so the paper's parallelism — many
/// reduce tasks on a few workers — is the only thread layer. The knob
/// never changes outputs or work counters, only who executes the fixed
/// tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Concurrent map slots (the paper's 6 workers).
    pub map_slots: usize,
    /// Ignored: the former reduce-wave slot count of the simulated
    /// makespan model. The join phase's reducer count is
    /// `TkijConfig::reducers`. It remains because the repository's
    /// `benchmark/` sets it; ROADMAP step 0(a) deletes it.
    pub reduce_slots: usize,
    /// OS threads actually used to execute tasks; `0` runs tasks
    /// sequentially (deterministic timings on small hosts). Outputs are
    /// identical either way.
    pub worker_threads: usize,
    /// Ignored: the former intra-reducer thread count. It remains
    /// because the repository's `benchmark/` sets it; ROADMAP step 0(a)
    /// deletes it.
    pub intra_join_threads: usize,
    /// Which shuffle transport jobs use (see [`ShuffleMode`]). The
    /// serialized spill path produces bit-identical outputs and
    /// record/byte accounting to the in-memory default; only the
    /// [`ShuffleStats`](crate::ShuffleStats) spill counters differ.
    pub shuffle: ShuffleMode,
}

impl Default for ClusterConfig {
    /// Paper platform defaults, sequential, on the in-memory shuffle.
    fn default() -> Self {
        ClusterConfig {
            map_slots: 6,
            reduce_slots: 24,
            worker_threads: 0,
            intra_join_threads: 0,
            shuffle: ShuffleMode::InMemory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_platform() {
        let c = ClusterConfig::default();
        assert_eq!(c.map_slots, 6);
        assert_eq!(c.worker_threads, 0);
        assert_eq!(c.shuffle, ShuffleMode::InMemory);
    }
}
