//! Cluster shape: slots used for simulated scheduling and thread pool
//! sizing, plus the nested thread budget shared by the two parallelism
//! layers (task-level `worker_threads` × intra-join `intra_join_threads`)
//! and the shuffle-transport selection ([`ShuffleMode`]).

use crate::shuffle::ShuffleMode;

/// Describes the simulated cluster a job runs on.
///
/// The defaults mirror the paper's platform (§4): 6 workers and 24
/// reducers.
///
/// Two independent knobs control real OS-thread parallelism, and both
/// follow the same convention (`0` = sequential):
///
/// * [`worker_threads`](Self::worker_threads) executes whole map/reduce
///   *tasks* concurrently;
/// * [`intra_join_threads`](Self::intra_join_threads) parallelizes
///   *inside* one join-phase reduce task, sharding its probe stream
///   across chunk workers (`tkij_core::localjoin`).
///
/// When both are set, the layers nest: each concurrent reduce task may
/// spawn its own chunk workers. [`Self::intra_join_plan`] throttles the
/// inner layer so `outer × inner` never exceeds the larger knob, and
/// neither knob ever changes outputs or work counters, only who executes
/// the fixed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Concurrent map slots (the paper's 6 workers).
    pub map_slots: usize,
    /// Reducer slots; the join phase runs one reduce task per partition
    /// and its wave makespan is computed over these slots.
    pub reduce_slots: usize,
    /// OS threads actually used to execute tasks; `0` runs tasks
    /// sequentially (deterministic timings on small hosts). Outputs are
    /// identical either way.
    pub worker_threads: usize,
    /// OS threads one join-phase reduce task may use to evaluate its
    /// probe chunks; `0` evaluates chunks sequentially on the task's own
    /// thread. Outputs and work counters are identical either way: the
    /// chunk schedule is fixed, threads only execute it.
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

impl ClusterConfig {
    /// A config with the given number of reducers, keeping paper defaults
    /// elsewhere.
    pub fn with_reducers(reducers: usize) -> Self {
        ClusterConfig { reduce_slots: reducers, ..Default::default() }
    }

    /// Convenience: override the intra-join thread knob.
    pub fn with_intra_join_threads(mut self, threads: usize) -> Self {
        self.intra_join_threads = threads;
        self
    }

    /// The intra-join thread count for a join phase running
    /// `reduce_tasks` reduce tasks: the outer wave runs
    /// `min(worker_threads, reduce_tasks)` tasks at once (at least 1, as
    /// [`crate::run_tasks`] does), and each may use `budget / outer`
    /// chunk workers, capped at the knob, where the budget is the larger
    /// knob. So `outer × inner` never oversubscribes the host. A count of
    /// 1 returns `0`: a 1-thread scope is just sequential with overhead.
    pub fn intra_join_plan(&self, reduce_tasks: usize) -> usize {
        let outer = self.worker_threads.min(reduce_tasks).max(1);
        let budget = self.worker_threads.max(self.intra_join_threads).max(1);
        let inner = (budget / outer).min(self.intra_join_threads);
        if inner <= 1 {
            0
        } else {
            inner
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
        assert_eq!(c.reduce_slots, 24);
        assert_eq!(c.worker_threads, 0);
        assert_eq!(c.intra_join_threads, 0, "intra-join parallelism is opt-in");
        assert_eq!(c.shuffle, ShuffleMode::InMemory);
    }

    #[test]
    fn with_reducers_overrides_only_reducers() {
        let c = ClusterConfig::with_reducers(20);
        assert_eq!(c.reduce_slots, 20);
        assert_eq!(c.map_slots, 6);
        assert_eq!(c.intra_join_threads, 0);
    }

    #[test]
    fn intra_join_plan_accounts_for_the_reduce_wave() {
        for worker_threads in 0..=8 {
            for intra_join_threads in 0..=8 {
                let c = ClusterConfig { worker_threads, intra_join_threads, ..Default::default() };
                let budget = worker_threads.max(intra_join_threads).max(1);
                for reduce_tasks in 0..=30 {
                    let inner = c.intra_join_plan(reduce_tasks);
                    // The outer wave exactly as `run_tasks` sizes it.
                    let outer = if worker_threads <= 1 || reduce_tasks <= 1 {
                        1
                    } else {
                        worker_threads.min(reduce_tasks)
                    };
                    let cell = (worker_threads, intra_join_threads, reduce_tasks);
                    assert!(outer * inner.max(1) <= budget, "{cell:?}: {outer} × {inner}");
                    assert!(inner <= intra_join_threads && inner != 1, "{cell:?}: {inner}");
                }
            }
        }
        let c = ClusterConfig { worker_threads: 2, intra_join_threads: 8, ..Default::default() };
        // 2 concurrent reduce tasks × 4 inner threads = the budget of 8.
        assert_eq!(c.intra_join_plan(24), 4);
        // A single reduce task gets the whole inner knob.
        assert_eq!(c.intra_join_plan(1), 8);
        // Sequential task execution: same.
        assert_eq!(ClusterConfig { worker_threads: 0, ..c }.intra_join_plan(24), 8);
        // The pinned hot bucket: one reduce task, 4 chunk workers.
        assert_eq!(ClusterConfig::default().with_intra_join_threads(4).intra_join_plan(1), 4);
    }
}
