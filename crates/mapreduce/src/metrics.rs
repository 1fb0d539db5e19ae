//! Job cost accounting: the counters the paper's evaluation reads off
//! Hadoop, measured here by the engine itself.

use crate::shuffle::ShuffleStats;
use std::time::Duration;

/// The one declaration of "what is a deterministic work counter" of a
/// stats struct: determinism fingerprints and the pinned-counter table's
/// key set are both derived by walking `visit`.
///
/// Every impl destructures `Self` exhaustively (no `..`), so adding a
/// field does not compile until it is either visited or bound to `_`
/// beside its reason (timing, configuration echo). `f64` counters are
/// visited as `to_bits()`, `u128` magnitudes as `_hi`/`_lo` halves.
/// `visit` runs only when a report is fingerprinted or its counters are
/// compared — never on a query path.
pub trait Counters {
    /// Calls `f(name, value)` once per counter, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64));
}

/// Sums each visited counter over `items`, in visit order — the fold
/// behind per-report aggregates of per-reducer stats. Wrapping, because
/// bit-pattern counters (`f64::to_bits`) have no meaningful sum.
pub fn summed_counters<C: Counters>(items: &[C]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for item in items {
        item.visit(&mut |name, value| match totals.iter_mut().find(|(n, _)| *n == name) {
            Some(total) => total.1 = total.1.wrapping_add(value),
            None => totals.push((name, value)),
        });
    }
    totals
}

/// Execution metrics of one Map-Reduce job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Wall-clock duration of each map task.
    pub map_durations: Vec<Duration>,
    /// Wall-clock duration of each reduce task (one per partition).
    pub reduce_durations: Vec<Duration>,
    /// Records shuffled into each partition.
    pub shuffle_records: Vec<u64>,
    /// Approximate bytes shuffled into each partition (see
    /// [`crate::SizeOf`]) — identical under either shuffle transport.
    pub shuffle_bytes: Vec<u64>,
    /// Serialized-shuffle spill accounting; all-zero when the job ran
    /// the in-memory transport.
    pub shuffle: ShuffleStats,
    /// Wall-clock time of the whole job as executed locally.
    pub wall: Duration,
}

impl Counters for JobMetrics {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let JobMetrics {
            map_durations: _,    // timing
            reduce_durations: _, // timing
            shuffle_records,
            shuffle_bytes,
            shuffle: ShuffleStats { records_spilled, spill_segments, spill_bytes, checksum },
            wall: _, // timing
        } = self;
        // Per-partition vectors are visited as their totals.
        f("shuffle_records", shuffle_records.iter().sum());
        f("shuffle_bytes", shuffle_bytes.iter().sum());
        f("shuffle.records_spilled", *records_spilled);
        f("shuffle.spill_segments", *spill_segments);
        f("shuffle.spill_bytes", *spill_bytes);
        f("shuffle.checksum", *checksum);
    }
}

impl JobMetrics {
    /// Total shuffled records.
    pub fn total_shuffle_records(&self) -> u64 {
        self.shuffle_records.iter().sum()
    }

    /// Total shuffled bytes (the job's "input cost" in the paper's I/O
    /// discussions).
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.shuffle_bytes.iter().sum()
    }

    /// Longest reduce task — Fig. 8b's "Max. Time Reducer".
    pub fn max_reduce(&self) -> Duration {
        self.reduce_durations.iter().copied().max().unwrap_or_default()
    }

    /// Mean reduce task duration.
    pub fn avg_reduce(&self) -> Duration {
        if self.reduce_durations.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.reduce_durations.iter().sum();
        total / self.reduce_durations.len() as u32
    }

    /// Load imbalance `max / avg` over reduce tasks — Fig. 10b. Returns
    /// `1.0` for degenerate (empty / all-zero) task sets.
    pub fn imbalance(&self) -> f64 {
        let avg = self.avg_reduce().as_secs_f64();
        if avg <= 0.0 {
            return 1.0;
        }
        self.max_reduce().as_secs_f64() / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn imbalance_max_over_avg() {
        let m = JobMetrics { reduce_durations: vec![ms(10), ms(20), ms(30)], ..Default::default() };
        assert_eq!(m.max_reduce(), ms(30));
        assert_eq!(m.avg_reduce(), ms(20));
        assert!((m.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_degenerate_is_one() {
        let m = JobMetrics::default();
        assert_eq!(m.imbalance(), 1.0);
    }

    #[test]
    fn totals_sum_partitions() {
        let m = JobMetrics {
            shuffle_records: vec![3, 4],
            shuffle_bytes: vec![100, 250],
            ..Default::default()
        };
        assert_eq!(m.total_shuffle_records(), 7);
        assert_eq!(m.total_shuffle_bytes(), 350);
    }
}
