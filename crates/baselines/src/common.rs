//! Shared helpers for the Boolean competitors of Chawda et al. (EDBT'14),
//! as summarized in the TKIJ paper (§4.2.5, §5).

use std::time::Duration;
use tkij_mapreduce::JobMetrics;
use tkij_temporal::granule::TimePartitioning;
use tkij_temporal::interval::Interval;
use tkij_temporal::result::MatchTuple;

/// Result of a baseline execution: Boolean matches presented as
/// score-1.0 tuples (the paper caps them at `k` and merges like TKIJ).
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Algorithm name (`RCCIS` or `All-Matrix`).
    pub algorithm: &'static str,
    /// Up to `k` Boolean matches (score 1.0), deterministically ordered.
    pub results: Vec<MatchTuple>,
    /// Per-phase Map-Reduce metrics, in execution order.
    pub phases: Vec<(String, JobMetrics)>,
}

impl BaselineReport {
    /// Total measured wall time across phases.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|(_, m)| m.wall).sum()
    }
}

/// The granules a closed interval overlaps under a partitioning, as an
/// inclusive index range.
pub fn granule_span(part: &TimePartitioning, iv: &Interval) -> (u32, u32) {
    (part.granule_of(iv.start), part.granule_of(iv.end))
}

/// A global partitioning covering several collections' time ranges.
pub fn shared_partitioning(
    ranges: impl IntoIterator<Item = (i64, i64)>,
    g: u32,
) -> TimePartitioning {
    let (min, max) =
        ranges.into_iter().fold((i64::MAX, i64::MIN), |acc, r| (acc.0.min(r.0), acc.1.max(r.1)));
    TimePartitioning::from_range(min, max, g).expect("non-empty joint range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_covers_overlapped_granules() {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let iv = Interval::new(0, 15, 37).unwrap();
        assert_eq!(granule_span(&part, &iv), (1, 3));
        let point = Interval::new(1, 50, 50).unwrap();
        assert_eq!(granule_span(&part, &point), (5, 5));
    }

    #[test]
    fn shared_partitioning_spans_all_ranges() {
        let p = shared_partitioning([(0, 50), (200, 300)], 10);
        assert_eq!(p.origin, 0);
        assert!(p.end() >= 300);
        assert_eq!(p.g(), 10);
    }
}
