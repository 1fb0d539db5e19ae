//! Order statistics the reports are built from.
//!
//! Percentiles are nearest-rank (the value of the sample at rank
//! `ceil(q · n)`), so a reported number is always a latency that was
//! measured, never an interpolation between two.

/// Samples that must lie beyond a percentile's rank before it may be
/// reported (the choosing-metrics rule: "the highest percentile that has
/// at least ten samples beyond it").
pub const SAMPLES_BEYOND: usize = 10;

/// Sorts samples ascending (total order; the harness never records NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples; `None` when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] beyond the
/// nearest rank of quantile `q`.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank >= SAMPLES_BEYOND
}

/// Median: the mean of the two middle samples for even counts (the one
/// place an interpolated value is reported — a median of an even count
/// has no single middle sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The ensemble aggregate of a per-query quantity: the median over each
/// ensemble member's repetitions, then the mean over members. Medians
/// shed a stalled repetition; the mean over members keeps the layers of
/// one workload additive (their aggregates sum to the query's).
pub fn mean_of_medians(per_member: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_member.iter().filter_map(|reps| median(reps)).collect();
    mean(&medians).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0), "rank clamps to the first sample");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples: rank 90, ten beyond.
        assert!(percentile_supported(100, 0.9));
        // 99 samples: rank 90, only nine beyond.
        assert!(!percentile_supported(99, 0.9));
        // The median needs 20 (rank 10 of 20).
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        // p99 needs a thousand.
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn ensemble_aggregate_is_robust_and_additive() {
        // One stalled repetition per member does not move the aggregate.
        let a = vec![vec![10.0, 10.0, 90.0], vec![20.0, 20.0, 20.0]];
        assert_eq!(mean_of_medians(&a), 15.0);
        // Empty members are skipped; no members reads 0.
        assert_eq!(mean_of_medians(&[vec![], vec![4.0]]), 4.0);
        assert_eq!(mean_of_medians(&[]), 0.0);
    }
}
