//! # tkij-index — the access path of TKIJ's local joins
//!
//! Each reducer of the join phase evaluates the RTJ query on the buckets
//! it received. The paper's implementation "uses R-Trees to access
//! intervals in memory: for an interval `x_i` and a score value `v`, it
//! queries the R-Tree and returns only intervals `x_j` s.t.
//! `s-p(i,j)(x_i, x_j) ≥ v`" (§4). This crate answers the same question
//! with one structure:
//!
//! * [`SweepIndex`] — the sweeping-based, endpoint-sorted store (Piatov
//!   et al.): the bucket sorted by start and, in a second copy, by end;
//!   a probe binary-searches both copies and sweeps the shorter run,
//!   visiting each interval the window admits
//!   ([`ThresholdWindow::admits`]). On every benchmark workload it scans
//!   fewer items and runs faster than the R-tree it replaced;
//! * [`threshold_candidates`] — the predicate-to-window translation that
//!   implements the quoted retrieval: the score constraint becomes an
//!   axis-aligned [`ThresholdWindow`] (conservative when a primitive
//!   compares derived quantities, e.g. `sparks`' lengths), and candidates
//!   are re-checked exactly by the caller.

pub mod sweep;

pub use sweep::{SweepIndex, SweepScanKind};
pub use tkij_temporal::predicate::ThresholdWindow;

use tkij_temporal::expr::Side;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::TemporalPredicate;

/// Visits the intervals of `index` that *may* satisfy
/// `s-p(anchor, ·) ≥ v` (or `s-p(·, anchor) ≥ v` when the anchor plays the
/// right side). Returns the number of stored items the probe examined.
///
/// Every interval actually scoring `≥ v` against the anchor is visited
/// (soundness, property-tested); visited intervals still need an exact
/// score check because the window is a conservative box.
///
/// A `v ≤ 0` window is unbounded. Once its heap is full, the local join
/// retrieves `s > u` for its requirement `u ≥ 0` by passing the next
/// float above `u`: a candidate scoring exactly `u` could only tie the
/// requirement, where its walk stops. Soundness holds at every positive
/// `v`, including the smallest subnormal and the floats just above the
/// score breakpoints `j/ρ` (property-tested).
pub fn threshold_candidates<'t>(
    index: &'t SweepIndex,
    predicate: &TemporalPredicate,
    anchor: &Interval,
    anchor_side: Side,
    v: f64,
    visit: impl FnMut(&'t Interval),
) -> u64 {
    index.window_query(&predicate.threshold_window(anchor, anchor_side, v), visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::predicate::PredicateKind;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    #[test]
    fn meets_threshold_prunes_far_intervals() {
        // Anchor ends at 100; s-meets (λ=4, ρ=8) at v=1.0 admits only
        // intervals starting in [96, 104].
        let p = PredicateParams::new(4, 8, 0, 0);
        let pred = TemporalPredicate::meets(p);
        let items: Vec<Interval> =
            (0..100).map(|i| iv(i, i as i64 * 3, i as i64 * 3 + 50)).collect();
        let index = SweepIndex::build(items.clone());
        let anchor = iv(1000, 0, 100);
        let mut got = Vec::new();
        threshold_candidates(&index, &pred, &anchor, Side::Left, 1.0, |c| got.push(*c));
        assert!(!got.is_empty());
        for c in &got {
            assert!((96..=104).contains(&c.start), "candidate {c:?} outside window");
        }
        // Every true scorer is among the candidates.
        for c in &items {
            if pred.score(&anchor, c) >= 1.0 {
                assert!(got.contains(c));
            }
        }
    }

    #[test]
    fn zero_threshold_scans_everything() {
        let pred = TemporalPredicate::before(PredicateParams::P1);
        let items: Vec<Interval> = (0..20).map(|i| iv(i, i as i64, i as i64 + 5)).collect();
        let index = SweepIndex::build(items);
        let mut count = 0;
        let scanned =
            threshold_candidates(&index, &pred, &iv(99, 0, 1), Side::Left, 0.0, |_| count += 1);
        assert_eq!((count, scanned), (20, 20));
    }

    /// Offsets that move a case to extreme timestamps: none, a nanosecond
    /// epoch on an `f64` rounding midpoint, and both ends of `i64`.
    pub(crate) const FAR: [i64; 4] =
        [0, 1_700_000_000_000_000_128, -9_200_000_000_000_000_000, 9_200_000_000_000_000_000];

    /// The thresholds the local join probes at once its heap is full, the
    /// next float above a requirement `u ≥ 0`: above 0 (the smallest
    /// subnormal), the smallest normal `f64`, and above each breakpoint
    /// score `j/ρ` of `params`' tolerances, 0.5 included.
    fn strict_thresholds(params: PredicateParams) -> Vec<f64> {
        let next_up = |u: f64| f64::from_bits((u + 0.0).to_bits() + 1);
        let mut thresholds = vec![next_up(0.0), f64::MIN_POSITIVE, next_up(0.5)];
        for rho in [params.equals.rho, params.greater.rho] {
            thresholds.extend((0..rho).map(|j| next_up(j as f64 / rho as f64)));
        }
        thresholds
    }

    proptest! {
        /// Soundness across predicates, sides, thresholds (a drawn `v` and
        /// every threshold a full heap probes at) and timestamp offsets:
        /// every interval scoring ≥ v is visited.
        #[test]
        fn candidates_superset_of_scorers(
            kind_idx in 0usize..16,
            points in proptest::collection::vec((0i64..120, 0i64..40), 1..80),
            a_s in 0i64..120, a_w in 0i64..40,
            v in 0.05f64..1.0,
            anchor_left in proptest::bool::ANY,
            far in 0usize..4,
        ) {
            let kind = PredicateKind::all()[kind_idx];
            let params = PredicateParams::P3;
            let pred = TemporalPredicate::from_kind(kind, params, 6);
            let far = FAR[far];
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, far + s, far + s + w))
                .collect();
            let index = SweepIndex::build(items.clone());
            let anchor = iv(9999, far + a_s, far + a_s + a_w);
            let side = if anchor_left { Side::Left } else { Side::Right };
            let mut thresholds = strict_thresholds(params);
            thresholds.push(v);
            for v in thresholds {
                let mut seen = std::collections::BTreeSet::new();
                threshold_candidates(&index, &pred, &anchor, side, v, |c| {
                    seen.insert(c.id);
                });
                for c in &items {
                    let score = match side {
                        Side::Left => pred.score(&anchor, c),
                        Side::Right => pred.score(c, &anchor),
                    };
                    if score >= v {
                        prop_assert!(
                            seen.contains(&c.id),
                            "{kind:?}: interval {c:?} scores {score} ≥ {v:e} but was pruned"
                        );
                    }
                }
            }
        }
    }
}
