//! # tkij-index — access paths for TKIJ's local joins
//!
//! Each reducer of the join phase evaluates the RTJ query on the buckets
//! it received. The paper's implementation "uses R-Trees to access
//! intervals in memory: for an interval `x_i` and a score value `v`, it
//! queries the R-Tree and returns only intervals `x_j` s.t.
//! `s-p(i,j)(x_i, x_j) ≥ v`" (§4). This crate provides:
//!
//! * [`RTree`] — a static STR bulk-loaded R-tree over endpoint points,
//! * [`SweepIndex`] — the sweeping-based, endpoint-sorted store (Piatov
//!   et al.): gapless structure-of-arrays lanes, binary-searched runs,
//!   sequential sweeps — the cache-friendly default of the local-join
//!   hot path, scanning runs with the chunked-mask or scalar kind of
//!   [`lanes`] ([`SweepScanKind`], bit-identical by contract),
//! * [`CandidateSource`] — the probe interface both backends answer
//!   through, so they are swappable without touching join logic,
//! * [`threshold_candidates`] — the predicate-to-window translation that
//!   implements the quoted retrieval: the score constraint becomes an
//!   axis-aligned window (conservative when a primitive compares derived
//!   quantities, e.g. `sparks`' lengths), and candidates are re-checked
//!   exactly by the caller.

pub mod lanes;
pub mod rtree;
pub mod sweep;

pub use lanes::{EndpointLanes, SweepScanKind, LANE_WIDTH};
pub use rtree::{RTree, Rect, Window, FANOUT};
pub use sweep::SweepIndex;

use tkij_temporal::expr::Side;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::TemporalPredicate;

/// An access path over one bucket's intervals, answering the endpoint-
/// plane window queries of the score-threshold retrieval.
///
/// Every backend must visit *exactly* the stored intervals whose
/// `(start, end)` point lies in the window (property-tested against each
/// other and a linear scan) — visit *order* is backend-specific but
/// deterministic.
pub trait CandidateSource: Sync {
    /// Builds the index from a bucket's intervals (input order is
    /// irrelevant).
    fn build(items: Vec<Interval>) -> Self
    where
        Self: Sized;

    /// All indexed intervals, in the backend's deterministic order.
    fn items(&self) -> &[Interval];

    /// Visits every interval in the window; returns the number of stored
    /// items *examined* (scan-effort telemetry, ≥ the number visited).
    fn probe<'t>(&'t self, window: &Window, visit: &mut dyn FnMut(&'t Interval)) -> u64;

    /// Number of indexed intervals.
    fn len(&self) -> usize {
        self.items().len()
    }

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Deterministic fixed-size chunk views over the backend's item
    /// order — the probe-stream sharding unit of the intra-reducer
    /// parallel join. Chunk boundaries depend only on the backend's
    /// deterministic item order and `chunk_items` (clamped to ≥ 1), never
    /// on thread count, so chunked evaluation is reproducible; the
    /// chunks concatenate back to exactly [`CandidateSource::items`].
    fn item_chunks(&self, chunk_items: usize) -> std::slice::Chunks<'_, Interval> {
        self.items().chunks(chunk_items.max(1))
    }
}

/// The density of an interval set: average number of concurrent
/// intervals over its occupied span, `Σ (end − start + 1) / (max_end −
/// min_start + 1)`; `0.0` for an empty set.
///
/// This is the statistic backend auto-selection keys on — the sweeping
/// store's probe advantage over the R-tree grows with exactly this
/// quantity (window population scales with concurrency; see the fig15
/// density sweep). Both backends expose it as [`RTree::density`] /
/// [`SweepIndex::density`], and the engine computes the identical figure
/// per bucket during statistics collection.
pub fn endpoint_density(items: &[Interval]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut duration: u64 = 0;
    let mut min_start = i64::MAX;
    let mut max_end = i64::MIN;
    for iv in items {
        duration += (iv.end - iv.start + 1) as u64;
        min_start = min_start.min(iv.start);
        max_end = max_end.max(iv.end);
    }
    duration as f64 / (max_end - min_start + 1) as f64
}

impl CandidateSource for RTree {
    fn build(items: Vec<Interval>) -> Self {
        RTree::bulk_load(items)
    }

    fn items(&self) -> &[Interval] {
        RTree::items(self)
    }

    fn probe<'t>(&'t self, window: &Window, visit: &mut dyn FnMut(&'t Interval)) -> u64 {
        self.window_query(window, visit)
    }
}

impl CandidateSource for SweepIndex {
    fn build(items: Vec<Interval>) -> Self {
        SweepIndex::build(items)
    }

    fn items(&self) -> &[Interval] {
        SweepIndex::items(self)
    }

    fn probe<'t>(&'t self, window: &Window, visit: &mut dyn FnMut(&'t Interval)) -> u64 {
        self.window_query(window, visit)
    }
}

/// Visits the intervals of `index` that *may* satisfy
/// `s-p(anchor, ·) ≥ v` (or `s-p(·, anchor) ≥ v` when the anchor plays the
/// right side). Returns the number of stored items the backend examined.
///
/// Every interval actually scoring `≥ v` against the anchor is visited
/// (soundness, property-tested); visited intervals still need an exact
/// score check because the window is a conservative box.
pub fn threshold_candidates<'t, C: CandidateSource>(
    index: &'t C,
    predicate: &TemporalPredicate,
    anchor: &Interval,
    anchor_side: Side,
    v: f64,
    mut visit: impl FnMut(&'t Interval),
) -> u64 {
    let window: Window = predicate.threshold_window(anchor, anchor_side, v).into();
    index.probe(&window, &mut visit)
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
        let tree = RTree::bulk_load(items.clone());
        let anchor = iv(1000, 0, 100);
        let mut got = Vec::new();
        threshold_candidates(&tree, &pred, &anchor, Side::Left, 1.0, |c| got.push(*c));
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
        let tree = RTree::bulk_load(items);
        let mut count = 0;
        threshold_candidates(&tree, &pred, &iv(99, 0, 1), Side::Left, 0.0, |_| count += 1);
        assert_eq!(count, 20);
    }

    proptest! {
        /// Soundness across predicates, sides and thresholds: every
        /// interval scoring ≥ v is visited.
        #[test]
        fn candidates_superset_of_scorers(
            kind_idx in 0usize..16,
            points in proptest::collection::vec((0i64..120, 0i64..40), 1..80),
            a_s in 0i64..120, a_w in 0i64..40,
            v in 0.05f64..1.0,
            anchor_left in proptest::bool::ANY,
        ) {
            let kind = PredicateKind::all()[kind_idx];
            let pred = TemporalPredicate::from_kind(kind, PredicateParams::P3, 6);
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, *s, s + w))
                .collect();
            let tree = RTree::bulk_load(items.clone());
            let anchor = iv(9999, a_s, a_s + a_w);
            let side = if anchor_left { Side::Left } else { Side::Right };
            let mut seen = std::collections::BTreeSet::new();
            threshold_candidates(&tree, &pred, &anchor, side, v, |c| {
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
                        "{kind:?}: interval {c:?} scores {score} ≥ {v} but was pruned"
                    );
                }
            }
        }

        /// Sweep and R-tree agree on threshold candidate sets for random
        /// score-threshold windows across every predicate kind and side.
        #[test]
        fn sweep_rtree_agree_on_threshold_windows(
            kind_idx in 0usize..16,
            points in proptest::collection::vec((0i64..200, 0i64..50), 1..120),
            a_s in 0i64..200, a_w in 0i64..50,
            v in 0.0f64..1.0,
            anchor_left in proptest::bool::ANY,
        ) {
            let kind = PredicateKind::all()[kind_idx];
            let pred = TemporalPredicate::from_kind(kind, PredicateParams::P2, 8);
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, *s, s + w))
                .collect();
            let tree = RTree::bulk_load(items.clone());
            let sweep = SweepIndex::build(items);
            let anchor = iv(9999, a_s, a_s + a_w);
            let side = if anchor_left { Side::Left } else { Side::Right };
            let mut a = Vec::new();
            let mut b = Vec::new();
            threshold_candidates(&tree, &pred, &anchor, side, v, |c| a.push(*c));
            threshold_candidates(&sweep, &pred, &anchor, side, v, |c| b.push(*c));
            a.sort_by_key(|i| i.id);
            b.sort_by_key(|i| i.id);
            prop_assert_eq!(a, b, "{:?} side={:?} v={}", kind, side, v);
        }
    }
}
