//! Monotone aggregation of per-edge predicate scores (the paper's `S`).
//!
//! The score of an n-ary result tuple aggregates the partial scores of
//! every query edge. The paper requires `S` to be **monotone** — this is
//! what makes bound aggregation in the `loose` strategy sound (Alg. 2,
//! lines 4–5) and what the rank-join early-termination thresholds rely on.
//!
//! The paper's experiments use the normalized sum
//! `S = Σ s-p(i,j)(x_i, x_j) / |E|`; weighted sums and `min` are provided
//! as the other common monotone choices from the rank-join literature.

/// A monotone aggregation function over edge scores in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregation {
    /// `Σ sᵢ / n` — the paper's default (§4, "Queries").
    NormalizedSum,
    /// `Σ wᵢ·sᵢ` with non-negative weights, normalized by `Σ wᵢ` so results
    /// stay in `[0, 1]`.
    WeightedSum(Vec<f64>),
    /// `min(sᵢ)` — the strictest monotone aggregation.
    Min,
}

impl Aggregation {
    /// Aggregates the edge scores into a tuple score in `[0, 1]`.
    pub fn eval(&self, scores: &[f64]) -> f64 {
        assert!(!scores.is_empty(), "aggregation over zero edges");
        match self {
            Aggregation::NormalizedSum => scores.iter().sum::<f64>() / scores.len() as f64,
            Aggregation::WeightedSum(w) => {
                assert_eq!(w.len(), scores.len(), "weight/edge arity mismatch");
                let total: f64 = w.iter().sum();
                assert!(total > 0.0, "weights must not all be zero");
                w.iter().zip(scores).map(|(wi, si)| wi * si).sum::<f64>() / total
            }
            Aggregation::Min => scores.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Aggregates per-edge score *bounds* into tuple-score bounds.
    ///
    /// Because `S` is monotone, applying it componentwise to the lower
    /// (resp. upper) ends yields a sound lower (resp. upper) bound — this
    /// is exactly how the `loose` strategy combines pair bounds (Alg. 2).
    pub fn combine_bounds(&self, bounds: &[(f64, f64)]) -> (f64, f64) {
        let los: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let his: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        (self.eval(&los), self.eval(&his))
    }

    /// Minimum score edge `edge` must reach for a tuple to be able to
    /// attain total score `target`, given that the edges listed in
    /// `fixed` already have known scores and every other edge is
    /// optimistically assumed to score `1.0`.
    ///
    /// Used by the local rank-join to derive index-probe thresholds: candidates
    /// scoring below the returned value cannot contribute a top-k result.
    /// A non-positive return value means the edge is unconstrained.
    pub fn required_edge_score(
        &self,
        fixed: &[(usize, f64)],
        edge: usize,
        num_edges: usize,
        target: f64,
    ) -> f64 {
        debug_assert!(edge < num_edges);
        debug_assert!(fixed.iter().all(|(e, _)| *e != edge));
        match self {
            Aggregation::NormalizedSum => {
                let fixed_sum: f64 = fixed.iter().map(|(_, s)| s).sum();
                let free = num_edges - fixed.len() - 1; // besides `edge`
                target * num_edges as f64 - fixed_sum - free as f64
            }
            Aggregation::WeightedSum(w) => {
                let total: f64 = w.iter().sum();
                let fixed_sum: f64 = fixed.iter().map(|(e, s)| w[*e] * s).sum();
                let mut free_sum = 0.0;
                for (e, we) in w.iter().enumerate() {
                    if e != edge && !fixed.iter().any(|(fe, _)| *fe == e) {
                        free_sum += we;
                    }
                }
                if w[edge] <= 0.0 {
                    // Zero-weight edge can never be constrained.
                    return f64::NEG_INFINITY;
                }
                (target * total - fixed_sum - free_sum) / w[edge]
            }
            Aggregation::Min => target,
        }
    }

    /// Number of edge weights this aggregation is specialized to, if any.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Aggregation::WeightedSum(w) => Some(w.len()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalized_sum_matches_paper_formula() {
        let s = Aggregation::NormalizedSum;
        assert!((s.eval(&[1.0, 0.5]) - 0.75).abs() < 1e-12);
        assert!((s.eval(&[0.2]) - 0.2).abs() < 1e-12);
        assert!((s.eval(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_normalizes() {
        let s = Aggregation::WeightedSum(vec![3.0, 1.0]);
        assert!((s.eval(&[1.0, 0.0]) - 0.75).abs() < 1e-12);
        assert!((s.eval(&[0.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_is_strict() {
        let s = Aggregation::Min;
        assert_eq!(s.eval(&[0.9, 0.1, 0.5]), 0.1);
    }

    #[test]
    fn combine_bounds_is_componentwise() {
        let s = Aggregation::NormalizedSum;
        let (lo, hi) = s.combine_bounds(&[(0.0, 1.0), (0.5, 0.75)]);
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 0.875).abs() < 1e-12);
    }

    #[test]
    fn required_edge_score_normalized_sum() {
        // 2 edges, target 0.9, other edge free (assumed 1.0):
        // need s ≥ 0.9·2 − 1 = 0.8.
        let s = Aggregation::NormalizedSum;
        let need = s.required_edge_score(&[], 0, 2, 0.9);
        assert!((need - 0.8).abs() < 1e-12);
        // With the other edge fixed at 0.6: need s ≥ 1.8 − 0.6 = 1.2 ⇒
        // impossible, caller prunes.
        let need = s.required_edge_score(&[(1, 0.6)], 0, 2, 0.9);
        assert!((need - 1.2).abs() < 1e-12);
    }

    #[test]
    fn required_edge_score_min_is_target() {
        let s = Aggregation::Min;
        assert_eq!(s.required_edge_score(&[], 1, 3, 0.7), 0.7);
    }

    #[test]
    fn unbounded_target_requires_nothing() {
        // A top-k heap that is not yet full has threshold −∞: no edge is
        // constrained, whatever the aggregation and the fixed scores.
        for agg in
            [Aggregation::NormalizedSum, Aggregation::WeightedSum(vec![3.0, 1.0]), Aggregation::Min]
        {
            let need = agg.required_edge_score(&[(1, 0.4)], 0, 2, f64::NEG_INFINITY);
            assert_eq!(need, f64::NEG_INFINITY, "{agg:?}");
        }
    }

    proptest! {
        /// Monotonicity: raising any single edge score never lowers the
        /// aggregate.
        #[test]
        fn monotone(
            base in proptest::collection::vec(0.0f64..1.0, 1..6),
            idx in 0usize..6, bump in 0.0f64..1.0,
        ) {
            let idx = idx % base.len();
            let mut hi = base.clone();
            hi[idx] = (hi[idx] + bump).min(1.0);
            let aggs = [
                Aggregation::NormalizedSum,
                Aggregation::Min,
                Aggregation::WeightedSum(vec![1.0; base.len()]),
            ];
            for a in &aggs {
                prop_assert!(a.eval(&hi) >= a.eval(&base) - 1e-12);
            }
        }

        /// The required-edge-score threshold is consistent: any candidate
        /// meeting it can reach `target` with optimistic free edges, and
        /// any candidate strictly below it cannot.
        #[test]
        fn required_edge_score_consistency(
            other in 0.0f64..1.0, target in 0.0f64..1.0, s in 0.0f64..1.0,
        ) {
            let agg = Aggregation::NormalizedSum;
            let need = agg.required_edge_score(&[(1, other)], 0, 3, target);
            // Edges: 0 = candidate s, 1 = fixed `other`, 2 = free (1.0).
            let attained = agg.eval(&[s, other, 1.0]);
            if s >= need + 1e-9 {
                prop_assert!(attained >= target - 1e-9);
            }
            if s < need - 1e-9 {
                prop_assert!(attained < target + 1e-9);
            }
        }
    }
}
