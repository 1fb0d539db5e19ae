//! Scored result tuples and deterministic top-k accumulation.
//!
//! RTJ results are tuples `(x_1, …, x_n)` with an aggregated score. Both
//! the per-reducer local joins (Fig. 5d) and the final merge job (Fig. 5e)
//! accumulate them through [`TopK`], which keeps the best `k` under a
//! *total* deterministic order — score descending, then tuple ids
//! ascending — so that distributed execution order can never change the
//! reported output.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One result tuple: the interval ids per query vertex plus the aggregated
/// score.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchTuple {
    /// Interval ids, indexed by query vertex.
    pub ids: Vec<u64>,
    /// Aggregated score in `[0, 1]`.
    pub score: f64,
}

impl MatchTuple {
    /// Creates a tuple; the score must be finite.
    pub fn new(ids: Vec<u64>, score: f64) -> Self {
        debug_assert!(score.is_finite());
        MatchTuple { ids, score }
    }

    /// Total order: better first (higher score, then lexicographically
    /// smaller id vector — an arbitrary but deterministic tie-break).
    pub fn rank_cmp(&self, other: &Self) -> Ordering {
        other.score.total_cmp(&self.score).then_with(|| self.ids.cmp(&other.ids))
    }
}

/// Wrapper ordering the heap so that the *worst* retained tuple is at the
/// root (max-heap on "badness").
#[derive(Debug, Clone, PartialEq)]
struct Worst(MatchTuple);

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // `rank_cmp` orders better tuples as `Less`, so the BinaryHeap
        // maximum under it is the lowest-ranked retained tuple.
        self.0.rank_cmp(&other.0)
    }
}

/// A bounded accumulator retaining the best `k` tuples seen so far.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    /// Creates an accumulator for the best `k` tuples (`k ≥ 1`). Nothing
    /// is reserved up front: `k` may be any `usize`, far beyond the tuples
    /// that will ever be offered.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "top-k requires k ≥ 1");
        TopK { k, heap: BinaryHeap::new() }
    }

    /// Number of tuples currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` tuples are retained.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The running `τ_k` threshold used for pruning: the score of the
    /// currently-worst retained tuple once full, `−∞` before that (every
    /// tuple is admitted). Anything bounded by `bound ≤ threshold()` can no
    /// longer change the top-k score multiset.
    pub fn threshold(&self) -> f64 {
        match self.heap.peek() {
            Some(w) if self.is_full() => w.0.score,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Offers a tuple; returns `true` if it was retained.
    pub fn offer(&mut self, tuple: MatchTuple) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(Worst(tuple));
            return true;
        }
        // Full: replace the worst if the candidate ranks strictly better.
        let worst = self.heap.peek().expect("k ≥ 1");
        if tuple.rank_cmp(&worst.0) == Ordering::Less {
            self.heap.pop();
            self.heap.push(Worst(tuple));
            true
        } else {
            false
        }
    }

    /// Consumes the accumulator, returning tuples best-first.
    pub fn into_sorted_vec(self) -> Vec<MatchTuple> {
        let mut v: Vec<MatchTuple> = self.heap.into_iter().map(|w| w.0).collect();
        v.sort_by(MatchTuple::rank_cmp);
        v
    }

    /// The scores best-first without consuming (for assertions/reports).
    pub fn sorted_scores(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.heap.iter().map(|w| w.0.score).collect();
        v.sort_by(|a, b| b.total_cmp(a));
        v
    }

    /// Minimum score among retained tuples (Fig. 8c reports this per
    /// reducer); `None` when empty.
    pub fn min_score(&self) -> Option<f64> {
        self.heap.peek().map(|w| w.0.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ids: &[u64], score: f64) -> MatchTuple {
        MatchTuple::new(ids.to_vec(), score)
    }

    #[test]
    fn keeps_best_k() {
        let mut top = TopK::new(2);
        assert!(top.offer(t(&[1], 0.5)));
        assert!(top.offer(t(&[2], 0.9)));
        assert!(top.is_full());
        assert_eq!(top.threshold(), 0.5);
        assert!(top.offer(t(&[3], 0.7)));
        assert!(!top.offer(t(&[4], 0.2)));
        let out = top.into_sorted_vec();
        assert_eq!(out.iter().map(|m| m.score).collect::<Vec<_>>(), vec![0.9, 0.7]);
    }

    #[test]
    fn deterministic_tie_break_on_ids() {
        let mut top = TopK::new(2);
        top.offer(t(&[5, 5], 0.5));
        top.offer(t(&[1, 9], 0.5));
        top.offer(t(&[3, 3], 0.5));
        let out = top.into_sorted_vec();
        assert_eq!(out[0].ids, vec![1, 9]);
        assert_eq!(out[1].ids, vec![3, 3]);
    }

    #[test]
    fn equal_tuple_is_not_admitted_when_full() {
        let mut top = TopK::new(1);
        top.offer(t(&[1], 0.5));
        assert!(!top.offer(t(&[1], 0.5)), "identical rank must not displace");
        assert!(top.offer(t(&[0], 0.5)), "smaller ids rank strictly better");
    }

    #[test]
    fn threshold_is_neg_infinity_until_full() {
        let mut top = TopK::new(3);
        assert_eq!(top.threshold(), f64::NEG_INFINITY);
        top.offer(t(&[1], 0.9));
        assert_eq!(top.threshold(), f64::NEG_INFINITY);
        top.offer(t(&[2], 0.8));
        top.offer(t(&[3], 0.7));
        assert_eq!(top.threshold(), 0.7);
    }

    #[test]
    fn any_k_allocates_only_what_is_offered() {
        // A `k` far past any result count must neither reserve `k` slots
        // nor overflow computing the reservation.
        for k in [1 << 40, usize::MAX] {
            let mut top = TopK::new(k);
            assert_eq!(top.threshold(), f64::NEG_INFINITY);
            top.offer(t(&[2], 0.25));
            top.offer(t(&[1], 0.75));
            assert!(!top.is_full());
            assert_eq!(top.into_sorted_vec(), vec![t(&[1], 0.75), t(&[2], 0.25)]);
        }
    }

    proptest! {
        /// TopK returns exactly the k best under the deterministic order,
        /// matching a full sort, for any offer order.
        #[test]
        fn matches_full_sort(
            scores in proptest::collection::vec(0.0f64..1.0, 1..80),
            k in 1usize..20,
        ) {
            let tuples: Vec<MatchTuple> = scores
                .iter()
                .enumerate()
                .map(|(i, s)| t(&[i as u64], (s * 16.0).round() / 16.0))
                .collect();
            let mut top = TopK::new(k);
            for tp in &tuples {
                top.offer(tp.clone());
            }
            let mut expected = tuples.clone();
            expected.sort_by(MatchTuple::rank_cmp);
            expected.truncate(k);
            let got = top.into_sorted_vec();
            prop_assert_eq!(got, expected);
        }

        /// The threshold is monotonically non-decreasing as offers arrive.
        #[test]
        fn threshold_monotone(scores in proptest::collection::vec(0.0f64..1.0, 1..60)) {
            let mut top = TopK::new(4);
            let mut last = f64::NEG_INFINITY;
            for (i, s) in scores.iter().enumerate() {
                top.offer(t(&[i as u64], *s));
                let now = top.threshold();
                prop_assert!(now >= last - 1e-15);
                last = now;
            }
        }
    }
}
