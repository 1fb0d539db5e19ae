//! The Bounds Problem (paper §3.3, Definition 1).
//!
//! Given a bucket combination `ω = (b_1, …, b_n)`, find the maximum
//! (resp. minimum) of `S_{(i,j)∈E}(s-p_{(i,j)}(x_i, x_j))` subject to each
//! `x_i` starting in granule `g_{i,l_i}` and ending in `g_{i,l'_i}`. Here
//! each interval variable is a pair of integer endpoint variables whose
//! domains are an [`EndpointBox`], plus the implicit validity constraint
//! `start ≤ end`.

use tkij_temporal::aggregate::Aggregation;
use tkij_temporal::expr::EndpointBox;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::TemporalPredicate;
use tkij_temporal::query::Query;

/// One scored-predicate term between two interval variables.
#[derive(Debug, Clone)]
pub struct PairTerm<'q> {
    /// Variable playing the predicate's left side.
    pub left: usize,
    /// Variable playing the right side.
    pub right: usize,
    /// The predicate.
    pub predicate: &'q TemporalPredicate,
}

/// A complete instance of the Bounds Problem.
#[derive(Debug, Clone)]
pub struct BoundsProblem<'q> {
    /// Domain box per interval variable (from the combination's buckets).
    pub boxes: Vec<EndpointBox>,
    /// Predicate terms (the query edges restricted to these variables).
    pub edges: Vec<PairTerm<'q>>,
    /// The monotone aggregation `S`.
    pub aggregation: &'q Aggregation,
}

impl<'q> BoundsProblem<'q> {
    /// Builds the n-ary problem for a query over one box per query vertex.
    pub fn from_query(query: &'q Query, boxes: Vec<EndpointBox>) -> Self {
        assert_eq!(boxes.len(), query.n(), "one box per query vertex");
        let edges = query
            .edges
            .iter()
            .map(|e| PairTerm { left: e.src, right: e.dst, predicate: &e.predicate })
            .collect();
        BoundsProblem { boxes, edges, aggregation: &query.aggregation }
    }

    /// Builds the 2-variable problem for a single predicate (the `loose`
    /// strategy computes bounds per bucket *pair*; the per-edge score needs
    /// no aggregation, so a 1-edge normalized sum is used).
    pub fn pair(predicate: &'q TemporalPredicate, left: EndpointBox, right: EndpointBox) -> Self {
        static SINGLE: Aggregation = Aggregation::NormalizedSum;
        BoundsProblem {
            boxes: vec![left, right],
            edges: vec![PairTerm { left: 0, right: 1, predicate }],
            aggregation: &SINGLE,
        }
    }

    /// Number of interval variables.
    pub fn num_vars(&self) -> usize {
        self.boxes.len()
    }

    /// Evaluates the aggregated score at a concrete point.
    pub fn eval(&self, point: &[Interval]) -> f64 {
        debug_assert_eq!(point.len(), self.boxes.len());
        let scores: Vec<f64> =
            self.edges.iter().map(|e| e.predicate.score(&point[e.left], &point[e.right])).collect();
        self.aggregation.eval(&scores)
    }

    /// Sound interval enclosure of the aggregated score over the given
    /// boxes: per-edge exact primitive ranges, min-combined per predicate,
    /// aggregated componentwise (valid because `S` is monotone).
    ///
    /// May be loose when primitives or edges share endpoint variables; the
    /// branch-and-bound layer contracts it by splitting.
    pub fn enclosure(&self, boxes: &[EndpointBox]) -> (f64, f64) {
        let bounds: Vec<(f64, f64)> = self
            .edges
            .iter()
            .map(|e| e.predicate.score_range(&boxes[e.left], &boxes[e.right]))
            .collect();
        self.aggregation.combine_bounds(&bounds)
    }

    /// A feasible integer point inside the boxes, as close to the centers
    /// as validity (`start ≤ end`) allows; `None` if some box admits no
    /// valid interval.
    pub fn center_point(&self, boxes: &[EndpointBox]) -> Option<Vec<Interval>> {
        let mut point = Vec::with_capacity(boxes.len());
        for (i, b) in boxes.iter().enumerate() {
            // Valid starts must not exceed the largest possible end.
            let s_hi = b.start.1.min(b.end.1);
            if s_hi < b.start.0 {
                return None;
            }
            let s = midpoint(b.start).clamp(b.start.0, s_hi);
            let e_lo = b.end.0.max(s);
            let e = midpoint(b.end).clamp(e_lo, b.end.1);
            point.push(Interval::new_unchecked(i as u64, s, e));
        }
        Some(point)
    }

    /// Whether a box vector admits any valid interval assignment.
    pub fn feasible(boxes: &[EndpointBox]) -> bool {
        boxes.iter().all(|b| b.start.0 <= b.end.1)
    }
}

/// `(lo + hi) / 2`, rounded toward zero, computed in `i128` so that it
/// cannot overflow.
fn midpoint((lo, hi): (i64, i64)) -> i64 {
    ((lo as i128 + hi as i128) / 2) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    #[test]
    fn pair_eval_matches_predicate() {
        let p = PredicateParams::new(4, 8, 0, 0);
        let pred = TemporalPredicate::meets(p);
        let prob = BoundsProblem::pair(
            &pred,
            EndpointBox::new((10, 20), (20, 30)),
            EndpointBox::new((20, 30), (30, 40)),
        );
        let x = iv(0, 12, 25);
        let y = iv(1, 25, 35);
        assert_eq!(prob.eval(&[x, y]), pred.score(&x, &y));
    }

    #[test]
    fn paper_meets_example_enclosure() {
        // §3.3: ω = (b_{1,1,2}, b_{2,2,3}), s-meets with (4, 8):
        // scores span [0.25, 1] — the pair enclosure is already exact here.
        let p = PredicateParams::new(4, 8, 0, 0);
        let pred = TemporalPredicate::meets(p);
        let prob = BoundsProblem::pair(
            &pred,
            EndpointBox::new((10, 20), (20, 30)),
            EndpointBox::new((20, 30), (30, 40)),
        );
        let (lo, hi) = prob.enclosure(&prob.boxes);
        assert!((hi - 1.0).abs() < 1e-12);
        assert!((lo - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_query_maps_edges() {
        let q = table1::q_sfm(PredicateParams::P1);
        let boxes = vec![
            EndpointBox::new((0, 9), (0, 9)),
            EndpointBox::new((0, 9), (10, 19)),
            EndpointBox::new((10, 19), (10, 19)),
        ];
        let prob = BoundsProblem::from_query(&q, boxes);
        assert_eq!(prob.num_vars(), 3);
        assert_eq!(prob.edges.len(), 3);
        assert_eq!((prob.edges[2].left, prob.edges[2].right), (0, 2));
    }

    #[test]
    fn center_point_respects_validity() {
        // Box where blind centering would give start 9 > end 5.
        let boxes = [EndpointBox::new((8, 10), (0, 5))];
        let pred = TemporalPredicate::before(PredicateParams::P1);
        let prob = BoundsProblem::pair(
            &pred,
            EndpointBox::new((0, 1), (0, 1)),
            EndpointBox::new((0, 1), (0, 1)),
        );
        // Feasibility check is static.
        assert!(!BoundsProblem::feasible(&boxes), "start.lo > end.hi");
        assert!(BoundsProblem::feasible(&prob.boxes));
        let pt = prob.center_point(&prob.boxes).unwrap();
        assert!(pt.iter().all(|i| i.end >= i.start));
    }

    #[test]
    fn center_point_clamps_into_overlap() {
        let pred = TemporalPredicate::before(PredicateParams::P1);
        // start ∈ [0, 10], end ∈ [4, 6]: center start 5 ≤ 6 ok; but
        // start ∈ [6, 10] with end ∈ [0, 7] needs the fallback branch.
        let prob = BoundsProblem::pair(
            &pred,
            EndpointBox::new((6, 10), (0, 7)),
            EndpointBox::new((0, 1), (0, 1)),
        );
        let pt = prob.center_point(&prob.boxes).unwrap();
        assert!(pt[0].start >= 6 && pt[0].end <= 7 && pt[0].start <= pt[0].end);
    }
}
