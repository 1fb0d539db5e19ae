//! Reference evaluators: exhaustive enumeration of every tuple.
//!
//! These are the correctness oracles for TKIJ (whose central guarantee is
//! *exact* top-k answers) and for the Boolean baselines. They are also the
//! generators behind Fig. 7 (score distribution of all pairs).

use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::Query;
use tkij_temporal::result::{MatchTuple, TopK};

/// Visits every tuple of the cartesian product of the vertex collections.
fn for_each_tuple(data: &[&IntervalCollection], mut visit: impl FnMut(&[Interval])) {
    let n = data.len();
    if data.iter().any(|c| c.is_empty()) {
        return;
    }
    let mut idx = vec![0usize; n];
    let mut tuple: Vec<Interval> =
        idx.iter().enumerate().map(|(v, &i)| data[v].intervals()[i]).collect();
    loop {
        visit(&tuple);
        let mut v = n - 1;
        loop {
            idx[v] += 1;
            if idx[v] < data[v].len() {
                tuple[v] = data[v].intervals()[idx[v]];
                break;
            }
            idx[v] = 0;
            tuple[v] = data[v].intervals()[0];
            if v == 0 {
                return;
            }
            v -= 1;
        }
    }
}

/// Exhaustive exact top-k: scores every tuple and keeps the best `k`
/// under the deterministic [`TopK`] order. Exponential — test/bench scale
/// only.
pub fn naive_topk(query: &Query, data: &[&IntervalCollection], k: usize) -> Vec<MatchTuple> {
    assert_eq!(data.len(), query.n(), "one collection per vertex");
    let mut top = TopK::new(k);
    for_each_tuple(data, |tuple| {
        let score = query.score_tuple(tuple);
        // Cheap admission pre-check to keep the oracle usable at bench
        // scale; TopK re-checks deterministically.
        if score >= top.threshold() {
            top.offer(MatchTuple::new(tuple.iter().map(|iv| iv.id).collect(), score));
        }
    });
    top.into_sorted_vec()
}

/// Exhaustive Boolean join: ids of every tuple satisfying all edge
/// predicates crisply, in lexicographic id order.
pub fn naive_boolean(query: &Query, data: &[&IntervalCollection]) -> Vec<Vec<u64>> {
    assert_eq!(data.len(), query.n());
    let mut out = Vec::new();
    for_each_tuple(data, |tuple| {
        if query.holds_boolean(tuple) {
            out.push(tuple.iter().map(|iv| iv.id).collect());
        }
    });
    out.sort();
    out
}

/// All pairwise scores of a single scored predicate over two collections,
/// descending — the series plotted in Fig. 7.
pub fn all_pair_scores(
    predicate: &tkij_temporal::predicate::TemporalPredicate,
    left: &IntervalCollection,
    right: &IntervalCollection,
) -> Vec<f64> {
    let mut scores = Vec::with_capacity(left.len() * right.len());
    for x in left.intervals() {
        for y in right.intervals() {
            scores.push(predicate.score(x, y));
        }
    }
    scores.sort_by(|a, b| b.total_cmp(a));
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::collection::CollectionId;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::predicate::TemporalPredicate;
    use tkij_temporal::query::table1;

    fn coll(id: u32, ivs: &[(i64, i64)]) -> IntervalCollection {
        IntervalCollection::new(
            CollectionId(id),
            ivs.iter()
                .enumerate()
                .map(|(i, (s, e))| Interval::new(i as u64, *s, *e).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn topk_orders_by_score_then_ids() {
        let q = table1::q_bb(PredicateParams::new(0, 0, 0, 10));
        let c1 = coll(0, &[(0, 10)]);
        let c2 = coll(1, &[(15, 20), (30, 40)]);
        let c3 = coll(2, &[(50, 60)]);
        let top = naive_topk(&q, &[&c1, &c2, &c3], 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        // (0, 1, 0): gaps 10 and 10 → both saturate ρ=10 → score 1.
        assert_eq!(top[0].ids, vec![0, 1, 0]);
        assert!((top[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boolean_join_matches_hand_count() {
        let q = table1::q_bb(PredicateParams::PB);
        let c1 = coll(0, &[(0, 10), (0, 50)]);
        let c2 = coll(1, &[(15, 20)]);
        let c3 = coll(2, &[(25, 30), (10, 12)]);
        // before(x1, x2): only id 0 of c1. before(x2, x3): only id 0 of c3.
        let matches = naive_boolean(&q, &[&c1, &c2, &c3]);
        assert_eq!(matches, vec![vec![0, 0, 0]]);
    }

    #[test]
    fn pair_scores_sorted_desc_and_complete() {
        let pred = TemporalPredicate::meets(PredicateParams::new(4, 8, 0, 0));
        let c1 = coll(0, &[(0, 10), (0, 20)]);
        let c2 = coll(1, &[(10, 30), (100, 110)]);
        let scores = all_pair_scores(&pred, &c1, &c2);
        assert_eq!(scores.len(), 4);
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(scores[0], 1.0);
        assert_eq!(scores[3], 0.0);
    }

    #[test]
    fn k_larger_than_result_space() {
        let q = table1::q_bb(PredicateParams::P1);
        let c = coll(0, &[(0, 5), (10, 15)]);
        let top = naive_topk(&q, &[&c, &c, &c], 100);
        assert_eq!(top.len(), 8, "2³ tuples in total");
    }
}
