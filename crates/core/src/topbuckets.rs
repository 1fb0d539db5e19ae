//! TopBuckets: bound computation and pruning of bucket combinations
//! (paper §3.3, Algorithms 1 and 2).
//!
//! `getTopBuckets` selects `Ω_{k,S}`: a subset of combinations sufficient
//! to answer the top-k query exactly (Definition 2). The three strategies
//! trade solver effort for bound tightness:
//!
//! * [`Strategy::BruteForce`] — n-ary solver bounds for every combination;
//! * [`Strategy::Loose`] — solver bounds per bucket *pair* per edge,
//!   aggregated through the monotone `S` (sound but possibly loose);
//! * [`Strategy::TwoPhase`] — loose selection, then exact n-ary
//!   refinement of the survivors and a second selection.
//!
//! This departs from the paper's deployment, which splits the first
//! vertex's buckets into 6 groups for 6 workers, each running
//! `getTopBuckets` locally before a merge and a re-selection (§4,
//! "Selection of bucket combinations"). Here one selection runs over the
//! whole lattice, in odometer passes that store no per-combination bound
//! (see `stream_reachable`); only the combinations its walk can reach
//! are materialised. That needs less planner memory than any split into
//! groups, and a re-selection over one selection would keep all of it.

use crate::combos::{
    enumerate_combos, nb_res_of, vertex_buckets, ComboSet, TopBucketsStats, VertexBuckets,
};
use crate::config::Strategy;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::Instant;
use tkij_solver::{nary_bounds, pair_bounds, SolverConfig};
use tkij_temporal::bucket::BucketMatrix;
use tkij_temporal::expr::EndpointBox;
use tkij_temporal::query::Query;

/// Algorithm 1: selects a valid `Ω_{k,S}` from a bounded combination set —
/// the `kthResLB` threshold (lines 1–6), then the selection by upper bound
/// (lines 7–13).
///
/// Returns the kept indices in descending-UB order (the access order both
/// DTB and the local joins use).
pub fn get_top_buckets(k: u64, combos: &ComboSet) -> Vec<u32> {
    let mut kth_lb = WeightedKth::new(k);
    for i in 0..combos.len() {
        kth_lb.offer(combos.lb(i), combos.nb_res(i));
    }
    select_by_ub(k, kth_lb.kth(), combos)
}

/// Algorithm 1, lines 7–13: walks `combos` in descending upper bound and
/// keeps combinations until the kept ones are certain to hold `k` results
/// scoring at least `kth_res_lb` (their `lb ≥ kth_res_lb`) and the next
/// upper bound is dominated by `kth_res_lb` — Definition 2's validity.
///
/// Counting every kept result instead, as line 10 does, is unsound under
/// ties: combinations with high upper bounds but low lower bounds can
/// cover `k` first, and the cut at `ub ≤ kthResLB` then drops the
/// combinations whose results tie `kthResLB` while the kept results score
/// below it.
fn select_by_ub(k: u64, kth_res_lb: f64, combos: &ComboSet) -> Vec<u32> {
    let mut kept = Vec::new();
    let mut certain: u128 = 0;
    for i in combos.indices_by_ub_desc() {
        if certain >= k as u128 && combos.ub(i as usize) <= kth_res_lb {
            break;
        }
        kept.push(i);
        if combos.lb(i as usize) >= kth_res_lb {
            certain += combos.nb_res(i as usize) as u128;
        }
    }
    kept
}

/// Maps `f64` bits to an `i64` that orders like [`f64::total_cmp`] (the
/// transform `total_cmp` itself uses); applying it twice restores the bits.
fn total_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Streaming weighted k-th statistic: the key at which a key-descending
/// walk over the offered `(key, weight)` items first accumulates weight
/// `≥ k` (with `k = 0`, the largest key) — what Algorithm 1's lines 1–6
/// compute with a sort. Holds only the items above that key: a min-heap
/// whose total weight just covers `k`.
struct WeightedKth {
    k: u128,
    weight: u128,
    heap: BinaryHeap<Reverse<(i64, u64)>>,
}

impl WeightedKth {
    fn new(k: u64) -> Self {
        WeightedKth { k: k as u128, weight: 0, heap: BinaryHeap::new() }
    }

    fn offer(&mut self, key: f64, weight: u64) {
        let key = total_order_key(key.to_bits() as i64);
        if self.weight >= self.k && self.heap.peek().is_some_and(|min| key <= min.0 .0) {
            return; // already covered by larger keys
        }
        self.heap.push(Reverse((key, weight)));
        self.weight += weight as u128;
        // Drop the smallest keys the cover no longer needs.
        while self.heap.len() > 1 {
            let min_weight = self.heap.peek().expect("len > 1").0 .1 as u128;
            if self.weight - min_weight < self.k {
                break;
            }
            self.heap.pop();
            self.weight -= min_weight;
        }
    }

    /// The k-th key; `−∞` while fewer than `k` results were offered.
    fn kth(&self) -> f64 {
        match self.heap.peek() {
            Some(min) if self.weight >= self.k => f64::from_bits(total_order_key(min.0 .0) as u64),
            _ => f64::NEG_INFINITY,
        }
    }
}

/// Where the passes read a combination's `[lb, ub]` (sides [`LB`] and
/// [`UB`]).
enum LatticeBounds<'a> {
    /// `Loose` and `TwoPhase`: per query edge, the pair bounds of its
    /// source's i-th and target's j-th bucket at `i * stride + j`,
    /// aggregated through `S` afresh on every pass, so that no pass
    /// stores a bound.
    Edges { query: &'a Query, pairs: Vec<(Vec<[f64; 2]>, usize)>, scratch: Vec<f64> },
    /// `BruteForce`: each combination's n-ary bounds, computed once, in
    /// enumeration order.
    Table(Vec<[f64; 2]>),
}

const LB: usize = 0;
const UB: usize = 1;

impl<'a> LatticeBounds<'a> {
    /// The first-phase bounds of `strategy`, counting their solver calls.
    fn new(
        strategy: Strategy,
        query: &'a Query,
        per_vertex: &[VertexBuckets],
        matrices: &[BucketMatrix],
        solver_cfg: &SolverConfig,
        stats: &mut TopBucketsStats,
    ) -> Self {
        if strategy == Strategy::BruteForce {
            let mut table = Vec::new();
            let mut bucket_buf = Vec::with_capacity(query.n());
            enumerate_combos(per_vertex, |indices| {
                fill_buckets(&mut bucket_buf, per_vertex, indices);
                let b = nary_bounds(query, combo_boxes(query, matrices, &bucket_buf), solver_cfg);
                table.push([b.lb, b.ub]);
            });
            stats.solver_calls += table.len();
            return LatticeBounds::Table(table);
        }
        let boxes: Vec<Vec<EndpointBox>> = per_vertex
            .iter()
            .zip(&query.vertices)
            .map(|(vb, cid)| {
                let matrix = &matrices[cid.0 as usize];
                vb.ids.iter().map(|&b| matrix.endpoint_box(b)).collect()
            })
            .collect();
        let pairs = query
            .edges
            .iter()
            .map(|e| {
                let (lefts, rights) = (&boxes[e.src], &boxes[e.dst]);
                let table: Vec<[f64; 2]> = lefts
                    .iter()
                    .flat_map(|&left| rights.iter().map(move |&right| (left, right)))
                    .map(|(left, right)| {
                        let b = pair_bounds(&e.predicate, left, right, solver_cfg);
                        [b.lb, b.ub]
                    })
                    .collect();
                stats.solver_calls += table.len();
                (table, rights.len())
            })
            .collect();
        LatticeBounds::Edges { query, pairs, scratch: vec![0.0; query.edges.len()] }
    }

    /// Side `side` of the bounds of the `p`-th combination, `indices`.
    #[inline]
    fn get(&mut self, side: usize, p: usize, indices: &[usize]) -> f64 {
        match self {
            LatticeBounds::Edges { query, pairs, scratch } => {
                for ((e, (table, stride)), s) in query.edges.iter().zip(&*pairs).zip(&mut *scratch)
                {
                    *s = table[indices[e.src] * stride + indices[e.dst]][side];
                }
                query.aggregation.eval(scratch)
            }
            LatticeBounds::Table(table) => table[p][side],
        }
    }
}

/// Runs the full TopBuckets phase for a query.
///
/// `matrices` are indexed by collection id; `k` is the query's result
/// budget. Returns `Ω_{k,S}` (descending UB order) and phase telemetry.
/// `workers` is ignored: one selection runs over the whole lattice (see
/// the module documentation).
pub fn run_topbuckets(
    query: &Query,
    matrices: &[BucketMatrix],
    k: u64,
    strategy: Strategy,
    solver_cfg: &SolverConfig,
    _workers: usize,
) -> (ComboSet, TopBucketsStats) {
    #[allow(
        clippy::disallowed_methods,
        reason = "feeds only TopBucketsStats::duration, a timing field"
    )]
    let started = Instant::now();
    let per_vertex = vertex_buckets(query, matrices);
    let mut stats = TopBucketsStats::default();
    if per_vertex.iter().any(VertexBuckets::is_empty) {
        stats.duration = started.elapsed();
        return (ComboSet::new(query.n()), stats);
    }

    let bounds = LatticeBounds::new(strategy, query, &per_vertex, matrices, solver_cfg, &mut stats);
    let mut selected = {
        let (reachable, kth_res_lb) = stream_reachable(&per_vertex, bounds, k, &mut stats);
        reachable.subset(&select_by_ub(k, kth_res_lb, &reachable))
    };
    stats.pruned_local = stats.candidates - selected.len();

    if strategy == Strategy::TwoPhase {
        // Refine the survivors with exact n-ary bounds, then re-select
        // (Algorithm 2, lines 8–10).
        for i in 0..selected.len() {
            let boxes = combo_boxes(query, matrices, selected.buckets(i));
            let b = nary_bounds(query, boxes, solver_cfg);
            stats.solver_calls += 1;
            selected.set_bounds(i, b.lb, b.ub);
        }
        let kept = get_top_buckets(k, &selected);
        stats.pruned_merge = selected.len() - kept.len();
        selected = selected.subset(&kept);
    }

    stats.selected = selected.len();
    stats.selected_results = selected.total_results();
    stats.duration = started.elapsed();
    (selected, stats)
}

/// Algorithm 1 over the whole lattice in odometer passes that store no
/// per-combination bound, counting every combination and its `nbRes`
/// into `stats`. Returns `T` (`kthResLB`) and, materialised, every
/// combination the walk can reach (ARCHITECTURE.md, "TopBuckets streams
/// its selection"). Pass 1 reads `T` off the lower bounds. Pass 2
/// materialises `ub > T`: strictly, since loose bounds tie most of the
/// lattice at `ub == T == 0`. Only when the certain results it found
/// (`lb ≥ T`) fall short of `k`, with `T` finite, does the walk go on
/// into the `ub == T` ties, and pass 3 materialises them.
fn stream_reachable(
    per_vertex: &[VertexBuckets],
    mut bounds: LatticeBounds,
    k: u64,
    stats: &mut TopBucketsStats,
) -> (ComboSet, f64) {
    let mut kth_lb = WeightedKth::new(k);
    let mut p = 0;
    enumerate_combos(per_vertex, |indices| {
        let nb = nb_res_of(per_vertex, indices);
        stats.total_results += nb as u128;
        kth_lb.offer(bounds.get(LB, p, indices), nb);
        p += 1;
    });
    stats.candidates += p;
    let kth_res_lb = kth_lb.kth();

    // Materialises the combinations whose `ub` compares `band` to `T`;
    // returns the results among them certain to reach `T`.
    let mut reachable = ComboSet::new(per_vertex.len());
    let mut bucket_buf = Vec::with_capacity(per_vertex.len());
    let mut materialise = |band: Ordering| {
        let (mut p, mut certain) = (0, 0u128);
        enumerate_combos(per_vertex, |indices| {
            let ub = bounds.get(UB, p, indices);
            if ub.partial_cmp(&kth_res_lb) == Some(band) {
                let (lb, nb) = (bounds.get(LB, p, indices), nb_res_of(per_vertex, indices));
                if lb >= kth_res_lb {
                    certain += nb as u128;
                }
                fill_buckets(&mut bucket_buf, per_vertex, indices);
                reachable.push(&bucket_buf, nb, lb, ub);
            }
            p += 1;
        });
        certain
    };
    if materialise(Ordering::Greater) < k as u128 && kth_res_lb.is_finite() {
        materialise(Ordering::Equal);
    }
    (reachable, kth_res_lb)
}

/// Resolves per-vertex bucket indices to bucket ids.
fn fill_buckets(
    buf: &mut Vec<tkij_temporal::bucket::BucketId>,
    per_vertex: &[VertexBuckets],
    indices: &[usize],
) {
    buf.clear();
    buf.extend(indices.iter().enumerate().map(|(v, &i)| per_vertex[v].ids[i]));
}

/// The endpoint boxes of one combination, per query vertex.
pub fn combo_boxes(
    query: &Query,
    matrices: &[BucketMatrix],
    buckets: &[tkij_temporal::bucket::BucketId],
) -> Vec<tkij_temporal::expr::EndpointBox> {
    buckets
        .iter()
        .enumerate()
        .map(|(v, b)| matrices[query.vertices[v].0 as usize].endpoint_box(*b))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tkij_temporal::bucket::BucketId;
    use tkij_temporal::collection::CollectionId;
    use tkij_temporal::granule::TimePartitioning;
    use tkij_temporal::interval::Interval;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::predicate::TemporalPredicate;
    use tkij_temporal::query::table1;

    fn combo(set: &mut ComboSet, b: u32, nb: u64, lb: f64, ub: f64) {
        set.push(&[BucketId::new(b, b)], nb, lb, ub);
    }

    #[test]
    fn get_top_buckets_prunes_dominated() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 10, 0.8, 1.0); // covers k with lb 0.8
        combo(&mut set, 1, 10, 0.1, 0.5); // ub 0.5 ≤ kthResLB 0.8 → pruned
        combo(&mut set, 2, 10, 0.2, 0.9); // ub 0.9 > 0.8 → kept
        let kept = get_top_buckets(5, &set);
        assert_eq!(kept.len(), 2);
        let selected = set.subset(&kept);
        assert!((0..selected.len()).all(|i| selected.ub(i) > 0.5));
    }

    #[test]
    fn get_top_buckets_keeps_all_when_results_scarce() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 1, 0.9, 1.0);
        combo(&mut set, 1, 1, 0.0, 0.1);
        let kept = get_top_buckets(10, &set);
        assert_eq!(kept.len(), 2, "fewer than k results: nothing prunable");
    }

    #[test]
    fn get_top_buckets_respects_coverage_before_pruning() {
        // kthResLB comes from the best-LB prefix covering k = 15: needs
        // both high-lb combos (10 + 10), so kth_lb = 0.6.
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 10, 0.7, 1.0);
        combo(&mut set, 1, 10, 0.6, 0.9);
        combo(&mut set, 2, 100, 0.0, 0.6); // ub = 0.6 ≤ 0.6 → pruned
        combo(&mut set, 3, 100, 0.0, 0.61); // just above → kept
        let kept = get_top_buckets(15, &set);
        let selected = set.subset(&kept);
        assert_eq!(selected.len(), 3);
        assert!((0..3).all(|i| selected.ub(i) >= 0.61));
    }

    #[test]
    fn get_top_buckets_output_is_ub_sorted() {
        let mut set = ComboSet::new(1);
        combo(&mut set, 0, 1, 0.1, 0.3);
        combo(&mut set, 1, 1, 0.2, 0.8);
        combo(&mut set, 2, 1, 0.0, 0.5);
        let kept = get_top_buckets(100, &set);
        let ubs: Vec<f64> = kept.iter().map(|&i| set.ub(i as usize)).collect();
        assert!(ubs.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Tiny two-collection dataset where the exact Ω_{k,S} is computable by
    /// hand: intervals cluster in two far-apart granule regions.
    fn small_dataset() -> (Vec<BucketMatrix>, Vec<Interval>, Vec<Interval>) {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let c1: Vec<Interval> = vec![
            Interval::new(0, 5, 9).unwrap(),
            Interval::new(1, 6, 9).unwrap(),
            Interval::new(2, 71, 79).unwrap(),
        ];
        let c2: Vec<Interval> = vec![
            Interval::new(0, 10, 14).unwrap(),
            Interval::new(1, 90, 95).unwrap(),
            Interval::new(2, 12, 19).unwrap(),
        ];
        let m1 = BucketMatrix::build(part, &c1);
        let m2 = BucketMatrix::build(part, &c2);
        (vec![m1, m2], c1, c2)
    }

    fn two_way_meets() -> Query {
        let p = PredicateParams::new(4, 8, 0, 0);
        Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![tkij_temporal::query::QueryEdge {
                src: 0,
                dst: 1,
                predicate: tkij_temporal::predicate::TemporalPredicate::meets(p),
            }],
            tkij_temporal::aggregate::Aggregation::NormalizedSum,
        )
        .unwrap()
    }

    #[test]
    fn strategies_select_supersets_of_needed_combos() {
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        for (name, strategy) in Strategy::all() {
            let (selected, stats) =
                run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), 1);
            assert!(!selected.is_empty(), "{name}: nothing selected");
            assert!(stats.selected_results >= 2, "{name}: must cover k results");
            assert_eq!(stats.candidates, 4, "{name}: 2×2 buckets");
            // The bucket pair (start≈5, end≈9) × (start≈10..19) scores 1.0
            // and must be selected under every strategy.
            let has_hot = (0..selected.len()).any(|i| {
                selected.buckets(i)[0] == BucketId::new(0, 0)
                    && selected.buckets(i)[1] == BucketId::new(1, 1)
            });
            assert!(has_hot, "{name}: missing the high-scoring combination");
        }
    }

    #[test]
    fn loose_bounds_dominate_brute_force_bounds() {
        // Same combination set: loose UB ≥ brute-force UB, loose LB ≤
        // brute-force LB (loose is sound but weaker).
        let (matrices, _, _) = small_dataset();
        let q = table1::q_sm(PredicateParams::P1);
        let matrices3 = vec![matrices[0].clone(), matrices[1].clone(), matrices[0].clone()];
        let big_k = u64::MAX; // keep everything so sets align
        let (loose, _) =
            run_topbuckets(&q, &matrices3, big_k, Strategy::Loose, &SolverConfig::default(), 1);
        let (brute, _) = run_topbuckets(
            &q,
            &matrices3,
            big_k,
            Strategy::BruteForce,
            &SolverConfig::default(),
            1,
        );
        assert_eq!(loose.len(), brute.len());
        // Index combos by buckets for comparison.
        use std::collections::BTreeMap;
        let mut brute_by_buckets = BTreeMap::new();
        for i in 0..brute.len() {
            brute_by_buckets.insert(brute.buckets(i).to_vec(), (brute.lb(i), brute.ub(i)));
        }
        for i in 0..loose.len() {
            let (blb, bub) = brute_by_buckets[&loose.buckets(i).to_vec()];
            assert!(loose.ub(i) >= bub - 1e-9, "loose ub must dominate");
            assert!(loose.lb(i) <= blb + 1e-9, "loose lb must be dominated");
        }
    }

    #[test]
    fn two_phase_never_selects_more_than_loose() {
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        let (loose, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 1);
        let (two, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::TwoPhase, &SolverConfig::default(), 1);
        assert!(two.len() <= loose.len());
    }

    #[test]
    fn definition2_validity_on_random_combosets() {
        // Property (paper Def. 2): for every pruned ω there must exist
        // Ψ ⊆ Ω_{k,S} with Σ nbRes ≥ k and ∀ω′∈Ψ: ω′.LB ≥ ω.UB.
        // Deterministic pseudo-random exploration over many shapes; every
        // other trial rounds the bounds to halves, so bounds tie. The
        // streamed passes, after which the walk sees only the reachable
        // combinations, must keep exactly what the walk over all of them
        // keeps.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let n_combos = (next() % 40 + 1) as usize;
            let k = next() % 50 + 1;
            let mut set = ComboSet::new(1);
            let round = |x: f64| if trial % 2 == 0 { (x * 2.0).round() / 2.0 } else { x };
            for i in 0..n_combos {
                let lb = (next() % 1000) as f64 / 1000.0;
                let (lb, ub) =
                    (round(lb), round(lb + (next() % 1000) as f64 / 1000.0 * (1.0 - lb)));
                let nb = next() % 20 + 1;
                set.push(&[BucketId::new(i as u32, i as u32)], nb, lb, ub);
            }
            // A one-vertex lattice whose p-th bucket is the p-th combination.
            let per_vertex = [VertexBuckets {
                ids: (0..n_combos).map(|i| set.buckets(i)[0]).collect(),
                counts: (0..n_combos).map(|i| set.nb_res(i)).collect(),
            }];
            let table = (0..n_combos).map(|i| [set.lb(i), set.ub(i)]).collect();
            let mut stats = TopBucketsStats::default();
            let (reachable, kth_res_lb) =
                stream_reachable(&per_vertex, LatticeBounds::Table(table), k, &mut stats);
            let ids = |set: &ComboSet, kept: Vec<u32>| -> BTreeSet<BucketId> {
                kept.iter().map(|&i| set.buckets(i as usize)[0]).collect()
            };
            let streamed = ids(&reachable, select_by_ub(k, kth_res_lb, &reachable));
            let walked = ids(&set, get_top_buckets(k, &set));
            assert_eq!(streamed, walked, "trial {trial}: the streamed walk");
            let kept = get_top_buckets(k, &set);
            let kept_set: BTreeSet<u32> = kept.iter().copied().collect();
            for pruned in 0..n_combos as u32 {
                if kept_set.contains(&pruned) {
                    continue;
                }
                let ub = set.ub(pruned as usize);
                let cover: u128 = kept
                    .iter()
                    .filter(|&&i| set.lb(i as usize) >= ub)
                    .map(|&i| set.nb_res(i as usize) as u128)
                    .sum();
                assert!(
                    cover >= k as u128,
                    "trial {trial}: pruned combo (ub {ub}) not covered by {cover} ≥ k={k} results"
                );
            }
        }
    }

    #[test]
    fn pruning_counters_account_for_every_candidate() {
        // The invariant `tests/pinned_counters.rs` relies on: every
        // examined combination is either selected or counted pruned at
        // exactly one of the two selection stages.
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        for (name, strategy) in Strategy::all() {
            let (selected, stats) =
                run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), 1);
            assert_eq!(
                stats.candidates - stats.pruned_local - stats.pruned_merge,
                selected.len(),
                "{name}: {stats:?}"
            );
            assert_eq!(stats.selected, selected.len(), "{name}");
        }
    }

    #[test]
    fn empty_vertex_yields_empty_selection() {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let empty = BucketMatrix::new(part);
        let full = BucketMatrix::build(part, &[Interval::new(0, 1, 5).unwrap()]);
        let q = two_way_meets();
        let (selected, stats) =
            run_topbuckets(&q, &[full, empty], 5, Strategy::Loose, &SolverConfig::default(), 1);
        assert!(selected.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    // ---- Differential battery: the streamed kernels against the paper's
    // ---- Algorithm 1 written with two plain sorts over the whole lattice.

    pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Oracle — Algorithm 1 as the paper writes it, with the coverage of
    /// line 10 counting only results certain to reach `kthResLB`.
    fn oracle_select(k: u64, set: &ComboSet) -> Vec<u32> {
        let sorted_desc = |key: fn(&ComboSet, usize) -> (f64, f64)| {
            let mut idx: Vec<usize> = (0..set.len()).collect();
            idx.sort_by(|&a, &b| {
                let ((a0, a1), (b0, b1)) = (key(set, a), key(set, b));
                let by_bounds = b0.total_cmp(&a0).then(b1.total_cmp(&a1));
                by_bounds.then_with(|| set.buckets(a).cmp(set.buckets(b)))
            });
            idx
        };
        let (mut collected, mut kth_res_lb) = (0u128, f64::NEG_INFINITY);
        for i in sorted_desc(|s, i| (s.lb(i), s.ub(i))) {
            collected += set.nb_res(i) as u128;
            kth_res_lb = set.lb(i);
            if collected >= k as u128 {
                break;
            }
        }
        let (mut certain, mut kept) = (0u128, Vec::new());
        for i in sorted_desc(|s, i| (s.ub(i), s.lb(i))) {
            if certain >= k as u128 && set.ub(i) <= kth_res_lb {
                break;
            }
            kept.push(i as u32);
            if set.lb(i) >= kth_res_lb {
                certain += set.nb_res(i) as u128;
            }
        }
        kept
    }

    /// The fully materialised lattice with the strategy's first-phase
    /// bounds (a `k = u64::MAX` run keeps every combination), and the
    /// solver calls that bounding it took.
    fn full_lattice(q: &Query, matrices: &[BucketMatrix], strategy: Strategy) -> (ComboSet, usize) {
        let first = if strategy == Strategy::TwoPhase { Strategy::Loose } else { strategy };
        let (full, stats) =
            run_topbuckets(q, matrices, u64::MAX, first, &SolverConfig::default(), 1);
        (full, stats.solver_calls)
    }

    /// Oracle — the TopBuckets phase over the fully materialised lattice:
    /// Algorithm 1 once, then the two-phase refinement.
    fn oracle_run(
        (full, bounding_calls): &(ComboSet, usize),
        query: &Query,
        matrices: &[BucketMatrix],
        k: u64,
        strategy: Strategy,
    ) -> (ComboSet, TopBucketsStats) {
        let mut selected = full.subset(&oracle_select(k, full));
        let mut stats = TopBucketsStats {
            candidates: full.len(),
            total_results: full.total_results(),
            solver_calls: *bounding_calls,
            pruned_local: full.len() - selected.len(),
            ..Default::default()
        };
        if strategy == Strategy::TwoPhase {
            for i in 0..selected.len() {
                let boxes = combo_boxes(query, matrices, selected.buckets(i));
                let b = nary_bounds(query, boxes, &SolverConfig::default());
                selected.set_bounds(i, b.lb, b.ub);
            }
            stats.solver_calls += selected.len();
            let refined = selected.subset(&oracle_select(k, &selected));
            stats.pruned_merge += selected.len() - refined.len();
            selected = refined;
        }
        stats.selected = selected.len();
        stats.selected_results = selected.total_results();
        (selected, stats)
    }

    /// Bucket ids, `nbRes` and bound *bits* of every combination, in order.
    fn dump(set: &ComboSet) -> Vec<(Vec<BucketId>, u64, u64, u64)> {
        (0..set.len())
            .map(|i| {
                (set.buckets(i).to_vec(), set.nb_res(i), set.lb(i).to_bits(), set.ub(i).to_bits())
            })
            .collect()
    }

    fn counters(stats: &TopBucketsStats) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        tkij_mapreduce::Counters::visit(stats, &mut |name, value| out.push((name, value)));
        out
    }

    /// `m` pseudo-random collections' matrices over `g` granules.
    pub(crate) fn random_matrices(
        next: &mut impl FnMut() -> u64,
        m: usize,
        g: u32,
    ) -> Vec<BucketMatrix> {
        let part = TimePartitioning::from_range(0, 399, g).unwrap();
        (0..m)
            .map(|_| {
                let intervals: Vec<Interval> = (0..next() % 10 + 4)
                    .map(|id| {
                        let start = (next() % 340) as i64;
                        Interval::new(id, start, start + (next() % 60) as i64).unwrap()
                    })
                    .collect();
                BucketMatrix::build(part, &intervals)
            })
            .collect()
    }

    fn self_join_meets() -> Query {
        let mut q = two_way_meets();
        q.vertices[1] = CollectionId(0);
        q
    }

    #[test]
    fn streamed_topbuckets_equals_the_materialised_oracle() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let p1 = PredicateParams::P1;
        let queries = [table1::q_om(p1), table1::q_sm(p1), two_way_meets(), self_join_meets()];
        for trial in 0..6 {
            let mut matrices = random_matrices(&mut next, 3, 3 + trial % 2);
            if trial == 5 {
                matrices[1] = BucketMatrix::new(matrices[1].partitioning()); // an empty vertex
            }
            let query = &queries[[0, 1, 2, 3, 3, 2][trial as usize]];
            for (name, strategy) in Strategy::all() {
                let full = full_lattice(query, &matrices, strategy);
                let total = full.0.total_results() as u64;
                for k in [0, 1, 100, total / 2, total + 1, u64::MAX] {
                    let got =
                        run_topbuckets(query, &matrices, k, strategy, &SolverConfig::default(), 1);
                    let want = oracle_run(&full, query, &matrices, k, strategy);
                    let case = format!("trial {trial} {name} k={k}");
                    assert_eq!(dump(&got.0), dump(&want.0), "{case}");
                    assert_eq!(counters(&got.1), counters(&want.1), "{case}");
                }
            }
        }
    }

    #[test]
    fn ties_at_kth_res_lb_are_reached_by_the_third_pass() {
        // On `small_dataset`, `before` bounds two combinations holding 3
        // results at exactly `lb == ub == 1`, so at k = 2, `T == 1`: the
        // second pass (`ub > T`) materialises nothing, and the whole
        // selection comes from the third.
        let (matrices, _, _) = small_dataset();
        let mut q = two_way_meets();
        q.edges[0].predicate = TemporalPredicate::before(PredicateParams::P1);
        for (name, strategy) in Strategy::all() {
            let full = full_lattice(&q, &matrices, strategy);
            let exact_ones: u64 =
                (0..full.0.len()).filter(|&i| full.0.lb(i) == 1.0).map(|i| full.0.nb_res(i)).sum();
            assert_eq!(exact_ones, 3, "{name}: fixture");
            let (got, stats) =
                run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), 1);
            let want = oracle_run(&full, &q, &matrices, 2, strategy);
            assert_eq!(dump(&got), dump(&want.0), "{name}");
            assert_eq!(counters(&stats), counters(&want.1), "{name}");
            assert!(!got.is_empty() && (0..got.len()).all(|i| got.ub(i) == 1.0), "{name}");
        }
    }

    #[test]
    fn get_top_buckets_equals_the_oracle_on_plateaus() {
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        for trial in 0..300 {
            let mut set = ComboSet::new(1);
            for i in 0..next() % 50 {
                let frac = |x: u64| (x % 1000) as f64 / 1000.0;
                let (lb, ub) = match trial % 4 {
                    0 => (0.0, (next() % 3) as f64 / 2.0), // every lb = 0, ub ∈ {0, 0.5, 1}
                    1 => (0.5, 0.5),                       // lb == ub == kthResLB
                    2 => ((next() % 2) as f64 / 2.0, 0.5 + (next() % 2) as f64 / 2.0),
                    _ => {
                        let lb = frac(next());
                        (lb, lb + frac(next()) * (1.0 - lb))
                    }
                };
                set.push(&[BucketId::new(i as u32, i as u32)], next() % 20 + 1, lb, ub);
            }
            for k in [0, 1, 100, set.total_results() as u64 + 1, u64::MAX] {
                assert_eq!(get_top_buckets(k, &set), oracle_select(k, &set), "trial {trial} k={k}");
            }
        }
    }

    #[test]
    fn loose_plateau_materialises_exactly_the_positive_upper_bounds() {
        // Every loose LB is 0.0 here, so kthResLB = 0 and most of the
        // lattice ties at `ub == kthResLB`: the cut must be strict, or the
        // streamed pass materialises the whole lattice again.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let matrices = random_matrices(&mut next, 3, 6);
        let query = table1::q_om(PredicateParams::P1);
        let (full, _) = full_lattice(&query, &matrices, Strategy::Loose);
        assert!((0..full.len()).all(|i| full.lb(i) == 0.0), "fixture: the loose LB plateau");
        let positive = (0..full.len()).filter(|&i| full.ub(i) > 0.0).count();
        assert!(0 < positive && positive < full.len(), "fixture: some combinations score 0");
        let per_vertex = vertex_buckets(&query, &matrices);
        let bounds = LatticeBounds::new(
            Strategy::Loose,
            &query,
            &per_vertex,
            &matrices,
            &SolverConfig::default(),
            &mut TopBucketsStats::default(),
        );
        let mut stats = TopBucketsStats::default();
        let (reachable, kth_res_lb) = stream_reachable(&per_vertex, bounds, 5, &mut stats);
        assert_eq!((kth_res_lb, stats.candidates), (0.0, full.len()));
        assert_eq!(reachable.len(), positive);
        assert!((0..reachable.len()).all(|i| reachable.ub(i) > 0.0));
    }

    #[test]
    fn weighted_kth_tracks_the_covering_key() {
        let kth = |k: u64, items: &[(f64, u64)]| {
            let mut tracker = WeightedKth::new(k);
            for &(key, weight) in items {
                tracker.offer(key, weight);
            }
            tracker.kth()
        };
        // Ties: equal keys pool their weight wherever they arrive.
        assert_eq!(kth(5, &[(0.5, 2), (0.9, 1), (0.5, 2), (0.1, 9), (0.5, 2)]), 0.5);
        assert_eq!(kth(1, &[(0.5, 2), (0.9, 1), (0.5, 2)]), 0.9);
        // One heavy item covers k on its own, whenever it is offered.
        assert_eq!(kth(100, &[(0.2, 1), (0.7, 1_000), (0.9, 3)]), 0.7);
        assert_eq!(kth(100, &[(0.7, 1_000), (0.9, 3), (0.2, 1)]), 0.7);
        // Fewer than k results: no k-th yet.
        assert_eq!(kth(10, &[(0.9, 4), (0.1, 5)]), f64::NEG_INFINITY);
        assert_eq!(kth(1, &[]), f64::NEG_INFINITY);
        assert_eq!(kth(u64::MAX, &[(0.9, u64::MAX - 1)]), f64::NEG_INFINITY);
        // k = 0 is covered by the first item of the walk: the largest key.
        assert_eq!(kth(0, &[(0.3, 1), (0.8, 1), (0.5, 1)]), 0.8);
        // Keys order like `f64::total_cmp`: -0.0 < +0.0, negatives reversed.
        assert_eq!(kth(2, &[(0.0, 1), (-0.0, 1)]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(kth(1, &[(-0.0, 1), (0.0, 1)]).to_bits(), 0.0f64.to_bits());
        assert_eq!(kth(2, &[(-2.0, 1), (-1.0, 1), (-3.0, 1)]), -2.0);
        assert_eq!(kth(2, &[(f64::INFINITY, 1), (1.0, 1), (f64::NEG_INFINITY, 1)]), 1.0);
        let mut keys = [-3.5, -0.0, 0.0, 1e-300, 2.0, f64::INFINITY, f64::NEG_INFINITY];
        keys.sort_by(f64::total_cmp);
        let mapped: Vec<i64> = keys.iter().map(|k| total_order_key(k.to_bits() as i64)).collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]));
        assert!(mapped.iter().zip(keys).all(|(&m, k)| total_order_key(m) as u64 == k.to_bits()));
    }
}
