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
//! Like the paper's deployment, the candidate space can be partitioned by
//! the first vertex's buckets across `workers` groups, each running
//! `getTopBuckets` locally, with a final merge + re-selection (§4,
//! "Selection of bucket combinations"); this is proven safe because the
//! merged selection's `kthResLB` dominates every local one. The paper
//! runs the groups in parallel; here they run one after another on the
//! calling thread, and what they buy is memory. Only one group's streamed
//! bounds are alive at a time, and only its local selection outlives
//! it. On the benchmark's `plan-wide` workload, one group doubles the
//! process's peak RSS (10.7 to 21.2 MB).

use crate::combos::{
    enumerate_combos, nb_res_of, vertex_buckets, ComboSet, TopBucketsStats, VertexBuckets,
};
use crate::config::Strategy;
use std::cmp::Reverse;
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

/// Per-edge pair-bound tables for the `loose` aggregation: entry
/// `[e][i * len_j + j]` holds the (lb, ub) of edge `e` over the i-th
/// bucket of its source vertex and the j-th bucket of its target vertex.
struct EdgePairBounds {
    per_edge: Vec<Vec<(f64, f64)>>,
    stride: Vec<usize>,
}

impl EdgePairBounds {
    fn compute(
        query: &Query,
        per_vertex: &[VertexBuckets],
        matrices: &[BucketMatrix],
        solver_cfg: &SolverConfig,
        solver_calls: &mut usize,
    ) -> Self {
        let boxes: Vec<Vec<EndpointBox>> = per_vertex
            .iter()
            .zip(&query.vertices)
            .map(|(vb, cid)| {
                let matrix = &matrices[cid.0 as usize];
                vb.ids.iter().map(|&b| matrix.endpoint_box(b)).collect()
            })
            .collect();
        let mut per_edge = Vec::with_capacity(query.edges.len());
        let mut stride = Vec::with_capacity(query.edges.len());
        for e in &query.edges {
            let (lefts, rights) = (&boxes[e.src], &boxes[e.dst]);
            let mut table = Vec::with_capacity(lefts.len() * rights.len());
            for &left in lefts {
                for &right in rights {
                    let b = pair_bounds(&e.predicate, left, right, solver_cfg);
                    table.push((b.lb, b.ub));
                }
            }
            *solver_calls += table.len();
            per_edge.push(table);
            stride.push(rights.len());
        }
        EdgePairBounds { per_edge, stride }
    }

    #[inline]
    fn get(&self, edge: usize, i: usize, j: usize) -> (f64, f64) {
        self.per_edge[edge][i * self.stride[edge] + j]
    }
}

/// Runs the full TopBuckets phase for a query.
///
/// `matrices` are indexed by collection id; `k` is the query's result
/// budget. Returns `Ω_{k,S}` (descending UB order) and phase telemetry.
pub fn run_topbuckets(
    query: &Query,
    matrices: &[BucketMatrix],
    k: u64,
    strategy: Strategy,
    solver_cfg: &SolverConfig,
    workers: usize,
) -> (ComboSet, TopBucketsStats) {
    #[allow(
        clippy::disallowed_methods,
        reason = "feeds only TopBucketsStats::duration, a timing field"
    )]
    let started = Instant::now();
    let n = query.n();
    let per_vertex = vertex_buckets(query, matrices);
    let mut stats = TopBucketsStats::default();
    if per_vertex.iter().any(VertexBuckets::is_empty) {
        stats.duration = started.elapsed();
        return (ComboSet::new(n), stats);
    }

    // Shared pair-bound tables (needed by Loose and TwoPhase).
    let mut solver_calls = 0usize;
    let edge_bounds = match strategy {
        Strategy::Loose | Strategy::TwoPhase => Some(EdgePairBounds::compute(
            query,
            &per_vertex,
            matrices,
            solver_cfg,
            &mut solver_calls,
        )),
        Strategy::BruteForce => None,
    };
    let cx = GroupCx { query, matrices, per_vertex: &per_vertex, edge_bounds, solver_cfg };

    // Partition vertex 0's buckets into worker groups.
    let len0 = per_vertex[0].len();
    let workers = workers.clamp(1, len0);
    let group = len0.div_ceil(workers);
    stats.worker_groups = workers;
    let mut locals = Vec::with_capacity(workers);
    for w in 0..workers {
        let range = (w * group).min(len0)..((w + 1) * group).min(len0);
        let bounds = cx.bound_group(range.clone(), k);
        let reachable = cx.materialise(range, &bounds);
        let local = reachable.subset(&select_by_ub(k, bounds.kth_res_lb, &reachable));
        stats.candidates += bounds.ub.len();
        stats.total_results += bounds.total_results;
        solver_calls += bounds.solver_calls;
        stats.pruned_local += bounds.ub.len() - local.len();
        locals.push(local);
    }
    let mut merged = ComboSet::new(n);
    merged.reserve(locals.iter().map(ComboSet::len).sum());
    for local in locals {
        merged.extend(&local);
    }

    // Final merge selection (the paper's "second phase of TopBuckets").
    let mut kept = get_top_buckets(k, &merged);
    stats.pruned_merge += merged.len() - kept.len();
    let mut selected = merged.subset(&kept);

    if strategy == Strategy::TwoPhase {
        // Refine the survivors with exact n-ary bounds, then re-select
        // (Algorithm 2, lines 8–10).
        for i in 0..selected.len() {
            let boxes = combo_boxes(query, matrices, selected.buckets(i));
            let b = nary_bounds(query, boxes, solver_cfg);
            solver_calls += 1;
            selected.set_bounds(i, b.lb, b.ub);
        }
        kept = get_top_buckets(k, &selected);
        stats.pruned_merge += selected.len() - kept.len();
        selected = selected.subset(&kept);
    }

    stats.selected = selected.len();
    stats.selected_results = selected.total_results();
    stats.solver_calls = solver_calls;
    stats.duration = started.elapsed();
    (selected, stats)
}

/// What every vertex-0 group's pass reads.
struct GroupCx<'a> {
    query: &'a Query,
    matrices: &'a [BucketMatrix],
    per_vertex: &'a [VertexBuckets],
    /// Pair-bound tables; `None` bounds each combination with the n-ary
    /// solver (`BruteForce`).
    edge_bounds: Option<EdgePairBounds>,
    solver_cfg: &'a SolverConfig,
}

/// The streamed bounds of one vertex-0 group: flat scalars per enumerated
/// combination (enumeration order) and the two thresholds of its local
/// `getTopBuckets`.
#[derive(Default)]
struct GroupBounds {
    nb_res: Vec<u64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    total_results: u128,
    solver_calls: usize,
    /// Algorithm 1's `kthResLB` over the group.
    kth_res_lb: f64,
    /// The UB at which the UB-descending cumulative `nbRes` of the
    /// combinations with `lb ≥ kth_res_lb` reaches `k` (`−∞` when the
    /// group holds fewer than `k` results).
    kth_ub: f64,
}

impl GroupBounds {
    /// Whether Algorithm 1's walk can reach combination `p`. The walk
    /// keeps a UB-descending prefix: everything up to the combination
    /// at which the `nbRes` certain to score `≥ kth_res_lb` first covers
    /// `k` (all of which have `ub ≥ kth_ub`), then only combinations with
    /// `ub > kth_res_lb`. The reachable set is itself a prefix of that
    /// order (it is closed under UB ties), so walking it alone keeps
    /// exactly what walking the whole group would. Strictly `>` on
    /// `kth_res_lb`: with loose bounds most of the lattice ties at
    /// `ub == kthResLB == 0`.
    fn reachable(&self, p: usize) -> bool {
        self.ub[p] > self.kth_res_lb || self.ub[p] >= self.kth_ub
    }

    /// Reads `kth_res_lb`, then `kth_ub`, off the bounds.
    fn set_thresholds(&mut self, k: u64) {
        let (mut kth_lb, mut kth_ub) = (WeightedKth::new(k), WeightedKth::new(k));
        for (&lb, &nb) in self.lb.iter().zip(&self.nb_res) {
            kth_lb.offer(lb, nb);
        }
        self.kth_res_lb = kth_lb.kth();
        for p in 0..self.ub.len() {
            if self.lb[p] >= self.kth_res_lb {
                kth_ub.offer(self.ub[p], self.nb_res[p]);
            }
        }
        self.kth_ub = kth_ub.kth();
    }
}

impl GroupCx<'_> {
    /// One odometer pass over the group: bounds every combination per the
    /// strategy, keeping scalars only, then reads the thresholds off them.
    fn bound_group(&self, range: std::ops::Range<usize>, k: u64) -> GroupBounds {
        let Self { query, per_vertex, .. } = *self;
        let size = per_vertex[1..].iter().fold(range.len(), |acc, vb| acc.saturating_mul(vb.len()));
        let mut out = GroupBounds {
            nb_res: Vec::with_capacity(size),
            lb: Vec::with_capacity(size),
            ub: Vec::with_capacity(size),
            ..GroupBounds::default()
        };
        let mut bucket_buf = Vec::with_capacity(query.n());
        let mut edge_lb = vec![0.0; query.edges.len()];
        let mut edge_ub = vec![0.0; query.edges.len()];
        enumerate_combos(per_vertex, range, |indices| {
            let nb = nb_res_of(per_vertex, indices);
            out.total_results += nb as u128;
            let (lb, ub) = match &self.edge_bounds {
                Some(eb) => {
                    for (e, edge) in query.edges.iter().enumerate() {
                        (edge_lb[e], edge_ub[e]) = eb.get(e, indices[edge.src], indices[edge.dst]);
                    }
                    (query.aggregation.eval(&edge_lb), query.aggregation.eval(&edge_ub))
                }
                None => {
                    fill_buckets(&mut bucket_buf, per_vertex, indices);
                    let boxes = combo_boxes(query, self.matrices, &bucket_buf);
                    let b = nary_bounds(query, boxes, self.solver_cfg);
                    out.solver_calls += 1;
                    (b.lb, b.ub)
                }
            };
            out.nb_res.push(nb);
            out.lb.push(lb);
            out.ub.push(ub);
        });
        out.set_thresholds(k);
        out
    }

    /// Second odometer pass: materialises the reachable combinations of
    /// the group, in enumeration order.
    fn materialise(&self, range: std::ops::Range<usize>, bounds: &GroupBounds) -> ComboSet {
        let mut set = ComboSet::new(self.query.n());
        set.reserve((0..bounds.ub.len()).filter(|&p| bounds.reachable(p)).count());
        let mut bucket_buf = Vec::with_capacity(self.query.n());
        let mut p = 0;
        enumerate_combos(self.per_vertex, range, |indices| {
            if bounds.reachable(p) {
                fill_buckets(&mut bucket_buf, self.per_vertex, indices);
                set.push(&bucket_buf, bounds.nb_res[p], bounds.lb[p], bounds.ub[p]);
            }
            p += 1;
        });
        set
    }
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
    fn partitioned_workers_select_valid_superset() {
        // Multi-worker selection must still contain every combination the
        // single-worker selection deems necessary (both are valid Ω_{k,S};
        // the partitioned one may be larger, never smaller than needed).
        let (matrices, _, _) = small_dataset();
        let q = two_way_meets();
        let (single, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 1);
        let (multi, _) =
            run_topbuckets(&q, &matrices, 2, Strategy::Loose, &SolverConfig::default(), 4);
        let single_set: BTreeSet<Vec<_>> =
            (0..single.len()).map(|i| single.buckets(i).to_vec()).collect();
        let multi_set: BTreeSet<Vec<_>> =
            (0..multi.len()).map(|i| multi.buckets(i).to_vec()).collect();
        // Both cover at least k results.
        assert!(single.total_results() >= 2 && multi.total_results() >= 2);
        // The hottest combination is in both.
        for set in [&single_set, &multi_set] {
            assert!(set.contains(&vec![BucketId::new(0, 0), BucketId::new(1, 1)]));
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
        // streamed pass, which walks only the reachable combinations, must
        // keep exactly what the walk over all of them keeps.
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
            let mut group = GroupBounds {
                nb_res: (0..n_combos).map(|i| set.nb_res(i)).collect(),
                lb: (0..n_combos).map(|i| set.lb(i)).collect(),
                ub: (0..n_combos).map(|i| set.ub(i)).collect(),
                ..GroupBounds::default()
            };
            group.set_thresholds(k);
            let reachable: Vec<u32> =
                (0..n_combos as u32).filter(|&p| group.reachable(p as usize)).collect();
            let streamed = select_by_ub(k, group.kth_res_lb, &set.subset(&reachable));
            let streamed: BTreeSet<u32> = streamed.iter().map(|&i| reachable[i as usize]).collect();
            let walked = BTreeSet::from_iter(select_by_ub(k, group.kth_res_lb, &set));
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
            for workers in [1, 2, 4] {
                let (selected, stats) =
                    run_topbuckets(&q, &matrices, 2, strategy, &SolverConfig::default(), workers);
                assert_eq!(
                    stats.candidates - stats.pruned_local - stats.pruned_merge,
                    selected.len(),
                    "{name}/w{workers}: {stats:?}"
                );
                assert_eq!(stats.selected, selected.len(), "{name}/w{workers}");
                assert_eq!(
                    stats.worker_groups,
                    workers.min(2),
                    "{name}/w{workers}: 2 buckets on v0"
                );
            }
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
    /// Algorithm 1 per vertex-0 group, merge, Algorithm 1 again, and the
    /// two-phase refinement.
    fn oracle_run(
        (full, bounding_calls): &(ComboSet, usize),
        query: &Query,
        matrices: &[BucketMatrix],
        k: u64,
        strategy: Strategy,
        workers: usize,
    ) -> (ComboSet, TopBucketsStats) {
        let mut stats = TopBucketsStats {
            candidates: full.len(),
            total_results: full.total_results(),
            solver_calls: *bounding_calls,
            ..Default::default()
        };
        if full.is_empty() {
            return (full.clone(), stats);
        }
        let ids0 = &vertex_buckets(query, matrices)[0].ids;
        stats.worker_groups = workers.clamp(1, ids0.len());
        let group = ids0.len().div_ceil(stats.worker_groups);
        let group_of =
            |i: u32| ids0.iter().position(|b| *b == full.buckets(i as usize)[0]).unwrap() / group;
        let mut merged = ComboSet::new(query.n());
        for w in 0..stats.worker_groups {
            let members: Vec<u32> = (0..full.len() as u32).filter(|&i| group_of(i) == w).collect();
            let local = full.subset(&members);
            let kept = oracle_select(k, &local);
            stats.pruned_local += local.len() - kept.len();
            merged.extend(&local.subset(&kept));
        }
        let mut selected = merged.subset(&oracle_select(k, &merged));
        stats.pruned_merge = merged.len() - selected.len();
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
                    for workers in [1, 2, 6] {
                        let cfg = SolverConfig::default();
                        let got = run_topbuckets(query, &matrices, k, strategy, &cfg, workers);
                        let want = oracle_run(&full, query, &matrices, k, strategy, workers);
                        let case = format!("trial {trial} {name} k={k} workers={workers}");
                        assert_eq!(dump(&got.0), dump(&want.0), "{case}");
                        assert_eq!(counters(&got.1), counters(&want.1), "{case}");
                    }
                }
            }
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
        let cfg = SolverConfig::default();
        let per_vertex = vertex_buckets(&query, &matrices);
        let edge_bounds =
            Some(EdgePairBounds::compute(&query, &per_vertex, &matrices, &cfg, &mut 0));
        let cx = GroupCx {
            query: &query,
            matrices: &matrices,
            per_vertex: &per_vertex,
            edge_bounds,
            solver_cfg: &cfg,
        };
        let range = 0..per_vertex[0].len();
        let bounds = cx.bound_group(range.clone(), 5);
        assert!(bounds.lb.iter().all(|&lb| lb == 0.0), "fixture: the loose LB plateau");
        assert_eq!((bounds.kth_res_lb, bounds.kth_ub > 0.0), (0.0, true));
        let positive = bounds.ub.iter().filter(|&&ub| ub > 0.0).count();
        assert!(0 < positive && positive < bounds.ub.len(), "fixture: some combinations score 0");
        let reachable = cx.materialise(range, &bounds);
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
