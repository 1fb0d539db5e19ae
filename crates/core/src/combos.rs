//! Bucket combinations `ω` and the candidate space `Ω` (paper §3.3).
//!
//! A combination assigns one bucket to every query vertex;
//! `ω.nbRes = Π |b_i|` counts the result tuples it can generate. `Ω` can
//! be large (`O(g^{2n})`), so it is never stored whole: TopBuckets bounds
//! it in streamed odometer passes and only the combinations its selection
//! can reach are materialised, in a compact struct-of-arrays [`ComboSet`]
//! manipulated through index vectors.

use std::time::Duration;
use tkij_mapreduce::Counters;
use tkij_temporal::bucket::{BucketId, BucketMatrix};
use tkij_temporal::query::Query;

/// The non-empty buckets of one query vertex (bucket id, cardinality),
/// in deterministic (row-major) order.
#[derive(Debug, Clone)]
pub struct VertexBuckets {
    /// Bucket ids.
    pub ids: Vec<BucketId>,
    /// Cardinalities aligned with `ids`.
    pub counts: Vec<u64>,
}

impl VertexBuckets {
    /// Extracts the non-empty buckets of a matrix.
    pub fn from_matrix(matrix: &BucketMatrix) -> Self {
        let mut ids = Vec::new();
        let mut counts = Vec::new();
        for (b, c) in matrix.nonempty() {
            ids.push(b);
            counts.push(c);
        }
        VertexBuckets { ids, counts }
    }

    /// Number of non-empty buckets.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the vertex has no data (an empty collection).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Dense addressing of a query's (vertex, bucket) pairs:
/// `slot = base[v] + start_g · g_v + end_g`. Each vertex owns its own
/// `g_v²` range, so self-join vertices sharing a collection keep separate
/// slots, and ascending slots enumerate (vertex, bucket) keys in their
/// `Ord` order. DTB's presence table and the reducers' input assembly
/// address flat arrays with it instead of walking a map per lookup.
#[derive(Debug, Clone)]
pub(crate) struct BucketSlots {
    /// `(base, g)` per query vertex.
    layout: Vec<(usize, usize)>,
    len: usize,
}

impl BucketSlots {
    /// The slot layout of `query` over its collections' matrices.
    pub fn new(query: &Query, matrices: &[BucketMatrix]) -> Self {
        let mut len = 0;
        let layout = query
            .vertices
            .iter()
            .map(|cid| {
                let g = matrices[cid.0 as usize].g() as usize;
                let base = len;
                len += g * g;
                (base, g)
            })
            .collect();
        BucketSlots { layout, len }
    }

    /// Total number of slots (`Σ_v g_v²`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The slot of bucket `b` in the role of vertex `v`.
    #[inline]
    pub fn slot(&self, v: usize, b: BucketId) -> usize {
        let (base, g) = self.layout[v];
        base + b.start_g as usize * g + b.end_g as usize
    }

    /// Every (vertex, bucket) key with its slot, in ascending slot — and
    /// therefore key — order.
    pub fn keys(&self) -> impl Iterator<Item = ((u16, BucketId), usize)> + '_ {
        self.layout.iter().enumerate().flat_map(|(v, &(base, g))| {
            (0..g * g)
                .map(move |i| ((v as u16, BucketId::new((i / g) as u32, (i % g) as u32)), base + i))
        })
    }
}

/// A compact column-oriented set of bucket combinations.
#[derive(Debug, Clone, Default)]
pub struct ComboSet {
    n: usize,
    buckets: Vec<BucketId>,
    nb_res: Vec<u64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
}

impl ComboSet {
    /// An empty set for `n`-vertex combinations.
    pub fn new(n: usize) -> Self {
        ComboSet { n, buckets: Vec::new(), nb_res: Vec::new(), lb: Vec::new(), ub: Vec::new() }
    }

    /// Appends a combination; returns its index.
    pub fn push(&mut self, buckets: &[BucketId], nb_res: u64, lb: f64, ub: f64) -> usize {
        debug_assert_eq!(buckets.len(), self.n);
        self.buckets.extend_from_slice(buckets);
        self.nb_res.push(nb_res);
        self.lb.push(lb);
        self.ub.push(ub);
        self.nb_res.len() - 1
    }

    /// Reserves room for `additional` more combinations.
    pub fn reserve(&mut self, additional: usize) {
        self.buckets.reserve(additional * self.n);
        self.nb_res.reserve(additional);
        self.lb.reserve(additional);
        self.ub.reserve(additional);
    }

    /// Number of combinations.
    pub fn len(&self) -> usize {
        self.nb_res.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.nb_res.is_empty()
    }

    /// Combination arity (query vertices).
    pub fn arity(&self) -> usize {
        self.n
    }

    /// Buckets of combination `i`, indexed by query vertex.
    #[inline]
    pub fn buckets(&self, i: usize) -> &[BucketId] {
        &self.buckets[i * self.n..(i + 1) * self.n]
    }

    /// `ω.nbRes` of combination `i`.
    #[inline]
    pub fn nb_res(&self, i: usize) -> u64 {
        self.nb_res[i]
    }

    /// Score lower bound of combination `i`.
    #[inline]
    pub fn lb(&self, i: usize) -> f64 {
        self.lb[i]
    }

    /// Score upper bound of combination `i`.
    #[inline]
    pub fn ub(&self, i: usize) -> f64 {
        self.ub[i]
    }

    /// Overwrites the bounds of combination `i` (two-phase refinement).
    pub fn set_bounds(&mut self, i: usize, lb: f64, ub: f64) {
        self.lb[i] = lb;
        self.ub[i] = ub;
    }

    /// Σ `nbRes` over all combinations (u128: products saturate u64 but
    /// sums must not overflow).
    pub fn total_results(&self) -> u128 {
        self.nb_res.iter().map(|&c| c as u128).sum()
    }

    /// A new set holding the given combinations, in the order of
    /// `indices`.
    pub fn subset(&self, indices: &[u32]) -> ComboSet {
        let mut out = ComboSet::new(self.n);
        out.reserve(indices.len());
        for &i in indices {
            let i = i as usize;
            out.push(self.buckets(i), self.nb_res[i], self.lb[i], self.ub[i]);
        }
        out
    }

    /// Indices `0..len` sorted by descending upper bound, ties broken by
    /// descending lower bound then ascending buckets (fully
    /// deterministic). On input already in this order (what
    /// `run_topbuckets` returns) the sort is one run-detection pass.
    pub fn indices_by_ub_desc(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.ub[b]
                .total_cmp(&self.ub[a])
                .then_with(|| self.lb[b].total_cmp(&self.lb[a]))
                .then_with(|| self.buckets(a).cmp(self.buckets(b)))
        });
        idx
    }

    /// Indices sorted by descending `nbRes` (LPT order).
    pub fn indices_by_nbres_desc(&self) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.nb_res[b].cmp(&self.nb_res[a]).then_with(|| self.buckets(a).cmp(self.buckets(b)))
        });
        idx
    }
}

/// Enumerates the cartesian product of per-vertex bucket choices, in
/// odometer order (the last vertex varies fastest). Calls
/// `visit(indices)` with the per-vertex bucket *indices*.
pub fn enumerate_combos(per_vertex: &[VertexBuckets], mut visit: impl FnMut(&[usize])) {
    let n = per_vertex.len();
    assert!(n >= 1);
    if per_vertex.iter().any(VertexBuckets::is_empty) {
        return;
    }
    let mut odometer = vec![0usize; n];
    loop {
        visit(&odometer);
        // Advance the odometer, least-significant vertex last.
        let mut v = n - 1;
        loop {
            odometer[v] += 1;
            if odometer[v] < per_vertex[v].len() {
                break;
            }
            if v == 0 {
                return;
            }
            odometer[v] = 0;
            v -= 1;
        }
    }
}

/// Telemetry of one TopBuckets execution (paper Fig. 9's solid box, Fig.
/// 10c's "%results pruned").
#[derive(Debug, Clone, Default)]
pub struct TopBucketsStats {
    /// `|Ω|`: combinations bounded (examined by a bound computation; only
    /// those the selection can reach are ever materialised).
    pub candidates: usize,
    /// `|Ω_{k,S}|`: combinations selected.
    pub selected: usize,
    /// Solver invocations (pairs and/or n-ary).
    pub solver_calls: usize,
    /// Combinations pruned by the `getTopBuckets` selection over the
    /// whole lattice.
    pub pruned_local: usize,
    /// Combinations pruned by the two-phase re-selection after the exact
    /// refinement; 0 under the other strategies.
    pub pruned_merge: usize,
    /// Σ nbRes over Ω.
    pub total_results: u128,
    /// Σ nbRes over Ω_{k,S}.
    pub selected_results: u128,
    /// Wall time of the whole TopBuckets phase.
    pub duration: Duration,
}

impl Counters for TopBucketsStats {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let TopBucketsStats {
            candidates,
            selected,
            solver_calls,
            pruned_local,
            pruned_merge,
            total_results,
            selected_results,
            duration: _, // timing
        } = self;
        f("candidates", *candidates as u64);
        f("selected", *selected as u64);
        f("solver_calls", *solver_calls as u64);
        f("pruned_local", *pruned_local as u64);
        f("pruned_merge", *pruned_merge as u64);
        f("total_results_hi", (*total_results >> 64) as u64);
        f("total_results_lo", *total_results as u64);
        f("selected_results_hi", (*selected_results >> 64) as u64);
        f("selected_results_lo", *selected_results as u64);
    }
}

impl TopBucketsStats {
    /// Share of potential results pruned, in percent (Fig. 10c).
    pub fn pruned_pct(&self) -> f64 {
        if self.total_results == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.selected_results as f64 / self.total_results as f64)
    }
}

/// Builds `nbRes` for a choice of per-vertex bucket indices.
pub fn nb_res_of(per_vertex: &[VertexBuckets], indices: &[usize]) -> u64 {
    let mut acc: u64 = 1;
    for (v, &i) in indices.iter().enumerate() {
        acc = acc.saturating_mul(per_vertex[v].counts[i]);
    }
    acc
}

/// The query-vertex matrices view: vertex `v` uses the matrix of its
/// collection.
pub fn vertex_buckets(query: &Query, matrices: &[BucketMatrix]) -> Vec<VertexBuckets> {
    query.vertices.iter().map(|cid| VertexBuckets::from_matrix(&matrices[cid.0 as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::granule::TimePartitioning;
    use tkij_temporal::interval::Interval;

    fn matrix(points: &[(i64, i64)]) -> BucketMatrix {
        let part = TimePartitioning::from_range(0, 99, 10).unwrap();
        let intervals: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, (s, e))| Interval::new(i as u64, *s, *e).unwrap())
            .collect();
        BucketMatrix::build(part, &intervals)
    }

    #[test]
    fn vertex_buckets_counts() {
        let m = matrix(&[(5, 8), (7, 15), (5, 9), (95, 99)]);
        let vb = VertexBuckets::from_matrix(&m);
        assert_eq!(vb.len(), 3);
        assert_eq!(vb.counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn bucket_slots_give_each_vertex_role_its_own_dense_range() {
        use tkij_temporal::collection::CollectionId;
        use tkij_temporal::params::PredicateParams;
        // Vertices 0 and 1 self-join collection 0 (g = 10); vertex 2 reads
        // a collection partitioned into 4 granules.
        let mut q = tkij_temporal::query::table1::q_om(PredicateParams::P1);
        q.vertices = vec![CollectionId(0), CollectionId(0), CollectionId(1)];
        let coarse = BucketMatrix::new(TimePartitioning::from_range(0, 99, 4).unwrap());
        let slots = BucketSlots::new(&q, &[matrix(&[(5, 8)]), coarse]);
        assert_eq!(slots.len(), 100 + 100 + 16);
        let b = BucketId::new(2, 7);
        assert_eq!((slots.slot(0, b), slots.slot(1, b)), (27, 127), "same bucket, two roles");
        assert_eq!(slots.slot(2, BucketId::new(1, 3)), 200 + 7);
        // `keys` inverts `slot`, densely, in the key order a BTreeMap uses.
        let keys: Vec<_> = slots.keys().collect();
        assert_eq!(keys.len(), slots.len());
        assert!(keys.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, &((v, b), slot)) in keys.iter().enumerate() {
            assert_eq!((slot, slots.slot(v as usize, b)), (i, i));
        }
    }

    #[test]
    fn comboset_roundtrip_and_sorts() {
        let mut set = ComboSet::new(2);
        let b1 = [BucketId::new(0, 0), BucketId::new(1, 1)];
        let b2 = [BucketId::new(0, 1), BucketId::new(1, 2)];
        set.push(&b1, 10, 0.2, 0.9);
        set.push(&b2, 5, 0.5, 0.7);
        assert_eq!(set.len(), 2);
        assert_eq!(set.buckets(1), &b2);
        assert_eq!(set.total_results(), 15);
        assert_eq!(set.indices_by_ub_desc(), vec![0, 1]);
        assert_eq!(set.indices_by_nbres_desc(), vec![0, 1]);
        let sub = set.subset(&[1]);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.buckets(0), &b2);
        assert_eq!(sub.nb_res(0), 5);
    }

    #[test]
    fn set_bounds_overwrites() {
        let mut set = ComboSet::new(1);
        set.push(&[BucketId::new(0, 0)], 1, 0.0, 1.0);
        set.set_bounds(0, 0.3, 0.6);
        assert_eq!((set.lb(0), set.ub(0)), (0.3, 0.6));
    }

    #[test]
    fn enumeration_is_full_cartesian_product() {
        let m1 = matrix(&[(5, 8), (15, 18), (25, 28)]);
        let m2 = matrix(&[(5, 8), (45, 48)]);
        let per_vertex = vec![VertexBuckets::from_matrix(&m1), VertexBuckets::from_matrix(&m2)];
        let mut seen = Vec::new();
        enumerate_combos(&per_vertex, |idx| seen.push(idx.to_vec()));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[5], vec![2, 1]);
        // All distinct.
        let uniq: std::collections::BTreeSet<_> = seen.iter().cloned().collect();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    fn enumeration_empty_cases() {
        let m = matrix(&[(5, 8)]);
        let empty = VertexBuckets { ids: vec![], counts: vec![] };
        let mut count = 0;
        enumerate_combos(&[VertexBuckets::from_matrix(&m), empty], |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn nb_res_saturates() {
        let vb = VertexBuckets { ids: vec![BucketId::new(0, 0)], counts: vec![u64::MAX / 2] };
        let per_vertex = vec![vb.clone(), vb];
        assert_eq!(nb_res_of(&per_vertex, &[0, 0]), u64::MAX);
    }

    #[test]
    fn pruned_pct_math() {
        let stats =
            TopBucketsStats { total_results: 200, selected_results: 50, ..Default::default() };
        assert!((stats.pruned_pct() - 75.0).abs() < 1e-12);
        assert_eq!(TopBucketsStats::default().pruned_pct(), 0.0);
    }
}
