//! The per-reducer top-k RTJ evaluation (paper Fig. 5d and §4,
//! "Distributed join processing").
//!
//! Each reducer receives a set of bucket combinations `Ω_{r_j}` plus the
//! interval data of every (vertex, bucket) those combinations touch. It
//! evaluates the full query locally with a rank-join:
//!
//! * combinations are processed in **descending upper-bound order** and
//!   the loop stops as soon as a combination's UB falls below the current
//!   k-th score `τ` (no remaining combination can contribute);
//! * inside a combination, tuples are grown along the query's
//!   [`JoinPlan`]; candidates for the next vertex are fetched from the
//!   bucket's index with a **score-threshold window** derived from `τ`
//!   and the already-fixed edge scores (the paper's "returns only
//!   intervals x_j s.t. s-p(x_i, x_j) ≥ v"). Once the heap is full the
//!   probe asks for `s > v` instead: the walk over candidates stops at
//!   the first score `≤` the requirement, and the requirement only rises
//!   with `τ`, so a candidate that merely ties it is never reached; the
//!   strict window leaves most such candidates unscanned, and none is
//!   materialised or sorted;
//! * cycle edges are checked exactly, and partial tuples whose optimistic
//!   completion cannot reach `τ` are pruned.
//!
//! A bucket is indexed by a [`SweepIndex`], the sweeping-based endpoint
//! store that stands in for the paper's R-tree: it answers the same
//! score-threshold windows and scans fewer items doing so. The index is
//! built the first time a combination opens its (vertex, bucket), so the
//! reducer pays only for the buckets its UB walk reaches; a shipped
//! slice that no combination opens is dropped unread.
//!
//! Pruning uses *strict* comparisons against `τ`, so every tuple that
//! could enter the final top-k (including ties resolved by the
//! deterministic id order) is still generated — local results equal the
//! naive oracle's exactly, which the tests verify.
//!
//! One reducer runs one sequential rank-join: it walks each
//! combination's first-step run once, against its single live top-k, so
//! every probe prunes against the current `τ`. Parallelism lives one
//! layer up, across the join phase's reduce tasks
//! (`ClusterConfig::worker_threads`).

use crate::bucketindex::IndexPools;
use crate::combos::ComboSet;
use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use tkij_index::{threshold_candidates, SweepIndex};
use tkij_mapreduce::Counters;
use tkij_temporal::bucket::BucketId;
use tkij_temporal::expr::Side;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::{JoinPlan, Query};
use tkij_temporal::result::{MatchTuple, TopK};

/// Telemetry of one reducer's local join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocalJoinStats {
    /// Combinations assigned to this reducer.
    pub combos_assigned: usize,
    /// Combinations actually processed before early termination.
    pub combos_processed: usize,
    /// Full tuples scored and offered to the local top-k.
    pub tuples_scored: u64,
    /// Candidate intervals visited through index windows.
    pub candidates_visited: u64,
    /// Window probes issued against the candidate index.
    pub index_probes: u64,
    /// Stored items the index examined serving those probes (≥
    /// `candidates_visited`; the gap is the index's scan overhead).
    pub items_scanned: u64,
    /// (Vertex, bucket) slices shipped to this reducer, opened or not
    /// (named for the index type until the step-0 rename).
    pub buckets_sweep: u64,
    /// Shipped slices some combination opened: each indexed (or fetched
    /// from the serving pool) once, on first open.
    pub buckets_opened: u64,
    /// Shipped records in the opened slices.
    pub records_opened: u64,
    /// Minimum score among the returned local top-k (Fig. 8c), 0 when
    /// empty.
    pub kth_score: f64,
}

impl Counters for LocalJoinStats {
    fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let LocalJoinStats {
            combos_assigned,
            combos_processed,
            tuples_scored,
            candidates_visited,
            index_probes,
            items_scanned,
            buckets_sweep,
            buckets_opened,
            records_opened,
            kth_score,
        } = self;
        f("combos_assigned", *combos_assigned as u64);
        f("combos_processed", *combos_processed as u64);
        f("tuples_scored", *tuples_scored);
        f("candidates_visited", *candidates_visited);
        f("index_probes", *index_probes);
        f("items_scanned", *items_scanned);
        f("buckets_sweep", *buckets_sweep);
        f("buckets_opened", *buckets_opened);
        f("records_opened", *records_opened);
        f("kth_score", kth_score.to_bits());
    }
}

/// Runs the local top-k join of one reducer.
///
/// `combo_indices` lists this reducer's combinations (indices into
/// `combos`); they are re-sorted by descending UB internally. `data` maps
/// each (vertex, bucket) to the intervals shipped for it, in any order:
/// a slice is indexed (and sorted canonically) only if a combination
/// opens it.
pub fn local_topk_join(
    query: &Query,
    plan: &JoinPlan,
    k: usize,
    combos: &ComboSet,
    combo_indices: &[u32],
    data: &BTreeMap<(u16, BucketId), Vec<Interval>>,
) -> (TopK, LocalJoinStats) {
    local_topk_join_planned(query, plan, k, combos, combo_indices, data.clone(), None)
}

/// The join-phase entry point: [`local_topk_join`] with every input
/// explicit, taking the reducer's shipped slices by value.
///
/// With `pools`, a bucket's index comes from the serving layer's shared
/// [`IndexPools`] on its first open instead of being built per reducer;
/// visit order and every work counter are bit-identical either way (see
/// the pool's soundness documentation), and the pool gains only the
/// buckets some combination opened. Pool keys translate the reducer's
/// (vertex, bucket) to (collection, bucket) through `query.vertices`, so
/// self-join vertices sharing a collection share one index.
pub(crate) fn local_topk_join_planned(
    query: &Query,
    plan: &JoinPlan,
    k: usize,
    combos: &ComboSet,
    combo_indices: &[u32],
    data: BTreeMap<(u16, BucketId), Vec<Interval>>,
    pools: Option<&IndexPools>,
) -> (TopK, LocalJoinStats) {
    // Nothing is indexed yet: a slice is indexed when a combination
    // first opens it (`JoinCx::index`).
    let slices: ReducerSlices = data
        .into_iter()
        .map(|(key, items)| (key, Slice { items: Cell::new(Some(items)), index: OnceCell::new() }))
        .collect();

    // Access order: descending upper bound (paper §4).
    let mut order: Vec<u32> = combo_indices.to_vec();
    order.sort_by(|&a, &b| {
        combos
            .ub(b as usize)
            .total_cmp(&combos.ub(a as usize))
            .then_with(|| combos.buckets(a as usize).cmp(combos.buckets(b as usize)))
    });

    let mut cx = JoinCx {
        query,
        plan,
        slices: &slices,
        pools,
        topk: TopK::new(k),
        stats: LocalJoinStats {
            combos_assigned: combo_indices.len(),
            buckets_sweep: slices.len() as u64,
            ..Default::default()
        },
        tuple: vec![None; query.n()],
        fixed: Vec::with_capacity(query.edges.len()),
        scores: vec![0.0; query.edges.len()],
        candidates: Vec::new(),
    };
    for &ci in &order {
        let ci = ci as usize;
        if cx.dominated(combos.ub(ci)) {
            break; // no remaining combination can beat the k-th result
        }
        cx.stats.combos_processed += 1;
        cx.process_combo(combos.buckets(ci), combos.ub(ci));
    }

    let JoinCx { topk, mut stats, .. } = cx;
    stats.kth_score = topk.min_score().unwrap_or(0.0);
    (topk, stats)
}

/// One shipped (vertex, bucket) slice: its records until a combination
/// first opens it, its index from then on.
struct Slice {
    /// The shipped records, taken by the first open.
    items: Cell<Option<Vec<Interval>>>,
    /// The index, built (or fetched from the pool) by the first open.
    /// `Arc`-held so pooled and reducer-built indexes are one type.
    index: OnceCell<Arc<SweepIndex>>,
}

/// One reducer's shipped slices, by (vertex, bucket).
type ReducerSlices = BTreeMap<(u16, BucketId), Slice>;

/// One reducer's rank-join state: its inputs, its live top-k, its
/// counters, and the recursion scratch. The recursion restores the
/// scratch on exit, so one allocation serves every combination.
struct JoinCx<'a> {
    query: &'a Query,
    plan: &'a JoinPlan,
    slices: &'a ReducerSlices,
    /// The serving layer's shared indexes, consulted on each first open.
    pools: Option<&'a IndexPools>,
    topk: TopK,
    stats: LocalJoinStats,
    /// Partial tuple, indexed by vertex.
    tuple: Vec<Option<Interval>>,
    /// Fixed (edge, score) pairs along the current path.
    fixed: Vec<(usize, f64)>,
    /// Per-edge score vector handed to the aggregation.
    scores: Vec<f64>,
    /// Candidate stack: each `extend` level pushes its (anchor-edge
    /// score, candidate) run on top, and truncates it off on exit.
    candidates: Vec<(f64, Interval)>,
}

impl<'a> JoinCx<'a> {
    /// The index of `vertex`'s `bucket`, built (or fetched from the pool)
    /// on its first open; `None` when no data was shipped for it.
    fn index(&mut self, vertex: usize, bucket: BucketId) -> Option<&'a SweepIndex> {
        let slice = self.slices.get(&(vertex as u16, bucket))?;
        if let Some(index) = slice.index.get() {
            return Some(index);
        }
        let items = slice.items.take().expect("an unopened slice holds its records");
        self.stats.buckets_opened += 1;
        self.stats.records_opened += items.len() as u64;
        // A build takes the slice over (`SweepIndex::build` sorts it
        // canonically); a pool hit drops it unread.
        let build = || SweepIndex::build(items);
        let index = match self.pools {
            Some(pools) => pools.get_or_build((self.query.vertices[vertex].0, bucket), build),
            None => Arc::new(build()),
        };
        Some(slice.index.get_or_init(|| index))
    }

    /// Whether a combination (or the rest of one) bounded by `ub` can no
    /// longer change the top-k score multiset. A UB that only *ties* the
    /// k-th score is dominated too: the paper's guarantee is the exact
    /// top-k ranking by score, and tie tuples are interchangeable. Every
    /// cut of the rank-join is this one comparison against
    /// [`TopK::threshold`] (`−∞` until the heap is full), applied to the
    /// total or to the edge score that total requires.
    fn dominated(&self, ub: f64) -> bool {
        ub <= self.topk.threshold()
    }

    /// Minimum score `edge` must reach, given the fixed edges, for a
    /// tuple to beat the current threshold (`−∞` until the heap is full).
    fn required_score(&self, edge: usize) -> f64 {
        self.query.aggregation.required_edge_score(
            &self.fixed,
            edge,
            self.query.edges.len(),
            self.topk.threshold(),
        )
    }

    /// Evaluates one combination: each item of its first-step run, in
    /// the index's canonical order, seeds the first plan step.
    fn process_combo(&mut self, buckets: &[BucketId], combo_ub: f64) {
        let first_vertex = self.plan.steps[0].vertex;
        let Some(index) = self.index(first_vertex, buckets[first_vertex]) else {
            return; // bucket had no shipped data
        };
        for x in index.items() {
            if self.dominated(combo_ub) {
                break; // the whole combination became dominated mid-run
            }
            self.tuple[first_vertex] = Some(*x);
            self.extend(1, buckets);
            self.tuple[first_vertex] = None;
        }
    }

    /// Grows the tuple at plan step `s`.
    fn extend(&mut self, s: usize, buckets: &[BucketId]) {
        if s == self.plan.steps.len() {
            self.finish();
            return;
        }
        let step = &self.plan.steps[s];
        let anchor = step.anchor.expect("non-first steps have anchors");
        let edge = &self.query.edges[anchor.edge];
        let anchor_iv = self.tuple[anchor.bound_vertex].expect("anchor bound");
        let needed = self.required_score(anchor.edge);
        if 1.0 <= needed {
            return; // even a perfect edge score cannot beat τ
        }
        let Some(index) = self.index(step.vertex, buckets[step.vertex]) else {
            return;
        };
        // Materialize candidates with their exact anchor-edge scores on
        // top of the candidate stack (the recursion needs `&mut self`, and
        // deeper levels push above this run), then visit them in descending
        // score order — rank-join style. High scorers raise the admission
        // threshold τ early, and because the stream is sorted, the first
        // candidate falling below the (re-evaluated) requirement ends the
        // whole loop instead of being skipped.
        //
        // The loop below breaks at `s ≤ requirement`, and the requirement
        // only rises with τ, so a candidate scoring exactly `needed` is
        // never reached: probe and keep strictly above it. The probe asks
        // for the next float above `needed` (`f64::next_up` is newer than
        // the MSRV; `+ 0.0` folds `-0.0` into `+0.0`). A negative
        // requirement admits every score, so the probe is then unbounded.
        let probe_at =
            if needed >= 0.0 { f64::from_bits((needed + 0.0).to_bits() + 1) } else { 0.0 };
        let base = self.candidates.len();
        let candidates = &mut self.candidates;
        let scanned = threshold_candidates(
            index,
            &edge.predicate,
            &anchor_iv,
            anchor.anchor_side,
            probe_at,
            |c| {
                let s = match anchor.anchor_side {
                    Side::Left => edge.predicate.score(&anchor_iv, c),
                    Side::Right => edge.predicate.score(c, &anchor_iv),
                };
                if s > needed {
                    candidates.push((s, *c));
                }
            },
        );
        self.stats.index_probes += 1;
        self.stats.items_scanned += scanned;
        let end = self.candidates.len();
        self.stats.candidates_visited += (end - base) as u64;
        self.candidates[base..].sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.start, a.1.end, a.1.id).cmp(&(b.1.start, b.1.end, b.1.id)))
        });

        for i in base..end {
            let (s_anchor, cand) = self.candidates[i];
            // Recompute the requirement against the *current* τ: it only
            // grows, and the stream is sorted descending, so a failure
            // here dominates every remaining candidate.
            if s_anchor <= self.required_score(anchor.edge) {
                break;
            }
            self.fixed.push((anchor.edge, s_anchor));
            self.tuple[step.vertex] = Some(cand);
            // Cycle edges between the new vertex and bound ones.
            let mut ok = true;
            let mut pushed = 1;
            for &ce in &step.checks {
                let e = &self.query.edges[ce];
                let x = self.tuple[e.src].expect("check edges have both ends bound");
                let y = self.tuple[e.dst].expect("check edges have both ends bound");
                let sc = e.predicate.score(&x, &y);
                self.fixed.push((ce, sc));
                pushed += 1;
                let optimistic = self.optimistic_total();
                if self.dominated(optimistic) {
                    ok = false;
                    break;
                }
            }
            if ok {
                self.extend(s + 1, buckets);
            }
            for _ in 0..pushed {
                self.fixed.pop();
            }
            self.tuple[step.vertex] = None;
        }
        self.candidates.truncate(base);
    }

    /// Best achievable total given the fixed edges (free edges at 1.0);
    /// the exact total once every edge is fixed. Fills the reused
    /// per-edge buffer instead of allocating.
    fn optimistic_total(&mut self) -> f64 {
        self.scores.fill(1.0);
        for &(e, s) in &self.fixed {
            self.scores[e] = s;
        }
        self.query.aggregation.eval(&self.scores)
    }

    /// Scores and offers a complete tuple.
    fn finish(&mut self) {
        debug_assert_eq!(self.fixed.len(), self.query.edges.len());
        let total = self.optimistic_total();
        self.stats.tuples_scored += 1;
        let ids = self.tuple.iter().map(|t| t.expect("complete tuple").id).collect();
        self.topk.offer(MatchTuple::new(ids, total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combos::vertex_buckets;
    use crate::naive::naive_topk;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tkij_temporal::bucket::BucketMatrix;
    use tkij_temporal::collection::{CollectionId, IntervalCollection};
    use tkij_temporal::granule::TimePartitioning;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::{table1, Query};

    type FullSetup = (ComboSet, Vec<u32>, BTreeMap<(u16, BucketId), Vec<Interval>>);

    /// Builds matrices, a full (unpruned) ComboSet with trivial bounds,
    /// and the complete data map for a single in-process "reducer".
    fn full_setup(query: &Query, collections: &[IntervalCollection], g: u32) -> FullSetup {
        let (min, max) = collections
            .iter()
            .map(|c| c.time_range())
            .fold((i64::MAX, i64::MIN), |acc, r| (acc.0.min(r.0), acc.1.max(r.1)));
        let part = TimePartitioning::from_range(min, max, g).unwrap();
        let matrices: Vec<BucketMatrix> =
            collections.iter().map(|c| BucketMatrix::build(part, c.intervals())).collect();
        let per_vertex = vertex_buckets(query, &matrices);
        let mut combos = ComboSet::new(query.n());
        crate::combos::enumerate_combos(&per_vertex, |idx| {
            let buckets: Vec<BucketId> =
                idx.iter().enumerate().map(|(v, &i)| per_vertex[v].ids[i]).collect();
            combos.push(&buckets, crate::combos::nb_res_of(&per_vertex, idx), 0.0, 1.0);
        });
        let indices: Vec<u32> = (0..combos.len() as u32).collect();
        let mut data: BTreeMap<(u16, BucketId), Vec<Interval>> = BTreeMap::new();
        for (v, cid) in query.vertices.iter().enumerate() {
            let m = &matrices[cid.0 as usize];
            for iv in collections[cid.0 as usize].intervals() {
                data.entry((v as u16, m.bucket_of(iv))).or_default().push(*iv);
            }
        }
        (combos, indices, data)
    }

    fn random_collections(seed: u64, m: usize, size: usize, span: i64) -> Vec<IntervalCollection> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m as u32)
            .map(|c| {
                let intervals = (0..size)
                    .map(|i| {
                        let s = rng.gen_range(0..span);
                        let w = rng.gen_range(0..span / 4);
                        Interval::new_unchecked(i as u64, s, s + w)
                    })
                    .collect();
                IntervalCollection::new(CollectionId(c), intervals).unwrap()
            })
            .collect()
    }

    fn assert_matches_naive(query: &Query, collections: &[IntervalCollection], k: usize, g: u32) {
        let (combos, indices, data) = full_setup(query, collections, g);
        let plan = query.plan();
        let (topk, stats) = local_topk_join(query, &plan, k, &combos, &indices, &data);
        let refs: Vec<&IntervalCollection> =
            query.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_topk(query, &refs, k);
        let got = topk.into_sorted_vec();
        assert_eq!(
            got.len(),
            expected.len(),
            "{}: result count mismatch (stats {stats:?})",
            query.name()
        );
        for (g, e) in got.iter().zip(&expected) {
            // Exact score multiset; tie tuples are interchangeable (the
            // join legitimately skips ties once the heap is full).
            assert!(
                (g.score - e.score).abs() < 1e-9,
                "{}: scores diverge: {g:?} vs {e:?}",
                query.name()
            );
            // Every returned tuple must be genuine: re-score it.
            let tuple: Vec<Interval> = g
                .ids
                .iter()
                .zip(&query.vertices)
                .map(|(id, c)| {
                    *collections[c.0 as usize]
                        .intervals()
                        .iter()
                        .find(|iv| iv.id == *id)
                        .expect("result ids exist")
                })
                .collect();
            assert!(
                (query.score_tuple(&tuple) - g.score).abs() < 1e-9,
                "{}: reported score is wrong",
                query.name()
            );
        }
    }

    #[test]
    fn matches_naive_on_all_table1_queries() {
        let collections = random_collections(11, 3, 14, 200);
        let avg = collections[0].avg_length();
        for (name, q) in table1::all(PredicateParams::P1, avg) {
            // n = 3 queries only at this size (star queries are n = 3).
            assert_eq!(q.n(), 3, "{name}");
            assert_matches_naive(&q, &collections, 5, 6);
        }
    }

    #[test]
    fn matches_naive_with_boolean_params() {
        let collections = random_collections(23, 3, 12, 120);
        for (_, q) in table1::all(PredicateParams::PB, collections[0].avg_length()) {
            assert_matches_naive(&q, &collections, 4, 5);
        }
    }

    #[test]
    fn matches_naive_across_k_and_granularity() {
        let collections = random_collections(5, 3, 10, 150);
        let q = table1::q_om(PredicateParams::P2);
        for k in [1, 3, 10, 500, 2000] {
            for g in [1, 3, 9] {
                assert_matches_naive(&q, &collections, k, g);
            }
        }
    }

    #[test]
    fn matches_naive_on_4way_star() {
        let collections = random_collections(31, 4, 8, 150);
        let q = table1::q_o_star(4, PredicateParams::P3);
        assert_matches_naive(&q, &collections, 6, 4);
    }

    #[test]
    fn early_termination_skips_dominated_combos() {
        // Two granule clusters: one yields perfect meets scores, the other
        // scores 0. With combos holding honest bounds, the 0-UB ones must
        // never be processed once k perfect results exist.
        let part = TimePartitioning::from_range(0, 199, 4).unwrap();
        let mut c1 = Vec::new();
        let mut c2 = Vec::new();
        for i in 0..6 {
            c1.push(Interval::new(i, 10, 49).unwrap()); // bucket (0,0)
            c2.push(Interval::new(i, 50, 99).unwrap()); // meets perfectly, bucket (1,1)
            c1.push(Interval::new(100 + i, 150, 160).unwrap()); // far bucket (3,3)
            c2.push(Interval::new(100 + i, 0, 10).unwrap()); // bucket (0,0)
        }
        let collections = [
            IntervalCollection::new(CollectionId(0), c1).unwrap(),
            IntervalCollection::new(CollectionId(1), c2).unwrap(),
        ];
        let q = Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![tkij_temporal::query::QueryEdge {
                src: 0,
                dst: 1,
                predicate: tkij_temporal::predicate::TemporalPredicate::meets(
                    PredicateParams::new(4, 8, 0, 0),
                ),
            }],
            tkij_temporal::aggregate::Aggregation::NormalizedSum,
        )
        .unwrap();
        let matrices: Vec<BucketMatrix> =
            collections.iter().map(|c| BucketMatrix::build(part, c.intervals())).collect();
        // Hand-built Ω_{k,S}: the perfect-score combination first, then a
        // dominated one (honest UB 0.4 < the perfect 1.0 the first one
        // will realize).
        let mut selected = ComboSet::new(2);
        selected.push(&[BucketId::new(0, 0), BucketId::new(1, 1)], 36, 1.0, 1.0);
        selected.push(&[BucketId::new(3, 3), BucketId::new(0, 0)], 36, 0.0, 0.4);
        let indices: Vec<u32> = vec![0, 1];
        let mut data: BTreeMap<(u16, BucketId), Vec<Interval>> = BTreeMap::new();
        for (v, cid) in q.vertices.iter().enumerate() {
            let m = &matrices[cid.0 as usize];
            for iv in collections[cid.0 as usize].intervals() {
                data.entry((v as u16, m.bucket_of(iv))).or_default().push(*iv);
            }
        }
        let plan = q.plan();
        let (topk, stats) = local_topk_join(&q, &plan, 3, &selected, &indices, &data);
        assert_eq!(topk.len(), 3);
        assert!((topk.min_score().unwrap() - 1.0).abs() < 1e-9);
        assert!(
            stats.combos_processed < stats.combos_assigned,
            "early termination must fire: {stats:?}"
        );
        assert_eq!(stats.combos_processed, 1, "UB-0.4 combo must be skipped: {stats:?}");

        // Four slices were shipped; the skipped combination's two are
        // never opened, so neither is indexed nor pooled.
        assert_eq!((stats.buckets_sweep, stats.buckets_opened), (4, 2), "{stats:?}");
        assert_eq!(stats.records_opened, 12, "{stats:?}");
        let pools = IndexPools::new();
        let (pooled, pooled_stats) =
            local_topk_join_planned(&q, &plan, 3, &selected, &indices, data, Some(&pools));
        assert_eq!(pooled_stats, stats, "pooling changes no counter");
        assert_eq!(pooled.into_sorted_vec(), topk.into_sorted_vec());
        assert_eq!(pools.len(), 2, "only the opened buckets are pooled");
        for opened in [(0, BucketId::new(0, 0)), (1, BucketId::new(1, 1))] {
            pools.get_or_build(opened, || panic!("{opened:?} was opened, so it is pooled"));
        }
    }

    #[test]
    fn a_full_heap_never_materialises_candidates_that_only_tie_the_requirement() {
        // Chain X —meets→ Y —meets→ Z under NormalizedSum, equals (λ, ρ) =
        // (0, 64). The plan starts at Y (the chain's middle); both Ys meet
        // the one X perfectly. Y1's unbounded Z probe (heap not yet full)
        // offers its 4 positive Zs and then a 0-scoring one, which fills
        // the k = 5 heap at τ = 0.5. Y2's probes then run at requirement
        // (2·0.5 − 1.0) − 0 = 0 for both edges: only candidates scoring
        // > 0 can be reached, so only X and Y2's 3 positive Zs are
        // materialised. The three Zs at distance exactly λ + ρ = 64 from
        // Y2 lie on its window's edge and score exactly 0.
        let params = PredicateParams::new(0, 64, 0, 0);
        let x = vec![Interval::new(0, 0, 100).unwrap()];
        let y = vec![Interval::new(0, 100, 200).unwrap(), Interval::new(1, 100, 300).unwrap()];
        let y1_positive = [201, 203, 205, 207];
        let y2_positive = [300, 302, 304];
        let y2_window_edge = [364, 364, 364];
        let far = 1_000..1_020;
        let z: Vec<Interval> = y1_positive
            .into_iter()
            .chain(y2_positive)
            .chain(y2_window_edge)
            .chain(far)
            .enumerate()
            .map(|(i, s)| Interval::new(i as u64, s, s + 10 + i as i64).unwrap())
            .collect();
        let collections: Vec<IntervalCollection> = [x, y, z.clone()]
            .into_iter()
            .enumerate()
            .map(|(c, ivs)| IntervalCollection::new(CollectionId(c as u32), ivs).unwrap())
            .collect();
        let meets = tkij_temporal::predicate::TemporalPredicate::meets(params);
        let edge =
            |src, dst| tkij_temporal::query::QueryEdge { src, dst, predicate: meets.clone() };
        let q = Query::new(
            (0..3).map(CollectionId).collect(),
            vec![edge(0, 1), edge(1, 2)],
            tkij_temporal::aggregate::Aggregation::NormalizedSum,
        )
        .unwrap();
        let k = y1_positive.len() + 1;
        let (combos, indices, data) = full_setup(&q, &collections, 1);
        let (topk, stats) = local_topk_join(&q, &q.plan(), k, &combos, &indices, &data);

        // Y1: X and every Z (the heap is not full). Y2: X and the Zs
        // scoring > 0 against it, out of windows holding those and the
        // three edge Zs.
        assert_eq!(stats.index_probes, 4);
        assert_eq!(stats.candidates_visited, (1 + z.len() + 1 + y2_positive.len()) as u64);
        let y2_window = y2_positive.len() + y2_window_edge.len();
        assert_eq!(stats.items_scanned, (1 + z.len() + 1 + y2_window) as u64);
        let refs: Vec<&IntervalCollection> = collections.iter().collect();
        let bits = |ts: Vec<MatchTuple>| -> Vec<(Vec<u64>, u64)> {
            ts.into_iter().map(|t| (t.ids, t.score.to_bits())).collect()
        };
        assert_eq!(bits(topk.into_sorted_vec()), bits(naive_topk(&q, &refs, k)));
    }

    #[test]
    fn slices_are_canonicalised_where_the_index_is_built() {
        // Reducers hand slices over in arrival order; every index must
        // still be built from the canonical `(start, end, id)` sequence,
        // so a reversed slice joins exactly like a sorted one.
        let collections = random_collections(17, 3, 40, 400);
        let q = table1::q_om(PredicateParams::P1);
        let (combos, indices, mut sorted) = full_setup(&q, &collections, 8);
        for slice in sorted.values_mut() {
            slice.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
        }
        let mut reversed = sorted.clone();
        reversed.values_mut().for_each(|slice| slice.reverse());
        let plan = q.plan();
        let run = |data| {
            let (topk, stats) = local_topk_join(&q, &plan, 12, &combos, &indices, data);
            let results: Vec<_> =
                topk.into_sorted_vec().into_iter().map(|t| (t.ids, t.score.to_bits())).collect();
            (results, stats)
        };
        assert_eq!(run(&reversed), run(&sorted));
    }

    #[test]
    fn empty_assignment_returns_empty() {
        let _collections = random_collections(7, 2, 5, 50);
        let q = Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![tkij_temporal::query::QueryEdge {
                src: 0,
                dst: 1,
                predicate: tkij_temporal::predicate::TemporalPredicate::before(PredicateParams::P1),
            }],
            tkij_temporal::aggregate::Aggregation::NormalizedSum,
        )
        .unwrap();
        let plan = q.plan();
        let combos = ComboSet::new(2);
        let (topk, stats) = local_topk_join(&q, &plan, 5, &combos, &[], &BTreeMap::new());
        assert!(topk.is_empty());
        assert_eq!(stats.combos_processed, 0);
        assert_eq!(stats.kth_score, 0.0);
    }
}
