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
//!   intervals x_j s.t. s-p(x_i, x_j) ≥ v");
//! * cycle edges are checked exactly, and partial tuples whose optimistic
//!   completion cannot reach `τ` are pruned.
//!
//! The candidate index is pluggable ([`LocalJoinBackend`]): every bucket
//! is served by one [`BucketIndex`] — the paper's R-tree or the
//! sweeping-based endpoint store — so both evaluate through the same
//! join code and differ only in how they serve window probes.
//!
//! Pruning uses *strict* comparisons against `τ`, so every tuple that
//! could enter the final top-k (including ties resolved by the
//! deterministic id order) is still generated — local results equal the
//! naive oracle's exactly, which the tests verify.
//!
//! # Intra-reducer parallelism: sharding the probe stream
//!
//! One reducer's probes are independent (Piatov et al.'s endpoint-lane
//! probes are embarrassingly parallel), so the candidate run of each
//! combination is split into **deterministic fixed-size chunks**
//! ([`IntraJoin::chunk_items`]) and evaluated in waves of
//! [`INTRA_WAVE_CHUNKS`] chunks. Each wave chunk gets a private top-k
//! heap (`ShardHeap` internally) and private probe counters; partial
//! heaps are merged back **in chunk order**, and partial counters are
//! summed the same way. Rank-join early termination survives sharding
//! the way Tziavelis et al. describe for partitioned rank joins: a
//! shared score bound — the merged global `τ`, published to a relaxed
//! atomic **only between waves**, never while a wave is in flight — lets
//! every chunk skip dominated probes from its first item. Because the
//! bound is frozen during a wave, *when* a chunk observes it can affect
//! neither correctness (any stale value is a valid lower bound on the
//! final `τ`) nor a single work counter. The chunk schedule, wave
//! boundaries and bound publication points depend only on the data and
//! `chunk_items` — never on [`IntraJoin::threads`] — so results *and*
//! work counters are bit-identical for every thread count, including the
//! sequential `0`; only wall time changes.

use crate::bucketindex::{BackendChoices, BucketIndex, IndexPools};
use crate::combos::ComboSet;
use crate::config::{LocalJoinBackend, SweepScanKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tkij_index::{threshold_candidates, CandidateSource};
use tkij_mapreduce::{run_tasks, Counters};
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
    /// `candidates_visited`; the gap is the backend's scan overhead).
    pub items_scanned: u64,
    /// Reducer buckets indexed with the R-tree (with a fixed backend:
    /// all or none; under [`LocalJoinBackend::Auto`]: the selector's
    /// per-bucket choices).
    pub buckets_rtree: u64,
    /// Reducer buckets indexed with the sweeping store.
    pub buckets_sweep: u64,
    /// Probe chunks actually evaluated (inline and wave chunks) across
    /// all combinations — the scheduling unit of the intra-reducer
    /// parallel join. Chunks skipped because their combination became
    /// dominated mid-run are not counted, so a deficit against the
    /// nominal chunk count witnesses per-chunk early termination.
    pub probe_chunks: u64,
    /// Largest chunk-worker count any wave of this reducer actually ran
    /// with (`0` = every chunk was evaluated sequentially). An
    /// execution-*shape* record, like the timing fields: unlike every
    /// other counter it legitimately varies with the configured thread
    /// knobs — though never between repeat runs of one configuration.
    pub intra_threads_used: u64,
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
            buckets_rtree,
            buckets_sweep,
            probe_chunks,
            intra_threads_used,
            kth_score,
        } = self;
        f("combos_assigned", *combos_assigned as u64);
        f("combos_processed", *combos_processed as u64);
        f("tuples_scored", *tuples_scored);
        f("candidates_visited", *candidates_visited);
        f("index_probes", *index_probes);
        f("items_scanned", *items_scanned);
        f("buckets_rtree", *buckets_rtree);
        f("buckets_sweep", *buckets_sweep);
        f("probe_chunks", *probe_chunks);
        f("intra_threads_used", *intra_threads_used);
        f("kth_score", kth_score.to_bits());
    }
}

impl LocalJoinStats {
    /// Folds one probe chunk's private counters into the reducer totals
    /// (the chunk-order merge of the sharded local join). Only the four
    /// probe-level counters are chunk-local; everything else is
    /// maintained by the coordinating thread.
    pub fn absorb_probe_counters(&mut self, chunk: &LocalJoinStats) {
        self.tuples_scored += chunk.tuples_scored;
        self.candidates_visited += chunk.candidates_visited;
        self.index_probes += chunk.index_probes;
        self.items_scanned += chunk.items_scanned;
    }
}

/// Probe items per chunk of the sharded candidate run — the
/// [`IntraJoin::chunk_items`] default. Small enough that a hot bucket
/// splits into many schedulable chunks, large enough that per-chunk
/// heap and merge overhead stays marginal next to the probe work.
pub const PROBE_CHUNK_ITEMS: usize = 256;

/// Chunks per parallel wave. Between waves the coordinator merges the
/// partial heaps (in chunk order) and republishes the shared score
/// bound, so larger waves expose more parallelism but prune with a
/// staler bound. A constant — never a function of the thread count —
/// because wave boundaries and bound publication points are part of the
/// deterministic plan.
pub const INTRA_WAVE_CHUNKS: usize = 8;

/// The probe-stream sharding plan of one reducer's local join.
///
/// The *plan* (chunk boundaries, wave structure, bound publication
/// points) is fixed by `chunk_items` and the data alone; `threads` only
/// chooses how many OS threads execute it. Results and work counters
/// are therefore bit-identical for every `threads` value — the property
/// `tests/determinism.rs` locks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntraJoin {
    /// Worker threads evaluating one wave's chunks; `0` (like
    /// `ClusterConfig::worker_threads`) evaluates them sequentially on
    /// the calling thread. Derive this from the cluster with
    /// `ClusterConfig::intra_join_plan` so outer × inner task
    /// parallelism never oversubscribes the host.
    pub threads: usize,
    /// Fixed probe-chunk length (clamped to ≥ 1). An *algorithmic* knob:
    /// changing it moves chunk boundaries, which may exchange tie tuples
    /// of equal score — the score multiset stays exact for every value.
    pub chunk_items: usize,
    /// Whether wave chunks read the shared score bound (ablation
    /// switch). Disabling it starts every wave chunk unbounded — the
    /// maximally stale bound: results stay exact and work can only grow,
    /// i.e. the bound may only *prune* (asserted by the equivalence
    /// suite).
    pub shared_bound: bool,
}

impl Default for IntraJoin {
    fn default() -> Self {
        IntraJoin { threads: 0, chunk_items: PROBE_CHUNK_ITEMS, shared_bound: true }
    }
}

impl IntraJoin {
    /// The sequential default plan: chunked protocol, calling thread
    /// only.
    pub fn sequential() -> Self {
        Self::default()
    }
}

/// A predicate over *partial* tuples (entries are `None` until their
/// vertex is bound), used by hybrid queries to reject tuples on
/// non-temporal attributes as early as possible. Must be monotone:
/// once a partial tuple is rejected, every extension is too.
pub trait TupleFilter: Sync {
    /// Whether the partial tuple may still produce results.
    fn admits(&self, tuple: &[Option<Interval>]) -> bool;
}

/// Runs the local top-k join of one reducer with the default backend,
/// sequentially.
///
/// `combo_indices` lists this reducer's combinations (indices into
/// `combos`); they are re-sorted by descending UB internally. `data` maps
/// each (vertex, bucket) to the intervals shipped for it, in any order:
/// each slice is sorted canonically where its index is built.
pub fn local_topk_join(
    query: &Query,
    plan: &JoinPlan,
    k: usize,
    combos: &ComboSet,
    combo_indices: &[u32],
    data: &BTreeMap<(u16, BucketId), Vec<Interval>>,
) -> (TopK, LocalJoinStats) {
    local_topk_join_planned(
        LocalJoinBackend::default(),
        SweepScanKind::default(),
        query,
        plan,
        k,
        combos,
        combo_indices,
        data,
        None,
        None,
        IntraJoin::sequential(),
        None,
    )
}

/// The join-phase entry point: [`local_topk_join`] with every input
/// explicit.
///
/// `backend` and `choices` decide which [`BucketIndex`] variant serves
/// each shipped bucket: the fixed backend for all of them, or — under
/// [`LocalJoinBackend::Auto`] — the per-bucket plan the engine derived
/// once from the collected statistics (a bucket missing from `choices`
/// decides from its shipped slice's profile, identical by construction).
/// `scan` is the sweep store's run-scan kind; by the lanes contract it
/// cannot change results or counters. `filter` is a hybrid query's
/// attribute filter: it never breaks exactness, because combination
/// upper bounds remain valid for any tuple subset and the admission
/// threshold only tracks surviving tuples.
///
/// With `pools`, bucket indexes come from the serving layer's shared
/// [`IndexPools`] instead of being built per reducer; visit order and
/// every work counter are bit-identical either way (see the pool's
/// soundness documentation). Pool keys translate the reducer's (vertex,
/// bucket) to (collection, bucket) through `query.vertices`, so
/// self-join vertices sharing a collection share one index.
#[allow(
    clippy::too_many_arguments,
    reason = "one reducer's whole input; grouping it would add a single-use struct"
)]
pub(crate) fn local_topk_join_planned(
    backend: LocalJoinBackend,
    scan: SweepScanKind,
    query: &Query,
    plan: &JoinPlan,
    k: usize,
    combos: &ComboSet,
    combo_indices: &[u32],
    data: &BTreeMap<(u16, BucketId), Vec<Interval>>,
    filter: Option<&dyn TupleFilter>,
    choices: Option<&BackendChoices>,
    intra: IntraJoin,
    pools: Option<&IndexPools>,
) -> (TopK, LocalJoinStats) {
    join_generic(query, plan, k, combos, combo_indices, data, filter, intra, |key, items| {
        let choice = match backend {
            LocalJoinBackend::Auto => choices.and_then(|c| c.get(key).copied()).unwrap_or(backend),
            fixed => fixed,
        };
        // Only a build copies the shipped slice, and sorts the copy into
        // the canonical `(start, end, id)` sequence every index of this
        // (collection, bucket) is built from; a pool hit reads nothing.
        let build = || {
            let mut items = items.to_vec();
            items.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
            BucketIndex::build_chosen(choice, items, scan)
        };
        match pools {
            Some(pools) => pools.get_or_build((query.vertices[key.0 as usize].0, key.1), build),
            None => Arc::new(build()),
        }
    })
}

/// The admission interface the rank-join recursion prunes against:
/// either the reducer's global [`TopK`] (inline chunks, full sequential
/// fidelity) or a wave chunk's private [`ShardHeap`] view.
trait ProbeHeap {
    /// Whether `k` results are (known to be) retained.
    fn is_full(&self) -> bool;
    /// A valid lower bound on the final k-th score (the pruning `τ`).
    fn admission_score(&self) -> f64;
    /// Offers a complete tuple.
    fn offer(&mut self, tuple: MatchTuple) -> bool;
}

impl ProbeHeap for TopK {
    fn is_full(&self) -> bool {
        TopK::is_full(self)
    }

    fn admission_score(&self) -> f64 {
        TopK::admission_score(self)
    }

    fn offer(&mut self, tuple: MatchTuple) -> bool {
        TopK::offer(self, tuple)
    }
}

/// A wave chunk's private view of the reducer's top-k: its own heap for
/// the chunk's tuples, plus the shared score bound frozen at wave start
/// (`floor`, with `floor_full` recording that the global heap backing it
/// held `k` results). `admission_score` is always a valid lower bound on
/// the final k-th score — the floor is the published global threshold
/// and the local k-th is the k-th of a *subset* of all offers — so
/// pruning against it preserves the exact score multiset no matter how
/// stale the floor is.
struct ShardHeap {
    local: TopK,
    floor: f64,
    floor_full: bool,
}

impl ProbeHeap for ShardHeap {
    fn is_full(&self) -> bool {
        self.floor_full || self.local.is_full()
    }

    fn admission_score(&self) -> f64 {
        self.floor.max(self.local.admission_score())
    }

    fn offer(&mut self, tuple: MatchTuple) -> bool {
        self.local.offer(tuple)
    }
}

/// Publishes a new value of the shared score bound. Called only at
/// deterministic merge points (between chunk waves), never while a wave
/// is in flight, so every load a wave chunk issues observes the same
/// value regardless of scheduling — observation timing can affect
/// neither correctness nor any work counter. Relaxed ordering suffices:
/// the scope join/spawn already orders the memory, and even a stale
/// value would only be a weaker, still-valid lower bound.
///
/// # Panics
///
/// Hard-asserts monotonicity: the rank-join admission threshold never
/// decreases, so a regressing publication means a bookkeeping bug that
/// would silently weaken pruning.
fn publish_bound(bound: &AtomicU64, value: f64) {
    let prev = f64::from_bits(bound.load(Ordering::Relaxed));
    assert!(
        value >= prev,
        "shared intra-join score bound must be monotone: publishing {value} after {prev}"
    );
    bound.store(value.to_bits(), Ordering::Relaxed);
}

/// The rank-join body. `build` yields one bucket's index from its
/// (vertex, bucket) key and shipped intervals.
#[allow(clippy::too_many_arguments, reason = "one reducer's whole input plus its index builder")]
fn join_generic(
    query: &Query,
    plan: &JoinPlan,
    k: usize,
    combos: &ComboSet,
    combo_indices: &[u32],
    data: &BTreeMap<(u16, BucketId), Vec<Interval>>,
    filter: Option<&dyn TupleFilter>,
    intra: IntraJoin,
    build: impl Fn(&(u16, BucketId), &[Interval]) -> Arc<BucketIndex>,
) -> (TopK, LocalJoinStats) {
    let mut stats = LocalJoinStats { combos_assigned: combo_indices.len(), ..Default::default() };
    let mut topk = TopK::new(k);

    // Index every shipped bucket once; reused across combinations.
    let indexes: BucketIndexes =
        data.iter().map(|(&key, intervals)| (key, build(&key, intervals))).collect();
    for index in indexes.values() {
        match index.backend() {
            LocalJoinBackend::RTree => stats.buckets_rtree += 1,
            _ => stats.buckets_sweep += 1,
        }
    }

    // Access order: descending upper bound (paper §4).
    let mut order: Vec<u32> = combo_indices.to_vec();
    order.sort_by(|&a, &b| {
        combos
            .ub(b as usize)
            .total_cmp(&combos.ub(a as usize))
            .then_with(|| combos.buckets(a as usize).cmp(combos.buckets(b as usize)))
    });

    let run = ComboRun {
        query,
        plan,
        indexes: &indexes,
        filter,
        intra,
        k,
        bound: AtomicU64::new(0f64.to_bits()),
    };
    let mut scratch = Scratch::for_query(query);
    for &ci in &order {
        let ci = ci as usize;
        // Once the heap is full, a combination whose UB only *ties* the
        // k-th score cannot change the top-k score multiset: skip it.
        // (The paper's guarantee is the exact top-k ranking by score; tie
        // tuples are interchangeable.)
        if topk.is_full() && combos.ub(ci) <= topk.admission_score() {
            break; // no remaining combination can beat the k-th result
        }
        stats.combos_processed += 1;
        run.process_combo(combos.buckets(ci), combos.ub(ci), &mut topk, &mut stats, &mut scratch);
    }

    stats.kth_score = topk.min_score().unwrap_or(0.0);
    (topk, stats)
}

/// One reducer's indexes, by (vertex, bucket). `Arc`-held so pooled and
/// reducer-built indexes are one type.
type BucketIndexes = BTreeMap<(u16, BucketId), Arc<BucketIndex>>;

/// Immutable context of one reducer's combination loop — everything a
/// probe chunk needs, so wave workers can borrow a single struct.
struct ComboRun<'a> {
    query: &'a Query,
    plan: &'a JoinPlan,
    indexes: &'a BucketIndexes,
    filter: Option<&'a dyn TupleFilter>,
    intra: IntraJoin,
    k: usize,
    /// Bits of the shared score bound ([`publish_bound`]).
    bound: AtomicU64,
}

impl ComboRun<'_> {
    /// Evaluates one combination: its first-step candidate run is split
    /// into fixed-size chunks ([`CandidateSource::item_chunks`]) and
    /// consumed as inline chunks (against the global heap) or parallel
    /// waves of private-heap chunks merged back in chunk order.
    fn process_combo(
        &self,
        buckets: &[BucketId],
        combo_ub: f64,
        topk: &mut TopK,
        stats: &mut LocalJoinStats,
        scratch: &mut Scratch,
    ) {
        let first = &self.plan.steps[0];
        let Some(index) = self.indexes.get(&(first.vertex as u16, buckets[first.vertex])) else {
            return; // bucket had no shipped data
        };
        // Chunk a snapshot: indexes are immutable, items are in the
        // backend's deterministic order. Chunks are consumed strictly in
        // order, so [`CandidateSource::item_chunks`] — the one source of
        // truth for chunk boundaries — serves both inline chunks and
        // wave slices without materializing a chunk list per combination.
        let mut chunk_iter = index.item_chunks(self.intra.chunk_items);
        let nchunks = chunk_iter.len();
        let mut next = 0usize;
        while next < nchunks {
            if topk.is_full() && combo_ub <= topk.admission_score() {
                break; // the whole combination became dominated mid-run
            }
            if !topk.is_full() || nchunks - next == 1 {
                // Inline chunk, evaluated directly against the global
                // heap with exact sequential fidelity: while the heap is
                // still filling there is no meaningful bound to shard
                // under, and a lone trailing chunk gains nothing from a
                // wave. Both conditions depend only on data and config.
                let mut cx = JoinCx {
                    query: self.query,
                    plan: self.plan,
                    indexes: self.indexes,
                    heap: &mut *topk,
                    stats,
                    tuple: &mut scratch.tuple,
                    fixed: &mut scratch.fixed,
                    filter: self.filter,
                };
                cx.run_chunk(
                    chunk_iter.next().expect("nchunks counts the chunks"),
                    buckets,
                    combo_ub,
                );
                stats.probe_chunks += 1;
                next += 1;
                continue;
            }
            let end = (next + INTRA_WAVE_CHUNKS).min(nchunks);
            let wave: Vec<&[Interval]> = chunk_iter.by_ref().take(end - next).collect();
            publish_bound(&self.bound, topk.admission_score());
            for (local, chunk_stats) in self.run_wave(&wave, buckets, combo_ub) {
                stats.absorb_probe_counters(&chunk_stats);
                // Chunk-order merge: the global heap's total order makes
                // the merged content offer-order independent, and fixing
                // the order anyway keeps the protocol easy to reason
                // about (and to mirror in tests).
                for tuple in local.into_sorted_vec() {
                    topk.offer(tuple);
                }
            }
            stats.probe_chunks += wave.len() as u64;
            if self.intra.threads >= 2 {
                stats.intra_threads_used =
                    stats.intra_threads_used.max(self.intra.threads.min(wave.len()) as u64);
            }
            next = end;
        }
    }

    /// Evaluates one wave's chunks through [`run_tasks`] — sequentially,
    /// or on chunk workers claiming chunks by index — and returns each
    /// chunk's private heap and counters, in chunk order.
    /// Which thread evaluates a chunk can never matter: a chunk's work
    /// is a pure function of (chunk, frozen bound).
    fn run_wave(
        &self,
        wave: &[&[Interval]],
        buckets: &[BucketId],
        combo_ub: f64,
    ) -> Vec<(TopK, LocalJoinStats)> {
        let eval = |chunk: &[Interval]| -> (TopK, LocalJoinStats) {
            let (floor, floor_full) = if self.intra.shared_bound {
                // Relaxed ordering suffices: the bound is published only
                // between waves ([`publish_bound`]), the scope join/spawn
                // already orders the memory, and any value read here is a
                // valid (monotone) admission floor.
                (f64::from_bits(self.bound.load(Ordering::Relaxed)), true)
            } else {
                (0.0, false) // ablation: the maximally stale bound
            };
            let mut heap = ShardHeap { local: TopK::new(self.k), floor, floor_full };
            let mut chunk_stats = LocalJoinStats::default();
            // Wave chunks genuinely need private scratch: they may run
            // concurrently with each other.
            let mut scratch = Scratch::for_query(self.query);
            let mut cx = JoinCx {
                query: self.query,
                plan: self.plan,
                indexes: self.indexes,
                heap: &mut heap,
                stats: &mut chunk_stats,
                tuple: &mut scratch.tuple,
                fixed: &mut scratch.fixed,
                filter: self.filter,
            };
            cx.run_chunk(chunk, buckets, combo_ub);
            (heap.local, chunk_stats)
        };
        run_tasks(wave.len(), self.intra.threads, |i| eval(wave[i]))
    }
}

/// Reusable recursion scratch (partial tuple + fixed edge scores): the
/// recursion restores both on exit, so one allocation serves every
/// inline chunk of a reducer; wave chunks carry their own.
struct Scratch {
    tuple: Vec<Option<Interval>>,
    fixed: Vec<(usize, f64)>,
}

impl Scratch {
    fn for_query(query: &Query) -> Self {
        Scratch { tuple: vec![None; query.n()], fixed: Vec::with_capacity(query.edges.len()) }
    }
}

/// Mutable evaluation context threaded through the recursion, generic
/// over the heap it prunes against ([`ProbeHeap`]).
struct JoinCx<'a, H> {
    query: &'a Query,
    plan: &'a JoinPlan,
    indexes: &'a BucketIndexes,
    heap: &'a mut H,
    stats: &'a mut LocalJoinStats,
    /// Partial tuple, indexed by vertex (borrowed [`Scratch`]).
    tuple: &'a mut Vec<Option<Interval>>,
    /// Fixed (edge, score) pairs along the current path.
    fixed: &'a mut Vec<(usize, f64)>,
    /// Optional attribute filter (hybrid queries).
    filter: Option<&'a dyn TupleFilter>,
}

impl<H: ProbeHeap> JoinCx<'_, H> {
    /// Evaluates one probe chunk: each item seeds the first plan step.
    fn run_chunk(&mut self, chunk: &[Interval], buckets: &[BucketId], combo_ub: f64) {
        let first_vertex = self.plan.steps[0].vertex;
        for x in chunk {
            if self.heap.is_full() && combo_ub <= self.heap.admission_score() {
                break; // the whole combination became dominated mid-way
            }
            self.tuple[first_vertex] = Some(*x);
            if self.filter.is_none_or(|f| f.admits(self.tuple)) {
                self.extend(1, buckets);
            }
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
        let tau = self.heap.admission_score();
        // With a full heap, only strictly-better totals matter (ties
        // cannot change the score multiset).
        let strict = self.heap.is_full();
        let needed = self.query.aggregation.required_edge_score(
            self.fixed,
            anchor.edge,
            self.query.edges.len(),
            tau,
        );
        if needed > 1.0 || (strict && needed >= 1.0) {
            return; // even a perfect edge score cannot beat τ
        }
        let Some(index) = self.indexes.get(&(step.vertex as u16, buckets[step.vertex])) else {
            return;
        };
        // Materialize candidates with their exact anchor-edge scores (the
        // recursion needs `&mut self`), then visit them in descending
        // score order — rank-join style. High scorers raise the admission
        // threshold τ early, and because the stream is sorted, the first
        // candidate falling below the (re-evaluated) requirement ends the
        // whole loop instead of being skipped.
        let mut candidates: Vec<(f64, Interval)> = Vec::new();
        let scanned = threshold_candidates(
            &**index,
            &edge.predicate,
            &anchor_iv,
            anchor.anchor_side,
            needed.max(0.0),
            |c| {
                let s = match anchor.anchor_side {
                    Side::Left => edge.predicate.score(&anchor_iv, c),
                    Side::Right => edge.predicate.score(c, &anchor_iv),
                };
                if s >= needed {
                    candidates.push((s, *c));
                }
            },
        );
        self.stats.index_probes += 1;
        self.stats.items_scanned += scanned;
        self.stats.candidates_visited += candidates.len() as u64;
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.start, a.1.end, a.1.id).cmp(&(b.1.start, b.1.end, b.1.id)))
        });

        for (s_anchor, cand) in candidates {
            // Recompute the requirement against the *current* τ: it only
            // grows, and the stream is sorted descending, so a failure
            // here dominates every remaining candidate.
            let strict = self.heap.is_full();
            let needed_now = self.query.aggregation.required_edge_score(
                self.fixed,
                anchor.edge,
                self.query.edges.len(),
                self.heap.admission_score(),
            );
            if s_anchor < needed_now || (strict && s_anchor <= needed_now) {
                break;
            }
            self.fixed.push((anchor.edge, s_anchor));
            self.tuple[step.vertex] = Some(cand);
            // Cycle edges between the new vertex and bound ones.
            let mut ok = self.filter.is_none_or(|f| f.admits(self.tuple));
            let mut pushed = 1;
            for &ce in &step.checks {
                if !ok {
                    break;
                }
                let e = &self.query.edges[ce];
                let x = self.tuple[e.src].expect("check edges have both ends bound");
                let y = self.tuple[e.dst].expect("check edges have both ends bound");
                let sc = e.predicate.score(&x, &y);
                self.fixed.push((ce, sc));
                pushed += 1;
                let optimistic = self.optimistic_total();
                let tau_now = self.heap.admission_score();
                if optimistic < tau_now || (self.heap.is_full() && optimistic <= tau_now) {
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
    }

    /// Best achievable total given the fixed edges (free edges at 1.0).
    fn optimistic_total(&self) -> f64 {
        let mut scores = vec![1.0; self.query.edges.len()];
        for &(e, s) in self.fixed.iter() {
            scores[e] = s;
        }
        self.query.aggregation.eval(&scores)
    }

    /// Scores and offers a complete tuple.
    fn finish(&mut self) {
        let tuple: Vec<Interval> = self.tuple.iter().map(|t| t.expect("complete tuple")).collect();
        debug_assert_eq!(self.fixed.len(), self.query.edges.len());
        let mut scores = vec![0.0; self.query.edges.len()];
        for &(e, s) in self.fixed.iter() {
            scores[e] = s;
        }
        let total = self.query.aggregation.eval(&scores);
        self.stats.tuples_scored += 1;
        self.heap.offer(MatchTuple::new(tuple.iter().map(|iv| iv.id).collect(), total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucketindex::select_backend;
    use crate::combos::vertex_buckets;
    use crate::naive::naive_topk;
    use crate::stats::BucketProfile;
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
        crate::combos::enumerate_combos(&per_vertex, 0..per_vertex[0].len(), |idx| {
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

    /// The sequential, unpooled join on an explicit backend.
    fn join_on(
        backend: LocalJoinBackend,
        query: &Query,
        plan: &JoinPlan,
        k: usize,
        combos: &ComboSet,
        combo_indices: &[u32],
        data: &BTreeMap<(u16, BucketId), Vec<Interval>>,
    ) -> (TopK, LocalJoinStats) {
        local_topk_join_planned(
            backend,
            SweepScanKind::default(),
            query,
            plan,
            k,
            combos,
            combo_indices,
            data,
            None,
            None,
            IntraJoin::sequential(),
            None,
        )
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
        for (_, backend) in LocalJoinBackend::all() {
            assert_matches_naive_on(backend, query, collections, k, g);
        }
    }

    fn assert_matches_naive_on(
        backend: LocalJoinBackend,
        query: &Query,
        collections: &[IntervalCollection],
        k: usize,
        g: u32,
    ) {
        let (combos, indices, data) = full_setup(query, collections, g);
        let plan = query.plan();
        let (topk, stats) = join_on(backend, query, &plan, k, &combos, &indices, &data);
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
        // Early termination is a property of the rank-join, not of the
        // candidate source: every backend must skip the dominated combo.
        for (name, backend) in LocalJoinBackend::all() {
            let (topk, stats) = join_on(backend, &q, &plan, 3, &selected, &indices, &data);
            assert_eq!(topk.len(), 3, "{name}");
            assert!((topk.min_score().unwrap() - 1.0).abs() < 1e-9, "{name}");
            assert!(
                stats.combos_processed < stats.combos_assigned,
                "{name}: early termination must fire: {stats:?}"
            );
            assert_eq!(
                stats.combos_processed, 1,
                "{name}: UB-0.4 combo must be skipped: {stats:?}"
            );
        }
    }

    #[test]
    fn backends_agree_exactly_and_sweep_scans_less() {
        let collections = random_collections(17, 3, 40, 400);
        let q = table1::q_om(PredicateParams::P1);
        let (combos, indices, data) = full_setup(&q, &collections, 8);
        let plan = q.plan();
        let (rt_topk, rt_stats) =
            join_on(LocalJoinBackend::RTree, &q, &plan, 12, &combos, &indices, &data);
        let (sw_topk, sw_stats) =
            join_on(LocalJoinBackend::Sweep, &q, &plan, 12, &combos, &indices, &data);
        let a = rt_topk.into_sorted_vec();
        let b = sw_topk.into_sorted_vec();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Scores are computed by identical fp arithmetic on the same
            // winning tuples: bitwise equality, not epsilon equality.
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{x:?} vs {y:?}");
        }
        assert!(rt_stats.index_probes > 0 && sw_stats.index_probes > 0);
        assert!(rt_stats.items_scanned >= rt_stats.candidates_visited);
        assert!(sw_stats.items_scanned >= sw_stats.candidates_visited);
        // Fixed backends index every bucket with their own structure.
        assert!(rt_stats.buckets_rtree > 0 && rt_stats.buckets_sweep == 0);
        assert!(sw_stats.buckets_sweep > 0 && sw_stats.buckets_rtree == 0);
        assert_eq!(rt_stats.buckets_rtree, sw_stats.buckets_sweep, "same shipped buckets");
        // The perf property this backend exists for: the sweep store
        // examines at most the R-tree's items for the same join (it scans
        // the tighter of the two endpoint runs; the R-tree scans every
        // leaf its traversal touches).
        assert!(
            sw_stats.items_scanned <= rt_stats.items_scanned,
            "sweep must not out-scan the R-tree: {} vs {}",
            sw_stats.items_scanned,
            rt_stats.items_scanned
        );
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
    fn auto_matches_fixed_backends_and_records_choices() {
        let collections = random_collections(41, 3, 60, 300);
        let q = table1::q_om(PredicateParams::P1);
        let (combos, indices, data) = full_setup(&q, &collections, 6);
        let plan = q.plan();
        let (auto_topk, auto_stats) =
            join_on(LocalJoinBackend::Auto, &q, &plan, 10, &combos, &indices, &data);
        let (sw_topk, _) =
            join_on(LocalJoinBackend::Sweep, &q, &plan, 10, &combos, &indices, &data);
        // Bitwise-identical score multiset vs a fixed backend.
        let a = auto_topk.into_sorted_vec();
        let b = sw_topk.into_sorted_vec();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // Every shipped bucket got exactly one choice, and the recorded
        // split equals what the selector says about each bucket's slice.
        assert_eq!(
            auto_stats.buckets_rtree + auto_stats.buckets_sweep,
            data.len() as u64,
            "one backend choice per shipped bucket"
        );
        let expect_sweep = data
            .values()
            .filter(|ivs| {
                select_backend(&BucketProfile::from_intervals(ivs)) == LocalJoinBackend::Sweep
            })
            .count() as u64;
        assert_eq!(auto_stats.buckets_sweep, expect_sweep, "choices match the selector");
    }

    type ShardedRun = (Vec<MatchTuple>, LocalJoinStats);

    /// Runs the sharded join end-to-end on a full (unpruned) setup.
    fn run_sharded(
        backend: LocalJoinBackend,
        intra: IntraJoin,
        query: &Query,
        collections: &[IntervalCollection],
        k: usize,
        g: u32,
    ) -> ShardedRun {
        let (combos, indices, data) = full_setup(query, collections, g);
        let plan = query.plan();
        let (topk, stats) = local_topk_join_planned(
            backend,
            SweepScanKind::default(),
            query,
            &plan,
            k,
            &combos,
            &indices,
            &data,
            None,
            None,
            intra,
            None,
        );
        (topk.into_sorted_vec(), stats)
    }

    #[test]
    fn sharded_join_is_thread_invariant_and_exact_for_any_chunk_size() {
        let collections = random_collections(61, 3, 48, 300);
        let q = table1::q_om(PredicateParams::P1);
        let refs: Vec<&IntervalCollection> =
            q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_topk(&q, &refs, 9);
        for (name, backend) in LocalJoinBackend::all() {
            for chunk_items in [1usize, 2, 5, 16, 64, 10_000] {
                let intra = IntraJoin { chunk_items, ..IntraJoin::default() };
                let (seq_results, seq_stats) = run_sharded(backend, intra, &q, &collections, 9, 6);
                // Exact score multiset vs the oracle, at every chunk size
                // (incl. 1 and longer than every candidate run).
                assert_eq!(seq_results.len(), expected.len(), "{name}/chunk={chunk_items}");
                for (got, want) in seq_results.iter().zip(&expected) {
                    assert!(
                        (got.score - want.score).abs() < 1e-9,
                        "{name}/chunk={chunk_items}: {got:?} vs {want:?}"
                    );
                }
                // The thread count only executes the fixed plan: results
                // (ids included) and every work counter are bit-identical
                // to the sequential execution.
                for threads in [1usize, 2, 4] {
                    let (par_results, par_stats) = run_sharded(
                        backend,
                        IntraJoin { threads, ..intra },
                        &q,
                        &collections,
                        9,
                        6,
                    );
                    assert_eq!(seq_results.len(), par_results.len());
                    for (a, b) in seq_results.iter().zip(&par_results) {
                        assert_eq!(a.ids, b.ids, "{name}/chunk={chunk_items}/threads={threads}");
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                    // `intra_threads_used` records the execution shape
                    // (it *should* differ across thread counts); every
                    // other field must match exactly.
                    let mut normalized = par_stats.clone();
                    normalized.intra_threads_used = seq_stats.intra_threads_used;
                    assert_eq!(
                        normalized, seq_stats,
                        "{name}/chunk={chunk_items}/threads={threads}: counters diverge"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_bound_only_prunes() {
        // Disabling the shared bound is the maximally stale bound every
        // wave chunk could ever observe: the exact same score multiset
        // must come back, and no counter may shrink — the bound can only
        // remove work, never add or redirect it.
        let collections = random_collections(77, 3, 60, 250);
        let q = table1::q_om(PredicateParams::P1);
        for chunk_items in [3usize, 10, 32] {
            let on = IntraJoin { chunk_items, ..IntraJoin::default() };
            let off = IntraJoin { shared_bound: false, ..on };
            let (r_on, s_on) = run_sharded(LocalJoinBackend::Sweep, on, &q, &collections, 7, 5);
            let (r_off, s_off) = run_sharded(LocalJoinBackend::Sweep, off, &q, &collections, 7, 5);
            assert_eq!(r_on.len(), r_off.len(), "chunk={chunk_items}");
            for (a, b) in r_on.iter().zip(&r_off) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "chunk={chunk_items}");
            }
            assert!(
                s_on.items_scanned <= s_off.items_scanned,
                "chunk={chunk_items}: the bound must only prune scans: {} vs {}",
                s_on.items_scanned,
                s_off.items_scanned
            );
            assert!(s_on.index_probes <= s_off.index_probes, "chunk={chunk_items}");
            assert!(s_on.tuples_scored <= s_off.tuples_scored, "chunk={chunk_items}");
        }
    }

    #[test]
    fn waves_fire_and_record_chunking_telemetry() {
        // A single hot bucket (g = 1) much longer than the chunk size:
        // once the heap fills, the remaining chunks run as waves on the
        // configured workers.
        // k is large enough that the admission threshold stays below the
        // combination's UB (1.0) — otherwise mid-run early termination
        // correctly skips the remaining chunks before any wave fires.
        let collections = random_collections(91, 3, 200, 4000);
        let q = table1::q_om(PredicateParams::P1);
        let intra = IntraJoin { threads: 2, chunk_items: 16, shared_bound: true };
        let (results, stats) = run_sharded(LocalJoinBackend::Sweep, intra, &q, &collections, 50, 1);
        assert_eq!(results.len(), 50);
        // Nominal chunk count of the one candidate run, from the profile.
        let nominal = BucketProfile::from_intervals(collections[0].intervals()).probe_chunks(16);
        assert_eq!(nominal, 13, "200 items / 16 per chunk");
        assert!(
            stats.probe_chunks >= 2 && stats.probe_chunks <= nominal,
            "chunks evaluated within the nominal bound: {stats:?}"
        );
        assert_eq!(stats.intra_threads_used, 2, "waves ran on the configured workers: {stats:?}");
        // Sequential execution of the identical plan: same counters,
        // but no wave ever ran on extra workers.
        let (_, seq) = run_sharded(
            LocalJoinBackend::Sweep,
            IntraJoin { threads: 0, ..intra },
            &q,
            &collections,
            50,
            1,
        );
        assert_eq!(seq.probe_chunks, stats.probe_chunks);
        assert_eq!(seq.items_scanned, stats.items_scanned);
        assert_eq!(seq.intra_threads_used, 0);
    }

    #[test]
    fn shard_heap_admission_is_a_valid_lower_bound() {
        let mut heap = ShardHeap { local: TopK::new(2), floor: 0.5, floor_full: true };
        assert!(heap.is_full(), "the frozen global heap was full");
        assert_eq!(heap.admission_score(), 0.5, "floor governs until the local k-th beats it");
        heap.offer(MatchTuple::new(vec![1], 0.9));
        assert_eq!(heap.admission_score(), 0.5, "local heap below k: floor still governs");
        heap.offer(MatchTuple::new(vec![2], 0.7));
        assert_eq!(heap.admission_score(), 0.7, "local k-th overtakes the floor");
        let empty = ShardHeap { local: TopK::new(2), floor: 0.0, floor_full: false };
        assert!(!empty.is_full());
        assert_eq!(empty.admission_score(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be monotone")]
    fn publish_bound_rejects_regressions() {
        let bound = AtomicU64::new(0f64.to_bits());
        publish_bound(&bound, 0.8);
        publish_bound(&bound, 0.5); // a regressing bound is a bookkeeping bug
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
