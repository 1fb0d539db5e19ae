//! The distributed join phase (paper Fig. 5c–d): one Map-Reduce job that
//! ships every interval to the reducers whose bucket combinations need
//! it, then runs the local top-k join on each reducer.
//!
//! "For each input interval x, a mapper computes the bucket b in which x
//! falls. Then x is communicated to all reducers r_j that received b."

use crate::combos::{BucketSlots, ComboSet};
use crate::config::{IntraJoin, LocalJoinBackend, SweepScanKind};
use crate::distribute::Assignment;
use crate::localjoin::{local_topk_join, LocalJoinStats};
use crate::stats::PreparedDataset;
use std::collections::BTreeMap;
use tkij_mapreduce::{
    run_map_reduce, ClusterConfig, CodecError, FrameReader, JobMetrics, Record, SizeOf,
};
use tkij_temporal::bucket::BucketId;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

/// The output of one reducer: its local top-k and telemetry.
#[derive(Debug, Clone)]
pub struct ReducerOutput {
    /// Reducer index.
    pub reducer: u32,
    /// Local top-k results (unsorted accumulator dump, merge-phase input).
    pub results: Vec<MatchTuple>,
    /// Local join telemetry.
    pub stats: LocalJoinStats,
}

/// Shuffle record: an interval tagged with the query vertex it plays.
struct VRec(u16, Interval);

impl SizeOf for VRec {
    fn size_bytes(&self) -> usize {
        2 + 24 // vertex tag + (id, start, end)
    }
}

impl Record for VRec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.id.encode(out);
        self.1.start.encode(out);
        self.1.end.encode(out);
    }

    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        let v = u16::decode(reader)?;
        let id = u64::decode(reader)?;
        let start = i64::decode(reader)?;
        let end = i64::decode(reader)?;
        let iv = Interval::new(id, start, end)
            .map_err(|e| CodecError { detail: format!("invalid interval in VRec: {e}") })?;
        Ok(VRec(v, iv))
    }
}

/// Runs the join phase. `combos` must be the selected `Ω_{k,S}` that
/// `assignment` distributes.
///
/// The `LocalJoinBackend`, `SweepScanKind`, filter and [`IntraJoin`]
/// arguments are ignored; they stay in the signature because the
/// repository's `benchmark/` calls it, and ROADMAP step 0(a) deletes
/// them. The filter is an `Option<Infallible>`, so only `None` can be
/// passed.
#[allow(
    clippy::too_many_arguments,
    reason = "a public entry point whose signature the benchmark calls"
)]
pub fn run_join_phase_with(
    dataset: &PreparedDataset,
    query: &Query,
    combos: &ComboSet,
    assignment: &Assignment,
    k: usize,
    cluster: &ClusterConfig,
    _backend: LocalJoinBackend,
    _scan: SweepScanKind,
    _filter: Option<std::convert::Infallible>,
    _intra: IntraJoin,
) -> (Vec<ReducerOutput>, JobMetrics) {
    run_join_phase_impl(dataset, query, combos, assignment, k, cluster)
}

/// [`run_join_phase_with`] without its ignored arguments: the join
/// phase every engine and server query runs.
pub(crate) fn run_join_phase_impl(
    dataset: &PreparedDataset,
    query: &Query,
    combos: &ComboSet,
    assignment: &Assignment,
    k: usize,
    cluster: &ClusterConfig,
) -> (Vec<ReducerOutput>, JobMetrics) {
    // Map input: the intervals of every collection some vertex reads.
    let mut used = vec![false; dataset.collections.len()];
    for cid in &query.vertices {
        used[cid.0 as usize] = true;
    }
    let mut inputs: Vec<(u32, Interval)> = Vec::new();
    for (c, coll) in dataset.collections.iter().enumerate() {
        if used[c] {
            inputs.extend(coll.intervals().iter().map(|iv| (c as u32, *iv)));
        }
    }
    // vertex lists per collection (vertices sharing a collection each get
    // their own shipment role).
    let mut vertices_of: Vec<Vec<u16>> = vec![Vec::new(); dataset.collections.len()];
    for (v, cid) in query.vertices.iter().enumerate() {
        vertices_of[cid.0 as usize].push(v as u16);
    }
    let plan = query.plan();
    // Per (vertex, bucket) slot: the reducers the mapper ships it to, and
    // its shipped-key rank, where a reducer drops a record — both without
    // walking a map (no reducers and `NOT_SHIPPED` elsewhere).
    const NOT_SHIPPED: u32 = u32::MAX;
    let slots = BucketSlots::new(query, &dataset.matrices);
    let mut rank_of_slot = vec![NOT_SHIPPED; slots.len()];
    let mut reducers_of_slot: Vec<&[u32]> = vec![&[]; slots.len()];
    for (rank, (&(v, b), reducers)) in assignment.bucket_map.iter().enumerate() {
        let slot = slots.slot(v as usize, b);
        rank_of_slot[slot] = rank as u32;
        reducers_of_slot[slot] = reducers;
    }

    run_map_reduce(
        &inputs,
        cluster.map_slots.max(1) * 2,
        assignment.num_reducers,
        |_, chunk, em| {
            for (c, iv) in chunk {
                let matrix = &dataset.matrices[*c as usize];
                let bucket = matrix.bucket_of(iv);
                for &v in &vertices_of[*c as usize] {
                    for &r in reducers_of_slot[slots.slot(v as usize, bucket)] {
                        em.emit(r, VRec(v, *iv));
                    }
                }
            }
        },
        |r| *r as usize,
        |p, records| {
            // Reassemble this reducer's (vertex, bucket) → intervals map:
            // one vector per shipped key, in key order. Slices stay in
            // arrival order — `SweepIndex::build` sorts canonically on a
            // slice's first open, so a slice no combination opens is never
            // sorted (or read).
            let mut shipped: Vec<Vec<Interval>> = vec![Vec::new(); assignment.bucket_map.len()];
            for VRec(v, iv) in records {
                let matrix = &dataset.matrices[query.vertices[v as usize].0 as usize];
                let bucket = matrix.bucket_of(&iv);
                let rank = rank_of_slot[slots.slot(v as usize, bucket)];
                debug_assert!(rank != NOT_SHIPPED, "record outside `bucket_map`'s keys");
                let slice = &mut shipped[rank as usize];
                if slice.capacity() == 0 {
                    slice.reserve_exact(matrix.count(bucket) as usize);
                }
                slice.push(iv);
            }
            let data: BTreeMap<(u16, BucketId), Vec<Interval>> = assignment
                .bucket_map
                .keys()
                .copied()
                .zip(shipped)
                .filter(|(_, slice)| !slice.is_empty())
                .collect();
            let (topk, stats) =
                local_topk_join(query, &plan, k, combos, &assignment.reducer_combos[p], data);
            vec![ReducerOutput { reducer: p as u32, results: topk.into_sorted_vec(), stats }]
        },
        cluster,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistributionPolicy, Strategy};
    use crate::distribute::distribute;
    use crate::naive::naive_topk;
    use crate::stats::collect_statistics;
    use crate::topbuckets::run_topbuckets;
    use tkij_datagen::uniform_collections;
    use tkij_solver::SolverConfig;
    use tkij_temporal::aggregate::Aggregation;
    use tkij_temporal::collection::{CollectionId, IntervalCollection};
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::predicate::TemporalPredicate;
    use tkij_temporal::query::{table1, QueryEdge};
    use tkij_temporal::result::TopK;

    /// Collection 0 joined with collection `dst` (itself at 0) on `predicate`.
    fn two_way(dst: u32, predicate: TemporalPredicate) -> Query {
        let edge = QueryEdge { src: 0, dst: 1, predicate };
        Query::new(vec![CollectionId(0), CollectionId(dst)], vec![edge], Aggregation::NormalizedSum)
            .unwrap()
    }

    /// Plans at Loose and runs the join phase; returns the merged local
    /// top-ks, the join's metrics, the assignment's shuffle estimate, and
    /// `naive_topk`'s answer.
    fn run_pipeline(
        collections: Vec<IntervalCollection>,
        query: &Query,
        k: usize,
        (g, reducers, workers): (u32, usize, usize),
        policy: DistributionPolicy,
    ) -> (Vec<MatchTuple>, JobMetrics, u64, Vec<MatchTuple>) {
        let cluster = ClusterConfig::default();
        let dataset = collect_statistics(collections, g, &cluster).unwrap();
        let solver = SolverConfig::default();
        let (selected, _) =
            run_topbuckets(query, &dataset.matrices, k as u64, Strategy::Loose, &solver, workers);
        let assignment = distribute(&selected, policy, reducers, query, &dataset.matrices);
        let (outputs, metrics) =
            run_join_phase_impl(&dataset, query, &selected, &assignment, k, &cluster);
        // Globally merge the local top-ks.
        let mut all = TopK::new(k);
        for t in outputs.into_iter().flat_map(|o| o.results) {
            all.offer(t);
        }
        let refs: Vec<&IntervalCollection> =
            query.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk(query, &refs, k);
        (all.into_sorted_vec(), metrics, assignment.estimated_shuffle_records, expected)
    }

    /// Score sequences must match exactly; ids may differ only among
    /// equal scores (ties prunable by TopBuckets).
    fn assert_same_scores(got: &[MatchTuple], expected: &[MatchTuple], what: &str) {
        assert_eq!(got.len(), expected.len(), "{what}");
        for (g, e) in got.iter().zip(expected) {
            assert!((g.score - e.score).abs() < 1e-9, "{what}: {g:?} vs {e:?}");
        }
    }

    #[test]
    fn reducers_jointly_cover_the_exact_topk() {
        let collections = uniform_collections(3, 60, 77);
        let q = table1::q_om(PredicateParams::P1);
        for policy in [DistributionPolicy::Dtb, DistributionPolicy::Lpt] {
            let (got, metrics, _, expected) =
                run_pipeline(collections.clone(), &q, 8, (6, 4, 2), policy);
            assert_same_scores(&got, &expected, &format!("{policy:?}"));
            assert_eq!(metrics.reduce_durations.len(), 4);
            assert!(metrics.total_shuffle_records() > 0);
        }
    }

    #[test]
    fn shuffle_matches_assignment_estimate() {
        let q = two_way(1, TemporalPredicate::before(PredicateParams::P2));
        let (_, metrics, estimate, _) =
            run_pipeline(uniform_collections(2, 40, 5), &q, 4, (5, 3, 1), DistributionPolicy::Dtb);
        assert_eq!(
            metrics.total_shuffle_records(),
            estimate,
            "mapper shipment must equal DTB's estimate"
        );
    }

    #[test]
    fn self_join_ships_per_vertex_roles() {
        // Both vertices read collection 0: every needed interval is
        // shipped once per vertex role.
        let q = two_way(0, TemporalPredicate::meets(PredicateParams::P1));
        let (got, _, _, expected) =
            run_pipeline(uniform_collections(1, 30, 9), &q, 5, (4, 2, 1), DistributionPolicy::Dtb);
        assert_same_scores(&got, &expected, "self-join");
    }
}
