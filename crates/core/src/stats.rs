//! Statistics collection (paper §3.2, Fig. 5a) — the offline,
//! query-independent Map-Reduce job.
//!
//! "Each mapper reads a fraction of the data and maintains a local matrix
//! per collection. Matrices are then aggregated in the reduce phase, and
//! the reducer responsible for collection `C_i` outputs a final matrix
//! `B_i`." Updates are handled as the paper prescribes — by applying the
//! same unit process to inserted/deleted intervals
//! ([`PreparedDataset::insert`] / [`PreparedDataset::remove`]).

use tkij_mapreduce::{
    run_map_reduce, ClusterConfig, CodecError, FrameReader, JobMetrics, Record, SizeOf,
};
use tkij_temporal::bucket::{BucketId, BucketMatrix};
use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::error::TemporalError;
use tkij_temporal::granule::TimePartitioning;
use tkij_temporal::interval::Interval;

/// The cardinality/density summary of one bucket — the statistic
/// per-bucket backend auto-selection keys on
/// (`tkij_core::select_backend`).
///
/// `density()` is the bucket's average concurrency: summed inclusive
/// durations over the occupied endpoint span. Profiles derived from the
/// collected statistics ([`PreparedDataset::bucket_profile`]) and from a
/// bucket's shipped interval slice ([`BucketProfile::from_intervals`])
/// are **identical** — both aggregate the exact same intervals — which
/// the test battery asserts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketProfile {
    /// `|b|`: intervals in the bucket.
    pub cardinality: u64,
    /// Σ inclusive durations `(end − start + 1)` over the bucket.
    pub duration_sum: u64,
    /// Occupied endpoint extent `max_end − min_start + 1` (0 when empty).
    pub span: u64,
}

impl BucketProfile {
    /// Computes the profile of an interval slice (e.g. one reducer
    /// bucket's shipped data).
    pub fn from_intervals(items: &[Interval]) -> Self {
        let mut p = BucketProfile::default();
        let (mut min_start, mut max_end) = (i64::MAX, i64::MIN);
        for iv in items {
            p.cardinality += 1;
            p.duration_sum += (iv.end - iv.start + 1) as u64;
            min_start = min_start.min(iv.start);
            max_end = max_end.max(iv.end);
        }
        if p.cardinality > 0 {
            p.span = (max_end - min_start + 1) as u64;
        }
        p
    }

    /// Number of fixed-size probe chunks this bucket's candidate run
    /// splits into under the sharded local join:
    /// `⌈cardinality / chunk_items⌉` (`chunk_items` clamped to ≥ 1).
    /// The sharded join's `probe_chunks` counter equals the sum of this
    /// over the runs it actually evaluated — a deficit against the
    /// nominal total witnesses per-chunk early termination, which the
    /// test battery asserts.
    pub fn probe_chunks(&self, chunk_items: usize) -> u64 {
        self.cardinality.div_ceil(chunk_items.max(1) as u64)
    }

    /// Average number of concurrent intervals over the bucket's occupied
    /// span (equals [`tkij_index::endpoint_density`] of the same items);
    /// `0.0` when empty.
    pub fn density(&self) -> f64 {
        if self.span == 0 {
            0.0
        } else {
            self.duration_sum as f64 / self.span as f64
        }
    }
}

/// Per-bucket density accumulators of one collection, collected in the
/// same Map-Reduce pass as the [`BucketMatrix`] counts: summed inclusive
/// durations plus the occupied endpoint extent, row-major like the count
/// matrix. Like the counts, the accumulators merge associatively and
/// commutatively (mapper partials → reducer), property-tested below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityMatrix {
    partitioning: TimePartitioning,
    /// Row-major `g × g` summed inclusive durations.
    durations: Vec<u64>,
    /// Row-major minimum start per bucket (`i64::MAX` when empty).
    min_start: Vec<i64>,
    /// Row-major maximum end per bucket (`i64::MIN` when empty).
    max_end: Vec<i64>,
}

impl DensityMatrix {
    /// An empty accumulator over the given partitioning.
    pub fn new(partitioning: TimePartitioning) -> Self {
        let g2 = (partitioning.g() as usize).pow(2);
        DensityMatrix {
            partitioning,
            durations: vec![0; g2],
            min_start: vec![i64::MAX; g2],
            max_end: vec![i64::MIN; g2],
        }
    }

    /// Builds the accumulator of a slice of intervals in one pass.
    pub fn build(partitioning: TimePartitioning, intervals: &[Interval]) -> Self {
        let mut m = Self::new(partitioning);
        for iv in intervals {
            m.insert(iv);
        }
        m
    }

    #[inline]
    fn slot(&self, b: BucketId) -> usize {
        b.start_g as usize * self.partitioning.g() as usize + b.end_g as usize
    }

    /// The bucket an interval falls into (same grid as the count matrix).
    #[inline]
    pub fn bucket_of(&self, iv: &Interval) -> BucketId {
        BucketId::new(self.partitioning.granule_of(iv.start), self.partitioning.granule_of(iv.end))
    }

    /// Records one interval.
    pub fn insert(&mut self, iv: &Interval) {
        let i = self.slot(self.bucket_of(iv));
        self.durations[i] += (iv.end - iv.start + 1) as u64;
        self.min_start[i] = self.min_start[i].min(iv.start);
        self.max_end[i] = self.max_end[i].max(iv.end);
    }

    /// Merges another accumulator (same partitioning): sums durations,
    /// widens extents. The reducer-side aggregation of the statistics job.
    pub fn merge(&mut self, other: &DensityMatrix) {
        assert_eq!(
            self.partitioning, other.partitioning,
            "cannot merge density accumulators over different partitionings"
        );
        for i in 0..self.durations.len() {
            self.durations[i] += other.durations[i];
            self.min_start[i] = self.min_start[i].min(other.min_start[i]);
            self.max_end[i] = self.max_end[i].max(other.max_end[i]);
        }
    }

    /// Removes one interval's contribution. The duration sum shrinks in
    /// O(1); when the interval defined its bucket's extent the caller
    /// must still [`DensityMatrix::rebuild_bucket`] — check with
    /// [`DensityMatrix::defines_extent`] first.
    pub fn remove(&mut self, iv: &Interval) {
        let i = self.slot(self.bucket_of(iv));
        self.durations[i] = self.durations[i].saturating_sub((iv.end - iv.start + 1) as u64);
    }

    /// Whether the interval sits on its bucket's recorded extent, i.e.
    /// removing it may shrink `min_start`/`max_end` and requires a
    /// rebuild.
    pub fn defines_extent(&self, iv: &Interval) -> bool {
        let i = self.slot(self.bucket_of(iv));
        iv.start == self.min_start[i] || iv.end == self.max_end[i]
    }

    /// Recomputes one bucket's accumulators from scratch (delete-style
    /// updates of extent-defining intervals: extents cannot shrink
    /// incrementally).
    pub fn rebuild_bucket<'a>(
        &mut self,
        b: BucketId,
        intervals: impl Iterator<Item = &'a Interval>,
    ) {
        let i = self.slot(b);
        self.durations[i] = 0;
        self.min_start[i] = i64::MAX;
        self.max_end[i] = i64::MIN;
        for iv in intervals {
            if self.bucket_of(iv) == b {
                self.insert(iv);
            }
        }
    }

    /// The profile of bucket `b`, given its cardinality from the count
    /// matrix. Identical to [`BucketProfile::from_intervals`] over the
    /// bucket's intervals.
    pub fn profile(&self, b: BucketId, cardinality: u64) -> BucketProfile {
        let i = self.slot(b);
        let span =
            if cardinality == 0 { 0 } else { (self.max_end[i] - self.min_start[i] + 1) as u64 };
        BucketProfile { cardinality, duration_sum: self.durations[i], span }
    }
}

/// A dataset with collected statistics, ready for query execution.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// The collections, indexed by their `CollectionId`.
    pub collections: Vec<IntervalCollection>,
    /// One bucket matrix per collection.
    pub matrices: Vec<BucketMatrix>,
    /// One density accumulator per collection (aligned with `matrices`).
    pub densities: Vec<DensityMatrix>,
    /// Number of granules `g` the statistics were collected with.
    pub granules: u32,
    /// Metrics of the statistics-collection job.
    pub stats_metrics: JobMetrics,
}

/// Shuffle message carrying a collection's partial count matrix plus its
/// density accumulators (value side).
struct MatrixMsg(BucketMatrix, DensityMatrix);

impl SizeOf for MatrixMsg {
    fn size_bytes(&self) -> usize {
        // Exactly the frame encoding below: the 20-byte partitioning
        // header plus 4 row-major g × g lanes of 8-byte words.
        let g = self.0.g() as usize;
        20 + g * g * 8 * 4
    }
}

impl Record for MatrixMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        let part = self.0.partitioning();
        debug_assert_eq!(part, self.1.partitioning, "count and density lanes share one grid");
        part.origin.encode(out);
        part.width.encode(out);
        part.count.encode(out);
        for &c in self.0.counts() {
            c.encode(out);
        }
        for &d in &self.1.durations {
            d.encode(out);
        }
        for &s in &self.1.min_start {
            s.encode(out);
        }
        for &e in &self.1.max_end {
            e.encode(out);
        }
    }

    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        let origin = i64::decode(reader)?;
        let width = i64::decode(reader)?;
        let count = u32::decode(reader)?;
        if width <= 0 || count == 0 {
            return Err(CodecError {
                detail: format!("invalid partitioning: width {width}, count {count}"),
            });
        }
        // Validate the lane footprint against the frame before allocating
        // anything sized by the (attacker-controllable) granule count.
        let g2 = (count as usize)
            .checked_mul(count as usize)
            .filter(|g2| g2.checked_mul(8 * 4) == Some(reader.remaining()))
            .ok_or_else(|| CodecError {
                detail: format!(
                    "matrix lanes for g = {count} do not fit a {}-byte frame remainder",
                    reader.remaining()
                ),
            })?;
        let partitioning = TimePartitioning { origin, width, count };
        let mut counts = Vec::with_capacity(g2);
        for _ in 0..g2 {
            counts.push(u64::decode(reader)?);
        }
        let mut density = DensityMatrix::new(partitioning);
        for slot in density.durations.iter_mut() {
            *slot = u64::decode(reader)?;
        }
        for slot in density.min_start.iter_mut() {
            *slot = i64::decode(reader)?;
        }
        for slot in density.max_end.iter_mut() {
            *slot = i64::decode(reader)?;
        }
        Ok(MatrixMsg(BucketMatrix::from_counts(partitioning, counts), density))
    }
}

/// Runs the statistics-collection job over `collections` with `g`
/// granules per collection.
///
/// Collection ids must be dense (`collections[i].id == CollectionId(i)`).
pub fn collect_statistics(
    collections: Vec<IntervalCollection>,
    g: u32,
    cluster: &ClusterConfig,
) -> Result<PreparedDataset, TemporalError> {
    if collections.is_empty() {
        return Err(TemporalError::EmptyCollection);
    }
    for (i, c) in collections.iter().enumerate() {
        if c.id.0 as usize != i {
            return Err(TemporalError::InvalidQuery(format!(
                "collection ids must be dense: index {i} holds {}",
                c.id
            )));
        }
    }
    // Granule grids are fixed per collection before counting (the paper
    // partitions each collection's time range uniformly).
    let partitionings: Vec<TimePartitioning> = collections
        .iter()
        .map(|c| {
            let (min, max) = c.time_range();
            TimePartitioning::from_range(min, max, g)
        })
        .collect::<Result<_, _>>()?;

    // Flatten the input as (collection, interval) records.
    let mut inputs: Vec<(u32, Interval)> = Vec::new();
    for c in &collections {
        inputs.extend(c.intervals().iter().map(|iv| (c.id.0, *iv)));
    }
    let m = collections.len();

    let (outputs, metrics) = run_map_reduce(
        &inputs,
        cluster.map_slots.max(1) * 2,
        m,
        // Stateful per-split mapper: one local matrix (counts + density
        // accumulators) per collection.
        |_, chunk, em| {
            let mut local: Vec<Option<(BucketMatrix, DensityMatrix)>> = vec![None; m];
            for (c, iv) in chunk {
                let c = *c as usize;
                let (counts, density) = local[c].get_or_insert_with(|| {
                    (BucketMatrix::new(partitionings[c]), DensityMatrix::new(partitionings[c]))
                });
                counts.insert(iv);
                density.insert(iv);
            }
            for (c, partial) in local.into_iter().enumerate() {
                if let Some((counts, density)) = partial {
                    em.emit(c as u32, MatrixMsg(counts, density));
                }
            }
        },
        |c| *c as usize % m,
        // Reducer for collection c merges the partial matrices.
        |p, groups| {
            let mut merged: Option<(u32, BucketMatrix, DensityMatrix)> = None;
            for (c, msgs) in groups {
                debug_assert_eq!(c as usize % m, p);
                for MatrixMsg(counts, density) in msgs {
                    match merged.as_mut() {
                        Some((_, acc, dacc)) => {
                            acc.merge(&counts);
                            dacc.merge(&density);
                        }
                        None => merged = Some((c, counts, density)),
                    }
                }
            }
            merged
                .into_iter()
                .map(|(c, counts, density)| (c, (counts, density)))
                .collect::<Vec<_>>()
        },
        cluster,
    );

    let mut collected: Vec<Option<(BucketMatrix, DensityMatrix)>> = vec![None; m];
    for (c, pair) in outputs {
        collected[c as usize] = Some(pair);
    }
    let (matrices, densities): (Vec<BucketMatrix>, Vec<DensityMatrix>) = collected
        .into_iter()
        .enumerate()
        .map(|(c, pair)| {
            pair.unwrap_or_else(|| {
                (BucketMatrix::new(partitionings[c]), DensityMatrix::new(partitionings[c]))
            })
        })
        .unzip();

    Ok(PreparedDataset { collections, matrices, densities, granules: g, stats_metrics: metrics })
}

impl PreparedDataset {
    /// Insert-style update: extends the collection, its matrix, and its
    /// density accumulators.
    pub fn insert(&mut self, collection: usize, iv: Interval) {
        self.matrices[collection].insert(&iv);
        self.densities[collection].insert(&iv);
        self.collections[collection].push(iv);
    }

    /// Delete-style update: removes by id, maintaining the matrix and the
    /// density accumulators. The common case is O(1); only when the
    /// removed interval defined its bucket's endpoint extent is that one
    /// bucket recomputed (extents cannot shrink incrementally). Returns
    /// the removed interval, or `None` if absent (or if removal would
    /// empty the collection).
    pub fn remove(&mut self, collection: usize, id: u64) -> Option<Interval> {
        let iv = self.collections[collection].remove_id(id)?;
        self.matrices[collection].remove(&iv);
        if self.densities[collection].defines_extent(&iv) {
            let bucket = self.densities[collection].bucket_of(&iv);
            self.densities[collection]
                .rebuild_bucket(bucket, self.collections[collection].intervals().iter());
        } else {
            self.densities[collection].remove(&iv);
        }
        Some(iv)
    }

    /// The cardinality/density profile of one bucket of a collection —
    /// what per-bucket backend auto-selection keys on. Identical to
    /// [`BucketProfile::from_intervals`] over the bucket's intervals.
    pub fn bucket_profile(&self, collection: usize, b: BucketId) -> BucketProfile {
        self.densities[collection].profile(b, self.matrices[collection].count(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::collection::CollectionId;

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
    fn matrices_match_direct_build() {
        let c0 = coll(0, &[(0, 10), (50, 99), (20, 30), (0, 99)]);
        let c1 = coll(1, &[(5, 6), (90, 95)]);
        let prepared =
            collect_statistics(vec![c0.clone(), c1.clone()], 10, &ClusterConfig::default())
                .unwrap();
        for (c, coll) in [&c0, &c1].iter().enumerate() {
            let (min, max) = coll.time_range();
            let part = TimePartitioning::from_range(min, max, 10).unwrap();
            let direct = BucketMatrix::build(part, coll.intervals());
            assert_eq!(prepared.matrices[c], direct, "collection {c}");
        }
        assert_eq!(prepared.granules, 10);
        assert!(prepared.stats_metrics.total_shuffle_records() >= 2);
    }

    #[test]
    fn independent_of_map_task_count() {
        let c0 = coll(0, &(0..200).map(|i| (i, i + 10)).collect::<Vec<_>>());
        let few = collect_statistics(
            vec![c0.clone()],
            8,
            &ClusterConfig { map_slots: 1, ..Default::default() },
        )
        .unwrap();
        let many =
            collect_statistics(vec![c0], 8, &ClusterConfig { map_slots: 16, ..Default::default() })
                .unwrap();
        assert_eq!(few.matrices, many.matrices);
    }

    #[test]
    fn rejects_non_dense_ids() {
        let bad = coll(5, &[(0, 1)]);
        assert!(collect_statistics(vec![bad], 4, &ClusterConfig::default()).is_err());
        assert!(collect_statistics(vec![], 4, &ClusterConfig::default()).is_err());
    }

    #[test]
    fn density_profiles_match_direct_computation() {
        let c0 = coll(0, &[(0, 10), (2, 8), (50, 99), (20, 30), (0, 99)]);
        let prepared = collect_statistics(vec![c0.clone()], 10, &ClusterConfig::default()).unwrap();
        let m = &prepared.matrices[0];
        // Every non-empty bucket's stats-job profile equals the profile
        // computed directly from the bucket's interval slice.
        for (b, count) in m.nonempty() {
            let members: Vec<Interval> =
                c0.intervals().iter().filter(|iv| m.bucket_of(iv) == b).copied().collect();
            assert_eq!(members.len() as u64, count);
            let direct = BucketProfile::from_intervals(&members);
            let from_stats = prepared.bucket_profile(0, b);
            assert_eq!(from_stats, direct, "bucket {b:?}");
            assert_eq!(from_stats.density().to_bits(), direct.density().to_bits());
            // ... and equals the access-path crate's canonical density.
            assert_eq!(
                from_stats.density().to_bits(),
                tkij_index::endpoint_density(&members).to_bits(),
                "bucket {b:?}"
            );
        }
        // Empty buckets profile as empty.
        let empty = prepared.bucket_profile(0, tkij_temporal::bucket::BucketId::new(3, 2));
        assert_eq!(empty, BucketProfile::default());
        assert_eq!(empty.density(), 0.0);
    }

    #[test]
    fn density_merge_is_split_independent() {
        let c0 = coll(0, &(0..150).map(|i| (i, i + 7)).collect::<Vec<_>>());
        let few = collect_statistics(
            vec![c0.clone()],
            8,
            &ClusterConfig { map_slots: 1, ..Default::default() },
        )
        .unwrap();
        let many =
            collect_statistics(vec![c0], 8, &ClusterConfig { map_slots: 16, ..Default::default() })
                .unwrap();
        assert_eq!(few.densities, many.densities, "density accumulation is split-independent");
    }

    #[test]
    fn updates_keep_density_consistent() {
        let c0 = coll(0, &[(0, 10), (20, 30), (55, 60)]);
        let mut prepared = collect_statistics(vec![c0], 6, &ClusterConfig::default()).unwrap();
        let added = Interval::new(77, 21, 29).unwrap();
        prepared.insert(0, added);
        let rebuilt = DensityMatrix::build(
            prepared.matrices[0].partitioning(),
            prepared.collections[0].intervals(),
        );
        assert_eq!(prepared.densities[0], rebuilt, "insert matches rebuild");
        // Interior interval: the O(1) remove path (extents untouched).
        assert!(!prepared.densities[0].defines_extent(&added));
        prepared.remove(0, 77).unwrap();
        let rebuilt = DensityMatrix::build(
            prepared.matrices[0].partitioning(),
            prepared.collections[0].intervals(),
        );
        assert_eq!(prepared.densities[0], rebuilt, "O(1) remove matches rebuild");
        // Extent-defining interval: forces the rebuild path.
        let edge = *prepared.collections[0].intervals().iter().find(|iv| iv.id == 1).unwrap();
        assert!(prepared.densities[0].defines_extent(&edge));
        prepared.remove(0, 1).unwrap();
        let rebuilt = DensityMatrix::build(
            prepared.matrices[0].partitioning(),
            prepared.collections[0].intervals(),
        );
        assert_eq!(prepared.densities[0], rebuilt, "extent remove matches rebuild");
    }

    #[test]
    fn updates_keep_matrix_consistent() {
        let c0 = coll(0, &[(0, 10), (20, 30), (55, 60)]);
        let mut prepared = collect_statistics(vec![c0], 6, &ClusterConfig::default()).unwrap();
        let added = Interval::new(77, 21, 29).unwrap();
        prepared.insert(0, added);
        assert_eq!(prepared.matrices[0].total(), 4);
        let rebuilt = BucketMatrix::build(
            prepared.matrices[0].partitioning(),
            prepared.collections[0].intervals(),
        );
        assert_eq!(prepared.matrices[0], rebuilt, "insert matches rebuild");

        let removed = prepared.remove(0, 77).unwrap();
        assert_eq!(removed, added);
        let rebuilt = BucketMatrix::build(
            prepared.matrices[0].partitioning(),
            prepared.collections[0].intervals(),
        );
        assert_eq!(prepared.matrices[0], rebuilt, "remove matches rebuild");
        assert!(prepared.remove(0, 999).is_none());
    }
}
