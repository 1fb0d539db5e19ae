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
use tkij_temporal::bucket::BucketMatrix;
use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::error::TemporalError;
use tkij_temporal::granule::TimePartitioning;
use tkij_temporal::interval::Interval;

/// A dataset with collected statistics, ready for query execution.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// The collections, indexed by their `CollectionId`.
    pub collections: Vec<IntervalCollection>,
    /// One bucket matrix per collection.
    pub matrices: Vec<BucketMatrix>,
    /// Number of granules `g` the statistics were collected with.
    pub granules: u32,
    /// Metrics of the statistics-collection job.
    pub stats_metrics: JobMetrics,
}

/// Shuffle message carrying a collection's partial count matrix (value
/// side).
struct MatrixMsg(BucketMatrix);

impl SizeOf for MatrixMsg {
    fn size_bytes(&self) -> usize {
        // Exactly the frame encoding below: the 20-byte partitioning
        // header plus the row-major g × g count lane of 8-byte words.
        let g = self.0.g() as usize;
        20 + g * g * 8
    }
}

impl Record for MatrixMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        let part = self.0.partitioning();
        part.origin.encode(out);
        part.width.encode(out);
        part.count.encode(out);
        for &c in self.0.counts() {
            c.encode(out);
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
            .filter(|g2| g2.checked_mul(8) == Some(reader.remaining()))
            .ok_or_else(|| CodecError {
                detail: format!(
                    "matrix lane for g = {count} does not fit a {}-byte frame remainder",
                    reader.remaining()
                ),
            })?;
        let partitioning = TimePartitioning { origin, width, count };
        let mut counts = Vec::with_capacity(g2);
        for _ in 0..g2 {
            counts.push(u64::decode(reader)?);
        }
        Ok(MatrixMsg(BucketMatrix::from_counts(partitioning, counts)))
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

    let (matrices, metrics) = run_map_reduce(
        &inputs,
        cluster.map_slots.max(1) * 2,
        m,
        // Stateful per-split mapper: one local matrix per collection.
        |_, chunk, em| {
            let mut local: Vec<Option<BucketMatrix>> = vec![None; m];
            for (c, iv) in chunk {
                let c = *c as usize;
                local[c].get_or_insert_with(|| BucketMatrix::new(partitionings[c])).insert(iv);
            }
            for (c, partial) in local.into_iter().enumerate() {
                if let Some(counts) = partial {
                    em.emit(c as u32, MatrixMsg(counts));
                }
            }
        },
        |c| *c as usize,
        // Reducer p merges collection p's partial matrices; partitions
        // are reduced and concatenated in order, so output c is
        // collection c's matrix.
        |p, msgs| {
            let mut merged = BucketMatrix::new(partitionings[p]);
            for MatrixMsg(counts) in msgs {
                merged.merge(&counts);
            }
            vec![merged]
        },
        cluster,
    );

    Ok(PreparedDataset { collections, matrices, granules: g, stats_metrics: metrics })
}

impl PreparedDataset {
    /// Insert-style update: extends the collection and its matrix.
    ///
    /// The interval must lie inside the collection's prepared
    /// partitioning, `[origin, end()]`. Outside it, the interval would be
    /// counted in an edge bucket whose endpoint box does not contain it,
    /// and the TopBuckets bounds and the rank-join's combination bounds
    /// would no longer be sound. Such an interval is rejected with
    /// [`TemporalError::InvalidPartitioning`] and the dataset is left
    /// unchanged; re-prepare the collections to widen the range.
    pub fn insert(&mut self, collection: usize, iv: Interval) -> Result<(), TemporalError> {
        let part = self.matrices[collection].partitioning();
        if iv.start < part.origin || iv.end > part.end() {
            let range = [part.origin, part.end()];
            return Err(TemporalError::InvalidPartitioning(format!(
                "{iv:?} lies outside collection {collection}'s prepared range {range:?}"
            )));
        }
        self.matrices[collection].insert(&iv);
        self.collections[collection].push(iv);
        Ok(())
    }

    /// Delete-style update: removes by id, maintaining the matrix.
    /// Returns the removed interval, or `None` if absent (or if removal
    /// would empty the collection).
    pub fn remove(&mut self, collection: usize, id: u64) -> Option<Interval> {
        let iv = self.collections[collection].remove_id(id)?;
        self.matrices[collection].remove(&iv);
        Some(iv)
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
    fn updates_keep_matrix_consistent() {
        let c0 = coll(0, &[(0, 10), (20, 30), (55, 60)]);
        let mut prepared = collect_statistics(vec![c0], 6, &ClusterConfig::default()).unwrap();
        let added = Interval::new(77, 21, 29).unwrap();
        prepared.insert(0, added).unwrap();
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

    #[test]
    fn inserts_outside_the_prepared_range_are_rejected() {
        // [0, 60] in 6 granules of width 11: the partitioning ends at 65.
        let c0 = coll(0, &[(0, 10), (20, 30), (55, 60)]);
        let mut prepared = collect_statistics(vec![c0], 6, &ClusterConfig::default()).unwrap();
        let part = prepared.matrices[0].partitioning();
        assert_eq!((part.origin, part.end()), (0, 65));
        for (id, s, e) in [(10, -1, 5), (11, 60, 66), (12, -3, -1), (13, 66, 70)] {
            let (collections, matrices) = (prepared.collections.clone(), prepared.matrices.clone());
            let got = prepared.insert(0, Interval::new(id, s, e).unwrap());
            assert!(matches!(got, Err(TemporalError::InvalidPartitioning(_))), "[{s}, {e}]");
            assert_eq!(prepared.collections, collections, "[{s}, {e}] leaves the data unchanged");
            assert_eq!(prepared.matrices, matrices, "[{s}, {e}] leaves the counts unchanged");
        }
        // Both edges of the partitioning, past the data's own maximum.
        for (id, s, e) in [(20, 0, 0), (21, 0, 65), (22, 65, 65)] {
            prepared.insert(0, Interval::new(id, s, e).unwrap()).unwrap();
            let iv = *prepared.collections[0].intervals().last().unwrap();
            let bucket = prepared.matrices[0].bucket_of(&iv);
            assert!(prepared.matrices[0].endpoint_box(bucket).contains(&iv), "[{s}, {e}]");
        }
        assert_eq!(prepared.matrices[0].total(), 6);
    }
}
