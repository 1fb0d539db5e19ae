//! Layer replays through the public API, for the three numbers a phase
//! call cannot split: the solver's cost per call inside TopBuckets, the
//! index builds inside the reduce tasks, and the serialized transport's
//! accept (frame, buffer, spill) and gather (merge, decode) inside the
//! join job. Each replay repeats the engine's work on the same inputs
//! and asserts its counts equal the engine run's before a time is
//! reported.

use crate::stats::median;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tkij_core::combos::vertex_buckets;
use tkij_core::{Assignment, PreparedDataset, Tkij};
use tkij_index::SweepIndex;
use tkij_mapreduce::shuffle::{SerializedTransport, ShuffleOutput};
use tkij_mapreduce::{
    run_map_reduce_with, CodecError, FrameReader, JobMetrics, Record, ShuffleError, ShuffleMode,
    ShuffleTransport, SizeOf,
};
use tkij_solver::pair_bounds;
use tkij_temporal::bucket::BucketId;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::Query;

/// Solver calls timed per replay (a fixed stride over every call
/// TopBuckets makes).
const SOLVER_SAMPLE: usize = 2_000;

/// Times `pair_bounds` over a strided sample of exactly the bucket
/// pairs the `loose` strategy bounds, returning nanoseconds per call.
/// `solver_calls` is the engine run's count, which the enumeration must
/// reproduce.
pub fn solver_ns_per_call(
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    solver_calls: usize,
) -> f64 {
    let per_vertex = vertex_buckets(query, &dataset.matrices);
    let mut calls = Vec::new();
    for (e, edge) in query.edges.iter().enumerate() {
        for i in 0..per_vertex[edge.src].len() {
            for j in 0..per_vertex[edge.dst].len() {
                calls.push((e, i, j));
            }
        }
    }
    assert_eq!(calls.len(), solver_calls, "solver replay enumerates the engine's pair-bound calls");
    let stride = calls.len().div_ceil(SOLVER_SAMPLE).max(1);
    let sample: Vec<_> = calls.into_iter().step_by(stride).collect();
    let matrix = |v: usize| &dataset.matrices[query.vertices[v].0 as usize];
    let started = Instant::now();
    for &(e, i, j) in &sample {
        let edge = &query.edges[e];
        let left = matrix(edge.src).endpoint_box(per_vertex[edge.src].ids[i]);
        let right = matrix(edge.dst).endpoint_box(per_vertex[edge.dst].ids[j]);
        std::hint::black_box(pair_bounds(&edge.predicate, left, right, &engine.config.solver));
    }
    started.elapsed().as_nanos() as f64 / sample.len().max(1) as f64
}

/// Each collection's intervals grouped by bucket, in the canonical
/// `(start, end, id)` order the reducers sort their slices into.
fn slices_by_bucket(dataset: &PreparedDataset) -> Vec<BTreeMap<BucketId, Vec<Interval>>> {
    dataset
        .collections
        .iter()
        .zip(&dataset.matrices)
        .map(|(collection, matrix)| {
            let mut buckets: BTreeMap<BucketId, Vec<Interval>> = BTreeMap::new();
            for iv in collection.intervals() {
                buckets.entry(matrix.bucket_of(iv)).or_default().push(*iv);
            }
            for slice in buckets.values_mut() {
                slice.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
            }
            buckets
        })
        .collect()
}

/// Rebuilds every index the join's reducers build — one per shipped
/// `(vertex, bucket)` slice per receiving reducer, cloned and built as
/// `join_generic` does — and returns the summed build time (median of
/// `reps`). `builds` and `items` are the engine run's counts (indexed
/// buckets, shuffled records).
pub fn index_build(
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    assignment: &Assignment,
    builds: u64,
    items: u64,
    reps: usize,
) -> Duration {
    let by_bucket = slices_by_bucket(dataset);
    let shipped: Vec<(&Vec<Interval>, usize)> = assignment
        .bucket_map
        .iter()
        .filter_map(|(&(v, bucket), reducers)| {
            let c = query.vertices[v as usize].0 as usize;
            by_bucket[c].get(&bucket).map(|slice| (slice, reducers.len()))
        })
        .collect();
    let replay_builds: u64 = shipped.iter().map(|&(_, n)| n as u64).sum();
    let replay_items: u64 = shipped.iter().map(|&(slice, n)| (slice.len() * n) as u64).sum();
    assert_eq!(replay_builds, builds, "index replay builds the engine's indexed buckets");
    assert_eq!(replay_items, items, "index replay indexes the engine's shipped records");
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            for &(slice, receivers) in &shipped {
                for _ in 0..receivers {
                    std::hint::black_box(SweepIndex::build_with_scan(
                        slice.clone(),
                        engine.config.sweep_scan,
                    ));
                }
            }
            started.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&samples).expect("at least one repetition"))
}

/// The join's shuffle value: an interval tagged with the query vertex
/// it plays — 26 bytes, frame-compatible with the engine's own record.
struct Shipped(u16, Interval);

impl SizeOf for Shipped {
    fn size_bytes(&self) -> usize {
        2 + 24
    }
}

impl Record for Shipped {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.id.encode(out);
        self.1.start.encode(out);
        self.1.end.encode(out);
    }

    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        let v = u16::decode(reader)?;
        let (id, start, end) = (u64::decode(reader)?, i64::decode(reader)?, i64::decode(reader)?);
        Interval::new(id, start, end)
            .map(|iv| Shipped(v, iv))
            .map_err(|e| CodecError { detail: e.to_string() })
    }
}

/// A transport that forwards to the serialized transport and times its
/// gather. Accept time needs no wrapper of its own: the replay's mapper
/// does nothing but emit precomputed records, so its map-task durations
/// *are* the time spent in `TaskSink::accept`.
struct TimedGather {
    inner: SerializedTransport,
    gather: Mutex<Duration>,
}

impl ShuffleTransport<u32, Shipped> for TimedGather {
    type Sink = <SerializedTransport as ShuffleTransport<u32, Shipped>>::Sink;

    fn task_sink(&self, task: usize, num_partitions: usize) -> Self::Sink {
        self.inner.task_sink(task, num_partitions)
    }

    fn gather(
        &self,
        sinks: Vec<Self::Sink>,
        num_partitions: usize,
    ) -> Result<ShuffleOutput<u32, Shipped>, ShuffleError> {
        let started = Instant::now();
        let out = self.inner.gather(sinks, num_partitions);
        *self.gather.lock().expect("gather runs on the job's own thread") = started.elapsed();
        out
    }
}

/// Accept and gather time of the serialized transport on the join's
/// shipment.
pub struct TransportTimes {
    /// Summed `accept` time over map tasks: framing, buffering, sorting
    /// and spilling segments.
    pub accept: Duration,
    /// Reading segments back, verifying, merging and decoding.
    pub gather: Duration,
}

/// Replays the join job's shuffle — the same records to the same
/// reducers from the same map-task split — through the serialized
/// transport with a no-op reducer. `join` is the engine run's metrics;
/// records, bytes, segments, spilled bytes and checksum must all match.
pub fn transport(
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    assignment: &Assignment,
    join: &JobMetrics,
) -> Result<TransportTimes, ShuffleError> {
    let cluster = engine.job_cluster();
    let ShuffleMode::Serialized { spill_threshold_bytes, sink } = cluster.shuffle else {
        panic!("the transport replay is for serialized-shuffle workloads");
    };
    // The mapper's routing, done ahead of the clock: per input interval,
    // the (reducer, record) emissions the join's mapper would make.
    let mut emissions: Vec<(u32, u16, Interval)> = Vec::new();
    let mut inputs: Vec<Range<usize>> = Vec::new();
    for (c, collection) in dataset.collections.iter().enumerate() {
        let vertices: Vec<u16> = (0..query.vertices.len() as u16)
            .filter(|&v| query.vertices[v as usize].0 as usize == c)
            .collect();
        if vertices.is_empty() {
            continue;
        }
        for iv in collection.intervals() {
            let bucket = dataset.matrices[c].bucket_of(iv);
            let first = emissions.len();
            for &v in &vertices {
                for &r in assignment.bucket_map.get(&(v, bucket)).into_iter().flatten() {
                    emissions.push((r, v, *iv));
                }
            }
            inputs.push(first..emissions.len());
        }
    }
    let timed = TimedGather {
        inner: SerializedTransport::new(spill_threshold_bytes, sink)?,
        gather: Mutex::new(Duration::ZERO),
    };
    let (_, replay): (Vec<()>, JobMetrics) = run_map_reduce_with(
        &timed,
        &inputs,
        cluster.map_slots.max(1) * 2,
        assignment.num_reducers,
        |_, chunk, em| {
            for range in chunk {
                for &(r, v, iv) in &emissions[range.clone()] {
                    em.emit(r, Shipped(v, iv));
                }
            }
        },
        |r| *r as usize,
        |_, groups| {
            std::hint::black_box(groups);
            Vec::new()
        },
        &cluster,
    )?;
    assert_eq!(replay.shuffle_records, join.shuffle_records, "transport replay ships the records");
    assert_eq!(replay.shuffle_bytes, join.shuffle_bytes, "transport replay ships the bytes");
    assert_eq!(replay.shuffle, join.shuffle, "transport replay spills the engine's segments");
    let gather = *timed.gather.lock().expect("the job has ended");
    Ok(TransportTimes { accept: replay.map_durations.iter().sum(), gather })
}
