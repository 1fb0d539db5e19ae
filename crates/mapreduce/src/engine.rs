//! The Map-Reduce execution engine.
//!
//! One job = per-split mappers emitting `(K, V)` records through a
//! map-side [`Emitter`] (which partitions immediately, like Hadoop's
//! map-side partitioner), a shuffle stage that moves and counts each
//! partition's values through a [`ShuffleTransport`], and one reduce
//! task per partition, which receives the values in (map task,
//! emission) order. Outputs are concatenated in partition order, making
//! the job deterministic for any thread count — and for either
//! transport: the serialized spill path reproduces the in-memory
//! gather's partitions bit for bit.

use crate::cluster::ClusterConfig;
use crate::metrics::JobMetrics;
use crate::shuffle::{
    InMemoryTransport, Record, SerializedTransport, ShuffleError, ShuffleMode, ShuffleOutput,
    ShuffleTransport, TaskSink,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Map-side collector: routes each emitted record to its partition's
/// sink. The sink is held as a trait object so one mapper closure
/// serves every [`ShuffleTransport`].
pub struct Emitter<'p, K, V> {
    partitioner: &'p (dyn Fn(&K) -> usize + Sync),
    sink: &'p mut dyn TaskSink<K, V>,
    num_partitions: usize,
}

impl<'p, K, V> Emitter<'p, K, V> {
    fn new(
        num_partitions: usize,
        partitioner: &'p (dyn Fn(&K) -> usize + Sync),
        sink: &'p mut dyn TaskSink<K, V>,
    ) -> Self {
        Emitter { partitioner, sink, num_partitions }
    }

    /// Emits one record; the partitioner must return an index `<`
    /// the configured number of partitions.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when the partitioner strays out
    /// of range — in release builds too: a mis-partitioned record would
    /// otherwise surface as a bare slice-index panic far from the
    /// offending partitioner.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        let p = (self.partitioner)(&key);
        assert!(
            p < self.num_partitions,
            "partitioner returned partition {p} for a job with {} partitions",
            self.num_partitions
        );
        self.sink.accept(p, key, value);
    }
}

/// Runs tasks `0..n` and returns their results in task order. With
/// `threads ≥ 2` (and more than one task), `min(threads, n)` scoped
/// workers claim task indices from one shared cursor; otherwise the
/// tasks run sequentially on the caller. Which worker ran a task never
/// reaches the returned vector. A panicking task re-panics on the caller
/// with its own payload (the first panicking worker's, in worker order).
pub fn run_tasks<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed ordering suffices: the cursor only hands
                        // out task indices exactly once (fetch_add is
                        // atomic at any ordering); each task's output lands
                        // in its own slot, so claim order can never reach
                        // results or counters.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => done.into_iter().for_each(|(i, out)| slots[i] = Some(out)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every task ran")).collect()
}

/// Executes one Map-Reduce job with the transport selected by
/// `cfg.shuffle`.
///
/// * `inputs` are split into `num_map_tasks` contiguous chunks; `mapper`
///   is called once per chunk (stateful per-split mapping, which is what
///   TKIJ's statistics job needs to build local matrices).
/// * `partitioner` routes keys to `num_partitions` reduce partitions;
///   the key does nothing else.
/// * `reducer` receives its partition index and every value routed
///   there, in map-task order and within a task in emission order, and
///   every partition is reduced (possibly empty).
///
/// Returns the concatenated reducer outputs (partition order) and the
/// job's [`JobMetrics`].
///
/// # Panics
///
/// Panics if the serialized transport fails (spill-store I/O or a
/// corrupted segment); use [`try_run_map_reduce`] to handle those as
/// structured [`ShuffleError`]s. The in-memory default cannot fail.
#[allow(
    clippy::too_many_arguments,
    reason = "a job is its inputs, two task counts, three closures and the cluster config"
)]
pub fn run_map_reduce<I, K, V, R, M, P, F>(
    inputs: &[I],
    num_map_tasks: usize,
    num_partitions: usize,
    mapper: M,
    partitioner: P,
    reducer: F,
    cfg: &ClusterConfig,
) -> (Vec<R>, JobMetrics)
where
    I: Sync,
    K: Send + Record,
    V: Send + Record,
    R: Send,
    M: Fn(usize, &[I], &mut Emitter<'_, K, V>) + Sync,
    P: Fn(&K) -> usize + Sync,
    F: Fn(usize, Vec<V>) -> Vec<R> + Sync,
{
    try_run_map_reduce(inputs, num_map_tasks, num_partitions, mapper, partitioner, reducer, cfg)
        .unwrap_or_else(|e| panic!("shuffle transport failed: {e}"))
}

/// The fallible form of [`run_map_reduce`]: serialized-transport
/// failures (spill I/O, corrupted or truncated segments, checksum
/// mismatches) surface as [`ShuffleError`] instead of panicking.
#[allow(
    clippy::too_many_arguments,
    reason = "a job is its inputs, two task counts, three closures and the cluster config"
)]
pub fn try_run_map_reduce<I, K, V, R, M, P, F>(
    inputs: &[I],
    num_map_tasks: usize,
    num_partitions: usize,
    mapper: M,
    partitioner: P,
    reducer: F,
    cfg: &ClusterConfig,
) -> Result<(Vec<R>, JobMetrics), ShuffleError>
where
    I: Sync,
    K: Send + Record,
    V: Send + Record,
    R: Send,
    M: Fn(usize, &[I], &mut Emitter<'_, K, V>) + Sync,
    P: Fn(&K) -> usize + Sync,
    F: Fn(usize, Vec<V>) -> Vec<R> + Sync,
{
    match cfg.shuffle {
        ShuffleMode::InMemory => run_map_reduce_with(
            &InMemoryTransport,
            inputs,
            num_map_tasks,
            num_partitions,
            mapper,
            partitioner,
            reducer,
            cfg,
        ),
        ShuffleMode::Serialized { spill_threshold_bytes, sink } => {
            let transport = SerializedTransport::new(spill_threshold_bytes, sink)?;
            run_map_reduce_with(
                &transport,
                inputs,
                num_map_tasks,
                num_partitions,
                mapper,
                partitioner,
                reducer,
                cfg,
            )
        }
    }
}

/// Executes one Map-Reduce job through an explicit [`ShuffleTransport`]
/// — the injection point the spill batteries and custom transports use;
/// [`run_map_reduce`] is this with the transport picked from
/// `cfg.shuffle`.
#[allow(clippy::too_many_arguments, reason = "run_map_reduce's arguments plus the transport")]
pub fn run_map_reduce_with<I, K, V, R, M, P, F, T>(
    transport: &T,
    inputs: &[I],
    num_map_tasks: usize,
    num_partitions: usize,
    mapper: M,
    partitioner: P,
    reducer: F,
    cfg: &ClusterConfig,
) -> Result<(Vec<R>, JobMetrics), ShuffleError>
where
    I: Sync,
    K: Send,
    V: Send,
    R: Send,
    M: Fn(usize, &[I], &mut Emitter<'_, K, V>) + Sync,
    P: Fn(&K) -> usize + Sync,
    F: Fn(usize, Vec<V>) -> Vec<R> + Sync,
    T: ShuffleTransport<K, V>,
{
    #[allow(clippy::disallowed_methods, reason = "feeds only JobMetrics::wall, a timing field")]
    let job_start = Instant::now();
    let num_map_tasks = num_map_tasks.clamp(1, inputs.len().max(1));
    let chunk = inputs.len().div_ceil(num_map_tasks).max(1);

    // ---- Map wave -------------------------------------------------------
    let map_results: Vec<(Duration, T::Sink)> = run_tasks(num_map_tasks, cfg.worker_threads, |t| {
        let lo = (t * chunk).min(inputs.len());
        let hi = ((t + 1) * chunk).min(inputs.len());
        let mut sink = transport.task_sink(t, num_partitions);
        let mut em = Emitter::new(num_partitions, &partitioner, &mut sink);
        #[allow(
            clippy::disallowed_methods,
            reason = "feeds only JobMetrics::map_durations, timing fields"
        )]
        let started = Instant::now();
        mapper(t, &inputs[lo..hi], &mut em);
        (started.elapsed(), sink)
    });

    let mut map_durations = Vec::with_capacity(num_map_tasks);
    let mut sinks = Vec::with_capacity(num_map_tasks);
    for (d, sink) in map_results {
        map_durations.push(d);
        sinks.push(sink);
    }

    // ---- Shuffle: transport-specific move and account -------------------
    let ShuffleOutput { partitions, shuffle_records, shuffle_bytes, stats, .. } =
        transport.gather(sinks, num_partitions)?;

    // ---- Reduce wave ----------------------------------------------------
    // Each partition's values, consumed exactly once by its task.
    let slots: Vec<Mutex<Option<Vec<V>>>> =
        partitions.into_iter().map(|values| Mutex::new(Some(values))).collect();
    let reduce_results: Vec<(Duration, Vec<R>)> =
        run_tasks(num_partitions, cfg.worker_threads, |p| {
            let values = slots[p].lock().take().expect("partition reduced once");
            #[allow(
                clippy::disallowed_methods,
                reason = "feeds only JobMetrics::reduce_durations, timing fields"
            )]
            let started = Instant::now();
            let out = reducer(p, values);
            (started.elapsed(), out)
        });

    let mut reduce_durations = Vec::with_capacity(num_partitions);
    let mut outputs = Vec::new();
    for (d, out) in reduce_results {
        reduce_durations.push(d);
        outputs.extend(out);
    }

    let metrics = JobMetrics {
        map_durations,
        reduce_durations,
        shuffle_records,
        shuffle_bytes,
        shuffle: stats,
        wall: job_start.elapsed(),
    };
    Ok((outputs, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{MemorySink, ShuffleStats, SpillSinkKind};
    use std::collections::BTreeMap;

    /// Word-count over small documents of one-letter words, routed by
    /// the letter's byte: the canonical smoke test. Each reducer counts
    /// the letters it receives, several per partition.
    fn word_count(threads: usize) -> (Vec<(u64, u64)>, JobMetrics) {
        word_count_mode(threads, ShuffleMode::InMemory)
    }

    fn word_count_mode(threads: usize, shuffle: ShuffleMode) -> (Vec<(u64, u64)>, JobMetrics) {
        let docs =
            vec!["a b a".to_string(), "b c".to_string(), "a c c".to_string(), "d".to_string()];
        let cfg = ClusterConfig { worker_threads: threads, shuffle, ..Default::default() };
        run_map_reduce(
            &docs,
            2,
            3,
            |_, chunk, em| {
                for doc in chunk {
                    for w in doc.split_whitespace() {
                        let letter = w.as_bytes()[0] as u64;
                        em.emit(letter, letter);
                    }
                }
            },
            |k| *k as usize % 3,
            |_, letters| {
                let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
                for letter in letters {
                    *counts.entry(letter).or_default() += 1;
                }
                counts.into_iter().collect()
            },
            &cfg,
        )
    }

    #[test]
    fn word_count_is_correct() {
        let (mut out, metrics) = word_count(0);
        out.sort();
        let counts = [(b'a', 3), (b'b', 2), (b'c', 3), (b'd', 1)];
        assert_eq!(out, counts.map(|(w, n)| (w as u64, n)));
        assert_eq!(metrics.total_shuffle_records(), 9, "one record per word");
        assert_eq!(metrics.map_durations.len(), 2);
        assert_eq!(metrics.reduce_durations.len(), 3);
    }

    #[test]
    fn outputs_independent_of_thread_count() {
        let (seq, _) = word_count(0);
        let (par, _) = word_count(4);
        assert_eq!(seq, par, "parallel execution must not reorder output");
    }

    /// The serialized transport is a drop-in: same outputs, same
    /// record/byte accounting as the in-memory default — at any spill
    /// threshold, any thread count, and through the temp-dir store too.
    #[test]
    fn serialized_shuffle_matches_in_memory_word_count() {
        let (reference, ref_metrics) = word_count(0);
        for threshold in [0u64, 8, u64::MAX] {
            for threads in [0usize, 4] {
                let mode = ShuffleMode::Serialized {
                    spill_threshold_bytes: threshold,
                    sink: SpillSinkKind::Memory,
                };
                let (out, metrics) = word_count_mode(threads, mode);
                assert_eq!(out, reference, "threshold {threshold}, threads {threads}");
                assert_eq!(metrics.shuffle_records, ref_metrics.shuffle_records);
                assert_eq!(metrics.shuffle_bytes, ref_metrics.shuffle_bytes);
                assert_eq!(metrics.shuffle.records_spilled, 9, "every record spills");
                assert!(metrics.shuffle.spill_segments > 0);
                assert!(metrics.shuffle.spill_bytes > 0);
            }
        }
        // The in-memory transport reports no spill activity at all.
        assert_eq!(ref_metrics.shuffle, ShuffleStats::default());
        // Threshold and thread count never move the record count or the
        // checksum, only the segmentation.
        let spill = |threshold, threads| {
            word_count_mode(
                threads,
                ShuffleMode::Serialized {
                    spill_threshold_bytes: threshold,
                    sink: SpillSinkKind::Memory,
                },
            )
            .1
            .shuffle
        };
        let base = spill(0, 0);
        for (threshold, threads) in [(0u64, 4usize), (8, 0), (8, 4), (u64::MAX, 4)] {
            let s = spill(threshold, threads);
            assert_eq!(s.checksum, base.checksum);
            assert_eq!(s.records_spilled, base.records_spilled);
        }
        let (dir_out, dir_metrics) = word_count_mode(
            2,
            ShuffleMode::Serialized { spill_threshold_bytes: 8, sink: SpillSinkKind::TempDir },
        );
        assert_eq!(dir_out, reference);
        assert_eq!(dir_metrics.shuffle, spill(8, 0), "temp-dir store spills identically");
    }

    /// The order contract: each reducer receives exactly the values
    /// routed to it, in map-task order and within a task in emission
    /// order — never sorted by key — on every transport, spill
    /// threshold, segment store and thread count. Keys repeat and
    /// interleave, and each partition holds several of them.
    #[test]
    fn reducer_values_arrive_in_emission_order() {
        let keys: Vec<u64> = (0..40u64).map(|i| (i * 7 + 3) % 13).collect();
        let parts = 3;
        // The mapper emits each input's index, so (map task, emission)
        // order is index order: tasks take contiguous chunks in order.
        let mut expected: Vec<(usize, Vec<u64>)> = (0..parts).map(|p| (p, Vec::new())).collect();
        for (i, &k) in keys.iter().enumerate() {
            expected[k as usize % parts].1.push(i as u64);
        }
        let inputs: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        let mut modes = vec![ShuffleMode::InMemory];
        for sink in [SpillSinkKind::Memory, SpillSinkKind::TempDir] {
            for spill_threshold_bytes in [0u64, 8, u64::MAX] {
                modes.push(ShuffleMode::Serialized { spill_threshold_bytes, sink });
            }
        }
        for shuffle in modes {
            for worker_threads in [0usize, 2] {
                let cfg = ClusterConfig { worker_threads, shuffle, ..Default::default() };
                let (out, _) = run_map_reduce(
                    &inputs,
                    3,
                    parts,
                    |_, chunk, em| chunk.iter().for_each(|&(k, i)| em.emit(k, i)),
                    |k| *k as usize % parts,
                    |p, values| vec![(p, values)],
                    &cfg,
                );
                assert_eq!(out, expected, "{shuffle:?}, {worker_threads} threads");
            }
        }
    }

    #[test]
    fn empty_partitions_still_reduce() {
        let data = vec![1u64];
        // Relaxed ordering throughout: the counter is only read after
        // the job (and its thread joins) completed.
        let calls = AtomicUsize::new(0);
        let (_, metrics) = run_map_reduce(
            &data,
            1,
            4,
            |_, chunk, em| {
                for &x in chunk {
                    em.emit(x, 0u8);
                }
            },
            |_| 0,
            |_, _values| {
                calls.fetch_add(1, Ordering::Relaxed);
                Vec::<()>::new()
            },
            &ClusterConfig::default(),
        );
        // Relaxed ordering: reading after every worker joined.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.shuffle_records, vec![1, 0, 0, 0]);
    }

    #[test]
    fn shuffle_bytes_use_sizeof() {
        let data = vec![7u64, 8u64];
        let (_, metrics) = run_map_reduce(
            &data,
            1,
            2,
            |_, chunk, em| {
                for &x in chunk {
                    em.emit(x, x as u32);
                }
            },
            |k| (*k % 2) as usize,
            |_, values| values,
            &ClusterConfig::default(),
        );
        // Each record: u64 key (8) + u32 value (4) = 12 bytes.
        assert_eq!(metrics.shuffle_bytes, vec![12, 12]);
        assert_eq!(metrics.total_shuffle_bytes(), 24);
    }

    #[test]
    fn more_map_tasks_than_inputs_is_fine() {
        let data = vec![1u64, 2];
        let (out, metrics) = run_map_reduce(
            &data,
            10,
            1,
            |_, chunk, em| {
                for &x in chunk {
                    em.emit(0u64, x);
                }
            },
            |_| 0,
            |_, values| values,
            &ClusterConfig::default(),
        );
        assert_eq!(out, vec![1, 2]);
        assert!(metrics.map_durations.len() <= 2);
    }

    /// Randomized end-to-end: per-key sums computed by the engine's
    /// reducers equal a direct map aggregation, for arbitrary data, split
    /// counts, partition counts, thread counts and shuffle transports.
    #[test]
    fn randomized_aggregation_equivalence() {
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..30 {
            let n = (next() % 200) as usize;
            let data: Vec<(u64, u64)> = (0..n).map(|_| (next() % 17, next() % 1000)).collect();
            let splits = (next() % 8 + 1) as usize;
            let parts = (next() % 5 + 1) as usize;
            let threads = (next() % 4) as usize;
            let shuffle = match round % 3 {
                0 => ShuffleMode::InMemory,
                1 => ShuffleMode::Serialized {
                    spill_threshold_bytes: next() % 128,
                    sink: SpillSinkKind::Memory,
                },
                _ => ShuffleMode::Serialized {
                    spill_threshold_bytes: u64::MAX,
                    sink: SpillSinkKind::Memory,
                },
            };
            let cfg = ClusterConfig { worker_threads: threads, shuffle, ..Default::default() };
            let (mut got, metrics) = run_map_reduce(
                &data,
                splits,
                parts,
                |_, chunk, em| {
                    for &(k, v) in chunk {
                        // The value carries its key: the reducer sums
                        // per key for itself.
                        em.emit(k, k << 32 | v);
                    }
                },
                |k| (*k as usize) % parts,
                |_, values| {
                    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
                    for kv in values {
                        *sums.entry(kv >> 32).or_default() += kv & 0xFFFF_FFFF;
                    }
                    sums.into_iter().collect::<Vec<_>>()
                },
                &cfg,
            );
            got.sort_unstable();
            let mut want: BTreeMap<u64, u64> = BTreeMap::new();
            for &(k, v) in &data {
                *want.entry(k).or_default() += v;
            }
            let want: Vec<(u64, u64)> = want.into_iter().collect();
            assert_eq!(got, want);
            assert_eq!(metrics.total_shuffle_records() as usize, data.len());
            assert_eq!(metrics.shuffle_records.len(), parts);
        }
    }

    #[test]
    #[should_panic(expected = "partitioner returned partition 3 for a job with 2 partitions")]
    fn emitter_rejects_out_of_range_partitions() {
        let part = |k: &u64| *k as usize;
        let mut sink: MemorySink<u64> = MemorySink::new(2);
        let mut em = Emitter::new(2, &part, &mut sink);
        em.emit(1, 10); // in range
        em.emit(3, 30); // out of range: must panic with a useful message
    }

    /// A worker's panic reaches the caller with its own message, as a
    /// sequential run reports it.
    #[test]
    #[should_panic(expected = "partitioner returned partition")]
    fn threaded_task_panic_keeps_its_message() {
        let cfg = ClusterConfig { worker_threads: 2, ..Default::default() };
        run_map_reduce(
            &[1u64, 2, 3, 4],
            2,
            2,
            |_, chunk, em| chunk.iter().for_each(|&x| em.emit(x, 0u8)),
            |k| *k as usize,
            |_, values| values,
            &cfg,
        );
    }
}
