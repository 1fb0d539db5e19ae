//! The differential oracle: one harness for the engine's exactness
//! guarantee and its determinism, over generated cases.
//!
//! Every case is generated from one `u64` seed under a [`Family`]: the
//! dimension a test pins (the data, a Table 1 parameter set, a random
//! query shape, or `k` at the result count), with everything else drawn
//! from the seed. A failing case prints one line, `replay: (family,
//! seed)`; paste that pair into `replayed_cases` to rerun the case on
//! its own.
//!
//! **The contract.** The engine fixes the *score multiset* of the top-k,
//! not which of several tied tuples fill it (TopBuckets and the
//! rank-join prune work that can only tie the k-th score). So, for each
//! case:
//! - the reference run (Loose, DTB, static pruning on, in-memory
//!   shuffle, tasks run sequentially, [`Tkij::execute`]) returns as many
//!   tuples as [`naive_topk`], with the same scores bit for bit, rank by
//!   rank;
//! - every returned tuple is genuine (its ids name intervals of the
//!   query's collections, and [`Query::score_tuple`] on them gives the
//!   reported score bit for bit) and no tuple is returned twice;
//! - a deterministically sampled lattice reruns the case. A strategy
//!   other than Loose, LPT, pruning off, other TopBuckets worker counts
//!   and other reducer counts change the plan, so only the score bits
//!   must match. The serialized shuffle, the spill-threshold knob, two
//!   worker threads, `plan_query` + `execute_planned`, a served query
//!   (cold, then a plan-cache hit) and a repeat change only how the plan
//!   runs, so the [`Fingerprint`] must match bit for bit, the
//!   transport-describing `*.shuffle.*` spill lanes dropped.
//!
//! **What is not generated.** An empty collection cannot be built:
//! `IntervalCollection::new` rejects it, and `remove_id` refuses to
//! remove a collection's last interval. A non-finite endpoint cannot be
//! represented: timestamps are `i64`. Their finite extremes are
//! generated instead ([`Data::Extreme`]): nanosecond epochs, where an
//! `f64` no longer holds every timestamp, and collections at both ends
//! of `i64`, whose endpoint differences overflow it. Cases stay small by
//! construction (the naive oracle enumerates every tuple), so no
//! shrinker is needed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::mapreduce::{ShuffleMode, ShuffleStats, SpillSinkKind};
use tkij::prelude::*;
use tkij::temporal::bucket::BucketMatrix;

/// Where a case's intervals come from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Data {
    /// Uniform starts and lengths, dense or sparse.
    Uniform,
    /// One granule cell holding most intervals, plus a far outlier
    /// cluster.
    Clustered,
    /// A prefix of the simulated network traffic, copied as three
    /// collections (the paper's self-join).
    Traffic,
    /// Every interval of every collection is the same: every score ties.
    Duplicates,
    /// Points: `start == end` throughout.
    ZeroLength,
    /// Uniform data, then inserts inside, at the edges of and outside
    /// the prepared range, and removes.
    Updated,
    /// Two uniform collections, so every query of 3 or more vertices is
    /// a self-join.
    TwoCollections,
    /// Uniform data at extreme timestamps: shifted to nanosecond epochs
    /// (~1.7·10¹⁸, where one `f64` ulp is 256), or with the collections
    /// alternating between −9.2·10¹⁸ and +9.2·10¹⁸, so that endpoint
    /// differences across collections leave `i64`. Each collection's
    /// prepared range stays one `TimePartitioning::from_range` accepts.
    Extreme,
}

/// The data families the other families draw from; the first six hold
/// three collections. [`Data::Extreme`] runs under its own test only.
const DATA: [Data; 7] = [
    Data::Uniform,
    Data::Clustered,
    Data::Traffic,
    Data::Duplicates,
    Data::ZeroLength,
    Data::Updated,
    Data::TwoCollections,
];

/// The lattice's strategies, rotated every six seeds.
const STRATEGIES: [Strategy; 3] = [Strategy::Loose, Strategy::BruteForce, Strategy::TwoPhase];

/// A random query graph's shape.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Chain,
    Star,
    Cycle,
}

/// The dimension a test pins; the seed draws the others.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// The data generator.
    Data(Data),
    /// `table1::all` at `PredicateParams::table2()[i]`; seed `s` runs
    /// the `s % 13`-th query.
    Table1(usize),
    /// A random 2–4-vertex query of this shape.
    Shape(Shape),
    /// `k` exactly the result count, or beyond it (up to `usize::MAX`).
    ResultCount,
}

/// A lattice axis, run against the case's base run (the reference, or
/// the same configuration under another TopBuckets strategy).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Axis {
    // The plan changes: only the score bits must match.
    Lpt,
    NoPruning,
    Reducers(usize),
    // Only the execution changes: the fingerprint must match.
    SerializedShuffle,
    SpillThreshold,
    TwoThreads,
    Planned,
    Served,
    Repeat,
}

/// The lattice; the reference runs at 1–6 reducers.
const AXES: [Axis; 10] = [
    Axis::Lpt,
    Axis::NoPruning,
    Axis::Reducers(1),
    Axis::Reducers(9),
    Axis::SerializedShuffle,
    Axis::SpillThreshold,
    Axis::TwoThreads,
    Axis::Planned,
    Axis::Served,
    Axis::Repeat,
];

/// The serialized transport at its most hostile flush schedule: one
/// spill segment per record.
const SPILL: ShuffleMode =
    ShuffleMode::Serialized { spill_threshold_bytes: 0, sink: SpillSinkKind::Memory };

/// Prints the case's replay line if it panics.
struct Replay(String);

impl Drop for Replay {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("replay: {}", self.0);
        }
    }
}

/// One generated case, ready to run.
struct Case {
    /// `(family, seed)` plus a readable summary, for failure messages.
    name: String,
    /// The collections as prepared, before any update.
    initial: Vec<IntervalCollection>,
    /// Their statistics as prepared, before any update.
    initial_matrices: Vec<BucketMatrix>,
    /// The dataset the query runs on, updates applied.
    dataset: PreparedDataset,
    query: Query,
    k: usize,
    /// The reference configuration.
    config: TkijConfig,
    /// The strategy the lattice sample runs at.
    strategy: Strategy,
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Uniform collections over one span, each starting at 0 or half-way,
/// plus its collection's `offsets` entry.
fn uniform(rng: &mut StdRng, offsets: &[i64], size: usize) -> Vec<IntervalCollection> {
    let span = pick(rng, &[60, 150, 1_500, 100_000]);
    let length_range = (1, pick(rng, &[5, 100]));
    (0..offsets.len())
        .map(|c| {
            let start = offsets[c] + pick(rng, &[0, span / 2]);
            let start_range = (start, start + span);
            let cfg = SyntheticConfig { size, start_range, length_range, seed: rng.gen() };
            uniform_collection(CollectionId(c as u32), &cfg)
        })
        .collect()
}

/// `m` collections of `size` intervals each, ids `0..size`.
fn collections(data: Data, rng: &mut StdRng, m: usize, size: usize) -> Vec<IntervalCollection> {
    let build = |c: usize, f: &mut dyn FnMut(u64) -> (i64, i64)| {
        let intervals = (0..size as u64)
            .map(|id| {
                let (start, end) = f(id);
                Interval::new(id, start, end).unwrap()
            })
            .collect();
        IntervalCollection::new(CollectionId(c as u32), intervals).unwrap()
    };
    match data {
        Data::Uniform | Data::Updated | Data::TwoCollections => uniform(rng, &[0; 3][..m], size),
        Data::Extreme => {
            let offsets = if rng.gen_bool(0.5) {
                vec![1_700_000_000_000_000_000 + rng.gen_range(0..1i64 << 20); m]
            } else {
                let far = pick(rng, &[-9_200_000_000_000_000_000, 9_200_000_000_000_000_000]);
                (0..m).map(|c| if c % 2 == 0 { far } else { -far }).collect()
            };
            uniform(rng, &offsets, size)
        }
        Data::Clustered => {
            let outliers = 1 + size as u64 / 5;
            (0..m)
                .map(|c| {
                    build(c, &mut |id| {
                        let base = if id < size as u64 - outliers { 1_000 } else { 50_000 };
                        let start = base + rng.gen_range(0..8i64);
                        (start, start + rng.gen_range(0..12i64))
                    })
                })
                .collect()
        }
        Data::Traffic => {
            let cfg = TrafficConfig::calibrated(2 * size + 20, rng.gen());
            let all = traffic_collection(&cfg, 1.0, CollectionId(0));
            let prefix = all.intervals().iter().take(size).copied().collect();
            let c = IntervalCollection::new(CollectionId(0), prefix).unwrap();
            (0..m as u32).map(|i| c.copy_as(CollectionId(i))).collect()
        }
        Data::Duplicates => {
            let start = rng.gen_range(0..1_000i64);
            let end = start + rng.gen_range(0..50i64);
            (0..m).map(|c| build(c, &mut |_| (start, end))).collect()
        }
        Data::ZeroLength => {
            let span = pick(rng, &[20, 400]);
            (0..m)
                .map(|c| {
                    build(c, &mut |_| {
                        let t = rng.gen_range(0..span);
                        (t, t)
                    })
                })
                .collect()
        }
    }
}

/// A random query of `shape` over `n` vertices bound to collections
/// `0..m`: every edge draws its orientation, one of the 16 predicate
/// kinds and a Table 2 parameter set, and the query one of the three
/// aggregations.
fn random_query(rng: &mut StdRng, shape: Shape, n: usize, m: usize, avg: i64) -> Query {
    let mut pairs: Vec<(usize, usize)> = match shape {
        Shape::Chain => (1..n).map(|v| (v - 1, v)).collect(),
        Shape::Star => (1..n).map(|v| (0, v)).collect(),
        Shape::Cycle => (0..n).map(|v| (v, (v + 1) % n)).collect(),
    };
    for pair in &mut pairs {
        if rng.gen_bool(0.5) {
            *pair = (pair.1, pair.0);
        }
    }
    let edges: Vec<QueryEdge> = pairs
        .into_iter()
        .map(|(src, dst)| {
            let kind = pick(rng, &PredicateKind::all());
            let (_, params) = pick(rng, &PredicateParams::table2());
            QueryEdge { src, dst, predicate: TemporalPredicate::from_kind(kind, params, avg) }
        })
        .collect();
    let aggregation = match rng.gen_range(0..3) {
        0 => Aggregation::NormalizedSum,
        1 => Aggregation::Min,
        _ => {
            let mut weights: Vec<f64> =
                edges.iter().map(|_| pick(rng, &[0.0, 0.5, 1.0, 3.0])).collect();
            weights[0] += 1.0;
            Aggregation::WeightedSum(weights)
        }
    };
    let vertices = (0..n).map(|_| CollectionId(rng.gen_range(0..m as u32))).collect();
    Query::new(vertices, edges, aggregation).unwrap()
}

impl Case {
    fn generate(family: Family, seed: u64) -> Case {
        // Mix the family in, so families pinning different dimensions
        // draw different cases from the same seed.
        let salt = format!("{family:?}").bytes().fold(seed, |h, b| h.rotate_left(5) ^ b as u64);
        let mut rng = StdRng::seed_from_u64(salt);
        let data = match family {
            Family::Data(data) => data,
            Family::Table1(_) => pick(&mut rng, &DATA[..6]),
            _ => pick(&mut rng, &DATA),
        };
        let m = if data == Data::TwoCollections { 2 } else { 3 };
        let table1 = match family {
            Family::Table1(p) => Some((p, seed as usize % 13)),
            Family::Data(_) | Family::ResultCount if m == 3 && rng.gen_bool(0.5) => {
                Some((rng.gen_range(0..4), rng.gen_range(0..13)))
            }
            _ => None,
        };
        let shape = match family {
            Family::Shape(shape) => shape,
            _ => pick(&mut rng, &[Shape::Chain, Shape::Star, Shape::Cycle]),
        };
        let n = match (table1, shape) {
            (Some(_), _) => 3,
            (None, Shape::Cycle) => rng.gen_range(3..=4),
            (None, _) => rng.gen_range(2..=4),
        };
        // The naive oracle scores every tuple: keep `size^n` small.
        let at_result_count = matches!(family, Family::ResultCount);
        let budget: f64 = if at_result_count { 1_500.0 } else { 12_000.0 };
        let max_size = budget.powf(1.0 / n as f64) as usize;
        let size = rng.gen_range(2.max(max_size / 2)..=max_size);
        let initial = collections(data, &mut rng, m, size);
        let avg = initial[0].avg_length();
        let query = match table1 {
            Some((p, q)) => table1::all(PredicateParams::table2()[p].1, avg).swap_remove(q).1,
            None => random_query(&mut rng, shape, n, m, avg),
        };
        // The lattice's strategy. Brute force bounds every bucket
        // combination with the n-ary solver, and two-phase every selected
        // one, so their cases keep the combination count (at most
        // `min(|C|, g(g+1)/2)` buckets per vertex) smaller.
        let strategy = STRATEGIES[seed as usize / 6 % 3];
        let combinations = if strategy == Strategy::Loose { 20_000 } else { 2_000 };
        let granules: Vec<u32> = [1, 2, 3, 5, 8, 13, 21]
            .into_iter()
            .filter(|&g| (g * (g + 1) / 2).min(size as u32).pow(n as u32) <= combinations)
            .collect();
        let config = TkijConfig::default()
            .with_granules(pick(&mut rng, &granules))
            .with_reducers(rng.gen_range(1..=6));
        let mut dataset = Tkij::new(config.clone()).prepare(initial.clone()).unwrap();
        let initial_matrices = dataset.matrices.clone();
        if data == Data::Updated {
            update(&mut rng, &mut dataset);
        }
        let results: usize =
            query.vertices.iter().map(|c| dataset.collections[c.0 as usize].len()).product();
        let k = match (at_result_count, seed % 4) {
            (false, _) if rng.gen_bool(0.25) => 1,
            (false, _) => rng.gen_range(2..=20),
            (true, 0) => results,
            (true, 1) => results + rng.gen_range(1..=results),
            (true, 2) => 1 << 40,
            (true, _) => usize::MAX,
        };
        let name = format!(
            "({family:?}, {seed}): {data:?} data, |C| = {size}, {} k = {k}, g = {}, r = {}",
            query.name(),
            config.granules,
            config.reducers
        );
        Case { name, initial, initial_matrices, dataset, query, k, config, strategy }
    }

    fn run(&self, config: TkijConfig, cluster: ClusterConfig) -> ExecutionReport {
        Tkij::with_cluster(config, cluster).execute(&self.dataset, &self.query, self.k).unwrap()
    }
}

/// Applies 8–24 random updates. `insert` must reject exactly the
/// intervals outside the prepared range, leaving the dataset unchanged,
/// and the statistics must stay those of a rebuild over the prepared
/// partitioning.
fn update(rng: &mut StdRng, dataset: &mut PreparedDataset) {
    for fresh in 0..rng.gen_range(8..=24u64) {
        let c = rng.gen_range(0..dataset.collections.len());
        if rng.gen_bool(0.25) {
            let intervals = dataset.collections[c].intervals();
            let (len, id) = (intervals.len(), intervals[rng.gen_range(0..intervals.len())].id);
            assert_eq!(dataset.remove(c, id).is_some(), len > 1, "remove {id} of {len}");
            continue;
        }
        let part = dataset.matrices[c].partitioning();
        let (lo, hi) = (part.origin, part.end());
        let len = rng.gen_range(0..=30i64);
        // Just past the range, or anywhere up to one range further out.
        let reach = if rng.gen_bool(0.5) { hi - lo + 1 } else { 3 };
        let gap = rng.gen_range(1..=reach);
        let (start, end) = match rng.gen_range(0..5) {
            0 => {
                let start = rng.gen_range(lo..=hi);
                (start, hi.min(start + len))
            }
            1 => (lo, hi.min(lo + len)),
            2 => (lo.max(hi - len), hi),
            3 => (lo - gap, lo - gap + len),
            _ => (hi + gap - len, hi + gap),
        };
        let outside = start < lo || end > hi;
        let before = (dataset.collections.clone(), dataset.matrices.clone());
        let inserted = dataset.insert(c, Interval::new(1_000_000 + fresh, start, end).unwrap());
        assert_eq!(inserted.is_err(), outside, "insert [{start}, {end}] into [{lo}, {hi}]");
        if outside {
            assert!((&dataset.collections, &dataset.matrices) == (&before.0, &before.1));
        }
    }
    for (c, matrix) in dataset.matrices.iter().enumerate() {
        let rebuilt =
            BucketMatrix::build(matrix.partitioning(), dataset.collections[c].intervals());
        assert_eq!(*matrix, rebuilt, "collection {c}: updates match a rebuild");
    }
}

fn score_bits(report: &ExecutionReport) -> Vec<u64> {
    report.results.iter().map(|t| t.score.to_bits()).collect()
}

/// The fingerprint without the transport-describing spill lanes.
fn work(report: &ExecutionReport) -> Fingerprint {
    let mut fp = report.fingerprint();
    fp.counters.retain(|(name, _)| !name.contains(".shuffle."));
    fp
}

/// The reference run against `naive_topk`, and every returned tuple
/// rescored.
fn check_exact(case: &Case, reference: &ExecutionReport) {
    let name = &case.name;
    let refs: Vec<&IntervalCollection> =
        case.query.vertices.iter().map(|c| &case.dataset.collections[c.0 as usize]).collect();
    let expected = naive_topk(&case.query, &refs, case.k);
    assert_eq!(reference.results.len(), expected.len(), "{name}: cardinality");
    let want: Vec<u64> = expected.iter().map(|t| t.score.to_bits()).collect();
    assert_eq!(score_bits(reference), want, "{name}: score bits differ from naive_topk");
    let mut seen = BTreeSet::new();
    for (rank, t) in reference.results.iter().enumerate() {
        assert!(seen.insert(&t.ids), "{name}: rank {rank} repeats {:?}", t.ids);
        let tuple: Vec<Interval> = t
            .ids
            .iter()
            .zip(&refs)
            .map(|(id, c)| {
                *c.intervals()
                    .iter()
                    .find(|iv| iv.id == *id)
                    .unwrap_or_else(|| panic!("{name}: rank {rank} names unknown id {id}"))
            })
            .collect();
        assert_eq!(
            case.query.score_tuple(&tuple).to_bits(),
            t.score.to_bits(),
            "{name}: rank {rank} reports a score its intervals do not give"
        );
    }
}

/// Runs one axis against `base` (the run at `config`, the default
/// cluster).
fn check_axis(case: &Case, axis: Axis, config: &TkijConfig, base: &ExecutionReport) {
    let name = &format!("{} at {} under {axis:?}", case.name, config.strategy.name());
    let (q, k) = (&case.query, case.k);
    let cluster = ClusterConfig::default();
    let same_scores = |report: &ExecutionReport| {
        assert_eq!(score_bits(report), score_bits(base), "{name}: score bits");
    };
    let same_work = |report: &ExecutionReport| {
        assert_eq!(work(report), work(base), "{name}: fingerprint");
    };
    match axis {
        Axis::Lpt => same_scores(
            &case.run(config.clone().with_distribution(DistributionPolicy::Lpt), cluster),
        ),
        Axis::NoPruning => {
            // The ablation keeps every combination the pruned run bounded.
            // It usually ships more too, but not always: DTB's cap and
            // greedy choices depend on the whole selection, and the case
            // `(Shape(Star), 133)` ships 214 records pruned against 209
            // unpruned. So only `engine`'s fixed ablation test asserts it.
            let report = case.run(config.clone().without_pruning(), cluster);
            same_scores(&report);
            let (all, pruned) = (&report.topbuckets, &base.topbuckets);
            assert_eq!((all.selected, all.candidates), (pruned.candidates, pruned.candidates));
        }
        Axis::Reducers(r) => same_scores(&case.run(config.clone().with_reducers(r), cluster)),
        Axis::SerializedShuffle => {
            let report = case.run(config.clone(), ClusterConfig { shuffle: SPILL, ..cluster });
            same_work(&report);
            assert!(report.shuffle_stats().records_spilled > 0, "{name}: records spill");
        }
        Axis::SpillThreshold => {
            let spilled =
                Tkij::with_cluster(config.clone().with_shuffle_spill_threshold_bytes(0), cluster);
            assert_eq!(spilled.job_cluster().shuffle, SPILL, "{name}");
            let prepared = spilled.prepare(case.initial.clone()).unwrap();
            assert_eq!(prepared.matrices, case.initial_matrices, "{name}: statistics");
            assert!(prepared.stats_metrics.shuffle.records_spilled > 0, "{name}: prepare spills");
            let report = spilled.execute(&case.dataset, q, k).unwrap();
            same_work(&report);
            assert_eq!(base.shuffle_stats(), ShuffleStats::default(), "{name}: in memory");
            let stats = report.shuffle_stats();
            assert_eq!(
                stats.records_spilled,
                report.join.total_shuffle_records() + report.merge.total_shuffle_records(),
                "{name}: threshold 0 serializes every shuffled record"
            );
            assert!(stats.spill_segments > 0 && stats.spill_bytes > 0, "{name}: {stats:?}");
        }
        Axis::TwoThreads => {
            same_work(&case.run(config.clone(), ClusterConfig { worker_threads: 2, ..cluster }))
        }
        Axis::Planned => {
            let engine = Tkij::with_cluster(config.clone(), cluster);
            let plan = engine.plan_query(&case.dataset, q, k).unwrap();
            assert_eq!((&plan.query, plan.k), (q, k), "{name}: the plan keeps its shape");
            same_work(&engine.execute_planned(&case.dataset, &plan).unwrap());
        }
        Axis::Served => {
            let server = Tkij::with_cluster(config.clone(), cluster).serve(case.dataset.clone());
            same_work(&server.query(q, k).unwrap());
            same_work(&server.query(q, k).unwrap());
            let stats = server.stats();
            assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1), "{name}");
        }
        Axis::Repeat => {
            // Two workers on the serialized transport, twice: every
            // counter, spill lanes included, must repeat.
            let busy = ClusterConfig { worker_threads: 2, shuffle: SPILL, ..cluster };
            let engine = Tkij::with_cluster(config.clone(), busy);
            let first = engine.execute(&case.dataset, q, k).unwrap();
            let second = engine.execute(&case.dataset, q, k).unwrap();
            assert_eq!(first.fingerprint(), second.fingerprint(), "{name}: repeat");
            same_work(&first);
        }
    }
}

/// Generates the case, checks it against the oracle, then runs its
/// lattice sample: a strategy and two axes, rotated by the seed. Returns
/// the strategy, and whether a threaded axis ran with join work on two
/// or more reducers.
fn check(family: Family, seed: u64) -> (Strategy, bool) {
    let _replay = Replay(format!("({family:?}, {seed})"));
    let case = Case::generate(family, seed);
    let name = &case.name;
    let reference = case.run(case.config.clone(), ClusterConfig::default());
    check_exact(&case, &reference);

    let strategy = case.strategy;
    let config = case.config.clone().with_strategy(strategy);
    let base = if strategy == Strategy::Loose {
        reference
    } else {
        let base = case.run(config.clone(), ClusterConfig::default());
        assert_eq!(score_bits(&base), score_bits(&reference), "{name}: {strategy:?} scores");
        let (other, loose) = (&base.topbuckets, &reference.topbuckets);
        assert_eq!(other.candidates, loose.candidates, "{name}: {strategy:?} candidates");
        // Two-phase re-selects loose's selection after refining it. Brute
        // force may select more: the n-ary solver's bounds carry its
        // convergence gap, and can be looser than the pair bounds (see
        // `brute_force_and_two_phase_select_no_more_than_loose`).
        if strategy == Strategy::TwoPhase {
            assert!(other.selected <= loose.selected, "{name}: two-phase selects more");
        }
        base
    };
    let axes = [AXES[2 * seed as usize % AXES.len()], AXES[(2 * seed as usize + 1) % AXES.len()]];
    for axis in axes {
        check_axis(&case, axis, &config, &base);
    }
    let busy = base.local_stats.iter().filter(|s| s.combos_processed > 0).count();
    let threaded = axes.iter().any(|a| matches!(a, Axis::TwoThreads | Axis::Repeat));
    (strategy, threaded && busy >= 2)
}

/// Checks every seed; returns, per strategy of [`STRATEGIES`], how many
/// seeds ran a threaded axis on concurrent join work.
fn check_seeds(family: Family, seeds: std::ops::Range<u64>) -> [usize; 3] {
    let mut busy = [0; 3];
    for seed in seeds {
        let (strategy, concurrent) = check(family, seed);
        busy[STRATEGIES.iter().position(|&s| s == strategy).unwrap()] += concurrent as usize;
    }
    busy
}

#[test]
fn uniform_data() {
    // The worker axes must have concurrent join work to schedule under
    // every strategy, or their identity is vacuous there. Two rotations
    // of the strategies give each one four threaded seeds.
    let busy = check_seeds(Family::Data(Data::Uniform), 0..36);
    assert!(busy.iter().all(|&n| n > 0), "no concurrent join work: {busy:?} of {STRATEGIES:?}");
}

#[test]
fn one_granule_cell_and_far_outliers() {
    check_seeds(Family::Data(Data::Clustered), 0..18);
}

#[test]
fn traffic_self_join() {
    check_seeds(Family::Data(Data::Traffic), 0..18);
}

#[test]
fn all_duplicate_intervals_tie_every_score() {
    check_seeds(Family::Data(Data::Duplicates), 0..18);
}

#[test]
fn zero_length_intervals() {
    check_seeds(Family::Data(Data::ZeroLength), 0..18);
}

#[test]
fn two_collection_queries() {
    check_seeds(Family::Data(Data::TwoCollections), 0..18);
}

#[test]
fn updated_datasets() {
    check_seeds(Family::Data(Data::Updated), 0..18);
}

#[test]
fn extreme_endpoints() {
    check_seeds(Family::Data(Data::Extreme), 0..24);
}

#[test]
fn table1_at_p1() {
    check_seeds(Family::Table1(0), 0..13);
}

#[test]
fn table1_at_p2() {
    check_seeds(Family::Table1(1), 0..13);
}

#[test]
fn table1_at_p3() {
    check_seeds(Family::Table1(2), 0..13);
}

#[test]
fn table1_at_pb() {
    check_seeds(Family::Table1(3), 0..13);
}

#[test]
fn random_chains() {
    check_seeds(Family::Shape(Shape::Chain), 0..18);
}

#[test]
fn random_stars() {
    check_seeds(Family::Shape(Shape::Star), 0..18);
}

#[test]
fn random_cycles() {
    check_seeds(Family::Shape(Shape::Cycle), 0..18);
}

#[test]
fn k_at_and_beyond_the_result_count() {
    check_seeds(Family::ResultCount, 0..24);
}

/// Cases that once failed, as their replay lines print them. Every
/// generator change redraws the cases behind the seeds, so re-find them
/// then.
#[test]
fn replayed_cases() {
    use crate::{Data::*, Family::*, Shape::*};
    let replay = [
        // TopBuckets cut the combinations whose results tie kthResLB once
        // results with lower lower bounds covered k.
        (Data(Uniform), 106),
        (Data(Updated), 113),
        (Shape(Star), 108),
    ];
    for (family, seed) in replay {
        check(family, seed);
    }
}

/// A two-vertex query over collections 0 and 1.
fn pair_query(predicate: TemporalPredicate) -> Query {
    let edges = vec![QueryEdge { src: 0, dst: 1, predicate }];
    Query::new(vec![CollectionId(0), CollectionId(1)], edges, Aggregation::Min).unwrap()
}

/// Collection `c` of the given `(start, end)` pairs, ids `0..`.
fn collection(c: u32, ends: &[(i64, i64)]) -> IntervalCollection {
    let intervals =
        ends.iter().zip(0..).map(|(&(s, e), id)| Interval::new(id, s, e).unwrap()).collect();
    IntervalCollection::new(CollectionId(c), intervals).unwrap()
}

/// Runs `q` at `g` granules and `r` reducers against `naive_topk`.
fn run_exact(
    collections: Vec<IntervalCollection>,
    q: &Query,
    g: u32,
    r: usize,
    k: usize,
) -> ExecutionReport {
    let engine = Tkij::new(TkijConfig::default().with_granules(g).with_reducers(r));
    let dataset = engine.prepare(collections).unwrap();
    let report = engine.execute(&dataset, q, k).unwrap();
    let refs: Vec<&IntervalCollection> =
        q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    let want: Vec<u64> = naive_topk(q, &refs, k).iter().map(|t| t.score.to_bits()).collect();
    assert_eq!(score_bits(&report), want, "{}: score bits differ from naive_topk", q.name());
    report
}

/// `before` across the two ends of i64: y̲ − x̄ ≈ 1.8·10¹⁹ overflows,
/// and every pair truly scores 1.0.
#[test]
fn extreme_probe_before_across_the_i64_range() {
    const E: i64 = 9_000_000_000_000_000_000;
    let xs: Vec<(i64, i64)> = (0..3).map(|i| (-E + i, -E + i + 5)).collect();
    let ys: Vec<(i64, i64)> = (0..3).map(|i| (E + i, E + i + 5)).collect();
    let q = pair_query(TemporalPredicate::before(PredicateParams::P1));
    let report = run_exact(vec![collection(0, &xs), collection(1, &ys)], &q, 4, 2, 3);
    assert_eq!(report.results.iter().map(|t| t.score).collect::<Vec<_>>(), [1.0; 3]);
}

/// Bucket boxes near i64::MAX, whose center `(lo + hi) / 2` overflows.
#[test]
fn extreme_probe_bucket_centers_near_i64_max() {
    const TOP: i64 = 9_200_000_000_000_000_000;
    let shifted = tkij::datagen::uniform_collections(3, 30, 5)
        .into_iter()
        .map(|c| {
            let ends: Vec<(i64, i64)> =
                c.intervals().iter().map(|iv| (TOP + iv.start, TOP + iv.end)).collect();
            collection(c.id.0, &ends)
        })
        .collect();
    run_exact(shifted, &table1::q_om(PredicateParams::P1), 4, 2, 10);
}

/// `meets` within λ at nanosecond epochs, where one f64 ulp is 256: x₁
/// ends 127 above a multiple of 256 and y₁ starts 3 later (1.0); x₀
/// meets y₀ 10 apart (0.625), 10⁶ earlier.
#[test]
fn extreme_probe_meets_window_below_one_ulp() {
    let e = 6_640_625_000_000_000 * 256 + 127;
    let xs = [(e - 1_000_020, e - 1_000_000), (e - 5, e)];
    let ys = [(e - 999_990, e - 999_980), (e + 3, e + 8)];
    let q = pair_query(TemporalPredicate::meets(PredicateParams::P1));
    let report = run_exact(vec![collection(0, &xs), collection(1, &ys)], &q, 1, 1, 1);
    assert_eq!((report.results[0].ids.as_slice(), report.results[0].score), (&[1, 1][..], 1.0));
}

/// Brute force bounds each combination jointly, so once its solver
/// converges it selects no more than Loose's per-edge bounds do; two-phase
/// refines Loose's selection, so it never selects more. At the default
/// solver (1 % gap, 500 nodes) the n-ary bounds keep that gap and can be
/// the looser ones: the generated case `(Table1(0), 6)` selects 19
/// combinations under brute force against Loose's 17, and 17 once the
/// solver converges.
#[test]
fn brute_force_and_two_phase_select_no_more_than_loose() {
    let assert_tighter = |name: &str, run: &dyn Fn(Strategy) -> ExecutionReport| {
        let [loose, brute, two] = STRATEGIES.map(|strategy| run(strategy).topbuckets);
        assert!(loose.candidates == brute.candidates && loose.candidates == two.candidates);
        for (other, what) in [(brute, "brute force"), (two, "two-phase")] {
            let (selected, loose) = (other.selected, loose.selected);
            assert!(selected <= loose, "{name}: {what} selects more ({selected} vs {loose})");
        }
    };
    // A fixed case at the default solver: Qm*(3), 3×120 uniform, seed 41.
    let collections = tkij::datagen::uniform_collections(3, 120, 41);
    let q = table1::q_m_star(3, PredicateParams::P1);
    assert_tighter("Qm*(3), seed 41", &|strategy| {
        let config = TkijConfig::default().with_granules(8).with_reducers(4);
        let engine = Tkij::new(config.with_strategy(strategy));
        engine.execute(&engine.prepare(collections.clone()).unwrap(), &q, 5).unwrap()
    });
    // The generated counterexample, at a converged solver.
    let case = Case::generate(Family::Table1(0), 6);
    let solver = tkij::solver::SolverConfig { eps: 1e-12, max_nodes: 5_000_000 };
    assert_tighter(&case.name, &|strategy| {
        let config = TkijConfig { solver, ..case.config.clone().with_strategy(strategy) };
        case.run(config, ClusterConfig::default())
    });
}

// Targeted regressions of the local join and the plan, each pinning one
// mechanism on a hand-built workload.

/// A density sweep (`Qo,m`, `k = 100`, lengths 1–100, `g = 20`, `r = 4`,
/// seed 7), from sparse small buckets to very dense ones: at every point
/// each reducer indexes each (vertex, bucket) it was shipped exactly
/// once — the count the plan's `bucket_map` predicts — and its index
/// examines at least every candidate it visits.
#[test]
fn every_shipped_bucket_is_indexed_once_across_densities() {
    let q = table1::q_om(PredicateParams::P1);
    let engine = Tkij::new(TkijConfig::default().with_granules(20).with_reducers(4));
    for &(size, span) in &[(3000usize, 50_000i64), (3000, 5_000), (3000, 1_250), (6_000, 20_000)] {
        let collections: Vec<IntervalCollection> = (0..3u32)
            .map(|c| {
                tkij::datagen::synthetic::uniform_collection(
                    CollectionId(c),
                    &tkij::datagen::synthetic::SyntheticConfig {
                        size,
                        start_range: (0, span),
                        length_range: (1, 100),
                        seed: 7,
                    },
                )
            })
            .collect();
        let dataset = engine.prepare(collections).unwrap();
        let plan = engine.plan_query(&dataset, &q, 100).unwrap();
        let shipped: u64 = plan
            .assignment
            .bucket_map
            .iter()
            .filter(|((v, bucket), _)| {
                let collection = q.vertices[*v as usize].0 as usize;
                dataset.matrices[collection].count(*bucket) > 0
            })
            .map(|(_, reducers)| reducers.len() as u64)
            .sum();
        let report = engine.execute_planned(&dataset, &plan).unwrap();
        assert_eq!(report.results.len(), 100, "size {size} span {span}");
        assert_eq!(report.buckets_sweep(), shipped, "size {size} span {span}");
        for stats in &report.local_stats {
            assert!(stats.items_scanned >= stats.candidates_visited, "size {size} span {span}");
        }
    }
}

#[test]
fn early_termination_fires_with_the_sweep_backend() {
    // A 2-vertex `meets` workload with a dominant score cluster, static
    // TopBuckets pruning off: every combination survives with honest
    // bounds, so any work saving comes from *runtime* early termination.
    // Once k high scorers are found, dominated combinations and the rest
    // of a dominated first-step run must be skipped.
    let engine =
        Tkij::new(TkijConfig::default().with_granules(10).with_reducers(2).without_pruning());
    let dataset = engine.prepare(uniform_collections(2, 120, 31)).unwrap();
    let q = {
        use tkij::temporal::{predicate::TemporalPredicate, query::QueryEdge};
        Query::new(
            vec![CollectionId(0), CollectionId(1)],
            vec![QueryEdge {
                src: 0,
                dst: 1,
                predicate: TemporalPredicate::meets(PredicateParams::P1),
            }],
            Aggregation::NormalizedSum,
        )
        .unwrap()
    };
    let report = engine.execute(&dataset, &q, 3).unwrap();
    assert_eq!(report.results.len(), 3);
    let assigned: usize = report.local_stats.iter().map(|s| s.combos_assigned).sum();
    let processed: usize = report.local_stats.iter().map(|s| s.combos_processed).sum();
    assert!(processed > 0);
    assert!(
        processed < assigned,
        "early termination must skip dominated combos with the sweep backend \
         (processed {processed} of {assigned})"
    );

    // Exhaustive reference: a k no workload of this size can fill, so
    // the admission threshold never rises and nothing is ever skipped.
    let exhaustive = engine.execute(&dataset, &q, 100_000).unwrap();
    assert!(
        report.index_probes() < exhaustive.index_probes(),
        "probes must stay below the exhaustive count: {} vs {}",
        report.index_probes(),
        exhaustive.index_probes()
    );
    assert!(
        report.items_scanned() < exhaustive.items_scanned(),
        "scans must stay below the exhaustive count: {} vs {}",
        report.items_scanned(),
        exhaustive.items_scanned()
    );
    // The exhaustive run returns every tuple; the early-terminated run's
    // scores must be its true top prefix.
    for (got, want) in report.results.iter().zip(&exhaustive.results) {
        assert_eq!(got.score.to_bits(), want.score.to_bits());
    }
}

#[test]
fn a_combination_dominated_mid_run_stops_its_first_step_walk() {
    // Every pair scores the same s < 1, and the one combination's upper
    // bound is exactly s. Once k tuples fill the heap, τ = s = UB, so the
    // rest of the first-step run is dominated and must not be walked: the
    // probe threshold alone (s must beat τ < 1) would still probe once
    // per remaining item.
    use tkij::core::{local_topk_join, ComboSet};
    use tkij::temporal::bucket::BucketId;
    let q = Query::new(
        vec![CollectionId(0), CollectionId(1)],
        vec![QueryEdge {
            src: 0,
            dst: 1,
            predicate: TemporalPredicate::meets(PredicateParams::P1),
        }],
        Aggregation::NormalizedSum,
    )
    .unwrap();
    let left: Vec<Interval> = (0..8).map(|id| Interval::new(id, 0, 10).unwrap()).collect();
    let right: Vec<Interval> = (0..8).map(|id| Interval::new(id, 20, 30).unwrap()).collect();
    let s = q.score_tuple(&[left[0], right[0]]);
    assert!(s > 0.0 && s < 1.0, "a partial score, so the probe threshold stays below 1: {s}");
    let bucket = BucketId::new(0, 0);
    let mut combos = ComboSet::new(2);
    combos.push(&[bucket, bucket], 64, s, s);
    let data = std::collections::BTreeMap::from([((0, bucket), left), ((1, bucket), right)]);
    let (topk, stats) = local_topk_join(&q, &q.plan(), 3, &combos, &[0], data);
    assert_eq!(topk.sorted_scores(), vec![s; 3]);
    assert_eq!(stats.index_probes, 1, "the walk must stop once the combination is dominated");
    assert_eq!(stats.tuples_scored, 3);
}

#[test]
fn a_plan_executes_the_query_and_k_it_was_made_for() {
    // A plan carries its own (query, k), so no caller can run it against
    // another shape: a k = 1 plan (one selected combination) and a
    // k = 5000 plan each return their own exact top-k, and a plan for a
    // 2-vertex star stays that query beside a 3-vertex one.
    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
    let dataset = engine.prepare(uniform_collections(3, 60, 5)).unwrap();
    let p = PredicateParams::P1;
    for (q, k) in [
        (table1::q_bb(p), 1),
        (table1::q_bb(p), 5000),
        (table1::q_b_star(2, p), 10),
        (table1::q_sfm(p), 10),
    ] {
        let plan = engine.plan_query(&dataset, &q, k).unwrap();
        assert_eq!((&plan.query, plan.k), (&q, k));
        let report = engine.execute_planned(&dataset, &plan).unwrap();
        assert_eq!(report.fingerprint(), engine.execute(&dataset, &q, k).unwrap().fingerprint());
        let refs: Vec<&IntervalCollection> =
            q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk(&q, &refs, k);
        assert_eq!(report.results.len(), expected.len(), "{} k = {k}", q.name());
        for (got, want) in report.results.iter().zip(&expected) {
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "{} k = {k}", q.name());
        }
    }
}
