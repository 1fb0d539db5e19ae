//! Criterion micro-benchmarks of TKIJ's building blocks, including two
//! ablations: the sweep index against a linear scan, and DTB against LPT
//! assignment cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use tkij_core::config::IntraJoin;
use tkij_core::{
    collect_statistics, distribute, get_top_buckets, run_join_phase_with, run_topbuckets, ComboSet,
    DistributionPolicy, LocalJoinBackend, ShuffleMode, SpillSinkKind, Strategy, SweepScanKind,
};
use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij_index::{threshold_candidates, SweepIndex};
use tkij_mapreduce::ClusterConfig;
use tkij_solver::{nary_bounds, pair_bounds, SolverConfig};
use tkij_temporal::aggregate::Aggregation;
use tkij_temporal::bucket::{BucketId, BucketMatrix};
use tkij_temporal::collection::{CollectionId, IntervalCollection};
use tkij_temporal::expr::{EndpointBox, Side};
use tkij_temporal::granule::TimePartitioning;
use tkij_temporal::interval::Interval;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::predicate::TemporalPredicate;
use tkij_temporal::query::{table1, Query, QueryEdge};
use tkij_temporal::result::{MatchTuple, TopK};

fn sample_intervals(n: usize, seed: u64) -> Vec<Interval> {
    uniform_collection(CollectionId(0), &SyntheticConfig::paper(n, seed)).intervals().to_vec()
}

/// The four predicates the scoring and predicate-kernel benches share.
fn four_predicates() -> [TemporalPredicate; 4] {
    let p = PredicateParams::P1;
    [
        TemporalPredicate::before(p),
        TemporalPredicate::overlaps(p),
        TemporalPredicate::starts(p),
        TemporalPredicate::sparks(p, 10),
    ]
}

fn bench_scoring(c: &mut Criterion) {
    let preds = four_predicates();
    let x = Interval::new(0, 100, 180).unwrap();
    let y = Interval::new(1, 120, 260).unwrap();
    c.bench_function("scoring/4_predicates_pair", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for pred in &preds {
                acc += pred.score(black_box(&x), black_box(&y));
            }
            acc
        })
    });
}

/// The two per-primitive kernels below scoring: the index probe's
/// threshold window and the solver's score enclosure.
fn bench_predicate_kernels(c: &mut Criterion) {
    let preds = four_predicates();
    let anchor = Interval::new(0, 100, 180).unwrap();
    c.bench_function("predicate/threshold_window_4_predicates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for pred in &preds {
                acc +=
                    pred.threshold_window(black_box(&anchor), Side::Left, black_box(0.5)).start.0;
            }
            acc
        })
    });
    let left = EndpointBox::new((100, 149), (150, 199));
    let right = EndpointBox::new((120, 169), (200, 299));
    c.bench_function("predicate/score_range_4_predicates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for pred in &preds {
                acc += pred.score_range(black_box(&left), black_box(&right)).1;
            }
            acc
        })
    });
}

fn bench_solver(c: &mut Criterion) {
    let cfg = SolverConfig::default();
    let p = PredicateParams::new(4, 8, 0, 10);
    let meets = TemporalPredicate::meets(p);
    let left = EndpointBox::new((0, 2499), (0, 2499));
    let right = EndpointBox::new((2500, 4999), (2500, 4999));
    c.bench_function("solver/pair_bounds_meets", |b| {
        b.iter(|| pair_bounds(black_box(&meets), left, right, &cfg))
    });
    let q = table1::q_sfm(PredicateParams::P1);
    let boxes = vec![
        EndpointBox::new((0, 249), (0, 249)),
        EndpointBox::new((0, 249), (250, 499)),
        EndpointBox::new((250, 499), (250, 499)),
    ];
    c.bench_function("solver/nary_bounds_qsfm", |b| {
        b.iter(|| nary_bounds(black_box(&q), boxes.clone(), &cfg))
    });
}

fn bench_index_ablation(c: &mut Criterion) {
    let items = sample_intervals(20_000, 5);
    let index = SweepIndex::build(items.clone());
    let pred = TemporalPredicate::meets(PredicateParams::P1);
    let anchor = Interval::new(99_999, 40_000, 50_000).unwrap();
    let window = pred.threshold_window(&anchor, Side::Left, 0.8);
    let mut group = c.benchmark_group("index/threshold_window_20k");
    group.bench_function("sweep", |b| {
        b.iter(|| {
            let mut n = 0usize;
            index.window_query(black_box(&window), |_| n += 1);
            n
        })
    });
    group
        .bench_function("scan", |b| b.iter(|| items.iter().filter(|iv| window.admits(iv)).count()));
    group.finish();
    c.bench_function("index/sweep_build_20k", |b| {
        b.iter_batched(|| items.clone(), SweepIndex::build, BatchSize::SmallInput)
    });
    c.bench_function("index/threshold_candidates_exact", |b| {
        b.iter(|| {
            let mut n = 0usize;
            threshold_candidates(&index, &pred, &anchor, Side::Left, 0.8, |cand| {
                if pred.score(&anchor, cand) >= 0.8 {
                    n += 1;
                }
            });
            n
        })
    });
}

fn synthetic_combos(count: usize) -> ComboSet {
    let mut set = ComboSet::new(2);
    for i in 0..count {
        let b = BucketId::new((i % 64) as u32, ((i / 64) % 64) as u32);
        let ub = 1.0 - (i as f64 / count as f64);
        set.push(&[b, b], (i % 97 + 1) as u64, ub * 0.5, ub);
    }
    set
}

/// Three uniform collections of `size` intervals (lengths 1–100) over
/// `[0, span]`, as `benchmark/` generates them.
fn benchmark_collections(size: usize, span: i64) -> Vec<IntervalCollection> {
    let cfg = SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed: 4242 };
    (0..3).map(|i| uniform_collection(CollectionId(i), &cfg)).collect()
}

/// The `plan-wide` shape of `benchmark/`: 3 × 1 000 uniform intervals
/// over a 3 750 span under 30 granules — a ~200 k-combination lattice for
/// `Q_{o,m}`, of which ~30 k are selected at k = 100.
fn planwide_fixture() -> (Query, Vec<BucketMatrix>) {
    let collections = benchmark_collections(1_000, 3_750);
    let matrices = collect_statistics(collections, 30, &ClusterConfig::default()).unwrap().matrices;
    (table1::q_om(PredicateParams::P1), matrices)
}

fn planwide_topbuckets(q: &Query, matrices: &[BucketMatrix]) -> ComboSet {
    run_topbuckets(q, matrices, 100, Strategy::Loose, &SolverConfig::default(), 6).0
}

fn bench_topbuckets(c: &mut Criterion) {
    let set = synthetic_combos(50_000);
    c.bench_function("topbuckets/get_top_buckets_50k", |b| {
        b.iter(|| get_top_buckets(black_box(1000), &set).len())
    });
    let (q, matrices) = planwide_fixture();
    c.bench_function("topbuckets/run_topbuckets_planwide", |b| {
        b.iter(|| planwide_topbuckets(black_box(&q), &matrices).len())
    });
}

fn assignment_fixture() -> (Query, Vec<BucketMatrix>, ComboSet) {
    let part = TimePartitioning::from_range(0, 64 * 100 - 1, 64).unwrap();
    let intervals: Vec<Interval> = (0..64)
        .map(|g| Interval::new(g, g as i64 * 100 + 1, g as i64 * 100 + 50).unwrap())
        .collect();
    let m = BucketMatrix::build(part, &intervals);
    let q = Query::new(
        vec![CollectionId(0), CollectionId(0)],
        vec![QueryEdge {
            src: 0,
            dst: 1,
            predicate: TemporalPredicate::meets(PredicateParams::P1),
        }],
        Aggregation::NormalizedSum,
    )
    .unwrap();
    (q, vec![m], synthetic_combos(10_000))
}

fn bench_distribute(c: &mut Criterion) {
    let (q, matrices, combos) = assignment_fixture();
    let mut group = c.benchmark_group("distribute/10k_combos_24_reducers");
    group.bench_function("dtb", |b| {
        b.iter(|| distribute(black_box(&combos), DistributionPolicy::Dtb, 24, &q, &matrices))
    });
    group.bench_function("lpt", |b| {
        b.iter(|| distribute(black_box(&combos), DistributionPolicy::Lpt, 24, &q, &matrices))
    });
    group.finish();
    let (q, matrices) = planwide_fixture();
    let selected = planwide_topbuckets(&q, &matrices);
    c.bench_function("distribute/dtb_30k_x24", |b| {
        b.iter(|| distribute(black_box(&selected), DistributionPolicy::Dtb, 24, &q, &matrices))
    });
}

fn bench_topk(c: &mut Criterion) {
    let tuples: Vec<MatchTuple> = (0..100_000u64)
        .map(|i| MatchTuple::new(vec![i, i ^ 0x5555], ((i * 2654435761) % 1000) as f64 / 1000.0))
        .collect();
    c.bench_function("topk/offer_100k_k100", |b| {
        b.iter(|| {
            let mut top = TopK::new(100);
            for t in &tuples {
                top.offer(t.clone());
            }
            top.len()
        })
    });
}

fn bench_local_join(c: &mut Criterion) {
    // One reducer joining two 2 000-interval buckets under s-meets.
    let part = TimePartitioning::from_range(0, 99_999, 10).unwrap();
    let left = sample_intervals(2_000, 11);
    let right = sample_intervals(2_000, 12);
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
    let plan = q.plan();
    let matrix = BucketMatrix::build(part, &left);
    let mut combos = ComboSet::new(2);
    let mut data: BTreeMap<(u16, BucketId), Vec<Interval>> = BTreeMap::new();
    for iv in &left {
        data.entry((0, matrix.bucket_of(iv))).or_default().push(*iv);
    }
    for iv in &right {
        data.entry((1, matrix.bucket_of(iv))).or_default().push(*iv);
    }
    let mut seen = std::collections::BTreeSet::new();
    for iv in &left {
        let b = matrix.bucket_of(iv);
        if seen.insert(b) {
            combos.push(&[b, b], 1_000, 0.0, 1.0);
        }
    }
    let indices: Vec<u32> = (0..combos.len() as u32).collect();
    c.bench_function("localjoin/meets_2000x2000_k100", |b| {
        b.iter(|| {
            tkij_core::local_topk_join(&q, &plan, 100, &combos, &indices, data.clone())
                .1
                .tuples_scored
        })
    });
}

/// The reduce side of `benchmark/`'s `join-dense` shape: 3 × 3 000
/// uniform intervals over a 5 000 span under 12 granules, the
/// combinations TopBuckets selects for the two-edge chain `Q_{o,m}` at P1,
/// spread by DTB over 24 reducers that join in turn, each over the
/// buckets it is shipped. Once a reducer's heap fills, most probes run at
/// a requirement of exactly 0 (τ = 0.5 over an anchor edge scoring 1.0),
/// a path a one-edge query never takes.
fn bench_local_join_chain(c: &mut Criterion) {
    let collections = benchmark_collections(3_000, 5_000);
    let matrices =
        collect_statistics(collections.clone(), 12, &ClusterConfig::default()).unwrap().matrices;
    let q = table1::q_om(PredicateParams::P1);
    let plan = q.plan();
    let combos = run_topbuckets(&q, &matrices, 100, Strategy::Loose, &SolverConfig::default(), 6).0;
    let assignment = distribute(&combos, DistributionPolicy::Dtb, 24, &q, &matrices);
    let mut shipped: Vec<BTreeMap<(u16, BucketId), Vec<Interval>>> = vec![BTreeMap::new(); 24];
    for (v, cid) in q.vertices.iter().enumerate() {
        let m = &matrices[cid.0 as usize];
        for iv in collections[cid.0 as usize].intervals() {
            let key = (v as u16, m.bucket_of(iv));
            for &j in assignment.bucket_map.get(&key).into_iter().flatten() {
                shipped[j as usize].entry(key).or_default().push(*iv);
            }
        }
    }
    c.bench_function("localjoin/q_om_p1_dense_k100", |b| {
        b.iter(|| {
            let reducers = assignment.reducer_combos.iter().zip(&shipped);
            reducers
                .map(|(mine, data)| {
                    tkij_core::local_topk_join(&q, &plan, 100, &combos, mine, data.clone())
                        .1
                        .tuples_scored
                })
                .sum::<u64>()
        })
    });
}

/// The join phase of `benchmark/`'s `shuffle-spill` shape: 3 × 6 000
/// uniform intervals over a 30 000 span under 24 granules, `Q_{o,o}` at
/// P1 with k = 100, its selected combinations spread by DTB over 24
/// reducers, run sequentially. The serialized run spills 32 KiB segments
/// to memory; its in-memory twin runs the same plan, so the difference
/// between the two is the transport's encode, checksum and decode.
fn bench_join_phase_transports(c: &mut Criterion) {
    let dataset =
        collect_statistics(benchmark_collections(6_000, 30_000), 24, &ClusterConfig::default())
            .unwrap();
    let q = table1::q_oo(PredicateParams::P1);
    let combos =
        run_topbuckets(&q, &dataset.matrices, 100, Strategy::Loose, &SolverConfig::default(), 6).0;
    let assignment = distribute(&combos, DistributionPolicy::Dtb, 24, &q, &dataset.matrices);
    let serialized =
        ShuffleMode::Serialized { spill_threshold_bytes: 32 * 1024, sink: SpillSinkKind::Memory };
    for (name, shuffle) in [
        ("shuffle/join_phase_serialized_q_oo", serialized),
        ("shuffle/join_phase_in_memory_q_oo", ShuffleMode::InMemory),
    ] {
        let cluster = ClusterConfig { shuffle, ..ClusterConfig::default() };
        c.bench_function(name, |b| {
            b.iter(|| {
                let (outputs, _) = run_join_phase_with(
                    &dataset,
                    black_box(&q),
                    &combos,
                    &assignment,
                    100,
                    &cluster,
                    LocalJoinBackend::Sweep,
                    SweepScanKind::Chunked,
                    None,
                    IntraJoin,
                );
                outputs.len()
            })
        });
    }
}

fn configured() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_scoring, bench_predicate_kernels, bench_solver, bench_index_ablation,
              bench_topbuckets, bench_distribute, bench_topk, bench_local_join,
              bench_local_join_chain, bench_join_phase_transports
}
criterion_main!(benches);
