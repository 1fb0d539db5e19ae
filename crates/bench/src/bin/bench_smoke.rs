//! CI perf probe: a pinned dense synthetic workload run through the
//! local-join backends, emitting a flat JSON report on stdout.
//!
//! The workload is fully deterministic (fixed sizes, seeds and engine
//! knobs, no env scaling), so the work counters — every counter the
//! stats structs' `Counters` schema visits, emitted through
//! [`tkij_bench::emit::Report`] as `{backend}_*`, `topbuckets_*`,
//! `dtb_*` and `shuffle_*` keys — are exact run-to-run; the timing
//! metrics take the best of [`RUNS`] repetitions to damp scheduler
//! noise. `bench_check` compares this output against the committed
//! `BENCH_BASELINE.json` and fails CI on >25% regressions.
//!
//! Usage: `bench_smoke [backend...]` — backend names (`rtree`, `sweep`,
//! `auto`) parsed with the `FromStr` registry; no arguments runs all
//! three (the gated configuration). The probe-level microbench and the
//! backend speedup ratios are emitted only when both fixed backends run;
//! the microbench also times the sweep store under both scan kinds and
//! emits `chunked_probe_speedup` (chunked lanes vs the scalar
//! reference — a pure wall-clock ratio: the kinds' hit and scan counts
//! are asserted identical in-binary).
//! A single-reducer hot-bucket workload (`granules = 1`, one combination)
//! always runs, sequentially and with intra-join chunk workers: it
//! asserts the sharding contract (bit-identical scores and counters) and
//! emits `intra_join_speedup` plus the `hot_*` counters.
//!
//! Refresh the baseline with:
//! `cargo run --release -p tkij_bench --bin bench_smoke > BENCH_BASELINE.json`

use std::time::{Duration, Instant};
use tkij_bench::emit::Report;
use tkij_core::{ExecutionReport, LocalJoinBackend, Tkij, TkijConfig};
use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij_index::{threshold_candidates, CandidateSource, RTree, SweepIndex, SweepScanKind};
use tkij_mapreduce::ClusterConfig;
use tkij_temporal::collection::CollectionId;
use tkij_temporal::expr::Side;
use tkij_temporal::interval::Interval;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::predicate::TemporalPredicate;
use tkij_temporal::query::table1;

/// Timed repetitions per backend (best-of, after one warm-up).
const RUNS: usize = 3;
/// Intervals per collection.
const SIZE: usize = 6_000;
/// Startpoint span: ~30 concurrent intervals per timestamp — the dense
/// regime where index probe cost dominates the reducers.
const START_SPAN: i64 = 20_000;
const SEED: u64 = 4242;
const GRANULES: u32 = 20;
const REDUCERS: usize = 4;
const K: usize = 100;

/// Intervals per collection of the single-reducer hot-bucket workload.
const HOT_SIZE: usize = 4_000;
/// Startpoint span of the hot workload: sparse enough that the top-100
/// does not saturate at perfect scores (which would let mid-run early
/// termination skip the very waves the probe is meant to exercise).
const HOT_SPAN: i64 = 120_000;
/// Chunk workers of the hot workload's parallel run.
const HOT_INTRA_THREADS: usize = 4;

/// One backend's measurement: the best-of reduce time plus the full
/// (repetition-invariant) report every emitted counter derives from.
struct BackendRun {
    reduce_ms: f64,
    report: ExecutionReport,
}

impl BackendRun {
    fn score_bits(&self) -> Vec<u64> {
        self.report.results.iter().map(|t| t.score.to_bits()).collect()
    }
}

/// The shared measurement harness: one warm-up + [`RUNS`] timed
/// repetitions of the prepared query; keeps the best (least-noise)
/// reduce-wave time. Counters are identical across repetitions. Both the
/// per-backend runs and the hot-bucket runs go through this, so their
/// speedup ratios stay mutually comparable by construction.
fn measure(engine: &Tkij, dataset: &tkij_core::PreparedDataset) -> BackendRun {
    let query = table1::q_om(PredicateParams::P1);
    let mut best_reduce = Duration::MAX;
    let mut out = None;
    for rep in 0..=RUNS {
        let report = engine.execute(dataset, &query, K).expect("execute");
        let reduce: Duration = report.join.reduce_durations.iter().sum();
        if rep == 0 {
            continue;
        }
        if reduce < best_reduce {
            best_reduce = reduce;
        }
        out = Some(report);
    }
    BackendRun { reduce_ms: best_reduce.as_secs_f64() * 1e3, report: out.expect("timed run") }
}

fn run_backend(backend: LocalJoinBackend) -> BackendRun {
    let cfg = SyntheticConfig {
        size: SIZE,
        start_range: (0, START_SPAN),
        length_range: (1, 100),
        seed: SEED,
    };
    let collections: Vec<_> =
        (0..3u32).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::new(
        TkijConfig::default()
            .with_granules(GRANULES)
            .with_reducers(REDUCERS)
            .with_local_backend(backend),
    );
    let dataset = engine.prepare(collections).expect("prepare");
    measure(&engine, &dataset)
}

/// Single-reducer hot-bucket workload: `granules = 1` collapses every
/// collection into one bucket, so TopBuckets yields exactly one
/// combination and the entire join is one reducer grinding through one
/// candidate run — the worst case for reducer-level parallelism and
/// precisely the regime the intra-join probe sharding targets. Run once
/// sequentially and once with [`HOT_INTRA_THREADS`] chunk workers; the
/// work counters and score bits are asserted identical (the sharding
/// contract), so only the timing ratio distinguishes the two.
fn run_hot(intra_threads: usize) -> BackendRun {
    let cfg = SyntheticConfig {
        size: HOT_SIZE,
        start_range: (0, HOT_SPAN),
        length_range: (1, 100),
        seed: SEED,
    };
    let collections: Vec<_> =
        (0..3u32).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::with_cluster(
        TkijConfig::default().with_granules(1).with_reducers(1),
        ClusterConfig::default().with_intra_join_threads(intra_threads),
    );
    let dataset = engine.prepare(collections).expect("prepare hot");
    measure(&engine, &dataset)
}

/// Probe-level microbench: the same score-threshold window set against
/// both backends over one dense bucket — the pure candidate-source
/// comparison, free of the backend-independent scoring/sorting work the
/// reducers do around it.
struct ProbeRun {
    probe_ms: f64,
    scanned: u64,
    hits: u64,
}

fn probe_microbench<C: CandidateSource>(build: impl FnOnce(Vec<Interval>) -> C) -> ProbeRun {
    let cfg = SyntheticConfig {
        size: 20_000,
        start_range: (0, START_SPAN),
        length_range: (1, 100),
        seed: SEED,
    };
    let items = uniform_collection(CollectionId(0), &cfg).intervals().to_vec();
    let anchors: Vec<_> = items.iter().step_by(10).copied().collect();
    let index = build(items);
    let pred = TemporalPredicate::meets(PredicateParams::P1);
    let mut best = Duration::MAX;
    let (mut scanned, mut hits) = (0u64, 0u64);
    for _ in 0..=RUNS {
        let (mut s, mut h) = (0u64, 0u64);
        let t = Instant::now();
        for a in &anchors {
            s += threshold_candidates(&index, &pred, a, Side::Left, 0.8, |_| h += 1);
        }
        best = best.min(t.elapsed());
        (scanned, hits) = (s, h);
    }
    ProbeRun { probe_ms: best.as_secs_f64() * 1e3, scanned, hits }
}

fn main() {
    // Flag-selected backends (FromStr registry); default: all three.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backends: Vec<LocalJoinBackend> = if args.is_empty() {
        LocalJoinBackend::all().iter().map(|&(_, b)| b).collect()
    } else {
        args.iter()
            .map(|a| a.parse::<LocalJoinBackend>().unwrap_or_else(|e| panic!("{e}")))
            .collect()
    };

    let runs: Vec<(LocalJoinBackend, BackendRun)> =
        backends.iter().map(|&b| (b, run_backend(b))).collect();
    // Every backend must produce the identical top-k score multiset.
    for (b, run) in &runs[1..] {
        assert_eq!(
            run.score_bits(),
            runs[0].1.score_bits(),
            "{}: results diverge from {}",
            b.name(),
            backends[0].name()
        );
    }

    let both_fixed =
        backends.contains(&LocalJoinBackend::RTree) && backends.contains(&LocalJoinBackend::Sweep);
    let find = |b: LocalJoinBackend| runs.iter().find(|(rb, _)| *rb == b).map(|(_, r)| r);

    let mut out = Report::default();

    if both_fixed {
        let rtree_probe = probe_microbench(RTree::bulk_load);
        let sweep_probe =
            probe_microbench(|items| SweepIndex::build_with_scan(items, SweepScanKind::Chunked));
        let scalar_probe =
            probe_microbench(|items| SweepIndex::build_with_scan(items, SweepScanKind::Scalar));
        let speedup = rtree_probe.probe_ms / sweep_probe.probe_ms.max(1e-9);
        assert_eq!(rtree_probe.hits, sweep_probe.hits, "backends must agree on candidate sets");
        // The scan kinds must be indistinguishable in everything but
        // time: same hits, same examined-items telemetry.
        assert_eq!(scalar_probe.hits, sweep_probe.hits, "scan kinds must agree on hits");
        assert_eq!(scalar_probe.scanned, sweep_probe.scanned, "scan kinds must agree on scans");
        // Per-kind probe speedup of the chunked lane scan over the
        // scalar reference (same index contents, same window set).
        let chunked_speedup = scalar_probe.probe_ms / sweep_probe.probe_ms.max(1e-9);
        out.push("rtree_probe_ms", format!("{:.3}", rtree_probe.probe_ms));
        out.push("sweep_probe_ms", format!("{:.3}", sweep_probe.probe_ms));
        out.push("sweep_scalar_probe_ms", format!("{:.3}", scalar_probe.probe_ms));
        out.push("sweep_speedup", format!("{speedup:.3}"));
        out.push("chunked_probe_speedup", format!("{chunked_speedup:.3}"));
        out.push("rtree_probe_scanned", rtree_probe.scanned.to_string());
        out.push("sweep_probe_scanned", sweep_probe.scanned.to_string());
        out.push("probe_hits", sweep_probe.hits.to_string());
        let rt = find(LocalJoinBackend::RTree).expect("rtree ran");
        let sw = find(LocalJoinBackend::Sweep).expect("sweep ran");
        let join_speedup = rt.reduce_ms / sw.reduce_ms.max(1e-9);
        out.push("join_speedup", format!("{join_speedup:.3}"));
    }
    for (b, run) in &runs {
        let n = b.name();
        out.push(&format!("{n}_join_reduce_ms"), format!("{:.3}", run.reduce_ms));
        out.summed(n, &run.report.local_stats);
    }
    // Phase-level work counters (backend-independent: TopBuckets and
    // distribution run before the join; take them from the first run and
    // assert the independence).
    let phase = &runs[0].1.report;
    for (_, run) in &runs[1..] {
        assert_eq!(
            run.report.topbuckets.candidates, phase.topbuckets.candidates,
            "phase counters must not depend on the join backend"
        );
        assert_eq!(
            run.report.distribution.assignments_scored, phase.distribution.assignments_scored,
            "phase counters must not depend on the join backend"
        );
    }
    out.counters("topbuckets", &phase.topbuckets);
    out.counters("dtb", &phase.distribution);

    // Single-reducer hot-bucket probe: the gate's evidence that the
    // intra-join sharding (a) actually parallelizes the one regime
    // reducer-level parallelism cannot touch and (b) does so without
    // changing a single score bit or work counter.
    let hot_seq = run_hot(0);
    let hot_par = run_hot(HOT_INTRA_THREADS);
    assert_eq!(
        hot_par.score_bits(),
        hot_seq.score_bits(),
        "intra-join threads changed hot-workload results"
    );
    for (label, seq, par) in [
        ("index_probes", hot_seq.report.index_probes(), hot_par.report.index_probes()),
        ("items_scanned", hot_seq.report.items_scanned(), hot_par.report.items_scanned()),
        ("tuples_scored", hot_seq.report.tuples_scored(), hot_par.report.tuples_scored()),
        ("probe_chunks", hot_seq.report.probe_chunks(), hot_par.report.probe_chunks()),
    ] {
        assert_eq!(seq, par, "intra-join threads changed the hot {label} counter");
    }
    assert!(
        hot_par.report.intra_threads_used() >= 2,
        "the hot workload must actually run parallel waves"
    );
    let intra_speedup = hot_seq.reduce_ms / hot_par.reduce_ms.max(1e-9);
    out.push("intra_join_speedup", format!("{intra_speedup:.3}"));
    out.push("hot_seq_reduce_ms", format!("{:.3}", hot_seq.reduce_ms));
    out.push("hot_par_reduce_ms", format!("{:.3}", hot_par.reduce_ms));
    out.push("hot_probe_chunks", hot_par.report.probe_chunks().to_string());
    out.push("hot_intra_threads_used", hot_par.report.intra_threads_used().to_string());
    out.push("hot_index_probes", hot_par.report.index_probes().to_string());
    out.push("hot_items_scanned", hot_par.report.items_scanned().to_string());
    out.push("hot_tuples_scored", hot_par.report.tuples_scored().to_string());

    // Out-of-core leg: the same gated workload on the default backend,
    // forced through the serialized spill transport at threshold 0 (every
    // shuffled record lands in its own checksummed segment — the
    // worst-case spill schedule). Results and work counters must be
    // bit-identical to the in-memory runs above; the spill counters are
    // exact and become gated baseline keys, so any codec, segmentation,
    // or checksum drift fails the bench gate.
    let spill = {
        let cfg = SyntheticConfig {
            size: SIZE,
            start_range: (0, START_SPAN),
            length_range: (1, 100),
            seed: SEED,
        };
        let collections: Vec<_> =
            (0..3u32).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
        let engine = Tkij::new(
            TkijConfig::default()
                .with_granules(GRANULES)
                .with_reducers(REDUCERS)
                .with_local_backend(LocalJoinBackend::Sweep)
                .with_shuffle_spill_threshold_bytes(0),
        );
        let dataset = engine.prepare(collections).expect("prepare spill");
        measure(&engine, &dataset)
    };
    assert_eq!(spill.score_bits(), runs[0].1.score_bits(), "spilling changed the top-k");
    if let Some(sw) = find(LocalJoinBackend::Sweep) {
        assert_eq!(spill.report.index_probes(), sw.report.index_probes(), "spill leg probes");
        assert_eq!(spill.report.items_scanned(), sw.report.items_scanned(), "spill leg scans");
        assert_eq!(spill.report.tuples_scored(), sw.report.tuples_scored(), "spill leg tuples");
        assert_eq!(
            spill.report.join.total_shuffle_records(),
            sw.report.join.total_shuffle_records(),
            "serialization must not change shuffle record accounting"
        );
        assert_eq!(
            spill.report.join.total_shuffle_bytes(),
            sw.report.join.total_shuffle_bytes(),
            "serialization must not change shuffle byte accounting"
        );
    }
    let spill_stats = spill.report.shuffle_stats();
    assert!(spill_stats.records_spilled > 0, "the spill leg must actually spill");
    assert_eq!(
        spill_stats.records_spilled,
        spill.report.join.total_shuffle_records() + spill.report.merge.total_shuffle_records(),
        "threshold 0 serializes every online shuffle record"
    );
    out.counters("shuffle", &spill_stats);

    let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    out.print(&format!(
        "\"collections\": 3, \"size\": {SIZE}, \"start_span\": {START_SPAN}, \
         \"granules\": {GRANULES}, \"reducers\": {REDUCERS}, \"k\": {K}, \"seed\": {SEED}, \
         \"query\": \"q_om\", \"backends\": \"{}\"",
        names.join("+")
    ));
}
