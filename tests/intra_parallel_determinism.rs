//! Thread-count determinism of the **intra-reducer sharded join**: every
//! deterministic field of the `ExecutionReport` (results with ids, local
//! join telemetry, phase counters, shuffle accounting — everything
//! except wall timings and the execution-shape `intra_threads_used`
//! record) must be bit-identical for `intra_join_threads` ∈ {0, 1, 2, 4}
//! across all three backends and all three TopBuckets strategies — and
//! across the sweep scan kinds `{Scalar, Chunked}`, sharing **one**
//! reference fingerprint per (strategy, backend), since the chunked lane
//! scan must be a pure wall-clock knob — plus repeat-run bit-identity.
//! Mirrors `tests/thread_determinism.rs`, which pins the same property
//! for the outer `worker_threads` knob.
//!
//! This is the contract that makes the parallel local join safe: the
//! chunk schedule, wave boundaries and shared-bound publication points
//! are a pure function of the data and `probe_chunk_items` — threads
//! only execute the fixed plan.

use tkij::core::Strategy;
use tkij::prelude::*;

/// The report's fingerprint with the execution-*shape* record cleared:
/// `intra_threads_used` is deterministic per configuration (asserted
/// below) but, like the timings, legitimately differs across thread
/// knobs — every other field must not.
fn fingerprint(report: &ExecutionReport) -> Fingerprint {
    let mut fp = report.fingerprint();
    for stats in &mut fp.local_stats {
        stats.intra_threads_used = 0;
    }
    fp
}

/// A small chunk size so the seeded workload splits every hot candidate
/// run into many chunks and the wave machinery actually engages.
const CHUNK: usize = 16;

fn run(
    dataset: &PreparedDataset,
    strategy: Strategy,
    backend: LocalJoinBackend,
    scan: SweepScanKind,
    intra_threads: usize,
) -> ExecutionReport {
    let engine = Tkij::with_cluster(
        TkijConfig::default()
            .with_granules(4)
            .with_reducers(3)
            .with_strategy(strategy)
            .with_local_backend(backend)
            .with_sweep_scan(scan)
            .with_probe_chunk_items(CHUNK),
        ClusterConfig::default().with_intra_join_threads(intra_threads),
    );
    let q = table1::q_om(PredicateParams::P1);
    engine.execute(dataset, &q, 30).unwrap()
}

#[test]
fn report_identical_across_intra_threads_and_scan_kinds() {
    let base = Tkij::new(TkijConfig::default().with_granules(4));
    let dataset = base.prepare(uniform_collections(3, 150, 909)).unwrap();
    let mut any_parallel_wave = false;
    for (sname, strategy) in Strategy::all() {
        for (bname, backend) in LocalJoinBackend::all() {
            // One reference per (strategy, backend): scalar scan,
            // sequential. The whole {Scalar, Chunked} × intra-thread
            // grid must reproduce it bit for bit.
            let reference = run(&dataset, strategy, backend, SweepScanKind::Scalar, 0);
            let reference_fp = fingerprint(&reference);
            assert!(!reference_fp.results.is_empty(), "{sname}/{bname}: produces results");
            assert!(reference.probe_chunks() > 0, "{sname}/{bname}: chunks are counted");
            assert_eq!(
                reference.intra_threads_used(),
                0,
                "{sname}/{bname}: sequential execution spawns no chunk workers"
            );
            for (kname, scan) in SweepScanKind::all() {
                for threads in [0usize, 1, 2, 4] {
                    if scan == SweepScanKind::Scalar && threads == 0 {
                        continue; // the reference itself
                    }
                    let report = run(&dataset, strategy, backend, scan, threads);
                    assert_eq!(
                        fingerprint(&report),
                        reference_fp,
                        "{sname}/{bname}/{kname}: report diverges from the scalar \
                         sequential reference at intra threads {threads}"
                    );
                    any_parallel_wave |= report.intra_threads_used() >= 2;
                }
            }
        }
    }
    // The battery must actually exercise the parallel path, not just the
    // inline chunks — otherwise the identity above is vacuous.
    assert!(any_parallel_wave, "no configuration ever ran a parallel wave");
}

#[test]
fn repeated_parallel_runs_are_bit_identical() {
    // Same engine, same dataset, executed twice at intra threads 4:
    // every counter — including the execution-shape record — and every
    // score bit must repeat exactly.
    let engine = Tkij::with_cluster(
        TkijConfig::default()
            .with_granules(3)
            .with_reducers(2)
            .with_local_backend(LocalJoinBackend::Auto)
            .with_probe_chunk_items(CHUNK),
        ClusterConfig::default().with_intra_join_threads(4),
    );
    let dataset = engine.prepare(uniform_collections(3, 120, 777)).unwrap();
    let q = table1::q_sm(PredicateParams::P2);
    let a = engine.execute(&dataset, &q, 25).unwrap();
    let b = engine.execute(&dataset, &q, 25).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.intra_threads_used(), b.intra_threads_used(), "shape repeats too");
}
