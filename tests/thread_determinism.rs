//! Thread-count determinism of the full pipeline's **work counters**:
//! every deterministic field of the `ExecutionReport` (results, local
//! join telemetry, TopBuckets and distribution phase counters, shuffle
//! accounting — everything except wall timings) must be bit-identical
//! for `worker_threads` ∈ {0, 1, 2, 4} on a seeded synthetic workload —
//! and, since the vectorized-lanes rework, across the sweep scan kinds
//! `{Scalar, Chunked}` too: the scan kind is a pure wall-clock knob, so
//! one reference fingerprint must cover the whole
//! kind × thread-count grid.
//!
//! This is what makes parallelism/vectorization work safe to land: any
//! scheduling- or lane-dependent counter or result drift fails here
//! before it can hide behind timing noise.

use tkij::prelude::*;

fn run_with_threads(backend: LocalJoinBackend, scan: SweepScanKind, threads: usize) -> Fingerprint {
    let engine = Tkij::with_cluster(
        TkijConfig::default()
            .with_granules(6)
            .with_reducers(4)
            .with_local_backend(backend)
            .with_sweep_scan(scan),
        ClusterConfig { worker_threads: threads, ..Default::default() },
    );
    let dataset = engine.prepare(uniform_collections(3, 100, 555)).unwrap();
    let q = table1::q_om(PredicateParams::P1);
    engine.execute(&dataset, &q, 10).unwrap().fingerprint()
}

#[test]
fn work_counters_identical_across_worker_threads_and_scan_kinds() {
    for (name, backend) in LocalJoinBackend::all() {
        // One reference per backend: the scalar scan kind, sequential.
        // Every (scan kind, thread count) cell must reproduce it bit
        // for bit — the scan kind may not shift a single counter even
        // on the R-tree backend (where it is simply unused).
        let reference = run_with_threads(backend, SweepScanKind::Scalar, 0);
        assert!(!reference.results.is_empty(), "{name}: workload produces results");
        assert!(reference.local_stats.iter().any(|s| s.index_probes > 0), "{name}");
        for (sname, scan) in SweepScanKind::all() {
            for threads in [0usize, 1, 2, 4] {
                if scan == SweepScanKind::Scalar && threads == 0 {
                    continue; // the reference itself
                }
                let fp = run_with_threads(backend, scan, threads);
                assert_eq!(
                    fp, reference,
                    "{name}/{sname}: work counters diverge from scalar worker_threads=0 \
                     at worker_threads={threads}"
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same engine, same dataset, executed twice: every counter (and every
    // score bit) must repeat exactly — the property bench_smoke's exact
    // baseline keys rely on.
    let engine = Tkij::new(
        TkijConfig::default()
            .with_granules(5)
            .with_reducers(3)
            .with_local_backend(LocalJoinBackend::Auto),
    );
    let dataset = engine.prepare(uniform_collections(3, 80, 777)).unwrap();
    let q = table1::q_sm(PredicateParams::P2);
    let a = engine.execute(&dataset, &q, 7).unwrap().fingerprint();
    let b = engine.execute(&dataset, &q, 7).unwrap().fingerprint();
    assert_eq!(a, b);
}
