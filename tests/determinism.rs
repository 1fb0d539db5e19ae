//! The determinism lattice: every deterministic field of the
//! `ExecutionReport` (results with ids, per-reducer join telemetry, the
//! TopBuckets, distribution and shuffle counters — everything except wall
//! timings) must be bit-identical across the shuffle transport and both
//! thread layers, for all three TopBuckets strategies, plus repeat-run
//! bit-identity.
//!
//! One reference per strategy, [`REFERENCE`], and every cell of
//! {in-memory, serialized at spill threshold 0} × [`THREADS`] must
//! reproduce it. Two fields are dropped from the
//! comparison because they describe the cell rather than the work: the
//! `*.shuffle.*` spill lanes (zero in memory, non-zero on the serialized
//! transport; `tests/shuffle_spill_determinism.rs` pins their invariants)
//! and the execution-shape record `intra_threads_used`.
//!
//! This is the contract that makes the parallel and vectorised paths safe
//! to land: the chunk schedule, wave boundaries, shared-bound publication
//! points and spill flush schedule are pure functions of the data and the
//! config — threads and transports only execute the fixed plan.

use tkij::core::Strategy;
use tkij::mapreduce::{ShuffleMode, SpillSinkKind};
use tkij::prelude::*;

/// A small chunk size so the seeded workload splits every hot candidate
/// run into many chunks and the wave machinery actually engages.
const CHUNK: usize = 16;
const K: usize = 30;

/// One lattice cell: shuffle transport and (`worker_threads`,
/// `intra_join_threads`).
type Cell = (ShuffleMode, (usize, usize));

/// The cell every other one is compared against: in-memory transport,
/// both thread layers sequential.
const REFERENCE: Cell = (ShuffleMode::InMemory, (0, 0));

/// The serialized transport at its most hostile flush schedule: one
/// spill segment per record.
const SPILL: ShuffleMode =
    ShuffleMode::Serialized { spill_threshold_bytes: 0, sink: SpillSinkKind::Memory };

/// The thread axis: the outer layer alone, the inner layer alone, and
/// (2, 4) — with 3 reducers, 2 concurrent reduce tasks × 2 chunk workers
/// each, both layers running threads.
const THREADS: [(usize, usize); 7] = [(0, 0), (1, 0), (2, 0), (4, 0), (0, 2), (0, 4), (2, 4)];

/// The fingerprint with the two cell-describing fields cleared: the spill
/// lanes and the execution-shape record.
fn fingerprint(report: &ExecutionReport) -> Fingerprint {
    let mut fp = report.fingerprint();
    fp.counters.retain(|(name, _)| !name.contains(".shuffle."));
    for stats in &mut fp.local_stats {
        stats.intra_threads_used = 0;
    }
    fp
}

fn engine(strategy: Strategy, cell: Cell) -> Tkij {
    let (shuffle, (worker_threads, intra_join_threads)) = cell;
    Tkij::with_cluster(
        TkijConfig::default()
            .with_granules(4)
            .with_reducers(3)
            .with_strategy(strategy)
            .with_probe_chunk_items(CHUNK),
        ClusterConfig { worker_threads, intra_join_threads, shuffle, ..Default::default() },
    )
}

fn dataset() -> PreparedDataset {
    Tkij::new(TkijConfig::default().with_granules(4))
        .prepare(uniform_collections(3, 150, 909))
        .unwrap()
}

/// Runs the lattice for one strategy. One test per strategy, so the
/// harness spreads the three over the host's cores.
fn assert_lattice(strategy: Strategy) {
    let dataset = dataset();
    let q = table1::q_om(PredicateParams::P1);
    let sname = strategy.name();
    let mut any_parallel_wave = false;
    let run = |cell| engine(strategy, cell).execute(&dataset, &q, K).unwrap();
    let reference = run(REFERENCE);
    let reference_fp = fingerprint(&reference);
    assert!(!reference_fp.results.is_empty(), "{sname}: produces results");
    assert!(reference.probe_chunks() > 0, "{sname}: chunks are counted");
    assert_eq!(
        reference.intra_threads_used(),
        0,
        "{sname}: sequential execution spawns no chunk workers"
    );
    for shuffle in [ShuffleMode::InMemory, SPILL] {
        for threads in THREADS {
            let cell = (shuffle, threads);
            if cell == REFERENCE {
                continue;
            }
            let report = run(cell);
            assert_eq!(
                fingerprint(&report),
                reference_fp,
                "{sname}: report at {cell:?} diverges from the reference"
            );
            assert_eq!(
                report.shuffle_stats().records_spilled > 0,
                shuffle == SPILL,
                "{sname} at {cell:?}: records spill on the serialized transport only"
            );
            any_parallel_wave |= report.intra_threads_used() >= 2;
        }
    }
    // The lattice must actually exercise the parallel path, not just the
    // inline chunks — otherwise the identity above is vacuous.
    assert!(any_parallel_wave, "{sname}: no cell ever ran a parallel wave");
}

#[test]
fn brute_force_lattice_is_bit_identical() {
    assert_lattice(Strategy::BruteForce);
}

#[test]
fn two_phase_lattice_is_bit_identical() {
    assert_lattice(Strategy::TwoPhase);
}

#[test]
fn loose_lattice_is_bit_identical() {
    assert_lattice(Strategy::Loose);
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same engine, same dataset, executed twice with both thread layers
    // running and every record spilled: every counter — spill lanes and
    // the execution-shape record included — and every score bit must
    // repeat exactly.
    let engine = engine(Strategy::Loose, (SPILL, (2, 4)));
    let dataset = dataset();
    let q = table1::q_sm(PredicateParams::P2);
    let a = engine.execute(&dataset, &q, K).unwrap();
    let b = engine.execute(&dataset, &q, K).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.shuffle_stats().records_spilled > 0, "the serialized transport spills");
}
