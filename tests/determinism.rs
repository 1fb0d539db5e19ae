//! The determinism lattice: every deterministic field of the
//! `ExecutionReport` (results with ids, per-reducer join telemetry, the
//! TopBuckets, distribution and shuffle counters — everything except wall
//! timings) must be bit-identical across the shuffle transport and the
//! task-thread count, for all three TopBuckets strategies, plus
//! repeat-run bit-identity.
//!
//! One reference per strategy, [`REFERENCE`], and every cell of
//! {in-memory, serialized at spill threshold 0} × [`THREADS`] must
//! reproduce it. The `*.shuffle.*` spill lanes are dropped from the
//! comparison because they describe the transport rather than the work
//! (zero in memory, non-zero on the serialized transport;
//! `tests/shuffle_spill_determinism.rs` pins their invariants).
//!
//! This is the contract that makes the parallel and vectorised paths safe
//! to land: the reduce tasks, each one sequential rank-join, and the spill
//! flush schedule are pure functions of the data and the config — threads
//! and transports only execute the fixed plan.

use tkij::core::Strategy;
use tkij::mapreduce::{ShuffleMode, SpillSinkKind};
use tkij::prelude::*;

const K: usize = 30;

/// One lattice cell: shuffle transport and `worker_threads`.
type Cell = (ShuffleMode, usize);

/// The cell every other one is compared against: in-memory transport,
/// tasks run sequentially.
const REFERENCE: Cell = (ShuffleMode::InMemory, 0);

/// The serialized transport at its most hostile flush schedule: one
/// spill segment per record.
const SPILL: ShuffleMode =
    ShuffleMode::Serialized { spill_threshold_bytes: 0, sink: SpillSinkKind::Memory };

/// The thread axis: sequential, one worker, and 2 and 4 workers running
/// the 3 reduce tasks concurrently.
const THREADS: [usize; 4] = [0, 1, 2, 4];

/// The fingerprint without the transport-describing spill lanes.
fn fingerprint(report: &ExecutionReport) -> Fingerprint {
    let mut fp = report.fingerprint();
    fp.counters.retain(|(name, _)| !name.contains(".shuffle."));
    fp
}

fn engine(strategy: Strategy, cell: Cell) -> Tkij {
    let (shuffle, worker_threads) = cell;
    Tkij::with_cluster(
        TkijConfig::default().with_granules(4).with_reducers(3).with_strategy(strategy),
        ClusterConfig { worker_threads, shuffle, ..Default::default() },
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
    let run = |cell| engine(strategy, cell).execute(&dataset, &q, K).unwrap();
    let reference = run(REFERENCE);
    let reference_fp = fingerprint(&reference);
    assert!(!reference_fp.results.is_empty(), "{sname}: produces results");
    // The worker axis must have concurrent join work to schedule —
    // otherwise the identity below is vacuous.
    let busy_reducers = reference.local_stats.iter().filter(|s| s.combos_processed > 0).count();
    assert!(busy_reducers >= 2, "{sname}: only {busy_reducers} reducer(s) processed combinations");
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
        }
    }
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
    // Same engine, same dataset, executed twice on 2 workers with every
    // record spilled: every counter — spill lanes included — and every
    // score bit must repeat exactly.
    let engine = engine(Strategy::Loose, (SPILL, 2));
    let dataset = dataset();
    let q = table1::q_sm(PredicateParams::P2);
    let a = engine.execute(&dataset, &q, K).unwrap();
    let b = engine.execute(&dataset, &q, K).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.shuffle_stats().records_spilled > 0, "the serialized transport spills");
}
