//! Out-of-core shuffle determinism: the serialized spill transport must
//! be **bit-transparent** — identical results (ids and score bits),
//! identical work counters, identical statistics — to the in-memory
//! transport on the full grid of spill thresholds `{0, 1 KiB, unbounded}`
//! × `worker_threads ∈ {0, 2}`, for both spill
//! sinks (in-memory segments and a real temp directory), plus repeat-run
//! bit-identity of the spill counters themselves.
//!
//! The invariants the `ShuffleStats` counters are pinned to:
//!
//! * `records_spilled` equals the job's total shuffle records under any
//!   threshold (every record is serialized; the threshold only chooses
//!   segment boundaries) and never varies with threads;
//! * `checksum` (xor-folded per-frame CRC-32) is invariant across
//!   thresholds, threads, and sinks — segmentation cannot change frame
//!   payloads;
//! * `spill_segments` / `spill_bytes` vary with the threshold but never
//!   with threads — the flush schedule is a pure function of the data.

use tkij::mapreduce::{ShuffleMode, ShuffleStats, SpillSinkKind};
use tkij::prelude::*;

/// One full pipeline run: the shared report fingerprint (join and merge
/// spill lanes included) plus the two lanes only this battery has — the
/// collected statistics, and the statistics job's counters appended to
/// `report.counters` as `stats.<counter>` beside the `join.`/`merge.`
/// lanes (no report carries them).
#[derive(Debug, Clone, PartialEq)]
struct SpillRun {
    report: Fingerprint,
    matrices: Vec<tkij::temporal::bucket::BucketMatrix>,
}

impl SpillRun {
    fn counter(&self, key: &str) -> u64 {
        let lane = self.report.counters.iter().find(|(name, _)| name == key);
        lane.unwrap_or_else(|| panic!("no counter `{key}`")).1
    }

    /// One `ShuffleStats` counter of one job (`stats`, `join`, `merge`).
    fn spill(&self, job: &str, counter: &str) -> u64 {
        self.counter(&format!("{job}.shuffle.{counter}"))
    }

    /// Every `ShuffleStats` lane of the three jobs.
    fn spill_lanes(&self) -> Vec<&(String, u64)> {
        self.report.counters.iter().filter(|(name, _)| name.contains(".shuffle.")).collect()
    }
}

/// One full pipeline run (prepare + execute) on a fixed seeded workload
/// under an explicit shuffle mode.
fn run(threads: usize, shuffle: ShuffleMode) -> SpillRun {
    let engine = Tkij::with_cluster(
        TkijConfig::default().with_granules(6).with_reducers(4),
        ClusterConfig { worker_threads: threads, shuffle, ..Default::default() },
    );
    let dataset = engine.prepare(uniform_collections(3, 100, 4242)).unwrap();
    let q = table1::q_om(PredicateParams::P1);
    let mut report = engine.execute(&dataset, &q, 10).unwrap().fingerprint();
    dataset
        .stats_metrics
        .visit(&mut |name, value| report.counters.push((format!("stats.{name}"), value)));
    SpillRun { report, matrices: dataset.matrices.clone() }
}

/// A run with the spill lanes dropped, for cross-transport comparison:
/// everything else must be bit-identical.
fn sans_spill(run: &SpillRun) -> SpillRun {
    let mut run = run.clone();
    run.report.counters.retain(|(name, _)| !name.contains(".shuffle."));
    run
}

const THRESHOLDS: [u64; 3] = [0, 1024, u64::MAX];

fn serialized(threshold: u64) -> ShuffleMode {
    ShuffleMode::Serialized { spill_threshold_bytes: threshold, sink: SpillSinkKind::Memory }
}

#[test]
fn spill_grid_is_bit_identical_to_in_memory() {
    let reference = run(0, ShuffleMode::InMemory);
    assert!(!reference.report.results.is_empty(), "workload produces results");
    assert!(
        reference.spill_lanes().iter().all(|(_, value)| *value == 0),
        "the in-memory transport spills nothing"
    );
    // In-memory is thread-invariant (re-pinned here so the serialized
    // cells below compare against a battle-tested reference).
    assert_eq!(run(2, ShuffleMode::InMemory), reference, "in-memory");

    let mut checksums = Vec::new();
    for threshold in THRESHOLDS {
        let mut per_thread = Vec::new();
        for threads in [0usize, 2] {
            let fp = run(threads, serialized(threshold));
            assert_eq!(
                sans_spill(&fp),
                sans_spill(&reference),
                "serialized shuffle (threshold {threshold}, threads {threads}) changed a result \
                 or work counter"
            );
            for job in ["stats", "join", "merge"] {
                assert!(
                    fp.spill(job, "records_spilled") > 0,
                    "{job}: serialization spills every record"
                );
                assert!(
                    fp.spill(job, "spill_segments") > 0 && fp.spill(job, "spill_bytes") > 0,
                    "{job}: segments are accounted"
                );
            }
            // Every shuffled record serializes, regardless of threshold.
            for job in ["join", "merge"] {
                assert_eq!(
                    fp.spill(job, "records_spilled"),
                    reference.counter(&format!("{job}.shuffle_records")),
                    "{job} spill count"
                );
            }
            per_thread.push(fp);
        }
        // The flush schedule is data-determined: segment/byte counts may
        // depend on the threshold, never on the thread knob.
        assert_eq!(
            per_thread[0].spill_lanes(),
            per_thread[1].spill_lanes(),
            "spill counters drifted across worker_threads at threshold {threshold}"
        );
        checksums.push((
            per_thread[0].spill("stats", "checksum"),
            per_thread[0].spill("join", "checksum"),
        ));
    }
    // Xor-folded frame CRCs are segmentation-invariant.
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "shuffle checksum varies with the spill threshold: {checksums:?}"
    );
}

#[test]
fn threshold_extremes_bound_the_segment_counts() {
    let fine = run(0, serialized(0));
    let coarse = run(0, serialized(u64::MAX));
    for job in ["join", "merge"] {
        // Threshold 0 flushes after every record: one segment each.
        assert_eq!(
            fine.spill(job, "spill_segments"),
            fine.spill(job, "records_spilled"),
            "{job}: threshold 0 makes a segment per record"
        );
        // Unbounded buffering flushes once per nonempty (task, partition).
        assert!(
            coarse.spill(job, "spill_segments") < fine.spill(job, "spill_segments"),
            "{job}: unbounded buffering coalesces segments"
        );
        assert_eq!(
            coarse.spill(job, "records_spilled"),
            fine.spill(job, "records_spilled"),
            "{job}: the threshold never changes what is spilled"
        );
        // Per-segment headers make finer spilling strictly larger on disk.
        assert!(
            fine.spill(job, "spill_bytes") > coarse.spill(job, "spill_bytes"),
            "{job}: segment headers cost bytes"
        );
    }
}

#[test]
fn temp_dir_sink_matches_the_memory_sink_bit_for_bit() {
    for threshold in [0u64, 1024] {
        let mem = run(2, serialized(threshold));
        let disk = run(
            2,
            ShuffleMode::Serialized {
                spill_threshold_bytes: threshold,
                sink: SpillSinkKind::TempDir,
            },
        );
        // Full fingerprint equality — spill counters and checksums
        // included — between in-memory segments and real files.
        assert_eq!(mem, disk, "sinks diverge at threshold {threshold}");
    }
}

#[test]
fn repeated_spill_runs_are_bit_identical() {
    let a = run(2, serialized(1024));
    let b = run(2, serialized(1024));
    assert_eq!(a, b);
}

#[test]
fn report_shuffle_stats_merges_the_online_jobs() {
    // The `ExecutionReport::shuffle_stats` accessor: summed spill
    // counters, xor-folded checksum, join ⊕ merge.
    let engine = Tkij::with_cluster(
        TkijConfig::default().with_granules(6).with_reducers(4),
        ClusterConfig { shuffle: serialized(0), ..Default::default() },
    );
    let dataset = engine.prepare(uniform_collections(3, 100, 4242)).unwrap();
    let q = table1::q_om(PredicateParams::P1);
    let report = engine.execute(&dataset, &q, 10).unwrap();
    let merged = report.shuffle_stats();
    assert_eq!(
        merged.records_spilled,
        report.join.shuffle.records_spilled + report.merge.shuffle.records_spilled
    );
    assert_eq!(
        merged.spill_segments,
        report.join.shuffle.spill_segments + report.merge.shuffle.spill_segments
    );
    assert_eq!(
        merged.spill_bytes,
        report.join.shuffle.spill_bytes + report.merge.shuffle.spill_bytes
    );
    assert_eq!(merged.checksum, report.join.shuffle.checksum ^ report.merge.shuffle.checksum);
    assert_ne!(merged, ShuffleStats::default());
}
