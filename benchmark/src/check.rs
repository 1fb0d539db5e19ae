//! Output checking: every answer the benchmark times is also verified.
//!
//! * A scaled-down twin of each workload is checked against the naive
//!   oracle ([`tkij_core::naive_topk`]).
//! * At full size every result must be complete, ordered, and genuine
//!   (each score recomputed from the tuple's actual intervals), and
//!   every repetition, pass and served answer must be bit-identical —
//!   ids, score bits and work counters — to the first.

use tkij_core::{
    naive_topk, Assignment, ExecutionReport, LocalJoinStats, PreparedDataset, ReducerOutput,
    TopBucketsStats,
};
use tkij_mapreduce::JobMetrics;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

/// The bit-comparable essence of one execution: the results plus every
/// deterministic work counter the per-layer report reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `(ids, score bits)` of each result, best first.
    pub results: Vec<(Vec<u64>, u64)>,
    /// Per-reducer local join telemetry.
    pub local_stats: Vec<LocalJoinStats>,
    /// TopBuckets candidates, selected, pruned locally, solver calls.
    pub topbuckets: [u64; 4],
    /// DTB candidacies scored, cap fallbacks, estimated shuffle records.
    pub distribution: [u64; 3],
    /// Join job: shuffle records and bytes, spilled records, segments,
    /// spill bytes, checksum.
    pub join: [u64; 6],
    /// Merge job: shuffle records and bytes.
    pub merge: [u64; 2],
}

impl Fingerprint {
    fn new(
        results: &[MatchTuple],
        local_stats: Vec<LocalJoinStats>,
        topbuckets: &TopBucketsStats,
        distribution: [u64; 3],
        join: &JobMetrics,
        merge: &JobMetrics,
    ) -> Self {
        Fingerprint {
            results: results.iter().map(|t| (t.ids.clone(), t.score.to_bits())).collect(),
            local_stats,
            topbuckets: [
                topbuckets.candidates as u64,
                topbuckets.selected as u64,
                topbuckets.pruned_local as u64,
                topbuckets.solver_calls as u64,
            ],
            distribution,
            join: [
                join.total_shuffle_records(),
                join.total_shuffle_bytes(),
                join.shuffle.records_spilled,
                join.shuffle.spill_segments,
                join.shuffle.spill_bytes,
                join.shuffle.checksum,
            ],
            merge: [merge.total_shuffle_records(), merge.total_shuffle_bytes()],
        }
    }

    /// The fingerprint of a pipeline recomposed from the public phase
    /// functions.
    pub fn from_phases(
        topbuckets: &TopBucketsStats,
        assignment: &Assignment,
        outputs: &[ReducerOutput],
        join: &JobMetrics,
        merge: &JobMetrics,
        results: &[MatchTuple],
    ) -> Self {
        Fingerprint::new(
            results,
            outputs.iter().map(|o| o.stats.clone()).collect(),
            topbuckets,
            [
                assignment.assignments_scored,
                assignment.cap_fallbacks,
                assignment.estimated_shuffle_records,
            ],
            join,
            merge,
        )
    }

    /// The fingerprint of an engine report.
    pub fn of(report: &ExecutionReport) -> Self {
        Fingerprint::new(
            &report.results,
            report.local_stats.clone(),
            &report.topbuckets,
            [
                report.distribution.assignments_scored,
                report.distribution.cap_fallbacks,
                report.distribution.estimated_shuffle_records,
            ],
            &report.join,
            &report.merge,
        )
    }
}

/// The interval with id `id` in collection `c` (generators number
/// intervals by position; anything else falls back to a search).
fn interval_by_id(dataset: &PreparedDataset, c: usize, id: u64) -> Option<Interval> {
    let intervals = dataset.collections[c].intervals();
    match intervals.get(id as usize) {
        Some(iv) if iv.id == id => Some(*iv),
        _ => intervals.iter().find(|iv| iv.id == id).copied(),
    }
}

/// Structural check of one full-size answer: `k` results (or every
/// tuple there is), scores non-increasing, and each score equal —
/// bitwise — to the query's score of the tuple's actual intervals.
pub fn verify_results(
    query: &Query,
    dataset: &PreparedDataset,
    results: &[MatchTuple],
    k: usize,
) -> Result<(), String> {
    let space: u128 =
        query.vertices.iter().map(|c| dataset.collections[c.0 as usize].len() as u128).product();
    let expected = (k as u128).min(space) as usize;
    if results.len() != expected {
        return Err(format!("{} results, expected {expected}", results.len()));
    }
    if let Some(w) = results.windows(2).find(|w| w[0].score < w[1].score) {
        return Err(format!("scores increase: {} then {}", w[0].score, w[1].score));
    }
    for t in results {
        if t.ids.len() != query.vertices.len() {
            return Err(format!("tuple {:?} has the wrong arity", t.ids));
        }
        let mut tuple = Vec::with_capacity(t.ids.len());
        for (id, c) in t.ids.iter().zip(&query.vertices) {
            tuple.push(
                interval_by_id(dataset, c.0 as usize, *id)
                    .ok_or_else(|| format!("tuple {:?} names an unknown interval", t.ids))?,
            );
        }
        let rescored = query.score_tuple(&tuple);
        if rescored.to_bits() != t.score.to_bits() {
            return Err(format!("tuple {:?} reports {} but scores {rescored}", t.ids, t.score));
        }
    }
    Ok(())
}

/// Oracle check of a scaled-down answer: the score sequence equals the
/// naive top-k's (ids may differ among equal scores — TopBuckets may
/// prune combinations that can only tie the k-th score), and every
/// tuple is genuine.
pub fn verify_against_oracle(
    query: &Query,
    dataset: &PreparedDataset,
    results: &[MatchTuple],
    k: usize,
) -> Result<(), String> {
    verify_results(query, dataset, results, k)?;
    let refs: Vec<_> = query.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
    let oracle = naive_topk(query, &refs, k);
    let got: Vec<u64> = results.iter().map(|t| t.score.to_bits()).collect();
    let want: Vec<u64> = oracle.iter().map(|t| t.score.to_bits()).collect();
    if got != want {
        return Err("score sequence differs from the naive oracle's".into());
    }
    Ok(())
}

/// Tally of checked queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries whose output was checked.
    pub attempted: u64,
    /// Queries that errored, returned a wrong/unsorted/short result, or
    /// diverged from their reference fingerprint.
    pub failed: u64,
}

impl Tally {
    /// Records one checked query; a failure's reason goes to stderr.
    pub fn record(&mut self, what: std::fmt::Arguments<'_>, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }

    /// Adds another tally (a client thread's) to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// `Ok` when `got` equals `reference`, else which part diverged.
pub fn same_fingerprint(got: &Fingerprint, reference: &Fingerprint) -> Result<(), String> {
    if got == reference {
        return Ok(());
    }
    let part = if got.results != reference.results {
        "results"
    } else if got.local_stats != reference.local_stats {
        "local-join counters"
    } else if got.topbuckets != reference.topbuckets {
        "TopBuckets counters"
    } else if got.distribution != reference.distribution {
        "distribution counters"
    } else {
        "shuffle counters"
    };
    Err(format!("{part} diverge from the reference run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, TWIN_K};

    fn twin() -> (Query, PreparedDataset, ExecutionReport) {
        let w = find("join-dense").unwrap();
        let engine = w.engine();
        let dataset = engine.prepare(w.twin_collections(11)).unwrap();
        let query = w.queries(0).remove(0).1;
        let report = engine.execute(&dataset, &query, TWIN_K).unwrap();
        (query, dataset, report)
    }

    #[test]
    fn a_correct_answer_passes_every_check() {
        let (query, dataset, report) = twin();
        assert_eq!(verify_against_oracle(&query, &dataset, &report.results, TWIN_K), Ok(()));
        assert_eq!(same_fingerprint(&Fingerprint::of(&report), &Fingerprint::of(&report)), Ok(()));
    }

    #[test]
    fn wrong_short_and_unsorted_answers_are_caught() {
        let (query, dataset, report) = twin();
        let mut forged = report.results.clone();
        forged[3].score = f64::from_bits(forged[3].score.to_bits() - 1);
        assert!(verify_results(&query, &dataset, &forged, TWIN_K).unwrap_err().contains("scores"));
        let short = &report.results[..TWIN_K - 1];
        assert!(verify_results(&query, &dataset, short, TWIN_K).unwrap_err().contains("expected"));
        let mut swapped = report.results.clone();
        swapped.swap(0, TWIN_K - 1);
        if swapped[0].score != swapped[TWIN_K - 1].score {
            assert!(verify_results(&query, &dataset, &swapped, TWIN_K).is_err());
        }
        let mut unknown = report.results.clone();
        unknown[0].ids[0] = u64::MAX;
        assert!(verify_results(&query, &dataset, &unknown, TWIN_K)
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn a_diverging_counter_is_named() {
        let (_, _, report) = twin();
        let reference = Fingerprint::of(&report);
        let mut drifted = reference.clone();
        drifted.topbuckets[3] += 1;
        assert!(same_fingerprint(&drifted, &reference).unwrap_err().contains("TopBuckets"));
        let mut drifted = reference.clone();
        drifted.results[0].1 ^= 1;
        assert!(same_fingerprint(&drifted, &reference).unwrap_err().contains("results"));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(format_args!("a"), Ok(()));
        t.record(format_args!("b"), Err("bad".into()));
        let mut sum = Tally { attempted: 1, failed: 0 };
        sum.absorb(t);
        assert_eq!(sum, Tally { attempted: 3, failed: 1 });
    }
}
