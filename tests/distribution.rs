//! Workload-distribution invariants (paper §3.4), exercised through the
//! public facade. The DTB-vs-LPT claims of §4.2.2 are in
//! `paper_claims.rs`.

use tkij::core::{distribute, run_topbuckets};
use tkij::prelude::*;
use tkij::solver::SolverConfig;

fn setup(seed: u64, size: usize) -> (Tkij, PreparedDataset, Query) {
    let engine = Tkij::new(TkijConfig::default().with_granules(10).with_reducers(6));
    let dataset = engine.prepare(uniform_collections(3, size, seed)).unwrap();
    let q = table1::q_om(PredicateParams::P2);
    (engine, dataset, q)
}

#[test]
fn assignment_invariants_hold_for_both_policies() {
    let (_, dataset, q) = setup(11, 150);
    let (selected, _) =
        run_topbuckets(&q, &dataset.matrices, 100, Strategy::Loose, &SolverConfig::default(), 2);
    for policy in [DistributionPolicy::Dtb, DistributionPolicy::Lpt] {
        let a = distribute(&selected, policy, 6, &q, &dataset.matrices);
        // 1. Every combination lands on exactly one reducer.
        let total: usize = a.reducer_combos.iter().map(Vec::len).sum();
        assert_eq!(total, selected.len(), "{policy:?}");
        // 2. Every bucket of every combination is mapped to its reducer.
        for ci in 0..selected.len() {
            let rj = a.combo_reducer[ci];
            for (v, &b) in selected.buckets(ci).iter().enumerate() {
                assert!(
                    a.bucket_map[&(v as u16, b)].contains(&rj),
                    "{policy:?}: combo {ci} bucket not shipped"
                );
            }
        }
        // 3. Potential-result accounting is consistent.
        let sum: u128 = a.reducer_results.iter().sum();
        assert_eq!(sum, selected.total_results(), "{policy:?}");
        // 4. Replication ≥ 1 by definition.
        assert!(a.replication_factor >= 1.0 - 1e-12, "{policy:?}");
    }
}

#[test]
fn both_policies_yield_identical_final_scores() {
    let collections = uniform_collections(3, 120, 23);
    let q = table1::q_ss(PredicateParams::P2);
    let mut reference: Option<Vec<f64>> = None;
    for policy in [DistributionPolicy::Dtb, DistributionPolicy::Lpt] {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(10).with_reducers(6).with_distribution(policy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 20).unwrap();
        let scores: Vec<f64> = report.results.iter().map(|t| t.score).collect();
        match &reference {
            None => reference = Some(scores),
            Some(r) => {
                assert_eq!(r.len(), scores.len());
                for (a, b) in r.iter().zip(&scores) {
                    assert!((a - b).abs() < 1e-9, "{policy:?}");
                }
            }
        }
    }
}

#[test]
fn join_shuffle_matches_assignment_estimate() {
    let collections = uniform_collections(3, 90, 31);
    for policy in [DistributionPolicy::Dtb, DistributionPolicy::Lpt] {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(8).with_reducers(5).with_distribution(policy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &table1::q_oo(PredicateParams::P1), 7).unwrap();
        assert_eq!(
            report.join.total_shuffle_records(),
            report.distribution.estimated_shuffle_records,
            "{policy:?}"
        );
        assert_eq!(report.join.shuffle_records.len(), 5);
    }
}

#[test]
fn reducer_count_does_not_change_results() {
    let collections = uniform_collections(3, 70, 53);
    let q = table1::q_fb(PredicateParams::P1);
    let mut reference: Option<Vec<f64>> = None;
    for r in [1usize, 2, 7, 24, 64] {
        let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(r));
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 9).unwrap();
        let scores: Vec<f64> = report.results.iter().map(|t| t.score).collect();
        match &reference {
            None => reference = Some(scores),
            Some(rf) => {
                assert_eq!(rf.len(), scores.len(), "r={r}");
                for (a, b) in rf.iter().zip(&scores) {
                    assert!((a - b).abs() < 1e-9, "r={r}");
                }
            }
        }
    }
}
