//! Cross-strategy agreement and TopBuckets behavior (paper §3.3, §4.2.3).

use tkij::prelude::*;

fn scores(report: &ExecutionReport) -> Vec<f64> {
    report.results.iter().map(|t| t.score).collect()
}

#[test]
fn all_strategies_return_identical_scores() {
    let collections = uniform_collections(3, 55, 70);
    let q = table1::q_sfm(PredicateParams::P1);
    let mut reference: Option<Vec<f64>> = None;
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(6).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 9).unwrap();
        let s = scores(&report);
        match &reference {
            None => reference = Some(s),
            Some(r) => {
                assert_eq!(r.len(), s.len(), "{name}");
                for (a, b) in r.iter().zip(&s) {
                    assert!((a - b).abs() < 1e-9, "{name}");
                }
            }
        }
    }
}

#[test]
fn two_phase_refinement_never_grows_the_selection() {
    // two-phase = loose selection + exact refinement + re-selection, so
    // |Ω_{k,S}| can only shrink or stay equal; brute-force (exact bounds
    // from the start) is at least as tight as loose.
    let collections = uniform_collections(3, 120, 41);
    let q = table1::q_m_star(3, PredicateParams::P1);
    let mut selected = std::collections::BTreeMap::new();
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(8).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        selected.insert(name, (report.topbuckets.selected, report.topbuckets.candidates));
    }
    let (loose, cand_l) = selected["loose"];
    let (two, cand_t) = selected["two-phase"];
    let (brute, cand_b) = selected["brute-force"];
    assert_eq!(cand_l, cand_t);
    assert_eq!(cand_l, cand_b);
    assert!(two <= loose, "two-phase must not select more than loose ({two} vs {loose})");
    assert!(brute <= loose, "brute-force bounds are at least as tight ({brute} vs {loose})");
}

#[test]
fn topbuckets_worker_partitioning_is_transparent() {
    let collections = uniform_collections(3, 80, 3);
    let q = table1::q_om(PredicateParams::P2);
    let mut reference: Option<Vec<f64>> = None;
    for workers in [1usize, 2, 6, 64] {
        let mut cfg = TkijConfig::default().with_granules(7).with_reducers(4);
        cfg.topbuckets_workers = workers;
        let engine = Tkij::new(cfg);
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 8).unwrap();
        let s = scores(&report);
        match &reference {
            None => reference = Some(s),
            Some(r) => {
                for (a, b) in r.iter().zip(&s) {
                    assert!((a - b).abs() < 1e-9, "workers={workers}");
                }
            }
        }
    }
}
