//! Consistency between the Boolean competitors (RCCIS, All-Matrix) and
//! the exhaustive Boolean oracle (paper §4.2.5's comparison
//! methodology). TKIJ-PB against them is in `paper_claims.rs`.

use tkij::baselines::{feasible_signatures, run_all_matrix, run_rccis};
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::prelude::*;

/// Dense synthetic data so colocation matches exist in quantity.
fn dense(m: usize, size: usize, seed: u64) -> Vec<IntervalCollection> {
    (0..m as u32)
        .map(|i| {
            uniform_collection(
                CollectionId(i),
                &SyntheticConfig { size, start_range: (0, 2_000), length_range: (1, 100), seed },
            )
        })
        .collect()
}

#[test]
fn rccis_and_oracle_agree_on_every_colocation_query() {
    let collections = dense(3, 90, 5);
    let cluster = ClusterConfig::default();
    for (name, q) in [
        ("Qo,o", table1::q_oo(PredicateParams::PB)),
        ("Qf,f", table1::q_ff(PredicateParams::PB)),
        ("Qs,s", table1::q_ss(PredicateParams::PB)),
        ("Qs,m", table1::q_sm(PredicateParams::PB)),
        ("Qs,f,m", table1::q_sfm(PredicateParams::PB)),
    ] {
        let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_boolean(&q, &refs);
        let report = run_rccis(&q, &collections, usize::MAX, 12, &cluster).expect(name);
        let mut got: Vec<Vec<u64>> = report.results.iter().map(|t| t.ids.clone()).collect();
        got.sort();
        assert_eq!(got, expected, "{name}");
    }
}

#[test]
fn all_matrix_and_oracle_agree_on_every_sequence_query() {
    let collections = dense(3, 70, 6);
    let avg = collections[0].avg_length();
    let cluster = ClusterConfig::default();
    for (name, q) in [
        ("Qb,b", table1::q_bb(PredicateParams::PB)),
        ("Qb*", table1::q_b_star(3, PredicateParams::PB)),
        ("QjB,jB", table1::q_jbjb(PredicateParams::PB, avg)),
    ] {
        let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
        let expected = naive_boolean(&q, &refs);
        let report = run_all_matrix(&q, &collections, usize::MAX, 4, &cluster).expect(name);
        let mut got: Vec<Vec<u64>> = report.results.iter().map(|t| t.ids.clone()).collect();
        got.sort();
        assert_eq!(got, expected, "{name}");
    }
}

#[test]
fn all_matrix_reducer_grid_matches_paper_formula() {
    // Chain queries: the number of reducers is the number of
    // non-decreasing granule triples (the paper's 20 at g = 4, n = 3).
    let q = table1::q_bb(PredicateParams::PB);
    assert_eq!(feasible_signatures(&q, 4).len(), 20);
    assert_eq!(feasible_signatures(&q, 2).len(), 4);
    let q4 = {
        use tkij::temporal::predicate::PredicateKind as K;
        // 4-way before chain.
        let p = PredicateParams::PB;
        Query::new(
            (0..4).map(CollectionId).collect(),
            (0..3)
                .map(|i| QueryEdge {
                    src: i,
                    dst: i + 1,
                    predicate: TemporalPredicate::from_kind(K::Before, p, 0),
                })
                .collect(),
            Aggregation::NormalizedSum,
        )
        .unwrap()
    };
    // Multisets of size 4 from 4 granules: C(7, 4) = 35.
    assert_eq!(feasible_signatures(&q4, 4).len(), 35);
}

#[test]
fn baselines_report_phase_metrics() {
    let collections = dense(3, 60, 21);
    let rccis = run_rccis(
        &table1::q_oo(PredicateParams::PB),
        &collections,
        50,
        8,
        &ClusterConfig::default(),
    )
    .unwrap();
    assert_eq!(rccis.phases.len(), 2, "cascade: one stage per extra vertex");
    assert!(rccis.phases.iter().all(|(_, m)| m.total_shuffle_records() > 0));

    let am = run_all_matrix(
        &table1::q_bb(PredicateParams::PB),
        &collections,
        50,
        4,
        &ClusterConfig::default(),
    )
    .unwrap();
    assert_eq!(am.phases.len(), 1);
    assert_eq!(am.phases[0].1.reduce_durations.len(), 20);
}
