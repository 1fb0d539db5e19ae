//! The paper's evaluation claims (§4), each asserted as a shape — an
//! order, a monotone trend, a ratio floor — on deterministic work
//! counters at a scale that runs in seconds. Wall time is never read
//! here: the `benchmark/` suite measures it, and `crates/bench` keeps
//! the wall-clock halves of Figs. 10 and 11.
//!
//! A claim that does not reproduce stays as an `#[ignore]`d test whose
//! reason records the finding (README "Paper claims").

use std::collections::{BTreeMap, BTreeSet};
use tkij::baselines::{run_all_matrix, run_rccis};
use tkij::core::{all_pair_scores, distribute, run_topbuckets};
use tkij::datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij::datagen::{
    build_connections, connections_to_collection, generate_packets, sample_packets,
};
use tkij::prelude::*;
use tkij::solver::SolverConfig;

/// The driver-side plan of `query` on one collection of `size` uniform
/// intervals per vertex.
fn plan(config: TkijConfig, size: usize, seed: u64, query: &Query, k: usize) -> QueryPlan {
    let engine = Tkij::new(config);
    let dataset = engine.prepare(uniform_collections(query.n(), size, seed)).unwrap();
    engine.plan_query(&dataset, query, k).unwrap()
}

/// Dense synthetic data, so Boolean colocation matches exist in quantity.
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

/// A traffic connection collection built from a `fraction` sample of one
/// simulated packet log.
fn traffic_sample(sessions: usize, seed: u64, fraction: f64) -> IntervalCollection {
    let packets = generate_packets(&TrafficConfig::calibrated(sessions, seed));
    let connections = build_connections(&sample_packets(&packets, fraction, 999));
    connections_to_collection(CollectionId(0), &connections).0
}

#[test]
fn fig07_inequality_predicates_score_high_more_often() {
    // Fig. 7: the fewer equality constraints a predicate has, the more
    // pairs score high: before > overlaps > meets > starts.
    let p = PredicateParams::P1;
    let c1 = uniform_collection(CollectionId(0), &SyntheticConfig::paper(300, 71));
    let c2 = uniform_collection(CollectionId(1), &SyntheticConfig::paper(300, 72));
    let high: Vec<usize> = [
        TemporalPredicate::before(p),
        TemporalPredicate::overlaps(p),
        TemporalPredicate::meets(p),
        TemporalPredicate::starts(p),
    ]
    .iter()
    .map(|pred| all_pair_scores(pred, &c1, &c2).iter().take_while(|&&s| s >= 0.9).count())
    .collect();
    assert!(high.windows(2).all(|w| w[0] > w[1]), "scores >= 0.9: {high:?}");
}

#[test]
fn fig08_lpt_ships_more_records_than_dtb() {
    // §4.2.2: LPT ships more than DTB (the paper measures ≈ 43 % more;
    // here the gap is 20–30 %, so only the direction is asserted). On
    // Qb,b, where TopBuckets keeps one or two combinations, they agree.
    let ships = |query: &Query, policy| {
        let config = TkijConfig::default()
            .with_granules(20)
            .with_strategy(Strategy::Loose)
            .with_distribution(policy);
        plan(config, 200, 4242, query, 1000).assignment.estimated_shuffle_records
    };
    let p = PredicateParams::P2;
    for query in [table1::q_oo(p), table1::q_ff(p), table1::q_ss(p)] {
        let (lpt, dtb) =
            (ships(&query, DistributionPolicy::Lpt), ships(&query, DistributionPolicy::Dtb));
        assert!(lpt > dtb, "{}: LPT ships {lpt}, DTB {dtb}", query.name());
    }
    let bb = table1::q_bb(p);
    assert_eq!(ships(&bb, DistributionPolicy::Lpt), ships(&bb, DistributionPolicy::Dtb));
}

#[test]
#[ignore = "does not reproduce: on 3x200 P2, g = 12, 8 reducers, k = 100, DTB's minimum \
            reducer k-th score is below LPT's on Qf,f (0.19 vs 0.28) and Qs,s (0.03 vs 0.09)"]
fn fig08c_dtb_raises_the_minimum_reducer_kth_score() {
    // Fig. 8c: with DTB every reducer holds high-UB combinations, so the
    // lowest local k-th score across reducers is higher than with LPT.
    let collections = uniform_collections(3, 200, 4242);
    let p = PredicateParams::P2;
    for query in [table1::q_oo(p), table1::q_ff(p), table1::q_ss(p), table1::q_sfm(p)] {
        let min_kth = |policy| {
            let engine = Tkij::new(
                TkijConfig::default().with_granules(12).with_reducers(8).with_distribution(policy),
            );
            let dataset = engine.prepare(collections.clone()).unwrap();
            engine.execute(&dataset, &query, 100).unwrap().min_kth_score()
        };
        let (lpt, dtb) = (min_kth(DistributionPolicy::Lpt), min_kth(DistributionPolicy::Dtb));
        assert!(dtb >= lpt, "{}: DTB {dtb} vs LPT {lpt}", query.name());
    }
}

#[test]
fn dtb_spreads_high_ub_combos_more_evenly_than_lpt() {
    // The paper's core distribution claim (§4.2.2): DTB gives every
    // reducer a fair share of high-scoring combinations. We measure the
    // spread of the top-r combinations (by UB) across reducers.
    let engine = Tkij::new(TkijConfig::default().with_granules(10).with_reducers(6));
    let dataset = engine.prepare(uniform_collections(3, 400, 17)).unwrap();
    let q = table1::q_om(PredicateParams::P2);
    let (selected, _) =
        run_topbuckets(&q, &dataset.matrices, 1000, Strategy::Loose, &SolverConfig::default(), 2);
    let r = 6;
    assert!(selected.len() >= r, "the selection must cover every reducer");
    let order = selected.indices_by_ub_desc();
    let spread = |policy: DistributionPolicy| -> usize {
        let a = distribute(&selected, policy, r, &q, &dataset.matrices);
        let reducers: BTreeSet<u32> =
            order[..r].iter().map(|&i| a.combo_reducer[i as usize]).collect();
        reducers.len()
    };
    let dtb = spread(DistributionPolicy::Dtb);
    let lpt = spread(DistributionPolicy::Lpt);
    assert_eq!(dtb, r, "DTB must place the top-r UB combos on r distinct reducers");
    assert!(dtb >= lpt, "DTB spread {dtb} must dominate LPT spread {lpt}");
}

/// TopBuckets solver calls per strategy for a 3-vertex star query (Fig.
/// 9's setup at g = 6, |Ci| = 200).
fn star_solver_calls(star: fn(usize, PredicateParams) -> Query) -> BTreeMap<&'static str, usize> {
    let q = star(3, PredicateParams::P1);
    let engine = Tkij::new(TkijConfig::default().with_granules(6));
    let dataset = engine.prepare(uniform_collections(3, 200, 1312)).unwrap();
    Strategy::all()
        .into_iter()
        .map(|(name, strategy)| {
            let engine = Tkij::new(TkijConfig::default().with_granules(6).with_strategy(strategy));
            (name, engine.plan_query(&dataset, &q, 100).unwrap().topbuckets.solver_calls)
        })
        .collect()
}

type Star = (&'static str, fn(usize, PredicateParams) -> Query);
const STARS: [Star; 3] =
    [("Qb*", table1::q_b_star), ("Qo*", table1::q_o_star), ("Qm*", table1::q_m_star)];

#[test]
fn fig09_solver_calls_order_loose_two_phase_brute_force() {
    // Fig. 9: loose does the least planning work, brute-force the most,
    // two-phase (loose plus n-ary refinements) sits between.
    for (name, star) in STARS {
        let calls = star_solver_calls(star);
        assert!(
            calls["loose"] < calls["two-phase"] && calls["two-phase"] < calls["brute-force"],
            "{name}: {calls:?}"
        );
    }
}

#[test]
fn fig09_two_phase_refines_little_only_on_qb_star() {
    // Fig. 9: two-phase beats brute-force only on Qb*, where its first
    // phase prunes nearly everything; on Qo* and Qm* it refines a large
    // share of what brute-force bounds.
    for (name, star) in STARS {
        let calls = star_solver_calls(star);
        let refinements = calls["two-phase"] as f64 - calls["loose"] as f64;
        let share = refinements / calls["brute-force"] as f64;
        if name == "Qb*" {
            assert!(share <= 0.01, "{name}: refinements are {share:.3} of brute-force");
        } else {
            assert!(share >= 0.40, "{name}: refinements are {share:.3} of brute-force");
        }
    }
}

#[test]
fn fig09_brute_force_calls_grow_fastest_with_n() {
    // Fig. 9: brute-force's work explodes with the number of vertices n,
    // loose's grows with the number of edges only.
    let calls = |n: usize, strategy| {
        let config = TkijConfig::default().with_granules(6).with_strategy(strategy);
        plan(config, 200, 1312, &table1::q_b_star(n, PredicateParams::P1), 100)
            .topbuckets
            .solver_calls as f64
    };
    let brute = calls(4, Strategy::BruteForce) / calls(3, Strategy::BruteForce);
    let loose = calls(4, Strategy::Loose) / calls(3, Strategy::Loose);
    assert!(brute > 1.0 && brute > loose, "growth n = 3 -> 4: brute {brute:.2}, loose {loose:.2}");
}

#[test]
fn solver_effort_ranks_strategies() {
    // loose: O(|E|·pairs) solver calls; brute-force: one per combination
    // (n-ary); two-phase: loose + refinements. On a 3-vertex query with
    // b buckets per vertex: pairs = 2b², combos = b³ — brute-force must
    // invoke the solver more often than loose for b > 2·arity.
    let collections = uniform_collections(3, 200, 9);
    let q = table1::q_oo(PredicateParams::P1);
    let mut calls = BTreeMap::new();
    for (name, strategy) in Strategy::all() {
        let engine = Tkij::new(
            TkijConfig::default().with_granules(10).with_reducers(4).with_strategy(strategy),
        );
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        calls.insert(name, report.topbuckets.solver_calls);
    }
    assert!(
        calls["loose"] < calls["brute-force"],
        "loose {} must beat brute-force {}",
        calls["loose"],
        calls["brute-force"]
    );
    assert!(calls["two-phase"] >= calls["loose"], "two-phase refines on top of loose");
}

#[test]
fn fig10_pruning_and_candidates_rise_with_g() {
    // Fig. 10c: finer granules give tighter bounds, so a larger share of
    // the potential results is pruned, over more bounded combinations.
    let q = table1::q_om(PredicateParams::P1);
    let stats: Vec<(f64, usize)> = [4u32, 8, 16]
        .iter()
        .map(|&g| {
            let tb = plan(TkijConfig::default().with_granules(g), 200, 99, &q, 100).topbuckets;
            (tb.pruned_pct(), tb.candidates)
        })
        .collect();
    assert!(
        stats.windows(2).all(|w| w[1].0 > w[0].0 && w[1].1 > w[0].1),
        "(pruned %, candidates) at g = 4, 8, 16: {stats:?}"
    );
}

#[test]
fn pruning_improves_with_finer_granularity() {
    // Fig. 10c's driving effect: more granules → tighter buckets → larger
    // share of the potential result space pruned (for a fixed query/k).
    let collections = uniform_collections(3, 400, 21);
    let q = table1::q_om(PredicateParams::P1);
    let mut last = -1.0f64;
    for g in [5u32, 20, 60] {
        let engine = Tkij::new(TkijConfig::default().with_granules(g).with_reducers(6));
        let dataset = engine.prepare(collections.clone()).unwrap();
        let report = engine.execute(&dataset, &q, 5).unwrap();
        let pruned = report.pruned_pct();
        assert!(
            pruned >= last - 5.0,
            "pruning should not collapse as g grows: g={g}: {pruned} after {last}"
        );
        last = last.max(pruned);
    }
    assert!(last > 50.0, "fine granularity should prune most of the space, got {last}%");
}

#[test]
fn fig11a_topbuckets_keeps_one_combination_while_all_matrix_grows() {
    // Fig. 11a: on Qb,b TopBuckets selects a single combination, so
    // TKIJ's join shuffle stays small while All-Matrix's shuffle grows
    // linearly with |Ci|.
    let q = table1::q_bb(PredicateParams::PB);
    let mut all_matrix = Vec::new();
    for size in [200usize, 400, 800] {
        let collections = uniform_collections(3, size, 7001);
        let am = run_all_matrix(&q, &collections, 100, 4, &ClusterConfig::default()).unwrap();
        let am_records: u64 = am.phases.iter().map(|(_, m)| m.total_shuffle_records()).sum();
        let engine = Tkij::new(TkijConfig::default().with_granules(40));
        let dataset = engine.prepare(collections).unwrap();
        let report = engine.execute(&dataset, &q, 100).unwrap();
        assert_eq!(report.topbuckets.selected, 1, "|Ci| = {size}");
        let tkij_records = report.join.total_shuffle_records();
        assert!(
            am_records >= 20 * tkij_records,
            "|Ci| = {size}: All-Matrix ships {am_records}, TKIJ {tkij_records}"
        );
        all_matrix.push(am_records as f64);
    }
    for w in all_matrix.windows(2) {
        let growth = w[1] / w[0];
        assert!((1.8..=2.2).contains(&growth), "All-Matrix shuffle per doubling: {all_matrix:?}");
    }
}

#[test]
fn fig12_traffic_starts_are_skewed_and_lengths_heavy_tailed() {
    // Fig. 12: connection start points follow the daily activity (12a),
    // and lengths are heavy-tailed: the maximum is orders of magnitude
    // above the mean, which the long tail pulls well above the median
    // (12b).
    let cfg = TrafficConfig::calibrated(5_000, 2016);
    let (collection, _) = traffic_collection(&cfg, 1.0, CollectionId(0));
    let intervals = collection.intervals();
    let mut starts = [0usize; 12];
    for iv in intervals {
        starts[(iv.start * 12 / cfg.day) as usize] += 1;
    }
    let (busiest, quietest) = (starts.iter().max().unwrap(), starts.iter().min().unwrap());
    assert!(*busiest >= 4 * *quietest, "starts per 2-hour bin: {starts:?}");

    let mut lengths: Vec<i64> = intervals.iter().map(|iv| iv.length()).collect();
    lengths.sort_unstable();
    let mean = lengths.iter().sum::<i64>() as f64 / lengths.len() as f64;
    let (median, max) = (lengths[lengths.len() / 2] as f64, lengths[lengths.len() - 1] as f64);
    assert!(max >= 100.0 * mean && mean >= 2.0 * median, "median {median}, mean {mean}, max {max}");
}

#[test]
fn fig13_traffic_nonempty_buckets_grow_with_the_sample() {
    // Fig. 13: larger log samples fill more buckets (151 → 296 in the
    // paper), which is why traffic time grows faster than synthetic.
    let engine = Tkij::new(TkijConfig::default().with_granules(40));
    let buckets: Vec<usize> = [0.1, 0.2, 0.3]
        .iter()
        .map(|&fraction| {
            let dataset = engine.prepare(vec![traffic_sample(5_000, 313, fraction)]).unwrap();
            dataset.matrices[0].nonempty_len()
        })
        .collect();
    assert!(buckets.windows(2).all(|w| w[1] > w[0]), "non-empty buckets: {buckets:?}");
}

#[test]
#[ignore = "does not reproduce: on a 2,828-interval traffic sample |Omega_k,S| of Qo,o is \
            14,028 at k = 10 and at k = 10^4; every lower bound is 0 under loose bounds, so \
            kthResLB is 0 at every k (ROADMAP item 3)"]
fn fig14_qoo_selection_grows_with_k_on_traffic() {
    // Fig. 14: on traffic data the selected set of Qo,o jumps as k grows
    // (643 → 41,272 combinations in the paper).
    let base = traffic_sample(3_000, 717, 0.28);
    let collections =
        vec![base.clone(), base.copy_as(CollectionId(1)), base.copy_as(CollectionId(2))];
    let engine = Tkij::new(TkijConfig::default().with_granules(40));
    let dataset = engine.prepare(collections).unwrap();
    let q = table1::q_oo(PredicateParams::P3);
    let selected = |k| engine.plan_query(&dataset, &q, k).unwrap().topbuckets.selected;
    let (small, large) = (selected(10), selected(10_000));
    assert!(large > small, "|Omega_k,S| at k = 10: {small}, at k = 10^4: {large}");
}

#[test]
fn sec426_selection_is_the_same_for_every_k() {
    // §4.2.6: every selected combination covers far more potential
    // results than k, so the pruned selection does not change with k.
    let engine = Tkij::new(TkijConfig::default().with_granules(20));
    let dataset = engine.prepare(uniform_collections(3, 400, 2626)).unwrap();
    let p = PredicateParams::P1;
    for q in [table1::q_bb(p), table1::q_oo(p), table1::q_sfm(p), table1::q_fb(p), table1::q_om(p)]
    {
        let selection: Vec<(usize, usize)> = [10, 100, 1000]
            .iter()
            .map(|&k| {
                let tb = engine.plan_query(&dataset, &q, k).unwrap().topbuckets;
                (tb.selected, tb.candidates)
            })
            .collect();
        let (selected, candidates) = selection[0];
        assert!(
            selected < candidates && selection.iter().all(|&s| s == selection[0]),
            "{}: (selected, candidates) at k = 10, 100, 1000: {selection:?}",
            q.name()
        );
    }
}

#[test]
fn sec4_statistics_shuffle_is_independent_of_collection_size() {
    // §4 "Statistics collection": the job ships one g × g count matrix
    // per map task and collection, so its shuffle does not grow with
    // |Ci| (the paper's 28 s → 36 s is scan time, not shuffle).
    let shuffle: BTreeSet<(u64, u64)> = [200usize, 800, 3200]
        .iter()
        .map(|&size| {
            let dataset = collect_statistics(
                uniform_collections(3, size, 31415),
                10,
                &ClusterConfig::default(),
            )
            .unwrap();
            let metrics = &dataset.stats_metrics;
            (metrics.total_shuffle_records(), metrics.total_shuffle_bytes())
        })
        .collect();
    assert_eq!(shuffle.len(), 1, "(records, bytes) per |Ci|: {shuffle:?}");
}

#[test]
fn tkij_pb_dominates_boolean_matches() {
    // Under PB, every Boolean match scores exactly 1.0. If at least k
    // Boolean matches exist, TKIJ-PB's top-k must be k tuples of score
    // 1.0 — i.e. TKIJ returns (a subset of) exactly what the Boolean
    // baselines hunt for.
    let collections = dense(3, 80, 9);
    let q = table1::q_oo(PredicateParams::PB);
    let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
    let boolean = naive_boolean(&q, &refs);
    assert!(boolean.len() >= 10, "need enough Boolean matches for the test");

    let engine = Tkij::new(TkijConfig::default().with_granules(8).with_reducers(4));
    let dataset = engine.prepare(collections.clone()).unwrap();
    let report = engine.execute(&dataset, &q, 10).unwrap();
    assert_eq!(report.results.len(), 10);
    let matches: BTreeSet<Vec<u64>> = boolean.into_iter().collect();
    for t in &report.results {
        assert!((t.score - 1.0).abs() < 1e-12, "PB top-k must be perfect scores");
        assert!(matches.contains(&t.ids), "TKIJ-PB result must be a Boolean match");
    }

    // And the baselines, capped at the same k, also return 10 matches.
    let rccis = run_rccis(&q, &collections, 10, 12, &ClusterConfig::default()).unwrap();
    assert_eq!(rccis.results.len(), 10);
}

#[test]
fn tkij_scored_returns_k_even_when_boolean_is_scarce() {
    // §4.2.5: "Because TKIJ must return k results, if only k' < k results
    // satisfy the Boolean predicates, k−k' other results that do not
    // satisfy at least one predicate will be returned (with S(t) < 1)".
    let collections = dense(3, 25, 13);
    let q = table1::q_ss(PredicateParams::PB); // equality-heavy, scarce
    let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
    let boolean = naive_boolean(&q, &refs).len();
    let k = boolean + 5;
    let engine = Tkij::new(TkijConfig::default().with_granules(6).with_reducers(3));
    let dataset = engine.prepare(collections).unwrap();
    let report = engine.execute(&dataset, &q, k).unwrap();
    assert_eq!(report.results.len(), k.min(25 * 25 * 25));
    let perfect = report.results.iter().filter(|t| (t.score - 1.0).abs() < 1e-12).count();
    assert_eq!(perfect, boolean, "exactly the Boolean matches score 1.0 under PB");
}
