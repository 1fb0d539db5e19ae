//! Figure 11 — Synthetic Data, scalability against RCCIS: the
//! wall-clock halves.
//!
//! Paper setup: g = 40, k = 100, loose; |Ci| ∈ 1M..5M.
//! (11b) Qo,o: RCCIS-PB vs TKIJ-PB vs TKIJ-P1 — TKIJ grows linearly and
//! overtakes RCCIS at scale (RCCIS's first phase grows with |Ci|).
//! (11c) Qs,m: RCCIS first phase is cheaper (few intermediates) while
//! TKIJ-P1 pays for tolerance-widened intermediate results.
//! Fig. 11a (Qb,b: TopBuckets keeps one combination while All-Matrix's
//! shuffle grows with |Ci|) is a work claim, asserted by
//! `tests/paper_claims.rs`.

use tkij_baselines::run_rccis;
use tkij_bench::{header, print_table, secs};
use tkij_core::{Tkij, TkijConfig};
use tkij_datagen::uniform_collections;
use tkij_mapreduce::ClusterConfig;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::query::table1;

/// (paper |Ci|, run |Ci|): the run sizes are 2 % of the paper's.
const SIZES: [(usize, usize); 5] = [
    (1_000_000, 20_000),
    (2_000_000, 40_000),
    (3_000_000, 60_000),
    (4_000_000, 80_000),
    (5_000_000, 100_000),
];
const K: usize = 100;

fn main() {
    header(
        "Figure 11 — Synthetic Data: scalability vs RCCIS",
        "g = 40, k = 100, loose; |Ci| = 1M..5M",
        "|Ci| = 20000..100000 (2% of the paper's)",
        "Qo,o: TKIJ overtakes RCCIS at scale; Qs,m: RCCIS phase-1 cheap",
    );
    let cluster = ClusterConfig::default();

    let run_tkij = |q: &tkij_temporal::query::Query, size: usize, seed: u64| {
        let tk = Tkij::new(TkijConfig::default().with_granules(40));
        let dataset = tk.prepare(uniform_collections(3, size, seed)).expect("prepare");
        tk.execute(&dataset, q, K).expect("execute").total_wall()
    };

    for (fig, qname, q_pb, q_p1) in [
        ("(11b)", "Qo,o", table1::q_oo(PredicateParams::PB), table1::q_oo(PredicateParams::P1)),
        ("(11c)", "Qs,m", table1::q_sm(PredicateParams::PB), table1::q_sm(PredicateParams::P1)),
    ] {
        println!("\n{fig} {qname} — RCCIS-PB vs TKIJ-PB vs TKIJ-P1:");
        let mut rows = Vec::new();
        for (paper, size) in SIZES {
            let collections = uniform_collections(3, size, 7002);
            let rc = run_rccis(&q_pb, &collections, K, 24, &cluster).expect("RCCIS").total_wall();
            let pb = run_tkij(&q_pb, size, 7002);
            let p1 = run_tkij(&q_p1, size, 7002);
            rows.push(vec![format!("{paper}->{size}"), secs(rc), secs(pb), secs(p1)]);
        }
        print_table(&["|Ci| paper->run", "RCCIS-PB", "TKIJ-PB", "TKIJ-P1"], &rows);
    }
}
