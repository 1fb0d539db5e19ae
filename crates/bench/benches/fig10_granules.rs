//! Figure 10 — Synthetic Data, effect of the number of granules g:
//! the wall-clock halves.
//!
//! Paper setup: k = 100, |Ci| = 2·10⁶, P = P1, loose; queries Qb,b Qf,b
//! Qo,o Qo,m Qs,f,m; g swept from 5 to 160.
//! Expectations: (10a) small g hurts equality-heavy queries (poor
//! distribution, weak pruning); large g slows TopBuckets — sweet spot
//! g ≈ 40. (10b) reducer-time imbalance shrinks and stabilizes as g
//! grows. Fig. 10c's pruning curve is a work claim, asserted by
//! `tests/paper_claims.rs`.

use tkij_bench::{header, print_table, secs};
use tkij_core::{Tkij, TkijConfig};
use tkij_datagen::uniform_collections;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::query::table1;

/// Collection size: 2 % of the paper's 2·10⁶.
const SIZE: usize = 40_000;
/// The paper's sweep up to g = 80 (g = 160 adds nothing but time here).
const G_VALUES: [u32; 5] = [5, 10, 20, 40, 80];
const K: usize = 100;

fn main() {
    header(
        "Figure 10 — Synthetic Data: effect of the number of granules g",
        "k = 100, |Ci| = 2*10^6, P = P1, loose; g in 5..160",
        &format!("|Ci| = {SIZE}, g in {G_VALUES:?}"),
        "running time U-shaped in g (sweet spot ~40); imbalance shrinks",
    );
    let queries = vec![
        ("Qb,b", table1::q_bb(PredicateParams::P1)),
        ("Qf,b", table1::q_fb(PredicateParams::P1)),
        ("Qo,o", table1::q_oo(PredicateParams::P1)),
        ("Qo,m", table1::q_om(PredicateParams::P1)),
        ("Qs,f,m", table1::q_sfm(PredicateParams::P1)),
    ];

    let mut rows_time = Vec::new();
    let mut rows_imb = Vec::new();
    // The paper's own figure leaves these configurations blank ("Run.
    // Time > 1h"): coarse statistics starve the distribution and pruning.
    let paper_timeout = |g: u32, name: &str| -> bool {
        (g <= 5 && matches!(name, "Qo,o" | "Qo,m" | "Qs,f,m")) || (g > 140 && name == "Qs,f,m")
    };
    for g in G_VALUES {
        let tk = Tkij::new(TkijConfig::default().with_granules(g));
        let dataset = tk.prepare(uniform_collections(3, SIZE, 99)).expect("prepare");
        for (name, q) in &queries {
            if paper_timeout(g, name) {
                rows_time.push(vec![format!("g={g}"), name.to_string(), "> 1h (paper)".into()]);
                rows_imb.push(vec![format!("g={g}"), name.to_string(), "-".into()]);
                continue;
            }
            let report = tk.execute(&dataset, q, K).expect("execute");
            let total = report.total_wall();
            println!(
                "  [row] g={g} {name}: total {} imbalance {:.2}",
                secs(total),
                report.join.imbalance()
            );
            rows_time.push(vec![format!("g={g}"), name.to_string(), secs(total)]);
            rows_imb.push(vec![
                format!("g={g}"),
                name.to_string(),
                format!("{:.2}", report.join.imbalance()),
            ]);
        }
    }
    println!("(10a) Total running time:");
    print_table(&["g", "query", "total"], &rows_time);
    println!("\n(10b) Join-phase imbalance (max/avg reducer time):");
    print_table(&["g", "query", "imbalance"], &rows_imb);
}
