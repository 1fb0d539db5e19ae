//! Network traffic monitoring — the paper's §4.3 scenario.
//!
//! Simulates a firewall packet log, builds connection intervals with the
//! paper's 60-second gap rule, and runs the two real-life queries of the
//! evaluation: `Q{jB,jB}` (sequences of connections that closely follow
//! each other) and `Q{sM,sM}` (sequences separated by the average delay).
//!
//! Run with: `cargo run --release --example network_monitoring`

use tkij::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Simulate one day of traffic and build connections (substitute for
    // the paper's proprietary log; see README.md, "Simulated traffic").
    let cfg = TrafficConfig::calibrated(8_000, 42);
    let connections = tkij::datagen::traffic_collection(&cfg, 1.0, CollectionId(0));
    let stats = connections.stats();
    println!(
        "built {} connections; length (min, avg, max) = ({}, {}, {}) s",
        stats.len, stats.min_length, stats.avg_length, stats.max_length
    );

    // The paper copies the connection list three times for 3-way queries.
    let collections = vec![
        connections.clone(),
        connections.copy_as(CollectionId(1)),
        connections.copy_as(CollectionId(2)),
    ];
    let avg = connections.avg_length();

    let engine = Tkij::new(TkijConfig::default().with_granules(40).with_reducers(8));
    let dataset = engine.prepare(collections)?;

    for (label, query) in [
        (
            "Q{jB,jB} — chains of closely-following connections",
            table1::q_jbjb(PredicateParams::P3, avg),
        ),
        (
            "Q{sM,sM} — chains separated by the average delay",
            table1::q_smsm(PredicateParams::P3, avg),
        ),
    ] {
        let report = engine.execute(&dataset, &query, 5)?;
        println!("\n{label}");
        println!("  {}", report.phase_line());
        for t in &report.results {
            println!("    chain {:?}  score {:.3}", t.ids, t.score);
        }

        assert_eq!(report.results.len(), 5);
        assert!(report.results.windows(2).all(|w| w[0].score >= w[1].score));
        for t in &report.results {
            assert!(t.score > 0.0 && t.score <= 1.0, "score {} outside (0, 1]", t.score);
            // Every vertex reads a copy of the connection list, so each id
            // names one connection.
            let chain: Vec<Interval> = t
                .ids
                .iter()
                .map(|&id| {
                    *connections.intervals().iter().find(|iv| iv.id == id).expect("ids exist")
                })
                .collect();
            assert_eq!(query.score_tuple(&chain).to_bits(), t.score.to_bits(), "{:?}", t.ids);
        }
    }

    Ok(())
}
