//! Quickstart: evaluate a 2-way ranked temporal join end to end.
//!
//! Builds two small interval collections, prepares TKIJ's offline
//! statistics, and runs a top-10 `s-meets` query — the "almost meets"
//! semantics from the paper's introduction, where pairs whose endpoints
//! align within a tolerance score highest.
//!
//! Run with: `cargo run --release --example quickstart`

use tkij::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The motivating example of the paper (Fig. 1): two collections of
    // tasks; we want pairs (x, y) where y starts roughly when x ends.
    let c1 = IntervalCollection::new(
        CollectionId(0),
        vec![
            Interval::new(1, 2, 9)?,   // x1
            Interval::new(2, 4, 14)?,  // x2
            Interval::new(3, 1, 17)?,  // x3
            Interval::new(4, 12, 19)?, // x4
            Interval::new(5, 22, 25)?, // x5
        ],
    )?;
    let c2 = IntervalCollection::new(
        CollectionId(1),
        vec![
            Interval::new(1, 11, 14)?, // y1
            Interval::new(2, 16, 19)?, // y2
            Interval::new(3, 9, 23)?,  // y3
            Interval::new(4, 19, 24)?, // y4
            Interval::new(5, 21, 26)?, // y5
        ],
    )?;

    // Scored s-meets with tolerance (λ, ρ) = (0, 4): strict equality of
    // x.end and y.start scores 1.0, and the score decays over 4 ticks.
    let params = PredicateParams::new(0, 4, 0, 0);
    let query = Query::new(
        vec![CollectionId(0), CollectionId(1)],
        vec![QueryEdge { src: 0, dst: 1, predicate: TemporalPredicate::meets(params) }],
        Aggregation::NormalizedSum,
    )?;

    let engine = Tkij::new(TkijConfig::default().with_granules(4).with_reducers(2));
    let dataset = engine.prepare(vec![c1, c2])?;
    let report = engine.execute(&dataset, &query, 3)?;

    println!("top-3 'x almost meets y' pairs:");
    for (rank, t) in report.results.iter().enumerate() {
        println!("  #{} (x{}, y{})  score {:.2}", rank + 1, t.ids[0], t.ids[1], t.score);
    }
    println!("\nexecution: {}", report.phase_line());
    println!(
        "TopBuckets kept {}/{} combinations ({:.0}% of potential results pruned)",
        report.topbuckets.selected,
        report.topbuckets.candidates,
        report.pruned_pct()
    );

    // x1 meets y3 and x4 meets y4 exactly (score 1.0, ties break on
    // ids); x3 almost meets y2 (gap 1 → score 0.75). Under the paper's
    // wider tolerance its third pick is (x1, y1); with (λ, ρ) = (0, 4)
    // the pair (x3, y2) edges it out.
    assert_eq!(report.results[0].ids, vec![1, 3]);
    assert_eq!(report.results[1].ids, vec![4, 4]);
    assert!((report.results[0].score - 1.0).abs() < 1e-9);
    assert!((report.results[1].score - 1.0).abs() < 1e-9);
    assert_eq!(report.results[2].ids, vec![3, 2]);
    assert!((report.results[2].score - 0.75).abs() < 1e-9);

    // Each reducer indexes the buckets its combinations open in an
    // endpoint-sorted sweep store and fetches only the candidates that can
    // reach the current k-th score (the paper's R-tree retrieval, §4, on a
    // flatter layout).
    println!(
        "local join: {} of {} shipped buckets indexed, {} window probes, {} items examined",
        report.buckets_opened(),
        report.buckets_sweep(),
        report.index_probes(),
        report.items_scanned()
    );
    Ok(())
}
