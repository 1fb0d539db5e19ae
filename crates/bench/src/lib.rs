//! # tkij-bench — wall-clock harnesses for the paper's Fig. 10 and Fig. 11
//!
//! The paper's claims about *work* (which predicate scores high, how
//! many combinations TopBuckets keeps, how many solver calls each
//! strategy makes, how much each policy ships) are asserted on
//! deterministic counters by the root crate's `tests/paper_claims.rs`,
//! and the work counters themselves are pinned bit-for-bit by
//! `tests/pinned_counters.rs`. What stays here is wall time:
//!
//! * `benches/fig10_granules.rs` — total running time (10a) and reducer
//!   time imbalance (10b) across the granule sweep;
//! * `benches/fig11_scalability_synthetic.rs` — RCCIS against TKIJ on
//!   `Qo,o` (11b) and `Qs,m` (11c) as the collections grow;
//! * `benches/micro.rs` — criterion micro-benchmarks of the core
//!   building blocks.
//!
//! The paper ran on a 6-worker Hadoop cluster with collections of up to
//! 5 M intervals. Each harness runs fixed sizes at 2 % of the paper's,
//! names the paper's sizes in its header, and prints the paper's
//! expected shape beside the measured rows.

use std::time::Duration;

/// Prints the standard harness header.
pub fn header(figure: &str, paper_setup: &str, run_setup: &str, expectation: &str) {
    println!("================================================================");
    println!("{figure}");
    println!("  paper setup : {paper_setup}");
    println!("  this run    : {run_setup}");
    println!("  paper shape : {expectation}");
    println!("----------------------------------------------------------------");
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Renders a simple aligned table: a header row then data rows.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let body: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("  {}", body.join("  "));
    };
    line(columns.iter().map(|c| c.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
    }
}
