//! # tkij-bench — experiment harnesses for every table and figure
//!
//! Each `benches/figXX_*.rs` target regenerates one figure (or text-level
//! experiment) of the paper's evaluation (§4) and prints the same
//! rows/series the paper plots, alongside the paper's qualitative
//! expectation so the shape comparison is auditable. `benches/micro.rs`
//! holds criterion micro-benchmarks of the core building blocks.
//!
//! ## Scaling
//!
//! The paper ran on a 6-worker Hadoop cluster with collections of up to
//! 5 M intervals. The harnesses default to a reduced sweep sized for a
//! small machine and print the mapping to the paper's parameters; set
//!
//! * `TKIJ_SCALE=<f64>` — fraction of the paper's collection sizes
//!   (default `0.02`);
//! * `TKIJ_FULL=1` — run the paper-scale sizes (hours on a laptop).
//!
//! Experiment *shapes* (who wins, crossovers, trends in `g`, `k`, `n`,
//! strategy) are scale-stable because they derive from pruning ratios and
//! assignment policy; see EXPERIMENTS.md for the recorded
//! paper-vs-measured comparison.

use std::time::{Duration, Instant};

pub mod emit;
pub mod gate;

/// Scaling knobs read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of paper collection sizes.
    pub fraction: f64,
    /// Whether full paper scale was requested.
    pub full: bool,
}

impl Scale {
    /// Reads `TKIJ_SCALE` / `TKIJ_FULL`.
    pub fn from_env() -> Self {
        let full = std::env::var("TKIJ_FULL").is_ok_and(|v| v == "1" || v == "true");
        let fraction = if full {
            1.0
        } else {
            std::env::var("TKIJ_SCALE")
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|f| *f > 0.0 && *f <= 1.0)
                .unwrap_or(0.02)
        };
        Scale { fraction, full }
    }

    /// Scales a paper-sized collection cardinality (minimum 500).
    pub fn size(&self, paper: usize) -> usize {
        ((paper as f64 * self.fraction) as usize).max(500)
    }

    /// Scales a k value (kept unscaled: the figures vary k explicitly).
    pub fn k(&self, paper: usize) -> usize {
        paper
    }
}

/// Prints the standard harness header.
pub fn header(figure: &str, paper_setup: &str, expectation: &str) {
    let scale = Scale::from_env();
    println!("================================================================");
    println!("{figure}");
    println!("  paper setup : {paper_setup}");
    println!(
        "  this run    : scale={} ({})",
        scale.fraction,
        if scale.full { "paper-scale" } else { "scaled-down; TKIJ_FULL=1 for paper sizes" }
    );
    println!("  paper shape : {expectation}");
    println!("----------------------------------------------------------------");
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
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
    fn scale_defaults() {
        let s = Scale { fraction: 0.02, full: false };
        assert_eq!(s.size(1_000_000), 20_000);
        assert_eq!(s.size(1_000), 500, "floors at 500");
        assert_eq!(s.k(100), 100);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
    }
}
