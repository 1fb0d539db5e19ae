//! Bench-regression gate: compares a fresh harness JSON report (or a
//! concatenation of several — CI gates `bench_smoke` + `bench_serving`
//! in one call) against the committed baseline and exits non-zero if
//! any tracked metric regressed. No network, no JSON dependency — the
//! comparison rules live in [`tkij_bench::gate`], where they are
//! unit-tested.
//!
//! Usage: `bench_check <BENCH_BASELINE.json> <current.json> [tolerance]`
//!
//! * every tracked key of the *baseline*'s `"metrics"` object gates,
//!   and a tracked key only the current report carries fails as
//!   `UNGATED` (the report may carry extra *untracked* metrics);
//! * a tracked key appearing **twice** in either input is a usage error
//!   (exit 2): first-match lookup would silently shadow one value;
//! * keys whose baseline and current values are **both integral** — and
//!   that are not `speedup`/`qps` ratios — are deterministic work
//!   counters and must match **bit-for-bit in both directions** (a
//!   downward drift is a stale baseline, not an improvement);
//! * everything else gates with the relative `tolerance` (default
//!   `0.25`), inverted for better-higher `speedup`/`pruned`/`qps` keys,
//!   with any growth from a zero baseline failing;
//! * `*_ms` timings and structural keys never gate.
//!
//! Exit codes: `0` all green, `1` a tracked metric regressed,
//! mismatched, or is missing/ungated, `2` usage/input error (bad arguments, unreadable or
//! metric-less files, duplicate keys).

use std::process::ExitCode;
use tkij_bench::gate::{duplicate_keys, evaluate, is_exact, parse_metrics, Verdict};

const USAGE: &str = "usage: bench_check <baseline.json> <current.json> [tolerance]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let tolerance: f64 = match args.get(3).map(|t| t.parse()) {
        None => 0.25,
        Some(Ok(t)) => t,
        Some(Err(_)) => {
            eprintln!("bench_check: tolerance `{}` is not a number\n{USAGE}", args[3]);
            return ExitCode::from(2);
        }
    };
    let mut unreadable = false;
    let mut read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_check: cannot read {path}: {e}");
            unreadable = true;
            String::new()
        })
    };
    let baseline = parse_metrics(&read(&args[1]));
    let current = parse_metrics(&read(&args[2]));
    if unreadable {
        return ExitCode::from(2);
    }
    if baseline.is_empty() {
        eprintln!("baseline {} holds no numeric metrics", args[1]);
        return ExitCode::from(2);
    }
    // A duplicated tracked key means two reports emitted the same
    // metric: lookups would silently shadow one of the values (and with
    // it a possible regression), so the gate refuses to run at all.
    let mut duplicated = false;
    for (which, path, metrics) in
        [("baseline", &args[1], &baseline), ("current", &args[2], &current)]
    {
        for key in duplicate_keys(metrics) {
            eprintln!("bench_check: duplicate metric key `{key}` in {which} report {path}");
            duplicated = true;
        }
    }
    if duplicated {
        return ExitCode::from(2);
    }

    let rows = evaluate(&baseline, &current, tolerance);
    let mut failed = false;
    println!(
        "{:<28} {:>14} {:>14} {:>9}  status   (tolerance {:.0}%, exact counters bit-for-bit)",
        "metric",
        "baseline",
        "current",
        "delta",
        tolerance * 100.0
    );
    for row in &rows {
        match (row.base, row.cur) {
            (Some(base), None) => {
                println!("{:<28} {base:>14.3} {:>14} {:>9}  MISSING", row.key, "-", "-");
            }
            (None, Some(cur)) => {
                println!("{:<28} {:>14} {cur:>14.3} {:>9}  UNGATED", row.key, "-", "-");
            }
            (Some(base), Some(cur)) => {
                let status = match row.verdict {
                    Verdict::Ok if is_exact(&row.key, base, cur) => "ok (exact)",
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::ExactMismatch => "EXACT MISMATCH",
                    Verdict::Missing | Verdict::Ungated => unreachable!("one-sided verdicts"),
                };
                println!(
                    "{:<28} {base:>14.3} {cur:>14.3} {:>8.1}%  {status}",
                    row.key,
                    row.delta * 100.0
                );
            }
            (None, None) => unreachable!("a row comes from a key of one input"),
        }
        failed |= row.verdict != Verdict::Ok;
    }
    if failed {
        eprintln!(
            "\nbench_check: tracked metrics regressed beyond {:.0}%, drifted off an exact \
             counter, or are missing from one side",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("\nbench_check: all tracked metrics within tolerance");
        ExitCode::SUCCESS
    }
}
