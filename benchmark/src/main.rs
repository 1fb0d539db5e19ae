//! The repo's benchmark harness.
//!
//! `tkij-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one pass of one workload in this process and prints every
//! metric by name with its unit, then — as the last line of standard
//! output — one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` is the timed pass (end-to-end metrics, tracing off);
//! `--trace 1` is the traced pass (per-layer metrics).
//!
//! Without `--workload` it runs the whole suite — every workload, both
//! passes, each in a process of its own so that `peak_rss_mb` is per
//! workload — and `--check-repeat` runs the suite twice and fails
//! unless every exact count repeats and every end-to-end metric agrees
//! within its bound.
//!
//! The harness measures every layer from outside: it times calls into
//! public functions and reads public report fields. See `README.md`.

mod check;
mod ensemble;
mod json;
mod metrics;
mod passes;
mod replay;
mod stats;
mod trace;
mod workloads;

use check::Tally;
use json::RunResult;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// The seed claims are made on; the README names a second one to
/// re-check them on.
const DEFAULT_SEED: u64 = 4242;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The traced pass fails when the phase spans cover less of the query.
const MIN_COVERAGE: f64 = 0.95;
/// Env hooks that silently change `Default` engine configs.
const ENV_HOOKS: [&str; 2] = [tkij_core::SPILL_THRESHOLD_ENV, "TKIJ_SWEEP_SCAN"];

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: tkij-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--check-repeat] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The timed pass of one workload: end-to-end metrics, tracing off.
fn run_timed(
    w: &Workload,
    args: &Args,
    tally: &mut Tally,
) -> (Report, Vec<(&'static str, String)>) {
    let mut report = Report::new(&END_TO_END);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ensemble = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up first, so the peak is one
        // ensemble's, not two.
        drop(ensemble.take());
        let (fresh, wall) = ensemble::set_up(w, args.seed, tally);
        setups.push(wall.as_secs_f64());
        ensemble = Some(fresh);
    }
    let ensemble = ensemble.expect("at least one set-up");
    report.set("setup_s", stats::median(&setups).expect("at least one set-up"));
    let timed = if w.served() {
        let timed = passes::timed_serve(w, &ensemble, args.seconds, tally);
        ensemble::check_served_equals_solo(w, &ensemble, tally);
        timed
    } else {
        passes::timed_batch(w, &ensemble, args.seconds, tally)
    };
    timed.report(&mut report);
    report.set("peak_rss_mb", peak_rss_mb());
    let n = timed.latencies_ms.len();
    let samples = format!("{n} samples");
    let tail = if stats::percentile_supported(n, 0.9) {
        samples.clone()
    } else {
        format!("{n} samples: fewer than ten beyond the rank")
    };
    let notes = vec![
        ("setup_s", format!("median of {SETUP_REPS} set-ups")),
        ("query_p50_ms", samples),
        ("query_p90_ms", tail),
        ("queries_per_s", format!("{n} queries in {:.2} s", timed.wall_s)),
    ];
    (report, notes)
}

/// The traced pass of one workload: per-layer metrics, spans written to
/// `<out>/<workload>.trace.json`.
fn run_traced(
    w: &Workload,
    args: &Args,
    tally: &mut Tally,
) -> (Report, Vec<(&'static str, String)>) {
    let mut report = Report::new(&PER_LAYER);
    let mut tracer = trace::Tracer::new();
    let (ensemble, _) = ensemble::set_up(w, args.seed, tally);
    if w.served() {
        let half = args.seconds * 0.5;
        passes::traced(w, &ensemble, half, &mut tracer, &mut report, tally);
        // The one-client segment replays the request stream, so it
        // needs servers that have not seen its fresh shapes.
        let (solo, _) = ensemble::set_up(w, args.seed, tally);
        passes::serving_layer(w, &ensemble, &solo, half, &mut tracer, &mut report, tally);
    } else {
        passes::traced(w, &ensemble, args.seconds, &mut tracer, &mut report, tally);
    }
    let coverage = report.get("engine.coverage").unwrap_or(0.0);
    tally.record(
        format_args!("{} engine.coverage", w.name),
        if coverage >= MIN_COVERAGE {
            Ok(())
        } else {
            Err(format!("phase spans cover {coverage:.3} of the query, below {MIN_COVERAGE}"))
        },
    );
    let path = args.out.join(format!("{}.trace.json", w.name));
    match tracer.write_json(&path, w.name, args.seed) {
        Ok(()) => println!("  {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => tally.record(format_args!("{} trace file", w.name), Err(e.to_string())),
    }
    (report, vec![("solver.est_share", "estimate".to_string())])
}

/// Runs one pass of one workload in this process.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    println!(
        "workload {} | seed {} | {} s | {} pass | {} datasets | host threads {}",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "timed" },
        w.datasets,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("  why: {}", w.why);
    let mut tally = Tally::default();
    ensemble::check_twin(w, args.seed, &mut tally);
    let (report, notes) =
        if args.trace { run_traced(w, args, &mut tally) } else { run_timed(w, args, &mut tally) };
    report.print(&notes);
    println!(
        "  {:<36} {:>16.4} ratio  ({} of {} checked queries failed)",
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let result = RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: report.metrics(),
    };
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's parsed result.
struct SuiteEntry {
    workload: &'static str,
    trace: bool,
    result: RunResult,
}

/// Runs every workload, both passes, each in a process of its own.
fn run_suite(args: &Args) -> Result<Vec<SuiteEntry>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{body}");
            let result = RunResult::parse(last.trim())
                .map_err(|e| format!("{} printed no result: {e}", w.name))?;
            if !output.status.success() || !result.correct {
                return Err(format!(
                    "{} ({} pass): {} of {} checked queries failed",
                    w.name,
                    if trace { "traced" } else { "timed" },
                    result.failed,
                    result.attempted
                ));
            }
            entries.push(SuiteEntry { workload: w.name, trace, result });
        }
    }
    Ok(entries)
}

/// Compares two suite runs: exact counts must be equal, end-to-end
/// metrics must agree within their bounds. Returns the disagreements.
fn compare(first: &[SuiteEntry], second: &[SuiteEntry]) -> Vec<String> {
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let table: &[metrics::MetricDef] = if a.trace { &PER_LAYER } else { &END_TO_END };
        for ((ma, mb), def) in a.result.metrics.iter().zip(&b.result.metrics).zip(table) {
            let at = format!("{} {}: {} then {}", a.workload, ma.name, ma.value, mb.value);
            match def.bound {
                Some(bound) => {
                    let worse = if def.better == "lower" {
                        (mb.value - ma.value) / ma.value
                    } else {
                        (ma.value - mb.value) / ma.value
                    };
                    if worse.abs() > bound {
                        problems.push(format!("{at} (beyond its bound {bound})"));
                    }
                }
                None if matches!(def.unit, "count" | "bytes") && ma.value != mb.value => {
                    problems.push(format!("{at} (an exact count must repeat)"));
                }
                None => {}
            }
        }
    }
    problems
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(hook) = ENV_HOOKS.iter().find(|hook| std::env::var_os(hook).is_some()) {
        eprintln!(
            "{hook} is set: it silently changes the engine's default configs, \
             so the benchmark refuses to start; unset it"
        );
        return ExitCode::from(2);
    }
    if let Some(w) = args.workload {
        return run_one(w, &args);
    }
    let first = match run_suite(&args) {
        Ok(entries) => entries,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if !args.check_repeat {
        return ExitCode::SUCCESS;
    }
    println!("--check-repeat: running the suite a second time");
    let problems = match run_suite(&args) {
        Ok(second) => compare(&first, &second),
        Err(message) => vec![message],
    };
    for problem in &problems {
        eprintln!("REPEAT MISMATCH {problem}");
    }
    if problems.is_empty() {
        println!("--check-repeat: every exact count repeated, every end-to-end metric agreed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Metric;

    fn entry(trace: bool, values: &[f64]) -> SuiteEntry {
        let table: &[metrics::MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .zip(values.iter().chain(std::iter::repeat(&1.0)))
            .map(|(def, &value)| Metric { name: def.name.into(), value, unit: def.unit.into() })
            .collect();
        SuiteEntry {
            workload: "plan-wide",
            trace,
            result: RunResult { correct: true, attempted: 1, failed: 0, metrics },
        }
    }

    #[test]
    fn equal_runs_and_drift_inside_the_bounds_agree() {
        let first = [entry(false, &[2.0, 100.0, 120.0, 10.0, 50.0]), entry(true, &[])];
        // setup +20 % (bound 25 %), p50 +15 % (20 %), qps −15 % (20 %).
        let second = [entry(false, &[2.4, 115.0, 120.0, 8.5, 50.0]), entry(true, &[])];
        assert!(compare(&first, &first).is_empty());
        assert_eq!(compare(&first, &second), Vec::<String>::new());
    }

    #[test]
    fn drift_beyond_a_bound_is_reported_in_either_direction() {
        let first = [entry(false, &[2.0, 100.0, 120.0, 10.0, 50.0])];
        let slower = [entry(false, &[2.0, 125.0, 120.0, 10.0, 50.0])];
        let faster = [entry(false, &[2.0, 100.0, 120.0, 13.0, 50.0])];
        let problems = compare(&first, &slower);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("plan-wide query_p50_ms"), "{problems:?}");
        assert!(compare(&first, &faster)[0].contains("queries_per_s"));
    }

    #[test]
    fn an_exact_count_must_repeat_but_a_traced_time_may_move() {
        let first = [entry(true, &[1.0, 165.0])]; // stats.prepare_ms, stats.nonempty_buckets
        let time_moved = [entry(true, &[9.0, 165.0])];
        let count_moved = [entry(true, &[1.0, 166.0])];
        assert!(compare(&first, &time_moved).is_empty());
        let problems = compare(&first, &count_moved);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("stats.nonempty_buckets"), "{problems:?}");
    }
}
