//! The bench-regression gate's comparison logic, extracted from the
//! `bench_check` binary so every rule is unit-testable.
//!
//! Both inputs are reports of the shape the harnesses emit — an outer
//! JSON object whose `"metrics"` object holds flat `"key": number`
//! pairs. A *concatenation* of several reports (CI gates
//! `bench_smoke` + `bench_serving` in one call) is parsed as the union
//! of all its `"metrics"` objects; keys outside a metrics object
//! (`schema`, the `workload` echo) never gate and are not parsed.
//!
//! Gating rules, in order:
//!
//! 1. **Duplicate keys are a hard error** ([`duplicate_keys`]): a
//!    tracked key appearing twice in one input means two reports
//!    emitted the same metric — first-match lookup would silently
//!    shadow one of them, so the gate refuses to run at all (exit 2).
//! 2. **Untracked keys are skipped** ([`is_tracked`]): `*_ms` wall
//!    timings are machine-dependent artifacts, and keys without an
//!    underscore (`schema`) are structural.
//! 3. **Exact counters gate exactly** ([`is_exact`]): a key whose
//!    baseline *and* current values are both integral — and that is not
//!    a `speedup`/`qps` ratio, which may legitimately be integral by
//!    coincidence — is a deterministic work counter and must match
//!    bit-for-bit in **both** directions. Upward drift is a regression;
//!    downward drift means the committed baseline is stale, which is a
//!    behavior change to investigate, not an improvement to pocket.
//! 4. Everything else gates with the relative `tolerance`, inverted for
//!    better-higher keys ([`lower_is_worse`]); a zero baseline admits
//!    no growth at all.
//! 5. **The key sets must agree**: a tracked baseline key the report
//!    lacks is [`Verdict::Missing`], and a tracked report key the
//!    baseline lacks is [`Verdict::Ungated`] — the harnesses derive
//!    their counter keys from the stats structs' `Counters` schema, so
//!    a new counter fails the gate until its value is committed.

/// Extracts every `"key": <number>` pair from each `"metrics"` object
/// of `text` (a report, or a concatenation of reports).
pub fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"metrics\"") {
        let after = &rest[pos + "\"metrics\"".len()..];
        let Some(open) = after.find('{') else { break };
        // A metrics object is flat: scan to its closing brace.
        let body = &after[open + 1..];
        let end = body.find('}').unwrap_or(body.len());
        parse_flat_pairs(&body[..end], &mut out);
        rest = &body[end..];
    }
    out
}

/// Scans flat `"key": <number>` pairs out of `text`.
fn parse_flat_pairs(text: &str, out: &mut Vec<(String, f64)>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let Some(close) = text[i + 1..].find('"').map(|o| i + 1 + o) else { break };
        let key = &text[i + 1..close];
        let mut j = close + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b':' {
            i = close + 1;
            continue;
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let num_start = j;
        while j < bytes.len() && matches!(bytes[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            j += 1;
        }
        if let Ok(v) = text[num_start..j].parse::<f64>() {
            out.push((key.to_string(), v));
        }
        i = close + 1;
    }
}

/// Whether a key gates at all. Structural keys (no underscore, e.g.
/// `schema`) describe the workload, not a measurement; absolute timings
/// (`*_ms`) are machine-dependent and ride along in the artifact only.
pub fn is_tracked(key: &str) -> bool {
    key.contains('_') && !key.ends_with("_ms")
}

/// Regression direction: higher is worse, except speedup ratios,
/// pruning counters, and throughput (`qps`) metrics, where bigger is
/// better (a pruning or throughput collapse, not an improvement, is the
/// regression).
pub fn lower_is_worse(key: &str) -> bool {
    key.contains("speedup") || key.contains("pruned") || key.contains("qps")
}

/// Whether a tracked key's pair of values gates exactly: both integral
/// (a deterministic work counter on both sides) and not a
/// `speedup`/`qps` ratio, which is continuous no matter what value a
/// particular run happens to land on.
pub fn is_exact(key: &str, base: f64, cur: f64) -> bool {
    let integral = |v: f64| v.is_finite() && v == v.trunc();
    !key.contains("speedup") && !key.contains("qps") && integral(base) && integral(cur)
}

/// Tracked keys appearing more than once, in first-appearance order.
pub fn duplicate_keys(metrics: &[(String, f64)]) -> Vec<String> {
    let mut dups = Vec::new();
    for (i, (key, _)) in metrics.iter().enumerate() {
        if !is_tracked(key) || dups.iter().any(|d| d == key) {
            continue;
        }
        if metrics[i + 1..].iter().any(|(k, _)| k == key) {
            dups.push(key.clone());
        }
    }
    dups
}

/// One gated key's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or exactly equal, for exact counters).
    Ok,
    /// Beyond the relative tolerance in the regression direction.
    Regressed,
    /// An exact counter differs from the baseline (either direction).
    ExactMismatch,
    /// The key is absent from the current report.
    Missing,
    /// The current report carries a tracked key the baseline does not
    /// gate.
    Ungated,
}

/// One row of the gate report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The gated key.
    pub key: String,
    /// Baseline value (`None` when ungated).
    pub base: Option<f64>,
    /// Current value (`None` when missing).
    pub cur: Option<f64>,
    /// Relative delta `(cur − base) / base` (`∞` for growth from 0).
    pub delta: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Runs the gate: every tracked baseline key is checked against
/// `current`, then every tracked key only `current` holds is reported
/// ungated. The caller must reject duplicate keys (in either input)
/// *before* evaluating — [`Row`] lookups take the first occurrence.
pub fn evaluate(baseline: &[(String, f64)], current: &[(String, f64)], tolerance: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (key, base) in baseline {
        if !is_tracked(key) {
            continue;
        }
        let Some((_, cur)) = current.iter().find(|(k, _)| k == key) else {
            rows.push(Row {
                key: key.clone(),
                base: Some(*base),
                cur: None,
                delta: f64::INFINITY,
                verdict: Verdict::Missing,
            });
            continue;
        };
        // A zero baseline has no meaningful relative delta: any growth
        // from 0 is an infinite regression (degenerate-case counters
        // like cap fallbacks are tracked precisely so that leaving the
        // degenerate regime fails loudly).
        let delta = if *base == 0.0 {
            if *cur == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (cur - base) / base
        };
        let verdict = if is_exact(key, *base, *cur) {
            if base == cur {
                Verdict::Ok
            } else {
                Verdict::ExactMismatch
            }
        } else if lower_is_worse(key) {
            if delta < -tolerance {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        } else if delta > tolerance {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        rows.push(Row { key: key.clone(), base: Some(*base), cur: Some(*cur), delta, verdict });
    }
    for (key, cur) in current {
        if is_tracked(key) && !baseline.iter().any(|(k, _)| k == key) {
            rows.push(Row {
                key: key.clone(),
                base: None,
                cur: Some(*cur),
                delta: f64::INFINITY,
                verdict: Verdict::Ungated,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(pairs: &str) -> String {
        format!("{{\n  \"schema\": 3,\n  \"metrics\": {{\n{pairs}\n  }}\n}}\n")
    }

    fn verdict_of(rows: &[Row], key: &str) -> Verdict {
        rows.iter().find(|r| r.key == key).unwrap_or_else(|| panic!("no row for {key}")).verdict
    }

    #[test]
    fn parses_only_metrics_objects() {
        let text = wrap("    \"a_count\": 3,\n    \"b_ratio\": 1.5");
        let got = parse_metrics(&text);
        assert_eq!(got, vec![("a_count".into(), 3.0), ("b_ratio".into(), 1.5)]);
    }

    #[test]
    fn concatenated_reports_union_their_metrics() {
        let text = format!(
            "{}{}",
            wrap("    \"a_count\": 3"),
            wrap("    \"serving_x\": 7,\n    \"serving_y_ms\": 12.5")
        );
        let got = parse_metrics(&text);
        assert_eq!(
            got,
            vec![("a_count".into(), 3.0), ("serving_x".into(), 7.0), ("serving_y_ms".into(), 12.5)]
        );
        // The structural keys outside the metrics objects never parse:
        // `schema` appears twice in the concatenation, yet is no
        // duplicate because it is not a metric.
        assert!(got.iter().all(|(k, _)| k != "schema"));
        assert_eq!(duplicate_keys(&got), Vec::<String>::new());
    }

    #[test]
    fn duplicate_tracked_keys_are_detected() {
        let text = format!("{}{}", wrap("    \"a_count\": 3"), wrap("    \"a_count\": 4"));
        assert_eq!(duplicate_keys(&parse_metrics(&text)), vec!["a_count".to_string()]);
        // Reported once, however often it repeats.
        let text3 = format!("{}{}", text, wrap("    \"a_count\": 5"));
        assert_eq!(duplicate_keys(&parse_metrics(&text3)), vec!["a_count".to_string()]);
    }

    #[test]
    fn duplicate_untracked_keys_are_ignored() {
        // `*_ms` artifacts and no-underscore keys may repeat freely —
        // they never gate, so shadowing cannot hide a regression.
        let text = format!("{}{}", wrap("    \"probe_ms\": 3.0"), wrap("    \"probe_ms\": 4.0"));
        assert_eq!(duplicate_keys(&parse_metrics(&text)), Vec::<String>::new());
    }

    #[test]
    fn exact_counters_mismatch_in_both_directions() {
        let base = vec![("tuples_scored".to_string(), 100.0)];
        let up = vec![("tuples_scored".to_string(), 101.0)];
        let down = vec![("tuples_scored".to_string(), 99.0)];
        let same = vec![("tuples_scored".to_string(), 100.0)];
        // +1% and −1% are far inside the 25% tolerance — the exact rule
        // must catch both anyway.
        assert_eq!(
            verdict_of(&evaluate(&base, &up, 0.25), "tuples_scored"),
            Verdict::ExactMismatch
        );
        assert_eq!(
            verdict_of(&evaluate(&base, &down, 0.25), "tuples_scored"),
            Verdict::ExactMismatch
        );
        assert_eq!(verdict_of(&evaluate(&base, &same, 0.25), "tuples_scored"), Verdict::Ok);
    }

    #[test]
    fn ratio_keys_stay_on_tolerance_even_when_integral() {
        // A qps/speedup baseline is often committed as a round floor
        // (e.g. 12.0): integral by coincidence, continuous by nature.
        let base = vec![("serving_qps".to_string(), 12.0), ("join_speedup".to_string(), 2.0)];
        let cur = vec![("serving_qps".to_string(), 54.0), ("join_speedup".to_string(), 1.9)];
        let rows = evaluate(&base, &cur, 0.25);
        assert_eq!(verdict_of(&rows, "serving_qps"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "join_speedup"), Verdict::Ok);
        // ... and the inversion still fires on a real collapse.
        let collapsed = vec![("serving_qps".to_string(), 5.0), ("join_speedup".to_string(), 0.5)];
        let rows = evaluate(&base, &collapsed, 0.25);
        assert_eq!(verdict_of(&rows, "serving_qps"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "join_speedup"), Verdict::Regressed);
    }

    #[test]
    fn shuffle_spill_counters_gate_exactly_both_ways() {
        // The out-of-core shuffle counters are deterministic work
        // counters: integral on both sides, no `speedup`/`qps` marker —
        // so every one of them must fall under the two-sided exact rule.
        // The checksum is the load-bearing case: a 32-bit CRC fold is
        // exactly representable as an f64 integer, so any codec or
        // segmentation drift flips it and fails the gate bit-for-bit.
        let base = vec![
            ("shuffle_records_spilled".to_string(), 58_000.0),
            ("shuffle_spill_segments".to_string(), 58_000.0),
            ("shuffle_spill_bytes".to_string(), 2_400_000.0),
            ("shuffle_checksum".to_string(), 3_405_691_582.0),
        ];
        for (key, value) in &base {
            assert!(is_tracked(key), "{key} must gate");
            assert!(is_exact(key, *value, *value), "{key} must gate exactly");
            assert!(!lower_is_worse(key), "{key} is not a ratio");
        }
        let rows = evaluate(&base, &base, 0.25);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // One record more or less, one flipped checksum bit: both
        // directions are exact mismatches despite the 25% tolerance.
        for (i, _) in base.iter().enumerate() {
            for delta in [-1.0, 1.0] {
                let mut cur = base.clone();
                cur[i].1 += delta;
                let rows = evaluate(&base, &cur, 0.25);
                assert_eq!(
                    verdict_of(&rows, &base[i].0),
                    Verdict::ExactMismatch,
                    "{} drifted by {delta} and must fail",
                    base[i].0
                );
            }
        }
    }

    #[test]
    fn non_integral_values_gate_with_tolerance() {
        let base = vec![("dtb_replication_factor".to_string(), 3.819944)];
        let within = vec![("dtb_replication_factor".to_string(), 3.9)];
        let beyond = vec![("dtb_replication_factor".to_string(), 5.0)];
        assert_eq!(
            verdict_of(&evaluate(&base, &within, 0.25), "dtb_replication_factor"),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&evaluate(&base, &beyond, 0.25), "dtb_replication_factor"),
            Verdict::Regressed
        );
    }

    #[test]
    fn zero_baseline_admits_no_growth() {
        let base = vec![("dtb_cap_fallbacks".to_string(), 0.0)];
        let grown = vec![("dtb_cap_fallbacks".to_string(), 1.0)];
        let still = vec![("dtb_cap_fallbacks".to_string(), 0.0)];
        // Growth from 0 is an exact mismatch (both integral) — and the
        // tolerance path would flag it as an infinite regression too.
        assert_eq!(
            verdict_of(&evaluate(&base, &grown, 0.25), "dtb_cap_fallbacks"),
            Verdict::ExactMismatch
        );
        assert_eq!(verdict_of(&evaluate(&base, &still, 0.25), "dtb_cap_fallbacks"), Verdict::Ok);
    }

    #[test]
    fn ms_and_structural_keys_never_gate() {
        let base = vec![
            ("probe_ms".to_string(), 10.0),
            ("schema".to_string(), 3.0),
            ("real_counter".to_string(), 5.0),
        ];
        let cur = vec![("real_counter".to_string(), 5.0)];
        let rows = evaluate(&base, &cur, 0.25);
        // Only the tracked key produced a row: the missing `probe_ms`
        // and `schema` were skipped, not reported missing.
        assert_eq!(rows.len(), 1);
        assert_eq!(verdict_of(&rows, "real_counter"), Verdict::Ok);
    }

    #[test]
    fn missing_tracked_keys_fail() {
        let base = vec![("a_count".to_string(), 3.0)];
        let rows = evaluate(&base, &[], 0.25);
        assert_eq!(verdict_of(&rows, "a_count"), Verdict::Missing);
    }

    #[test]
    fn tracked_keys_only_in_the_report_are_ungated() {
        let base = vec![("a_count".to_string(), 3.0)];
        let cur = vec![
            ("a_count".to_string(), 3.0),
            ("new_counter".to_string(), 7.0),
            ("new_probe_ms".to_string(), 1.5),
        ];
        let rows = evaluate(&base, &cur, 0.25);
        assert_eq!(verdict_of(&rows, "a_count"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "new_counter"), Verdict::Ungated);
        // The `*_ms` artifact rides along ungated, as ever.
        assert_eq!(rows.len(), 2);
    }
}
