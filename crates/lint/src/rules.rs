//! The determinism lint rules (`DET001`–`DET005`) and the
//! mandatory-reason suppression convention.
//!
//! Every guarantee this repository sells — bit-identical results and
//! work counters across thread counts, backends, and scan kinds — dies
//! the moment a hash-ordered container, a wall-clock read, a thread-id
//! branch, or an OS-seeded RNG slips into a result- or counter-bearing
//! path. These rules turn those failure classes into CI findings
//! *before* a test battery has to catch them flaking.
//!
//! Suppression: `// tkij-lint: allow(DET00x) -- <why>` on the flagged
//! line or the line directly above. The reason is mandatory; a
//! suppression without one is itself a finding (`SUP001`) and does not
//! suppress anything.

use crate::lexer::{scrub, word_positions, Scrubbed};
use crate::report::Finding;
use std::path::Path;

/// Crates whose results or work counters feed the determinism
/// contract: `DET001` (hash-ordered containers) applies here.
pub const COUNTER_BEARING_CRATES: [&str; 5] = ["core", "index", "mapreduce", "temporal", "solver"];

/// Crates whose *job* is timing: `DET002` (wall-clock reads) does not
/// apply. Everywhere else a clock read needs a justified suppression
/// naming the `*_ms`/`duration` artifact field it feeds.
pub const TIMING_EXEMPT_CRATES: [&str; 2] = ["bench", "lint"];

/// Crates holding join/counter code: `DET005` (atomics must carry an
/// ordering rationale) applies here.
pub const ATOMIC_RATIONALE_CRATES: [&str; 2] = ["core", "mapreduce"];

/// How many lines above an atomic-ordering use a rationale comment may
/// sit (doc comments of the enclosing fn routinely carry it).
const DET005_LOOKBACK_LINES: usize = 15;

/// The five determinism rule codes, in order.
pub const DET_CODES: [&str; 5] = ["DET001", "DET002", "DET003", "DET004", "DET005"];

/// One parsed suppression comment.
struct Suppression {
    /// 1-based line the comment sits on.
    line: usize,
    code: String,
    /// `false` when the mandatory `-- <why>` part is missing/empty.
    has_reason: bool,
}

/// Lints one file's source. `crate_name` is the workspace member the
/// file belongs to (`"core"`, `"bench"`, ... or `"root"` for the
/// facade's own `src/`/`tests/`/`examples/`).
pub fn lint_file(path: &Path, crate_name: &str, source: &str) -> Vec<Finding> {
    let s = scrub(source);
    let suppressions = parse_suppressions(&s);
    let mut findings = Vec::new();

    let mut emit = |line: usize, code: &'static str, message: String| {
        // A well-formed suppression on the flagged line or the line
        // directly above silences the finding.
        if suppressions
            .iter()
            .any(|s| s.code == code && s.has_reason && (s.line == line || s.line + 1 == line))
        {
            return;
        }
        findings.push(Finding { file: path.to_path_buf(), line, code, message });
    };

    for (idx, code_line) in s.code_lines.iter().enumerate() {
        let line = idx + 1;
        if COUNTER_BEARING_CRATES.contains(&crate_name) {
            for word in ["HashMap", "HashSet"] {
                if word_positions(code_line, word).next().is_some() {
                    emit(
                        line,
                        "DET001",
                        format!(
                            "`{word}` in counter-bearing crate `{crate_name}`: hash iteration \
                             order is seeded per process and can leak into results or work \
                             counters — use `BTree{}` or a sorted structure",
                            &word[4..]
                        ),
                    );
                }
            }
        }
        if !TIMING_EXEMPT_CRATES.contains(&crate_name) {
            for pat in ["Instant::now", "SystemTime"] {
                if word_positions(code_line, pat).next().is_some() {
                    emit(
                        line,
                        "DET002",
                        format!(
                            "wall-clock read (`{pat}`) outside the bench crate: clocks may only \
                             feed `*_ms`/`duration` artifact fields, never a result or counter — \
                             suppress with the artifact path as the reason if this is one"
                        ),
                    );
                }
            }
        }
        for pat in ["thread::current", "ThreadId"] {
            if word_positions(code_line, pat).next().is_some() {
                emit(
                    line,
                    "DET003",
                    format!(
                        "thread-identity read (`{pat}`): which thread executes a chunk must \
                         never influence results or counters — branch on data, not on thread ids"
                    ),
                );
            }
        }
        for pat in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            if word_positions(code_line, pat).next().is_some() {
                emit(
                    line,
                    "DET004",
                    format!(
                        "OS-entropy randomness (`{pat}`): every RNG in this workspace must take \
                         an explicit seed so runs are reproducible"
                    ),
                );
            }
        }
        if ATOMIC_RATIONALE_CRATES.contains(&crate_name) && has_atomic_ordering(code_line) {
            let lo = idx.saturating_sub(DET005_LOOKBACK_LINES);
            let has_rationale = s.comment_lines[lo..=idx]
                .iter()
                .any(|c| c.to_ascii_lowercase().contains("ordering"));
            if !has_rationale {
                emit(
                    line,
                    "DET005",
                    format!(
                        "atomic memory-ordering use without a rationale comment: join/counter \
                         atomics must explain (within {DET005_LOOKBACK_LINES} lines) why the \
                         chosen ordering cannot affect results or counters (see \
                         `publish_bound` in tkij_core::localjoin for the convention)"
                    ),
                );
            }
        }
    }

    for sup in &suppressions {
        if !sup.has_reason {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: sup.line,
                code: "SUP001",
                message: format!(
                    "suppression of {} without a reason: write \
                     `// tkij-lint: allow({}) -- <why>` — reasonless suppressions are inert",
                    sup.code, sup.code
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Whether a scrubbed code line uses an *atomic* memory ordering.
/// Matching the five atomic variants (not bare `Ordering`) keeps
/// `std::cmp::Ordering::Less` and friends out of scope.
fn has_atomic_ordering(code_line: &str) -> bool {
    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
        .iter()
        .any(|v| crate::lexer::has_word(code_line, &format!("Ordering::{v}")))
}

fn parse_suppressions(s: &Scrubbed) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, comment) in s.comment_lines.iter().enumerate() {
        let Some(pos) = comment.find("tkij-lint:") else { continue };
        let rest = &comment[pos + "tkij-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else { continue };
        let code = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let has_reason =
            tail.trim_start().strip_prefix("--").is_some_and(|reason| !reason.trim().is_empty());
        out.push(Suppression { line: idx + 1, code, has_reason });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn codes(crate_name: &str, src: &str) -> Vec<&'static str> {
        lint_file(&PathBuf::from("x.rs"), crate_name, src).iter().map(|f| f.code).collect()
    }

    #[test]
    fn det001_scoped_to_counter_bearing_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes("core", src), vec!["DET001"]);
        assert_eq!(codes("datagen", src), Vec::<&str>::new());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "// tkij-lint: allow(DET001) -- build-only scratch map, never iterated\n\
                   use std::collections::HashMap;\n";
        assert_eq!(codes("core", src), Vec::<&str>::new());
    }

    #[test]
    fn suppression_without_reason_still_fails() {
        let src = "// tkij-lint: allow(DET001)\nuse std::collections::HashMap;\n";
        let got = codes("core", src);
        assert!(got.contains(&"DET001") && got.contains(&"SUP001"), "{got:?}");
    }

    #[test]
    fn det005_wants_a_rationale() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(codes("core", bad), vec!["DET005"]);
        let good = "// Relaxed ordering: read-only telemetry, never a counter.\n\
                    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(codes("core", good), Vec::<&str>::new());
        // `cmp::Ordering` stays out of scope.
        let cmp = "fn g(a: i32) -> Ordering { Ordering::Less }\n";
        assert_eq!(codes("core", cmp), Vec::<&str>::new());
    }
}
