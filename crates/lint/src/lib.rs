//! `tkij-lint` — the workspace determinism lint pass.
//!
//! [`rules`] statically enforces the determinism conventions every TKIJ
//! guarantee rests on (`DET001`–`DET005`: no hash-ordered containers in
//! counter paths, no wall-clock reads outside timing artifacts, no
//! thread-identity branching, no OS-entropy RNG seeding, ordering
//! rationales on join/counter atomics), with a mandatory-reason
//! suppression syntax (`// tkij-lint: allow(DET00x) -- <why>`).
//!
//! Run as `cargo run -p tkij-lint -- check` (alias: `cargo lint-det`);
//! wired into CI.

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::Finding;

use std::path::{Path, PathBuf};

/// Directories scanned inside the workspace root and inside each
/// `crates/*` member.
const SCANNED_DIRS: [&str; 4] = ["src", "tests", "examples", "benches"];

/// Collects every lintable `.rs` file: the facade's own source dirs
/// plus each `crates/*` member's, skipping `vendor/` (offline dep
/// stand-ins mirror external APIs, not our determinism surface) and
/// the lint crate's `fixtures/` (deliberately bad code).
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in SCANNED_DIRS {
        collect_rs(&root.join(dir), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members.iter().filter(|m| m.is_dir()) {
            for dir in SCANNED_DIRS {
                collect_rs(&member.join(dir), &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace member a path belongs to: the segment after `crates/`
/// (`"core"`, `"bench"`, ...), or `"root"` for the facade's own
/// `src/`/`tests/`/`examples/`.
pub fn crate_of(path: &Path) -> &str {
    let mut components = path.components();
    while let Some(c) = components.next() {
        if c.as_os_str() == "crates" {
            if let Some(member) = components.next() {
                return member.as_os_str().to_str().unwrap_or("root");
            }
        }
    }
    "root"
}

/// Runs the rules over the whole workspace.
pub fn check_rules(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = std::fs::read_to_string(&path)?;
        for mut f in rules::lint_file(&rel, crate_of(&rel), &source) {
            f.file = rel.clone();
            findings.push(f);
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_resolves_members_and_root() {
        assert_eq!(crate_of(Path::new("crates/core/src/localjoin.rs")), "core");
        assert_eq!(crate_of(Path::new("crates/bench/benches/f.rs")), "bench");
        assert_eq!(crate_of(Path::new("tests/pipeline.rs")), "root");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "root");
    }
}
