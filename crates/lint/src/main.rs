//! The `tkij-lint` binary.
//!
//! ```text
//! tkij-lint check [--json] [--root DIR] [FILE...]
//! ```
//!
//! With no `FILE` arguments, runs the rules over the workspace at
//! `--root` (default: the current directory, falling back to the crate's
//! parent workspace when invoked via `cargo run -p tkij-lint`). With
//! `FILE` arguments, lints exactly those files with **every** rule
//! active (as if they lived in a counter-bearing crate) — the mode the
//! committed bad-code fixtures are checked with.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;
use tkij_lint::{check_rules, report, rules, Finding};

struct Args {
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("usage: tkij-lint check [--json] [--root DIR] [FILE...]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() != Some("check") {
        return usage();
    }
    let mut args = Args { json: false, root: None, files: Vec::new() };
    let mut raw = raw.peekable();
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--root" => match raw.next() {
                Some(dir) => args.root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    let findings = match run(&args) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("tkij-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", report::render_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("tkij-lint: clean");
        } else {
            println!("tkij-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> std::io::Result<Vec<Finding>> {
    if !args.files.is_empty() {
        // Explicit files: all rules active (counter-bearing context).
        let mut findings = Vec::new();
        for file in &args.files {
            let source = std::fs::read_to_string(file)?;
            findings.extend(rules::lint_file(file, "core", &source));
        }
        return Ok(findings);
    }

    let root = match &args.root {
        Some(root) => root.clone(),
        // Under `cargo run -p tkij-lint` the working directory is the
        // invoker's; prefer an explicit workspace mark over guessing.
        None => {
            let cwd = std::env::current_dir()?;
            if cwd.join("Cargo.toml").is_file() {
                cwd
            } else {
                return Err(std::io::Error::other(
                    "not inside a workspace root; pass --root <dir>",
                ));
            }
        }
    };

    check_rules(&root)
}
