//! The committed bad-code fixtures must each trip their rule and the
//! live workspace must lint clean — the same contracts CI enforces
//! through the `tkij-lint` binary's exit code.

use std::path::{Path, PathBuf};
use tkij_lint::{check_rules, rules};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// Codes found in a `fixtures/bad/` file, linted the way the binary
/// lints explicit file arguments: every rule active.
fn bad_fixture_codes(name: &str) -> Vec<&'static str> {
    let path = fixture(&format!("bad/{name}.rs"));
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    rules::lint_file(&path, "core", &source).iter().map(|f| f.code).collect()
}

#[test]
fn each_det_fixture_trips_its_rule() {
    for code in rules::DET_CODES {
        let name = code.to_lowercase();
        let got = bad_fixture_codes(&name);
        assert!(got.contains(&code), "fixtures/bad/{name}.rs should trip {code}, got {got:?}");
    }
}

#[test]
fn reasonless_suppression_fixture_trips_both() {
    let got = bad_fixture_codes("sup001");
    assert!(got.contains(&"SUP001"), "missing SUP001 in {got:?}");
    assert!(got.contains(&"DET001"), "a reasonless suppression must not suppress; got {got:?}");
}

#[test]
fn live_workspace_lints_clean() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf();
    let findings = check_rules(&root).expect("workspace scan");
    assert!(findings.is_empty(), "{findings:#?}");
}
