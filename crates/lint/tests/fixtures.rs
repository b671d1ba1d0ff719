//! Self-tests over the seeded-violation fixtures: every rule must fire on
//! its fixture, waivers must count without failing, and the binary's exit
//! codes must match the contract (0 clean, 1 violations, 2 usage).

use dsj_lint::{lint_tree, Mode, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let findings = lint_tree(&fixtures_dir(), Mode::Fixture).expect("walk fixtures");
    let fired = |rule: Rule, file: &str| {
        findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.is_violation())
    };
    assert!(fired(Rule::Panic, "panics.rs"), "{findings:?}");
    assert!(fired(Rule::HashIter, "hash_iter.rs"));
    assert!(fired(Rule::WallClock, "wall_clock.rs"));
    assert!(fired(Rule::UnseededRng, "unseeded_rng.rs"));
    assert!(fired(Rule::FloatEq, "float_eq.rs"));
    assert!(fired(Rule::CrateAttrs, "badcrate/src/lib.rs"));
    assert!(fired(Rule::Pragma, "bad_pragma.rs"));
}

#[test]
fn waived_fixture_counts_as_waiver_not_violation() {
    let findings = lint_tree(&fixtures_dir(), Mode::Fixture).expect("walk fixtures");
    let waived: Vec<_> = findings.iter().filter(|f| f.file == "waived.rs").collect();
    assert_eq!(waived.len(), 1, "{waived:?}");
    assert_eq!(waived[0].rule, Rule::Panic);
    assert!(!waived[0].is_violation());
    assert_eq!(
        waived[0].waiver.as_deref(),
        Some("fixture demonstrating a well-formed waiver")
    );
}

#[test]
fn binary_fails_on_fixtures_and_passes_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");

    let on_fixtures = Command::new(bin)
        .arg(fixtures_dir())
        .output()
        .expect("run dsj-lint on fixtures");
    assert_eq!(
        on_fixtures.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&on_fixtures.stdout)
    );
    let report = String::from_utf8_lossy(&on_fixtures.stdout);
    assert!(report.contains("(fixture)"), "{report}");
    for rule in [
        "panic",
        "hash-iter",
        "wall-clock",
        "unseeded-rng",
        "float-eq",
        "crate-attrs",
    ] {
        assert!(
            report.contains(&format!("[{rule}]")),
            "missing {rule} in:\n{report}"
        );
    }

    let on_workspace = Command::new(bin)
        .arg(workspace_root())
        .output()
        .expect("run dsj-lint on workspace");
    assert_eq!(
        on_workspace.status.code(),
        Some(0),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&on_workspace.stdout)
    );

    let usage = Command::new(bin)
        .arg("--help")
        .output()
        .expect("run dsj-lint --help");
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn every_listed_path_exists_in_the_tree() {
    // An exemption outlives a deleted file silently: `starts_with` /
    // `contains` simply never match again.
    let root = workspace_root();
    for path in dsj_lint::rules::WALL_CLOCK_ALLOWLIST
        .iter()
        .chain(&dsj_lint::rules::DETERMINISTIC_PATHS)
    {
        assert!(root.join(path).exists(), "dead path in a lint list: {path}");
    }
}
