//! Self-tests for the `pragma` rule and the binary's contract: a
//! well-formed waiver counts without failing, every way a pragma can be
//! wrong is a violation, and the exit codes are 0 clean, 1 violations,
//! 2 usage.

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
fn waived_fixture_counts_as_waiver_not_violation() {
    let findings = lint_tree(&fixtures_dir().join("pragma"), Mode::Fixture).expect("walk fixtures");
    let waived: Vec<_> = findings.iter().filter(|f| f.file == "waived.rs").collect();
    // One finding: the waived one. A stale pragma would add a second.
    assert_eq!(waived.len(), 1, "{waived:?}");
    assert_eq!(waived[0].rule, Rule::GuardBlocking);
    assert!(!waived[0].is_violation());
    assert_eq!(
        waived[0].waiver.as_deref(),
        Some("fixture demonstrating a well-formed waiver")
    );
}

#[test]
fn every_way_a_pragma_can_be_wrong_is_a_violation() {
    let findings = lint_tree(&fixtures_dir().join("pragma"), Mode::Fixture).expect("walk fixtures");
    let bad: Vec<_> = findings
        .iter()
        .filter(|f| f.file == "bad_pragma.rs")
        .collect();
    assert!(bad.iter().all(|f| f.is_violation()), "{bad:#?}");
    let pragma_on = |line: u32, what: &str| {
        bad.iter()
            .any(|f| f.rule == Rule::Pragma && f.line == line && f.message.contains(what))
    };
    assert!(pragma_on(8, "unknown rule `nonsense`"), "{bad:#?}");
    assert!(pragma_on(11, "waives nothing"), "{bad:#?}");
    assert!(pragma_on(23, "without a reason"), "{bad:#?}");
    // The reasonless pragma did not waive the finding under it.
    assert!(
        bad.iter()
            .any(|f| f.rule == Rule::GuardBlocking && f.line == 24),
        "{bad:#?}"
    );
    assert_eq!(bad.len(), 4, "{bad:#?}");
}

#[test]
fn binary_fails_on_fixtures_and_passes_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");

    let on_fixtures = Command::new(bin)
        .arg(fixtures_dir())
        .output()
        .expect("run dsj-lint on fixtures");
    let report = String::from_utf8_lossy(&on_fixtures.stdout);
    assert_eq!(on_fixtures.status.code(), Some(1), "stdout: {report}");
    assert!(report.contains("(fixture)"), "{report}");
    for rule in [
        "lock-order",
        "guard-across-blocking",
        "in-flight-balance",
        "atomic-protocol",
        "unbounded-growth",
        "pragma",
    ] {
        assert!(
            report.contains(&format!("[{rule}]")),
            "missing {rule} in:\n{report}"
        );
    }
    // The waived finding is listed with its reason, not as a violation.
    assert!(report.contains("waivers (1):"), "{report}");
    assert!(
        report.contains("waived — fixture demonstrating a well-formed waiver"),
        "{report}"
    );

    let on_workspace = Command::new(bin)
        .arg(workspace_root())
        .output()
        .expect("run dsj-lint on workspace");
    let report = String::from_utf8_lossy(&on_workspace.stdout);
    assert_eq!(
        on_workspace.status.code(),
        Some(0),
        "workspace must lint clean:\n{report}"
    );
    // The two pragmas left in the tree (`reactor.rs`'s nonblocking
    // `write_vectored` under the queue guard, the CFG builder's
    // per-`build()` `loop_bodies`), each waiving one finding. A third is
    // a conscious edit here, not an accident.
    assert!(
        report.contains("dsj-lint (workspace): 0 violation(s), 2 waiver(s)"),
        "{report}"
    );

    for usage in ["--help", "--format"] {
        let out = Command::new(bin)
            .arg(usage)
            .output()
            .expect("run dsj-lint with a flag");
        assert_eq!(out.status.code(), Some(2), "{usage}");
    }
}
