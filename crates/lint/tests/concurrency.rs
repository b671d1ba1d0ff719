//! Self-tests for the concurrency rule families: each seeded fixture
//! under `fixtures/concurrency/` must fire its rule (via the lib API and
//! via the binary's exit code), and the workspace must pin at zero
//! unwaived findings for all three families.

use dsj_lint::{lint_tree, lint_tree_report, Mode, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn concurrency_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/concurrency")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_concurrency_rule_fires_on_its_fixture() {
    let findings = lint_tree(&concurrency_fixtures(), Mode::Fixture).expect("walk fixtures");
    let fired = |rule: Rule, file: &str| {
        findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.is_violation())
    };
    assert!(fired(Rule::LockOrder, "lock_cycle.rs"), "{findings:?}");
    assert!(
        fired(Rule::GuardBlocking, "guard_across_send.rs"),
        "{findings:?}"
    );
    assert!(
        fired(Rule::InFlightBalance, "unbalanced_add.rs"),
        "{findings:?}"
    );
}

#[test]
fn clean_variants_in_the_fixtures_stay_clean() {
    let findings = lint_tree(&concurrency_fixtures(), Mode::Fixture).expect("walk fixtures");
    // Dropping the guard before `send` releases it: `record_released`
    // sits past line 21 of guard_across_send.rs and must not be flagged.
    assert!(
        !findings
            .iter()
            .any(|f| f.file == "guard_across_send.rs" && f.line > 21),
        "{findings:?}"
    );
    // The balanced exit of `inject` pairs its add with a sub — exactly
    // one in-flight finding (the early return), not two.
    let inflight = findings
        .iter()
        .filter(|f| f.file == "unbalanced_add.rs" && f.rule == Rule::InFlightBalance)
        .count();
    assert_eq!(inflight, 1, "{findings:?}");
}

#[test]
fn lock_order_witness_names_both_orders() {
    let findings = lint_tree(&concurrency_fixtures(), Mode::Fixture).expect("walk fixtures");
    let cycle = findings
        .iter()
        .find(|f| f.rule == Rule::LockOrder)
        .expect("lock-order finding");
    assert!(cycle.message.contains("lock-order cycle"), "{cycle:?}");
    assert!(cycle.message.contains("opposite order"), "{cycle:?}");
    assert!(cycle.message.contains("alpha"), "{cycle:?}");
    assert!(cycle.message.contains("beta"), "{cycle:?}");
}

#[test]
fn binary_flags_the_concurrency_fixtures() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");
    let out = Command::new(bin)
        .arg(concurrency_fixtures())
        .output()
        .expect("run dsj-lint on concurrency fixtures");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    for rule in ["lock-order", "guard-across-blocking", "in-flight-balance"] {
        assert!(
            report.contains(&format!("[{rule}]")),
            "missing {rule} in:\n{report}"
        );
    }
}

#[test]
fn workspace_has_zero_unwaived_concurrency_findings() {
    let report = lint_tree_report(&workspace_root(), Mode::Workspace).expect("walk workspace");
    let bad: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            matches!(
                f.rule,
                Rule::LockOrder | Rule::GuardBlocking | Rule::InFlightBalance
            ) && f.is_violation()
        })
        .collect();
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn workspace_mode_skips_test_bench_and_example_directories() {
    // The same leaking counter under `src/` and under the three exempt
    // directory names: workspace mode reports the `src/` copy only,
    // fixture mode all four.
    let root = std::env::temp_dir().join(format!("dsj-lint-exempt-{}", std::process::id()));
    let seed = include_str!("../fixtures/concurrency/unbalanced_add.rs");
    for dir in ["src", "tests", "benches", "examples"] {
        std::fs::create_dir_all(root.join(dir)).expect("mkdir");
        std::fs::write(root.join(dir).join("leak.rs"), seed).expect("write seed");
    }
    let files = |mode: Mode| -> Vec<String> {
        let findings = lint_tree(&root, mode).expect("lint temp tree");
        findings.into_iter().map(|f| f.file).collect()
    };
    let (workspace, fixture) = (files(Mode::Workspace), files(Mode::Fixture));
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(workspace, ["src/leak.rs"]);
    assert_eq!(
        fixture,
        [
            "benches/leak.rs",
            "examples/leak.rs",
            "src/leak.rs",
            "tests/leak.rs"
        ]
    );
}
