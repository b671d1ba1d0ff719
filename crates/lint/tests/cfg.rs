//! Self-tests for the v4 CFG-based families: the seeded fixtures under
//! `fixtures/cfg/` must fire (and their clean siblings stay clean)
//! through both the library API and the binary's exit codes, the v3
//! textual suite's findings must remain a subset of v4's, and the whole
//! workspace must lint inside the CI runtime budget.

use dsj_lint::{lint_tree_report, Mode, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn cfg_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/cfg")
}

fn concurrency_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/concurrency")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn branch_dependent_leak_is_reported_with_a_witness_path() {
    // The `fetch_sub` in the `Retry` arm sits textually before the
    // `Backoff` arm's return, so a linear scan sees a balanced counter;
    // only the path-sensitive proof reports the uncredited exit.
    let report = lint_tree_report(&cfg_fixtures(), Mode::Fixture).expect("walk fixtures");
    let leaks: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "branch_leak.rs")
        .collect();
    assert_eq!(leaks.len(), 1, "{leaks:#?}");
    let f = leaks[0];
    assert_eq!(f.rule, Rule::InFlightBalance);
    assert_eq!(f.line, 25, "{f:?}");
    assert!(f.is_violation(), "{f:?}");
    assert!(
        f.message.contains("witness path: lines 19 → 25"),
        "{}",
        f.message
    );
    assert!(f.message.contains("`return` early exit"), "{}", f.message);
}

#[test]
fn a_fetch_sub_hidden_in_a_closure_is_credited() {
    // v3 could not see through the closure boundary; v4 lifts the
    // closure as a sub-function and credits its definition site.
    let report = lint_tree_report(&cfg_fixtures(), Mode::Fixture).expect("walk fixtures");
    let noise: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "closure_credit.rs")
        .collect();
    assert!(noise.is_empty(), "{noise:#?}");
}

#[test]
fn a_relaxed_gate_without_a_confirming_rmw_is_flagged_once() {
    let report = lint_tree_report(&cfg_fixtures(), Mode::Fixture).expect("walk fixtures");
    let gates: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "relaxed_gate.rs")
        .collect();
    // `pump_stale` fires; `pump_confirmed` (the reactor's pre-check/swap
    // idiom) stays clean.
    assert_eq!(gates.len(), 1, "{gates:#?}");
    assert_eq!(gates[0].rule, Rule::AtomicProtocol);
    assert_eq!(gates[0].line, 14, "{:?}", gates[0]);
    assert!(
        gates[0].message.contains("Acquire-or-stronger RMW"),
        "{}",
        gates[0].message
    );
}

#[test]
fn an_unbounded_push_is_flagged_and_the_drained_sibling_is_clean() {
    let report = lint_tree_report(&cfg_fixtures(), Mode::Fixture).expect("walk fixtures");
    let growth: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "unbounded_queue.rs")
        .collect();
    assert_eq!(growth.len(), 1, "{growth:#?}");
    assert_eq!(growth[0].rule, Rule::UnboundedGrowth);
    assert!(
        growth[0].message.contains("`backlog`"),
        "{}",
        growth[0].message
    );
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.message.contains("`ledger`")),
        "{:#?}",
        report.findings
    );
}

#[test]
fn binary_exits_one_on_the_cfg_fixtures() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");
    let out = Command::new(bin)
        .arg(cfg_fixtures())
        .output()
        .expect("run dsj-lint on cfg fixtures");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in ["in-flight-balance", "atomic-protocol", "unbounded-growth"] {
        assert!(
            text.contains(&format!("[{rule}]")),
            "missing {rule}:\n{text}"
        );
    }
}

#[test]
fn the_v3_textual_findings_are_a_subset_of_v4() {
    // Every finding the v3 textual pass reported on its own fixture
    // suite must still be reported by the CFG-based pass — v4 widens
    // coverage, it must not lose it.
    let report = lint_tree_report(&concurrency_fixtures(), Mode::Fixture).expect("walk fixtures");
    let ids: BTreeSet<String> = report
        .findings
        .iter()
        .map(|f| format!("{}@{}:{}", f.rule, f.file, f.line))
        .collect();
    for v3 in [
        "lock-order@lock_cycle.rs:17",
        "lock-order@lock_cycle.rs:28",
        "guard-across-blocking@guard_across_send.rs:18",
        "in-flight-balance@unbalanced_add.rs:15",
    ] {
        assert!(ids.contains(v3), "v3 finding {v3} lost; have {ids:#?}");
    }
}

#[test]
fn whole_workspace_lint_fits_the_ci_runtime_budget() {
    // CI gates on dsj-lint staying interactive: the full-workspace run,
    // CFG construction and all five rule families included, must finish well
    // under ten seconds.
    let start = std::time::Instant::now();
    let report = lint_tree_report(&workspace_root(), Mode::Workspace).expect("lint workspace");
    let elapsed = start.elapsed();
    assert!(
        !report.findings.is_empty(),
        "workspace lint returned nothing — wrong root?"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "workspace dsj-lint took {elapsed:?}, over the 10 s budget"
    );
}
