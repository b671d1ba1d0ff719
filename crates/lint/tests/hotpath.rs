//! Self-tests for the call-graph hot-path pass: every seeded fixture
//! violation must be detected (library API and binary exit codes), the
//! JSON report must be byte-stable, the workspace must self-lint clean,
//! and the PR-2 waivers must stay alive and audited.

use dsj_lint::{lint_tree_report, Mode, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn hotpath_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/hotpath")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_hot_path_rule_fires_on_its_fixture() {
    let report = lint_tree_report(&hotpath_fixtures(), Mode::Fixture).expect("walk fixtures");
    let fired = |rule: Rule, file: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.is_violation())
    };
    assert!(
        fired(Rule::HotPathAlloc, "direct_alloc.rs"),
        "{:?}",
        report.findings
    );
    assert!(fired(Rule::HotPathAlloc, "transitive_alloc.rs"));
    assert!(fired(Rule::HotPathPanic, "transitive_unwrap.rs"));
    assert!(fired(Rule::HotPathNondet, "transitive_nondet.rs"));
    assert!(fired(Rule::HotPathOpaque, "opaque_unwaived.rs"));
}

#[test]
fn transitive_alloc_is_reported_in_the_deep_helper_with_root_context() {
    let report = lint_tree_report(&hotpath_fixtures(), Mode::Fixture).expect("walk fixtures");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::HotPathAlloc && f.file == "transitive_alloc.rs")
        .expect("transitive alloc finding");
    // The finding lands on `String::from` inside `helper_two`, two call
    // edges below the marked root, and names the root it is reachable from.
    assert_eq!(f.line, 14, "{f:?}");
    assert!(f.message.contains("helper_two"), "{}", f.message);
    assert!(
        f.message
            .contains("reachable from hot-path root `root_transitive`"),
        "{}",
        f.message
    );
}

#[test]
fn waived_opaque_call_is_not_a_violation_and_the_pragma_is_not_stale() {
    let report = lint_tree_report(&hotpath_fixtures(), Mode::Fixture).expect("walk fixtures");
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "opaque_waived.rs")
        .collect();
    assert_eq!(waived.len(), 1, "{waived:?}");
    assert_eq!(waived[0].rule, Rule::HotPathOpaque);
    assert!(!waived[0].is_violation(), "{:?}", waived[0]);
    let audit = report
        .waivers
        .iter()
        .find(|w| w.file == "opaque_waived.rs")
        .expect("waiver audited");
    assert_eq!(audit.hits, 1, "{audit:?}");
}

#[test]
fn binary_exits_one_on_hotpath_fixtures() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");
    let out = Command::new(bin)
        .arg(hotpath_fixtures())
        .output()
        .expect("run dsj-lint on hotpath fixtures");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "hot-path-alloc",
        "hot-path-panic",
        "hot-path-nondet",
        "hot-path-opaque-call",
    ] {
        assert!(
            report.contains(&format!("[{rule}]")),
            "missing {rule} in:\n{report}"
        );
    }
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");
    let run = || {
        Command::new(bin)
            .arg(hotpath_fixtures())
            .args(["--format", "json"])
            .output()
            .expect("run dsj-lint --format json")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "JSON report must be byte-stable");
    let json = String::from_utf8(a.stdout).expect("utf8 json");
    assert!(
        json.contains("\"id\": \"hot-path-alloc@direct_alloc.rs:5\""),
        "{json}"
    );
    assert!(json.contains("\"mode\": \"fixture\""), "{json}");
    assert!(json.ends_with("}\n"), "{json}");
}

#[test]
fn workspace_self_lint_has_zero_unwaived_hot_path_findings() {
    let report = lint_tree_report(&workspace_root(), Mode::Workspace).expect("lint workspace");
    let unwaived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule.is_hot_path() && f.is_violation())
        .collect();
    assert!(unwaived.is_empty(), "{unwaived:#?}");
}

#[test]
fn the_original_waivers_are_still_alive_and_audited() {
    // The three waivers shipped with the first lint pass must stay both
    // present and *live* (hits > 0) — a stale one means the code moved
    // out from under its pragma.
    let report = lint_tree_report(&workspace_root(), Mode::Workspace).expect("lint workspace");
    for (file, rule) in [
        ("crates/bench/src/bin/repro.rs", Rule::WallClock),
        ("crates/bench/src/suite.rs", Rule::Panic),
        ("crates/dft/src/sliding.rs", Rule::FloatEq),
    ] {
        let w = report
            .waivers
            .iter()
            .find(|w| w.file == file && w.rule == rule)
            .unwrap_or_else(|| panic!("waiver [{rule}] missing from {file}"));
        assert!(w.hits > 0, "stale waiver in {file}: {w:?}");
    }
    // Pin the total pragma count so waiver drift is a conscious edit here,
    // not an accident: the original 3 token-rule waivers + 11 hot-path
    // cold-path escapes
    // (the transport layer added the engine's send fan-out and the live
    // transports' one shared wall-clock read; the batched frame loop added
    // the summary-application boundary in `NodeEngine::on_frame`; the
    // open-loop load harness added the stamped-arrival latency record —
    // a branch closed-loop feeders never reach; the single flow filter
    // dropped the two "BLOOM/SKCH builds its route internally" escapes
    // and added SKCH's per-refresh `AgmsSketch::join_size`) + the
    // reactor's 1 guard-across-blocking escape (nonblocking sockets:
    // `write_vectored` returns `WouldBlock` instead of blocking, and the
    // guard is what serializes writer-vs-reactor access to the queue;
    // re-audited against the CFG-based v4 pass, which now attributes the
    // block through `WriteQueue::write_coalesced` transitively; flush and
    // retry share one `OutLink::submit` since PR 13) + the
    // CFG builder's 1 unbounded-growth escape (`Builder::loop_bodies`
    // is per-build() metadata, not a runtime queue — the long-lived
    // heuristic cannot see the builder's lifetime).
    assert_eq!(report.waivers.len(), 16, "{:#?}", report.waivers);
    assert!(
        report.waivers.iter().all(|w| w.hits > 0),
        "{:#?}",
        report.waivers
    );
}

#[test]
fn waivers_flag_reports_and_exits_zero_even_with_violations() {
    let bin = env!("CARGO_BIN_EXE_dsj-lint");
    let out = Command::new(bin)
        .arg(hotpath_fixtures())
        .arg("--waivers")
        .output()
        .expect("run dsj-lint --waivers");
    assert_eq!(out.status.code(), Some(0));
    let audit = String::from_utf8_lossy(&out.stdout);
    assert!(audit.contains("waiver audit (fixture)"), "{audit}");
    assert!(
        audit.contains("opaque_waived.rs") && audit.contains("1 hit(s)"),
        "{audit}"
    );
}

#[test]
fn stale_waiver_is_a_pragma_violation_in_tree_mode() {
    // A hot-path waiver that stops matching anything must fail the lint:
    // pin the behavior with a throwaway tree holding one stale pragma.
    let dir = std::env::temp_dir().join(format!("dsj-lint-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("stale.rs"),
        "// dsj-lint: allow(hot-path-opaque-call) — waives nothing\npub fn quiet() -> u32 {\n    7\n}\n",
    )
    .expect("write fixture");
    let report = lint_tree_report(&dir, Mode::Fixture).expect("lint stale tree");
    std::fs::remove_dir_all(&dir).ok();
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Pragma && f.is_violation())
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert!(
        stale[0].message.contains("waives nothing"),
        "{:?}",
        stale[0]
    );
}
