//! `dsj-lint` — repo-specific static analysis for the dsjoin workspace.
//!
//! One rule decides what lives here: *a rule family stays only if it
//! catches something rustc, clippy or a test in the tree does not.* The
//! five that do all concern the live runtimes' threading, where a wrong
//! answer is invisible to every test on x86:
//!
//! - [`concurrency`] builds an intra-procedural CFG ([`mod@cfg`]) per
//!   function and proves the may-hold-while-acquiring lock graph acyclic
//!   (`lock-order`, `RwLock` read/write guards included), flags guards
//!   live across blocking calls on any path (`guard-across-blocking`) and
//!   proves the `in_flight` quiescence counter balanced on every path
//!   (`in-flight-balance`, with witness paths);
//! - [`atomics`] checks the reactor's ordering protocols
//!   (`atomic-protocol`: Relaxed gates need a confirming RMW, flags are
//!   set before kicks);
//! - [`growth`] flags loop-fed struct fields nothing ever drains
//!   (`unbounded-growth`).
//!
//! Everything else the crate once checked is checked more cheaply
//! elsewhere (DESIGN.md §6 has the table): determinism, panic-safety and
//! crate hygiene by the clippy gate (`clippy.toml` plus the second line
//! of `just clippy`), wire-enum exhaustiveness by rustc and
//! `wire::tests::round_trip_identity`, and the per-tuple path's
//! allocations by measurement in `tests/alloc_budget.rs`.
//!
//! Findings can be waived in place with
//! `// dsj-lint: allow(<rule>) — <reason>`; the waiver covers the pragma's
//! own line and the next line, every waived finding is printed with its
//! reason, and a pragma that is malformed or waives nothing is itself a
//! violation (`pragma`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod callgraph;
pub mod cfg;
pub mod concurrency;
pub mod growth;
pub mod lex;
pub mod parse;
pub mod rules;

pub use rules::{Finding, Rule, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

/// Whether test, bench and example directories are analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The dsjoin workspace: files under a `tests/`, `benches/` or
    /// `examples/` directory are excluded from the analyses.
    Workspace,
    /// Every file is analyzed (self-test fixtures).
    Fixture,
}

impl Mode {
    /// The mode's name, as printed in the summary line.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Workspace => "workspace",
            Mode::Fixture => "fixture",
        }
    }
}

/// The full result of linting a tree.
#[derive(Debug)]
pub struct Report {
    /// The mode the tree was linted under.
    pub mode: Mode,
    /// All findings (waived ones included), sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

/// Recursively collects `.rs` files under `root`, skipping `vendor/`,
/// `target/`, `fixtures/` and `.git/`. The result is sorted so reports
/// are stable.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Per-file state carried between the scan, analysis and waiver passes.
struct FileState {
    rel: String,
    scan: lex::Scan,
    items: parse::FileItems,
    exempt: bool,
    pragmas: Vec<rules::Pragma>,
    findings: Vec<Finding>,
}

/// Lints every `.rs` file under `root` — the tree-level passes, then
/// waiver application and the stale-pragma audit — and returns the full
/// [`Report`].
pub fn lint_tree_report(root: &Path, mode: Mode) -> io::Result<Report> {
    let mut states: Vec<FileState> = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        let exempt = mode == Mode::Workspace
            && rel
                .split('/')
                .any(|c| c == "tests" || c == "benches" || c == "examples");
        let scan = lex::scan(&source);
        let items = parse::parse_items(&scan);
        let (pragmas, findings) = rules::parse_pragmas(&rel, &scan.comments);
        states.push(FileState {
            rel,
            scan,
            items,
            exempt,
            pragmas,
            findings,
        });
    }

    let inputs: Vec<callgraph::FileGraphInput<'_>> = states
        .iter()
        .map(|s| callgraph::FileGraphInput {
            rel: &s.rel,
            tokens: &s.scan.tokens,
            items: &s.items,
            exempt: s.exempt,
        })
        .collect();
    let model = concurrency::build_model(&inputs);
    let mut tree = concurrency::analyze_model(&model, &inputs);
    tree.extend(atomics::analyze_model(&model, &inputs));
    tree.extend(growth::analyze_model(&model, &inputs));
    drop(model);
    drop(inputs);
    let mut unattached: Vec<Finding> = Vec::new();
    for f in tree {
        match states.iter_mut().find(|s| s.rel == f.file) {
            Some(s) => s.findings.push(f),
            None => unattached.push(f),
        }
    }

    // Waiver application + stale-pragma audit, per file.
    let mut findings: Vec<Finding> = Vec::new();
    for s in &mut states {
        let mut hits = vec![0usize; s.pragmas.len()];
        rules::apply_waivers(&mut s.findings, &s.pragmas, &mut hits);
        for (p, &hits) in s.pragmas.iter().zip(&hits) {
            if hits == 0 {
                s.findings.push(rules::stale_pragma_finding(&s.rel, p));
            }
        }
        findings.append(&mut s.findings);
    }
    findings.append(&mut unattached);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report { mode, findings })
}

/// Lints every `.rs` file under `root` and returns all findings (waived
/// ones included), sorted by file then line.
pub fn lint_tree(root: &Path, mode: Mode) -> io::Result<Vec<Finding>> {
    Ok(lint_tree_report(root, mode)?.findings)
}

/// Detects whether `root` is the dsjoin workspace (a `Cargo.toml` with a
/// `[workspace]` table) as opposed to a fixture directory.
pub fn is_workspace_root(root: &Path) -> bool {
    fs::read_to_string(root.join("Cargo.toml"))
        .map(|s| s.lines().any(|l| l.trim() == "[workspace]"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_detection_requires_workspace_table() {
        // The lint crate's own Cargo.toml is a package, not a workspace.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        assert!(!is_workspace_root(here));
        // Two levels up is the dsjoin workspace root.
        let ws = here.join("../..");
        assert!(is_workspace_root(&ws));
    }

    #[test]
    fn collect_skips_vendor_and_fixtures() {
        let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_rs_files(&ws).expect("walk workspace");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.to_string_lossy();
            assert!(!s.contains("/vendor/"), "{s}");
            assert!(!s.contains("/target/"), "{s}");
            assert!(!s.contains("/fixtures/"), "{s}");
        }
    }
}
