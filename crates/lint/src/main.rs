//! The `dsj-lint` binary: lints the workspace (or a fixture directory)
//! and exits nonzero on any unwaived violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dsj_lint::{is_workspace_root, lint_tree_report, Mode, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dsj-lint [PATH]

Lints every .rs file under PATH (default: the enclosing workspace root)
and prints each violation, each waived finding with its reason, and a
summary line. A PATH whose Cargo.toml declares [workspace] skips tests/,
benches/ and examples/ directories; any other directory is linted in
fixture mode (every file analyzed).

exit codes: 0 clean, 1 unwaived violations, 2 usage/IO error";

fn main() -> ExitCode {
    let mut path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with('-') || path.is_some() {
            if arg != "-h" && arg != "--help" {
                eprintln!("dsj-lint: unexpected argument `{arg}`\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        path = Some(PathBuf::from(arg));
    }
    let root = match path {
        Some(p) => p,
        None => match find_workspace_root() {
            Some(p) => p,
            None => {
                eprintln!("dsj-lint: no enclosing workspace root found");
                return ExitCode::from(2);
            }
        },
    };
    if !root.is_dir() {
        eprintln!("dsj-lint: {} is not a directory", root.display());
        return ExitCode::from(2);
    }
    let mode = if is_workspace_root(&root) {
        Mode::Workspace
    } else {
        Mode::Fixture
    };
    let report = match lint_tree_report(&root, mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dsj-lint: io error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print_report(&report);
    if report.findings.iter().any(|f| f.is_violation()) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn print_report(report: &Report) {
    let violations: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.is_violation())
        .collect();
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| !f.is_violation())
        .collect();
    for f in &violations {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if !waived.is_empty() {
        println!("waivers ({}):", waived.len());
        for f in &waived {
            println!(
                "  {}:{}: [{}] waived — {}",
                f.file,
                f.line,
                f.rule,
                f.waiver.as_deref().unwrap_or("")
            );
        }
    }
    println!(
        "dsj-lint ({}): {} violation(s), {} waiver(s)",
        report.mode.name(),
        violations.len(),
        waived.len()
    );
}

/// Walks up from the current directory to the first `[workspace]` manifest.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
