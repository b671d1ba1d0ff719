//! `repro` reports failure through its exit status: a mistyped experiment
//! name or scale stops the process before anything runs, instead of being a
//! line on stderr above an exit 0. (An experiment whose rows come back `Err`
//! exits 1 after the rest have printed; no shipped experiment fails, so that
//! path is pinned by the binary's own unit test.)

use std::process::{Command, Output};

fn repro(scale: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).env_remove("DSJOIN_SCALE");
    if let Some(scale) = scale {
        cmd.env("DSJOIN_SCALE", scale);
    }
    cmd.output().expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_experiment_exits_2_before_anything_runs() {
    // The typo comes last: the names before it must not have run, and
    // `all` does not excuse it.
    for args in [["fig3", "figg8"], ["all", "figg8"]] {
        let out = repro(Some("quick"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("unknown experiment: figg8"));
        assert!(out.stdout.is_empty(), "nothing ran, nothing printed");
    }
}

#[test]
fn scale_must_be_quick_or_full() {
    for bad in ["quik", "", "fast"] {
        let out = repro(Some(bad), &["fig3"]);
        assert_eq!(out.status.code(), Some(2), "DSJOIN_SCALE={bad:?}");
        assert!(stderr(&out).contains("DSJOIN_SCALE"), "{}", stderr(&out));
        assert!(out.stdout.is_empty());
    }
    // Any case of the two names is accepted; fig3 is closed-form, so the
    // full-scale spellings cost nothing.
    for (ok, shown) in [("quick", "Quick"), ("QUICK", "Quick"), ("Full", "Full")] {
        let out = repro(Some(ok), &["fig3"]);
        assert_eq!(out.status.code(), Some(0), "DSJOIN_SCALE={ok:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("(scale: {shown})")), "{stdout}");
        assert!(stdout.contains("## Figure 3"));
    }
    // Unset still means full.
    let out = repro(None, &["fig4"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(scale: Full)"));
}
