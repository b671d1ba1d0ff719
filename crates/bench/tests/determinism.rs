//! Double-run determinism: the same seeded experiment must produce
//! byte-identical *stable* metrics JSONL (the phase-free projection —
//! wall-clock phase timers legitimately differ per run) no matter how
//! many worker threads fan the cells out.

use dsj_bench::{figures, suite::Executor, Scale};
use dsj_core::obs;

/// `line`'s stable projection, textually: the `"phases":{…},` object,
/// written just before `"counters"`, goes.
fn stable(line: &str) -> String {
    let start = line.find("\"phases\":{").expect("phases object");
    let end = line.find("\"counters\":").expect("counters object");
    format!("{}{}", &line[..start], &line[end..])
}

/// Fig. 8's rows and what it emitted: one stable (phase-free) line per
/// registry, in emission order. Folding them into the experiment's record
/// is `repro`'s job, pinned by its unit test and the binary-level test below.
fn fig8_stable_lines(jobs: usize) -> (Vec<figures::Fig8Row>, Vec<String>) {
    let (rows, regs) = obs::captured(|| figures::fig8(Scale::Quick, &Executor::new(jobs)));
    let lines = (0..)
        .zip(regs)
        .map(|(index, registry)| {
            let cell = obs::ExperimentRecord {
                index,
                label: "fig8".to_string(),
                runs: 1,
                registry,
            };
            stable(&cell.to_json_line())
        })
        .collect();
    (rows.expect("fig8 runs"), lines)
}

#[test]
fn stable_metrics_identical_across_reruns_and_worker_counts() {
    let (rows_a, lines_a) = fig8_stable_lines(1);
    let (rows_b, lines_b) = fig8_stable_lines(1);
    let (rows_p, lines_p) = fig8_stable_lines(4);
    assert_eq!(lines_a.len(), 2, "fig8 must emit one registry per cell");
    assert_eq!(rows_a, rows_b, "serial reruns must reproduce the figure");
    assert_eq!(rows_a, rows_p, "parallel must reproduce the serial figure");
    assert_eq!(
        lines_a, lines_b,
        "serial rerun JSONL must be byte-identical"
    );
    assert_eq!(lines_a, lines_p, "parallel JSONL must match serial bytes");
}

/// End-to-end via the binary: two `repro --metrics-out` invocations write
/// JSONL whose stable projections are byte-identical, across worker counts.
#[test]
fn repro_metrics_out_is_deterministic() {
    let bin = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir();
    let run = |jobs: &str, name: &str| -> Vec<String> {
        let path = dir.join(name);
        let status = std::process::Command::new(bin)
            .args(["fig8", "--jobs", jobs, "--metrics-out"])
            .arg(&path)
            .env("DSJOIN_SCALE", "quick")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run repro");
        assert!(status.success());
        let text = std::fs::read_to_string(&path).expect("read metrics");
        let _ = std::fs::remove_file(&path);
        text.lines().map(stable).collect()
    };
    let serial = run("1", "dsj-metrics-serial.jsonl");
    let rerun = run("1", "dsj-metrics-rerun.jsonl");
    let parallel = run("4", "dsj-metrics-parallel.jsonl");
    assert!(!serial.is_empty());
    assert_eq!(serial, rerun);
    assert_eq!(serial, parallel);
}
