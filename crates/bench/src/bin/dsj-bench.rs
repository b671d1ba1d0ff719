//! `dsj-bench` — per-tuple hot-path throughput harness.
//!
//! Usage:
//!
//! ```text
//! dsj-bench [--quick] [--only SUBSTR] [--out PATH] [--gate-dftt]
//!     --quick        ~10× fewer iterations / injected tuples (CI scale)
//!     --only SUBSTR  run only benchmarks whose id or strategy label
//!                    contains SUBSTR (e.g. "macro", "DFT", "window")
//!     --out PATH     write the JSON record array (default BENCH_pr8.json)
//!     --gate-dftt    exit 1 if macro N=16 DFTT throughput falls below
//!                    1/3 of DFT (the reconstruction-cliff regression gate)
//! ```
//!
//! Micro rows report steady-state ns/op for the per-tuple primitives;
//! `macro.simnet` rows report end-to-end tuples/sec through the
//! simulator, and `macro.tcp_reactor` rows the same over live loopback
//! TCP. See DESIGN.md §7 for what each row measures and how the
//! `BENCH_*.json` trajectory is meant to be read across PRs.

use dsj_bench::hotpath::{self, BenchRecord};

fn main() {
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut out_path = String::from("BENCH_pr8.json");
    let mut gate_dftt = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--gate-dftt" {
            gate_dftt = true;
        } else if arg == "--only" {
            only = Some(argv.next().unwrap_or_else(|| die("--only needs a value")));
        } else if let Some(v) = arg.strip_prefix("--only=") {
            only = Some(v.to_string());
        } else if arg == "--out" {
            out_path = argv.next().unwrap_or_else(|| die("--out needs a path"));
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else {
            die(&format!("unknown argument: {arg}"));
        }
    }

    let records = hotpath::run_suite(quick, only.as_deref());
    if records.is_empty() {
        die("no benchmarks matched --only filter");
    }
    print_table(&records);
    let json = hotpath::to_json_array(&records);
    if let Err(e) = std::fs::write(&out_path, json) {
        die(&format!("writing {out_path}: {e}"));
    }
    println!("\nwrote {} records to {out_path}", records.len());
    if gate_dftt {
        check_dftt_gate(&records);
    }
}

/// The reconstruction-cliff regression gate: DFTT's end-to-end N=16
/// throughput must stay within 3× of DFT's. Before memoized lazy
/// reconstruction the ratio sat near 0.23–0.26 (every summary paid a
/// full O(W)-per-bin rebuild of a window that routing reads ~one bucket
/// of); with it the ratio sits near 0.6, so 1/3 leaves generous headroom
/// while still catching a reintroduced eager full reconstruction.
fn check_dftt_gate(records: &[BenchRecord]) {
    let macro_tps = |label: &str| {
        records
            .iter()
            .find(|r| r.bench == "macro.simnet" && r.strategy == Some(label) && r.n == Some(16))
            .and_then(|r| r.tuples_per_sec)
    };
    let (Some(dftt), Some(dft)) = (macro_tps("DFTT"), macro_tps("DFT")) else {
        die("--gate-dftt needs the macro.simnet N=16 DFTT and DFT rows (don't filter them out with --only)");
    };
    let ratio = dftt / dft;
    println!("gate: macro.simnet N=16 DFTT/DFT throughput ratio {ratio:.2}");
    if ratio < 1.0 / 3.0 {
        eprintln!(
            "dsj-bench: DFTT reconstruction cliff regressed: \
             {dftt:.0} t/s vs DFT {dft:.0} t/s (ratio {ratio:.2} < 0.33)"
        );
        std::process::exit(1);
    }
}

fn print_table(records: &[BenchRecord]) {
    println!(
        "{:<24} {:<6} {:>3} {:>14} {:>14} {:>10} {:>10}",
        "bench", "strat", "N", "ns/op", "tuples/s", "iters", "wall_ms"
    );
    for r in records {
        println!(
            "{:<24} {:<6} {:>3} {:>14} {:>14} {:>10} {:>10.1}",
            r.bench,
            r.strategy.unwrap_or("-"),
            r.n.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
            r.ns_per_op
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
            r.tuples_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.iters,
            r.wall_ms,
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("dsj-bench: {msg}");
    std::process::exit(2)
}
