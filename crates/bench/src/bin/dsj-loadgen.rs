//! `dsj-loadgen` — open-loop capacity search over the live backends.
//!
//! Usage:
//!
//! ```text
//! dsj-loadgen [--quick] [--only SUBSTR] [--out PATH]
//!     --quick        CI-sized probe: 4 cells, small schedules, 2 bisections
//!     --only SUBSTR  run only cells whose id contains SUBSTR
//!                    (ids look like FLASH.DFTT.tcp_reactor.n8)
//!     --out PATH     also write the rows as a JSON array to PATH
//! ```
//!
//! For every cell of the scenario × strategy × backend × N matrix the
//! binary binary-searches the maximum sustainable arrival rate (see
//! `dsj_bench::loadgen` for the sustainability definition) and reports
//! the p50/p99/p999 delivery latency, drop rate and approximation error
//! at that capacity. See DESIGN.md §11 for how to read the rows.

use dsj_bench::loadgen::{self, SearchParams};

fn main() {
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--only" {
            only = Some(argv.next().unwrap_or_else(|| die("--only needs a value")));
        } else if let Some(v) = arg.strip_prefix("--only=") {
            only = Some(v.to_string());
        } else if arg == "--out" {
            out_path = Some(argv.next().unwrap_or_else(|| die("--out needs a path")));
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = Some(v.to_string());
        } else {
            die(&format!("unknown argument: {arg}"));
        }
    }

    let params = SearchParams::new(quick);
    let cells: Vec<_> = loadgen::cells(quick)
        .into_iter()
        .filter(|c| only.as_deref().is_none_or(|f| c.id().contains(f)))
        .collect();
    if cells.is_empty() {
        die("no cells matched --only filter");
    }

    println!(
        "{:<10} {:<6} {:<12} {:>3} {:>14} {:>12} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "scenario",
        "strat",
        "backend",
        "N",
        "max_tps",
        "achieved",
        "p50_us",
        "p99_us",
        "p999_us",
        "eps",
        "probes"
    );
    let total = cells.len();
    let mut rows = Vec::with_capacity(total);
    for (i, cell) in cells.iter().enumerate() {
        eprintln!("[{}/{total}] {}", i + 1, cell.id());
        let row = loadgen::search_cell(cell, &params);
        println!(
            "{:<10} {:<6} {:<12} {:>3} {:>14.0} {:>12.0} {:>9} {:>9} {:>9} {:>7.4} {:>7}",
            row.scenario,
            row.strategy,
            row.backend,
            row.n,
            row.max_sustainable_tps,
            row.achieved_tps,
            row.p50_us,
            row.p99_us,
            row.p999_us,
            row.error_rate,
            row.probes,
        );
        rows.push(row);
    }

    if let Some(out_path) = out_path {
        if let Err(e) = std::fs::write(&out_path, loadgen::to_json_array(&rows)) {
            die(&format!("writing {out_path}: {e}"));
        }
        println!("\nwrote {} rows to {out_path}", rows.len());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("dsj-loadgen: {msg}");
    std::process::exit(2)
}
