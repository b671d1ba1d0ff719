//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [experiment...] [--jobs N] [--metrics-out PATH]
//!     experiments: table1 fig3 fig4 fig5 fig6 fig8 fig9 fig10a fig10b fig11 all
//!                  ablations (or: ablation_selection ablation_freshness
//!                  ablation_detector ablation_loss ablation_governor)
//!                  capacity (open-loop capacity search on the live
//!                  backends; wall-clock, one cell at a time)
//!     --jobs N          fan independent experiment cells across N worker
//!                       threads (default 1; output is byte-identical to
//!                       serial because cells are seed-isolated and results
//!                       are collected in submission order)
//!     --metrics-out P   write one JSON-lines record per experiment to P
//!                       (per-phase wall timers, per-node counters, message
//!                       size/latency histograms)
//!     env: DSJOIN_SCALE=quick|full   (default full)
//! ```

use dsj_bench::{ablation, figures, loadgen, suite::Executor, table1, Scale};
use dsj_core::obs;
use std::time::Instant;

fn main() {
    let mut jobs = 1usize;
    let mut metrics_out: Option<String> = None;
    let mut wanted_args: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--jobs" || arg == "-j" {
            jobs = argv
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("--jobs needs a positive integer"));
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            jobs = v
                .parse()
                .unwrap_or_else(|_| die("--jobs needs a positive integer"));
        } else if arg == "--metrics-out" {
            metrics_out = Some(
                argv.next()
                    .unwrap_or_else(|| die("--metrics-out needs a path")),
            );
        } else if let Some(v) = arg.strip_prefix("--metrics-out=") {
            metrics_out = Some(v.to_string());
        } else if arg.starts_with('-') {
            die(&format!("unknown flag: {arg}"))
        } else {
            wanted_args.push(arg);
        }
    }
    if jobs == 0 {
        die("--jobs needs a positive integer");
    }

    let scale = Scale::from_env().unwrap_or_else(|e| die(&e));
    let exec = Executor::new(jobs);
    // Every name is checked before anything runs; "ablations" and "all"
    // (or no name) then expand from the table, so each ablation gets its
    // own metrics record.
    let known = |arg: &str| EXPERIMENTS.iter().find(|e| e.0 == arg);
    for arg in &wanted_args {
        if arg != "all" && arg != "ablations" && known(arg).is_none() {
            die(&format!("unknown experiment: {arg}"));
        }
    }
    let mut wanted: Vec<&Experiment> = Vec::new();
    if wanted_args.is_empty() || wanted_args.iter().any(|a| a == "all") {
        wanted.extend(&EXPERIMENTS);
    } else {
        for arg in &wanted_args {
            if arg == "ablations" {
                let ablations = EXPERIMENTS.iter().filter(|e| e.0.starts_with("ablation_"));
                wanted.extend(ablations);
            } else {
                wanted.extend(known(arg));
            }
        }
    }

    println!("# dsjoin reproduction harness (scale: {scale:?})");
    let (records, failed) = run_sections(&wanted, scale, &exec, metrics_out.is_some());
    if let Some(path) = metrics_out {
        let mut lines = String::new();
        for record in records {
            lines.push_str(&record.to_json_line());
            lines.push('\n');
        }
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
    if failed {
        std::process::exit(1);
    }
}

/// Runs every wanted experiment in order — one that fails is reported and
/// the rest still run — and says whether any failed. With `capture`, each
/// experiment's emitted registries are merged, in emission order, into its
/// record; without, the obs layer stays a no-op and runs pay nothing for it.
fn run_sections(
    wanted: &[&Experiment],
    scale: Scale,
    exec: &Executor,
    capture: bool,
) -> (Vec<obs::ExperimentRecord>, bool) {
    let mut records = Vec::new();
    let mut failed = false;
    for (index, &&(label, run)) in wanted.iter().enumerate() {
        #[allow(
            clippy::disallowed_methods,
            reason = "CLI progress timing of a whole section; never feeds results"
        )]
        let started = Instant::now();
        let (result, mut regs) = if capture {
            obs::captured(|| run(scale, exec))
        } else {
            (run(scale, exec), Vec::new())
        };
        if let Err(e) = result {
            eprintln!("{label} failed: {e}");
            failed = true;
        }
        if !capture {
            continue;
        }
        let mut timer = obs::Registry::default();
        timer.phase_add("repro.section", started.elapsed());
        regs.push(timer);
        let mut registry = obs::Registry::default();
        regs.iter().for_each(|r| registry.merge(r));
        records.push(obs::ExperimentRecord {
            index: index as u64,
            label: label.to_string(),
            runs: regs.len() as u64,
            registry,
        });
    }
    (records, failed)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// What an experiment's rows can fail with.
type Failure = Box<dyn std::error::Error>;

/// One experiment: its name on the command line and the section printer.
type Experiment = (&'static str, fn(Scale, &Executor) -> Result<(), Failure>);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 16] = [
    ("table1", run_table1),
    ("fig3", run_fig3),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("fig10a", run_fig10a),
    ("fig10b", run_fig10b),
    ("fig11", run_fig11),
    ("ablation_selection", run_ablation_selection),
    ("ablation_freshness", run_ablation_freshness),
    ("ablation_detector", run_ablation_detector),
    ("ablation_loss", run_ablation_loss),
    ("ablation_governor", run_ablation_governor),
    ("capacity", run_capacity),
];

fn run_table1(scale: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Table 1 — summary maintenance CPU time");
    println!(
        "(one full DFT vs {} incremental updates; paper shape: DFT >> iDFT ~ AGMS)",
        scale.table1_updates()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "W", "DFT(s)", "iDFT(s)", "AGMS(s)"
    );
    for r in table1::run(&scale.table1_windows(), scale.table1_updates()) {
        println!(
            "{:>10} {:>12.4} {:>12.4} {:>12.4}",
            r.w, r.dft_secs, r.idft_secs, r.agms_secs
        );
    }
    Ok(())
}

fn run_fig3(_: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 3 — uniform-data bounds (Theorems 1/2)");
    println!(
        "{:>4} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "N", "eps(T=1)", "eps(T=logN)", "msgs(1)", "msgs(logN)", "msgs(BASE)"
    );
    for r in figures::bounds(20) {
        println!(
            "{:>4} {:>10.3} {:>12.3} {:>8.1} {:>10.2} {:>10}",
            r.n, r.uniform_eps_t1, r.uniform_eps_tlog, r.msgs_t1, r.msgs_tlog, r.msgs_base
        );
    }
    Ok(())
}

fn run_fig4(_: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 4 — Zipf(0.4) bounds (Theorem 3)");
    println!("{:>4} {:>10} {:>12}", "N", "eps(T=1)", "eps(T=logN)");
    for r in figures::bounds(20) {
        println!(
            "{:>4} {:>10.3} {:>12.3}",
            r.n, r.zipf_eps_t1, r.zipf_eps_tlog
        );
    }
    Ok(())
}

fn run_fig5(scale: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 5 — squared reconstruction errors, stock stream");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kappa", "retained", "MSE", "p50", "p90", "max", "lossless"
    );
    for r in figures::fig5(scale)? {
        println!(
            "{:>6} {:>9} {:>10.4} {:>10.4} {:>10.4} {:>10.3} {:>9.1}%",
            r.kappa,
            r.retained,
            r.mse,
            r.p50,
            r.p90,
            r.max,
            100.0 * r.lossless_fraction
        );
    }
    Ok(())
}

fn run_fig6(scale: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 6 — MSE vs compression factor (threshold 0.25)");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>6}",
        "kappa", "E[MSE]", "std", "lossless", "<0.25"
    );
    for r in figures::fig6(scale)? {
        println!(
            "{:>6} {:>12.5} {:>12.5} {:>9.1}% {:>6}",
            r.kappa,
            r.mse_mean,
            r.mse_std,
            100.0 * r.lossless_fraction,
            if r.below_threshold { "yes" } else { "no" }
        );
    }
    Ok(())
}

fn run_fig8(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 8 — DFT coefficient overhead vs net data (kappa=256, Zipf)");
    println!(
        "{:>4} {:>10} {:>14} {:>14}",
        "N", "overhead%", "coeff bytes", "data bytes"
    );
    for r in figures::fig8(scale, exec)? {
        println!(
            "{:>4} {:>9.2}% {:>14} {:>14}",
            r.n, r.overhead_pct, r.overhead_bytes, r.data_bytes
        );
    }
    Ok(())
}

fn run_fig9(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 9 — messages per result tuple at eps=15%");
    println!(
        "{:>5} {:>4} {:>6} {:>10} {:>8} {:>8}",
        "data", "N", "algo", "msgs/res", "eps", "target"
    );
    for r in figures::fig9(scale, exec)? {
        println!(
            "{:>5} {:>4} {:>6} {:>10.2} {:>8.3} {:>8.2}",
            r.workload,
            r.n,
            r.algorithm.label(),
            r.messages_per_result,
            r.epsilon,
            r.target
        );
    }
    Ok(())
}

fn run_fig10a(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 10a — error rate vs compression factor (N=8, Zipf)");
    println!(
        "{:>6} {:>6} {:>8} {:>12}",
        "kappa", "algo", "eps", "summary(B)"
    );
    for r in figures::fig10a(scale, exec)? {
        println!(
            "{:>6} {:>6} {:>8.3} {:>12}",
            r.x,
            r.algorithm.label(),
            r.epsilon,
            r.summary_bytes
        );
    }
    Ok(())
}

fn run_fig10b(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 10b — error rate vs cluster size (kappa=256, Zipf)");
    println!("{:>4} {:>6} {:>8}", "N", "algo", "eps");
    for r in figures::fig10b(scale, exec)? {
        println!("{:>4} {:>6} {:>8.3}", r.x, r.algorithm.label(), r.epsilon);
    }
    Ok(())
}

fn run_fig11(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Figure 11 — throughput at eps=15% (saturating load)");
    println!("{:>4} {:>6} {:>12} {:>8}", "N", "algo", "tuples/s", "eps");
    for r in figures::fig11(scale, exec)? {
        println!(
            "{:>4} {:>6} {:>12.1} {:>8.3}",
            r.n,
            r.algorithm.label(),
            r.throughput,
            r.epsilon
        );
    }
    Ok(())
}

fn run_ablation_selection(scale: Scale, _: &Executor) -> Result<(), Failure> {
    println!("\n## Ablation — coefficient selection (prefix vs top-energy)");
    println!(
        "{:>16} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "signal", "kappa", "prefix MSE", "top MSE", "prefix B", "top B"
    );
    for r in ablation::selection(scale)? {
        println!(
            "{:>16} {:>6} {:>12.4} {:>12.4} {:>10} {:>10}",
            r.signal, r.kappa, r.prefix_mse, r.top_energy_mse, r.prefix_bytes, r.top_energy_bytes
        );
    }
    Ok(())
}

fn run_ablation_freshness(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Ablation — summary freshness vs coefficient overhead (DFTT)");
    println!("{:>14} {:>8} {:>10}", "sync every", "eps", "overhead%");
    for r in ablation::sync_freshness(scale, exec)? {
        println!(
            "{:>11} msg {:>8.3} {:>9.2}%",
            r.sent_interval,
            r.epsilon,
            100.0 * r.overhead_ratio
        );
    }
    Ok(())
}

fn run_ablation_detector(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Ablation — worst-case detector CV threshold (DFT)");
    println!(
        "{:>5} {:>10} {:>8} {:>10}",
        "data", "threshold", "eps", "fallback"
    );
    for r in ablation::detector(scale, exec)? {
        println!(
            "{:>5} {:>10.2} {:>8.3} {:>9.1}%",
            r.workload,
            r.threshold,
            r.epsilon,
            100.0 * r.fallback_fraction
        );
    }
    Ok(())
}

fn run_ablation_loss(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Ablation — in-flight message loss");
    println!("{:>6} {:>6} {:>8}", "algo", "loss", "eps");
    for r in ablation::loss(scale, exec)? {
        println!(
            "{:>6} {:>6.2} {:>8.3}",
            r.algorithm.label(),
            r.loss,
            r.epsilon
        );
    }
    Ok(())
}

fn run_ablation_governor(scale: Scale, exec: &Executor) -> Result<(), Failure> {
    println!("\n## Ablation — AIMD throughput governor (DFT, T=logN)");
    println!("{:>12} {:>12} {:>8}", "budget", "msgs/tuple", "eps");
    for r in ablation::governor(scale, exec)? {
        let label = if r.budget_bps == 0 {
            "unlimited".to_string()
        } else {
            format!("{}bps", r.budget_bps)
        };
        println!("{label:>12} {:>12.2} {:>8.3}", r.msgs_per_tuple, r.epsilon);
    }
    Ok(())
}

/// Every probe is a live cluster that wants every core, so the cells run
/// one at a time whatever `--jobs` says.
fn run_capacity(scale: Scale, _: &Executor) -> Result<(), Failure> {
    let params = loadgen::SearchParams::new(scale);
    println!("\n## Capacity — open-loop max sustainable arrival rate (live backends)");
    println!(
        "(sustained: p99 <= {} ms and achieved >= {} x offered in one of two probes; \
         ≥ marks a search no rate failed)",
        params.latency_slo_us / 1_000,
        loadgen::MIN_PACE
    );
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
    let cells = loadgen::cells(scale);
    for (i, cell) in cells.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, cells.len(), cell.id());
        let row = loadgen::search_cell(cell, &params);
        let mark = if row.lower_bound { "≥" } else { "" };
        println!(
            "{:<10} {:<6} {:<12} {:>3} {:>14} {:>12.0} {:>9} {:>9} {:>9} {:>7.4} {:>7}",
            cell.scenario.label(),
            cell.algorithm.label(),
            cell.backend.label(),
            cell.n,
            format!("{mark}{:.0}", row.max_sustainable_tps),
            row.achieved_tps,
            row.p50_us,
            row.p99_us,
            row.p999_us,
            row.error_rate,
            row.probes,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emits_one(_: Scale, _: &Executor) -> Result<(), Failure> {
        let mut reg = obs::Registry::default();
        reg.counter_add("ran", 1);
        obs::emit(reg);
        Ok(())
    }

    fn fails(_: Scale, _: &Executor) -> Result<(), Failure> {
        Err("no rows".into())
    }

    // No shipped experiment fails at either scale, so the command line
    // cannot reach this path (crates/bench/tests/repro_cli.rs covers the
    // exits it can): a failed section is reported, the ones after it still
    // run, and each gets its record under its own label and index.
    #[test]
    fn a_failed_section_is_reported_after_the_rest_have_run() {
        let wanted: [&Experiment; 3] = [&("a", emits_one), &("boom", fails), &("c", emits_one)];
        let exec = Executor::serial();
        let (records, failed) = run_sections(&wanted, Scale::Quick, &exec, true);
        assert!(failed);
        let seen: Vec<_> = records
            .iter()
            .map(|r| (r.index, r.label.as_str(), r.runs, r.registry.counter("ran")))
            .collect();
        // `runs` counts registries: the section timer is one of them.
        assert_eq!(seen, [(0, "a", 2, 1), (1, "boom", 1, 0), (2, "c", 2, 1)]);
        assert!(records
            .iter()
            .all(|r| r.registry.phase("repro.section").is_some()));

        let (records, failed) = run_sections(&wanted[..1], Scale::Quick, &exec, false);
        assert!(!failed && records.is_empty());
        assert!(!obs::enabled());
    }
}
