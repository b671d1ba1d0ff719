//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [experiment...] [--jobs N] [--metrics-out PATH]
//!     experiments: table1 fig3 fig4 fig5 fig6 fig8 fig9 fig10a fig10b fig11 all
//!                  ablations (or: ablation_selection ablation_freshness
//!                  ablation_detector ablation_loss ablation_governor)
//!     --jobs N          fan independent experiment cells across N worker
//!                       threads (default 1; output is byte-identical to
//!                       serial because cells are seed-isolated and results
//!                       are collected in submission order)
//!     --metrics-out P   write one JSON-lines record per experiment to P
//!                       (per-phase wall timers, per-node counters, message
//!                       size/latency histograms)
//!     env: DSJOIN_SCALE=quick|full   (default full)
//! ```

use dsj_bench::{ablation, figures, suite::Executor, table1, Scale};
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

    let scale = Scale::from_env();
    let exec = Executor::new(jobs);
    // Ablations run as five separate experiments so each gets its own
    // metrics record; "ablations"/"all" expand to the full list.
    let ablation_names = [
        "ablation_selection",
        "ablation_freshness",
        "ablation_detector",
        "ablation_loss",
        "ablation_governor",
    ];
    let mut wanted: Vec<&str> = Vec::new();
    if wanted_args.is_empty() || wanted_args.iter().any(|a| a == "all") {
        wanted.extend([
            "table1", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10a", "fig10b", "fig11",
        ]);
        wanted.extend(ablation_names);
    } else {
        for arg in &wanted_args {
            if arg == "ablations" {
                wanted.extend(ablation_names);
            } else {
                wanted.push(arg);
            }
        }
    }

    // Install the collector only when asked: with no sink, the obs layer
    // is a no-op and runs pay nothing for it.
    let collector = metrics_out.as_ref().map(|_| obs::Collector::install());

    println!("# dsjoin reproduction harness (scale: {scale:?})");
    for (index, exp) in wanted.iter().enumerate() {
        #[allow(
            clippy::disallowed_methods,
            reason = "CLI progress timing of a whole section; never feeds results"
        )]
        let started = Instant::now();
        obs::scoped(exp, index as u64, || {
            run_experiment(exp, scale, &exec);
            if obs::enabled() {
                let mut reg = obs::Registry::default();
                reg.phase_add("repro.section", started.elapsed());
                obs::emit(reg);
            }
        });
    }

    if let (Some(path), Some(collector)) = (metrics_out, collector) {
        let mut lines = String::new();
        for record in collector.drain() {
            lines.push_str(&record.to_json_line());
            lines.push('\n');
        }
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn run_experiment(exp: &str, scale: Scale, exec: &Executor) {
    match exp {
        "table1" => run_table1(scale),
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "fig5" => run_fig5(scale),
        "fig6" => run_fig6(scale),
        "fig8" => run_fig8(scale, exec),
        "fig9" => run_fig9(scale, exec),
        "fig10a" => run_fig10a(scale, exec),
        "fig10b" => run_fig10b(scale, exec),
        "fig11" => run_fig11(scale, exec),
        "ablation_selection" => run_ablation_selection(scale),
        "ablation_freshness" => run_ablation_freshness(scale, exec),
        "ablation_detector" => run_ablation_detector(scale, exec),
        "ablation_loss" => run_ablation_loss(scale, exec),
        "ablation_governor" => run_ablation_governor(scale, exec),
        other => eprintln!("unknown experiment: {other}"),
    }
}

fn run_table1(scale: Scale) {
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
}

fn run_fig3() {
    println!("\n## Figure 3 — uniform-data bounds (Theorems 1/2)");
    println!(
        "{:>4} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "N", "eps(T=1)", "eps(T=logN)", "msgs(1)", "msgs(logN)", "msgs(BASE)"
    );
    for r in figures::fig3(20) {
        println!(
            "{:>4} {:>10.3} {:>12.3} {:>8.1} {:>10.2} {:>10}",
            r.n, r.uniform_eps_t1, r.uniform_eps_tlog, r.msgs_t1, r.msgs_tlog, r.msgs_base
        );
    }
}

fn run_fig4() {
    println!("\n## Figure 4 — Zipf(0.4) bounds (Theorem 3)");
    println!("{:>4} {:>10} {:>12}", "N", "eps(T=1)", "eps(T=logN)");
    for r in figures::fig4(20) {
        println!(
            "{:>4} {:>10.3} {:>12.3}",
            r.n, r.zipf_eps_t1, r.zipf_eps_tlog
        );
    }
}

fn run_fig5(scale: Scale) {
    println!("\n## Figure 5 — squared reconstruction errors, stock stream");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kappa", "retained", "MSE", "p50", "p90", "max", "lossless"
    );
    match figures::fig5(scale) {
        Ok(rows) => {
            for r in rows {
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
        }
        Err(e) => eprintln!("fig5 failed: {e}"),
    }
}

fn run_fig6(scale: Scale) {
    println!("\n## Figure 6 — MSE vs compression factor (threshold 0.25)");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>6}",
        "kappa", "E[MSE]", "std", "lossless", "<0.25"
    );
    match figures::fig6(scale) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>6} {:>12.5} {:>12.5} {:>9.1}% {:>6}",
                    r.kappa,
                    r.mse_mean,
                    r.mse_std,
                    100.0 * r.lossless_fraction,
                    if r.below_threshold { "yes" } else { "no" }
                );
            }
        }
        Err(e) => eprintln!("fig6 failed: {e}"),
    }
}

fn run_fig8(scale: Scale, exec: &Executor) {
    println!("\n## Figure 8 — DFT coefficient overhead vs net data (kappa=256, Zipf)");
    println!(
        "{:>4} {:>10} {:>14} {:>14}",
        "N", "overhead%", "coeff bytes", "data bytes"
    );
    match figures::fig8_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>4} {:>9.2}% {:>14} {:>14}",
                    r.n, r.overhead_pct, r.overhead_bytes, r.data_bytes
                );
            }
        }
        Err(e) => eprintln!("fig8 failed: {e}"),
    }
}

fn run_fig9(scale: Scale, exec: &Executor) {
    println!("\n## Figure 9 — messages per result tuple at eps=15%");
    println!(
        "{:>5} {:>4} {:>6} {:>10} {:>8} {:>8}",
        "data", "N", "algo", "msgs/res", "eps", "target"
    );
    match figures::fig9_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
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
        }
        Err(e) => eprintln!("fig9 failed: {e}"),
    }
}

fn run_fig10a(scale: Scale, exec: &Executor) {
    println!("\n## Figure 10a — error rate vs compression factor (N=8, Zipf)");
    println!(
        "{:>6} {:>6} {:>8} {:>12}",
        "kappa", "algo", "eps", "summary(B)"
    );
    match figures::fig10a_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>6} {:>6} {:>8.3} {:>12}",
                    r.x,
                    r.algorithm.label(),
                    r.epsilon,
                    r.summary_bytes
                );
            }
        }
        Err(e) => eprintln!("fig10a failed: {e}"),
    }
}

fn run_fig10b(scale: Scale, exec: &Executor) {
    println!("\n## Figure 10b — error rate vs cluster size (kappa=256, Zipf)");
    println!("{:>4} {:>6} {:>8}", "N", "algo", "eps");
    match figures::fig10b_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!("{:>4} {:>6} {:>8.3}", r.x, r.algorithm.label(), r.epsilon);
            }
        }
        Err(e) => eprintln!("fig10b failed: {e}"),
    }
}

fn run_fig11(scale: Scale, exec: &Executor) {
    println!("\n## Figure 11 — throughput at eps=15% (saturating load)");
    println!("{:>4} {:>6} {:>12} {:>8}", "N", "algo", "tuples/s", "eps");
    match figures::fig11_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>4} {:>6} {:>12.1} {:>8.3}",
                    r.n,
                    r.algorithm.label(),
                    r.throughput,
                    r.epsilon
                );
            }
        }
        Err(e) => eprintln!("fig11 failed: {e}"),
    }
}

fn run_ablation_selection(scale: Scale) {
    println!("\n## Ablation — coefficient selection (prefix vs top-energy)");
    println!(
        "{:>16} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "signal", "kappa", "prefix MSE", "top MSE", "prefix B", "top B"
    );
    match ablation::selection(scale) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>16} {:>6} {:>12.4} {:>12.4} {:>10} {:>10}",
                    r.signal,
                    r.kappa,
                    r.prefix_mse,
                    r.top_energy_mse,
                    r.prefix_bytes,
                    r.top_energy_bytes
                );
            }
        }
        Err(e) => eprintln!("ablation_selection failed: {e}"),
    }
}

fn run_ablation_freshness(scale: Scale, exec: &Executor) {
    println!("\n## Ablation — summary freshness vs coefficient overhead (DFTT)");
    println!("{:>14} {:>8} {:>10}", "sync every", "eps", "overhead%");
    match ablation::sync_freshness_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>11} msg {:>8.3} {:>9.2}%",
                    r.sent_interval,
                    r.epsilon,
                    100.0 * r.overhead_ratio
                );
            }
        }
        Err(e) => eprintln!("ablation_freshness failed: {e}"),
    }
}

fn run_ablation_detector(scale: Scale, exec: &Executor) {
    println!("\n## Ablation — worst-case detector CV threshold (DFT)");
    println!(
        "{:>5} {:>10} {:>8} {:>10}",
        "data", "threshold", "eps", "fallback"
    );
    match ablation::detector_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>5} {:>10.2} {:>8.3} {:>9.1}%",
                    r.workload,
                    r.threshold,
                    r.epsilon,
                    100.0 * r.fallback_fraction
                );
            }
        }
        Err(e) => eprintln!("ablation_detector failed: {e}"),
    }
}

fn run_ablation_loss(scale: Scale, exec: &Executor) {
    println!("\n## Ablation — in-flight message loss");
    println!("{:>6} {:>6} {:>8}", "algo", "loss", "eps");
    match ablation::loss_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                println!(
                    "{:>6} {:>6.2} {:>8.3}",
                    r.algorithm.label(),
                    r.loss,
                    r.epsilon
                );
            }
        }
        Err(e) => eprintln!("ablation_loss failed: {e}"),
    }
}

fn run_ablation_governor(scale: Scale, exec: &Executor) {
    println!("\n## Ablation — AIMD throughput governor (DFT, T=logN)");
    println!("{:>12} {:>12} {:>8}", "budget", "msgs/tuple", "eps");
    match ablation::governor_with(scale, exec) {
        Ok(rows) => {
            for r in rows {
                let label = if r.budget_bps == 0 {
                    "unlimited".to_string()
                } else {
                    format!("{}bps", r.budget_bps)
                };
                println!("{label:>12} {:>12.2} {:>8.3}", r.msgs_per_tuple, r.epsilon);
            }
        }
        Err(e) => eprintln!("ablation_governor failed: {e}"),
    }
}
