//! Record a workload once, replay it against every algorithm, and print
//! the side-by-side comparison — the workflow the paper's evaluation used
//! with its recorded FIN/NWRK traces.
//!
//! ```text
//! cargo run --release --example trace_comparison
//! ```

use dsjoin::core::{Algorithm, ClusterConfig};
use dsjoin::stream::gen::WorkloadKind;
use dsjoin::stream::trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record one network-monitoring workload to a trace file.
    let base_cfg = ClusterConfig::new(8, Algorithm::Base)
        .window(512)
        .domain(1 << 11)
        .tuples(20_000)
        .workload(WorkloadKind::Network)
        .seed(31);
    let trace = Trace::from_arrivals(base_cfg.arrivals());
    let path = std::env::temp_dir().join("dsjoin-nwrk.trace");
    trace.save(&path)?;
    println!(
        "recorded {} arrivals to {} ({} bytes)\n",
        trace.len(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // Replay the identical trace through all five algorithms.
    let loaded = Trace::load(&path)?;
    let reports: Vec<_> = Algorithm::ALL
        .into_iter()
        .map(|alg| {
            ClusterConfig::new(8, alg)
                .window(512)
                .domain(1 << 11)
                .workload(WorkloadKind::Network)
                .seed(31)
                .with_trace(loaded.clone())
                .run()
        })
        .collect::<Result<_, _>>()?;

    println!("all five algorithms over the SAME recorded packet trace:\n");
    println!("algo     eps  msgs/result  throughput");
    for r in &reports {
        let (eps, mpr, tput) = (r.epsilon, r.messages_per_result, r.throughput);
        println!(
            "{:<5}  {eps:.3}  {mpr:>11.2}  {tput:>10.0}",
            r.algorithm.label()
        );
    }
    println!("\n(every run consumed identical arrivals — differences are purely algorithmic)");
    std::fs::remove_file(&path).ok();
    Ok(())
}
