//! Capture a workload once as a trace, replay it against every algorithm,
//! and print the side-by-side comparison — the workflow the paper's
//! evaluation used with its recorded FIN/NWRK traces.
//!
//! ```text
//! cargo run --release --example trace_comparison
//! ```

use dsjoin::core::{Algorithm, ClusterConfig};
use dsjoin::stream::gen::WorkloadKind;
use dsjoin::stream::trace::Trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = |algorithm| {
        ClusterConfig::new(8, algorithm)
            .window(512)
            .domain(1 << 11)
            .tuples(20_000)
            .workload(WorkloadKind::Network)
            .seed(31)
    };
    // Capture one network-monitoring workload as a trace.
    let trace = Trace::from_arrivals(cfg(Algorithm::Base).arrivals());
    println!("captured {} arrivals\n", trace.len());

    // Replay the identical trace through all five algorithms.
    let reports: Vec<_> = Algorithm::ALL
        .into_iter()
        .map(|alg| cfg(alg).with_trace(trace.clone()).run())
        .collect::<Result<_, _>>()?;

    println!("all five algorithms over the SAME packet trace:\n");
    println!("algo     eps  msgs/result  throughput");
    for r in &reports {
        let (eps, mpr, tput) = (r.epsilon, r.messages_per_result, r.throughput);
        println!(
            "{:<5}  {eps:.3}  {mpr:>11.2}  {tput:>10.0}",
            r.algorithm.label()
        );
    }
    println!("\n(every run consumed identical arrivals — differences are purely algorithmic)");
    Ok(())
}
