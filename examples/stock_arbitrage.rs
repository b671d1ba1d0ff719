//! Stock arbitrage monitoring — the paper's financial motivation.
//!
//! Bid and ask streams from multiple exchanges are cross-referenced to
//! spot price collisions (arbitrage candidates) in real time. Each
//! exchange feeds a different node; the distributed window join matches
//! bids against asks at the same integer price.
//!
//! The example also demonstrates the compression analysis of Section 5.3:
//! how many DFT coefficients a price stream really needs.
//!
//! ```text
//! cargo run --release --example stock_arbitrage
//! ```

use dsjoin::core::{Algorithm, ClusterConfig, TargetComplexity};
use dsjoin::dft::{CompressedDft, LOSSLESS_MSE_THRESHOLD};
use dsjoin::stream::gen::{price_series, WorkloadKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Part 1: how compressible is a price stream? ==");
    // A day of tick-level prices for one symbol (cf. Figures 5/6).
    let ticks = price_series(65_536, 7, 480.0, 0.012);
    // Fig. 6's sweep: double κ while E[MSE] stays below the threshold
    // under which rounding recovers the integer prices.
    let mut kappa = 1u32;
    while 2 * kappa as usize <= ticks.len()
        && CompressedDft::from_signal(&ticks, 2 * kappa)?.mse(&ticks) < LOSSLESS_MSE_THRESHOLD
    {
        kappa *= 2;
    }
    println!("ticks                : {}", ticks.len());
    println!("max lossless kappa   : {kappa}");
    let c = CompressedDft::from_signal(&ticks, kappa)?;
    let stats = c.stats(&ticks);
    println!(
        "coefficients shipped : {} ({} bytes instead of {})",
        c.retained(),
        c.size_bytes(),
        ticks.len() * 8
    );
    println!("E[MSE]               : {:.4}", stats.mse);
    println!(
        "values exact after rounding: {:.1}%",
        100.0 * stats.lossless_fraction
    );

    println!("\n== Part 2: distributed bid/ask join across 6 exchanges ==");
    for (name, algorithm) in [("DFTT", Algorithm::Dftt), ("BASE", Algorithm::Base)] {
        let report = ClusterConfig::new(6, algorithm)
            .workload(WorkloadKind::Financial)
            .window(512)
            .domain(1 << 11)
            .tuples(18_000)
            .locality(0.7)
            .target(TargetComplexity::LogN)
            .seed(99)
            .run()?;
        println!(
            "{name:>5}: {:>7} arbitrage matches reported (eps {:.3}), {:>7} messages, {:.2} msgs/match",
            report.reported_matches, report.epsilon, report.messages, report.messages_per_result
        );
    }
    println!("\nDFTT finds nearly the same arbitrage windows with a fraction of the traffic.");
    Ok(())
}
