//! Reproduction harness for `dsjoin`.
//!
//! One module per experiment of the paper's evaluation (Section 6), each
//! exposing a function that regenerates the corresponding table or figure
//! as typed rows. The `repro` binary prints them, one section per
//! experiment. Nothing here times the system for comparison between
//! commits: that is `benches/e2e`, the repository's one benchmark.
//!
//! | Paper artifact | Module / function |
//! |---|---|
//! | Table 1 (summary maintenance CPU) | [`table1::run`] |
//! | Fig. 3 (uniform bounds), Fig. 4 (Zipf bounds) | [`figures::bounds`] |
//! | Fig. 5 (per-value reconstruction error) | [`figures::fig5`] |
//! | Fig. 6 (MSE vs compression factor) | [`figures::fig6`] |
//! | Fig. 8 (coefficient overhead %) | [`figures::fig8`] |
//! | Fig. 9 (messages per result tuple) | [`figures::fig9`] |
//! | Fig. 10a (error vs κ) | [`figures::fig10a`] |
//! | Fig. 10b (error vs N) | [`figures::fig10b`] |
//! | Fig. 11 (throughput) | [`figures::fig11`] |
//!
//! Beyond the paper, [`ablation`] quantifies the design choices:
//! coefficient selection policy, summary freshness vs overhead, the
//! worst-case detector threshold, and in-flight message loss; [`loadgen`]
//! (the `repro capacity` section) searches the arrival rate a live
//! cluster sustains, which the fixed-rate benchmark does not do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod loadgen;
pub mod scale;
pub mod suite;
pub mod table1;

pub use scale::Scale;
pub use suite::Executor;
