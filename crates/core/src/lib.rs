//! Distributed approximate stream joins — the contribution of Kriakov,
//! Delis & Kollios (ICDCS 2007), implemented over the `dsjoin` substrates.
//!
//! A cluster of `N` nodes each holds segments `R_i`/`S_i` (sliding windows
//! of `W` tuples) of two streams and collaboratively answers the window
//! join `R ⋈ S`. Exact evaluation needs `N−1` messages per tuple; this
//! crate bounds the expected per-tuple message count `T_i` to a configured
//! target in `[O(1), O(log N)]` and routes tuples preferentially to the
//! nodes most likely to produce matches:
//!
//! * [`Algorithm::Base`] — broadcast; exact results, `N−1` messages/tuple.
//! * [`Algorithm::Dft`] — flow filtering only: forward to node `j` with
//!   probability `p_{i,j} = w_i·ρ_{i,j}` where `ρ` is the cross-correlation
//!   coefficient of the two windows' join-attribute distributions, computed
//!   from exchanged (compressed, incrementally maintained) DFT coefficients
//!   (Eqns. 4–9).
//! * [`Algorithm::Dftt`] — DFT + tuple matching: additionally reconstructs
//!   each remote window's attribute multiset from the coefficients
//!   (inverse DFT + rounding, Section 5.3) and forwards a tuple only to
//!   sites whose reconstruction predicts actual join partners (Fig. 7).
//! * [`Algorithm::Bloom`] — counting Bloom filters exchanged instead of DFT
//!   coefficients; membership-test routing.
//! * [`Algorithm::Sketch`] — AGMS sketches exchanged; partition-pair join
//!   size estimates weight the flow factors.
//!
//! All five run over the same simulated WAN ([`dsj_simnet`]), the same
//! windows and the same workloads, with equalized summary sizes — the
//! paper's experimental methodology (Section 6).
//!
//! The entry point is [`ClusterConfig`]:
//!
//! ```
//! use dsj_core::{Algorithm, ClusterConfig};
//! use dsj_stream::gen::WorkloadKind;
//!
//! let report = ClusterConfig::new(4, Algorithm::Dftt)
//!     .window(512)
//!     .domain(1 << 10)
//!     .tuples(4_000)
//!     .workload(WorkloadKind::Zipf { alpha: 0.4 })
//!     .seed(1)
//!     .run()?;
//! assert!(report.epsilon >= 0.0 && report.epsilon <= 1.0);
//! # Ok::<(), dsj_core::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod engine;
pub mod error;
pub mod flow;
pub mod hotpath;
pub mod msg;
pub mod node;
pub mod obs;
pub mod runner;
pub mod strategy;
pub mod theory;
pub mod wire;

pub use driver::{drive, Cluster, Driven, Feed, FeedReport};
pub use engine::{NodeEngine, Transport, TransportEvent, FRAME_MAX};
pub use error::RunError;
pub use flow::TargetComplexity;
pub use msg::{Msg, SummaryPayload};
pub use node::{NodeMetrics, ThroughputGovernor};
pub use runner::{ClusterConfig, ExperimentReport, LockstepReport};
pub use strategy::Algorithm;
