//! # dsjoin — approximate data stream joins in distributed systems
//!
//! Umbrella crate re-exporting the `dsjoin` workspace: a Rust reproduction
//! of *"Approximate Data Stream Joins in Distributed Systems"* (Kriakov,
//! Delis, Kollios — ICDCS 2007).
//!
//! The system answers sliding-window join queries `R ⋈ S` over streams
//! partitioned across `N` nodes while holding per-tuple message complexity
//! between `O(1)` and `O(log N)`, using incrementally maintained, compressed
//! discrete Fourier transforms as the inter-node summary.
//!
//! | Sub-crate | Contents |
//! |---|---|
//! | [`dft`] | complex numbers, FFT, incremental DFT, compression, correlation from spectra |
//! | [`sketch`] | AGMS sketches and counting Bloom filters (baselines) |
//! | [`stream`] | tuples, sliding windows, exact window join, workload generators |
//! | [`simnet`] | discrete-event WAN simulator (latency + bandwidth model) |
//! | [`core`] | the distributed approximate-join algorithms and experiment runner |
//! | [`runtime`] | the same nodes as live threads, over in-process channels or loopback TCP sockets |
//!
//! # Quickstart
//!
//! ```
//! use dsjoin::core::{ClusterConfig, Algorithm};
//! use dsjoin::stream::gen::WorkloadKind;
//!
//! let report = ClusterConfig::new(4, Algorithm::Dftt)
//!     .window(1024)
//!     .domain(1 << 12)
//!     .tuples(2_000)
//!     .seed(7)
//!     .workload(WorkloadKind::Zipf { alpha: 0.4 })
//!     .run()?;
//! assert!(report.epsilon <= 1.0);
//! # Ok::<(), dsjoin::core::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use dsj_core as core;
pub use dsj_dft as dft;
pub use dsj_runtime as runtime;
pub use dsj_simnet as simnet;
pub use dsj_sketch as sketch;
pub use dsj_stream as stream;
