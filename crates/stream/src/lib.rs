//! Streaming substrate for `dsjoin`: tuples, sliding windows, the exact
//! distributed join's ground truth, workload generators and stream
//! partitioners.
//!
//! The paper evaluates on four workloads (Section 6): synthetic uniform
//! (UNI) and Zipfian α = 0.4 (ZIPF) integers over `[1, 2¹⁹]`, a financial
//! trades trace (FIN) and a network packet trace (NWRK). The real traces
//! are not redistributable, so [`gen`] ships synthetic equivalents whose
//! statistical shape matches what the paper reports (see DESIGN.md §2).
//!
//! ```
//! use dsj_stream::gen::{WorkloadKind, ArrivalGen};
//! use dsj_stream::partition::Partitioner;
//!
//! let mut gen = ArrivalGen::new(
//!     WorkloadKind::Zipf { alpha: 0.4 },
//!     Partitioner::geographic(4, 0.8),
//!     1 << 12,
//!     42,
//! );
//! let a = gen.next_arrival();
//! assert!(a.key < (1 << 12));
//! assert!(a.node < 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod join;
pub mod partition;
pub mod trace;
pub mod tuple;
pub mod window;

pub use tuple::{StreamId, Tuple};
pub use window::{AsOf, SlidingWindow, WindowSpec};
