//! Live cluster runtimes: real threads, real sockets.
//!
//! The paper evaluated a *working prototype*: twenty processes exchanging
//! real messages. `dsj-simnet` reproduces its network model as a
//! deterministic discrete-event simulation; this crate runs the very same
//! node logic (a [`dsj_core::NodeEngine`] speaking only the
//! [`dsj_core::Transport`] trait) as **real concurrent threads** — one OS
//! thread per node, wall-clock timing — over two interchangeable
//! backends:
//!
//! * [`LiveCluster`] — in-process mailboxes as links: concurrency
//!   correctness and raw in-process speed.
//! * [`TcpCluster`] — loopback TCP sockets as links (one nonblocking
//!   socket per node pair, read by the receiving node's own thread), every
//!   message framed by the [`dsj_core::wire`] codec: serialization,
//!   syscalls and stream reassembly are all real.
//!
//! Both offer `run`, `run_paced` and `run_open_loop` and are fed and
//! drained by `dsj-core`'s one driver ([`dsj_core::driver::drive`]), the
//! simulator's too: this crate supplies the live [`dsj_core::Cluster`] —
//! wall clock, node threads, one wait point per node (its mailbox's latch,
//! kicked once per burst, not per event) and teardown — and a backend is
//! its `send`/`flush` and wiring.
//!
//! Use the simulation for reproducible experiments and figure
//! regeneration; use these runtimes to demonstrate that the algorithms
//! and their data structures are `Send`, contention-safe and fast enough
//! to process hundreds of thousands of tuples per second of *real* time.
//! Under [`Pacing::Lockstep`] all three backends — simulated, channels,
//! TCP — produce identical per-node results for the same configuration
//! (see `tests/equivalence.rs`).
//!
//! ```
//! use dsj_core::{Algorithm, ClusterConfig};
//! use dsj_runtime::LiveCluster;
//!
//! let cfg = ClusterConfig::new(4, Algorithm::Dftt)
//!     .window(128)
//!     .domain(1 << 9)
//!     .tuples(2_000);
//! let outcome = LiveCluster::run(&cfg)?;
//! assert!(outcome.epsilon <= 1.0);
//! assert!(outcome.wall_time.as_nanos() > 0);
//! # Ok::<(), dsj_runtime::LiveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod explore;
mod harness;
mod reactor;
mod sync;
mod tcp;

pub use cluster::{LiveCluster, LiveError, LiveOutcome, TransportStats};
pub use harness::{LoadRun, OpenLoop, Pacing};
pub use tcp::{TcpCluster, TcpMode};
