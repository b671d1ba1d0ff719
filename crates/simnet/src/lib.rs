//! Discrete-event WAN simulator for `dsjoin`.
//!
//! The paper evaluates on a 20-workstation cluster where WAN conditions are
//! *emulated*: every message suffers an artificial latency of 20–100 ms and
//! links pause for one second per 90 kilobits transmitted, i.e. a 90 kbps
//! bandwidth cap (Section 6). This crate reproduces exactly that model as a
//! deterministic, seedable discrete-event simulation:
//!
//! * [`SimTime`]/[`SimDuration`] — microsecond-resolution virtual time.
//! * [`LinkConfig`] — per-directed-link latency range and bandwidth; each
//!   link is a FIFO transmitter, so bandwidth contention delays queued
//!   messages just as the paper's pauses do.
//! * [`SimNode`] — the handler trait nodes implement (`on_input` for
//!   locally arriving tuples, `on_message` for network deliveries).
//! * [`Simulation`] — the event loop: full-mesh topology, byte and message
//!   accounting in [`NetMetrics`].
//!
//! ```
//! use dsj_simnet::{LinkConfig, SimDuration, SimNode, SimTime, Simulation, Ctx, NodeId};
//!
//! struct Echo;
//! impl SimNode for Echo {
//!     type Input = u32;
//!     type Msg = u32;
//!     fn on_input(&mut self, input: u32, ctx: &mut Ctx<'_, u32>) {
//!         ctx.send(1, input, 8); // forward to node 1, 8 bytes on the wire
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: u32, _ctx: &mut Ctx<'_, u32>) {}
//! }
//!
//! let mut sim = Simulation::new(vec![Echo, Echo], LinkConfig::paper_wan(), 42);
//! sim.inject_at(SimTime::ZERO, 0, 7);
//! sim.run_to_quiescence();
//! assert_eq!(sim.metrics().messages_sent, 1);
//! assert!(sim.now() >= SimTime::ZERO + SimDuration::from_millis(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod metrics;
pub mod sim;
pub mod time;

pub use link::{LinkConfig, LinkFault};
pub use metrics::NetMetrics;
pub use sim::{Ctx, NodeId, SimNode, Simulation};
pub use time::{SimDuration, SimTime};
