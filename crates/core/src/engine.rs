//! One node engine, many transports.
//!
//! [`NodeEngine`] owns the drive loop around [`JoinNode`] once; backends
//! implement [`Transport`] (send / poll / clock / quiescence) and nothing
//! else.
//!
//! Three transports exist:
//!
//! | backend  | where | send | clock |
//! |---|---|---|---|
//! | simnet   | `dsj-core` (here) | [`Ctx::send`], modeled WAN | virtual |
//! | threads  | `dsj-runtime::LiveCluster` | in-process mailboxes | wall |
//! | TCP      | `dsj-runtime::TcpCluster` | framed loopback sockets read by the receiving node's thread, coalesced vectored writes | wall |
//!
//! The engine is deliberately thin: [`JoinNode`] stays transport-agnostic
//! and the engine adds only the fan-out of produced messages into the
//! transport, through buffers it reuses. What a whole arrival still
//! allocates is measured, not assumed (`tests/alloc_budget.rs`, per
//! arrival on the paper-default schedule: BASE 0, DFT 0.068, DFTT 0.063,
//! BLOOM 0.046, SKCH 0.79 — piggyback and summary assembly, and SKCH's
//! join-size estimates). The cross-backend
//! equivalence suite (`crates/runtime/tests/equivalence.rs`) pins that all
//! three backends produce identical per-node metrics and match digests for
//! the same seed when driven in lockstep.

use crate::msg::Msg;
use crate::node::{JoinNode, NodeMetrics};
use dsj_simnet::{Ctx, NodeId, SimNode};
use dsj_stream::Tuple;
use std::convert::Infallible;

/// Upper bound on how many pending events the run loop drains per frame.
///
/// Frames amortize per-event transport overhead (one clock read for every
/// arrival in the frame, one socket flush per peer per frame) without
/// changing behavior: events inside a frame run through the same per-event
/// logic in arrival order, so routing decisions are identical whatever the
/// frame boundaries (pinned by `crates/core/tests/batching.rs`).
pub const FRAME_MAX: usize = 64;

/// What a transport hands the engine next.
#[derive(Debug)]
pub enum TransportEvent {
    /// A tuple arriving at this node from its local stream source.
    Arrival(Tuple),
    /// A tuple arriving from an open-loop load generator, stamped with
    /// the time it was due on the transport's clock. Processing is
    /// identical to [`TransportEvent::Arrival`]; additionally, the delay
    /// from that stamp to the end of the tuple's local processing (its
    /// matches are in the digest by then) is recorded into the engine's
    /// delivery-latency histogram. Closed-loop feeders never construct
    /// this variant, so the steady-state arrival path pays nothing for it.
    StampedArrival {
        /// The tuple.
        tuple: Tuple,
        /// When the tuple was due, in microseconds on the cluster-epoch clock
        /// (the same clock [`Transport::now_us`] reports for live backends).
        injected_us: u64,
    },
    /// A wire message from a peer.
    Net {
        /// Sending node.
        from: u16,
        /// The message.
        msg: Msg,
    },
    /// The harness is done with this node; the engine's run loop returns.
    Shutdown,
}

/// What a node engine needs from the outside world.
///
/// Implementations decide how messages move (virtual links, channels,
/// sockets), what the clock is (virtual or wall microseconds) and how
/// quiescence is tracked. The contract for in-flight accounting: the
/// *producer* of an event counts it up before it becomes visible, and the
/// engine calls [`Transport::quiesce`] exactly once after fully processing
/// each polled event — so a zero in-flight count proves the cluster is
/// globally idle (every produced message has been consumed *and* acted on,
/// including any sends it triggered, which were counted before the
/// decrement).
pub trait Transport {
    /// Transport failure (socket error, closed channel, ...). Infallible
    /// for the simulated backend.
    type Error: std::error::Error;

    /// Ships `msg` to node `to`.
    ///
    /// # Errors
    ///
    /// Transport-specific delivery failure; the engine aborts its run loop
    /// on the first error.
    fn send(&mut self, to: u16, msg: Msg) -> Result<(), Self::Error>;

    /// Blocks until the next event for this node.
    ///
    /// # Errors
    ///
    /// Transport-specific receive failure (e.g. every sender dropped).
    fn poll(&mut self) -> Result<TransportEvent, Self::Error>;

    /// Blocks for at least one event, then drains up to `max` total events
    /// into `frame` without blocking again.
    ///
    /// The default forwards a single blocking [`Transport::poll`], so
    /// transports that have no cheap "is anything pending?" probe degrade
    /// to one-event frames. Backends with non-blocking receive (channels,
    /// sockets) override this to hand the engine a whole backlog at once.
    ///
    /// # Errors
    ///
    /// Transport-specific receive failure (e.g. every sender dropped).
    fn poll_frame(
        &mut self,
        max: usize,
        frame: &mut Vec<TransportEvent>,
    ) -> Result<(), Self::Error> {
        debug_assert!(max >= 1, "a frame must admit at least one event");
        frame.push(self.poll()?);
        Ok(())
    }

    /// Pushes any outgoing bytes buffered by [`Transport::send`] to the
    /// wire. The run loop calls this once per frame, after every event in
    /// the frame has been processed; unbuffered transports keep the no-op
    /// default.
    ///
    /// # Errors
    ///
    /// Transport-specific delivery failure.
    fn flush(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// This node's clock, in microseconds. Virtual time under simulation,
    /// wall time since cluster start for live backends.
    fn now_us(&mut self) -> u64;

    /// Marks the event most recently returned by [`Transport::poll`] as
    /// fully processed (its sends, if any, already counted).
    fn quiesce(&mut self);
}

/// Drives one [`JoinNode`] over any [`Transport`].
///
/// This is the single owner of the per-node drive loop: arrivals run the
/// hot path and fan the produced messages into the transport; network
/// messages apply summaries and probe windows. The engine also carries the
/// node's reusable outgoing-message buffer, so the fan-out adds no
/// allocation of its own to the node's.
#[derive(Debug)]
pub struct NodeEngine {
    node: JoinNode,
    /// Outgoing-message buffer reused across arrivals.
    out: Vec<(u16, Msg)>,
    /// Injection → end-of-processing delay of stamped arrivals
    /// (microseconds). Only open-loop feeders send
    /// [`TransportEvent::StampedArrival`], so closed-loop runs leave this
    /// empty and record nothing.
    latency: crate::obs::Histogram,
}

impl NodeEngine {
    /// Wraps `node` for transport-driven execution.
    pub fn new(node: JoinNode) -> Self {
        NodeEngine {
            node,
            out: Vec::new(),
            latency: crate::obs::Histogram::new(),
        }
    }

    /// The node's counters.
    pub fn metrics(&self) -> &NodeMetrics {
        self.node.metrics()
    }

    /// Worst-case fallback activations recorded by the node's router.
    pub fn fallback_events(&self) -> u64 {
        self.node.fallback_events()
    }

    /// The node's order-sensitive digest of counted matches.
    pub fn match_digest(&self) -> u64 {
        self.node.match_digest()
    }

    /// Per-tuple delivery latency recorded for stamped (open-loop)
    /// arrivals: microseconds from the feeder's due-time stamp to the end
    /// of the tuple's local processing, at which point its matches are in
    /// the digest. Empty for closed-loop runs.
    pub fn delivery_latency(&self) -> &crate::obs::Histogram {
        &self.latency
    }

    /// Handles one locally arriving tuple: the per-tuple hot path plus
    /// fan-out of the produced messages into `transport`.
    ///
    /// # Errors
    ///
    /// The first [`Transport::send`] failure; remaining messages for this
    /// arrival are dropped (the run is aborting anyway).
    pub fn on_arrival<T: Transport>(
        &mut self,
        tuple: Tuple,
        transport: &mut T,
    ) -> Result<(), T::Error> {
        let now_us = transport.now_us();
        self.arrival_at(tuple, now_us, transport)
    }

    /// The shared arrival core: runs the per-tuple hot path at an already
    /// sampled timestamp and fans the produced messages into `transport`.
    fn arrival_at<T: Transport>(
        &mut self,
        tuple: Tuple,
        now_us: u64,
        transport: &mut T,
    ) -> Result<(), T::Error> {
        let mut out = std::mem::take(&mut self.out);
        self.node.handle_arrival_into(tuple, now_us, &mut out);
        let mut result = Ok(());
        for (peer, msg) in out.drain(..) {
            if result.is_ok() {
                result = transport.send(peer, msg);
            }
        }
        self.out = out;
        result
    }

    /// Handles one wire message from peer `from`.
    pub fn on_net(&mut self, from: u16, msg: Msg) {
        self.node.handle_message(from, msg);
    }

    /// Processes one frame of events in arrival order, quiescing after
    /// each. Returns `true` when the frame contained
    /// [`TransportEvent::Shutdown`].
    ///
    /// Every event runs through the same per-event logic as the unbatched
    /// loop, so routing decisions are independent of how events were
    /// grouped into frames; the only frame-level amortization is the clock,
    /// which is sampled once for all arrivals in the frame.
    ///
    /// # Errors
    ///
    /// The first [`Transport::send`] failure; the rest of the frame is
    /// dropped (the run is aborting anyway).
    pub fn on_frame<T: Transport>(
        &mut self,
        frame: &mut Vec<TransportEvent>,
        transport: &mut T,
    ) -> Result<bool, T::Error> {
        let mut frame_now_us = None;
        for event in frame.drain(..) {
            match event {
                TransportEvent::Arrival(tuple) => {
                    let now_us = match frame_now_us {
                        Some(now_us) => now_us,
                        None => {
                            let now_us = transport.now_us();
                            frame_now_us = Some(now_us);
                            now_us
                        }
                    };
                    self.arrival_at(tuple, now_us, transport)?;
                    transport.quiesce();
                }
                TransportEvent::StampedArrival { tuple, injected_us } => {
                    let now_us = match frame_now_us {
                        Some(now_us) => now_us,
                        None => {
                            let now_us = transport.now_us();
                            frame_now_us = Some(now_us);
                            now_us
                        }
                    };
                    self.arrival_at(tuple, now_us, transport)?;
                    // Match-digest time: the tuple's matches are folded in,
                    // so a fresh clock sample here is the delivery latency
                    // an open-loop client would observe.
                    let done_us = transport.now_us();
                    self.latency.record(done_us.saturating_sub(injected_us));
                    transport.quiesce();
                }
                TransportEvent::Net { from, msg } => {
                    self.node.handle_message(from, msg);
                    transport.quiesce();
                }
                TransportEvent::Shutdown => return Ok(true),
            }
        }
        Ok(false)
    }

    /// The drive loop for polling transports: drains events in frames of up
    /// to [`FRAME_MAX`] until [`TransportEvent::Shutdown`], flushing any
    /// buffered sends once per frame.
    ///
    /// # Errors
    ///
    /// The first transport failure, from [`Transport::poll_frame`], a send,
    /// or [`Transport::flush`].
    pub fn run<T: Transport>(&mut self, transport: &mut T) -> Result<(), T::Error> {
        let mut frame = Vec::with_capacity(FRAME_MAX);
        loop {
            transport.poll_frame(FRAME_MAX, &mut frame)?;
            let shutdown = self.on_frame(&mut frame, transport)?;
            transport.flush()?;
            if shutdown {
                return Ok(());
            }
        }
    }
}

/// The simulated-WAN [`Transport`]: sends become [`Ctx::send`] with the
/// message's modeled (= encoded) wire size, the clock is virtual time.
/// Events are pushed by the simulation driver, so `poll` is never the
/// event source — the `SimNode` impl below dispatches directly.
struct SimTransport<'a, 'b> {
    ctx: &'a mut Ctx<'b, Msg>,
}

impl Transport for SimTransport<'_, '_> {
    type Error = Infallible;

    fn send(&mut self, to: u16, msg: Msg) -> Result<(), Infallible> {
        let bytes = msg.wire_bytes();
        self.ctx.send(to, msg, bytes);
        Ok(())
    }

    fn poll(&mut self) -> Result<TransportEvent, Infallible> {
        // The simulation pushes events through `SimNode`; a pull-style
        // loop over this transport has nothing to wait on.
        Ok(TransportEvent::Shutdown)
    }

    fn now_us(&mut self) -> u64 {
        self.ctx.now().as_micros()
    }

    fn quiesce(&mut self) {
        // The simulation's event queue is its own quiescence tracker.
    }
}

impl SimNode for NodeEngine {
    type Input = Tuple;
    type Msg = Msg;

    fn on_input(&mut self, tuple: Tuple, ctx: &mut Ctx<'_, Msg>) {
        let mut transport = SimTransport { ctx };
        match self.on_arrival(tuple, &mut transport) {
            Ok(()) => {}
            Err(e) => match e {},
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        self.on_net(from, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{test_config, Algorithm};
    use dsj_stream::{StreamId, WindowSpec};
    use std::collections::VecDeque;

    /// A transcript transport: records sends, replays scripted events.
    #[derive(Default)]
    struct Script {
        sent: Vec<(u16, Msg)>,
        events: VecDeque<TransportEvent>,
        quiesced: u32,
        clock_us: u64,
    }

    impl Transport for Script {
        type Error = Infallible;
        fn send(&mut self, to: u16, msg: Msg) -> Result<(), Infallible> {
            self.sent.push((to, msg));
            Ok(())
        }
        fn poll(&mut self) -> Result<TransportEvent, Infallible> {
            Ok(self.events.pop_front().unwrap_or(TransportEvent::Shutdown))
        }
        fn now_us(&mut self) -> u64 {
            self.clock_us += 7;
            self.clock_us
        }
        fn quiesce(&mut self) {
            self.quiesced += 1;
        }
    }

    fn engine(me: u16, n: u16) -> NodeEngine {
        NodeEngine::new(JoinNode::new(
            Algorithm::Base,
            test_config(me, n),
            WindowSpec::count(16),
            0,
        ))
    }

    #[test]
    fn run_loop_dispatches_and_quiesces_each_event() {
        let mut eng = engine(0, 3);
        let mut tx = Script::default();
        tx.events
            .push_back(TransportEvent::Arrival(Tuple::new(StreamId::R, 5, 0, 0)));
        tx.events.push_back(TransportEvent::Net {
            from: 1,
            msg: Msg::Tuple {
                tuple: Tuple::new(StreamId::S, 5, 1, 1),
                piggyback: Vec::new(),
            },
        });
        tx.events.push_back(TransportEvent::Shutdown);
        eng.run(&mut tx).unwrap();
        // Base broadcasts the arrival to both peers...
        assert_eq!(tx.sent.len(), 2);
        // ...and the forwarded probe from node 1 finds the stored R tuple.
        assert_eq!(eng.metrics().remote_matches, 1);
        assert_eq!(eng.metrics().arrivals, 1);
        // Both processed events were quiesced; shutdown is not an event.
        assert_eq!(tx.quiesced, 2);
    }

    /// A batching transcript transport: drains its whole backlog per
    /// frame and counts flushes.
    struct BatchScript {
        inner: Script,
        flushes: u32,
    }

    impl Transport for BatchScript {
        type Error = Infallible;
        fn send(&mut self, to: u16, msg: Msg) -> Result<(), Infallible> {
            self.inner.send(to, msg)
        }
        fn poll(&mut self) -> Result<TransportEvent, Infallible> {
            self.inner.poll()
        }
        fn poll_frame(
            &mut self,
            max: usize,
            frame: &mut Vec<TransportEvent>,
        ) -> Result<(), Infallible> {
            frame.push(self.inner.poll()?);
            while frame.len() < max {
                match self.inner.events.pop_front() {
                    Some(event) => frame.push(event),
                    None => break,
                }
            }
            Ok(())
        }
        fn now_us(&mut self) -> u64 {
            self.inner.now_us()
        }
        fn quiesce(&mut self) {
            self.inner.quiesce()
        }
        fn flush(&mut self) -> Result<(), Infallible> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn framed_run_batches_events_and_flushes_once_per_frame() {
        let mut eng = engine(0, 3);
        let mut tx = BatchScript {
            inner: Script::default(),
            flushes: 0,
        };
        tx.inner
            .events
            .push_back(TransportEvent::Arrival(Tuple::new(StreamId::R, 5, 0, 0)));
        tx.inner
            .events
            .push_back(TransportEvent::Arrival(Tuple::new(StreamId::R, 6, 1, 0)));
        tx.inner.events.push_back(TransportEvent::Net {
            from: 1,
            msg: Msg::Tuple {
                tuple: Tuple::new(StreamId::S, 5, 2, 1),
                piggyback: Vec::new(),
            },
        });
        tx.inner.events.push_back(TransportEvent::Shutdown);
        eng.run(&mut tx).unwrap();
        // The whole backlog fits one frame: both arrivals share a single
        // clock sample and the frame is flushed exactly once.
        assert_eq!(tx.inner.clock_us, 7);
        assert_eq!(tx.flushes, 1);
        // Each processed event quiesced; shutdown is not an event.
        assert_eq!(tx.inner.quiesced, 3);
        // Base broadcasts both arrivals to both peers...
        assert_eq!(tx.inner.sent.len(), 4);
        // ...and the forwarded probe still finds the stored R tuple.
        assert_eq!(eng.metrics().arrivals, 2);
        assert_eq!(eng.metrics().remote_matches, 1);
    }

    #[test]
    fn engine_behaves_identically_to_bare_node() {
        // The engine must add zero behavior: drive a bare JoinNode and an
        // engine-wrapped clone through the same arrivals and compare.
        let mut bare = JoinNode::new(Algorithm::Base, test_config(0, 3), WindowSpec::count(16), 0);
        let mut eng = engine(0, 3);
        let mut tx = Script::default();
        let mut bare_clock = 0u64;
        let mut expect = Vec::new();
        for seq in 0..20u64 {
            let t = Tuple::new(StreamId::R, (seq % 4) as u32, seq, 0);
            bare_clock += 7;
            bare.handle_arrival_into(t, bare_clock, &mut expect);
            let before = tx.sent.len();
            eng.on_arrival(t, &mut tx).unwrap();
            assert_eq!(&tx.sent[before..], &expect[..]);
        }
        assert_eq!(eng.metrics(), bare.metrics());
        assert_eq!(eng.match_digest(), bare.match_digest());
    }
}
