//! One node type, many transports.
//!
//! [`NodeEngine`] is a node of the join cluster (the per-node runtime of
//! Fig. 7): its windows, local join, router, counters, governor and drive
//! loop. Backends implement [`Transport`] (send / poll / clock /
//! quiescence) for the node and [`Cluster`] (inject / wait / advance /
//! finish) for the one driver, [`crate::driver::drive`], that feeds and
//! drains every backend; [`crate::ClusterConfig::build_node`] is where a
//! node is made.
//!
//! Three backends exist:
//!
//! | backend  | where | send | clock |
//! |---|---|---|---|
//! | simnet   | `dsj-core` (here: `Simulation<NodeEngine>` is the `Cluster`) | [`Ctx::send`], modeled WAN | virtual |
//! | threads  | `dsj-runtime::LiveCluster` | in-process mailboxes | wall |
//! | TCP      | `dsj-runtime::TcpCluster` | framed loopback sockets read by the receiving node's thread, coalesced vectored writes | wall |
//!
//! An arrival hands its window change to the router, which owns the rest
//! of the arrival's decision: its RNG, the route, the node's one arrival
//! clock, what rides on each tuple message and which peers are owed a
//! standalone summary. `Router::send_arrival` hands the engine each message
//! as soon as it is built; the engine counts it, sizes it on its link to the
//! peer ([`LinkBase::advance`], the byte model of the counters, the simnet
//! links and the governor) and hands it to [`Transport::send`], whose TCP
//! backend encodes the same bytes. What a whole arrival still allocates is
//! measured, not assumed (`tests/alloc_budget.rs`, per arrival on the
//! paper-default schedule:
//! BASE 0, DFT 0.068, DFTT 0.063, BLOOM 0.020, SKCH 0.021 — the piggyback
//! and `full_summaries` payload `Vec`s, plus the filter and sketch clones
//! `full_summaries` makes for BLOOM and SKCH, which copy counters only).
//! The cross-backend equivalence suite
//! (`crates/runtime/tests/equivalence.rs`) pins that all three backends
//! produce identical per-node metrics and match digests for the same seed
//! when driven in lockstep.

use crate::driver::Cluster;
use crate::error::RunError;
use crate::msg::{Msg, SummaryPayload};
use crate::node::{NodeMetrics, ThroughputGovernor};
use crate::strategy::{column_of, Router, RouterConfig};
use crate::wire::LinkBase;
use dsj_simnet::{Ctx, NetMetrics, NodeId, SimNode, SimTime, Simulation};
use dsj_stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use std::convert::Infallible;

/// Upper bound on how many pending events the run loop drains per frame.
///
/// Frames amortize per-event transport overhead (one clock read for every
/// arrival in the frame, one socket flush per peer per frame) without
/// changing behavior: events inside a frame run through the same per-event
/// logic in arrival order, so routing decisions are identical whatever the
/// frame boundaries (pinned by `crates/core/tests/batching.rs`).
pub const FRAME_MAX: usize = 256;

/// What a transport hands the engine next.
#[derive(Debug)]
pub enum TransportEvent {
    /// A tuple arriving at this node from its local stream source, with
    /// the time it was due if an open-loop load generator sent it: in
    /// microseconds on the cluster-epoch clock (the one
    /// [`Transport::now_us`] reports for live backends). The delay from
    /// that time to the end of the tuple's local processing (its matches
    /// are in the digest by then) is recorded into the engine's
    /// delivery-latency histogram. Closed-loop feeds leave it `None`.
    Arrival(Tuple, Option<u64>),
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
    /// The default is the push-driven case: a backend that hands events to
    /// the engine itself (the simulator, a replay) has nothing to wait on,
    /// so a pull-style loop over it sees [`TransportEvent::Shutdown`].
    /// Backends that override [`Transport::poll_frame`] need not override
    /// this.
    ///
    /// # Errors
    ///
    /// Transport-specific receive failure (e.g. every sender dropped).
    fn poll(&mut self) -> Result<TransportEvent, Self::Error> {
        Ok(TransportEvent::Shutdown)
    }

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

/// One node of the distributed join cluster, driven over any [`Transport`].
///
/// Owns segments `R_i`/`S_i` of the two streams (sliding windows), runs the
/// local symmetric join on every arrival, and consults its router to
/// forward the tuple toward likely join partners. Forwarded tuples probe
/// the receiver's windows but are never stored — windows hold only tuples
/// that arrived locally, exactly the paper's partitioning model. This is
/// the single owner of the per-node drive loop: arrivals run the hot path
/// and send what it produces; network messages apply summaries and probe
/// windows, and never send.
#[derive(Debug)]
pub struct NodeEngine {
    me: u16,
    /// Attribute domain size; arrivals with `key >= domain` are dropped
    /// at ingest (mirroring `RunError::TraceKeyOutOfDomain`).
    domain: u32,
    count_from_seq: u64,
    /// The locally arrived tuples per stream, indexed by [`StreamId::index`].
    windows: [SlidingWindow; 2],
    router: Router,
    /// The base of the link to each peer, by column: the byte model every
    /// send is charged by, in step with the peer's decoder.
    links: Vec<LinkBase>,
    metrics: NodeMetrics,
    governor: Option<ThroughputGovernor>,
    /// Order-sensitive digest of every counted match observation — see
    /// [`NodeEngine::match_digest`].
    match_digest: u64,
    /// Injection → end-of-processing delay of arrivals that carry their due
    /// time (microseconds). Only open-loop feeds stamp
    /// [`TransportEvent::Arrival`], so closed-loop runs leave this empty.
    latency: crate::obs::Histogram,
}

impl NodeEngine {
    /// Node `cfg.me` of the cluster, running the algorithm of `cfg.plan`
    /// over `spec` windows, optionally governed. Matches attributed to
    /// tuples with `seq < count_from_seq` are not counted (warm-up
    /// exclusion).
    pub(crate) fn assemble(
        cfg: RouterConfig,
        spec: WindowSpec,
        count_from_seq: u64,
        governor: Option<ThroughputGovernor>,
    ) -> Self {
        NodeEngine {
            me: cfg.me,
            domain: cfg.plan.key.domain,
            count_from_seq,
            windows: [SlidingWindow::new(spec), SlidingWindow::new(spec)],
            links: vec![LinkBase::new(); usize::from(cfg.n.saturating_sub(1))],
            router: Router::new(cfg),
            metrics: NodeMetrics::default(),
            governor,
            match_digest: Self::DIGEST_BASIS,
            latency: crate::obs::Histogram::new(),
        }
    }

    /// Adapter shim for `benches/e2e`, which still spells
    /// `NodeEngine::new(cfg.build_node(me))`: returns `engine` unchanged.
    /// Build nodes with [`crate::ClusterConfig::build_node`]; ROADMAP item
    /// 5(d) retires this together with the benchmark's spelling.
    #[doc(hidden)]
    pub fn new(engine: NodeEngine) -> NodeEngine {
        engine
    }

    /// This node's counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The window holding `stream`'s locally arrived tuples.
    pub fn window(&self, stream: StreamId) -> &SlidingWindow {
        &self.windows[stream.index()]
    }

    /// Per-tuple delivery latency recorded for stamped (open-loop)
    /// arrivals: microseconds from the feed's due-time stamp to the end
    /// of the tuple's local processing, at which point its matches are in
    /// the digest. Empty for closed-loop runs.
    pub fn delivery_latency(&self) -> &crate::obs::Histogram {
        &self.latency
    }

    /// FNV-1a offset basis / prime for the match digest.
    const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An order-sensitive digest of this node's counted match
    /// observations: every post-warm-up probe folds its `(seq, matches)`
    /// pair in FNV-1a style, in processing order. Two runs report the same
    /// digest exactly when this node observed the same match set in the
    /// same order — the "identical match sets" witness the cross-backend
    /// equivalence suite compares across simnet, threads and TCP.
    pub fn match_digest(&self) -> u64 {
        self.match_digest
    }

    /// Folds a probe's `matches` into the digest and returns how many of
    /// them count: none while the probing tuple `seq` is warm-up.
    #[inline]
    fn counted(&mut self, seq: u64, matches: u32) -> u64 {
        if seq < self.count_from_seq {
            return 0;
        }
        self.match_digest = (self.match_digest ^ seq).wrapping_mul(Self::DIGEST_PRIME);
        self.match_digest =
            (self.match_digest ^ u64::from(matches)).wrapping_mul(Self::DIGEST_PRIME);
        u64::from(matches)
    }

    /// Handles one locally arriving tuple: the per-tuple hot path, sending
    /// what it produces into `transport`.
    ///
    /// # Errors
    ///
    /// The first [`Transport::send`] failure, which ends the arrival: no
    /// later message of it is built or sent (the run is aborting anyway).
    pub fn on_arrival<T: Transport>(
        &mut self,
        tuple: Tuple,
        transport: &mut T,
    ) -> Result<(), T::Error> {
        let now_us = transport.now_us();
        self.arrival_at(tuple, now_us, |to, msg, _| transport.send(to, msg))
    }

    /// The arrival hot path (Fig. 7) at an already sampled timestamp
    /// `now_us` (virtual or wall, depending on the transport): local join,
    /// summary maintenance, routing, and each message sized on its link and
    /// handed to `send` as soon as it is built. The route state lives in
    /// buffers reused across calls and the window insert allocates nothing;
    /// what still allocates — the piggyback and summary payloads, SKCH's
    /// join-size estimates — is pinned per algorithm in
    /// `tests/alloc_budget.rs`.
    fn arrival_at<E>(
        &mut self,
        tuple: Tuple,
        now_us: u64,
        mut send: impl FnMut(u16, Msg, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(tuple.origin, self.me, "arrival routed to wrong node");
        // Domain guard (the runtime analogue of `RunError::TraceKeyOutOfDomain`):
        // an out-of-domain key from a corrupt source must neither panic the
        // routing hot path nor poison the window summaries — drop and count.
        if tuple.key >= self.domain {
            self.metrics.key_domain_drops += 1;
            return Ok(());
        }
        // Local join: probe the opposite window, then store. Every stored
        // tuple has a smaller seq, so each co-located pair counts exactly
        // once, at its later tuple's arrival.
        let local = self.window(tuple.stream.opposite()).probe(tuple.key);
        self.metrics.local_matches += self.counted(tuple.seq, local);
        // Insert into the tuple's window, then hand the evicted keys (a
        // borrow of the window's reusable eviction buffer — disjoint from
        // the router field) to the router, whose clock counts the arrival.
        let window = &mut self.windows[tuple.stream.index()];
        window.insert(tuple, now_us);
        self.router
            .local_update(tuple.stream, tuple.key, window.evicted_keys());
        self.metrics.arrivals += 1;

        // Route toward likely join partners, under the governor's current
        // resource-availability scale.
        let scale = match &mut self.governor {
            Some(g) => g.scale(now_us),
            None => 1.0,
        };
        self.router.route_into(tuple.stream, tuple.key, scale);
        let (_, fallback) = self.router.route();
        self.metrics.fallback_routes += u64::from(fallback);
        self.count_work();
        let (metrics, governor, links) = (&mut self.metrics, &mut self.governor, &mut self.links);
        let me = self.me;
        self.router.send_arrival(tuple, |to, msg| {
            match msg {
                Msg::Tuple { .. } => metrics.tuple_msgs_sent += 1,
                Msg::Summary(_) => metrics.summary_msgs_sent += 1,
            }
            let (data, total) = links[column_of(me, to)].advance(&msg);
            metrics.data_bytes_sent += data as u64;
            metrics.overhead_bytes_sent += (total - data) as u64;
            if let Some(g) = governor {
                g.note_sent(now_us, total as u64);
            }
            send(to, msg, total)
        })
    }

    /// Handles one wire message from peer `from`: applies its summaries
    /// and probes the local windows with a forwarded tuple. Never sends, so
    /// the message graph is depth-1.
    pub fn on_net(&mut self, from: u16, msg: Msg) {
        match msg {
            Msg::Tuple { tuple, piggyback } => {
                self.apply_summaries(from, &piggyback);
                self.metrics.tuples_received += 1;
                // Probe-only: count pairs whose later tuple is the prober,
                // against the window as it stood when the prober arrived.
                let as_of = self
                    .window(tuple.stream.opposite())
                    .probe_before(tuple.key, tuple.seq);
                self.metrics.late_probes += u64::from(as_of.late);
                self.metrics.asof_records_walked += u64::from(as_of.walked);
                self.metrics.remote_matches += self.counted(tuple.seq, as_of.matches);
            }
            Msg::Summary(payloads) => {
                self.metrics.summaries_received += 1;
                self.apply_summaries(from, &payloads);
            }
        }
    }

    fn apply_summaries(&mut self, from: u16, payloads: &[SummaryPayload]) {
        for p in payloads {
            self.metrics.summary_index_drops += self.router.apply_summary(from, p);
        }
        self.count_work();
    }

    /// Moves the router's counted summary work into the tally.
    fn count_work(&mut self) {
        let work = self.router.take_work();
        self.metrics.recon_terms += work.recon_terms;
        self.metrics.bound_terms += work.bound_terms;
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
            let (tuple, due_us) = match event {
                TransportEvent::Arrival(tuple, due_us) => (tuple, due_us),
                TransportEvent::Net { from, msg } => {
                    self.on_net(from, msg);
                    transport.quiesce();
                    continue;
                }
                TransportEvent::Shutdown => return Ok(true),
            };
            let now_us = *frame_now_us.get_or_insert_with(|| transport.now_us());
            self.arrival_at(tuple, now_us, |to, msg, _| transport.send(to, msg))?;
            if let Some(due_us) = due_us {
                // Match-digest time: the tuple's matches are folded in, so a
                // fresh clock sample here is the delivery latency an
                // open-loop client would observe.
                let done_us = transport.now_us();
                self.latency.record(done_us.saturating_sub(due_us));
            }
            transport.quiesce();
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

/// The simulated WAN: an arrival runs at virtual time, and each message it
/// sends becomes a [`Ctx::send`] charged the size the engine gave it on its
/// link. Events are pushed by the simulation driver, whose event queue is
/// its own quiescence tracker.
impl SimNode for NodeEngine {
    type Input = Tuple;
    type Msg = Msg;

    fn on_input(&mut self, tuple: Tuple, ctx: &mut Ctx<'_, Msg>) {
        let now_us = ctx.now().as_micros();
        let Ok(()) = self.arrival_at(tuple, now_us, |to, msg, bytes| {
            ctx.send(to, msg, bytes);
            Ok::<(), Infallible>(())
        });
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        self.on_net(from, msg);
    }
}

/// The simulated cluster as the driver feeds it. Its clock is virtual and
/// never waits: scheduling an input at its due time *is* the wait, so a
/// scheduled feed queues every arrival before the first event runs, and
/// ties between inputs and deliveries keep their `(time, seq)` order.
/// Arrivals are not stamped: virtual time has no delivery latency to report.
impl Cluster for Simulation<NodeEngine> {
    type Error = RunError;
    type Extras = NetMetrics;

    fn now_ns(&self) -> u64 {
        self.now().as_micros().saturating_mul(1_000)
    }

    fn in_flight(&self) -> i64 {
        self.pending() as i64
    }

    fn inject(&mut self, node: u16, tuple: Tuple, due_ns: Option<u64>) -> Result<(), RunError> {
        let due = due_ns.map_or(self.now(), |ns| SimTime::from_micros(ns / 1_000));
        self.inject_at(due, node, tuple);
        Ok(())
    }

    fn wait_until(&mut self, _: u64) -> Result<bool, RunError> {
        Ok(true)
    }

    fn advance(&mut self, deadline_ns: Option<u64>) -> Result<bool, RunError> {
        let deadline = deadline_ns.unwrap_or(u64::MAX) / 1_000;
        Ok(self.step_until(SimTime::from_micros(deadline)))
    }

    fn finish(self, fed: Result<(), RunError>) -> Result<(Vec<NodeEngine>, NetMetrics), RunError> {
        fed.map(|()| self.into_parts())
    }
}

/// A transcript transport for unit tests: records sends, replays scripted
/// events, and refuses every send past `capacity`, if one is set.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Script {
    pub sent: Vec<(u16, Msg)>,
    pub events: std::collections::VecDeque<TransportEvent>,
    pub quiesced: u32,
    pub clock_us: u64,
    pub capacity: Option<usize>,
}

#[cfg(test)]
impl Transport for Script {
    /// Stands in for any transport failure.
    type Error = std::fmt::Error;
    fn send(&mut self, to: u16, msg: Msg) -> Result<(), std::fmt::Error> {
        if self.capacity == Some(self.sent.len()) {
            return Err(std::fmt::Error);
        }
        self.sent.push((to, msg));
        Ok(())
    }
    fn poll(&mut self) -> Result<TransportEvent, std::fmt::Error> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{test_config, Algorithm};

    fn engine(me: u16, n: u16) -> NodeEngine {
        NodeEngine::assemble(
            test_config(Algorithm::Base, me, n),
            WindowSpec::count(16),
            0,
            None,
        )
    }

    #[test]
    fn run_loop_dispatches_and_quiesces_each_event() {
        let mut eng = engine(0, 3);
        let mut tx = Script::default();
        tx.events.push_back(TransportEvent::Arrival(
            Tuple::new(StreamId::R, 5, 0, 0),
            None,
        ));
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

    #[test]
    fn a_trailing_probe_reads_the_window_as_of_its_tuple() {
        // Node 0 of two stores R tuples of key 5 at the even seqs 0..=118
        // in a window of 16: it holds 88..=118 and keeps the 16 expired
        // before them, 56..=86.
        let mut eng = engine(0, 2);
        let mut tx = Script::default();
        for seq in (0..120).step_by(2) {
            eng.on_arrival(Tuple::new(StreamId::R, 5, seq, 0), &mut tx)
                .unwrap();
        }
        let probe = |eng: &mut NodeEngine, seq| {
            let before = *eng.metrics();
            let tuple = Tuple::new(StreamId::S, 5, seq, 1);
            eng.on_net(
                1,
                Msg::Tuple {
                    tuple,
                    piggyback: Vec::new(),
                },
            );
            let m = eng.metrics();
            (
                m.remote_matches - before.remote_matches,
                m.late_probes - before.late_probes,
            )
        };
        assert_eq!(probe(&mut eng, 119), (16, 0));
        // Node 1's S tuple at seq 91 arrived when the window held 60..=90.
        assert_eq!(probe(&mut eng, 91), (16, 0));
        // One at seq 75 trails by 22 inserts, past the grace: its window
        // held 44..=74, and 44..=54 are gone.
        assert_eq!(probe(&mut eng, 75), (10, 1));
    }

    #[test]
    fn summaries_the_router_cannot_apply_are_counted_not_fatal() {
        use crate::msg::CoeffUpdate;
        // Node 0 of three runs DFT and retains 32 coefficients.
        let mut eng = NodeEngine::assemble(
            test_config(Algorithm::Dft, 0, 3),
            WindowSpec::count(16),
            0,
            None,
        );
        let dft = |indices: &[u16]| SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 256,
            exponent: 0,
            updates: (indices.iter())
                .map(|&index| CoeffUpdate {
                    index,
                    re: 1,
                    im: 0,
                })
                .collect(),
        };
        let drops = |eng: &NodeEngine| eng.metrics().summary_index_drops;
        eng.on_net(1, Msg::Summary(vec![dft(&[3])]));
        assert_eq!(drops(&eng), 0);
        // Two indices beyond the prefix: one drop each.
        eng.on_net(1, Msg::Summary(vec![dft(&[3, 32, u16::MAX])]));
        assert_eq!(drops(&eng), 2);
        // A BLOOM node's two filters, piggybacked on a tuple: one drop
        // each, and the tuple is still probed.
        let bloom = Router::new(test_config(Algorithm::Bloom, 2, 3)).full_summaries(0);
        assert_eq!(bloom.len(), 2);
        eng.on_net(
            2,
            Msg::Tuple {
                tuple: Tuple::new(StreamId::S, 5, 1, 1),
                piggyback: bloom,
            },
        );
        assert_eq!(drops(&eng), 4);
        assert_eq!(eng.metrics().tuples_received, 1);
        // Well-formed, but "from" the node itself and from beyond the
        // cluster: one drop each.
        eng.on_net(0, Msg::Summary(vec![dft(&[3])]));
        eng.on_net(3, Msg::Summary(vec![dft(&[3])]));
        assert_eq!(drops(&eng), 6);
        // The same for a BLOOM and a SKCH node, whose summaries land in a
        // table per peer column: "from" node 0 would alias peer 1's column
        // without the check. Nothing lands, and both rows, refreshed by
        // one arrival each, stay clean.
        for algorithm in [Algorithm::Bloom, Algorithm::Sketch] {
            let mut eng =
                NodeEngine::assemble(test_config(algorithm, 0, 3), WindowSpec::count(16), 0, None);
            let mut tx = Script::default();
            for (seq, stream) in (0..).zip(StreamId::BOTH) {
                eng.on_arrival(Tuple::new(stream, 5, seq, 0), &mut tx)
                    .unwrap();
            }
            let clean = eng.router.stale_masks();
            assert_eq!(clean, [[false; 2], [false; 2]], "{algorithm}");
            let payload = Router::new(test_config(algorithm, 1, 3)).full_summaries(0);
            for from in [0, 3] {
                eng.on_net(from, Msg::Summary(payload[..1].to_vec()));
            }
            assert_eq!(drops(&eng), 2, "{algorithm}");
            assert_eq!(eng.router.summaries_landed(), 0, "{algorithm}");
            assert_eq!(eng.router.stale_masks(), clean, "{algorithm}");
            // The real sender lands in its column.
            eng.on_net(1, Msg::Summary(payload[..1].to_vec()));
            assert_eq!(drops(&eng), 2, "{algorithm}");
            assert_eq!(eng.router.summaries_landed(), 1, "{algorithm}");
        }
    }

    /// Node 0 of three, running `algorithm`, receives `foreign` from peer
    /// 1: the payload is dropped whole and counted once, nothing lands,
    /// and arrivals route exactly as on a twin that never received it.
    fn assert_dropped_whole(algorithm: Algorithm, foreign: SummaryPayload) {
        let build =
            || NodeEngine::assemble(test_config(algorithm, 0, 3), WindowSpec::count(16), 0, None);
        let (mut eng, mut twin) = (build(), build());
        eng.on_net(1, Msg::Summary(vec![foreign]));
        assert_eq!(eng.metrics().summary_index_drops, 1, "{algorithm}");
        assert_eq!(eng.router.summaries_landed(), 0, "{algorithm}");
        let (mut tx, mut twin_tx) = (Script::default(), Script::default());
        for seq in 0..64 {
            let tuple = Tuple::new(StreamId::R, (seq * 37 % 256) as u32, seq, 0);
            eng.on_arrival(tuple, &mut tx).unwrap();
            twin.on_arrival(tuple, &mut twin_tx).unwrap();
        }
        assert!(!tx.sent.is_empty());
        assert_eq!(
            tx.sent, twin_tx.sent,
            "{algorithm}: routes as if never received"
        );
    }

    #[test]
    fn a_dft_summary_over_another_domain_is_dropped_whole() {
        use crate::msg::CoeffUpdate;
        // The node runs DFTT over D = 256; peer 1 claims D′ = 512, with
        // in-range indices whose buckets would make it a candidate for
        // every key.
        let skewed = SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 512,
            exponent: 0,
            updates: (0..32)
                .map(|index| CoeffUpdate {
                    index,
                    re: 40,
                    im: -3,
                })
                .collect(),
        };
        assert_dropped_whole(Algorithm::Dftt, skewed);
    }

    #[test]
    fn a_bloom_filter_on_another_hash_family_is_dropped_whole() {
        // 64 hashes under a seed of its own, holding every key: landed, it
        // would make peer 1 a candidate for every tuple.
        let mut filter = dsj_sketch::CountingBloomFilter::new(128, 64, 99);
        (0..256).for_each(|key| filter.insert(key));
        let foreign = SummaryPayload::Bloom {
            stream: StreamId::S,
            filter,
        };
        assert_dropped_whole(Algorithm::Bloom, foreign);
    }

    #[test]
    fn a_sketch_on_another_hash_family_is_dropped_whole() {
        // Landed, it would never join the node's own sketches: peer 1's
        // estimate would read "none" for good.
        let mut sketch = dsj_sketch::AgmsSketch::new(5, 1, 99);
        (0..256).for_each(|key| sketch.update(key, 1));
        let foreign = SummaryPayload::Sketch {
            stream: StreamId::S,
            sketch,
        };
        assert_dropped_whole(Algorithm::Sketch, foreign);
    }

    /// A batching transcript transport: drains its whole backlog per
    /// frame and counts flushes.
    struct BatchScript {
        inner: Script,
        flushes: u32,
    }

    impl Transport for BatchScript {
        type Error = std::fmt::Error;
        fn send(&mut self, to: u16, msg: Msg) -> Result<(), Self::Error> {
            self.inner.send(to, msg)
        }
        fn poll(&mut self) -> Result<TransportEvent, Self::Error> {
            self.inner.poll()
        }
        fn poll_frame(
            &mut self,
            max: usize,
            frame: &mut Vec<TransportEvent>,
        ) -> Result<(), Self::Error> {
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
        fn flush(&mut self) -> Result<(), Self::Error> {
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
        tx.inner.events.push_back(TransportEvent::Arrival(
            Tuple::new(StreamId::R, 5, 0, 0),
            None,
        ));
        tx.inner.events.push_back(TransportEvent::Arrival(
            Tuple::new(StreamId::R, 6, 1, 0),
            None,
        ));
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
    fn a_failed_send_ends_the_arrival_and_the_run() {
        let n = 4;
        let arrival = |seq| Tuple::new(StreamId::R, 5, seq, 0);
        // A transport that fails its second send.
        let flaky = || Script {
            capacity: Some(1),
            ..Script::default()
        };
        let mut eng = engine(0, n);
        let mut tx = flaky();
        assert_eq!(eng.on_arrival(arrival(0), &mut tx), Err(std::fmt::Error));
        assert_eq!(tx.sent.len(), 1, "nothing after the failure is sent");
        // The node survives its aborted arrival: over a healthy transport
        // BASE broadcasts the next one to all N - 1 peers.
        let mut healthy = Script::default();
        eng.on_arrival(arrival(1), &mut healthy).unwrap();
        assert_eq!(healthy.sent.len(), usize::from(n - 1));
        // The run loop stops at the failure and returns it.
        let mut eng = engine(0, n);
        let mut tx = flaky();
        tx.events
            .push_back(TransportEvent::Arrival(arrival(0), None));
        tx.events
            .push_back(TransportEvent::Arrival(arrival(1), None));
        assert_eq!(eng.run(&mut tx), Err(std::fmt::Error));
        assert_eq!(tx.sent.len(), 1);
        assert_eq!(tx.quiesced, 0, "the failed event is not quiesced");
    }
}
