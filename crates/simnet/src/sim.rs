//! The event loop: nodes, contexts and the simulation driver.

use crate::link::{LinkConfig, LinkState};
use crate::metrics::NetMetrics;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifies a node in the full-mesh topology (dense index).
pub type NodeId = u16;

/// Behaviour of a simulated node.
///
/// Handlers receive a [`Ctx`] through which they read the clock and send
/// messages; all effects are applied by the simulation after the handler
/// returns, keeping event processing atomic.
pub trait SimNode {
    /// Locally injected work (e.g. a tuple arriving at this node from its
    /// stream source — not subject to the network model).
    type Input;
    /// Wire messages exchanged between nodes.
    type Msg;

    /// Called when an injected input reaches this node.
    fn on_input(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a network message is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);
}

/// Handler-side view of the simulation: clock access and buffered effects.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    me: NodeId,
    nodes: u16,
    outgoing: &'a mut Vec<(NodeId, M, usize)>,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Total number of nodes in the mesh.
    #[inline]
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Sends `msg` (`bytes` long on the wire) to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this node or out of range.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        assert!(to != self.me, "a node cannot send to itself");
        assert!(to < self.nodes, "destination out of range");
        self.outgoing.push((to, msg, bytes));
    }
}

enum EventKind<I, M> {
    Inject(I),
    Deliver { from: NodeId, msg: M },
}

struct Event<I, M> {
    time: SimTime,
    seq: u64,
    target: NodeId,
    kind: EventKind<I, M>,
}

impl<I, M> PartialEq for Event<I, M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<I, M> Eq for Event<I, M> {}
impl<I, M> PartialOrd for Event<I, M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I, M> Ord for Event<I, M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        // Ties break by insertion sequence for determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The discrete-event simulation driver over a full mesh of `N` nodes.
///
/// Events run in `(time, seq)` order, `seq` counting every scheduled event
/// in scheduling order. Injected inputs arrive in time order, so they wait
/// in a FIFO lane; only deliveries, scheduled at drawn latencies, need the
/// heap. Each step runs the earlier of the two fronts.
pub struct Simulation<N: SimNode> {
    nodes: Vec<N>,
    inputs: VecDeque<Event<N::Input, N::Msg>>,
    deliveries: BinaryHeap<Event<N::Input, N::Msg>>,
    links: Vec<LinkState>,
    cfg: LinkConfig,
    rng: StdRng,
    now: SimTime,
    next_seq: u64,
    metrics: NetMetrics,
    events_processed: u64,
    /// Effect buffer handed to [`Ctx`] each event and drained afterwards,
    /// persisted here so the steady-state event loop allocates nothing.
    outgoing_scratch: Vec<(NodeId, <N as SimNode>::Msg, usize)>,
}

impl<N: SimNode> Simulation<N> {
    /// Creates a simulation over `nodes` with link model `cfg`, seeded for
    /// deterministic latency draws.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, has more than `u16::MAX` entries, or
    /// `cfg` is invalid.
    pub fn new(nodes: Vec<N>, cfg: LinkConfig, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(nodes.len() <= u16::MAX as usize, "too many nodes");
        let link = cfg.validate();
        assert!(link.is_ok(), "invalid link: {link:?}");
        let n = nodes.len();
        Simulation {
            nodes,
            inputs: VecDeque::new(),
            deliveries: BinaryHeap::new(),
            links: vec![LinkState::default(); n * n],
            cfg,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            next_seq: 0,
            metrics: NetMetrics::new(),
            events_processed: 0,
            outgoing_scratch: Vec::new(),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network accounting so far.
    #[inline]
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Total events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to node `id`'s handler.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id as usize]
    }

    /// Iterates over all node handlers.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Schedules `input` to arrive at `node` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past, if `t` precedes the time of
    /// the previously injected input that is still pending (inputs are
    /// injected in time order), or if `node` is out of range.
    pub fn inject_at(&mut self, t: SimTime, node: NodeId, input: N::Input) {
        assert!(t >= self.now, "cannot inject into the past");
        assert!(
            self.inputs.back().is_none_or(|last| t >= last.time),
            "inputs must be injected in time order"
        );
        assert!((node as usize) < self.nodes.len(), "node out of range");
        let seq = self.bump_seq();
        self.inputs.push_back(Event {
            time: t,
            seq,
            target: node,
            kind: EventKind::Inject(input),
        });
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn link_index(&self, from: NodeId, to: NodeId) -> usize {
        from as usize * self.nodes.len() + to as usize
    }

    /// The next event's time and whether it is an input: the earlier of
    /// the two queue fronts by `(time, seq)`.
    fn peek_next(&self) -> Option<(SimTime, bool)> {
        match (self.inputs.front(), self.deliveries.peek()) {
            (Some(i), Some(d)) if (d.time, d.seq) < (i.time, i.seq) => Some((d.time, false)),
            (Some(i), _) => Some((i.time, true)),
            (None, d) => d.map(|d| (d.time, false)),
        }
    }

    /// Events scheduled and not yet processed: inputs and deliveries.
    pub fn pending(&self) -> usize {
        self.inputs.len() + self.deliveries.len()
    }

    /// Processes a single event; returns `false` when no event is pending.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::from_micros(u64::MAX))
    }

    /// Processes the next event if it is due at or before `t`; returns
    /// `false` when none is.
    pub fn step_until(&mut self, t: SimTime) -> bool {
        let next = match self.peek_next() {
            Some((time, _)) if time > t => None,
            Some((_, true)) => self.inputs.pop_front(),
            Some((_, false)) => self.deliveries.pop(),
            None => None,
        };
        let Some(ev) = next else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time must be monotone");
        self.now = ev.time;
        self.events_processed += 1;
        if matches!(ev.kind, EventKind::Deliver { .. }) {
            self.metrics.record_delivery();
        }
        let mut outgoing = std::mem::take(&mut self.outgoing_scratch);
        debug_assert!(outgoing.is_empty());
        {
            let mut ctx = Ctx {
                now: self.now,
                me: ev.target,
                nodes: self.nodes.len() as u16,
                outgoing: &mut outgoing,
            };
            let node = &mut self.nodes[ev.target as usize];
            match ev.kind {
                EventKind::Inject(input) => node.on_input(input, &mut ctx),
                EventKind::Deliver { from, msg } => {
                    node.on_message(from, msg, &mut ctx);
                }
            }
        }
        for (to, msg, bytes) in outgoing.drain(..) {
            let idx = self.link_index(ev.target, to);
            let deliver_at = self.links[idx].schedule(self.now, bytes, &self.cfg, &mut self.rng);
            self.metrics.record_send(bytes);
            // Loss happens after the link was occupied: a dropped message
            // still burned its transmission slot.
            if self.cfg.draw_loss(&mut self.rng) {
                self.metrics.record_drop();
                continue;
            }
            self.metrics
                .record_latency_us((deliver_at - self.now).as_micros());
            let seq = self.bump_seq();
            self.deliveries.push(Event {
                time: deliver_at,
                seq,
                target: to,
                kind: EventKind::Deliver {
                    from: ev.target,
                    msg,
                },
            });
        }
        self.outgoing_scratch = outgoing;
        true
    }

    /// Runs until no events remain.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Ends the simulation, handing back its nodes and network accounting.
    pub fn into_parts(self) -> (Vec<N>, NetMetrics) {
        (self.nodes, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Node that forwards each input to the next node `hops` times.
    struct Relay {
        hops: u32,
        received: Vec<(NodeId, u32)>,
    }

    impl Relay {
        fn new(hops: u32) -> Self {
            Relay {
                hops,
                received: Vec::new(),
            }
        }
    }

    impl SimNode for Relay {
        type Input = u32;
        type Msg = u32;

        fn on_input(&mut self, input: u32, ctx: &mut Ctx<'_, u32>) {
            if self.hops > 0 {
                let to = (ctx.me() + 1) % ctx.nodes();
                ctx.send(to, input, 100);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.received.push((from, msg));
            if (msg as u64) < u64::from(self.hops) {
                let to = (ctx.me() + 1) % ctx.nodes();
                ctx.send(to, msg + 1, 100);
            }
        }
    }

    fn three_relays(hops: u32) -> Simulation<Relay> {
        Simulation::new(
            vec![Relay::new(hops), Relay::new(hops), Relay::new(hops)],
            LinkConfig::paper_wan(),
            7,
        )
    }

    #[test]
    fn message_travels_and_time_advances() {
        let mut sim = three_relays(1);
        sim.inject_at(SimTime::ZERO, 0, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).received.len(), 1);
        assert_eq!(sim.node(1).received[0], (0, 0));
        // 100 bytes at 90kbps ≈ 8.9ms tx + ≥20ms latency.
        assert!(sim.now() >= SimTime::ZERO + SimDuration::from_millis(28));
        assert_eq!(sim.metrics().messages_sent, 2, "inject fwd + relay fwd");
    }

    #[test]
    fn relay_chain_orders_causally() {
        let mut sim = three_relays(5);
        sim.inject_at(SimTime::ZERO, 0, 0);
        sim.run_to_quiescence();
        let total: usize = (0..3).map(|i| sim.node(i).received.len()).sum();
        assert_eq!(total, 6, "msg values 0..=5 delivered");
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                vec![Relay::new(3), Relay::new(3), Relay::new(3)],
                LinkConfig::paper_wan(),
                seed,
            );
            for i in 0..10 {
                sim.inject_at(SimTime::from_micros(i * 100), (i % 3) as u16, 0);
            }
            sim.run_to_quiescence();
            (sim.now(), sim.metrics().messages_sent)
        };
        assert_eq!(run(5), run(5));
        // Different seed ⇒ different latencies ⇒ (almost surely) different clock.
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn step_until_stops_at_horizon() {
        let mut sim = three_relays(100);
        sim.inject_at(SimTime::ZERO, 0, 0);
        let horizon = SimTime::from_micros(200_000);
        while sim.step_until(horizon) {}
        assert!(sim.now() <= horizon);
        // More events remain.
        assert!(sim.step());
    }

    #[test]
    fn bandwidth_contention_delays_bursts() {
        // Two messages injected back-to-back on the same link must be
        // serialized: second delivery at least one transmission later.
        struct Burst;
        impl SimNode for Burst {
            type Input = ();
            type Msg = u32;
            fn on_input(&mut self, _: (), ctx: &mut Ctx<'_, u32>) {
                ctx.send(1, 1, 9_000); // 0.8 s at 90 kbps
                ctx.send(1, 2, 9_000);
            }
            fn on_message(&mut self, _: NodeId, _: u32, _: &mut Ctx<'_, u32>) {}
        }
        struct Sink {
            at: Vec<SimTime>,
        }
        impl SimNode for Sink {
            type Input = ();
            type Msg = u32;
            fn on_input(&mut self, _: (), _: &mut Ctx<'_, u32>) {}
            fn on_message(&mut self, _: NodeId, _: u32, ctx: &mut Ctx<'_, u32>) {
                self.at.push(ctx.now());
            }
        }
        // Heterogeneous nodes: wrap in an enum.
        enum Either {
            B(Burst),
            S(Sink),
        }
        impl SimNode for Either {
            type Input = ();
            type Msg = u32;
            fn on_input(&mut self, i: (), ctx: &mut Ctx<'_, u32>) {
                match self {
                    Either::B(b) => b.on_input(i, ctx),
                    Either::S(s) => s.on_input(i, ctx),
                }
            }
            fn on_message(&mut self, f: NodeId, m: u32, ctx: &mut Ctx<'_, u32>) {
                match self {
                    Either::B(b) => b.on_message(f, m, ctx),
                    Either::S(s) => s.on_message(f, m, ctx),
                }
            }
        }
        let mut sim = Simulation::new(
            vec![Either::B(Burst), Either::S(Sink { at: Vec::new() })],
            LinkConfig::paper_wan(),
            3,
        );
        sim.inject_at(SimTime::ZERO, 0, ());
        sim.run_to_quiescence();
        let Either::S(sink) = sim.node(1) else {
            panic!("node 1 is the sink");
        };
        assert_eq!(sink.at.len(), 2);
        let gap = sink.at[1] - sink.at[0];
        // Transmission of 9000 bytes at 90kbps = 0.8s; latencies differ by
        // at most 80ms, so the gap must exceed 0.7s.
        assert!(
            gap >= SimDuration::from_millis(700),
            "bandwidth not serialized: gap {gap}"
        );
    }

    #[test]
    #[should_panic(expected = "a node cannot send to itself")]
    fn self_send_rejected() {
        struct SelfSend;
        impl SimNode for SelfSend {
            type Input = ();
            type Msg = ();
            fn on_input(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
                ctx.send(0, (), 1);
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
        }
        let mut sim = Simulation::new(vec![SelfSend], LinkConfig::instant(), 0);
        sim.inject_at(SimTime::ZERO, 0, ());
        sim.run_to_quiescence();
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn past_injection_rejected() {
        let mut sim = three_relays(1);
        sim.inject_at(SimTime::from_micros(1000), 0, 0);
        sim.run_to_quiescence();
        sim.inject_at(SimTime::ZERO, 0, 0);
    }

    #[test]
    #[should_panic(expected = "inputs must be injected in time order")]
    fn out_of_order_injection_rejected() {
        let mut sim = three_relays(1);
        sim.inject_at(SimTime::from_micros(1000), 0, 0);
        sim.inject_at(SimTime::from_micros(999), 1, 0);
    }

    /// Records every input and delivery it sees, in order; node 0 forwards
    /// each input to node 1 as a one-byte message.
    #[derive(Default)]
    struct Tape {
        seen: Vec<(SimTime, char, u32)>,
    }

    impl SimNode for Tape {
        type Input = u32;
        type Msg = u32;
        fn on_input(&mut self, v: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), 'i', v));
            if ctx.me() == 0 {
                ctx.send(1, v, 1);
            }
        }
        fn on_message(&mut self, _: NodeId, v: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), 'm', v));
        }
    }

    fn tapes() -> Simulation<Tape> {
        Simulation::new(
            vec![Tape::default(), Tape::default()],
            LinkConfig::instant(),
            1,
        )
    }

    /// `instant()` links: 1 µs latency, no transmission time for one byte.
    const HOP: SimTime = SimTime::from_micros(1);

    #[test]
    fn same_instant_input_and_delivery_run_in_scheduling_order() {
        // The input at node 1 is scheduled before the send that delivers
        // at the same instant, so it runs first ...
        let mut sim = tapes();
        sim.inject_at(SimTime::ZERO, 0, 1);
        sim.inject_at(HOP, 1, 2);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).seen, [(HOP, 'i', 2), (HOP, 'm', 1)]);
        // ... and after it when injected once the send is scheduled.
        let mut sim = tapes();
        sim.inject_at(SimTime::ZERO, 0, 1);
        assert!(sim.step());
        sim.inject_at(HOP, 1, 2);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).seen, [(HOP, 'm', 1), (HOP, 'i', 2)]);
    }

    #[test]
    fn same_time_inputs_keep_injection_order() {
        let burst = SimTime::from_micros(5);
        let after = SimTime::from_micros(6);
        let mut sim = tapes();
        for v in 0..32 {
            sim.inject_at(burst, (v % 2) as NodeId, v);
        }
        sim.run_to_quiescence();
        let inputs: Vec<_> = (0..32).filter(|v| v % 2 == 0).collect();
        let expect: Vec<_> = inputs.iter().map(|&v| (burst, 'i', v)).collect();
        assert_eq!(sim.node(0).seen, expect);
        // Node 1 sees its own inputs in order, then node 0's forwards in
        // the order node 0 processed them.
        let expect: Vec<_> = (0..32)
            .filter(|v| v % 2 == 1)
            .map(|v| (burst, 'i', v))
            .chain(inputs.iter().map(|&v| (after, 'm', v)))
            .collect();
        assert_eq!(sim.node(1).seen, expect);
    }

    #[test]
    fn step_until_runs_only_what_is_due_and_pending_counts_the_rest() {
        let mut sim = tapes();
        sim.inject_at(SimTime::from_micros(10), 0, 1);
        assert!(!sim.step_until(SimTime::from_micros(9)));
        assert_eq!((sim.now(), sim.pending()), (SimTime::ZERO, 1));
        // The input runs and becomes a forward, due one hop later.
        assert!(sim.step_until(SimTime::from_micros(10)));
        assert_eq!((sim.now(), sim.pending()), (SimTime::from_micros(10), 1));
        assert!(!sim.step_until(SimTime::from_micros(10)));
        assert!(sim.step_until(SimTime::from_micros(11)));
        assert_eq!(sim.pending(), 0);
        let (nodes, net) = sim.into_parts();
        assert_eq!((nodes[1].seen.len(), net.messages_delivered), (1, 1));
    }

    #[test]
    fn step_until_stops_at_the_horizon_in_either_queue() {
        // Next event pending is a delivery.
        let mut sim = tapes();
        sim.inject_at(SimTime::ZERO, 0, 1);
        while sim.step_until(SimTime::ZERO) {}
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(
            sim.node(1).seen.is_empty(),
            "delivery is due after the horizon"
        );
        assert!(sim.step());
        assert_eq!(sim.node(1).seen, [(HOP, 'm', 1)]);
        // Next event pending is an input.
        let mut sim = tapes();
        sim.inject_at(SimTime::ZERO, 0, 1);
        sim.inject_at(SimTime::from_micros(10), 1, 2);
        while sim.step_until(SimTime::from_micros(5)) {}
        assert_eq!(sim.now(), HOP);
        assert_eq!(sim.node(1).seen, [(HOP, 'm', 1)]);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).seen.len(), 2);
        assert_eq!(sim.now(), SimTime::from_micros(10));
    }
}
