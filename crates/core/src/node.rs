//! A distributed join node: windows, local join execution, routing and
//! summary dissemination (the per-node runtime of Fig. 7).

use crate::msg::Msg;
use crate::strategy::{peers_of, Algorithm, Route, Router, RouterConfig};
use dsj_stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The paper's abstract promises "automatic throughput handling based on
/// resource availability": when a node's outbound byte rate approaches its
/// bandwidth allowance, it scales its message-complexity target down
/// (multiplicative decrease) and recovers gently when headroom returns
/// (additive increase) — AIMD over the routing budget.
#[derive(Debug, Clone)]
pub struct ThroughputGovernor {
    budget_bps: u64,
    window_us: u64,
    history: VecDeque<(u64, u64)>,
    bytes_in_window: u64,
    scale: f64,
}

impl ThroughputGovernor {
    /// Multiplicative back-off factor on overload.
    const DECREASE: f64 = 0.85;
    /// Additive recovery per arrival with headroom.
    const INCREASE: f64 = 0.02;
    /// The governor never silences a node entirely.
    const MIN_SCALE: f64 = 0.05;

    /// Creates a governor with a byte-rate allowance of `budget_bps` bits
    /// per second, measured over a one-second sliding window.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bps == 0`.
    pub fn new(budget_bps: u64) -> Self {
        assert!(budget_bps > 0, "bandwidth budget must be positive");
        ThroughputGovernor {
            budget_bps,
            window_us: 1_000_000,
            history: VecDeque::new(),
            bytes_in_window: 0,
            scale: 1.0,
        }
    }

    /// Records `bytes` sent at `now_us`.
    pub fn note_sent(&mut self, now_us: u64, bytes: u64) {
        self.history.push_back((now_us, bytes));
        self.bytes_in_window += bytes;
    }

    /// Updates and returns the target scale for a decision at `now_us`.
    pub fn scale(&mut self, now_us: u64) -> f64 {
        while let Some(&(t, b)) = self.history.front() {
            if now_us.saturating_sub(t) <= self.window_us {
                break;
            }
            self.history.pop_front();
            self.bytes_in_window -= b;
        }
        let rate_bps = self
            .bytes_in_window
            .saturating_mul(8)
            .saturating_mul(1_000_000)
            / self.window_us.max(1);
        if rate_bps > self.budget_bps {
            self.scale = (self.scale * Self::DECREASE).max(Self::MIN_SCALE);
        } else {
            self.scale = (self.scale + Self::INCREASE).min(1.0);
        }
        self.scale
    }
}

/// Per-node counters aggregated into the experiment report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Tuples that arrived at this node from its stream sources.
    pub arrivals: u64,
    /// Matches found against this node's own windows at arrival time.
    pub local_matches: u64,
    /// Matches found when forwarded tuples probed this node's windows.
    pub remote_matches: u64,
    /// Tuple messages sent.
    pub tuple_msgs_sent: u64,
    /// Standalone summary messages sent.
    pub summary_msgs_sent: u64,
    /// Bytes of tuple payload sent (Figure 8's "net data").
    pub data_bytes_sent: u64,
    /// Bytes of summary content sent (Figure 8's overhead).
    pub overhead_bytes_sent: u64,
    /// Arrivals routed by the worst-case fallback policy.
    pub fallback_routes: u64,
    /// Forwarded tuples received from peers.
    pub tuples_received: u64,
    /// Standalone summary messages received.
    pub summaries_received: u64,
    /// Summary updates dropped because their index fell outside the
    /// router's configured shape (a version-skewed or corrupted peer).
    pub summary_index_drops: u64,
    /// Arrivals dropped at ingest because their key fell outside the
    /// configured attribute domain (a corrupt or mis-configured source).
    pub key_domain_drops: u64,
}

impl NodeMetrics {
    /// Total matches this node reported (local + remote probes).
    pub fn matches(&self) -> u64 {
        self.local_matches + self.remote_matches
    }

    /// Exports every counter into `registry` under
    /// `node.<id>.<counter>` keys (the per-node section of the
    /// `--metrics-out` record).
    pub(crate) fn record_into(&self, registry: &mut crate::obs::Registry, me: u16) {
        for (name, value) in [
            ("arrivals", self.arrivals),
            ("local_matches", self.local_matches),
            ("remote_matches", self.remote_matches),
            ("tuple_msgs_sent", self.tuple_msgs_sent),
            ("summary_msgs_sent", self.summary_msgs_sent),
            ("data_bytes_sent", self.data_bytes_sent),
            ("overhead_bytes_sent", self.overhead_bytes_sent),
            ("fallback_routes", self.fallback_routes),
            ("tuples_received", self.tuples_received),
            ("summaries_received", self.summaries_received),
            ("summary_index_drops", self.summary_index_drops),
            ("key_domain_drops", self.key_domain_drops),
        ] {
            registry.counter_add(&format!("node.{me:02}.{name}"), value);
        }
    }

    /// Adds another node's counters into this one.
    pub fn absorb(&mut self, other: &NodeMetrics) {
        self.arrivals += other.arrivals;
        self.local_matches += other.local_matches;
        self.remote_matches += other.remote_matches;
        self.tuple_msgs_sent += other.tuple_msgs_sent;
        self.summary_msgs_sent += other.summary_msgs_sent;
        self.data_bytes_sent += other.data_bytes_sent;
        self.overhead_bytes_sent += other.overhead_bytes_sent;
        self.fallback_routes += other.fallback_routes;
        self.tuples_received += other.tuples_received;
        self.summaries_received += other.summaries_received;
        self.summary_index_drops += other.summary_index_drops;
        self.key_domain_drops += other.key_domain_drops;
    }
}

/// One node of the distributed join cluster.
///
/// Owns segments `R_i`/`S_i` of the two streams (sliding windows), runs the
/// local symmetric join on every arrival, and consults its router to
/// forward the tuple toward likely join partners. Forwarded tuples probe
/// the receiver's windows but are never stored — windows hold only tuples
/// that arrived locally, exactly the paper's partitioning model.
#[derive(Debug)]
pub struct JoinNode {
    me: u16,
    n: u16,
    /// Attribute domain size; arrivals with `key >= domain` are dropped
    /// at ingest (mirroring `RunError::TraceKeyOutOfDomain`).
    domain: u32,
    count_from_seq: u64,
    r_win: SlidingWindow,
    s_win: SlidingWindow,
    router: Router,
    rng: StdRng,
    metrics: NodeMetrics,
    governor: Option<ThroughputGovernor>,
    /// Route scratch reused across arrivals.
    route_scratch: Route,
    /// Order-sensitive digest of every counted match observation — see
    /// [`JoinNode::match_digest`].
    match_digest: u64,
}

impl JoinNode {
    /// Creates node `cfg.me` of the cluster, running `algorithm`.
    /// Matches attributed to tuples with `seq < count_from_seq` are not
    /// counted (warm-up exclusion).
    pub(crate) fn new(
        algorithm: Algorithm,
        cfg: RouterConfig,
        spec: WindowSpec,
        count_from_seq: u64,
    ) -> Self {
        let me = cfg.me;
        let n = cfg.n;
        let domain = cfg.domain;
        let rng = StdRng::seed_from_u64(cfg.seed ^ (0xD5EED ^ u64::from(me) << 32));
        JoinNode {
            me,
            n,
            domain,
            count_from_seq,
            r_win: SlidingWindow::new(spec),
            s_win: SlidingWindow::new(spec),
            router: Router::new(algorithm, cfg),
            rng,
            metrics: NodeMetrics::default(),
            governor: None,
            route_scratch: Route::default(),
            match_digest: Self::DIGEST_BASIS,
        }
    }

    /// Installs a throughput governor with the given bandwidth allowance
    /// (bits/second of outbound traffic).
    pub fn with_bandwidth_budget(mut self, budget_bps: u64) -> Self {
        self.governor = Some(ThroughputGovernor::new(budget_bps));
        self
    }

    /// This node's counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// Worst-case fallback activations recorded by the router.
    pub fn fallback_events(&self) -> u64 {
        self.router.fallback_events()
    }

    /// The window holding `stream`'s locally arrived tuples.
    pub fn window(&self, stream: StreamId) -> &SlidingWindow {
        match stream {
            StreamId::R => &self.r_win,
            StreamId::S => &self.s_win,
        }
    }

    fn counts(&self, seq: u64) -> bool {
        seq >= self.count_from_seq
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

    #[inline]
    fn fold_match(&mut self, seq: u64, matches: u32) {
        self.match_digest = (self.match_digest ^ seq).wrapping_mul(Self::DIGEST_PRIME);
        self.match_digest =
            (self.match_digest ^ u64::from(matches)).wrapping_mul(Self::DIGEST_PRIME);
    }
}

impl JoinNode {
    /// Transport-agnostic arrival handling (Fig. 7): local join, summary
    /// maintenance, routing. Clears and fills `out` with the
    /// `(peer, message)` pairs to transmit; the per-arrival route state
    /// lives in buffers reused across calls and the window insert
    /// allocates nothing. What still allocates — the piggyback and summary
    /// payloads built below, SKCH's join-size estimates — is pinned per
    /// algorithm in `tests/alloc_budget.rs`. `now_us` is the node's clock in
    /// microseconds (virtual or wall, depending on the runtime).
    pub fn handle_arrival_into(&mut self, tuple: Tuple, now_us: u64, out: &mut Vec<(u16, Msg)>) {
        out.clear();
        debug_assert_eq!(tuple.origin, self.me, "arrival routed to wrong node");
        // Domain guard (the runtime analogue of `RunError::TraceKeyOutOfDomain`):
        // an out-of-domain key from a corrupt source must neither panic the
        // routing hot path nor poison the window summaries — drop and count.
        if tuple.key >= self.domain {
            self.metrics.key_domain_drops += 1;
            return;
        }
        // Local join: probe the opposite window, then store. Every stored
        // tuple has a smaller seq, so each co-located pair counts exactly
        // once, at its later tuple's arrival.
        let local = self.window(tuple.stream.opposite()).probe(tuple.key);
        if self.counts(tuple.seq) {
            self.metrics.local_matches += u64::from(local);
            self.fold_match(tuple.seq, local);
        }
        // Insert into the tuple's window, then hand the evicted keys (a
        // borrow of the window's reusable eviction buffer — disjoint from
        // the router field) to summary maintenance.
        let evicted_keys: &[u32] = match tuple.stream {
            StreamId::R => {
                self.r_win.insert(tuple, now_us);
                self.r_win.evicted_keys()
            }
            StreamId::S => {
                self.s_win.insert(tuple, now_us);
                self.s_win.evicted_keys()
            }
        };
        self.router
            .local_update(tuple.stream, tuple.key, evicted_keys);
        self.router.note_arrival();
        self.metrics.arrivals += 1;

        // Route toward likely join partners, under the governor's current
        // resource-availability scale.
        let scale = match &mut self.governor {
            Some(g) => g.scale(now_us),
            None => 1.0,
        };
        let mut route = std::mem::take(&mut self.route_scratch);
        self.router
            .route_into(tuple.stream, tuple.key, scale, &mut self.rng, &mut route);
        if route.fallback {
            self.metrics.fallback_routes += 1;
        }
        for &peer in &route.peers {
            let piggyback = if self.router.sync_due(peer) {
                self.router.full_summaries(peer)
            } else {
                self.router.piggyback(peer)
            };
            let msg = Msg::Tuple { tuple, piggyback };
            self.metrics.tuple_msgs_sent += 1;
            self.metrics.data_bytes_sent += msg.data_bytes() as u64;
            self.metrics.overhead_bytes_sent += msg.overhead_bytes() as u64;
            self.router.note_sent(peer);
            if let Some(g) = &mut self.governor {
                g.note_sent(now_us, msg.wire_bytes() as u64);
            }
            out.push((peer, msg));
        }

        // Standalone summary batches for peers no tuple message reached in
        // too long (Fig. 7: "transmitted on their own").
        for peer in peers_of(self.me, self.n) {
            if route.peers.contains(&peer) || !self.router.sync_overdue(peer) {
                continue;
            }
            let payloads = self.router.full_summaries(peer);
            if payloads.is_empty() {
                continue;
            }
            let msg = Msg::Summary(payloads);
            self.metrics.summary_msgs_sent += 1;
            self.metrics.overhead_bytes_sent += msg.overhead_bytes() as u64;
            if let Some(g) = &mut self.governor {
                g.note_sent(now_us, msg.wire_bytes() as u64);
            }
            out.push((peer, msg));
        }
        self.route_scratch = route;
    }

    /// Transport-agnostic network-message handling: apply summaries, probe
    /// the local windows with forwarded tuples.
    pub fn handle_message(&mut self, from: u16, msg: Msg) {
        match msg {
            Msg::Tuple { tuple, piggyback } => {
                for p in &piggyback {
                    let dropped = self.router.apply_summary(from, p);
                    debug_assert!(
                        dropped == 0,
                        "peer {from} piggybacked {dropped} out-of-range summary updates"
                    );
                    self.metrics.summary_index_drops += dropped;
                }
                self.metrics.tuples_received += 1;
                // Probe-only: count pairs whose later tuple is the prober.
                let matches = self
                    .window(tuple.stream.opposite())
                    .probe_before(tuple.key, tuple.seq);
                if self.counts(tuple.seq) {
                    self.metrics.remote_matches += u64::from(matches);
                    self.fold_match(tuple.seq, matches);
                }
            }
            Msg::Summary(payloads) => {
                self.metrics.summaries_received += 1;
                for p in &payloads {
                    let dropped = self.router.apply_summary(from, p);
                    debug_assert!(
                        dropped == 0,
                        "peer {from} sent {dropped} out-of-range summary updates"
                    );
                    self.metrics.summary_index_drops += dropped;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeEngine;
    use crate::strategy::test_config;
    use dsj_simnet::{LinkConfig, SimTime, Simulation};

    fn cluster(algorithm: Algorithm, n: u16) -> Simulation<NodeEngine> {
        let nodes = (0..n)
            .map(|me| {
                NodeEngine::new(JoinNode::new(
                    algorithm,
                    test_config(me, n),
                    WindowSpec::count(32),
                    0,
                ))
            })
            .collect();
        Simulation::new(nodes, LinkConfig::instant(), 11)
    }

    fn inject_seq(sim: &mut Simulation<NodeEngine>, arrivals: &[(u16, StreamId, u32)]) {
        for (i, &(node, stream, key)) in arrivals.iter().enumerate() {
            let t = SimTime::from_micros(i as u64 * 1_000);
            sim.inject_at(t, node, Tuple::new(stream, key, i as u64, node));
        }
    }

    #[test]
    fn base_finds_all_cross_node_matches() {
        let mut sim = cluster(Algorithm::Base, 3);
        inject_seq(
            &mut sim,
            &[
                (0, StreamId::R, 7),
                (1, StreamId::S, 7),
                (2, StreamId::S, 7),
                (0, StreamId::R, 7),
            ],
        );
        sim.run_to_quiescence();
        let total: u64 = sim.iter_nodes().map(|n| n.metrics().matches()).sum();
        // Pairs: (r0,s1) (r0,s2) (r3,s1) (r3,s2) remote + (r0,r3? same
        // stream no) — 4 matches, plus none local.
        assert_eq!(total, 4);
    }

    #[test]
    fn local_matches_counted_once() {
        let mut sim = cluster(Algorithm::Base, 2);
        inject_seq(
            &mut sim,
            &[
                (0, StreamId::R, 5),
                (0, StreamId::S, 5),
                (0, StreamId::S, 5),
            ],
        );
        sim.run_to_quiescence();
        let m0 = *sim.node(0).metrics();
        assert_eq!(m0.local_matches, 2, "r0 joins s1 and s2 locally");
        // Forwards to node 1 find nothing.
        let m1 = *sim.node(1).metrics();
        assert_eq!(m1.remote_matches, 0);
    }

    #[test]
    fn warmup_exclusion_skips_early_matches() {
        let nodes = (0..2)
            .map(|me| {
                NodeEngine::new(JoinNode::new(
                    Algorithm::Base,
                    test_config(me, 2),
                    WindowSpec::count(32),
                    2, // count only from seq 2
                ))
            })
            .collect();
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 3);
        inject_seq(
            &mut sim,
            &[
                (0, StreamId::R, 5),
                (0, StreamId::S, 5),
                (0, StreamId::S, 5),
            ],
        );
        sim.run_to_quiescence();
        let total: u64 = sim.iter_nodes().map(|n| n.metrics().matches()).sum();
        assert_eq!(total, 1, "only the seq-2 probe counts");
    }

    #[test]
    fn dftt_cluster_converges_to_targeted_routing() {
        let mut sim = cluster(Algorithm::Dftt, 3);
        // Node 1 accumulates S tuples with key 10; node 2 with key 99.
        // After summaries propagate, node 0's R tuples with key 10 go to 1.
        let mut arrivals = Vec::new();
        for i in 0..120u32 {
            arrivals.push((1, StreamId::S, 10 + (i % 3)));
            arrivals.push((2, StreamId::S, 99 + (i % 3)));
            arrivals.push((0, StreamId::R, 10));
        }
        inject_seq(&mut sim, &arrivals);
        sim.run_to_quiescence();
        // Nodes 1 and 2 hold no R tuples, so what either receives beyond
        // blind routing comes from node 0.
        let got_1 = sim.node(1).metrics().tuples_received;
        let got_2 = sim.node(2).metrics().tuples_received;
        assert!(
            got_1 > 2 * got_2.max(1),
            "node 0 should target node 1: {got_1} vs {got_2}"
        );
        let found: u64 = sim.iter_nodes().map(|n| n.metrics().remote_matches).sum();
        assert!(found > 0, "remote matches must be reported");
    }

    #[test]
    fn governor_aimd_dynamics() {
        let mut g = ThroughputGovernor::new(8_000); // 1000 bytes/s
                                                    // Below budget: scale stays at 1.
        g.note_sent(0, 100);
        assert_eq!(g.scale(1_000), 1.0);
        // Blast 10x the budget into the window: multiplicative decrease.
        for i in 0..10 {
            g.note_sent(2_000 + i * 10, 1_000);
        }
        let s1 = g.scale(3_000);
        assert!(s1 < 1.0);
        let s2 = g.scale(3_100);
        assert!(s2 < s1, "overload keeps shrinking the scale");
        // A quiet second later the window drains and the scale recovers
        // additively.
        let recovered = g.scale(2_000_000);
        assert!(recovered > s2);
        assert!(recovered <= 1.0);
        // Scale never collapses to zero under sustained overload.
        let mut g2 = ThroughputGovernor::new(8);
        let mut floor = 1.0;
        for i in 0..10_000u64 {
            g2.note_sent(i, 100);
            floor = g2.scale(i);
        }
        assert!(floor >= 0.05);
    }

    #[test]
    fn metrics_absorb_sums() {
        let mut a = NodeMetrics {
            arrivals: 1,
            local_matches: 2,
            remote_matches: 3,
            tuple_msgs_sent: 4,
            summary_msgs_sent: 5,
            data_bytes_sent: 6,
            overhead_bytes_sent: 7,
            fallback_routes: 8,
            tuples_received: 9,
            summaries_received: 10,
            summary_index_drops: 11,
            key_domain_drops: 12,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.arrivals, 2);
        assert_eq!(a.matches(), 10);
        assert_eq!(a.summaries_received, 20);
        assert_eq!(a.summary_index_drops, 22);
        assert_eq!(a.key_domain_drops, 24);
    }

    #[test]
    fn out_of_domain_arrival_is_dropped_and_counted() {
        // test_config uses domain 256: key 300 must not reach the windows,
        // the router, or the wire — and must not panic.
        let mut node = JoinNode::new(Algorithm::Dftt, test_config(0, 3), WindowSpec::count(32), 0);
        let mut out = Vec::new();
        node.handle_arrival_into(Tuple::new(StreamId::R, 300, 0, 0), 0, &mut out);
        assert!(out.is_empty(), "dropped arrivals send nothing");
        assert_eq!(node.metrics().key_domain_drops, 1);
        assert_eq!(node.metrics().arrivals, 0, "drop precedes the count");
        assert_eq!(node.window(StreamId::R).len(), 0, "never stored");
        // In-domain arrivals still flow.
        node.handle_arrival_into(Tuple::new(StreamId::R, 200, 1, 0), 1, &mut out);
        assert_eq!(node.metrics().arrivals, 1);
    }
}
