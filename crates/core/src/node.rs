//! What a node counts ([`NodeMetrics`]) and how it sheds load
//! ([`ThroughputGovernor`]); the node itself is [`crate::NodeEngine`].

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

/// Declares [`NodeMetrics`] from one list of counters: the struct, its
/// `node.<id>.<counter>` rows ([`NodeMetrics::record_into`]) and
/// [`NodeMetrics::absorb`] all follow it, so a counter is one line.
macro_rules! node_metrics {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Per-node counters aggregated into the experiment report.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeMetrics {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeMetrics {
            /// Exports every counter into `registry` under
            /// `node.<id>.<counter>` keys (the per-node section of the
            /// `--metrics-out` record).
            pub(crate) fn record_into(&self, registry: &mut crate::obs::Registry, me: u16) {
                $(registry.counter_add(
                    &format!("node.{me:02}.{}", stringify!($name)),
                    self.$name,
                );)*
            }

            /// Adds another node's counters into this one.
            pub fn absorb(&mut self, other: &NodeMetrics) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

node_metrics! {
    /// Tuples that arrived at this node from its stream sources.
    arrivals,
    /// Matches found against this node's own windows at arrival time.
    local_matches,
    /// Matches found when forwarded tuples probed this node's windows.
    remote_matches,
    /// Tuple messages sent.
    tuple_msgs_sent,
    /// Standalone summary messages sent.
    summary_msgs_sent,
    /// Bytes of tuple payload sent (Figure 8's "net data").
    data_bytes_sent,
    /// Bytes of summary content sent (Figure 8's overhead).
    overhead_bytes_sent,
    /// Arrivals routed by the worst-case fallback policy.
    fallback_routes,
    /// Forwarded tuples received from peers.
    tuples_received,
    /// Standalone summary messages received.
    summaries_received,
    /// Summary updates dropped because their index fell outside the
    /// router's configured shape (a version-skewed or corrupted peer).
    summary_index_drops,
    /// Arrivals dropped at ingest because their key fell outside the
    /// configured attribute domain (a corrupt or mis-configured source).
    key_domain_drops,
    /// Forwarded tuples that trailed this node's window by more than its
    /// grace: the window as it stood at their arrival reached past the
    /// oldest expired tuple kept, so their match count may be short.
    late_probes,
    /// Expired tuples the as-of probes of forwarded tuples walked over
    /// (0 when no probe trails its destination's window, as under
    /// lockstep).
    asof_records_walked,
    /// DFTT reconstruction terms membership reads evaluated: columns read
    /// times `K`.
    recon_terms,
    /// DFTT grid terms summary landings evaluated for the block bounds:
    /// `K·(G + 1)` per landed column.
    bound_terms,
}

impl NodeMetrics {
    /// Total matches this node reported (local + remote probes).
    pub fn matches(&self) -> u64 {
        self.local_matches + self.remote_matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeEngine;
    use crate::strategy::{test_config, Algorithm};
    use dsj_simnet::{LinkConfig, SimTime, Simulation};
    use dsj_stream::{StreamId, Tuple, WindowSpec};

    fn node(algorithm: Algorithm, me: u16, n: u16, count_from_seq: u64) -> NodeEngine {
        let spec = WindowSpec::count(32);
        NodeEngine::assemble(test_config(algorithm, me, n), spec, count_from_seq, None)
    }

    fn cluster(algorithm: Algorithm, n: u16) -> Simulation<NodeEngine> {
        let nodes = (0..n).map(|me| node(algorithm, me, n, 0)).collect();
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
        // Count only from seq 2.
        let nodes = (0..2).map(|me| node(Algorithm::Base, me, 2, 2)).collect();
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

    /// Every counter set to its place in the list, from 1.
    fn numbered() -> NodeMetrics {
        NodeMetrics {
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
            late_probes: 13,
            asof_records_walked: 14,
            recon_terms: 15,
            bound_terms: 16,
        }
    }

    #[test]
    fn metrics_absorb_sums() {
        let mut a = numbered();
        let b = a;
        a.absorb(&b);
        assert_eq!(a.arrivals, 2);
        assert_eq!(a.matches(), 10);
        assert_eq!(a.summaries_received, 20);
        assert_eq!(a.summary_index_drops, 22);
        assert_eq!(a.key_domain_drops, 24);
        assert_eq!(a.late_probes, 26);
        assert_eq!(a.asof_records_walked, 28);
    }

    #[test]
    fn record_into_writes_one_row_per_counter() {
        // The rows against the fields and values `Debug` prints.
        let m = numbered();
        let mut got = crate::obs::Registry::default();
        m.record_into(&mut got, 7);
        let debug = format!("{m:?}");
        let fields = (debug.strip_prefix("NodeMetrics { "))
            .and_then(|d| d.strip_suffix(" }"))
            .unwrap();
        let mut want = crate::obs::Registry::default();
        for field in fields.split(", ") {
            let (name, value) = field.split_once(": ").unwrap();
            want.counter_add(&format!("node.07.{name}"), value.parse().unwrap());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_domain_arrival_is_dropped_and_counted() {
        // test_config uses domain 256: key 300 must not reach the windows,
        // the router, or the wire — and must not panic.
        let mut sim = cluster(Algorithm::Dftt, 3);
        sim.inject_at(SimTime::ZERO, 0, Tuple::new(StreamId::R, 300, 0, 0));
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().messages_sent, 0, "nothing sent");
        let m = *sim.node(0).metrics();
        assert_eq!(m.key_domain_drops, 1);
        assert_eq!(m.arrivals, 0, "drop precedes the count");
        assert_eq!(sim.node(0).window(StreamId::R).len(), 0, "never stored");
        // In-domain arrivals still flow.
        sim.inject_at(sim.now(), 0, Tuple::new(StreamId::R, 200, 1, 0));
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).metrics().arrivals, 1);
    }
}
