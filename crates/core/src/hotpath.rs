//! Test and benchmark facade over the per-tuple routing hot path.
//!
//! The routing layer (`Router`, `Route`, `RouterConfig`) is crate-private
//! by design — simulation code goes through [`crate::NodeEngine`]. The
//! benchmark's staged replay (`benches/e2e`, `core.strategy.route_ns`)
//! and the hot-path determinism tests, however, need to drive a router
//! *directly*, without a window, a simulator or message transport around
//! it, so that the routing decision is timed and compared on its own.
//! This module is that thin, stable harness: it owns one router plus the
//! seeded RNG, both derived from a [`ClusterConfig`] exactly as
//! [`ClusterConfig::build_node`] derives them, and exposes exactly the
//! operations the per-tuple path performs.
//!
//! [`RouterHarness::route`] runs the production flow filter
//! (`Router::route_into`: one policy for all five algorithms). Measured by
//! `tests/alloc_budget.rs` at steady state, no algorithm allocates in it.
//! `RouterHarness::route_reference` (behind the `reference` feature) runs
//! its allocating transcription — fresh buffers, no verdict cache, the
//! same summary queries — so equivalence (same peers, same fallback flag,
//! same RNG draw counts) stays checkable for every algorithm.

use crate::runner::ClusterConfig;
use crate::strategy::{Algorithm, Route, Router};
use dsj_stream::StreamId;
use rand::rngs::StdRng;

/// Cluster dimensions for a [`RouterHarness`] — the subset of
/// [`ClusterConfig`] the routing layer can see.
#[derive(Debug, Clone, Copy)]
pub struct HarnessParams {
    /// Number of nodes `N` (the router samples among the `N-1` peers).
    pub n: u16,
    /// Join-attribute domain size `D`.
    pub domain: u32,
    /// DFT compression factor κ: `K = max(1, D/κ)` coefficients retained;
    /// Bloom/sketch summaries are sized to the same bytes.
    pub kappa: u32,
    /// Per-stream window size `W` (sizes summaries and sync cadence).
    pub window: usize,
    /// Master seed; each harness derives its RNG exactly as
    /// [`ClusterConfig::build_node`] does, so routing draws match a
    /// simulated node.
    pub seed: u64,
}

impl Default for HarnessParams {
    /// The paper-like defaults of [`ClusterConfig::new`] at `N = 4`.
    fn default() -> Self {
        HarnessParams {
            n: 4,
            domain: 1 << 12,
            kappa: 256,
            window: 1024,
            seed: 42,
        }
    }
}

/// One node's router, RNG and route scratch — the per-tuple hot path with
/// everything else stripped away.
#[derive(Debug)]
pub struct RouterHarness {
    me: u16,
    router: Router,
    rng: StdRng,
    scratch: Route,
}

impl RouterHarness {
    /// Builds node `me`'s router and RNG from
    /// `ClusterConfig::new(p.n, algorithm)` with `p`'s window, domain, κ
    /// and seed, as [`ClusterConfig::build_node`] would.
    ///
    /// # Panics
    ///
    /// Panics if `me >= p.n` or `p.n < 2`.
    pub fn new(algorithm: Algorithm, me: u16, p: HarnessParams) -> Self {
        assert!(p.n >= 2, "need at least two nodes");
        let cfg = ClusterConfig::new(p.n, algorithm)
            .window(p.window)
            .domain(p.domain)
            .kappa(p.kappa)
            .seed(p.seed)
            .router_config(me);
        RouterHarness {
            me,
            rng: cfg.rng(),
            router: Router::new(cfg),
            scratch: Route::default(),
        }
    }

    /// Feeds one local arrival (and the keys it evicted) into the router's
    /// summaries — what [`crate::NodeEngine`] does on every window insert.
    pub fn local_update(&mut self, stream: StreamId, key: u32, evicted: &[u32]) {
        self.router.local_update(stream, key, evicted);
        self.router.note_arrival();
    }

    /// Ships this node's full summaries to `dst` — the bulk synchronization
    /// a simulated node performs when a peer's summary view goes stale.
    pub fn exchange_into(&mut self, dst: &mut RouterHarness) {
        for payload in self.router.full_summaries(dst.me) {
            dst.router.apply_summary(self.me, &payload);
        }
    }

    /// Routes one tuple through the production hot path; returns the chosen
    /// peers (sorted, deduplicated where the strategy does so) and whether
    /// the round-robin fallback produced them.
    pub fn route(&mut self, stream: StreamId, key: u32) -> (&[u16], bool) {
        let mut out = std::mem::take(&mut self.scratch);
        self.router
            .route_into(stream, key, 1.0, &mut self.rng, &mut out);
        self.scratch = out;
        (&self.scratch.peers, self.scratch.fallback)
    }

    /// Routes one tuple through the allocating reference transcription of
    /// the flow filter. Consumes RNG draws exactly as [`Self::route`] does,
    /// so two identically-seeded harnesses — one routed, one
    /// reference-routed — must stay in lockstep forever.
    #[cfg(any(test, feature = "reference"))]
    pub fn route_reference(&mut self, stream: StreamId, key: u32) -> (Vec<u16>, bool) {
        let route = self.router.route_reference(stream, key, 1.0, &mut self.rng);
        (route.peers, route.fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Script;
    use crate::msg::Msg;

    #[test]
    fn harness_routes_as_the_built_node_does() {
        let p = HarnessParams {
            n: 4,
            domain: 256,
            kappa: 8,
            window: 64,
            seed: 5,
        };
        let me = 1;
        for algorithm in Algorithm::ALL {
            let cfg = ClusterConfig::new(p.n, algorithm)
                .window(p.window)
                .domain(p.domain)
                .kappa(p.kappa)
                .seed(p.seed)
                .tuples(600);
            let mut node = cfg.build_node(me);
            let mut harness = RouterHarness::new(algorithm, me, p);
            // The other nodes' summaries reach both alike, so the routes
            // depend on summaries, flow weights and RNG draws, not only on
            // the round-robin fallback.
            let mut peers: Vec<RouterHarness> = (0..p.n)
                .map(|j| RouterHarness::new(algorithm, j, p))
                .collect();
            let (mut routed, mut fallbacks) = (0, 0);
            for (i, a) in cfg.arrivals().iter().enumerate() {
                if i % 50 == 49 {
                    for src in peers.iter_mut().filter(|src| src.me != me) {
                        let payloads = src.router.full_summaries(me);
                        for payload in &payloads {
                            harness.router.apply_summary(src.me, payload);
                        }
                        node.on_net(src.me, Msg::Summary(payloads));
                    }
                }
                if a.node != me {
                    peers[usize::from(a.node)].local_update(a.stream, a.key, &[]);
                    continue;
                }
                let mut sent = Script::default();
                node.on_arrival(a.tuple(), &mut sent).unwrap();
                let evicted = node.window(a.stream).evicted_keys();
                harness.local_update(a.stream, a.key, evicted);
                let (chosen, fallback) = harness.route(a.stream, a.key);
                let tuple_msgs: Vec<u16> = (sent.sent.iter())
                    .filter_map(|(to, msg)| matches!(msg, Msg::Tuple { .. }).then_some(*to))
                    .collect();
                assert_eq!(tuple_msgs, chosen, "{algorithm}: arrival {i}");
                routed += 1;
                fallbacks += usize::from(fallback);
            }
            assert!(routed > 100, "{algorithm}: {routed} routes compared");
            assert_eq!(node.metrics().fallback_routes, fallbacks as u64);
        }
    }
}
