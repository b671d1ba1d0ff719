//! Test and benchmark facade over the per-tuple routing hot path.
//!
//! The routing layer (`Router`, `RouterConfig`) is crate-private
//! by design — simulation code goes through [`crate::NodeEngine`]. The
//! benchmark's staged replay (`benches/e2e`, `core.strategy.route_ns`)
//! and the hot-path determinism tests, however, need to drive a router
//! *directly*, without a window, a simulator or message transport around
//! it, so that the routing decision is timed and compared on its own.
//! This module is that thin, stable harness: it owns one router, with its
//! seeded RNG, derived from a [`ClusterConfig`] exactly as
//! [`ClusterConfig::build_node`] derives it, and exposes exactly the
//! operations the per-tuple path performs.
//!
//! [`RouterHarness::route`] runs the production flow filter
//! (`Router::route_into`: one policy for all five algorithms). Measured by
//! `tests/alloc_budget.rs` at steady state, no algorithm allocates in it.
//! In test builds, `RouterHarness::route_reference` runs its allocating
//! transcription — fresh buffers, no verdict or probability cache, the
//! same summary queries into the router's own affinity rows — and the
//! lockstep test below checks equivalence (same peers, same fallback flag,
//! same RNG draw counts) for every algorithm, at a fixed and at a moving
//! budget.

use crate::runner::ClusterConfig;
use crate::strategy::{column_of, Algorithm, Router};
use dsj_stream::StreamId;

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

/// One node's router — the per-tuple hot path with everything else
/// stripped away.
#[derive(Debug)]
pub struct RouterHarness {
    me: u16,
    router: Router,
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
            router: Router::new(cfg),
        }
    }

    /// Feeds one local arrival (and the keys it evicted) into the router's
    /// summaries and clock — what [`crate::NodeEngine`] does on every
    /// window insert.
    pub fn local_update(&mut self, stream: StreamId, key: u32, evicted: &[u32]) {
        self.router.local_update(stream, key, evicted);
    }

    /// Ships this node's full summaries to `dst` — the bulk synchronization
    /// a simulated node performs when a peer's summary view goes stale.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not another node of this harness's cluster.
    pub fn exchange_into(&mut self, dst: &mut RouterHarness) {
        assert_ne!(dst.me, self.me, "a node has no summary of its own");
        for payload in self.router.full_summaries(column_of(self.me, dst.me)) {
            dst.router.apply_summary(self.me, &payload);
        }
    }

    /// Routes one tuple through the production hot path; returns the chosen
    /// peers (sorted, deduplicated where the strategy does so) and whether
    /// the round-robin fallback produced them.
    pub fn route(&mut self, stream: StreamId, key: u32) -> (&[u16], bool) {
        self.route_at(stream, key, 1.0)
    }

    /// [`Self::route`] with the message budget times `scale`, as the
    /// throughput governor sets it.
    fn route_at(&mut self, stream: StreamId, key: u32, scale: f64) -> (&[u16], bool) {
        self.router.route_into(stream, key, scale);
        self.router.route()
    }

    /// Routes one tuple through the allocating reference transcription of
    /// the flow filter, at budget scale `scale`. Consumes RNG draws exactly
    /// as [`Self::route`] does, so two identically-seeded harnesses — one
    /// routed, one reference-routed — must stay in lockstep forever.
    #[cfg(test)]
    pub fn route_reference(&mut self, stream: StreamId, key: u32, scale: f64) -> (Vec<u16>, bool) {
        self.router.route_reference(stream, key, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Script;
    use crate::msg::Msg;
    use dsj_stream::gen::Scenario;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

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
                        let payloads = src.router.full_summaries(column_of(src.me, me));
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

    /// Full-summary exchange between every ordered pair of harnesses.
    fn exchange_all(cluster: &mut [RouterHarness]) {
        for i in 0..cluster.len() {
            for j in 0..cluster.len() {
                if i == j {
                    continue;
                }
                let (a, b) = if i < j {
                    let (lo, hi) = cluster.split_at_mut(j);
                    (&mut lo[i], &mut hi[0])
                } else {
                    let (lo, hi) = cluster.split_at_mut(i);
                    (&mut hi[0], &mut lo[j])
                };
                a.exchange_into(b);
            }
        }
    }

    /// `(node, stream, key)` per step of one lockstep drive. The uniform drive
    /// keeps the routers mostly in their worst case (over half the DFT-family
    /// and BLOOM routes are the round-robin fallback, and almost none picks
    /// more than one peer); the skewed one — `Scenario::Steady`: Zipf 0.4 keys,
    /// 0.8 locality — is what exercises membership hits, the residual budget
    /// and the explore draw.
    fn drive(skewed: bool, p: HarnessParams, steps: usize) -> Vec<(usize, StreamId, u32)> {
        if skewed {
            return Scenario::Steady
                .arrivals(p.n, p.domain, steps, 0.8, p.seed)
                .iter()
                .map(|a| (usize::from(a.node), a.stream, a.key))
                .collect();
        }
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0xD21F7);
        (0..steps)
            .map(|_| {
                let node = (rng.gen::<u64>() % u64::from(p.n)) as usize;
                let stream = if rng.gen_bool(0.5) {
                    StreamId::R
                } else {
                    StreamId::S
                };
                (
                    node,
                    stream,
                    (rng.gen::<u64>() % u64::from(p.domain)) as u32,
                )
            })
            .collect()
    }

    /// The allocation-free flow filter must never diverge from its allocating
    /// reference transcription: two identically-built clusters — one routed
    /// through `route`, one through `route_reference` — are driven in
    /// lockstep through seeded arrivals, window evictions and summary
    /// exchanges, and every routing decision must match exactly (same peers,
    /// same fallback flag). Because both paths consume the same RNG draws,
    /// one divergence would cascade — so agreement over thousands of tuples
    /// across every strategy, two cluster sizes (three for DFT and DFTT) and
    /// two key distributions is a strong equivalence proof. The reference
    /// reads DFTT's buckets with `PointwiseRecon::eval`, one peer's copied
    /// column at a time, so it checks the plane kernel too. The router
    /// keeps each stream's forwarding probabilities for the budget they were
    /// computed at, so a second pass moves the budget scale (five tuples at
    /// 1.0, five at 0.5, ten at 1.0, over and over), as the throughput
    /// governor does.
    #[test]
    fn optimized_route_matches_reference_in_lockstep() {
        const MOVING: [f64; 3] = [1.0, 0.5, 1.0];
        for (skewed, moving) in [(false, false), (true, false), (false, true), (true, true)] {
            for algorithm in Algorithm::ALL {
                // At n = 16 DFT and DFTT read 15-column planes.
                let wide = matches!(algorithm, Algorithm::Dft | Algorithm::Dftt);
                for n in [3u16, 5].into_iter().chain(wide.then_some(16)) {
                    let p = HarnessParams {
                        n,
                        domain: 1 << 10,
                        kappa: 64,
                        window: 128,
                        seed: 0xA11CE,
                    };
                    let mut opt: Vec<RouterHarness> = (0..n)
                        .map(|me| RouterHarness::new(algorithm, me, p))
                        .collect();
                    let mut reference: Vec<RouterHarness> = (0..n)
                        .map(|me| RouterHarness::new(algorithm, me, p))
                        .collect();
                    // Shared emulated windows: both clusters must see identical
                    // arrival + eviction streams.
                    let mut windows: Vec<[VecDeque<u32>; 2]> =
                        (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect();
                    let schedule = drive(skewed, p, usize::from(n) * 128 * 6);
                    for (step, &(node, stream, key)) in schedule.iter().enumerate() {
                        let w = &mut windows[node][stream.index()];
                        w.push_back(key);
                        let evicted: Vec<u32> = if w.len() > p.window {
                            vec![w.pop_front().unwrap_or(0)]
                        } else {
                            Vec::new()
                        };
                        opt[node].local_update(stream, key, &evicted);
                        reference[node].local_update(stream, key, &evicted);
                        if (step + 1) % 256 == 0 {
                            exchange_all(&mut opt);
                            exchange_all(&mut reference);
                        }
                        let scale = if moving { MOVING[(step / 5) % 3] } else { 1.0 };
                        let (ref_peers, ref_fallback) =
                            reference[node].route_reference(stream, key, scale);
                        let (opt_peers, opt_fallback) = opt[node].route_at(stream, key, scale);
                        assert_eq!(
                            (opt_peers, opt_fallback),
                            (ref_peers.as_slice(), ref_fallback),
                            "{algorithm:?} n={n} skewed={skewed} moving={moving} diverged at step {step} (node {node}, {stream:?}, key {key})"
                        );
                    }
                }
            }
        }
    }
}
