//! Test and benchmark facade over the per-tuple routing hot path.
//!
//! The routing layer (`Router`, `Route`, `RouterConfig`) is crate-private
//! by design — simulation code goes through [`crate::JoinNode`]. The
//! benchmark's staged replay (`benches/e2e`, `core.strategy.route_ns`)
//! and the hot-path determinism tests, however, need to drive a router
//! *directly*, without a window, a simulator or message transport around
//! it, so that the routing decision is timed and compared on its own.
//! This module is that thin, stable harness: it owns one router plus the
//! node-identical seeded RNG and exposes exactly the operations the
//! per-tuple path performs.
//!
//! [`RouterHarness::route`] runs the production flow filter
//! (`Router::route_into`: one policy for all five algorithms). Measured by
//! `tests/alloc_budget.rs` at steady state, BASE, DFT and BLOOM never
//! allocate in it, DFTT does a few times per 100 000 routes, and SKCH
//! 0.69 times per route, in `AgmsSketch::join_size`.
//! `RouterHarness::route_reference` (behind the `reference` feature) runs
//! its allocating transcription — fresh buffers, no verdict cache, the
//! same summary queries — so equivalence (same peers, same fallback flag,
//! same RNG draw counts) stays checkable for every algorithm.

use crate::flow::FlowParams;
use crate::strategy::{Algorithm, Route, Router, RouterConfig};
use dsj_stream::StreamId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cluster dimensions for a [`RouterHarness`] — the subset of
/// [`crate::ClusterConfig`] the routing layer can see.
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
    /// [`crate::JoinNode`] does, so routing draws match a simulated node.
    pub seed: u64,
}

impl Default for HarnessParams {
    /// The paper-like defaults of [`crate::ClusterConfig::new`] at `N = 4`.
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
    /// Builds node `me`'s router exactly as [`crate::ClusterConfig`] would
    /// (same retained-coefficient sizing, same sync intervals, same
    /// node-derived RNG seed).
    ///
    /// # Panics
    ///
    /// Panics if `me >= p.n` or `p.n < 2`.
    pub fn new(algorithm: Algorithm, me: u16, p: HarnessParams) -> Self {
        assert!(p.n >= 2, "need at least two nodes");
        assert!(me < p.n, "node id out of range");
        let retained = ((p.domain / p.kappa.max(1)).max(1)) as usize;
        let cfg = RouterConfig {
            me,
            n: p.n,
            domain: p.domain,
            retained,
            window: p.window,
            flow: FlowParams::default(),
            seed: p.seed,
            sync_sent_interval: 256,
            sync_arrival_interval: 2048,
            rho_refresh: 64,
        };
        RouterHarness {
            me,
            router: Router::new(algorithm, cfg),
            rng: StdRng::seed_from_u64(p.seed ^ (0xD5EED ^ u64::from(me) << 32)),
            scratch: Route::default(),
        }
    }

    /// Feeds one local arrival (and the keys it evicted) into the router's
    /// summaries — what [`crate::JoinNode`] does on every window insert.
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
