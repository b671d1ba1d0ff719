//! Routing strategies: the five algorithms compared in Section 6.
//!
//! Every strategy answers the same question — *which peers should this
//! arriving tuple be forwarded to?* — with the same rule, the Section 5.2
//! flow filter (`Router::route_into`): per-peer affinities → uniform-data
//! check → membership candidates first, the residual budget by affinity,
//! explore-or-suppress when nothing matches → `p_ij = w_i·ρ_ij` bounded by
//! Eqn. 9 → round-robin fallback. The algorithms differ only in the
//! summary that feeds it:
//!
//! | Algorithm | Summary exchanged | What the summary supplies |
//! |---|---|---|
//! | [`Algorithm::Base`]   | none                   | neither: every tuple is broadcast |
//! | [`Algorithm::Dft`]    | DFT coefficient prefix | affinity: window-level correlation `ρ` |
//! | [`Algorithm::Dftt`]   | DFT coefficient prefix | affinity `ρ` + membership via inverse-DFT reconstruction |
//! | [`Algorithm::Bloom`]  | counting Bloom filter  | membership (false positives) + affinity: its running hit rate |
//! | [`Algorithm::Sketch`] | AGMS sketch            | affinity: partition-pair join-size estimate |
//!
//! Summary sizes are equalized: `K` retained DFT coefficients occupy
//! `16·K` bytes, so Bloom filters get `4·K` counters, and sketches the
//! largest 5:1 `s0 × s1` grid of `i64` counters that fits `16·K` bytes
//! (`s1 = ⌊√(2K/5)⌋`, `s0 = 5·s1`; at `K = 16`, 10 × 2 = 20 counters,
//! 160 bytes), as in the paper's methodology.

mod bloom;
mod dft;
mod plan;
mod sketch;

use bloom::BloomSummary;
use dft::DftSummary;
use sketch::SketchSummary;

pub(crate) use plan::{Plan, PlanKey, Tables};

use crate::flow::{
    detect_uniform, forwarding_probabilities_into, sample_recipients_into, FlowScratch, RoundRobin,
    TargetComplexity, EXPLORE,
};
use crate::msg::{Msg, SummaryPayload};
use dsj_stream::{StreamId, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// The distributed join algorithm a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact broadcast baseline (`N−1` messages per tuple).
    Base,
    /// DFT flow filtering (correlation-weighted probabilistic forwarding).
    Dft,
    /// DFT flow filtering + tuple matching against reconstructed remote
    /// windows (the paper's best performer).
    Dftt,
    /// Counting-Bloom-filter membership routing.
    Bloom,
    /// AGMS-sketch join-size-weighted routing.
    Sketch,
}

impl Algorithm {
    /// All five algorithms, in the paper's comparison order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Base,
        Algorithm::Dft,
        Algorithm::Dftt,
        Algorithm::Bloom,
        Algorithm::Sketch,
    ];

    /// The paper's label for this algorithm.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Base => "BASE",
            Algorithm::Dft => "DFT",
            Algorithm::Dftt => "DFTT",
            Algorithm::Bloom => "BLOOM",
            Algorithm::Sketch => "SKCH",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The summary-bearing strategies recompute their cached per-peer
/// affinities every this many local arrivals (and whenever a peer's
/// summary lands).
const RHO_REFRESH: u64 = 64;

/// Minimum local arrivals between piggybacks to the same peer — caps the
/// steady-state coefficient overhead at a small fraction of the tuple
/// data, the regime Figure 8 reports.
const PIGGYBACK_GAP: u64 = 192;

/// Summary work counted in units of one multiply-add, moved into the
/// node's tally once per arrival and once per received message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Bucket terms membership reads evaluated: columns read × `K`.
    pub recon_terms: u64,
    /// Grid terms landings evaluated: `K·(G + 1)` per landed column.
    pub bound_terms: u64,
}

/// Per-node configuration shared by all routers.
#[derive(Debug, Clone)]
pub(crate) struct RouterConfig {
    /// This node's id.
    pub me: u16,
    /// Cluster size.
    pub n: u16,
    /// Message-complexity operating point (Eqn. 9).
    pub target: TargetComplexity,
    /// The uniform-data detector's σ/μ threshold (`detect_uniform`).
    pub uniform_cv_threshold: f64,
    /// The cluster's shared tables, one plan held by every node, and what
    /// they derive from: `D`, `K`, `W` and the cluster seed.
    pub plan: Arc<Plan>,
    /// Refresh a peer's summary after this many tuple messages to it.
    pub sync_sent_interval: u32,
    /// ... or after this many local arrivals, whichever comes first.
    pub sync_arrival_interval: u32,
}

impl RouterConfig {
    /// Node `me`'s routing RNG: the cluster seed split by node id, so
    /// whatever hosts this router draws the same sequence.
    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.plan.key.seed ^ (0xD5EED ^ u64::from(self.me) << 32))
    }
}

/// The node's one arrival clock and the summary-sync policy read off it:
/// a peer's copy of our summary is refreshed after enough tuple messages
/// have been sent to it, after enough local arrivals, or immediately at
/// bootstrap; DFT's one-coefficient piggyback goes to a peer at most once
/// per `PIGGYBACK_GAP` arrivals; and every `RHO_REFRESH`-th arrival ticks
/// the cached affinities stale.
///
/// An arrival costs O(1): one local arrival clock, and per peer column the
/// clock reading at its last refresh and at its last piggyback, so a
/// peer's staleness is their difference. The earliest arrival count at
/// which any peer turns overdue is kept beside them and recomputed only
/// when a peer is refreshed.
#[derive(Debug, Clone)]
pub(crate) struct SyncState {
    arrivals: u64,
    reset_at: Vec<u64>,
    piggybacked_at: Vec<u64>,
    sent_since: Vec<u32>,
    synced_once: Vec<bool>,
    /// The minimum over peers of `reset_at + overdue_after`: no peer is
    /// overdue while `arrivals` is below it.
    next_overdue: u64,
    sent_interval: u32,
    arrival_interval: u32,
    bootstrap_after: u32,
}

impl SyncState {
    /// The bookkeeping for `peers` peer columns. Both intervals are at
    /// least 1 (`RunError::ZeroSyncInterval`).
    pub fn new(peers: usize, sent_interval: u32, arrival_interval: u32, window: usize) -> Self {
        let bootstrap_after = (window as u32 / 4).clamp(8, 512);
        SyncState {
            arrivals: 0,
            reset_at: vec![0; peers],
            piggybacked_at: vec![0; peers],
            sent_since: vec![0; peers],
            synced_once: vec![false; peers],
            next_overdue: 2 * u64::from(bootstrap_after),
            sent_interval,
            arrival_interval,
            bootstrap_after,
        }
    }

    /// Notes one local tuple arrival (advances all peers' staleness).
    /// Returns `true` on every `RHO_REFRESH`-th arrival: the tick at which
    /// the cached affinities go stale.
    pub fn note_arrival(&mut self) -> bool {
        self.arrivals += 1;
        self.arrivals.is_multiple_of(RHO_REFRESH)
    }

    /// Notes a tuple message sent to column `col`.
    pub fn note_sent(&mut self, col: usize) {
        self.sent_since[col] = self.sent_since[col].saturating_add(1);
    }

    /// Local arrivals since column `col` was last refreshed (since the
    /// start, before its first refresh).
    fn arrivals_since(&self, col: usize) -> u64 {
        self.arrivals - self.reset_at[col]
    }

    /// Arrivals after its last refresh at which column `col` turns overdue.
    fn overdue_after(&self, col: usize) -> u64 {
        if self.synced_once[col] {
            2 * u64::from(self.arrival_interval)
        } else {
            2 * u64::from(self.bootstrap_after)
        }
    }

    /// `true` when column `col`'s copy of our summary is due a refresh.
    pub fn due(&self, col: usize) -> bool {
        if !self.synced_once[col] {
            return self.arrivals_since(col) >= u64::from(self.bootstrap_after);
        }
        self.sent_since[col] >= self.sent_interval
            || self.arrivals_since(col) >= u64::from(self.arrival_interval)
    }

    /// `true` when column `col` is overdue enough to justify a standalone
    /// summary message (no tuple message carried one in time).
    pub fn overdue(&self, col: usize) -> bool {
        self.arrivals_since(col) >= self.overdue_after(col)
    }

    /// `true` when some peer is [`SyncState::overdue`].
    pub fn any_overdue(&self) -> bool {
        self.arrivals >= self.next_overdue
    }

    /// `true` when `PIGGYBACK_GAP` arrivals have passed since the last
    /// piggyback to column `col` (since the start, before the first). A
    /// full refresh leaves this alone.
    pub fn gap_passed(&self, col: usize) -> bool {
        self.arrivals - self.piggybacked_at[col] >= PIGGYBACK_GAP
    }

    /// Notes a piggyback sent to column `col`: the gap starts over.
    pub fn note_piggyback(&mut self, col: usize) {
        self.piggybacked_at[col] = self.arrivals;
    }

    /// Marks column `col` as freshly synchronized.
    pub fn reset(&mut self, col: usize) {
        self.sent_since[col] = 0;
        self.reset_at[col] = self.arrivals;
        self.synced_once[col] = true;
        self.next_overdue = (0..self.reset_at.len())
            .map(|j| self.reset_at[j] + self.overdue_after(j))
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// What a strategy gossips and reads back: the only thing the five
/// algorithms differ in. Every variant answers the same questions —
/// `local_update`, `apply_summary`, `full_summaries`, `refresh_row` — DFT
/// also `piggyback`, and the two membership testers `push_candidates`;
/// none of them knows a target, a route, an RNG, a clock or which of its
/// affinities went stale.
#[derive(Debug)]
enum Summary {
    /// BASE: nothing exchanged, every tuple broadcast.
    None,
    /// DFT / DFTT: coefficient prefixes (DFTT also reconstructs them).
    Dft(Box<DftSummary>),
    /// BLOOM: counting Bloom filters.
    Bloom(Box<BloomSummary>),
    /// SKCH: AGMS sketches.
    Sketch(Box<SketchSummary>),
}

impl Summary {
    /// Rewrites the entries of `row` that `stale` flags, and clears their
    /// flags. `row` holds this node's affinity to each peer column for a
    /// tuple of `stream` (`None`: no summary from that peer yet); `stale`
    /// is aligned with it. BLOOM's hit rates move with every test, so it
    /// rewrites every entry; SKCH recomputes the flagged raw estimates and
    /// renormalises the whole row from them.
    fn refresh_row(&mut self, stream: StreamId, stale: &mut [bool], row: &mut [Option<f64>]) {
        match self {
            Summary::None => {}
            Summary::Dft(d) => d.refresh_row(stream, stale, row),
            Summary::Bloom(b) => b.refresh_row(stream, stale, row),
            Summary::Sketch(k) => k.refresh_row(stream, stale, row),
        }
    }
}

/// One tuple stream's routing caches, all of them functions of its
/// affinity row, kept until a summary goes stale.
#[derive(Debug)]
struct StreamRow {
    /// This node's affinity to each peer column.
    affinity: Vec<Option<f64>>,
    /// Which `affinity` entries must be rewritten before the next read:
    /// set for the sender when a peer's summary lands, and for every peer
    /// on the `RHO_REFRESH` tick.
    stale: Vec<bool>,
    /// Whether the row may have moved since the verdict and the
    /// probabilities were computed: some entry is stale, or BLOOM tested
    /// a tuple.
    dirty: bool,
    /// Uniform-data verdict over `affinity`.
    uniform: bool,
    /// `f64::to_bits` of the budget `probs` were computed for; `None`
    /// before the first untested tuple and after the row changes.
    budget: Option<u64>,
    /// What `forwarding_probabilities_into` returned: `false` sends the
    /// tuple to the round-robin fallback.
    usable: bool,
    /// Forwarding probabilities over the whole row, for the untested path.
    probs: Vec<f64>,
}

impl StreamRow {
    /// A row over `peers` columns, every entry stale.
    fn new(peers: usize) -> Self {
        StreamRow {
            affinity: vec![None; peers],
            stale: vec![true; peers],
            dirty: true,
            uniform: false,
            budget: None,
            usable: false,
            probs: Vec::with_capacity(peers),
        }
    }
}

/// One node's routing layer: the Section 5.2 flow filter (Fig. 7), written
/// once for every algorithm, over whichever [`Summary`] the algorithm
/// exchanges. Everything an arrival decides lives here — the message
/// budget, the RNG, the route, the node's arrival clock and the sync
/// cadence read off it, every message the arrival sends, the uniform-data
/// verdict, the round-robin fallback, which affinities are stale and all
/// per-tuple scratch.
///
/// Every per-peer table, here and in the summary, is indexed by *column*
/// ([`column_of`]). The one node id that arrives from outside the node is
/// resolved in `apply_summary`; routes and messages emit `peers[col]`.
#[derive(Debug)]
pub(crate) struct Router {
    cfg: RouterConfig,
    /// Each column's node id, ascending.
    peers: Vec<u16>,
    summary: Summary,
    sync: SyncState,
    rr: RoundRobin,
    /// The node's routing RNG (`RouterConfig::rng`).
    rng: StdRng,
    /// The peers the last arrival was routed to (the capacity is reused
    /// across arrivals), and whether the round-robin fallback chose them.
    route: Vec<u16>,
    fallback: bool,
    /// The affinity row and what derives from it, per *tuple* stream.
    rows: [StreamRow; 2],
    /// Per-tuple scratch, sized to the peer count at construction so the
    /// policy itself allocates nothing: membership candidates as `(column,
    /// estimate)`, residual affinities, their forwarding probabilities,
    /// sampled or round-robin columns.
    candidates: Vec<(usize, f64)>,
    residual: Vec<Option<f64>>,
    probs: Vec<f64>,
    sampled: Vec<usize>,
    flow_scratch: FlowScratch,
}

impl Router {
    /// Builds the router for the algorithm `cfg.plan` was derived for,
    /// over the plan's tables.
    pub fn new(cfg: RouterConfig) -> Self {
        let peers: Vec<u16> = (0..cfg.n).filter(|&j| j != cfg.me).collect();
        let m = peers.len();
        let summary = match &cfg.plan.tables {
            Tables::None => Summary::None,
            Tables::Dft {
                forward,
                inverse,
                grid,
            } => Summary::Dft(Box::new(DftSummary::new(
                &cfg,
                m,
                forward,
                inverse.as_ref(),
                grid.as_ref(),
            ))),
            Tables::Bloom(hashes) => Summary::Bloom(Box::new(BloomSummary::new(m, hashes))),
            Tables::Sketch(hashes) => Summary::Sketch(Box::new(SketchSummary::new(m, hashes))),
        };
        Router {
            peers,
            summary,
            sync: SyncState::new(
                m,
                cfg.sync_sent_interval,
                cfg.sync_arrival_interval,
                cfg.plan.key.window,
            ),
            rr: RoundRobin::default(),
            rng: cfg.rng(),
            route: Vec::with_capacity(m),
            fallback: false,
            rows: [StreamRow::new(m), StreamRow::new(m)],
            candidates: Vec::with_capacity(m),
            residual: Vec::with_capacity(m),
            probs: Vec::with_capacity(m),
            sampled: Vec::with_capacity(m),
            flow_scratch: FlowScratch::default(),
            cfg,
        }
    }

    /// Records one local arrival: `added` entered `stream`'s window,
    /// `evicted` left it. Advances the sync clock, and on its
    /// `RHO_REFRESH` tick marks every affinity stale: local arrivals may
    /// have moved them all.
    pub fn local_update(&mut self, stream: StreamId, added: u32, evicted: &[u32]) {
        match &mut self.summary {
            Summary::None => {}
            Summary::Dft(d) => d.local_update(stream, added, evicted),
            Summary::Bloom(b) => b.local_update(stream, added, evicted),
            Summary::Sketch(k) => k.local_update(stream, added, evicted),
        }
        if self.sync.note_arrival() {
            for row in &mut self.rows {
                row.stale.fill(true);
                row.dirty = true;
            }
        }
    }

    /// Brings `stream`'s row up to date: when it is dirty, the summary
    /// rewrites its stale entries, the verdict is recomputed and the
    /// probabilities are dropped.
    fn refresh(&mut self, stream: StreamId) {
        let row = &mut self.rows[stream.index()];
        if !row.dirty {
            return;
        }
        row.dirty = false;
        self.summary
            .refresh_row(stream, &mut row.stale, &mut row.affinity);
        row.uniform = detect_uniform(&row.affinity, self.cfg.uniform_cv_threshold);
        row.budget = None;
    }

    /// The message budget for one tuple: the configured operating point
    /// (Eqn. 9) times `scale`, within the feasible `[0, N−1]`.
    fn target(&self, scale: f64) -> f64 {
        (self.cfg.target.target(self.cfg.n) * scale).clamp(0.0, (self.cfg.n - 1) as f64)
    }

    /// How far "no candidate anywhere" may suppress a tuple: the explore
    /// probability relaxes with the budget — at `T = N−1` the caller asked
    /// for broadcast coverage, so suppression must not drop tuples; at
    /// `T = 1` suppression is the whole win.
    fn explore_probability(&self, target: f64) -> f64 {
        let frac = ((target - 1.0) / ((self.cfg.n as f64) - 2.0).max(1.0)).clamp(0.0, 1.0);
        (EXPLORE + frac * (1.0 - EXPLORE)).min(1.0)
    }

    /// The summary work counted since the last call, which it resets.
    pub fn take_work(&mut self) -> Work {
        match &mut self.summary {
            Summary::Dft(d) => d.take_work(),
            _ => Work::default(),
        }
    }

    /// The last arrival's route: its peers, and whether the fallback
    /// chose them.
    pub fn route(&self) -> (&[u16], bool) {
        (&self.route, self.fallback)
    }

    /// The flow filter: decides where to forward an arriving tuple of
    /// `stream` with join attribute `key`, drawing from the router's RNG,
    /// into the router's route. `scale` multiplies the configured
    /// message-complexity target (the throughput governor's
    /// resource-availability dial; `1.0` = nominal budget).
    pub fn route_into(&mut self, stream: StreamId, key: u32, scale: f64) {
        self.route.clear();
        self.fallback = false;
        if matches!(self.summary, Summary::None) {
            self.route.extend(&self.peers);
            return;
        }
        let target = self.target(scale);
        let s = stream.index();
        self.candidates.clear();
        let mut any_summary = self.test_bloom(stream, key);
        self.refresh(stream);
        // Uniform-data worst case (Section 5.2.2): when the per-peer
        // affinities are indistinguishable, neither they nor membership
        // tests against flat summaries carry signal.
        if self.rows[s].uniform {
            self.fallback_into(target);
            return;
        }
        // DFTT reads its reconstructions only now that the correlations
        // are known to spread: under a uniform verdict they are flat and
        // the fallback ignores them, so evaluating a bucket per peer would
        // be wasted.
        if let Summary::Dft(d) = &mut self.summary {
            any_summary = d.push_candidates(stream, key, &mut self.candidates);
        }
        // Membership hits are served first, best estimate first; whatever
        // budget they leave buys affinity-routed coverage of sites the
        // (lossy) summaries may miss — how DFTT trades extra messages for
        // lower ε (Fig. 9). Without a hit the whole budget is routed by
        // affinity, unless every peer summary agrees there is no partner.
        if !self.candidates.is_empty() {
            // Stable sort on purpose: equal scores stay in ascending peer
            // order, which is part of the recorded routing behaviour.
            self.candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            let take = (target.ceil() as usize).max(1);
            let picked = &self.candidates[..take.min(self.candidates.len())];
            self.route
                .extend(picked.iter().map(|&(col, _)| self.peers[col]));
            let leftover = target - picked.len() as f64;
            if leftover <= 0.05 {
                return;
            }
            self.residual.clear();
            for (col, &affinity) in self.rows[s].affinity.iter().enumerate() {
                let taken = picked.iter().any(|&(c, _)| c == col);
                self.residual.push(if taken { Some(0.0) } else { affinity });
            }
            if forwarding_probabilities_into(
                &self.residual,
                leftover,
                &mut self.flow_scratch,
                &mut self.probs,
            ) {
                sample_recipients_into(&self.probs, &mut self.rng, &mut self.sampled);
                self.route
                    .extend(self.sampled.iter().map(|&i| self.peers[i]));
                self.route.sort_unstable();
                self.route.dedup();
            }
            return;
        }
        if any_summary && !self.rng.gen_bool(self.explore_probability(target)) {
            // "No partners anywhere": save the messages (the DFTT
            // advantage of Fig. 9).
            return;
        }
        // The whole row's probabilities depend on the row and the budget
        // only, so they are recomputed when either moved.
        let row = &mut self.rows[s];
        if row.budget != Some(target.to_bits()) {
            row.usable = forwarding_probabilities_into(
                &row.affinity,
                target,
                &mut self.flow_scratch,
                &mut row.probs,
            );
            row.budget = Some(target.to_bits());
        }
        if row.usable {
            sample_recipients_into(&row.probs, &mut self.rng, &mut self.sampled);
            self.route
                .extend(self.sampled.iter().map(|&i| self.peers[i]));
        } else {
            self.fallback_into(target);
        }
    }

    /// BLOOM's membership test of a tuple of `stream` with join attribute
    /// `key`, into `candidates`; `false` for every other summary. Its
    /// affinities are the running hit rates of these tests, so it tests
    /// every tuple, before the row is read, and every test marks the row
    /// dirty. Returns whether any peer filter exists.
    fn test_bloom(&mut self, stream: StreamId, key: u32) -> bool {
        let Summary::Bloom(b) = &mut self.summary else {
            return false;
        };
        self.rows[stream.index()].dirty = true;
        b.push_candidates(stream, key, &mut self.candidates)
    }

    /// The worst-case policy: round-robin over the peers, `target` at a time.
    fn fallback_into(&mut self, target: f64) {
        let count = (target.round() as usize).max(1);
        self.rr
            .pick_into(self.peers.len(), count, &mut self.sampled);
        self.route
            .extend(self.sampled.iter().map(|&col| self.peers[col]));
        self.fallback = true;
    }

    /// The allocating transcription of [`Router::route_into`]: the same
    /// policy with fresh buffers, the allocating `flow` twins, no verdict
    /// or probability cache, and DFTT's buckets read one peer at a time by
    /// `PointwiseRecon::eval`. It reads the router's affinity row through
    /// the same refresh, and recomputes the verdict and probabilities from
    /// a copy of it on every tuple. Two identically seeded routers, one
    /// routed and one reference-routed, must agree on every peer set,
    /// fallback flag and RNG draw; `hotpath`'s lockstep test drives both.
    #[cfg(test)]
    pub fn route_reference(&mut self, stream: StreamId, key: u32, scale: f64) -> (Vec<u16>, bool) {
        use crate::flow::tests::{forwarding_probabilities, sample_recipients};
        let peers = self.peers.clone();
        if matches!(self.summary, Summary::None) {
            return (peers, false);
        }
        let target = self.target(scale);
        self.candidates.clear();
        let mut any_summary = self.test_bloom(stream, key);
        let mut candidates = std::mem::take(&mut self.candidates);
        self.refresh(stream);
        let rhos = self.rows[stream.index()].affinity.clone();
        if detect_uniform(&rhos, self.cfg.uniform_cv_threshold) {
            return self.fallback(target);
        }
        if let Summary::Dft(d) = &mut self.summary {
            any_summary = d.push_candidates_reference(stream, key, &mut candidates);
        }
        if !candidates.is_empty() {
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
            let take = (target.ceil() as usize).max(1);
            let mut picked: Vec<u16> = (candidates.into_iter().take(take))
                .map(|(col, _)| peers[col])
                .collect();
            let leftover = target - picked.len() as f64;
            if leftover > 0.05 {
                let residual: Vec<Option<f64>> = peers
                    .iter()
                    .zip(&rhos)
                    .map(|(&j, r)| if picked.contains(&j) { Some(0.0) } else { *r })
                    .collect();
                if let Some(probs) = forwarding_probabilities(&residual, leftover) {
                    let sampled = sample_recipients(&probs, &mut self.rng);
                    picked.extend(sampled.into_iter().map(|i| peers[i]));
                    picked.sort_unstable();
                    picked.dedup();
                }
            }
            return (picked, false);
        }
        if any_summary && !self.rng.gen_bool(self.explore_probability(target)) {
            return (Vec::new(), false);
        }
        match forwarding_probabilities(&rhos, target) {
            Some(probs) => {
                let sampled = sample_recipients(&probs, &mut self.rng);
                (sampled.into_iter().map(|i| peers[i]).collect(), false)
            }
            None => self.fallback(target),
        }
    }

    #[cfg(test)]
    fn fallback(&mut self, target: f64) -> (Vec<u16>, bool) {
        self.route.clear();
        self.fallback_into(target);
        (self.route.clone(), true)
    }

    /// The column of peer `id`; `None` for this node itself (which
    /// [`column_of`] would alias onto peer `me + 1`) and for ids outside
    /// the cluster.
    fn column(&self, id: u16) -> Option<usize> {
        let RouterConfig { me, n, .. } = self.cfg;
        (id != me && id < n).then(|| column_of(me, id))
    }

    /// Ingests a summary received from `from` and marks the sender's
    /// affinity stale for tuples of the opposite stream, which are routed
    /// by it. Returns what it *dropped*, the signature of a version-skewed
    /// or corrupted peer: each DFT coefficient index beyond the retained
    /// prefix, or the whole payload when it is of another algorithm's kind
    /// (any kind, to BASE), a DFT over another domain, a BLOOM filter or
    /// SKCH sketch on another hash family, or `from` is not a peer.
    pub fn apply_summary(&mut self, from: u16, payload: &SummaryPayload) -> u64 {
        let Some(col) = self.column(from) else {
            return 1;
        };
        let (stream, dropped) = match (&mut self.summary, payload) {
            (
                Summary::Dft(d),
                SummaryPayload::Dft {
                    stream,
                    signal_len,
                    exponent,
                    updates,
                },
            ) if *signal_len == self.cfg.plan.key.domain => {
                (*stream, d.apply_summary(col, *stream, *exponent, updates))
            }
            (Summary::Bloom(b), SummaryPayload::Bloom { stream, filter }) if b.fits(filter) => {
                b.apply_summary(col, *stream, filter);
                (*stream, 0)
            }
            (Summary::Sketch(k), SummaryPayload::Sketch { stream, sketch }) if k.fits(sketch) => {
                k.apply_summary(col, *stream, sketch);
                (*stream, 0)
            }
            _ => return 1,
        };
        let row = &mut self.rows[stream.opposite().index()];
        row.stale[col] = true;
        row.dirty = true;
        dropped
    }

    /// Sends what an arrival owes its peers, each message to `send` as
    /// soon as it is built: the tuple to every peer on the route
    /// [`Router::route_into`] chose last, in route order, carrying what
    /// [`Router::attach`] puts on it, then a standalone refresh to every
    /// other overdue peer, in column order (Fig. 7: "transmitted on their
    /// own"). The first failed send ends the arrival.
    pub fn send_arrival<E>(
        &mut self,
        tuple: Tuple,
        mut send: impl FnMut(u16, Msg) -> Result<(), E>,
    ) -> Result<(), E> {
        for i in 0..self.route.len() {
            let peer = self.route[i];
            let piggyback = self.attach(column_of(self.cfg.me, peer));
            send(peer, Msg::Tuple { tuple, piggyback })?;
        }
        if !self.sync.any_overdue() {
            return Ok(());
        }
        // No routed peer is overdue: overdue implies due, and `attach`
        // refreshed every due peer.
        for col in 0..self.peers.len() {
            if !self.sync.overdue(col) {
                continue;
            }
            let payloads = self.full_summaries(col);
            if !payloads.is_empty() {
                send(self.peers[col], Msg::Summary(payloads))?;
            }
        }
        Ok(())
    }

    /// What rides on a tuple message to column `col`, noting the send: the
    /// full refresh when one is due, otherwise DFT's one-coefficient
    /// piggyback once `PIGGYBACK_GAP` arrivals have passed since the last
    /// one.
    fn attach(&mut self, col: usize) -> Vec<SummaryPayload> {
        let mut payloads = Vec::new();
        if self.sync.due(col) {
            payloads = self.full_summaries(col);
        } else if let Summary::Dft(d) = &mut self.summary {
            if self.sync.gap_passed(col) {
                payloads = d.piggyback(col);
                if !payloads.is_empty() {
                    self.sync.note_piggyback(col);
                }
            }
        }
        self.sync.note_sent(col);
        payloads
    }

    /// Produces the full summary refresh for column `col` and marks it
    /// synced.
    pub fn full_summaries(&mut self, col: usize) -> Vec<SummaryPayload> {
        self.sync.reset(col);
        match &mut self.summary {
            Summary::None => Vec::new(),
            Summary::Dft(d) => d.full_summaries(col),
            Summary::Bloom(b) => b.full_summaries(),
            Summary::Sketch(k) => k.full_summaries(),
        }
    }
}

/// Peer `id`'s column at node `me`: its position among `me`'s peers in
/// ascending id order. `id` must be a peer.
pub(crate) fn column_of(me: u16, id: u16) -> usize {
    usize::from(id - u16::from(id > me))
}

#[cfg(test)]
pub(crate) fn test_config(algorithm: Algorithm, me: u16, n: u16) -> RouterConfig {
    let key = PlanKey {
        algorithm,
        domain: 256,
        retained: 32,
        window: 64,
        seed: 7,
    };
    RouterConfig {
        me,
        n,
        target: TargetComplexity::default(),
        uniform_cv_threshold: 0.05,
        plan: Arc::new(Plan::new(key)),
        sync_sent_interval: 16,
        sync_arrival_interval: 64,
    }
}

#[cfg(test)]
impl Router {
    /// How many peer summaries, over both streams, have landed: DFT
    /// columns, BLOOM filters or SKCH sketches.
    pub(crate) fn summaries_landed(&self) -> usize {
        match &self.summary {
            Summary::None => 0,
            Summary::Dft(d) => d.landed_columns(),
            Summary::Bloom(b) => b.landed(),
            Summary::Sketch(k) => k.landed(),
        }
    }

    /// Each tuple stream's stale mask over the peer columns.
    pub(crate) fn stale_masks(&self) -> [Vec<bool>; 2] {
        self.rows.each_ref().map(|row| row.stale.clone())
    }

    /// [`Router::route_into`] drawing from `rng` in place of the router's own.
    fn route_with(
        &mut self,
        stream: StreamId,
        key: u32,
        scale: f64,
        rng: &mut StdRng,
    ) -> (Vec<u16>, bool) {
        std::mem::swap(&mut self.rng, rng);
        self.route_into(stream, key, scale);
        std::mem::swap(&mut self.rng, rng);
        (self.route.clone(), self.fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert_eq, proptest, ProptestConfig};
    use rand::SeedableRng;
    use std::collections::VecDeque;
    use std::convert::Infallible;

    /// Fills a router's local `stream` window with `keys`.
    pub(super) fn fill(r: &mut Router, stream: StreamId, keys: &[u32]) {
        for &k in keys {
            r.local_update(stream, k, &[]);
        }
    }

    /// Wires `src`'s summaries into `dst` as if exchanged over the network.
    pub(super) fn exchange(src: &mut Router, dst: &mut Router) {
        for p in src.full_summaries(column_of(src.cfg.me, dst.cfg.me)) {
            dst.apply_summary(src.cfg.me, &p);
        }
    }

    /// Routers for nodes `0..n` of an `n`-node cluster running `algorithm`.
    fn cluster(algorithm: Algorithm, n: u16) -> Vec<Router> {
        (0..n)
            .map(|me| Router::new(test_config(algorithm, me, n)))
            .collect()
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Base.label(), "BASE");
        assert_eq!(Algorithm::Dftt.to_string(), "DFTT");
        assert_eq!(Algorithm::ALL.len(), 5);
    }

    /// `SyncState` as it was before its O(1) clock: one saturating arrival
    /// counter per peer column, bumped on every arrival and zeroed on refresh;
    /// beside it the clocks `DftSummary` kept before the router's became
    /// the only one: its own arrival count, the count at each peer's last
    /// piggyback, and the arrivals since the last `ρ` refresh.
    struct SyncOracle {
        sent_since: Vec<u32>,
        arrivals_since: Vec<u32>,
        synced_once: Vec<bool>,
        sent_interval: u32,
        arrival_interval: u32,
        bootstrap_after: u32,
        arrivals: u64,
        last_piggyback: Vec<u64>,
        arrivals_since_rho: u64,
    }

    impl SyncOracle {
        fn new(peers: usize, sent_interval: u32, arrival_interval: u32, window: usize) -> Self {
            SyncOracle {
                sent_since: vec![0; peers],
                arrivals_since: vec![0; peers],
                synced_once: vec![false; peers],
                sent_interval,
                arrival_interval,
                bootstrap_after: (window as u32 / 4).clamp(8, 512),
                arrivals: 0,
                last_piggyback: vec![0; peers],
                arrivals_since_rho: 0,
            }
        }

        /// Returns whether the `ρ` refresh tick fired.
        fn note_arrival(&mut self) -> bool {
            for a in &mut self.arrivals_since {
                *a = a.saturating_add(1);
            }
            self.arrivals += 1;
            self.arrivals_since_rho += 1;
            if self.arrivals_since_rho >= RHO_REFRESH {
                self.arrivals_since_rho = 0;
                return true;
            }
            false
        }

        fn gap_passed(&self, p: usize) -> bool {
            self.arrivals.saturating_sub(self.last_piggyback[p]) >= PIGGYBACK_GAP
        }

        fn due(&self, p: usize) -> bool {
            if !self.synced_once[p] {
                return self.arrivals_since[p] >= self.bootstrap_after;
            }
            self.sent_since[p] >= self.sent_interval
                || self.arrivals_since[p] >= self.arrival_interval
        }

        fn overdue(&self, p: usize) -> bool {
            if !self.synced_once[p] {
                return self.arrivals_since[p] >= 2 * self.bootstrap_after;
            }
            self.arrivals_since[p] >= 2 * self.arrival_interval
        }

        fn reset(&mut self, p: usize) {
            self.sent_since[p] = 0;
            self.arrivals_since[p] = 0;
            self.synced_once[p] = true;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sync_clock_agrees_with_per_peer_counters(
            peers in 1usize..6,
            sent_interval in 1u32..6,
            arrival_interval in 1u32..24,
            window in 0usize..160,
            ops in prop::collection::vec((0u8..9, 0usize..6), 0..600),
        ) {
            let mut clock = SyncState::new(peers, sent_interval, arrival_interval, window);
            let mut oracle = SyncOracle::new(peers, sent_interval, arrival_interval, window);
            for (step, (op, pick)) in ops.into_iter().enumerate() {
                let col = pick % peers;
                // Arrivals outnumber the rest, so peers reach their
                // intervals, bootstrap and overdue thresholds and the
                // piggyback gap.
                match op {
                    0..=4 => {
                        let tick = clock.note_arrival();
                        prop_assert_eq!(tick, oracle.note_arrival(), "tick at {}", step);
                    }
                    5 | 6 => {
                        clock.note_sent(col);
                        oracle.sent_since[col] += 1;
                    }
                    7 => {
                        clock.reset(col);
                        oracle.reset(col);
                    }
                    _ => {
                        clock.note_piggyback(col);
                        oracle.last_piggyback[col] = oracle.arrivals;
                    }
                }
                for j in 0..peers {
                    prop_assert_eq!(clock.due(j), oracle.due(j), "due {} at {}", j, step);
                    prop_assert_eq!(clock.overdue(j), oracle.overdue(j), "overdue {} at {}", j, step);
                    prop_assert_eq!(clock.gap_passed(j), oracle.gap_passed(j), "gap {} at {}", j, step);
                }
                let any = (0..peers).any(|j| oracle.overdue(j));
                prop_assert_eq!(clock.any_overdue(), any, "any overdue at {}", step);
            }
        }
    }

    #[test]
    fn sync_state_bootstrap_then_intervals() {
        let mut s = SyncState::new(2, 4, 10, 64);
        // Bootstrap threshold is window/4 = 16.
        for _ in 0..15 {
            s.note_arrival();
        }
        assert!(!s.due(0));
        s.note_arrival();
        assert!(s.due(0), "bootstrap sync after warm-up");
        s.reset(0);
        assert!(!s.due(0));
        // Sent-interval path.
        for _ in 0..4 {
            s.note_sent(0);
        }
        assert!(s.due(0));
        s.reset(0);
        // Arrival-interval path.
        for _ in 0..10 {
            s.note_arrival();
        }
        assert!(s.due(0));
        assert!(!s.overdue(0));
        for _ in 0..10 {
            s.note_arrival();
        }
        assert!(s.overdue(0));
    }

    /// The number of coefficient updates in each of `payloads`.
    fn updates_per_payload(payloads: &[SummaryPayload]) -> Vec<usize> {
        payloads
            .iter()
            .map(|p| match p {
                SummaryPayload::Dft { updates, .. } => updates.len(),
                other => panic!("not a DFT payload: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn attach_sends_a_due_refresh_else_one_coefficient_after_the_gap() {
        assert_eq!(PIGGYBACK_GAP, 192, "the arrival counts below assume it");
        // Refreshes fall due at bootstrap (16 arrivals) and on every fourth
        // tuple message to a peer, never on arrivals alone.
        let mut cfg = test_config(Algorithm::Dft, 0, 2);
        cfg.sync_sent_interval = 4;
        cfg.sync_arrival_interval = 10_000;
        let mut r = Router::new(cfg);
        let flat: Vec<u32> = (0..16).map(|k| 16 * k).collect();
        fill(&mut r, StreamId::R, &flat);
        assert_eq!(
            updates_per_payload(&r.attach(0)),
            [32, 32],
            "bootstrap: both streams' whole prefix"
        );
        // Not due, and the gap counts from the start: a big change waits.
        fill(&mut r, StreamId::R, &[3; 175]);
        assert!(r.attach(0).is_empty(), "arrival 191 is inside the gap");
        fill(&mut r, StreamId::R, &[3]);
        assert_eq!(updates_per_payload(&r.attach(0)), [1], "arrival 192");
        assert!(r.attach(0).is_empty(), "the gap starts over");
        // The fourth message since the refresh carries the next one: R's
        // changed coefficients, S's none.
        let refresh = updates_per_payload(&r.attach(0));
        assert!(refresh.len() == 1 && refresh[0] > 1, "{refresh:?}");
        // A refresh at arrival 292 leaves the gap counting from 192.
        fill(&mut r, StreamId::R, &[7; 100]);
        for _ in 0..3 {
            assert!(r.attach(0).is_empty(), "inside the gap, not due");
        }
        let refresh = updates_per_payload(&r.attach(0));
        assert!(refresh.len() == 1 && refresh[0] > 1, "{refresh:?}");
        fill(&mut r, StreamId::R, &[11; 150]);
        assert_eq!(
            updates_per_payload(&r.attach(0)),
            [1],
            "arrival 442: 250 after the last piggyback, 150 after the refresh"
        );
        // Only DFT piggybacks: between refreshes SKCH attaches nothing.
        let mut cfg = test_config(Algorithm::Sketch, 0, 2);
        cfg.sync_sent_interval = 4;
        cfg.sync_arrival_interval = 10_000;
        let mut r = Router::new(cfg);
        fill(&mut r, StreamId::R, &flat);
        assert_eq!(r.attach(0).len(), 2, "bootstrap: both sketches");
        fill(&mut r, StreamId::R, &[3; 400]);
        assert!(r.attach(0).is_empty());
    }

    /// What `refresh_checked` writes where it expects a rewrite.
    const SENTINEL: Option<f64> = Some(-7.0);

    /// Ships `src`'s summary of `stream` to `dst`, out of a full refresh.
    fn ship(src: &mut Router, dst: &mut Router, stream: StreamId) {
        for p in src.full_summaries(column_of(src.cfg.me, dst.cfg.me)) {
            let (SummaryPayload::Dft { stream: s, .. }
            | SummaryPayload::Bloom { stream: s, .. }
            | SummaryPayload::Sketch { stream: s, .. }) = &p;
            if *s == stream {
                dst.apply_summary(src.cfg.me, &p);
            }
        }
    }

    /// Refreshes `stream`'s row and returns the stale mask it had, or
    /// `None` when it was clean. A clean row must be left alone; a dirty
    /// one must come back with every flagged entry rewritten and every
    /// flag cleared.
    fn refresh_checked(r: &mut Router, stream: StreamId) -> Option<Vec<bool>> {
        let row = &mut r.rows[stream.index()];
        let (mask, dirty) = (row.stale.clone(), row.dirty);
        let kept = row.affinity.clone();
        for (a, &flag) in row.affinity.iter_mut().zip(&mask) {
            if flag || !dirty {
                *a = SENTINEL;
            }
        }
        r.refresh(stream);
        let row = &mut r.rows[stream.index()];
        assert!(!row.dirty && !row.stale.contains(&true), "{stream:?}");
        if !dirty {
            assert!(row.affinity.iter().all(|&a| a == SENTINEL), "{stream:?}");
            row.affinity = kept;
            return None;
        }
        assert!(!row.affinity.contains(&SENTINEL), "{stream:?}");
        Some(mask)
    }

    #[test]
    fn affinity_rows_are_refreshed_only_where_a_summary_went_stale() {
        let all = Some(vec![true, true]);
        for algorithm in [Algorithm::Dft, Algorithm::Dftt, Algorithm::Sketch] {
            // Node 1 of three: peer 2's entries sit at index 1.
            let [mut n0, mut n1, mut n2] = cluster(algorithm, 3).try_into().unwrap();
            fill(&mut n1, StreamId::R, &[3; 10]);
            for (peer, key) in [(&mut n0, 3), (&mut n2, 9)] {
                fill(peer, StreamId::S, &[key; 20]);
                fill(peer, StreamId::R, &[5; 20]);
                exchange(peer, &mut n1);
            }
            assert_eq!(refresh_checked(&mut n1, StreamId::R), all, "{algorithm}");
            assert_eq!(refresh_checked(&mut n1, StreamId::S), all, "{algorithm}");
            let before = n1.rows[StreamId::R.index()].affinity.clone();
            assert!(
                before.iter().all(Option::is_some),
                "{algorithm}: {before:?}"
            );
            assert_eq!(refresh_checked(&mut n1, StreamId::R), None, "{algorithm}");
            // Peer 2's S summary lands: R tuples are routed by it, S
            // tuples are not.
            fill(&mut n2, StreamId::S, &[3; 40]);
            ship(&mut n2, &mut n1, StreamId::S);
            let only_peer_2 = Some(vec![false, true]);
            assert_eq!(
                refresh_checked(&mut n1, StreamId::R),
                only_peer_2,
                "{algorithm}"
            );
            assert_eq!(refresh_checked(&mut n1, StreamId::S), None, "{algorithm}");
            let after = &n1.rows[StreamId::R.index()].affinity;
            assert_ne!(after[1], before[1], "{algorithm}: peer 2's entry moved");
            // Local arrivals (10 so far) leave both rows alone until the
            // refresh tick, which flags every entry of both.
            fill(&mut n1, StreamId::S, &vec![4; RHO_REFRESH as usize - 11]);
            assert_eq!(refresh_checked(&mut n1, StreamId::R), None, "{algorithm}");
            assert_eq!(refresh_checked(&mut n1, StreamId::S), None, "{algorithm}");
            fill(&mut n1, StreamId::S, &[4]);
            assert_eq!(
                refresh_checked(&mut n1, StreamId::R),
                all,
                "{algorithm}: tick"
            );
            assert_eq!(
                refresh_checked(&mut n1, StreamId::S),
                all,
                "{algorithm}: tick"
            );
        }
        // BLOOM's hit rates move with every membership test, so every
        // tested tuple rewrites its row before reading it.
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Bloom, 3).try_into().unwrap();
        for (peer, key) in [(&mut n0, 10), (&mut n2, 200)] {
            fill(peer, StreamId::S, &[key; 5]);
            exchange(peer, &mut n1);
        }
        let mut rng = StdRng::seed_from_u64(5);
        for key in [10, 200, 7, 10, 10] {
            n1.rows[StreamId::R.index()].affinity.fill(SENTINEL);
            n1.route_with(StreamId::R, key, 1.0, &mut rng);
            let row = &n1.rows[StreamId::R.index()];
            assert!(!row.dirty && !row.affinity.contains(&SENTINEL), "key {key}");
        }
    }

    /// The engine's send loop from before the router sent an arrival's
    /// messages itself: the tuple to each routed peer with what `attach`
    /// puts on it, then, once some peer is overdue, a standalone refresh to
    /// each overdue peer the route did not reach, walking every node id.
    fn send_routed_oracle(r: &mut Router, tuple: Tuple, route: &[u16]) -> Vec<(u16, Msg)> {
        let (me, n) = (r.cfg.me, r.cfg.n);
        let mut sent = Vec::new();
        for &peer in route {
            let piggyback = r.attach(column_of(me, peer));
            sent.push((peer, Msg::Tuple { tuple, piggyback }));
        }
        if !r.sync.any_overdue() {
            return sent;
        }
        for peer in (0..n).filter(|&j| j != me) {
            if route.contains(&peer) || !r.sync.overdue(column_of(me, peer)) {
                continue;
            }
            let payloads = r.full_summaries(column_of(me, peer));
            if !payloads.is_empty() {
                sent.push((peer, Msg::Summary(payloads)));
            }
        }
        sent
    }

    /// Delivers what node `from` sent to the routers of `cluster`.
    fn deliver(cluster: &mut [Router], from: u16, sent: &[(u16, Msg)]) {
        for (to, msg) in sent {
            let (Msg::Tuple {
                piggyback: payloads,
                ..
            }
            | Msg::Summary(payloads)) = msg;
            for p in payloads {
                assert_eq!(cluster[usize::from(*to)].apply_summary(from, p), 0);
            }
        }
    }

    #[test]
    fn an_arrival_sends_what_the_engine_loop_sent() {
        use dsj_stream::gen::Scenario;
        const WINDOW: usize = 64;
        for algorithm in Algorithm::ALL {
            // Tuple messages, those that carried a summary, standalone
            // refreshes, and arrivals that sent both kinds of message.
            let mut seen = [0usize; 4];
            // At the default cadence and at one eight times as eager, which
            // leaves more peers overdue for a standalone refresh.
            for (n, eager) in (2u16..=9).flat_map(|n| [(n, false), (n, true)]) {
                let build = || -> Vec<Router> {
                    (0..n)
                        .map(|me| {
                            let mut cfg = test_config(algorithm, me, n);
                            if eager {
                                cfg.sync_sent_interval /= 8;
                                cfg.sync_arrival_interval /= 8;
                            }
                            Router::new(cfg)
                        })
                        .collect()
                };
                let (mut routers, mut oracles) = (build(), build());
                let mut windows: Vec<[VecDeque<u32>; 2]> = vec![Default::default(); n.into()];
                let arrivals = Scenario::Steady.arrivals(n, 256, 500 * usize::from(n), 0.8, 3);
                for (i, a) in arrivals.iter().enumerate() {
                    let (me, tuple) = (usize::from(a.node), a.tuple());
                    let window = &mut windows[me][a.stream.index()];
                    window.push_back(a.key);
                    let evicted: Vec<u32> = (window.len() > WINDOW)
                        .then(|| window.pop_front().unwrap_or(0))
                        .into_iter()
                        .collect();
                    // A moving budget widens some routes and empties others.
                    let scale = [1.0, 2.5, 0.5][i % 3];
                    let (router, oracle) = (&mut routers[me], &mut oracles[me]);
                    router.local_update(a.stream, a.key, &evicted);
                    oracle.local_update(a.stream, a.key, &evicted);
                    router.route_into(a.stream, a.key, scale);
                    oracle.route_into(a.stream, a.key, scale);
                    let route = oracle.route.clone();
                    let mut sent = Vec::new();
                    let Ok(()) = router.send_arrival(tuple, |to, msg| {
                        sent.push((to, msg));
                        Ok::<(), Infallible>(())
                    });
                    let expected = send_routed_oracle(oracle, tuple, &route);
                    assert_eq!(
                        sent, expected,
                        "{algorithm} n={n} eager={eager} arrival {i}"
                    );
                    for (_, msg) in &sent {
                        match msg {
                            Msg::Tuple { piggyback, .. } => {
                                seen[0] += 1;
                                seen[1] += usize::from(!piggyback.is_empty());
                            }
                            Msg::Summary(_) => seen[2] += 1,
                        }
                    }
                    let standalone = sent.iter().any(|(_, m)| matches!(m, Msg::Summary(_)));
                    seen[3] += usize::from(standalone && matches!(sent[0].1, Msg::Tuple { .. }));
                    deliver(&mut routers, a.node, &sent);
                    deliver(&mut oracles, a.node, &expected);
                }
            }
            assert!(seen[0] > 20_000, "{algorithm}: {seen:?}");
            if algorithm != Algorithm::Base {
                assert!(
                    seen[1] > 5_000 && seen[2] > 500 && seen[3] > 500,
                    "{algorithm}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn each_node_draws_its_own_routing_sequence() {
        let draws = |seed: u64| -> Vec<u64> {
            (0..4)
                .map(|me| {
                    let mut cfg = test_config(Algorithm::Dft, me, 4);
                    cfg.plan = Arc::new(Plan::new(PlanKey {
                        seed,
                        ..cfg.plan.key
                    }));
                    Router::new(cfg).rng.gen()
                })
                .collect()
        };
        let first = draws(7);
        assert_eq!(
            first,
            draws(7),
            "a node's sequence is a function of the seed"
        );
        for (i, x) in first.iter().enumerate() {
            assert!(
                !first[..i].contains(x),
                "node {i} repeats a sequence: {first:?}"
            );
        }
        assert!(first.iter().zip(draws(8)).all(|(a, b)| *a != b));
    }

    #[test]
    fn base_broadcasts_to_all_peers() {
        let mut r = Router::new(test_config(Algorithm::Base, 1, 4));
        r.route_into(StreamId::R, 3, 1.0);
        assert_eq!(r.route(), (&[0, 2, 3][..], false));
    }

    #[test]
    fn dftt_targets_matching_site() {
        // Node 0 routes R tuples; node 1 has S window full of key 10,
        // node 2 has S window full of key 200.
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Dftt, 3).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[10; 40]);
        fill(&mut n2, StreamId::S, &[200; 40]);
        fill(
            &mut n0,
            StreamId::R,
            &(0..40).map(|i| i % 20).collect::<Vec<_>>(),
        );
        exchange(&mut n1, &mut n0);
        exchange(&mut n2, &mut n0);

        let mut rng = StdRng::seed_from_u64(99);
        let (peers, _) = n0.route_with(StreamId::R, 10, 1.0, &mut rng);
        assert_eq!(peers, vec![1], "key 10 lives only at node 1");
        let (peers, _) = n0.route_with(StreamId::R, 200, 1.0, &mut rng);
        assert_eq!(peers, vec![2], "key 200 lives only at node 2");
    }

    #[test]
    fn dftt_suppresses_hopeless_tuples() {
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Dftt, 3).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[10; 40]);
        fill(&mut n2, StreamId::S, &[200; 40]);
        fill(&mut n0, StreamId::R, &[10; 40]);
        exchange(&mut n1, &mut n0);
        exchange(&mut n2, &mut n0);
        let mut rng = StdRng::seed_from_u64(99);
        // Key 100 joins nowhere: almost every route should be empty
        // (modulo the 5% exploration rate).
        let empty = (0..200)
            .filter(|_| n0.route_with(StreamId::R, 100, 1.0, &mut rng).0.is_empty())
            .count();
        assert!(empty > 170, "only {empty}/200 suppressed");
    }

    #[test]
    fn dft_prefers_correlated_peer() {
        // Node 1's S window matches node 0's R window distribution;
        // node 2's does not.
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Dft, 3).try_into().unwrap();
        let hot: Vec<u32> = (0..60).map(|i| i % 8).collect();
        let cold: Vec<u32> = (0..60).map(|i| 200 + (i % 8)).collect();
        fill(&mut n0, StreamId::R, &hot);
        fill(&mut n1, StreamId::S, &hot);
        fill(&mut n2, StreamId::S, &cold);
        exchange(&mut n1, &mut n0);
        exchange(&mut n2, &mut n0);
        let mut rng = StdRng::seed_from_u64(99);
        let mut to1 = 0;
        let mut to2 = 0;
        for _ in 0..500 {
            let (peers, fallback) = n0.route_with(StreamId::R, 3, 1.0, &mut rng);
            assert!(!fallback, "correlations are strongly skewed");
            to1 += peers.iter().filter(|&&p| p == 1).count();
            to2 += peers.iter().filter(|&&p| p == 2).count();
        }
        assert!(
            to1 > 5 * to2.max(1),
            "correlated peer should dominate: {to1} vs {to2}"
        );
    }

    #[test]
    fn indistinguishable_windows_fall_back_to_round_robin() {
        // Every node holds a statistically identical (flat) window — the
        // worst case, whatever the summary: DFT/DFTT see equal ρ, SKCH
        // equal join sizes, BLOOM equal hit rates.
        for (algorithm, n, keys) in [
            (Algorithm::Dft, 3, 256),
            (Algorithm::Dftt, 3, 256),
            (Algorithm::Bloom, 3, 64),
            (Algorithm::Sketch, 4, 128),
        ] {
            let mut nodes = cluster(algorithm, n);
            let flat: Vec<u32> = (0..keys).collect();
            let (n0, others) = nodes.split_first_mut().unwrap();
            fill(n0, StreamId::R, &flat);
            for o in others {
                fill(o, StreamId::S, &flat);
                exchange(o, n0);
            }
            let (peers, fallback) =
                n0.route_with(StreamId::R, 9, 1.0, &mut StdRng::seed_from_u64(99));
            assert!(fallback, "{algorithm}: identical windows");
            assert_eq!(peers.len(), 1, "{algorithm}: T=1 round robin");
        }
    }

    #[test]
    fn unknown_peers_get_blind_routing() {
        for (algorithm, seed) in [(Algorithm::Dft, 99), (Algorithm::Bloom, 5)] {
            let mut n0 = Router::new(test_config(algorithm, 0, 5));
            fill(&mut n0, StreamId::R, &[1, 2, 3, 4]);
            let mut rng = StdRng::seed_from_u64(seed);
            let total: usize = (0..400)
                .map(|_| n0.route_with(StreamId::R, 2, 1.0, &mut rng).0.len())
                .sum();
            let avg = total as f64 / 400.0;
            assert!(
                (0.5..1.5).contains(&avg),
                "{algorithm}: blind routing ≈ target: {avg}"
            );
        }
    }

    #[test]
    fn out_of_domain_key_routes_without_panic() {
        // The recon membership pass must tolerate keys beyond the domain
        // (ingest drops them, but the hot path is panic-free regardless).
        let [mut n0, mut n1, _] = cluster(Algorithm::Dftt, 3).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[10; 40]);
        fill(&mut n0, StreamId::R, &(0..40).collect::<Vec<_>>());
        exchange(&mut n1, &mut n0);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let (peers, _) = n0.route_with(StreamId::R, 9_999, 1.0, &mut rng);
            // No reconstruction bucket exists, so membership never fires.
            assert!(!peers.contains(&0), "never routes to self");
        }
    }

    #[test]
    fn bloom_membership_routes_to_holder() {
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Bloom, 3).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[10, 10, 11]);
        fill(&mut n2, StreamId::S, &[200, 201]);
        exchange(&mut n1, &mut n0);
        exchange(&mut n2, &mut n0);
        let (peers, _) = n0.route_with(StreamId::R, 10, 1.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(peers, vec![1]);
    }

    #[test]
    fn bloom_absent_key_mostly_suppressed() {
        let [mut n0, mut n1] = cluster(Algorithm::Bloom, 2).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[1, 2, 3]);
        exchange(&mut n1, &mut n0);
        let mut rng = StdRng::seed_from_u64(5);
        let sent: usize = (0..200)
            .map(|_| n0.route_with(StreamId::R, 99, 1.0, &mut rng).0.len())
            .sum();
        // Exploration (5%) plus possible false positives only.
        assert!(sent < 40, "absent key sent {sent}/200 times");
    }

    #[test]
    fn bloom_eviction_clears_membership() {
        let [mut n0, mut n1] = cluster(Algorithm::Bloom, 2).try_into().unwrap();
        fill(&mut n1, StreamId::S, &[42]);
        n1.local_update(StreamId::S, 7, &[42]); // 42 evicted
        exchange(&mut n1, &mut n0);
        let mut rng = StdRng::seed_from_u64(5);
        let sent: usize = (0..100)
            .map(|_| n0.route_with(StreamId::R, 42, 1.0, &mut rng).0.len())
            .sum();
        assert!(sent < 20, "evicted key still routed {sent}/100");
    }

    #[test]
    fn sketch_join_size_weights_routing() {
        let [mut n0, mut n1, mut n2] = cluster(Algorithm::Sketch, 3).try_into().unwrap();
        let mine: Vec<u32> = (0..64).map(|i| i % 8).collect();
        fill(&mut n0, StreamId::R, &mine);
        fill(&mut n1, StreamId::S, &mine); // large join with n0's R
        fill(
            &mut n2,
            StreamId::S,
            &(0..64).map(|i| 100 + i % 8).collect::<Vec<_>>(),
        );
        exchange(&mut n1, &mut n0);
        exchange(&mut n2, &mut n0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut to1 = 0;
        let mut to2 = 0;
        for _ in 0..500 {
            let (peers, _) = n0.route_with(StreamId::R, 3, 1.0, &mut rng);
            to1 += peers.iter().filter(|&&p| p == 1).count();
            to2 += peers.iter().filter(|&&p| p == 2).count();
        }
        assert!(
            to1 > 3 * to2.max(1),
            "high-join peer should dominate: {to1} vs {to2}"
        );
    }

    #[test]
    fn sketch_routing_ignores_the_key() {
        // SKCH routes identically for every key — it has no per-key info.
        let [mut n0, mut n1] = cluster(Algorithm::Sketch, 2).try_into().unwrap();
        fill(&mut n0, StreamId::R, &[1; 32]);
        fill(&mut n1, StreamId::S, &[1; 32]);
        exchange(&mut n1, &mut n0);
        let mut rng = StdRng::seed_from_u64(17);
        let present: usize = (0..200)
            .map(|_| n0.route_with(StreamId::R, 1, 1.0, &mut rng).0.len())
            .sum();
        let absent: usize = (0..200)
            .map(|_| n0.route_with(StreamId::R, 99, 1.0, &mut rng).0.len())
            .sum();
        let diff = (present as f64 - absent as f64).abs() / 200.0;
        assert!(diff < 0.2, "sketch routing should be key-blind: {diff}");
    }
}
