//! Experiment runner: builds a cluster, drives a workload through the
//! simulated WAN, and measures the paper's three metrics — ε-error,
//! messages per result tuple, and throughput (Section 6).

use crate::driver::{drive, schedulable, Driven, Feed};
use crate::engine::NodeEngine;
use crate::error::RunError;
use crate::flow::TargetComplexity;
use crate::node::{NodeMetrics, ThroughputGovernor};
use crate::obs;
use crate::strategy::{Algorithm, Plan, PlanKey, RouterConfig};
use dsj_simnet::{LinkConfig, NetMetrics, SimTime, Simulation};
use dsj_stream::gen::{Arrival, ArrivalGen, WorkloadKind};
use dsj_stream::join::GroundTruth;
use dsj_stream::partition::Partitioner;
use dsj_stream::trace::Trace;
use dsj_stream::WindowSpec;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Configuration of one cluster experiment — a builder whose `run()`
/// executes the full pipeline: workload generation, ground-truth
/// accounting, WAN simulation, and metric aggregation.
///
/// Defaults mirror the paper's setup scaled to laptop runtimes: Zipf
/// α = 0.4 keys, geographic partitioning, the 20–100 ms / 90 kbps WAN
/// model, κ = 256 compression and the `O(1)` message-complexity target.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes `N`.
    pub n: u16,
    /// A recorded trace to replay instead of generating `workload`
    /// (node assignments in the trace must fit `n`).
    pub trace: Option<Trace>,
    /// The join algorithm.
    pub algorithm: Algorithm,
    /// Per-stream window size `W` at each node.
    pub window: usize,
    /// Join-attribute domain size `D`.
    pub domain: u32,
    /// Total tuples injected (across all nodes, both streams).
    pub tuples: usize,
    /// Workload kind.
    pub workload: WorkloadKind,
    /// Geographic locality of the partitioner (probability a tuple lands
    /// on its key-range owner).
    pub locality: f64,
    /// DFT compression factor κ: `K = max(1, D/κ)` coefficients retained;
    /// Bloom/sketch summaries are sized to the same bytes.
    pub kappa: u32,
    /// Message-complexity operating point.
    pub target: TargetComplexity,
    /// Aggregate tuple arrival rate per node (tuples/second).
    pub arrival_rate: f64,
    /// WAN link model.
    pub link: LinkConfig,
    /// Fraction of the run treated as warm-up (matches not counted).
    pub warmup: f64,
    /// Master seed (workload, latencies, routing draws).
    pub seed: u64,
    /// Coefficient-of-variation (σ/μ) threshold below which the per-peer
    /// affinities read as indistinguishable, the uniform-data worst case
    /// that sends tuples to the round-robin fallback (`0` switches the
    /// detector off).
    pub uniform_cv_threshold: f64,
    /// Refresh a peer's summary after this many tuple messages to it.
    pub sync_sent_interval: u32,
    /// ... or after this many local arrivals, whichever first.
    pub sync_arrival_interval: u32,
    /// Per-node outbound bandwidth allowance (bits/second) enforced by the
    /// AIMD throughput governor — the abstract's "automatic throughput
    /// handling based on resource availability". `None` disables governing.
    pub bandwidth_budget_bps: Option<u64>,
    /// When set, windows are bounded by *time* instead of tuple count:
    /// each node keeps tuples seen within the last `ms` milliseconds of
    /// virtual time (the paper notes its method is agnostic to the window
    /// definition — this exercises that claim end-to-end). `window` is
    /// still used to size summaries.
    pub time_window_ms: Option<u64>,
    /// When set, the simulation is cut off this many milliseconds after
    /// the last injection instead of draining to quiescence; results still
    /// queued on saturated links are lost, modeling sustained overload
    /// (used by the Figure 11 throughput experiment). When `None`, every
    /// message is delivered before measuring.
    pub cutoff_grace_ms: Option<u64>,
    /// The cluster's shared tables, built by the first
    /// [`ClusterConfig::build_node`].
    plan: PlanCell,
}

/// Where a [`ClusterConfig`] keeps its [`Plan`]: one cell, filled once,
/// shared by every clone of the config. Configurations compare equal and
/// print alike whatever it holds: it is a cache of what the public fields
/// already determine.
#[derive(Clone, Default)]
struct PlanCell(Arc<OnceLock<Arc<Plan>>>);

impl PartialEq for PlanCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for PlanCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl ClusterConfig {
    /// Creates a configuration for `n` nodes running `algorithm`, with
    /// paper-like defaults for everything else.
    pub fn new(n: u16, algorithm: Algorithm) -> Self {
        ClusterConfig {
            n,
            trace: None,
            algorithm,
            window: 1024,
            domain: 1 << 12,
            tuples: 20_000,
            workload: WorkloadKind::Zipf { alpha: 0.4 },
            locality: 0.8,
            kappa: 256,
            target: TargetComplexity::Constant(1.0),
            arrival_rate: 200.0,
            link: LinkConfig::paper_wan(),
            warmup: 0.2,
            seed: 42,
            uniform_cv_threshold: 0.05,
            sync_sent_interval: 256,
            sync_arrival_interval: 2048,
            bandwidth_budget_bps: None,
            time_window_ms: None,
            cutoff_grace_ms: None,
            plan: PlanCell::default(),
        }
    }

    /// Sets the per-node window size `W`.
    pub fn window(mut self, w: usize) -> Self {
        self.window = w;
        self
    }

    /// Sets the attribute domain size `D`.
    pub fn domain(mut self, d: u32) -> Self {
        self.domain = d;
        self
    }

    /// Sets the total tuple count.
    pub fn tuples(mut self, t: usize) -> Self {
        self.tuples = t;
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.workload = w;
        self
    }

    /// Sets the geographic locality.
    pub fn locality(mut self, l: f64) -> Self {
        self.locality = l;
        self
    }

    /// Sets the compression factor κ.
    pub fn kappa(mut self, k: u32) -> Self {
        self.kappa = k;
        self
    }

    /// Sets the message-complexity target.
    pub fn target(mut self, t: TargetComplexity) -> Self {
        self.target = t;
        self
    }

    /// Sets the per-node arrival rate (tuples/second).
    pub fn arrival_rate(mut self, r: f64) -> Self {
        self.arrival_rate = r;
        self
    }

    /// Sets the link model.
    pub fn link(mut self, l: LinkConfig) -> Self {
        self.link = l;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the uniform-data detector's threshold.
    pub fn uniform_cv_threshold(mut self, cv: f64) -> Self {
        self.uniform_cv_threshold = cv;
        self
    }

    /// Replays a recorded [`Trace`] instead of generating the workload.
    /// The trace's length overrides `tuples`. Arrivals targeting nodes
    /// `>= n` or keys `>= domain`, and a `tuples` set to anything but the
    /// trace's length afterwards, are rejected by [`ClusterConfig::run`]
    /// as a [`RunError`].
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.tuples = trace.len();
        self.trace = Some(trace);
        self
    }

    /// Caps each node's outbound rate at `budget_bps` bits/second via the
    /// AIMD throughput governor.
    pub fn bandwidth_budget(mut self, budget_bps: u64) -> Self {
        self.bandwidth_budget_bps = Some(budget_bps);
        self
    }

    /// Cuts the simulation off `ms` milliseconds after the last injection
    /// (sustained-overload semantics; see [`ClusterConfig::cutoff_grace_ms`]).
    pub fn cutoff_grace(mut self, ms: u64) -> Self {
        self.cutoff_grace_ms = Some(ms);
        self
    }

    /// Sets the summary synchronization intervals: refresh a peer's copy
    /// after `sent` tuple messages to it, or after `arrivals` local
    /// arrivals, whichever comes first. Both must be at least 1
    /// ([`RunError::ZeroSyncInterval`]).
    pub fn sync_intervals(mut self, sent: u32, arrivals: u32) -> Self {
        self.sync_sent_interval = sent;
        self.sync_arrival_interval = arrivals;
        self
    }

    /// Checks the configuration for the errors [`ClusterConfig::run`]
    /// would report, without running anything. Other runtimes hosting the
    /// same node logic (e.g. `dsj-runtime`'s live cluster) call this
    /// before spawning threads.
    ///
    /// # Errors
    ///
    /// Returns the first [`RunError`] the configuration violates.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.n < 2 {
            return Err(RunError::TooFewNodes(self.n));
        }
        if self.domain == 0 {
            return Err(RunError::ZeroDomain);
        }
        if self.kappa == 0 {
            return Err(RunError::ZeroKappa);
        }
        if self.kappa > self.domain {
            return Err(RunError::KappaTooLarge {
                kappa: self.kappa,
                domain: self.domain,
            });
        }
        // Summary coefficient updates address the retained prefix with a
        // 16-bit wire index; a longer prefix would silently truncate on
        // encode (`CoeffUpdate.index`).
        let retained = self.retained();
        if retained > usize::from(u16::MAX) + 1 {
            return Err(RunError::RetainedTooLarge { retained });
        }
        if self.tuples == 0 {
            return Err(RunError::NoTuples);
        }
        // The run replays the trace, while warm-up and the per-tuple
        // figures read `tuples`.
        if let Some(trace) = self.trace.as_ref().filter(|t| t.len() != self.tuples) {
            return Err(RunError::TraceLengthMismatch {
                trace: trace.len(),
                tuples: self.tuples,
            });
        }
        if self.window == 0 {
            return Err(RunError::ZeroWindow);
        }
        if !(0.0..=1.0).contains(&self.locality) {
            return Err(RunError::LocalityOutOfRange(self.locality));
        }
        if let WorkloadKind::Zipf { alpha } = self.workload {
            if !(alpha.is_finite() && alpha >= 0.0) {
                return Err(RunError::ZipfAlphaOutOfRange(alpha));
            }
        }
        if self.bandwidth_budget_bps == Some(0) {
            return Err(RunError::ZeroBandwidthBudget);
        }
        if let TargetComplexity::Constant(t) = self.target {
            if !(t.is_finite() && t >= 0.0) {
                return Err(RunError::TargetOutOfRange(t));
            }
        }
        // `x < NaN` is false: a NaN threshold would switch the detector off.
        let cv = self.uniform_cv_threshold;
        if !(cv.is_finite() && cv >= 0.0) {
            return Err(RunError::CvThresholdOutOfRange(cv));
        }
        if self.time_window_ms == Some(0) {
            return Err(RunError::ZeroTimeWindow);
        }
        if self.sync_sent_interval == 0 || self.sync_arrival_interval == 0 {
            return Err(RunError::ZeroSyncInterval {
                sent: self.sync_sent_interval,
                arrivals: self.sync_arrival_interval,
            });
        }
        self.link.validate().map_err(RunError::InvalidLink)?;
        if !(0.0..1.0).contains(&self.warmup) {
            return Err(RunError::WarmupOutOfRange(self.warmup));
        }
        // Zero, negative and NaN rates have no schedule (`interarrival_us`
        // clamps them), and one so small that the run outlasts the driver's
        // clock has none it can keep.
        let rate_ok = self.arrival_rate.is_finite() && self.arrival_rate > 0.0;
        if !(rate_ok && schedulable(self.interarrival_ns(), self.tuples)) {
            return Err(RunError::ArrivalRateOutOfRange(self.arrival_rate));
        }
        if let Some(trace) = &self.trace {
            for a in trace.arrivals() {
                if a.node >= self.n {
                    return Err(RunError::TraceNodeOutOfRange {
                        node: a.node,
                        n: self.n,
                    });
                }
                if a.key >= self.domain {
                    return Err(RunError::TraceKeyOutOfDomain {
                        key: a.key,
                        domain: self.domain,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the experiment and returns its report.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] for invalid configurations (see
    /// [`RunError`]'s variants).
    pub fn run(&self) -> Result<ExperimentReport, RunError> {
        // Arrival k is due at k · dt; a cut-off run stops `cutoff_grace_ms`
        // after the last one, a plain one drains to quiescence.
        let feed = Feed::Scheduled {
            interarrival_ns: self.interarrival_ns(),
            abort_backlog: None,
            grace_ns: self.cutoff_grace_ms.map(|ms| ms.saturating_mul(1_000_000)),
        };
        let mut run = drive(self, feed, |reg| {
            Ok(reg.time_phase("build", || self.simulation()))
        })?;
        let mut reg = std::mem::take(&mut run.reg);
        let report = reg.time_phase("aggregate", || self.report(&run));
        // Structured observability: skipped entirely unless the caller
        // opened a capture buffer (repro's `--metrics-out`), so plain
        // `run()` callers pay nothing.
        if obs::enabled() {
            Self::export_observations(&mut reg, &report, &run.extras);
            obs::emit(reg);
        }
        Ok(report)
    }

    /// The simulated run's report: the tally, the network's counters and
    /// the virtual time the run ended at.
    fn report(&self, run: &Driven<NetMetrics>) -> ExperimentReport {
        let (tally, net) = (&run.tally, &run.extras);
        let total = tally.totals();
        let per_node_arrivals: Vec<u64> = tally.per_node.iter().map(|m| m.arrivals).collect();
        let mean_arrivals = self.tuples as f64 / self.n as f64;
        let load_imbalance = per_node_arrivals
            .iter()
            .fold(0.0_f64, |acc, &a| acc.max(a as f64))
            / mean_arrivals.max(1e-9);
        let reported = tally.reported_matches;
        // The simulation's feed starts at time zero.
        let horizon = SimTime::from_micros(run.elapsed_ns / 1_000);
        let duration = horizon.as_secs_f64().max(1e-9);
        let messages = net.messages_sent;
        ExperimentReport {
            algorithm: self.algorithm,
            workload: self.workload.label().to_string(),
            n: self.n,
            window: self.window,
            domain: self.domain,
            kappa: self.kappa,
            tuples: self.tuples,
            truth_matches: tally.truth_matches,
            reported_matches: reported,
            epsilon: tally.epsilon(),
            messages,
            tuple_msgs: total.tuple_msgs_sent,
            summary_msgs: total.summary_msgs_sent,
            bytes: net.bytes_sent,
            data_bytes: total.data_bytes_sent,
            overhead_bytes: total.overhead_bytes_sent,
            overhead_ratio: if total.data_bytes_sent == 0 {
                0.0
            } else {
                total.overhead_bytes_sent as f64 / total.data_bytes_sent as f64
            },
            messages_per_result: messages as f64 / reported.max(1) as f64,
            msgs_per_tuple: total.tuple_msgs_sent as f64 / self.tuples as f64,
            duration_secs: duration,
            throughput: reported as f64 / duration,
            fallback_fraction: total.fallback_routes as f64 / self.tuples.max(1) as f64,
            fallback_events: total.fallback_routes,
            per_node_arrivals,
            load_imbalance,
            dropped_messages: net.messages_dropped,
        }
    }

    /// Adds to `reg` what only the simulated backend measures: the
    /// network counters and histograms and the virtual-time gauges. (The
    /// counters every backend shares are the driver's.)
    fn export_observations(reg: &mut obs::Registry, report: &ExperimentReport, net: &NetMetrics) {
        reg.counter_add("net.messages_sent", net.messages_sent);
        reg.counter_add("net.messages_delivered", net.messages_delivered);
        reg.counter_add("net.messages_dropped", net.messages_dropped);
        reg.counter_add("net.bytes_sent", net.bytes_sent);
        reg.histogram_merge("net.msg_bytes", &net.msg_bytes);
        reg.histogram_merge("net.delivery_latency_us", &net.delivery_latency_us);
        reg.counter_add("fallback_events", report.fallback_events);
        reg.gauge_set("messages_per_result", report.messages_per_result);
        reg.gauge_set("msgs_per_tuple", report.msgs_per_tuple);
        reg.gauge_set("overhead_ratio", report.overhead_ratio);
        reg.gauge_set("throughput", report.throughput);
        reg.gauge_set("load_imbalance", report.load_imbalance);
        reg.gauge_set("virtual_duration_secs", report.duration_secs);
    }

    /// Runs the workload in *lockstep*: each arrival is injected at the
    /// current virtual time and the simulation drains to global quiescence
    /// before the next — every probe and summary lands before another
    /// tuple moves. This is the cross-backend reference mode: driven this
    /// way, the simulated cluster, `dsj-runtime`'s threaded cluster and
    /// its TCP cluster process identical per-node event sequences, so
    /// their per-node metrics and match digests must agree exactly
    /// (`crates/runtime/tests/equivalence.rs` pins this for all five
    /// algorithms).
    ///
    /// Equivalence across backends additionally requires configuration
    /// whose behavior is clock-free: count-bounded windows (the default)
    /// and no bandwidth governor, since virtual and wall clocks disagree.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] for invalid configurations.
    pub fn run_lockstep(&self) -> Result<LockstepReport, RunError> {
        let run = drive(self, Feed::Closed { cap: 1 }, |_| Ok(self.simulation()))?;
        Ok(run.tally)
    }

    /// Calibrates the message-complexity target so the measured error is at
    /// most `target_epsilon` (the paper fixes ε = 15% when comparing
    /// message counts and throughput), then returns the calibrated run.
    ///
    /// If even the maximum budget (`T = N−1`, the broadcast limit) cannot
    /// reach the target, the maximum-budget run is returned (best effort,
    /// like the paper's saturated configurations). [`Algorithm::Base`]
    /// needs no calibration.
    ///
    /// # Errors
    ///
    /// [`RunError::EpsilonOutOfRange`] for a target outside `[0, 1]`;
    /// propagates [`RunError`] from the underlying runs.
    pub fn run_at_epsilon(&self, target_epsilon: f64) -> Result<(ExperimentReport, f64), RunError> {
        check_epsilon(target_epsilon)?;
        if self.algorithm == Algorithm::Base {
            return Ok((self.run()?, (self.n - 1) as f64));
        }
        let mut lo = 0.25_f64;
        let mut hi = (self.n - 1) as f64;
        let at = |t: f64| -> Result<ExperimentReport, RunError> {
            let mut cfg = self.clone();
            cfg.target = TargetComplexity::Constant(t);
            cfg.run()
        };
        let hi_report = at(hi)?;
        if hi_report.epsilon > target_epsilon {
            return Ok((hi_report, hi));
        }
        let lo_report = at(lo)?;
        if lo_report.epsilon <= target_epsilon {
            return Ok((lo_report, lo));
        }
        let mut best = (hi_report, hi);
        for _ in 0..6 {
            let mid = 0.5 * (lo + hi);
            let report = at(mid)?;
            if report.epsilon <= target_epsilon {
                hi = mid;
                best = (report, mid);
            } else {
                lo = mid;
            }
        }
        Ok(best)
    }

    /// The effective window policy (`window` tuples, or the configured
    /// time span).
    pub fn window_spec(&self) -> WindowSpec {
        match self.time_window_ms {
            Some(ms) => WindowSpec::Time(ms * 1_000),
            None => WindowSpec::count(self.window),
        }
    }

    /// Microseconds between consecutive global arrivals at the configured
    /// aggregate rate.
    pub fn interarrival_us(&self) -> u64 {
        (1_000_000.0 / (self.arrival_rate * self.n as f64)).max(1.0) as u64
    }

    /// [`ClusterConfig::interarrival_us`] on the driver's nanosecond clock.
    fn interarrival_ns(&self) -> f64 {
        self.interarrival_us() as f64 * 1_000.0
    }

    /// The first counted seq: matches of earlier tuples are warm-up, left
    /// out by the engines and by ground truth alike.
    fn warmup_seq(&self) -> u64 {
        (self.tuples as f64 * self.warmup) as u64
    }

    /// Builds node `me` — the one place a node is made, for the simulated
    /// cluster and for every other runtime hosting the same node logic
    /// over a different transport (e.g. `dsj-runtime`'s live clusters).
    ///
    /// Every node built from this configuration or a clone of it holds the
    /// same shared tables (the cluster's plan, derived by the first call).
    ///
    /// # Panics
    ///
    /// Panics if `me >= self.n`.
    pub fn build_node(&self, me: u16) -> NodeEngine {
        NodeEngine::assemble(
            self.router_config(me),
            self.window_spec(),
            self.warmup_seq(),
            self.bandwidth_budget_bps.map(ThroughputGovernor::new),
        )
    }

    /// The simulated cluster: one engine per node over the modelled WAN.
    fn simulation(&self) -> Simulation<NodeEngine> {
        let nodes = (0..self.n).map(|me| self.build_node(me)).collect();
        Simulation::new(nodes, self.link, self.seed ^ 0x51A1)
    }

    /// DFT coefficients retained per summary, `K = max(1, D/κ)`.
    pub fn retained(&self) -> usize {
        ((self.domain / self.kappa.max(1)).max(1)) as usize
    }

    /// What the cluster's plan is derived from, read from the current
    /// fields.
    fn plan_key(&self) -> PlanKey {
        PlanKey {
            algorithm: self.algorithm,
            domain: self.domain,
            retained: self.retained(),
            window: self.window,
            seed: self.seed,
        }
    }

    /// The cluster's plan: the one in the cell when its key still matches
    /// the fields, otherwise a fresh one. The first call fills the cell;
    /// a field set after that gets a plan of its own on every call, never
    /// a stale one.
    fn plan(&self) -> Arc<Plan> {
        let key = self.plan_key();
        let held = self.plan.0.get_or_init(|| Arc::new(Plan::new(key)));
        if held.key == key {
            Arc::clone(held)
        } else {
            Arc::new(Plan::new(key))
        }
    }

    /// Node `me`'s routing configuration; panics if `me >= self.n`.
    pub(crate) fn router_config(&self, me: u16) -> RouterConfig {
        assert!(me < self.n, "node id out of range");
        RouterConfig {
            me,
            n: self.n,
            target: self.target,
            uniform_cv_threshold: self.uniform_cv_threshold,
            plan: self.plan(),
            sync_sent_interval: self.sync_sent_interval,
            sync_arrival_interval: self.sync_arrival_interval,
        }
    }

    /// The deterministic arrival schedule this configuration runs — the
    /// recorded trace when one is attached, otherwise the generated
    /// workload.
    pub fn arrivals(&self) -> Vec<Arrival> {
        self.schedule().into_owned()
    }

    /// [`ClusterConfig::arrivals`], borrowed from the trace when one is
    /// attached.
    pub(crate) fn schedule(&self) -> Cow<'_, [Arrival]> {
        if let Some(trace) = &self.trace {
            return Cow::Borrowed(trace.arrivals());
        }
        let mut gen = ArrivalGen::new(
            self.workload,
            Partitioner::geographic(self.n, self.locality),
            self.domain,
            self.seed ^ 0x6E17,
        );
        Cow::Owned(gen.take_vec(self.tuples))
    }

    /// The exact (post warm-up) result-set size `|Ψ|` for this
    /// configuration's workload.
    pub fn ground_truth_matches(&self) -> u64 {
        self.truth_of(&self.schedule())
    }

    /// The exact (post warm-up) result-set size of `arrivals` — this
    /// configuration's [`ClusterConfig::arrivals`] — under its windows.
    /// Ground truth evicts with the same clock the nodes use: tuple count
    /// for count windows, virtual arrival time for time windows.
    pub fn truth_of(&self, arrivals: &[Arrival]) -> u64 {
        let dt_us = self.interarrival_us();
        let warmup_seq = self.warmup_seq();
        let mut truth = GroundTruth::new(self.n as usize, self.window_spec());
        let mut total = 0u64;
        for a in arrivals {
            let m = truth.observe(a.tuple(), a.seq * dt_us);
            if a.seq >= warmup_seq {
                total += m;
            }
        }
        total
    }
}

/// A target ε is a fraction of the result set; NaN fails the range test too.
fn check_epsilon(target_epsilon: f64) -> Result<(), RunError> {
    if (0.0..=1.0).contains(&target_epsilon) {
        Ok(())
    } else {
        Err(RunError::EpsilonOutOfRange(target_epsilon))
    }
}

/// The backend-independent tally of a finished run — what
/// [`crate::driver::drive`] builds for every backend, what
/// [`ClusterConfig::run_lockstep`] returns and what the other reports are
/// built from: exactly the facts
/// the cross-backend equivalence suite compares. (Throughput and
/// wall/virtual durations are deliberately absent: they differ across
/// backends by construction.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepReport {
    /// Exact result-set size `|Ψ|` (post warm-up).
    pub truth_matches: u64,
    /// Matches the cluster reported (post warm-up).
    pub reported_matches: u64,
    /// Every node's counters, in node order.
    pub per_node: Vec<NodeMetrics>,
    /// Every node's order-sensitive match digest, in node order.
    pub match_digests: Vec<u64>,
}

impl LockstepReport {
    /// Folds a finished run's node engines, in node order, into the tally —
    /// the one place engines become per-node counters, digests and the
    /// reported-match total, on every backend.
    pub fn new<'a>(truth_matches: u64, engines: impl IntoIterator<Item = &'a NodeEngine>) -> Self {
        let (per_node, match_digests): (Vec<NodeMetrics>, Vec<u64>) = engines
            .into_iter()
            .map(|e| (*e.metrics(), e.match_digest()))
            .unzip();
        LockstepReport {
            truth_matches,
            reported_matches: per_node.iter().map(NodeMetrics::matches).sum(),
            per_node,
            match_digests,
        }
    }

    /// The per-node counters summed over the cluster.
    pub fn totals(&self) -> NodeMetrics {
        let mut totals = NodeMetrics::default();
        self.per_node.iter().for_each(|m| totals.absorb(m));
        totals
    }

    /// ε = (|Ψ| − |Ψ̂|)/|Ψ| (Eqn. 1), clamped at zero; zero for an empty
    /// result set.
    pub fn epsilon(&self) -> f64 {
        if self.truth_matches == 0 {
            return 0.0;
        }
        let missed = self.truth_matches as f64 - self.reported_matches as f64;
        (missed / self.truth_matches as f64).max(0.0)
    }

    /// Exports one run's share of an experiment record — the counters every
    /// backend reports under the same names: `runs`, `truth_matches`,
    /// `reported_matches`, `tuples` (the arrivals actually fed), the
    /// `epsilon` gauge and the `node.<id>.<counter>` rows.
    pub fn record_into(&self, reg: &mut obs::Registry, tuples: u64) {
        reg.counter_add("runs", 1);
        reg.counter_add("truth_matches", self.truth_matches);
        reg.counter_add("reported_matches", self.reported_matches);
        reg.counter_add("tuples", tuples);
        reg.gauge_set("epsilon", self.epsilon());
        for (me, m) in (0..).zip(&self.per_node) {
            m.record_into(reg, me);
        }
    }
}

/// The measured outcome of one cluster experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// Workload label ("UNI", "ZIPF", "FIN", "NWRK").
    pub workload: String,
    /// Cluster size.
    pub n: u16,
    /// Per-node window size.
    pub window: usize,
    /// Attribute domain.
    pub domain: u32,
    /// Compression factor.
    pub kappa: u32,
    /// Tuples injected.
    pub tuples: usize,
    /// Exact result-set size `|Ψ|` (post warm-up).
    pub truth_matches: u64,
    /// Reported result-set size `|Ψ̂|` (post warm-up).
    pub reported_matches: u64,
    /// ε = (|Ψ| − |Ψ̂|)/|Ψ| (Eqn. 1).
    pub epsilon: f64,
    /// Total messages transmitted.
    pub messages: u64,
    /// Tuple messages transmitted.
    pub tuple_msgs: u64,
    /// Standalone summary messages transmitted.
    pub summary_msgs: u64,
    /// Total bytes transmitted.
    pub bytes: u64,
    /// Tuple payload bytes (Figure 8 denominator).
    pub data_bytes: u64,
    /// Summary bytes (Figure 8 numerator).
    pub overhead_bytes: u64,
    /// overhead_bytes / data_bytes.
    pub overhead_ratio: f64,
    /// Messages per reported result tuple (Figure 9's metric).
    pub messages_per_result: f64,
    /// Average tuple messages per arriving tuple (the measured `T_i`).
    pub msgs_per_tuple: f64,
    /// Virtual seconds until the system drained.
    pub duration_secs: f64,
    /// Reported result tuples per virtual second (Figure 11's metric).
    pub throughput: f64,
    /// Fraction of arrivals routed by the worst-case fallback.
    pub fallback_fraction: f64,
    /// Total fallback activations across nodes: their
    /// `NodeMetrics::fallback_routes`, summed.
    pub fallback_events: u64,
    /// Tuple arrivals per node (geographic skew shows up here).
    pub per_node_arrivals: Vec<u64>,
    /// Hottest node's arrivals over the per-node mean (1.0 = balanced).
    pub load_imbalance: f64,
    /// Messages lost in flight (lossy-link injection; 0 by default).
    pub dropped_messages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Tables;
    use dsj_simnet::{LinkFault, SimDuration};

    fn quick(algorithm: Algorithm) -> ClusterConfig {
        ClusterConfig::new(4, algorithm)
            .window(256)
            .domain(1 << 10)
            .tuples(4_000)
            .arrival_rate(500.0)
            .seed(3)
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            ClusterConfig::new(1, Algorithm::Base).run().unwrap_err(),
            RunError::TooFewNodes(1)
        );
        assert!(matches!(
            quick(Algorithm::Dft).kappa(1 << 20).run().unwrap_err(),
            RunError::KappaTooLarge { .. }
        ));
        // κ = 0 used to run as κ = 1 and report κ = 0.
        assert_eq!(
            quick(Algorithm::Dft).kappa(0).run().unwrap_err(),
            RunError::ZeroKappa
        );
        assert_eq!(
            quick(Algorithm::Dft).tuples(0).run().unwrap_err(),
            RunError::NoTuples
        );
        // A domain/kappa combination whose retained prefix overflows the
        // 16-bit wire index must be a typed error, not silent truncation.
        assert_eq!(
            quick(Algorithm::Dft)
                .domain(1 << 18)
                .kappa(1)
                .validate()
                .unwrap_err(),
            RunError::RetainedTooLarge { retained: 1 << 18 }
        );
        // The largest encodable prefix (65536 coefficients, indices
        // 0..=u16::MAX) still validates.
        assert!(quick(Algorithm::Dft)
            .domain(1 << 16)
            .kappa(1)
            .validate()
            .is_ok());
        // Outside input the nodes would assert on, or that wraps the clock.
        assert_eq!(
            quick(Algorithm::Dft).window(0).run().unwrap_err(),
            RunError::ZeroWindow
        );
        for locality in [2.0, -0.1, f64::NAN] {
            assert!(matches!(
                quick(Algorithm::Dft).locality(locality).run().unwrap_err(),
                RunError::LocalityOutOfRange(_)
            ));
        }
        assert_eq!(
            quick(Algorithm::Dft).domain(0).kappa(0).run().unwrap_err(),
            RunError::ZeroDomain
        );
        for alpha in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                quick(Algorithm::Dft)
                    .workload(WorkloadKind::Zipf { alpha })
                    .run()
                    .unwrap_err(),
                RunError::ZipfAlphaOutOfRange(_)
            ));
        }
        assert_eq!(
            quick(Algorithm::Dft).bandwidth_budget(0).run().unwrap_err(),
            RunError::ZeroBandwidthBudget
        );
        for rate in [0.0, -3.0, f64::NAN, f64::INFINITY, 1e-12] {
            assert!(matches!(
                quick(Algorithm::Dft).arrival_rate(rate).run().unwrap_err(),
                RunError::ArrivalRateOutOfRange(_)
            ));
        }
        // The last of 4 000 arrivals must be due before 2⁵³ ns (~104 days):
        // they may be 2 252 362 904 µs apart, not 2 252 362 905.
        for (dt_us, ok) in [(2_252_362_904.5, true), (2_252_362_905.5, false)] {
            let cfg = quick(Algorithm::Dft).arrival_rate(1e6 / (4.0 * dt_us));
            assert_eq!(cfg.validate().is_ok(), ok, "{dt_us}");
        }
        // Inputs that used to run to a report of nonsense.
        for target in [f64::NAN, -1.0, f64::INFINITY] {
            let cfg = quick(Algorithm::Dft).target(TargetComplexity::Constant(target));
            assert!(matches!(
                cfg.run().unwrap_err(),
                RunError::TargetOutOfRange(_)
            ));
        }
        assert!(quick(Algorithm::Dft)
            .target(TargetComplexity::Constant(0.0))
            .validate()
            .is_ok());
        let detector = |cv| quick(Algorithm::Dft).uniform_cv_threshold(cv);
        for cv in [f64::NAN, -0.01, f64::INFINITY] {
            assert!(matches!(
                detector(cv).run().unwrap_err(),
                RunError::CvThresholdOutOfRange(_)
            ));
        }
        // Zero is the detector ablation's "off"; the default threshold set
        // explicitly is the same configuration as the default.
        assert!(detector(0.0).validate().is_ok());
        assert_eq!(detector(0.05), quick(Algorithm::Dft));
        // A trace runs its own arrivals, so a tuple count set after it
        // would misstate warm-up and every per-tuple figure.
        let traced = quick(Algorithm::Dft).with_trace(Trace::from_arrivals(
            quick(Algorithm::Dft).tuples(10).arrivals(),
        ));
        assert!(traced.validate().is_ok());
        for tuples in [9, 11] {
            assert_eq!(
                traced.clone().tuples(tuples).run().unwrap_err(),
                RunError::TraceLengthMismatch { trace: 10, tuples }
            );
        }
        let timed = |ms| ClusterConfig {
            time_window_ms: Some(ms),
            ..quick(Algorithm::Dft)
        };
        assert_eq!(timed(0).run().unwrap_err(), RunError::ZeroTimeWindow);
        assert!(timed(1).validate().is_ok());
        // A zero sync interval used to run as 1 and report 0.
        for (sent, arrivals) in [(0, 2048), (256, 0), (0, 0)] {
            assert_eq!(
                quick(Algorithm::Dft)
                    .sync_intervals(sent, arrivals)
                    .run()
                    .unwrap_err(),
                RunError::ZeroSyncInterval { sent, arrivals }
            );
        }
        assert!(quick(Algorithm::Dft)
            .sync_intervals(1, 1)
            .validate()
            .is_ok());
        // A link `Simulation::new` would panic on, inside the run.
        let wan = LinkConfig::paper_wan();
        for (link, fault) in [
            (
                LinkConfig {
                    bandwidth_bps: 0,
                    ..wan
                },
                LinkFault::ZeroBandwidth,
            ),
            (
                LinkConfig {
                    latency_min: SimDuration::from_millis(101),
                    ..wan
                },
                LinkFault::InvertedLatency,
            ),
            (
                LinkConfig {
                    loss_ppm: 1_000_001,
                    ..wan
                },
                LinkFault::LossAboveOne,
            ),
        ] {
            assert_eq!(
                quick(Algorithm::Dft).link(link).run().unwrap_err(),
                RunError::InvalidLink(fault)
            );
        }
        assert!(quick(Algorithm::Dft)
            .link(LinkConfig {
                loss_ppm: 1_000_000,
                latency_min: wan.latency_max,
                ..wan
            })
            .validate()
            .is_ok());
        // A warm-up of 1 counted nothing and read as ε = 0; NaN and
        // negative ones counted everything.
        let warm = |warmup| ClusterConfig {
            warmup,
            ..quick(Algorithm::Dft)
        };
        for warmup in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                warm(warmup).run().unwrap_err(),
                RunError::WarmupOutOfRange(w) if w.to_bits() == warmup.to_bits()
            ));
        }
        for warmup in [0.0, 0.999] {
            assert!(warm(warmup).validate().is_ok());
        }
        // A target ε outside [0, 1] is refused before the first run, for
        // BASE (which needs no search) as well.
        for algorithm in [Algorithm::Dft, Algorithm::Base] {
            for eps in [f64::NAN, -1.0, 2.0] {
                assert!(matches!(
                    quick(algorithm).run_at_epsilon(eps).unwrap_err(),
                    RunError::EpsilonOutOfRange(_)
                ));
            }
        }
    }

    #[test]
    fn base_achieves_near_zero_error() {
        let report = quick(Algorithm::Base).run().unwrap();
        assert_eq!(
            report.reported_matches, report.truth_matches,
            "broadcast should be exact: ε = {}",
            report.epsilon
        );
        // N-1 = 3 messages per tuple.
        assert!((report.msgs_per_tuple - 3.0).abs() < 0.01);
    }

    #[test]
    fn dftt_beats_dft_in_messages_per_result() {
        let dftt = quick(Algorithm::Dftt).run().unwrap();
        let dft = quick(Algorithm::Dft).run().unwrap();
        assert!(
            dftt.messages_per_result < dft.messages_per_result,
            "DFTT {} vs DFT {}",
            dftt.messages_per_result,
            dft.messages_per_result
        );
    }

    #[test]
    fn approximate_algorithms_send_fewer_messages_than_base() {
        let base = quick(Algorithm::Base).run().unwrap();
        for alg in [
            Algorithm::Dft,
            Algorithm::Dftt,
            Algorithm::Bloom,
            Algorithm::Sketch,
        ] {
            let r = quick(alg).run().unwrap();
            assert!(
                r.messages < base.messages,
                "{alg} sent {} >= BASE {}",
                r.messages,
                base.messages
            );
            assert!((0.0..=1.0).contains(&r.epsilon), "{alg} ε = {}", r.epsilon);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(Algorithm::Dftt).run().unwrap();
        let b = quick(Algorithm::Dftt).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn build_node_matches_run_semantics() {
        let cfg = quick(Algorithm::Dftt);
        let node = cfg.build_node(2);
        assert_eq!(node.metrics().arrivals, 0);
        // The arrival schedule is deterministic and dense.
        let arrivals = cfg.arrivals();
        assert_eq!(arrivals.len(), cfg.tuples);
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
            assert!(a.node < cfg.n);
            assert!(a.key < cfg.domain);
        }
        assert_eq!(cfg.arrivals(), arrivals, "schedule is a pure function");
    }

    /// How many handles to each of `plan`'s tables exist.
    fn handles(plan: &Plan) -> Vec<usize> {
        match &plan.tables {
            Tables::None => Vec::new(),
            Tables::Dft {
                forward,
                inverse,
                grid,
            } => std::iter::once(forward)
                .chain(inverse)
                .map(Arc::strong_count)
                .chain(grid.iter().map(Arc::strong_count))
                .collect(),
            Tables::Bloom(hashes) => vec![Arc::strong_count(hashes)],
            Tables::Sketch(hashes) => vec![Arc::strong_count(hashes)],
        }
    }

    #[test]
    fn every_node_of_a_config_and_its_clones_reads_one_plan() {
        // Handles per node to each table: the forward table is read by
        // both local DFTs, the inverse one by DFTT's reconstruction, a
        // hash family by both local sketches or filters.
        for (algorithm, per_node) in [
            (Algorithm::Base, vec![]),
            (Algorithm::Dft, vec![2]),
            (Algorithm::Dftt, vec![2, 1, 1]),
            (Algorithm::Bloom, vec![2]),
            (Algorithm::Sketch, vec![2]),
        ] {
            let cfg = quick(algorithm);
            let early_clone = cfg.clone();
            let plan = cfg.plan();
            let nodes: Vec<NodeEngine> = (0..cfg.n)
                .map(|me| cfg.build_node(me))
                .chain((0..cfg.n).map(|me| cfg.clone().build_node(me)))
                .chain((0..cfg.n).map(|me| early_clone.build_node(me)))
                .collect();
            let expected: Vec<usize> = per_node.iter().map(|h| 1 + h * nodes.len()).collect();
            assert_eq!(handles(&plan), expected, "{algorithm}");
            assert!(Arc::ptr_eq(&early_clone.plan(), &plan), "{algorithm}");
            // A field the plan does not read keeps it.
            let mut retargeted = cfg.clone();
            retargeted.target = TargetComplexity::LogN;
            assert!(Arc::ptr_eq(&retargeted.plan(), &plan), "{algorithm}");
        }
    }

    #[test]
    fn a_field_set_after_a_build_gets_a_fresh_plan() {
        type Set = fn(&mut ClusterConfig);
        let sets: [(&str, Set); 5] = [
            ("domain", |c| c.domain = 1 << 9),
            ("kappa", |c| c.kappa = 16),
            ("seed", |c| c.seed = 11),
            ("window", |c| c.window = 128),
            ("algorithm", |c| {
                c.algorithm = match c.algorithm {
                    Algorithm::Base => Algorithm::Dft,
                    Algorithm::Dft => Algorithm::Dftt,
                    Algorithm::Dftt => Algorithm::Bloom,
                    Algorithm::Bloom => Algorithm::Sketch,
                    Algorithm::Sketch => Algorithm::Base,
                }
            }),
        ];
        for algorithm in Algorithm::ALL {
            for (field, set) in sets {
                let mut cfg = quick(algorithm).tuples(1_500);
                let stale = cfg.plan();
                let first = cfg.build_node(0);
                set(&mut cfg);
                let mut fresh = quick(algorithm).tuples(1_500);
                set(&mut fresh);
                let what = format!("{algorithm}, {field} set");
                assert_eq!(cfg.plan().key, fresh.plan_key(), "{what}");
                assert_ne!(cfg.plan().key, stale.key, "{what}");
                // Nodes built after the set hold no handle to the stale
                // tables: only the plan and the first node do.
                let before = handles(&stale);
                let nodes: Vec<NodeEngine> = (0..cfg.n).map(|me| cfg.build_node(me)).collect();
                assert_eq!(handles(&stale), before, "{what}");
                drop((first, nodes));
                let report = cfg.run_lockstep().unwrap();
                // No node of a cluster ever sends a summary its peer
                // cannot apply.
                assert_eq!(report.totals().summary_index_drops, 0, "{what}");
                assert_eq!(report, fresh.run_lockstep().unwrap(), "{what}");
            }
        }
    }

    #[test]
    fn ground_truth_matches_run_truth() {
        let cfg = quick(Algorithm::Base);
        let standalone = cfg.ground_truth_matches();
        let report = cfg.run().unwrap();
        assert_eq!(standalone, report.truth_matches);
        assert!(standalone > 0);
    }

    #[test]
    fn window_spec_reflects_time_mode() {
        use dsj_stream::WindowSpec;
        let count = quick(Algorithm::Base);
        assert_eq!(count.window_spec(), WindowSpec::Count(256));
        let timed = ClusterConfig {
            time_window_ms: Some(250),
            ..quick(Algorithm::Base)
        };
        assert_eq!(timed.window_spec(), WindowSpec::Time(250_000));
    }

    #[test]
    fn trace_replay_reproduces_generated_run() {
        use dsj_stream::trace::Trace;
        let cfg = quick(Algorithm::Dftt);
        let generated = cfg.run().unwrap();
        // Record the exact schedule the config generates and replay it.
        let trace = Trace::from_arrivals(cfg.arrivals());
        let replay = quick(Algorithm::Dftt).with_trace(trace);
        assert_eq!(
            generated,
            replay.run().unwrap(),
            "a trace replay is bit-identical"
        );
        // The truth and the driver read a trace where it lies.
        assert!(matches!(replay.schedule(), Cow::Borrowed(_)));
        assert_eq!(replay.ground_truth_matches(), generated.truth_matches);
    }

    #[test]
    fn trace_with_foreign_nodes_rejected() {
        use dsj_stream::gen::Arrival;
        use dsj_stream::trace::Trace;
        use dsj_stream::StreamId;
        let trace = Trace::from_arrivals(vec![Arrival {
            stream: StreamId::R,
            key: 1,
            seq: 0,
            node: 99,
        }]);
        assert_eq!(
            quick(Algorithm::Base).with_trace(trace).run().unwrap_err(),
            RunError::TraceNodeOutOfRange { node: 99, n: 4 }
        );
        let trace = Trace::from_arrivals(vec![Arrival {
            stream: StreamId::R,
            key: 1 << 20,
            seq: 0,
            node: 0,
        }]);
        assert!(matches!(
            quick(Algorithm::Base).with_trace(trace).run().unwrap_err(),
            RunError::TraceKeyOutOfDomain { .. }
        ));
    }

    #[test]
    fn bandwidth_governor_throttles_messages() {
        // LogN budget, but a tight per-node allowance: the governor must
        // shave messages (and accuracy) versus the ungoverned run.
        let free = quick(Algorithm::Dft)
            .target(crate::TargetComplexity::LogN)
            .run()
            .unwrap();
        let capped = quick(Algorithm::Dft)
            .target(crate::TargetComplexity::LogN)
            .bandwidth_budget(20_000) // ~125 tuple msgs/s vs 500 arrivals/s
            .run()
            .unwrap();
        assert!(
            capped.msgs_per_tuple < 0.8 * free.msgs_per_tuple,
            "governor must shed load: {} vs {}",
            capped.msgs_per_tuple,
            free.msgs_per_tuple
        );
        assert!(capped.epsilon >= free.epsilon, "shedding costs accuracy");
    }

    #[test]
    fn uniform_workload_trips_fallback_within_budget() {
        use dsj_stream::gen::WorkloadKind;
        // Uniform keys drive every pairwise ρ to the same value — the
        // Theorem 1/2 worst case. End to end, the CV detector must fire
        // and hand routing to the round-robin fallback, while the flow
        // controller keeps the per-tuple message count at the configured
        // target rather than degenerating to broadcast. Eight nodes so
        // each site sees enough pairwise ρ samples for a stable CV.
        // Locality 0 so every node sees the same (uniform) key mix — with
        // geographic locality each site's window covers its own key range
        // and the pairwise ρs genuinely differ.
        let cfg = ClusterConfig::new(8, Algorithm::Dft)
            .window(256)
            .domain(1 << 10)
            .tuples(8_000)
            .arrival_rate(500.0)
            .locality(0.0)
            .kappa(16)
            .seed(3)
            .workload(WorkloadKind::Uniform);
        let report = cfg.clone().run().unwrap();
        assert!(
            report.fallback_events > 0,
            "uniform data must trip detect_uniform: {report:?}"
        );
        assert!(
            report.fallback_fraction > 0.3,
            "fallback should carry a large share of arrivals: {}",
            report.fallback_fraction
        );
        let target = cfg.target.target(cfg.n);
        assert!(
            report.msgs_per_tuple <= target * 1.25 + 0.1,
            "fallback must respect the {} msgs/tuple budget: {}",
            target,
            report.msgs_per_tuple
        );
        // Skewed data on the same configuration barely falls back — the
        // detector separates the regimes rather than firing always.
        let zipf = cfg
            .clone()
            .workload(WorkloadKind::Zipf { alpha: 0.8 })
            .run()
            .unwrap();
        assert!(
            zipf.fallback_fraction < report.fallback_fraction,
            "skewed {} vs uniform {}",
            zipf.fallback_fraction,
            report.fallback_fraction
        );
    }

    #[test]
    fn interarrival_matches_rate() {
        let cfg = quick(Algorithm::Base).arrival_rate(500.0); // 4 nodes
                                                              // 2000 tuples/s aggregate → 500 µs between arrivals.
        assert_eq!(cfg.interarrival_us(), 500);
    }

    #[test]
    fn run_emits_observation_record_when_captured() {
        let cfg = quick(Algorithm::Dftt);
        let (report, regs) = obs::captured(|| cfg.run().unwrap());
        assert_eq!(regs.len(), 1);
        let reg = &regs[0];
        assert_eq!(reg.counter("runs"), 1);
        assert_eq!(reg.counter("net.messages_sent"), report.messages);
        assert_eq!(reg.counter("truth_matches"), report.truth_matches);
        assert_eq!(reg.gauge("epsilon"), Some(report.epsilon));
        for phase in ["build", "workload", "inject", "drain", "join", "aggregate"] {
            let p = reg
                .phase(phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert_eq!(p.calls, 1);
        }
        // Per-node counters cover every node and sum to the workload.
        let total_arrivals: u64 = (0..cfg.n)
            .map(|me| reg.counter(&format!("node.{me:02}.arrivals")))
            .sum();
        assert_eq!(total_arrivals, cfg.tuples as u64);
        assert_eq!(
            reg.histogram("net.msg_bytes").unwrap().count(),
            report.messages
        );
        assert_eq!(
            reg.histogram("net.delivery_latency_us").unwrap().count(),
            report.messages - report.dropped_messages
        );
        // Once the buffer is closed a run has nowhere to emit, and skips
        // the export.
        assert!(!obs::enabled());
        assert_eq!(cfg.run().unwrap(), report);
    }

    #[test]
    fn calibration_reaches_or_reports_best() {
        let (report, target) = quick(Algorithm::Dftt).run_at_epsilon(0.5).unwrap();
        assert!(target > 0.0);
        // Either the target error was reached, or the maximum budget ran.
        assert!(report.epsilon <= 0.5 || (target - 3.0).abs() < 1e-9);
    }
}
