//! Open-loop capacity search: the engine behind `repro capacity`.
//!
//! A closed-loop run (the benchmark's `sim-*` and `tcp-base-closed`
//! workloads) measures how fast a cluster drains tuples when the feeder
//! waits for it — a *throughput* number with no notion of overload. This
//! module asks the complementary question: **what arrival rate can a
//! cluster sustain** when tuples arrive on a schedule that does not care
//! how busy the cluster is, and what delivery latency does a client
//! observe at that rate?
//!
//! Each cell of the matrix (scenario × strategy × backend × N) runs a
//! bracketed search over offered rates. A probe at rate λ replays the
//! scenario's schedule through [`LiveCluster::run_open_loop`] (or the TCP
//! equivalent); the probe is *sustainable* when the feeder never hit its
//! backlog bound, every tuple was injected, the cluster kept pace (its
//! achieved rate is at least [`MIN_PACE`] · λ) and the p99 delivery
//! latency stayed under the SLO. A rate fails when two probes at it fail.
//! Rates double until the first failure, then a few bisection steps
//! tighten the bracket; the reported row carries the highest sustainable
//! rate's latency percentiles. A search in which no rate failed never
//! found the cluster's limit: its row is a lower bound.

use crate::Scale;
use dsj_core::{Algorithm, ClusterConfig};
use dsj_runtime::{LiveCluster, LoadRun, OpenLoop, TcpCluster};
use dsj_stream::gen::Scenario;
use dsj_stream::trace::Trace;

/// Key-domain size for every load cell.
const DOMAIN: u32 = 1 << 10;
/// Per-node, per-stream window size for every load cell.
const WINDOW: usize = 256;
/// Geographic locality of the scenario schedules.
const LOCALITY: f64 = 0.8;
/// Base seed for every scenario schedule (the scenario tag decorrelates).
const SEED: u64 = 42;

/// Which live backend a load cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBackend {
    /// In-process node threads over mailboxes.
    Threads,
    /// Loopback TCP, every node reading its own sockets.
    TcpReactor,
}

impl LoadBackend {
    /// Label used in report rows.
    pub fn label(&self) -> &'static str {
        match self {
            LoadBackend::Threads => "threads",
            LoadBackend::TcpReactor => "tcp_reactor",
        }
    }

    /// Runs one open-loop probe on this backend.
    fn run(&self, cfg: &ClusterConfig, spec: &OpenLoop) -> Option<LoadRun> {
        let run = match self {
            LoadBackend::Threads => LiveCluster::run_open_loop(cfg, spec),
            LoadBackend::TcpReactor => TcpCluster::run_open_loop(cfg, spec),
        };
        // A faulted probe (socket exhaustion, node panic) is treated as
        // unsustainable rather than aborting the whole matrix.
        run.ok()
    }
}

/// One cell of the load matrix.
#[derive(Debug, Clone, Copy)]
pub struct LoadCell {
    /// Arrival schedule shape.
    pub scenario: Scenario,
    /// Join strategy under test.
    pub algorithm: Algorithm,
    /// Live backend carrying the traffic.
    pub backend: LoadBackend,
    /// Cluster size.
    pub n: u16,
}

impl LoadCell {
    /// Stable id used in progress lines, e.g. `FLASH.DFTT.threads.n8`.
    pub fn id(&self) -> String {
        format!(
            "{}.{}.{}.n{}",
            self.scenario.label(),
            self.algorithm.label(),
            self.backend.label(),
            self.n
        )
    }
}

/// The share of the offered rate a sustained probe must achieve (its
/// tuples over the time from the first arrival to quiescence). A cluster
/// that falls behind finishes late even when no bound trips: the backlog
/// bound does not trip when the probe holds fewer tuples than the bound,
/// and a short schedule drains inside the SLO. At 0.9 the drain after
/// the last arrival may last a ninth of the schedule; the doubling
/// ceilings this test catches achieved 0.11–0.43 of their rate on a
/// two-core host.
pub const MIN_PACE: f64 = 0.9;

/// Search tuning: probe size, rate bracket and the sustainability SLO.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Tuples injected per probe (the scenario schedule length).
    pub tuples: usize,
    /// First offered rate, tuples/sec.
    pub start_tps: f64,
    /// Doubling steps before giving up on finding an unsustainable rate.
    pub max_doublings: u32,
    /// Bisection steps tightening the bracket after the first failure.
    pub bisect_steps: u32,
    /// p99 delivery-latency budget (µs); probes beyond it are declared
    /// unsustainable even if the backlog bound never tripped.
    pub latency_slo_us: u64,
}

impl SearchParams {
    /// The search parameters at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => SearchParams {
                tuples: 2_000,
                start_tps: 20_000.0,
                max_doublings: 8,
                bisect_steps: 2,
                latency_slo_us: 20_000,
            },
            Scale::Full => SearchParams {
                tuples: 8_000,
                start_tps: 20_000.0,
                max_doublings: 9,
                bisect_steps: 3,
                latency_slo_us: 20_000,
            },
        }
    }
}

/// One row of the report: a cell's capacity and the latency profile at
/// that capacity.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Highest offered rate (tuples/sec) the cluster sustained; 0 when
    /// even the starting rate was unsustainable.
    pub max_sustainable_tps: f64,
    /// No rate failed: the search stopped at its last doubling, so the
    /// cluster's capacity is at least `max_sustainable_tps`, not equal to
    /// it.
    pub lower_bound: bool,
    /// End-to-end throughput achieved at that rate (injection start to
    /// quiescence, so slightly below offered).
    pub achieved_tps: f64,
    /// Median delivery latency at capacity, µs.
    pub p50_us: u64,
    /// 99th-percentile delivery latency at capacity, µs.
    pub p99_us: u64,
    /// 99.9th-percentile delivery latency at capacity, µs.
    pub p999_us: u64,
    /// Join approximation error ε at capacity (missed matches / truth).
    pub error_rate: f64,
    /// Probes this cell's search spent.
    pub probes: u32,
}

/// The cells `repro capacity` sweeps at `scale`.
///
/// Quick: a CI-sized probe — two contrasting strategies on the steady and
/// flash-crowd schedules, channel backend, N = 4. Full: all five
/// strategies × all six scenarios on both the channel and TCP-reactor
/// backends at N = 8, plus N = 32 capacity rows for the best strategy.
pub fn cells(scale: Scale) -> Vec<LoadCell> {
    let mut out = Vec::new();
    if scale == Scale::Quick {
        for scenario in [Scenario::Steady, Scenario::FlashCrowd] {
            for algorithm in [Algorithm::Base, Algorithm::Dftt] {
                out.push(LoadCell {
                    scenario,
                    algorithm,
                    backend: LoadBackend::Threads,
                    n: 4,
                });
            }
        }
        return out;
    }
    for backend in [LoadBackend::Threads, LoadBackend::TcpReactor] {
        for scenario in Scenario::ALL {
            for algorithm in Algorithm::ALL {
                out.push(LoadCell {
                    scenario,
                    algorithm,
                    backend,
                    n: 8,
                });
            }
        }
    }
    // Scale-out rows: does capacity survive a 32-node cluster?
    for backend in [LoadBackend::Threads, LoadBackend::TcpReactor] {
        out.push(LoadCell {
            scenario: Scenario::Steady,
            algorithm: Algorithm::Dftt,
            backend,
            n: 32,
        });
    }
    out
}

/// Builds a cell's cluster configuration: the scenario's schedule replayed
/// as an explicit trace.
fn cell_cfg(cell: &LoadCell, p: &SearchParams) -> ClusterConfig {
    let arrivals = cell
        .scenario
        .arrivals(cell.n, DOMAIN, p.tuples, LOCALITY, SEED);
    ClusterConfig::new(cell.n, cell.algorithm)
        .window(WINDOW)
        .domain(DOMAIN)
        .locality(LOCALITY)
        .seed(SEED)
        .with_trace(Trace::from_arrivals(arrivals))
}

/// Whether a probe's outcome at offered rate `rate` counts as sustained:
/// it injected all `p.tuples` arrivals and kept pace with `rate`.
fn sustainable(run: &LoadRun, rate: f64, p: &SearchParams) -> bool {
    !run.overloaded
        && run.injected == p.tuples
        && run.outcome.tuples_per_sec >= MIN_PACE * rate
        && run.outcome.delivery_latency_us.quantile(0.99) <= p.latency_slo_us
}

/// Runs the bracketed capacity search for one cell and reports its row.
///
/// Rates double from `start_tps` until a rate fails (two probes at it in
/// a row hit the backlog bailout, lose pace, breach the latency SLO or
/// fault), then `bisect_steps` bisections tighten the bracket. The row reports the best
/// sustained probe's latency profile; if even the starting rate fails,
/// capacity and every figure are reported as 0.
pub fn search_cell(cell: &LoadCell, p: &SearchParams) -> LoadRow {
    let cfg = cell_cfg(cell, p);
    search(p, |rate| cell.backend.run(&cfg, &OpenLoop::new(rate)))
}

/// [`search_cell`] over `run_probe`, which runs one probe at the given
/// offered rate (`None`: the probe faulted).
fn search(p: &SearchParams, mut run_probe: impl FnMut(f64) -> Option<LoadRun>) -> LoadRow {
    let mut probes = 0u32;
    // A rate fails only when two probes at it fail: one scheduling hiccup
    // on a shared host must not end the doubling for good.
    let mut sustains = |rate: f64| {
        (0..2).find_map(|_| {
            probes += 1;
            run_probe(rate).filter(|run| sustainable(run, rate, p))
        })
    };

    let mut lo = 0.0f64;
    let mut best: Option<LoadRun> = None;
    let mut hi: Option<f64> = None;
    let mut rate = p.start_tps;
    for _ in 0..=p.max_doublings {
        match sustains(rate) {
            Some(run) => {
                lo = rate;
                best = Some(run);
                rate *= 2.0;
            }
            None => {
                hi = Some(rate);
                break;
            }
        }
    }
    if let Some(mut hi) = hi {
        for _ in 0..p.bisect_steps {
            let mid = (lo + hi) / 2.0;
            match sustains(mid) {
                Some(run) => {
                    lo = mid;
                    best = Some(run);
                }
                None => hi = mid,
            }
        }
    }

    let outcome = best.as_ref().map(|run| &run.outcome);
    let quantile = |q| outcome.map_or(0, |o| o.delivery_latency_us.quantile(q));
    LoadRow {
        max_sustainable_tps: lo,
        lower_bound: hi.is_none(),
        achieved_tps: outcome.map_or(0.0, |o| o.tuples_per_sec),
        p50_us: quantile(0.5),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        error_rate: outcome.map_or(0.0, |o| o.epsilon),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_small_and_ids_are_unique() {
        let quick = cells(Scale::Quick);
        assert!(quick.len() <= 6, "quick matrix must stay CI-sized");
        let full = cells(Scale::Full);
        assert!(full.len() > quick.len());
        assert!(
            full.iter().any(|c| c.n >= 32),
            "full matrix must include a scale-out row"
        );
        let mut ids: Vec<String> = full.iter().map(LoadCell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), full.len(), "cell ids must be unique");
    }

    /// A quick-scale probe that injected everything, achieved `achieved`
    /// tuples/s and delivered every tuple in `latency_us`.
    fn probe_run(achieved: f64, latency_us: u64) -> LoadRun {
        let mut delivery_latency_us = dsj_core::obs::Histogram::new();
        (0..100).for_each(|_| delivery_latency_us.record(latency_us));
        let injected = SearchParams::new(Scale::Quick).tuples;
        LoadRun {
            outcome: dsj_runtime::LiveOutcome {
                truth_matches: 0,
                reported_matches: 0,
                epsilon: 0.0,
                messages: 0,
                totals: Default::default(),
                per_node: Vec::new(),
                match_digests: Vec::new(),
                transport_per_node: Vec::new(),
                delivery_latency_us,
                wall_time: std::time::Duration::from_secs_f64(injected as f64 / achieved),
                tuples_per_sec: achieved,
            },
            injected,
            peak_backlog: 0,
            overloaded: false,
        }
    }

    #[test]
    fn a_probe_is_sustained_only_when_the_cluster_keeps_pace() {
        let p = SearchParams::new(Scale::Quick);
        let slo = p.latency_slo_us;
        let at_100k = |run: &LoadRun| sustainable(run, 100_000.0, &p);
        assert!(at_100k(&probe_run(95_000.0, slo)));
        assert!(at_100k(&probe_run(MIN_PACE * 100_000.0, 50)));
        // Fell behind, though no bound tripped and latency is fine.
        assert!(!at_100k(&probe_run(89_000.0, 50)));
        assert!(!at_100k(&probe_run(15_000.0, 50)));
        // Kept pace, but over the SLO, cut short or overloaded.
        assert!(!at_100k(&probe_run(99_000.0, 2 * slo)));
        let short = LoadRun {
            injected: p.tuples - 1,
            ..probe_run(99_000.0, 50)
        };
        assert!(!at_100k(&short));
        let overloaded = LoadRun {
            overloaded: true,
            ..probe_run(99_000.0, 50)
        };
        assert!(!at_100k(&overloaded));
    }

    #[test]
    fn a_search_whose_probes_all_pass_is_a_lower_bound() {
        let p = SearchParams::new(Scale::Quick);
        let row = search(&p, |rate| Some(probe_run(rate, 50)));
        let ceiling = p.start_tps * 2f64.powi(p.max_doublings as i32);
        assert_eq!(row.max_sustainable_tps, ceiling);
        assert!(row.lower_bound);
        assert_eq!(row.probes, p.max_doublings + 1, "no bisection");

        // A cluster that achieves at most 300 000 tuples/s: a probe fails
        // once that is below `MIN_PACE` of its rate, the bisections narrow
        // in from there, and the row is a capacity.
        let capped = |rate: f64| Some(probe_run(rate.min(300_000.0), 50));
        let row = search(&p, capped);
        assert!(!row.lower_bound);
        assert!(row.max_sustainable_tps >= 160_000.0, "{row:?}");
        assert!(row.max_sustainable_tps <= 300_000.0 / MIN_PACE, "{row:?}");
        assert!(row.achieved_tps >= MIN_PACE * row.max_sustainable_tps);
    }

    #[test]
    fn one_failed_probe_does_not_fail_a_rate() {
        // Every rate's first probe loses pace, its second keeps it.
        let p = SearchParams::new(Scale::Quick);
        let mut hiccup = false;
        let row = search(&p, |rate| {
            hiccup = !hiccup;
            let achieved = if hiccup { rate / 2.0 } else { rate };
            Some(probe_run(achieved, 50))
        });
        assert!(row.lower_bound, "{row:?}");
        assert_eq!(row.probes, 2 * (p.max_doublings + 1));
    }

    #[test]
    fn capacity_search_finds_a_sustainable_rate_on_threads() {
        // A tiny cell: the channel backend comfortably sustains the
        // starting rate, so the search must report a non-zero capacity
        // with a populated latency profile.
        let cell = LoadCell {
            scenario: Scenario::Steady,
            algorithm: Algorithm::Base,
            backend: LoadBackend::Threads,
            n: 2,
        };
        let p = SearchParams {
            tuples: 2_000,
            start_tps: 10_000.0,
            max_doublings: 2,
            bisect_steps: 1,
            latency_slo_us: 1_000_000,
        };
        let row = search_cell(&cell, &p);
        assert!(row.max_sustainable_tps >= 10_000.0, "{row:?}");
        assert!(row.achieved_tps > 0.0);
        assert!(row.p50_us <= row.p99_us && row.p99_us <= row.p999_us);
        assert!(row.probes >= 2);
    }

    #[test]
    fn impossible_slo_reports_zero_capacity() {
        let cell = LoadCell {
            scenario: Scenario::Steady,
            algorithm: Algorithm::Base,
            backend: LoadBackend::Threads,
            n: 2,
        };
        let p = SearchParams {
            tuples: 300,
            start_tps: 10_000.0,
            max_doublings: 1,
            bisect_steps: 1,
            // No real cluster delivers in 0 µs at p99: every probe fails.
            latency_slo_us: 0,
        };
        let row = search_cell(&cell, &p);
        assert_eq!(row.max_sustainable_tps, 0.0);
        assert!(!row.lower_bound);
        assert_eq!(row.p999_us, 0);
    }
}
