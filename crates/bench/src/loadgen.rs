//! Open-loop capacity search: the engine behind `dsj-loadgen`.
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
//! backlog bound, every tuple was injected, and the p99 delivery latency
//! stayed under the SLO — an unsustainable rate makes the backlog (and
//! with it the recorded latency) grow without bound, so the two regimes
//! separate sharply. Rates double until the first failure, then a few
//! bisection steps tighten the bracket; the reported row carries the
//! highest sustainable rate's latency percentiles.
//!
//! Rows serialize to hand-rolled, diffable JSON (one object per line,
//! fixed precision) when `dsj-loadgen` is given `--out`.

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
    /// Stable id used for `--only` filtering and progress lines,
    /// e.g. `FLASH.DFTT.threads.n8`.
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
    /// CI-sized (`quick`) or reproduction-sized search parameters.
    pub fn new(quick: bool) -> Self {
        if quick {
            SearchParams {
                tuples: 2_000,
                start_tps: 20_000.0,
                max_doublings: 6,
                bisect_steps: 2,
                latency_slo_us: 20_000,
            }
        } else {
            SearchParams {
                tuples: 8_000,
                start_tps: 20_000.0,
                max_doublings: 9,
                bisect_steps: 3,
                latency_slo_us: 20_000,
            }
        }
    }
}

/// One row of the report: a cell's capacity and the latency profile at
/// that capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRow {
    /// Scenario label (`STEADY`, `FLASH`, ...).
    pub scenario: &'static str,
    /// Strategy label (`BASE`/`BLOOM`/`SKCH`/`DFT`/`DFTT`).
    pub strategy: &'static str,
    /// Backend label (`threads`/`tcp_reactor`).
    pub backend: &'static str,
    /// Cluster size.
    pub n: u16,
    /// Highest offered rate (tuples/sec) the cluster sustained; 0 when
    /// even the starting rate was unsustainable.
    pub max_sustainable_tps: f64,
    /// End-to-end throughput achieved at that rate (injection start to
    /// quiescence, so slightly below offered).
    pub achieved_tps: f64,
    /// Median delivery latency at capacity, µs.
    pub p50_us: u64,
    /// 99th-percentile delivery latency at capacity, µs.
    pub p99_us: u64,
    /// 99.9th-percentile delivery latency at capacity, µs.
    pub p999_us: u64,
    /// Fraction of the schedule dropped by the feeder's overload bailout
    /// at the first *unsustainable* rate probed (0 when the search never
    /// overdrove the cluster, or when overload manifested as latency
    /// rather than backlog).
    pub drop_rate: f64,
    /// Join approximation error ε at capacity (missed matches / truth).
    pub error_rate: f64,
    /// Peak feeder backlog observed at capacity.
    pub peak_backlog: i64,
    /// Probes this cell's search spent.
    pub probes: u32,
}

impl LoadRow {
    /// Renders the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"backend\":\"{}\",\"n\":{},\
             \"max_sustainable_tps\":{:.0},\"achieved_tps\":{:.0},\
             \"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\
             \"drop_rate\":{:.4},\"error_rate\":{:.4},\
             \"peak_backlog\":{},\"probes\":{}}}",
            self.scenario,
            self.strategy,
            self.backend,
            self.n,
            self.max_sustainable_tps,
            self.achieved_tps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.drop_rate,
            self.error_rate,
            self.peak_backlog,
            self.probes,
        )
    }
}

/// Renders the matrix as a JSON array, one row per line.
pub fn to_json_array(rows: &[LoadRow]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("  ");
        s.push_str(&r.to_json());
        if i + 1 < rows.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// The cells `dsj-loadgen` sweeps.
///
/// Quick: a CI-sized probe — two contrasting strategies on the steady and
/// flash-crowd schedules, channel backend, N = 4. Full: all five
/// strategies × all six scenarios on both the channel and TCP-reactor
/// backends at N = 8, plus N = 32 capacity rows for the best strategy.
pub fn cells(quick: bool) -> Vec<LoadCell> {
    let mut out = Vec::new();
    if quick {
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

/// Whether a probe's outcome counts as sustained.
fn sustainable(run: &LoadRun, p: &SearchParams) -> bool {
    !run.overloaded
        && run.injected == run.total
        && run.outcome.delivery_latency_us.quantile(0.99) <= p.latency_slo_us
}

/// Runs the bracketed capacity search for one cell and reports its row.
///
/// Rates double from `start_tps` until a probe fails (backlog bailout,
/// latency SLO breach, or a transport fault), then `bisect_steps`
/// bisections tighten the bracket. The row reports the best sustained
/// probe's latency profile; if even the starting rate fails, capacity is
/// reported as 0 with the failing probe's drop rate.
pub fn search_cell(cell: &LoadCell, p: &SearchParams) -> LoadRow {
    let cfg = cell_cfg(cell, p);
    let mut probes = 0u32;
    let mut probe = |rate: f64| {
        probes += 1;
        cell.backend.run(&cfg, &OpenLoop::new(rate))
    };

    let mut lo = 0.0f64;
    let mut best: Option<LoadRun> = None;
    let mut hi: Option<f64> = None;
    let mut overdrive: Option<LoadRun> = None;
    let mut rate = p.start_tps;
    for _ in 0..=p.max_doublings {
        match probe(rate) {
            Some(run) if sustainable(&run, p) => {
                lo = rate;
                best = Some(run);
                rate *= 2.0;
            }
            failed => {
                hi = Some(rate);
                overdrive = failed;
                break;
            }
        }
    }
    if let Some(mut hi) = hi {
        for _ in 0..p.bisect_steps {
            let mid = (lo + hi) / 2.0;
            match probe(mid) {
                Some(run) if sustainable(&run, p) => {
                    lo = mid;
                    best = Some(run);
                }
                failed => {
                    hi = mid;
                    if overdrive.is_none() {
                        overdrive = failed;
                    }
                }
            }
        }
    }

    let drop_rate = overdrive
        .as_ref()
        .map(|run| (run.total - run.injected) as f64 / run.total.max(1) as f64)
        .unwrap_or(0.0);
    match best {
        Some(run) => {
            let h = &run.outcome.delivery_latency_us;
            LoadRow {
                scenario: cell.scenario.label(),
                strategy: cell.algorithm.label(),
                backend: cell.backend.label(),
                n: cell.n,
                max_sustainable_tps: lo,
                achieved_tps: run.outcome.tuples_per_sec,
                p50_us: h.quantile(0.5),
                p99_us: h.quantile(0.99),
                p999_us: h.quantile(0.999),
                drop_rate,
                error_rate: run.outcome.epsilon,
                peak_backlog: run.peak_backlog,
                probes,
            }
        }
        None => LoadRow {
            scenario: cell.scenario.label(),
            strategy: cell.algorithm.label(),
            backend: cell.backend.label(),
            n: cell.n,
            max_sustainable_tps: 0.0,
            achieved_tps: 0.0,
            p50_us: 0,
            p99_us: 0,
            p999_us: 0,
            drop_rate,
            error_rate: 0.0,
            peak_backlog: overdrive.as_ref().map(|r| r.peak_backlog).unwrap_or(0),
            probes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_small_and_ids_are_unique() {
        let quick = cells(true);
        assert!(quick.len() <= 6, "quick matrix must stay CI-sized");
        let full = cells(false);
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

    #[test]
    fn rows_serialize_as_valid_json_objects() {
        let row = LoadRow {
            scenario: "STEADY",
            strategy: "DFTT",
            backend: "threads",
            n: 8,
            max_sustainable_tps: 160_000.0,
            achieved_tps: 151_234.5,
            p50_us: 42,
            p99_us: 900,
            p999_us: 4_000,
            drop_rate: 0.0,
            error_rate: 0.0123,
            peak_backlog: 77,
            probes: 9,
        };
        let json = to_json_array(&[row.clone(), row]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"scenario\":\"STEADY\"").count(), 2);
        assert!(json.contains("\"max_sustainable_tps\":160000"));
        assert!(json.contains("\"error_rate\":0.0123"));
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
            tuples: 400,
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
        assert_eq!(row.p999_us, 0);
    }
}
