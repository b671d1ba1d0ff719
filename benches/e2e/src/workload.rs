//! The four workloads, the end-to-end metrics, and the measurement loop
//! that turns repetitions of a workload into those metrics.

use crate::gate;
use crate::stats::Summary;
use crate::system::{self, Alg, Arr, Cluster, Feed, Live, Run, Skew};
use std::time::{Duration, Instant};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: its name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression. `BENCHMARK.json` lists the same table (a unit test keeps
/// the two equal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "msgs_per_tuple",
        unit: "count",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "bytes_per_tuple",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How a workload's schedule reaches the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// simnet: one thread, virtual time, every arrival injected at its
    /// scheduled instant, then run to quiescence.
    Sim,
    /// Reactor TCP over loopback, closed loop (`Pacing::Freerun`).
    TcpClosed,
    /// Reactor TCP over loopback, open loop at a fixed rate.
    TcpOpen { rate_tps: f64 },
}

/// The overload bound of open-loop runs. The system's default
/// (256·max(N,4) events) trips on a single scheduler hiccup at 100 000
/// tuples/s on a two-core host; a quarter of a second of backlog does not.
pub const ABORT_BACKLOG: i64 = 25_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub alg: Alg,
    pub n: u16,
    pub skew: Skew,
    /// Tuples per repetition, and per repetition of `--quick`.
    pub tuples: usize,
    pub quick_tuples: usize,
    /// A run whose recall falls below this fails the gate.
    pub recall_floor: f64,
    /// Rate of the traced pass's open-loop run, tuples/s: comfortably
    /// below what the workload's cluster sustains on two cores.
    pub probe_rate_tps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-dftt-steady",
        why: "DFTT, N=16, steady Zipf keys on simnet: dft + core::strategy + stream::window + simnet do all the work, codec and sockets none",
        backend: Backend::Sim,
        alg: Alg::Dftt,
        n: 16,
        skew: Skew::Steady,
        tuples: 200_000,
        quick_tuples: 20_000,
        recall_floor: 0.5,
        probe_rate_tps: 50_000.0,
    },
    Workload {
        name: "sim-skch-migrate",
        why: "SKCH, N=16, migrating skew on simnet: sketch::agms replaces dft and summaries go stale, so the router runs in churn; a DFT speed-up must not move it",
        backend: Backend::Sim,
        alg: Alg::Skch,
        n: 16,
        skew: Skew::Migrate,
        tuples: 200_000,
        quick_tuples: 20_000,
        recall_floor: 0.4,
        probe_rate_tps: 50_000.0,
    },
    Workload {
        name: "tcp-base-closed",
        why: "BASE, N=4, closed loop over the loopback reactor: 3 messages per tuple, router idle, so core::wire + runtime::reactor + remote probes dominate; exact join anchors recall",
        backend: Backend::TcpClosed,
        alg: Alg::Base,
        n: 4,
        skew: Skew::Steady,
        tuples: 50_000,
        quick_tuples: 5_000,
        recall_floor: 0.99,
        probe_rate_tps: 25_000.0,
    },
    Workload {
        name: "tcp-dftt-open",
        why: "DFTT, N=4, open loop at a fixed 100 000 tuples/s over the reactor: sparse sends on a schedule that does not wait, where wake/flush latency matters and coalescing does not",
        backend: Backend::TcpOpen { rate_tps: 100_000.0 },
        alg: Alg::Dftt,
        n: 4,
        skew: Skew::Steady,
        tuples: 50_000,
        quick_tuples: 10_000,
        recall_floor: 0.5,
        probe_rate_tps: 100_000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effort {
    pub quick: bool,
    /// Repeat until this much time has been spent in measured
    /// repetitions ...
    pub seconds: f64,
    /// ... or exactly this many times, when given.
    pub reps: Option<usize>,
    /// Window the reference join uses; anything but the system's window
    /// must fail the gate (`--break-reference`).
    pub reference_window: usize,
}

impl Workload {
    pub fn tuples(&self, quick: bool) -> usize {
        if quick {
            self.quick_tuples
        } else {
            self.tuples
        }
    }

    /// The schedule and cluster of one repetition, both made from the seed.
    pub fn build(&self, tuples: usize, seed: u64) -> (Vec<Arr>, Cluster) {
        let schedule = system::schedule(self.skew, self.n, tuples, seed);
        let cluster = Cluster::new(self.alg, self.n, seed, &schedule);
        (schedule, cluster)
    }

    /// One repetition: set-up (schedule, ground truth, nodes, sockets),
    /// the timed region, teardown.
    fn repetition(&self, tuples: usize, seed: u64) -> Repetition {
        let start = Instant::now();
        let (schedule, cluster) = self.build(tuples, seed);
        let run = match self.backend {
            Backend::Sim => Ok(system::run_sim(&cluster, cluster.truth_matches())),
            Backend::TcpClosed => system::run_live(&cluster, Live::Reactor, Feed::Freerun),
            Backend::TcpOpen { rate_tps } => system::run_live(
                &cluster,
                Live::Reactor,
                Feed::Open {
                    rate_tps,
                    abort_backlog: ABORT_BACKLOG,
                },
            ),
        };
        Repetition {
            call: start.elapsed(),
            schedule,
            cluster,
            run,
        }
    }
}

struct Repetition {
    /// Wall time of everything above, set-up and teardown included.
    call: Duration,
    schedule: Vec<Arr>,
    cluster: Cluster,
    run: Result<Run, String>,
}

/// The seed of repetition `rep` of a run with seed `seed`. Every
/// repetition replays another schedule, so that a run's medians average
/// over schedules: message counts of a four-node DFTT cluster differ by
/// some ten percent between schedules of one distribution, and a single
/// schedule per run would carry that into every run-to-run comparison.
pub fn repetition_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(rep as u64)
}

/// Tuples that did not make it: not injected after an overload bailout,
/// dropped at ingest, or all of them when the run returned an error.
pub fn failed_tuples(run: &Result<Run, String>, attempted: u64) -> u64 {
    match run {
        Err(_) => attempted,
        Ok(run) => {
            (attempted - run.injected.min(attempted) + run.counts.key_domain_drops).min(attempted)
        }
    }
}

/// The end-to-end result of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Gate failures; empty when every check passed.
    pub failures: Vec<String>,
    /// One entry per entry of [`END_TO_END`], in that order: the
    /// per-repetition samples' summary, whose median is the value reported.
    pub metrics: Vec<Summary>,
    /// Open loop only: the repetitions' p50 and p99 delivery latency, us.
    /// Printed, not bounded: see `README.md`.
    pub latency_us: Option<[Summary; 2]>,
}

impl EndToEndResult {
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-repetition samples of every end-to-end metric, and of the
/// open-loop latency percentiles.
#[derive(Debug, Default)]
struct Samples {
    tuples_per_s: Vec<f64>,
    recall: Vec<f64>,
    msgs_per_tuple: Vec<f64>,
    bytes_per_tuple: Vec<f64>,
    /// Open loop only: each run's p50 and p99 delivery latency.
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Samples {
    fn push(&mut self, run: &Run, call: Duration) {
        let tuples = run.injected.max(1) as f64;
        let timed = run.timed.as_secs_f64().max(1e-9);
        self.tuples_per_s.push(tuples / timed);
        self.recall
            .push(run.counts.reported as f64 / run.truth.max(1) as f64);
        self.msgs_per_tuple.push(run.counts.msgs() as f64 / tuples);
        self.bytes_per_tuple
            .push(run.counts.bytes() as f64 / tuples);
        self.p50_us.extend(run.latency.map(|l| l.p50_us));
        self.p99_us.extend(run.latency.map(|l| l.p99_us));
        self.setup_s
            .push(call.saturating_sub(run.timed).as_secs_f64());
    }

    /// Every metric reports the median over repetitions. A shared host
    /// slows repetitions down in waves of tens of seconds, and now and then
    /// lets one through undisturbed: over sets of ten 25-s runs of one
    /// binary the fastest repetition of `sim-dftt-steady` spread by 3 % in
    /// one set and 23 % in the next, the median repetition by 15 % and 3 %;
    /// the median is the one whose worst set stays clear of the bound.
    fn summarize(&self) -> Vec<Summary> {
        [
            &self.tuples_per_s,
            &self.recall,
            &self.msgs_per_tuple,
            &self.bytes_per_tuple,
            &self.setup_s,
        ]
        .map(|v| Summary::of(v))
        .to_vec()
    }
}

/// Runs the lockstep checks, one discarded warm-up repetition, then
/// measured repetitions per `effort`, checks each, and summarizes.
pub fn measure(w: &Workload, seed: u64, effort: Effort) -> EndToEndResult {
    let tuples = w.tuples(effort.quick);
    let mut failures = Vec::new();

    // The warm-up replays repetition 0's schedule; simnet must repeat it
    // exactly.
    let warm_up = w.repetition(tuples, repetition_seed(seed, 0));
    gate::check_lockstep(&mut failures, &warm_up.schedule, w.n, seed, effort.quick);

    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let min_reps = effort.reps.unwrap_or(if effort.quick { 2 } else { 3 });
    let started = Instant::now();
    let mut rep = 0;
    while rep < min_reps
        || (effort.reps.is_none() && started.elapsed().as_secs_f64() < effort.seconds)
    {
        let r = w.repetition(tuples, repetition_seed(seed, rep));
        let label = format!("{} repetition {rep}", w.name);
        attempted += tuples as u64;
        failed += failed_tuples(&r.run, tuples as u64);
        match &r.run {
            Err(e) => failures.push(format!("{label}: {e}")),
            Ok(run) => {
                gate::check_truth(
                    &mut failures,
                    &r.schedule,
                    &r.cluster,
                    run.truth,
                    effort.reference_window,
                );
                gate::check_run(&mut failures, &label, run);
                if let (0, Backend::Sim, Ok(first)) = (rep, w.backend, &warm_up.run) {
                    gate::check_repeat(&mut failures, &label, &first.counts, &run.counts);
                }
                samples.push(run, r.call);
            }
        }
        rep += 1;
    }
    let metrics = samples.summarize();
    let recall = metrics[1].median;
    if recall < w.recall_floor {
        failures.push(format!(
            "{}: recall {recall} is below the workload's floor {}",
            w.name, w.recall_floor
        ));
    }
    EndToEndResult {
        workload: w.name,
        attempted,
        failed,
        failures,
        metrics,
        latency_us: (!samples.p50_us.is_empty())
            .then(|| [Summary::of(&samples.p50_us), Summary::of(&samples.p99_us)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Counts;

    fn run_of(tuples: u64) -> Run {
        Run {
            timed: Duration::from_millis(500),
            truth: 1_000,
            counts: Counts {
                arrivals: tuples,
                reported: 900,
                tuple_msgs: tuples / 2,
                summary_msgs: 10,
                data_bytes: tuples * 10,
                overhead_bytes: tuples * 2,
                ..Counts::default()
            },
            injected: tuples,
            overloaded: false,
            peak_backlog: 0,
            latency: None,
            sockets: Default::default(),
            sim_inject: Duration::ZERO,
            sim_events: 0,
        }
    }

    #[test]
    fn failed_tuples_counts_bailouts_drops_and_errors() {
        assert_eq!(failed_tuples(&Ok(run_of(1_000)), 1_000), 0);
        // The feeder bailed out after 600 of 1000.
        let mut bailed = run_of(600);
        bailed.overloaded = true;
        assert_eq!(failed_tuples(&Ok(bailed), 1_000), 400);
        // Two arrivals dropped at ingest.
        let mut dropped = run_of(1_000);
        dropped.counts.key_domain_drops = 2;
        assert_eq!(failed_tuples(&Ok(dropped), 1_000), 2);
        // A run that errored fails every tuple it was given.
        assert_eq!(failed_tuples(&Err("socket error".into()), 1_000), 1_000);
        let result = EndToEndResult {
            workload: "w",
            attempted: 4_000,
            failed: 1_402,
            failures: vec![],
            metrics: vec![],
            latency_us: None,
        };
        assert!((result.failed_ratio() - 0.3505).abs() < 1e-12);
    }

    #[test]
    fn samples_turn_a_run_into_every_metric() {
        let mut s = Samples::default();
        s.push(&run_of(1_000), Duration::from_millis(800));
        let mut slower = run_of(1_000);
        slower.timed = Duration::from_millis(1_000);
        s.push(&slower, Duration::from_millis(1_100));
        let m = s.summarize();
        assert_eq!(m.len(), END_TO_END.len());
        // Every value is the median over repetitions.
        assert_eq!((m[0].median, m[0].n), (1_500.0, 2));
        assert_eq!(m[1].median, 0.9);
        assert_eq!(m[2].median, 0.51);
        assert_eq!(m[3].median, 12.0);
        assert!((m[4].median - 0.2).abs() < 1e-12); // 0.3 s and 0.1 s of set-up
        assert!(s.p50_us.is_empty() && s.p99_us.is_empty());
        // Stamped runs also keep their own percentiles.
        let mut stamped = run_of(1_000);
        stamped.latency = Some(system::Latency {
            p50_us: 25.0,
            p99_us: 400.0,
        });
        s.push(&stamped, Duration::from_millis(600));
        assert_eq!(
            (s.p50_us.as_slice(), s.p99_us.as_slice()),
            (&[25.0][..], &[400.0][..])
        );
        assert_ne!(repetition_seed(7, 0), repetition_seed(7, 1));
        assert_eq!(repetition_seed(7, 3), 7_003);
    }

    #[test]
    fn names_are_plain_and_unique() {
        let plain = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(plain(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(plain(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for l in &crate::layers::PER_LAYER {
            assert!(plain(l.name), "{}", l.name);
            assert!(seen.insert(l.name), "{} used twice", l.name);
        }
        assert!(find("tcp-dftt-open").is_some() && find("nope").is_none());
    }
}
