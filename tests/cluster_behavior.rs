//! End-to-end behavioral tests of the distributed join cluster, spanning
//! every workspace crate through the public `dsjoin` API.

use dsjoin::core::{Algorithm, ClusterConfig, ExperimentReport, TargetComplexity};
use dsjoin::stream::gen::WorkloadKind;

fn quick(n: u16, algorithm: Algorithm) -> ClusterConfig {
    ClusterConfig::new(n, algorithm)
        .window(256)
        .domain(1 << 10)
        .tuples(4_000)
        .arrival_rate(500.0)
        .seed(11)
}

fn run(cfg: ClusterConfig) -> ExperimentReport {
    cfg.run().expect("valid configuration")
}

#[test]
fn base_is_nearly_exact_on_every_workload() {
    for workload in [
        WorkloadKind::Uniform,
        WorkloadKind::Zipf { alpha: 0.4 },
        WorkloadKind::Financial,
        WorkloadKind::Network,
    ] {
        let r = run(quick(4, Algorithm::Base).workload(workload));
        // Broadcast finds every pair: a probe that trails its partner's
        // eviction by the 20–100 ms WAN latency still reads the window as
        // it stood when its tuple arrived.
        assert_eq!(
            r.reported_matches, r.truth_matches,
            "{workload:?}: broadcast must be exact, eps {}",
            r.epsilon
        );
    }
}

#[test]
fn base_is_exact_at_a_sustainable_rate() {
    // N = 32 under `--target logn`, 50 arrivals/s per node: the hot
    // node's links are far from saturated, and every remote probe reads
    // the window as it stood when its tuple arrived.
    let cfg = ClusterConfig::new(32, Algorithm::Base)
        .kappa(64)
        .target(TargetComplexity::LogN)
        .tuples(30_000)
        .arrival_rate(50.0);
    let (r, regs) = dsjoin::core::obs::captured(|| run(cfg));
    assert_eq!(r.reported_matches, r.truth_matches, "eps {}", r.epsilon);
    assert_eq!(r.epsilon, 0.0);
    let late: u64 = (0..32)
        .map(|me| regs[0].counter(&format!("node.{me:02}.late_probes")))
        .sum();
    assert_eq!(late, 0);
    assert!(r.truth_matches > 50_000, "{}", r.truth_matches);
}

#[test]
fn every_algorithm_runs_every_workload() {
    for workload in [
        WorkloadKind::Uniform,
        WorkloadKind::Zipf { alpha: 0.4 },
        WorkloadKind::Financial,
        WorkloadKind::Network,
    ] {
        for algorithm in Algorithm::ALL {
            let r = run(quick(4, algorithm).workload(workload));
            assert!(
                (0.0..=1.0).contains(&r.epsilon),
                "{algorithm} on {workload:?}: eps {} out of range",
                r.epsilon
            );
            assert!(r.truth_matches > 0, "{workload:?} produced no ground truth");
            assert!(r.messages > 0);
        }
    }
}

#[test]
fn dftt_sends_fewest_messages_under_skew() {
    let dftt = run(quick(6, Algorithm::Dftt));
    for other in [Algorithm::Dft, Algorithm::Bloom, Algorithm::Sketch] {
        let r = run(quick(6, other));
        assert!(
            dftt.messages_per_result < r.messages_per_result,
            "DFTT {} vs {} {}",
            dftt.messages_per_result,
            other,
            r.messages_per_result
        );
    }
}

#[test]
fn uniform_data_triggers_worst_case_fallback() {
    let r = run(quick(6, Algorithm::Dft)
        .workload(WorkloadKind::Uniform)
        .locality(0.0));
    assert!(
        r.fallback_fraction > 0.5,
        "detector should dominate under uniform data: {}",
        r.fallback_fraction
    );
    // And the error should respect (roughly) the Theorem 1 regime — far
    // from exact, far from total loss.
    assert!(r.epsilon > 0.4 && r.epsilon < 0.95, "eps {}", r.epsilon);
}

#[test]
fn skewed_data_does_not_trigger_fallback() {
    let r = run(quick(6, Algorithm::Dft));
    assert!(
        r.fallback_fraction < 0.2,
        "skewed data should route by correlation: {}",
        r.fallback_fraction
    );
}

#[test]
fn log_n_budget_reduces_error() {
    let t1 = run(quick(8, Algorithm::Dft).target(TargetComplexity::Constant(1.0)));
    let tlog = run(quick(8, Algorithm::Dft).target(TargetComplexity::LogN));
    assert!(
        tlog.epsilon < t1.epsilon,
        "more budget, less error: T=1 {} vs T=logN {}",
        t1.epsilon,
        tlog.epsilon
    );
    assert!(tlog.msgs_per_tuple > t1.msgs_per_tuple);
}

#[test]
fn reports_are_deterministic_per_seed() {
    let a = run(quick(4, Algorithm::Dftt));
    let b = run(quick(4, Algorithm::Dftt));
    assert_eq!(a, b);
    let c = run(quick(4, Algorithm::Dftt).seed(12));
    assert_ne!(a.reported_matches, c.reported_matches);
}

#[test]
fn message_budget_is_respected() {
    for target in [1.0, 2.0] {
        let r = run(quick(8, Algorithm::Dft).target(TargetComplexity::Constant(target)));
        assert!(
            r.msgs_per_tuple < target * 1.3 + 0.1,
            "target {target}: measured {} msgs/tuple",
            r.msgs_per_tuple
        );
    }
}

#[test]
fn overhead_stays_modest_fraction_of_data() {
    let r = run(quick(6, Algorithm::Dft).tuples(8_000));
    assert!(
        r.overhead_ratio < 0.5,
        "summary overhead ratio {} too large",
        r.overhead_ratio
    );
    assert!(r.overhead_bytes > 0, "summaries must actually flow");
}

#[test]
fn calibration_reaches_fifteen_percent_under_skew() {
    let (r, target) = quick(6, Algorithm::Dft)
        .tuples(6_000)
        .run_at_epsilon(0.15)
        .expect("valid configuration");
    assert!(
        r.epsilon <= 0.16 || (target - 5.0).abs() < 1e-9,
        "eps {} at target {target}",
        r.epsilon
    );
}

#[test]
fn bounded_cutoff_loses_messages_under_saturation() {
    // 5 900 arrivals/s/node of this schedule's 6.8-byte mean tuple frame
    // offer each 90 kbps link 3.6× what it carries.
    let drained = run(quick(4, Algorithm::Base).arrival_rate(5_900.0));
    let cut = run(quick(4, Algorithm::Base)
        .arrival_rate(5_900.0)
        .cutoff_grace(100));
    assert!(
        cut.reported_matches < drained.reported_matches,
        "cutoff must lose queued results: {} vs {}",
        cut.reported_matches,
        drained.reported_matches
    );
}

#[test]
fn time_windows_work_end_to_end() {
    // The paper claims the method is agnostic to the window definition;
    // run the cluster with a 1-second time window instead of a count.
    let timed = |algorithm| {
        let mut cfg = quick(4, algorithm);
        cfg.time_window_ms = Some(1_000);
        cfg
    };
    let base = run(timed(Algorithm::Base));
    assert!(
        base.epsilon < 0.08,
        "broadcast with time windows should stay near-exact: {}",
        base.epsilon
    );
    let dftt = run(timed(Algorithm::Dftt));
    assert!((0.0..=1.0).contains(&dftt.epsilon));
    assert!(dftt.messages < base.messages);
}

#[test]
fn lossy_links_degrade_accuracy() {
    use dsjoin::simnet::LinkConfig;
    let clean = run(quick(4, Algorithm::Base));
    let lossy = run(quick(4, Algorithm::Base).link(LinkConfig::paper_wan().with_loss(0.3)));
    // With geographic skew most pairs are co-located, so losing 30% of the
    // remote probes costs roughly 0.3 x the remote share of the result.
    assert!(
        lossy.epsilon > clean.epsilon + 0.05,
        "30% loss must cost accuracy: {} vs {}",
        lossy.epsilon,
        clean.epsilon
    );
}

#[test]
fn report_exposes_load_imbalance() {
    // Zipf + geographic partitioning concentrates load on the node owning
    // the popular head range.
    let skew = run(quick(4, Algorithm::Base));
    assert!(
        skew.load_imbalance > 1.3,
        "head-owning node should run hot: {}",
        skew.load_imbalance
    );
    assert_eq!(skew.per_node_arrivals.len(), 4);
    assert_eq!(
        skew.per_node_arrivals.iter().sum::<u64>(),
        skew.tuples as u64
    );
    // Uniform keys spread evenly.
    let flat = run(quick(4, Algorithm::Base)
        .workload(WorkloadKind::Uniform)
        .locality(0.0));
    assert!(flat.load_imbalance < 1.15, "{}", flat.load_imbalance);
    assert_eq!(flat.dropped_messages, 0);
}

#[test]
fn replayed_trace_reproduces_generator_run() {
    use dsjoin::stream::trace::Trace;
    // The schedule a configuration generates, replayed as a trace, gives
    // the same experiment report.
    let cfg = quick(4, Algorithm::Dftt);
    let trace = Trace::from_arrivals(cfg.arrivals());
    assert_eq!(trace.len(), cfg.tuples);
    assert_eq!(run(cfg.clone().with_trace(trace)), run(cfg));
}
