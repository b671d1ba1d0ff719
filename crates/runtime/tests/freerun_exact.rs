//! Free-running BASE is exact on both live backends even when the window
//! is small against the cluster: the closed loop's in-flight cap keeps
//! every probe within its destination's grace of one window, so no probe
//! is late and every match is found.

use dsj_core::{Algorithm, ClusterConfig};
use dsj_runtime::{LiveCluster, LiveOutcome, TcpCluster};
use dsj_stream::gen::WorkloadKind;

fn cfg(n: u16, window: usize) -> ClusterConfig {
    ClusterConfig::new(n, Algorithm::Base)
        .window(window)
        .domain(1 << 9)
        .tuples(20_000)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        .seed(3)
}

fn assert_exact(outcome: &LiveOutcome, what: &str) {
    assert_eq!(
        (outcome.reported_matches, outcome.totals.late_probes),
        (outcome.truth_matches, 0),
        "{what}: eps {}",
        outcome.epsilon
    );
}

#[test]
fn base_is_exact_when_the_window_is_small_against_the_cluster() {
    for (n, window) in [(8, 64), (16, 32)] {
        let cfg = cfg(n, window);
        let what = format!("N {n}, W {window}");
        assert_exact(
            &LiveCluster::run(&cfg).unwrap(),
            &format!("threads, {what}"),
        );
        assert_exact(&TcpCluster::run(&cfg).unwrap(), &format!("TCP, {what}"));
    }
}
