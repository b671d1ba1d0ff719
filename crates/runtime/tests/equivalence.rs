//! Cross-backend equivalence: the same configuration, driven in lockstep,
//! produces *identical* per-node results on all three backends —
//! deterministic simulation, threads-over-channels, and loopback TCP
//! (nonblocking sockets read by their node's thread, coalesced vectored
//! writes).
//!
//! This is the strongest statement the transport refactor can make: the
//! node logic is genuinely transport-agnostic, the wire codec is lossless,
//! and the three drive loops deliver the same events in the same order.
//! Equivalence requires the clock-free configuration subset — count-bounded
//! windows (the default), no bandwidth governor, lossless links — because
//! virtual and wall clocks necessarily disagree. Pacing must be
//! [`Pacing::Lockstep`]: each arrival's full causal cone (at most one
//! probe per peer, and probes trigger no further sends) lands before the
//! next arrival moves, so per-node event order is the same everywhere.

use dsj_core::{Algorithm, ClusterConfig, NodeMetrics};
use dsj_runtime::{LiveCluster, Pacing, TcpCluster};
use dsj_simnet::LinkConfig;
use dsj_stream::gen::WorkloadKind;

fn cfg(n: u16, algorithm: Algorithm) -> ClusterConfig {
    ClusterConfig::new(n, algorithm)
        .window(96)
        .domain(1 << 9)
        .tuples(1_200)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        // Latency is irrelevant under lockstep (every arrival drains
        // fully), but losing messages is not: keep links perfect.
        .link(LinkConfig::instant())
        .seed(11)
}

/// One backend's per-node results, reduced to the comparable core.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    truth_matches: u64,
    reported_matches: u64,
    per_node: Vec<NodeMetrics>,
    match_digests: Vec<u64>,
}

fn check_equivalence(n: u16, algorithm: Algorithm) {
    let cfg = cfg(n, algorithm);
    let sim = cfg.run_lockstep().expect("simnet lockstep");
    let threads = LiveCluster::run_paced(&cfg, Pacing::Lockstep).expect("threads lockstep");
    let tcp = TcpCluster::run_paced(&cfg, Pacing::Lockstep).expect("tcp lockstep");

    let from_sim = Fingerprint {
        truth_matches: sim.truth_matches,
        reported_matches: sim.reported_matches,
        per_node: sim.per_node.clone(),
        match_digests: sim.match_digests.clone(),
    };
    let from_threads = Fingerprint {
        truth_matches: threads.truth_matches,
        reported_matches: threads.reported_matches,
        per_node: threads.per_node.clone(),
        match_digests: threads.match_digests.clone(),
    };
    let from_tcp = Fingerprint {
        truth_matches: tcp.truth_matches,
        reported_matches: tcp.reported_matches,
        per_node: tcp.per_node.clone(),
        match_digests: tcp.match_digests.clone(),
    };

    assert_eq!(
        from_sim, from_threads,
        "simnet vs threads diverged for {algorithm} at n={n}"
    );
    assert_eq!(
        from_threads, from_tcp,
        "threads vs tcp diverged for {algorithm} at n={n}"
    );
    // Sanity: the run did real work — every node processed arrivals, and
    // the cluster moved messages.
    assert!(from_sim.per_node.iter().all(|m| m.arrivals > 0));
    let messages: u64 = from_sim
        .per_node
        .iter()
        .map(|m| m.tuple_msgs_sent + m.summary_msgs_sent)
        .sum();
    assert!(messages > 0, "{algorithm} at n={n} sent no messages");
}

#[test]
fn base_is_equivalent_across_backends() {
    check_equivalence(3, Algorithm::Base);
    check_equivalence(5, Algorithm::Base);
}

#[test]
fn dft_is_equivalent_across_backends() {
    check_equivalence(3, Algorithm::Dft);
    check_equivalence(5, Algorithm::Dft);
}

#[test]
fn dftt_is_equivalent_across_backends() {
    check_equivalence(3, Algorithm::Dftt);
    check_equivalence(5, Algorithm::Dftt);
}

#[test]
fn bloom_is_equivalent_across_backends() {
    check_equivalence(3, Algorithm::Bloom);
    check_equivalence(5, Algorithm::Bloom);
}

#[test]
fn sketch_is_equivalent_across_backends() {
    check_equivalence(3, Algorithm::Sketch);
    check_equivalence(5, Algorithm::Sketch);
}

#[test]
fn lockstep_live_runs_are_reproducible() {
    // Beyond matching the simulation once: repeated lockstep runs of the
    // racing backends are bit-identical run to run.
    let cfg = cfg(4, Algorithm::Dftt);
    let a = LiveCluster::run_paced(&cfg, Pacing::Lockstep).unwrap();
    let b = LiveCluster::run_paced(&cfg, Pacing::Lockstep).unwrap();
    assert_eq!(a.per_node, b.per_node);
    assert_eq!(a.match_digests, b.match_digests);
    let c = TcpCluster::run_paced(&cfg, Pacing::Lockstep).unwrap();
    assert_eq!(a.match_digests, c.match_digests);
}
