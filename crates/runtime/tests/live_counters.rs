//! What live runs count beside the join, on both live backends: the
//! delivery latency of every open-loop arrival, and the read syscalls that
//! brought a TCP node its frames.

use dsj_core::{Algorithm, ClusterConfig};
use dsj_runtime::{LiveCluster, LiveError, LiveOutcome, LoadRun, OpenLoop, TcpCluster};
use dsj_stream::gen::WorkloadKind;

fn cfg() -> ClusterConfig {
    ClusterConfig::new(4, Algorithm::Dftt)
        .window(128)
        .domain(1 << 9)
        .tuples(3_000)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        .seed(7)
}

/// A backend's name, closed-loop run and open-loop run.
type Backend = (
    &'static str,
    fn(&ClusterConfig) -> Result<LiveOutcome, LiveError>,
    fn(&ClusterConfig, &OpenLoop) -> Result<LoadRun, LiveError>,
);

const BACKENDS: [Backend; 2] = [
    ("threads", LiveCluster::run, LiveCluster::run_open_loop),
    ("tcp", TcpCluster::run, TcpCluster::run_open_loop),
];

#[test]
fn an_open_loop_run_records_one_latency_per_injected_arrival() {
    for (backend, closed, open) in BACKENDS {
        let load = open(&cfg(), &OpenLoop::new(100_000.0)).unwrap();
        assert!(load.injected > 0, "{backend}");
        assert_eq!(
            load.outcome.delivery_latency_us.count(),
            load.injected as u64,
            "{backend}: one sample per injected arrival"
        );
        let outcome = closed(&cfg()).unwrap();
        assert_eq!(
            outcome.delivery_latency_us.count(),
            0,
            "{backend}: a closed loop stamps no arrival"
        );
    }
}

#[test]
fn tcp_nodes_count_the_reads_that_brought_their_frames() {
    let threads = LiveCluster::run(&cfg()).unwrap();
    let reads: u64 = threads
        .transport_per_node
        .iter()
        .map(|t| t.read_syscalls)
        .sum();
    assert_eq!(reads, 0, "the threads backend reads no socket");
    let tcp = TcpCluster::run(&cfg()).unwrap();
    assert_eq!(tcp.transport_per_node.len(), 4);
    let mut decoding = 0;
    for (node, (m, t)) in tcp.per_node.iter().zip(&tcp.transport_per_node).enumerate() {
        if m.tuples_received + m.summaries_received > 0 {
            decoding += 1;
            assert!(
                t.read_syscalls > 0,
                "node {node} decoded frames it never read"
            );
        }
    }
    assert!(decoding > 0, "no node decoded a frame");
}
