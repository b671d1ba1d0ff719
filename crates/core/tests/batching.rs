//! Frame boundaries are invisible: batched execution equivalence.
//!
//! The engine's contract for [`NodeEngine::on_frame`] is that chopping a
//! node's event sequence into frames of *any* size changes nothing — not
//! the routing decisions, not the counters, not the order-sensitive match
//! digest, not a single produced message. This suite pins that contract
//! for every strategy at two cluster sizes:
//!
//! 1. **Record**: drive a cluster round-robin one event at a time (the
//!    unbatched baseline), logging each node's full per-node event
//!    sequence and outbound transcript.
//! 2. **Replay**: feed each node the *same* per-node sequence chopped
//!    into frames (an awkward odd size and the run loop's [`FRAME_MAX`])
//!    and require bit-identical metrics, digests and transcripts.

use dsj_core::{
    Algorithm, ClusterConfig, Msg, NodeEngine, NodeMetrics, Transport, TransportEvent, FRAME_MAX,
};
use dsj_stream::gen::WorkloadKind;
use dsj_stream::Tuple;
use std::collections::VecDeque;
use std::convert::Infallible;

/// A cloneable stand-in for [`TransportEvent`] so recorded sequences can
/// be replayed (the transport event itself is consume-once).
#[derive(Clone)]
enum Ev {
    Arrival(Tuple),
    Net { from: u16, msg: Msg },
}

fn to_transport(ev: &Ev) -> TransportEvent {
    match ev {
        Ev::Arrival(tuple) => TransportEvent::Arrival(*tuple, None),
        Ev::Net { from, msg } => TransportEvent::Net {
            from: *from,
            msg: msg.clone(),
        },
    }
}

/// A transcript port: sends are logged for the driver to route; the clock
/// is frozen so per-frame clock amortization cannot distinguish variants.
#[derive(Default)]
struct Port {
    sent: Vec<(u16, Msg)>,
}

impl Transport for Port {
    type Error = Infallible;
    fn send(&mut self, to: u16, msg: Msg) -> Result<(), Infallible> {
        self.sent.push((to, msg));
        Ok(())
    }
    fn poll(&mut self) -> Result<TransportEvent, Infallible> {
        // The drivers below feed frames directly; nothing polls.
        Ok(TransportEvent::Shutdown)
    }
    fn now_us(&mut self) -> u64 {
        0
    }
    fn quiesce(&mut self) {}
}

struct Recorded {
    /// Per-node event sequences, in processing order.
    logs: Vec<Vec<Ev>>,
    transcripts: Vec<Vec<(u16, Msg)>>,
    metrics: Vec<NodeMetrics>,
    digests: Vec<u64>,
}

/// The unbatched baseline: round-robin, one event per node per turn,
/// sends routed into peer queues, until the cluster drains.
fn record(cfg: &ClusterConfig) -> Recorded {
    let n = cfg.n as usize;
    let mut engines: Vec<NodeEngine> = (0..cfg.n).map(|me| cfg.build_node(me)).collect();
    let mut ports: Vec<Port> = (0..n).map(|_| Port::default()).collect();
    let mut queues: Vec<VecDeque<Ev>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut logs: Vec<Vec<Ev>> = (0..n).map(|_| Vec::new()).collect();
    for a in cfg.arrivals() {
        queues[a.node as usize].push_back(Ev::Arrival(a.tuple()));
    }
    let mut frame = Vec::with_capacity(1);
    loop {
        let mut progressed = false;
        for i in 0..n {
            let Some(ev) = queues[i].pop_front() else {
                continue;
            };
            progressed = true;
            logs[i].push(ev.clone());
            frame.clear();
            frame.push(to_transport(&ev));
            let before = ports[i].sent.len();
            let shutdown = engines[i].on_frame(&mut frame, &mut ports[i]).unwrap();
            assert!(!shutdown);
            let routed: Vec<(u16, Msg)> = ports[i].sent[before..].to_vec();
            for (to, msg) in routed {
                queues[to as usize].push_back(Ev::Net {
                    from: i as u16,
                    msg,
                });
            }
        }
        if !progressed {
            break;
        }
    }
    Recorded {
        logs,
        transcripts: ports.into_iter().map(|p| p.sent).collect(),
        metrics: engines.iter().map(|e| *e.metrics()).collect(),
        digests: engines.iter().map(|e| e.match_digest()).collect(),
    }
}

/// One node's outbound wire transcript: `(destination, message)` in send
/// order.
type Transcript = Vec<(u16, Msg)>;

/// Replays each node's recorded sequence in frames of `chunk` events and
/// returns (metrics, digests, transcripts).
fn replay(
    cfg: &ClusterConfig,
    logs: &[Vec<Ev>],
    chunk: usize,
) -> (Vec<NodeMetrics>, Vec<u64>, Vec<Transcript>) {
    let mut metrics = Vec::new();
    let mut digests = Vec::new();
    let mut transcripts = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let mut engine = cfg.build_node(i as u16);
        let mut port = Port::default();
        for events in log.chunks(chunk) {
            let mut frame: Vec<TransportEvent> = events.iter().map(to_transport).collect();
            let shutdown = engine.on_frame(&mut frame, &mut port).unwrap();
            assert!(!shutdown);
            assert!(frame.is_empty(), "on_frame must drain its frame");
        }
        metrics.push(*engine.metrics());
        digests.push(engine.match_digest());
        transcripts.push(port.sent);
    }
    (metrics, digests, transcripts)
}

fn config(n: u16, algorithm: Algorithm) -> ClusterConfig {
    ClusterConfig::new(n, algorithm)
        .window(96)
        .domain(1 << 9)
        .tuples(1_200)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        .seed(11)
}

#[test]
fn frame_boundaries_do_not_change_behavior() {
    for n in [3u16, 5] {
        for algorithm in Algorithm::ALL {
            let cfg = config(n, algorithm);
            let recorded = record(&cfg);
            // The baseline must exercise the batched surface for real:
            // every strategy sends traffic, and every node saw events.
            assert!(
                recorded.transcripts.iter().any(|t| !t.is_empty()),
                "{algorithm} n={n}: no messages exchanged"
            );
            assert!(recorded
                .logs
                .iter()
                .any(|l| l.iter().any(|e| matches!(e, Ev::Net { .. }))));
            for chunk in [7usize, FRAME_MAX] {
                let (metrics, digests, transcripts) = replay(&cfg, &recorded.logs, chunk);
                assert_eq!(
                    metrics, recorded.metrics,
                    "{algorithm} n={n} chunk={chunk}: metrics diverged"
                );
                assert_eq!(
                    digests, recorded.digests,
                    "{algorithm} n={n} chunk={chunk}: match digests diverged"
                );
                assert_eq!(
                    transcripts, recorded.transcripts,
                    "{algorithm} n={n} chunk={chunk}: routing decisions diverged"
                );
            }
        }
    }
}
