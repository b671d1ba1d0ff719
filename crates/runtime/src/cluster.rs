//! One OS thread per node, in-process mailboxes as links.

use crate::harness::{self, Inbox, Mailbox, Pacing, Run};
use crate::sync::Ordering;
use dsj_core::obs;
use dsj_core::{ClusterConfig, Msg, NodeMetrics, Transport, TransportEvent};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Error raised when the live cluster fails to run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// The configuration failed [`ClusterConfig::validate`] — rejected
    /// before any thread is spawned.
    Config(dsj_core::RunError),
    /// A node thread panicked.
    NodePanicked(u16),
    /// A channel closed unexpectedly (a peer died mid-run).
    ChannelClosed,
    /// A socket operation failed on the TCP backend.
    Io {
        /// The node whose socket failed.
        node: u16,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A TCP link's preface named another wire version, or none: the link
    /// is refused before a frame crosses it, since frames no longer carry
    /// their version.
    Version {
        /// The node that refused the link.
        node: u16,
        /// The wire version this node speaks ([`dsj_core::wire::VERSION`]).
        ours: u8,
        /// The version the peer named; `None` when its preface lacks the
        /// magic, as a version-4 or older peer's bare node id does.
        theirs: Option<u8>,
    },
    /// Bytes arriving on a TCP link failed to decode as a codec frame.
    Decode {
        /// The node that received the undecodable bytes.
        node: u16,
        /// The wire error, rendered.
        detail: String,
    },
    /// Several distinct transport failures surfaced in one run — the
    /// harness aggregates every reported failure (deduplicated by node
    /// and kind, in first-seen order) instead of dropping all but the
    /// first.
    Faults(Vec<LiveError>),
}

impl LiveError {
    /// Deduplication key: failure kind plus the node it implicates (when
    /// the variant names one). Two failures with the same key are the
    /// same event reported twice — e.g. every peer observing the same
    /// closed channel.
    pub(crate) fn kind_key(&self) -> (u8, Option<u16>) {
        match self {
            LiveError::Config(_) => (0, None),
            LiveError::NodePanicked(id) => (1, Some(*id)),
            LiveError::ChannelClosed => (2, None),
            LiveError::Io { node, .. } => (3, Some(*node)),
            LiveError::Decode { node, .. } => (4, Some(*node)),
            LiveError::Faults(_) => (5, None),
            LiveError::Version { node, .. } => (6, Some(*node)),
        }
    }
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            LiveError::NodePanicked(id) => write!(f, "node thread {id} panicked"),
            LiveError::ChannelClosed => write!(f, "inter-node channel closed unexpectedly"),
            LiveError::Io { node, detail } => write!(f, "socket error at node {node}: {detail}"),
            LiveError::Version { node, ours, theirs } => {
                write!(
                    f,
                    "node {node} refused a link: the peer speaks wire version "
                )?;
                match theirs {
                    Some(v) => write!(f, "{v}")?,
                    None => write!(f, "4 or older (no versioned preface)")?,
                }
                write!(f, ", this node {ours}")
            }
            LiveError::Decode { node, detail } => {
                write!(f, "undecodable frame received at node {node}: {detail}")
            }
            LiveError::Faults(all) => {
                write!(f, "{} transport failures: ", all.len())?;
                for (i, e) in all.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dsj_core::RunError> for LiveError {
    fn from(e: dsj_core::RunError) -> Self {
        LiveError::Config(e)
    }
}

/// Per-node transport-layer counters from one live run — socket
/// mechanics, not algorithm behavior, so they are *excluded* from the
/// cross-backend equivalence fingerprint (backends legitimately differ
/// here while producing identical joins).
///
/// All zeros on backends without a byte-level transport (channels).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportStats {
    /// Wire frames this node fully wrote to its peers.
    pub frames_sent: u64,
    /// Frame bytes this node's write queues accepted, link prefaces left
    /// out: what the engine's byte model (`data_bytes_sent` +
    /// `overhead_bytes_sent`) must equal.
    pub bytes_sent: u64,
    /// Successful write syscalls (each moved ≥ 1 byte); coalescing makes
    /// `frames_sent / write_syscalls` > 1.
    pub write_syscalls: u64,
    /// Read syscalls on this node's inbound links that returned ≥ 1 byte.
    pub read_syscalls: u64,
    /// Sum over peers of each pending-write queue's high-water mark of
    /// bytes parked while that peer's socket was full.
    pub pending_peak_bytes: u64,
    /// How often this node's thread found neither queued events nor
    /// readable sockets and waited on its latch.
    pub reactor_wakeups: u64,
}

/// What one live run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOutcome {
    /// Exact result-set size (post warm-up) for the configuration's
    /// workload, computed by the sequential ground truth.
    pub truth_matches: u64,
    /// Matches the live cluster reported.
    pub reported_matches: u64,
    /// ε = (|Ψ| − |Ψ̂|)/|Ψ|.
    pub epsilon: f64,
    /// Messages exchanged between node threads.
    pub messages: u64,
    /// Aggregated per-node counters.
    pub totals: NodeMetrics,
    /// Per-node counters, indexed by node id.
    pub per_node: Vec<NodeMetrics>,
    /// Per-node order-sensitive digests of every counted probe — equal
    /// digests mean equal match sets *in the same order* (see
    /// [`dsj_core::NodeEngine::match_digest`]).
    pub match_digests: Vec<u64>,
    /// Per-node transport counters (empty on backends that don't report
    /// any). Deliberately *not* part of equivalence fingerprints.
    pub transport_per_node: Vec<TransportStats>,
    /// Injection → end-of-processing latency (µs) of stamped arrivals,
    /// merged across nodes. Populated only by open-loop (load-generator)
    /// runs; closed-loop feeds don't stamp arrivals, so this stays
    /// empty — and, like transport counters, it is excluded from
    /// equivalence fingerprints.
    pub delivery_latency_us: obs::Histogram,
    /// Real elapsed time from first arrival to quiescence.
    pub wall_time: Duration,
    /// Tuples processed per wall-clock second.
    pub tuples_per_sec: f64,
}

/// [`Transport`] over in-process mailboxes: the node's own [`Inbox`] plus
/// every peer's [`Mailbox`]. `send` queues the message at once; `flush`
/// wakes each peer sent to since the last flush, once.
pub(crate) struct ChannelTransport {
    me: u16,
    inbox: Inbox,
    peers: Vec<Arc<Mailbox>>,
    /// `kick_due[j]`: peer `j` was sent to since the last flush.
    kick_due: Vec<bool>,
}

impl ChannelTransport {
    /// Node `me` over its own `inbox` and every node's mailbox.
    pub(crate) fn new(me: u16, inbox: Inbox, peers: Vec<Arc<Mailbox>>) -> Self {
        ChannelTransport {
            me,
            inbox,
            kick_due: vec![false; peers.len()],
            peers,
        }
    }
}

impl Transport for ChannelTransport {
    type Error = LiveError;

    fn send(&mut self, to: u16, msg: Msg) -> Result<(), LiveError> {
        self.inbox.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Err(closed) =
            self.peers[to as usize].push(TransportEvent::Net { from: self.me, msg })
        {
            self.inbox.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(closed);
        }
        self.kick_due[to as usize] = true;
        Ok(())
    }

    /// Blocks for the first event; whatever else was queued between kicks
    /// comes along in the same frame.
    fn poll_frame(&mut self, max: usize, frame: &mut Vec<TransportEvent>) -> Result<(), LiveError> {
        while {
            self.inbox.drain(max, frame);
            frame.is_empty()
        } {
            self.inbox.wait(Inbox::IDLE_WAIT);
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), LiveError> {
        Mailbox::kick_due(&self.peers, &mut self.kick_due);
        Ok(())
    }

    fn now_us(&mut self) -> u64 {
        self.inbox.now_us()
    }

    fn quiesce(&mut self) {
        self.inbox.quiesce();
    }
}

/// Runs [`dsj_core::NodeEngine`]s as live threads.
///
/// Message transport is unbounded in-process queues with no injected latency —
/// the point is concurrency correctness and raw processing speed, not the
/// WAN model (that is `dsj-simnet`'s job). With effectively instant
/// links, accuracy is bounded below by the simulated runs' (probes never
/// go stale in flight).
pub struct LiveCluster;

impl LiveCluster {
    /// Runs the configuration's full workload through a live threaded
    /// cluster at full speed and reports the outcome.
    ///
    /// # Errors
    ///
    /// [`LiveError::Config`] for configurations
    /// [`ClusterConfig::validate`] rejects; [`LiveError::NodePanicked`] if
    /// any node thread dies.
    pub fn run(cfg: &ClusterConfig) -> Result<LiveOutcome, LiveError> {
        Self::run_paced(cfg, Pacing::Freerun)
    }

    /// Runs the configuration's workload with an explicit closed-loop
    /// [`Pacing`]. [`Pacing::Lockstep`] makes the run deterministic and
    /// bit-equal to the simulated backend's
    /// [`ClusterConfig::run_lockstep`]; see the crate docs.
    ///
    /// # Errors
    ///
    /// As for [`LiveCluster::run`].
    pub fn run_paced(cfg: &ClusterConfig, pacing: Pacing) -> Result<LiveOutcome, LiveError> {
        harness::run_paced(cfg, pacing, Self::spawn)
    }

    /// Runs the configuration's workload open-loop: arrivals are injected
    /// on a virtual-time schedule at `spec`'s target rate regardless of
    /// how fast the cluster drains them, and per-tuple delivery latency is
    /// recorded into the outcome's histogram. The load-generator entry
    /// point; see [`OpenLoop`](crate::OpenLoop).
    ///
    /// # Errors
    ///
    /// As for [`LiveCluster::run`].
    pub fn run_open_loop(
        cfg: &ClusterConfig,
        spec: &harness::OpenLoop,
    ) -> Result<harness::LoadRun, LiveError> {
        harness::run_open_loop(cfg, spec, Self::spawn)
    }

    /// Spawns the node threads over channel transports (every transport
    /// gets every mailbox): the cluster the driver feeds, for both entry
    /// points.
    pub(crate) fn spawn(cfg: &ClusterConfig) -> Result<Run, LiveError> {
        let mut run = Run::new(cfg.n);
        run.spawn_nodes(cfg, |run, me, inbox| {
            ChannelTransport::new(me, inbox, run.mailboxes.clone())
        });
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsj_core::{Algorithm, Cluster};
    use dsj_stream::gen::WorkloadKind;

    fn quick(n: u16, algorithm: Algorithm) -> ClusterConfig {
        ClusterConfig::new(n, algorithm)
            .window(128)
            .domain(1 << 9)
            .tuples(3_000)
            .workload(WorkloadKind::Zipf { alpha: 0.4 })
            .seed(7)
    }

    #[test]
    fn base_live_cluster_is_exact() {
        let outcome = LiveCluster::run(&quick(4, Algorithm::Base)).unwrap();
        // Backpressure bounds how far a probe trails its destination's
        // window, far inside the window's grace: broadcast is exact.
        assert_eq!(
            (outcome.reported_matches, outcome.totals.late_probes),
            (outcome.truth_matches, 0),
            "eps {}",
            outcome.epsilon
        );
        assert_eq!(outcome.epsilon, 0.0);
        assert!(
            outcome.tuples_per_sec > 1_000.0,
            "{}",
            outcome.tuples_per_sec
        );
    }

    #[test]
    fn dftt_live_cluster_approximates() {
        let outcome = LiveCluster::run(&quick(4, Algorithm::Dftt)).unwrap();
        assert!(outcome.epsilon < 0.6, "eps {}", outcome.epsilon);
        assert!(outcome.reported_matches > 0);
        // DFTT must move far fewer messages than broadcast.
        let base = LiveCluster::run(&quick(4, Algorithm::Base)).unwrap();
        assert!(outcome.messages < base.messages / 2);
    }

    #[test]
    fn all_algorithms_run_live() {
        for algorithm in Algorithm::ALL {
            let outcome = LiveCluster::run(&quick(3, algorithm)).unwrap();
            assert!(
                (0.0..=1.0).contains(&outcome.epsilon),
                "{algorithm}: {}",
                outcome.epsilon
            );
        }
    }

    #[test]
    fn live_run_emits_observation_record_when_captured() {
        let cfg = quick(3, Algorithm::Dft);
        let (outcome, regs) = obs::captured(|| LiveCluster::run(&cfg).unwrap());
        assert_eq!(regs.len(), 1);
        let reg = &regs[0];
        assert_eq!(reg.counter("runs"), 1);
        assert_eq!(reg.counter("live.messages"), outcome.messages);
        assert_eq!(reg.counter("truth_matches"), outcome.truth_matches);
        for phase in ["workload", "spawn", "inject", "drain", "join"] {
            assert!(reg.phase(phase).is_some(), "missing phase {phase}");
        }
        let total_arrivals: u64 = (0..cfg.n)
            .map(|me| reg.counter(&format!("node.{me:02}.arrivals")))
            .sum();
        assert_eq!(total_arrivals, cfg.tuples as u64);
    }

    #[test]
    fn invalid_config_rejected_before_spawning() {
        let err = LiveCluster::run(&quick(1, Algorithm::Base)).unwrap_err();
        assert_eq!(err, LiveError::Config(dsj_core::RunError::TooFewNodes(1)));
        let err = LiveCluster::run(&quick(4, Algorithm::Dft).tuples(0)).unwrap_err();
        assert!(matches!(
            err,
            LiveError::Config(dsj_core::RunError::NoTuples)
        ));
    }

    #[test]
    fn send_to_a_dead_peer_gives_its_increment_back() {
        let mut run = Run::new(2);
        drop(run.inboxes.pop());
        let mut node = ChannelTransport::new(0, run.inboxes.remove(0), run.mailboxes.clone());
        let tuple = dsj_stream::Tuple::new(dsj_stream::StreamId::R, 1, 0, 0);
        let piggyback = Vec::new();
        assert_eq!(
            node.send(1, Msg::Tuple { tuple, piggyback }),
            Err(LiveError::ChannelClosed)
        );
        assert_eq!(run.in_flight.load(Ordering::SeqCst), 0);
        // The feed's injection into the dead node gives its count back too.
        assert_eq!(run.inject(1, tuple, None), Err(LiveError::ChannelClosed));
        assert_eq!(run.in_flight(), 0);
    }

    #[test]
    fn local_matches_are_run_invariant() {
        // Local joins depend only on each node's own arrival order, which
        // the feed fixes — so they are identical across live runs even
        // though remote probe timing races.
        let a = LiveCluster::run(&quick(4, Algorithm::Dft)).unwrap();
        let b = LiveCluster::run(&quick(4, Algorithm::Dft)).unwrap();
        assert_eq!(a.totals.local_matches, b.totals.local_matches);
        assert_eq!(a.truth_matches, b.truth_matches);
    }

    #[test]
    fn per_node_outcome_is_consistent_with_totals() {
        let outcome = LiveCluster::run(&quick(4, Algorithm::Base)).unwrap();
        assert_eq!(outcome.per_node.len(), 4);
        assert_eq!(outcome.match_digests.len(), 4);
        let mut totals = NodeMetrics::default();
        for m in &outcome.per_node {
            totals.absorb(m);
        }
        assert_eq!(totals, outcome.totals);
    }
}
