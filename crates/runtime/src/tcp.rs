//! N nodes over real loopback TCP sockets, framed with the wire codec.
//!
//! One nonblocking full-duplex socket per *unordered* node pair
//! (N(N−1)/2 connections). Every node thread reads its own inbound links
//! ([`crate::reactor`]) and writes through per-peer coalescing queues with
//! vectored writes: N threads in total, which is what lets the backend run
//! N = 128.
//!
//! One process opens every link, on one thread, so no byte on a link has
//! to say whose it is: for pair `{i, j}` it connects to node `i`'s
//! listener and accepts that same connection ([`pair`]), refusing an
//! accepted socket whose peer is not the one it dialed. Both ends then
//! speak this build's codec from the first frame. Codec frames
//! ([`dsj_core::wire::FrameDecoder`], one per link, holding the link's base
//! and sender) are reassembled from the byte stream — frames arrive split
//! and coalesced at TCP's whim — and decoded messages join the arrivals
//! the feed queued in the node's mailbox in one engine frame. Node threads,
//! wake-ups, in-flight accounting and teardown are the backend-independent
//! harness shared with [`crate::LiveCluster`]; feeding, quiescence and the
//! tally are `dsj-core`'s driver.
//!
//! Everything stays on `127.0.0.1` with OS-assigned ports; nothing binds
//! a routable interface.

use crate::cluster::{LiveError, LiveOutcome, TransportStats};
use crate::harness::{self, Pacing, Run};
use crate::reactor::{OutLink, ReactorTransport, ReadLink};
use dsj_core::ClusterConfig;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

pub(crate) fn io_err(node: u16, e: &io::Error) -> LiveError {
    LiveError::Io {
        node,
        detail: e.to_string(),
    }
}

/// Opens the link of pair `{i, j}` on node `i`'s `listener`, bound at
/// `addr`: connects to it, then accepts that same connection, and returns
/// `(node i's end, node j's end)`, both nodelay and nonblocking. A
/// connection to a listener completes in the kernel before `accept` runs,
/// so the accepted socket is the dialed one unless another process
/// connected first; its peer address must be the dialed socket's own.
///
/// # Errors
///
/// [`LiveError::Io`] naming node `j` when the connect fails, and node `i`
/// when the accept fails or yields any other connection.
fn pair(
    listener: &TcpListener,
    addr: SocketAddr,
    i: u16,
    j: u16,
) -> Result<(TcpStream, TcpStream), LiveError> {
    let dialed = TcpStream::connect(addr).map_err(|e| io_err(j, &e))?;
    let io = |e: io::Error| io_err(i, &e);
    let (accepted, peer) = listener.accept().map_err(io)?;
    let ours = dialed.local_addr().map_err(io)?;
    if peer != ours {
        return Err(io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("accepted {peer}, not node {j}'s link from {ours}"),
        )));
    }
    for end in [&accepted, &dialed] {
        end.set_nodelay(true).map_err(io)?;
        end.set_nonblocking(true).map_err(io)?;
    }
    Ok((accepted, dialed))
}

/// Adapter shim for `benches/e2e`, which still names the transport it
/// wants; only the reactor topology exists. A later `benchmark` PR retires
/// it together with the two `_mode` entry points.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpMode {
    /// The only topology: see the module docs.
    Reactor,
}

/// Runs [`dsj_core::NodeEngine`]s as live threads joined by real loopback
/// TCP sockets carrying [`dsj_core::wire`]-framed messages.
///
/// Same concurrency structure as [`crate::LiveCluster`], but every
/// inter-node message round-trips through the binary codec and the
/// kernel's TCP stack — serialization cost, syscalls, stream
/// fragmentation and reassembly are all real.
pub struct TcpCluster;

impl TcpCluster {
    /// Runs the configuration's full workload over loopback TCP at full
    /// speed and reports the outcome.
    ///
    /// # Errors
    ///
    /// [`LiveError::Config`] for invalid configurations;
    /// [`LiveError::Io`] / [`LiveError::Decode`] for socket-level
    /// failures; [`LiveError::NodePanicked`] if a node thread dies.
    pub fn run(cfg: &ClusterConfig) -> Result<LiveOutcome, LiveError> {
        Self::run_paced(cfg, Pacing::Freerun)
    }

    /// Runs the configuration's workload with an explicit closed-loop
    /// [`Pacing`]. [`Pacing::Lockstep`] makes the run deterministic and
    /// equal, node for node, to the other two backends.
    ///
    /// # Errors
    ///
    /// As for [`TcpCluster::run`].
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
    /// As for [`TcpCluster::run`].
    pub fn run_open_loop(
        cfg: &ClusterConfig,
        spec: &harness::OpenLoop,
    ) -> Result<harness::LoadRun, LiveError> {
        harness::run_open_loop(cfg, spec, Self::spawn)
    }

    /// Adapter shim for `benches/e2e` (see [`TcpMode`]); call
    /// [`TcpCluster::run_paced`].
    #[doc(hidden)]
    pub fn run_paced_mode(
        cfg: &ClusterConfig,
        pacing: Pacing,
        _mode: TcpMode,
    ) -> Result<LiveOutcome, LiveError> {
        Self::run_paced(cfg, pacing)
    }

    /// Adapter shim for `benches/e2e` (see [`TcpMode`]); call
    /// [`TcpCluster::run_open_loop`].
    #[doc(hidden)]
    pub fn run_open_loop_mode(
        cfg: &ClusterConfig,
        spec: &harness::OpenLoop,
        _mode: TcpMode,
    ) -> Result<harness::LoadRun, LiveError> {
        Self::run_open_loop(cfg, spec)
    }

    /// Opens the socket topology — for pair `{i, j}` with `i < j`, the
    /// connection to node `i`'s listener, accepted on this thread — and
    /// spawns the node threads, each owning the read half of its inbound
    /// links: the cluster the driver feeds, for both entry points.
    fn spawn(cfg: &ClusterConfig) -> Result<Run, LiveError> {
        let mut run = Run::new(cfg.n);
        let n = cfg.n as usize;

        // Node i's listener is open only while its pairs are: one at a time.
        let mut links = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..cfg.n {
            let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err(i, &e))?;
            let addr = listener.local_addr().map_err(|e| io_err(i, &e))?;
            for j in i + 1..cfg.n {
                links.push((usize::from(i), usize::from(j), pair(&listener, addr, i, j)?));
            }
        }
        // `endpoint[a][b]` is node a's end of the {a, b} socket.
        let mut endpoint: Vec<Vec<Option<Arc<TcpStream>>>> = vec![vec![None; n]; n];
        for (i, j, (ours, theirs)) in links {
            endpoint[i][j] = Some(Arc::new(ours));
            endpoint[j][i] = Some(Arc::new(theirs));
        }

        // The i → j write half lives on node i's endpoint of the pair socket;
        // node j reads it (and retries its parked tail) on its own.
        let mut outlinks: Vec<Vec<Option<Arc<OutLink>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (i, row) in outlinks.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if let Some(stream) = &endpoint[i][j] {
                    *slot = Some(Arc::new(OutLink::new(i as u16, Arc::clone(stream))));
                }
            }
        }

        run.spawn_nodes(cfg, |run, me, inbox| {
            let at = me as usize;
            let inbound = (0..n)
                .filter_map(|from| {
                    let stream = Arc::clone(endpoint[at][from].as_ref()?);
                    let out = Arc::clone(outlinks[from][at].as_ref()?);
                    Some(ReadLink::new(stream, me, out))
                })
                .collect();
            let outbound = outlinks[at]
                .iter()
                .zip(&run.mailboxes)
                .map(|(link, mailbox)| Some((Arc::clone(link.as_ref()?), Arc::clone(mailbox))));
            let failures = Arc::clone(&run.failures);
            ReactorTransport::new(me, inbox, inbound, outbound, failures)
        });

        // Teardown: fold each link's counters into its writer's stats and
        // its reads into its reader's, and each node's own latch waits.
        let mailboxes = run.mailboxes.clone();
        run.finish = Some(Box::new(move || {
            let mut stats = vec![TransportStats::default(); n];
            for (writer, row) in outlinks.iter().enumerate() {
                for (reader, link) in row.iter().enumerate() {
                    let Some(link) = link else { continue };
                    let (frames, syscalls, peak, bytes) = link.stats();
                    let node = &mut stats[writer];
                    node.frames_sent += frames;
                    node.bytes_sent += bytes;
                    node.write_syscalls += syscalls;
                    node.pending_peak_bytes += peak;
                    stats[reader].read_syscalls += link.reads();
                }
            }
            for (node, mailbox) in stats.iter_mut().zip(&mailboxes) {
                node.reactor_wakeups = mailbox.waits();
            }
            stats
        }));
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsj_core::Algorithm;
    use dsj_stream::gen::WorkloadKind;

    fn quick(n: u16, algorithm: Algorithm) -> ClusterConfig {
        ClusterConfig::new(n, algorithm)
            .window(128)
            .domain(1 << 9)
            .tuples(2_000)
            .workload(WorkloadKind::Zipf { alpha: 0.4 })
            .seed(7)
    }

    #[test]
    fn pair_refuses_a_stranger_and_yields_the_dialed_connection() {
        // Another socket that reached the listener first is what `accept`
        // yields: refused, naming node 2 and the stranger's address.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stranger = TcpStream::connect(addr).unwrap();
        let from = stranger.local_addr().unwrap().to_string();
        match pair(&listener, addr, 2, 3) {
            Err(LiveError::Io { node: 2, detail }) => assert!(detail.contains(&from), "{detail}"),
            other => panic!("{other:?}"),
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (ours, theirs) = pair(&listener, addr, 2, 3).unwrap();
        assert_eq!(ours.peer_addr().unwrap(), theirs.local_addr().unwrap());
        assert_eq!(theirs.peer_addr().unwrap(), addr);
    }

    #[test]
    fn base_tcp_cluster_is_exact() {
        let outcome = TcpCluster::run(&quick(4, Algorithm::Base)).unwrap();
        assert_eq!(
            (outcome.reported_matches, outcome.totals.late_probes),
            (outcome.truth_matches, 0),
            "eps {}",
            outcome.epsilon
        );
        assert_eq!(outcome.epsilon, 0.0);
        assert!(outcome.messages > 0);
        // Transport stats are populated and show coalescing engaging: nodes
        // are woken per burst, so a flush carries several frames per peer.
        assert_eq!(outcome.transport_per_node.len(), 4);
        let frames: u64 = outcome
            .transport_per_node
            .iter()
            .map(|t| t.frames_sent)
            .sum();
        let syscalls: u64 = outcome
            .transport_per_node
            .iter()
            .map(|t| t.write_syscalls)
            .sum();
        assert_eq!(
            frames, outcome.messages,
            "every message framed exactly once"
        );
        assert!(
            frames >= 2 * syscalls,
            "{syscalls} syscalls for {frames} frames"
        );
        assert!(
            outcome
                .transport_per_node
                .iter()
                .all(|t| t.reactor_wakeups > 0),
            "a node never waited on its latch"
        );
    }

    #[test]
    fn base_freerun_never_reports_more_than_the_truth() {
        // BASE is exact, so freerun may only *lose* matches (a probe that
        // arrives late finds its partner evicted). A probe processed ahead
        // of an arrival injected before it would find a partner the
        // sequential join had already evicted, and over-count.
        for seed in [1, 2, 3, 5, 8, 13] {
            let cfg = quick(4, Algorithm::Base)
                .window(512)
                .domain(1 << 10)
                .tuples(20_000)
                .seed(seed);
            let outcome = TcpCluster::run(&cfg).unwrap();
            assert!(
                outcome.reported_matches <= outcome.truth_matches,
                "seed {seed}: reported {} exceeds truth {}",
                outcome.reported_matches,
                outcome.truth_matches
            );
            assert!(
                outcome.epsilon < 0.01,
                "seed {seed}: eps {}",
                outcome.epsilon
            );
        }
    }

    #[test]
    fn the_byte_model_is_what_the_sockets_carry() {
        // Free-running at N = 4, every algorithm's engines charge exactly
        // the frame bytes their write queues took: each engine's per-peer
        // link base stays in step with its batch's.
        for algorithm in Algorithm::ALL {
            let outcome = TcpCluster::run(&quick(4, algorithm)).unwrap();
            let on_sockets: u64 = (outcome.transport_per_node.iter())
                .map(|t| t.bytes_sent)
                .sum();
            let t = &outcome.totals;
            assert_eq!(
                on_sockets,
                t.data_bytes_sent + t.overhead_bytes_sent,
                "{algorithm}"
            );
            assert!(on_sockets > 0, "{algorithm}");
        }
    }

    #[test]
    fn all_algorithms_run_over_tcp() {
        for algorithm in Algorithm::ALL {
            let outcome = TcpCluster::run(&quick(3, algorithm)).unwrap();
            assert!(
                (0.0..=1.0).contains(&outcome.epsilon),
                "{algorithm}: {}",
                outcome.epsilon
            );
        }
    }
}
