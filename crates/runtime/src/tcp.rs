//! N nodes over real loopback TCP sockets, framed with the wire codec.
//!
//! One nonblocking full-duplex socket per *unordered* node pair
//! (N(N−1)/2 connections), read by a fixed pool of [`crate::reactor`]
//! shards and written through per-peer coalescing queues with vectored
//! writes: O(N) threads in total, which is what lets the backend run
//! N = 128.
//!
//! The dialer writes a two-byte little-endian handshake naming itself
//! after `connect`, so the accepting side knows which peer the bytes on
//! that socket come from without trusting ephemeral port numbers. Codec
//! frames ([`dsj_core::wire::FrameDecoder`]) are reassembled from the byte
//! stream — frames arrive split and coalesced at TCP's whim — and decoded
//! messages land in the owning node's event channel, where they meet
//! arrivals injected by the feeder. Node threads, feeder backpressure,
//! quiescence detection and aggregation are the backend-independent
//! harness shared with [`crate::LiveCluster`].
//!
//! Everything stays on `127.0.0.1` with OS-assigned ports; nothing binds
//! a routable interface.

use crate::cluster::{LiveError, LiveOutcome, TransportStats};
use crate::harness::{self, Inbox, Pacing};
use crate::reactor::{Kick, LinkWrite, OutLink, Reactor, ReadLink, ShardInput};
use dsj_core::wire::FrameBatch;
use dsj_core::{ClusterConfig, Msg, Transport, TransportEvent};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

pub(crate) fn io_err(node: u16, e: &io::Error) -> LiveError {
    LiveError::Io {
        node,
        detail: e.to_string(),
    }
}

/// Reads the dialer's two-byte little-endian node-id handshake.
/// `read_exact` rides out short reads and `EINTR`: loopback usually
/// delivers both bytes at once, but nothing guarantees it, and a handshake
/// split across reads must not be mistaken for a protocol error.
pub(crate) fn read_peer_id(stream: &mut TcpStream) -> io::Result<u16> {
    let mut hello = [0u8; 2];
    stream.read_exact(&mut hello)?;
    Ok(u16::from_le_bytes(hello))
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

/// [`Transport`] over the pair sockets: outbound messages are batched
/// per peer ([`FrameBatch`]) and flushed once per engine frame through
/// the peer's [`OutLink`] — a coalesced vectored write on a nonblocking
/// socket. A full socket parks the tail in the link's write queue (the
/// destination's shard retries it); after every flush the destination
/// read-link is marked dirty and its shard kicked, which is what makes
/// the bytes *observed*, not just sent.
struct ReactorTransport {
    me: u16,
    inbox: Inbox,
    /// `links[j]` is the `me → j` write half; `None` at `j == me`.
    links: Vec<Option<Arc<OutLink>>>,
    /// `batches[j]` holds frames encoded for peer `j` since the last
    /// flush (allocation reused across frames).
    batches: Vec<FrameBatch>,
    /// `dirty[j]` is peer `j`'s read-link flag for the `me → j` socket.
    dirty: Vec<Option<Arc<AtomicBool>>>,
    /// Shard wakeup latches; peer `j`'s shard is `j % kicks.len()`.
    kicks: Vec<Arc<Kick>>,
    /// Per-flush scratch: which shards have traffic and need one kick.
    kick_due: Vec<bool>,
    in_flight: Arc<AtomicI64>,
}

impl ReactorTransport {
    /// Un-counts every message still batched (a fatal flush error aborts
    /// the node; the cluster-wide counter must not leak phantom traffic).
    fn abandon_batches(&mut self) {
        let orphaned: i64 = self.batches.iter().map(|b| b.len() as i64).sum();
        if orphaned > 0 {
            self.in_flight.fetch_sub(orphaned, Ordering::SeqCst);
        }
        for batch in &mut self.batches {
            batch.clear();
        }
    }
}

impl Transport for ReactorTransport {
    type Error = LiveError;

    fn send(&mut self, to: u16, msg: Msg) -> Result<(), LiveError> {
        let j = to as usize;
        if !matches!(self.links.get(j), Some(Some(_))) {
            return Err(LiveError::Io {
                node: self.me,
                detail: format!("no socket from node {} to peer {to}", self.me),
            });
        }
        self.batches[j].push(&msg);
        // Count the message in flight at batch time, before any byte
        // becomes visible to the peer: the counter may briefly over-report
        // (batched, not yet written) but never under-reports, and the
        // engine flushes every frame before blocking, so batched messages
        // cannot stall quiescence.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn poll(&mut self) -> Result<TransportEvent, LiveError> {
        self.inbox.poll()
    }

    fn poll_frame(&mut self, max: usize, frame: &mut Vec<TransportEvent>) -> Result<(), LiveError> {
        self.inbox.poll_frame(max, frame)
    }

    fn flush(&mut self) -> Result<(), LiveError> {
        for j in 0..self.batches.len() {
            if self.batches[j].is_empty() {
                continue;
            }
            let Some(link) = self.links[j].as_ref() else {
                continue; // unreachable: send() refuses peers without links
            };
            match link.flush_batch(&self.batches[j]) {
                LinkWrite::Clean | LinkWrite::Parked => {
                    // Accepted (on the wire or parked in the link's queue,
                    // where the destination shard owns the retry); either
                    // way the messages stay counted until the receiving
                    // engine processes them.
                    self.batches[j].clear();
                    if let Some(flag) = &self.dirty[j] {
                        flag.store(true, Ordering::SeqCst);
                    }
                    let shard = j % self.kick_due.len();
                    self.kick_due[shard] = true;
                }
                LinkWrite::Dead { error, orphaned } => {
                    // The link accepted the batch into its queue before
                    // dying, so `orphaned` covers these frames; a link
                    // that was *already* dead never accepted them, and
                    // `abandon_batches` gives this batch (and every other
                    // unflushed one) back to the counter.
                    if orphaned > 0 {
                        self.in_flight.fetch_sub(orphaned, Ordering::SeqCst);
                        self.batches[j].clear();
                    }
                    let e = error.unwrap_or_else(|| LiveError::Io {
                        node: self.me,
                        detail: format!("link from node {} to peer {j} is dead", self.me),
                    });
                    self.abandon_batches();
                    return Err(e);
                }
            }
        }
        // One kick per shard per flush, after every dirty flag is set —
        // a peer-count-independent wakeup cost.
        for s in 0..self.kick_due.len() {
            if self.kick_due[s] {
                self.kick_due[s] = false;
                self.kicks[s].notify();
            }
        }
        Ok(())
    }

    fn now_us(&mut self) -> u64 {
        self.inbox.now_us()
    }

    fn quiesce(&mut self) {
        self.inbox.quiesce();
    }
}

/// Runs [`dsj_core::JoinNode`]s as live threads joined by real loopback
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

    /// Runs the configuration's workload with an explicit feeder
    /// [`Pacing`]. [`Pacing::Lockstep`] makes the run deterministic and
    /// equal, node for node, to the other two backends.
    ///
    /// # Errors
    ///
    /// As for [`TcpCluster::run`].
    pub fn run_paced(cfg: &ClusterConfig, pacing: Pacing) -> Result<LiveOutcome, LiveError> {
        harness::drive(cfg, pacing, Self::spawn(cfg)?)
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
        harness::drive_open(cfg, spec, Self::spawn(cfg)?)
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

    /// Prepares the run, binds the socket topology — for pair `{i, j}`
    /// with `i < j`, node `j` dials node `i`'s listener — starts the
    /// reactor shards and spawns the node threads: everything up to (but
    /// not including) feeding, shared by the closed- and open-loop entry
    /// points.
    fn spawn(cfg: &ClusterConfig) -> Result<harness::Run, LiveError> {
        let mut run = harness::prepare(cfg)?;
        let n = cfg.n as usize;

        // Bind every node's listener first so peers can dial in any order.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for me in 0..n {
            let listener =
                TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err(me as u16, &e))?;
            addrs.push(listener.local_addr().map_err(|e| io_err(me as u16, &e))?);
            listeners.push(listener);
        }

        // Accept side: node i takes one connection from every higher-id peer.
        // Each acceptor returns its identified, nonblocking endpoints.
        let mut acceptors = Vec::with_capacity(n);
        for (me, listener) in listeners.into_iter().enumerate() {
            let expect = n - 1 - me;
            acceptors.push(thread::spawn(move || -> io::Result<Vec<_>> {
                (0..expect)
                    .map(|_| {
                        let (mut stream, _) = listener.accept()?;
                        stream.set_nodelay(true)?;
                        let peer = read_peer_id(&mut stream)?;
                        stream.set_nonblocking(true)?;
                        Ok((peer, stream))
                    })
                    .collect()
            }));
        }

        // Dial side: node j (conceptually — dials run on this thread) opens
        // the pair socket to every lower-id peer. `endpoint[a][b]` is node
        // a's end of the {a, b} socket.
        let mut endpoint: Vec<Vec<Option<Arc<TcpStream>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let dial = |addr: &SocketAddr, j: u16| -> io::Result<TcpStream> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&j.to_le_bytes())?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        };
        for (j, row) in endpoint.iter_mut().enumerate().skip(1) {
            for (i, addr) in addrs.iter().enumerate().take(j) {
                let stream = dial(addr, j as u16).map_err(|e| io_err(j as u16, &e))?;
                row[i] = Some(Arc::new(stream));
            }
        }
        for (me, acceptor) in acceptors.into_iter().enumerate() {
            match acceptor.join() {
                Ok(accepted) => {
                    for (peer, stream) in accepted.map_err(|e| io_err(me as u16, &e))? {
                        endpoint[me][peer as usize] = Some(Arc::new(stream));
                    }
                }
                Err(_) => return Err(LiveError::ChannelClosed),
            }
        }

        // Per-directed-link machinery: the i → j write half (on node i's
        // endpoint) and the i → j read half (node j's endpoint, flagged dirty
        // by i after each flush).
        let mut outlinks: Vec<Vec<Option<Arc<OutLink>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let dirty: Vec<Vec<Arc<AtomicBool>>> = (0..n)
            .map(|_| (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect())
            .collect();
        for (i, row) in outlinks.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if let Some(stream) = &endpoint[i][j] {
                    *slot = Some(Arc::new(OutLink::new(i as u16, Arc::clone(stream))));
                }
            }
        }

        // Shards: shard s owns the read halves of every node ≡ s (mod
        // shards) plus retry duty for out-links targeting those nodes (their
        // reads are what free the peer's socket space).
        let nshards = Reactor::shard_count(n);
        let kicks: Vec<Arc<Kick>> = (0..nshards).map(|_| Arc::new(Kick::new())).collect();
        let mut inputs: Vec<ShardInput> = (0..nshards)
            .map(|s| ShardInput {
                reads: Vec::new(),
                writes: Vec::new(),
                kick: Arc::clone(&kicks[s]),
                wakeups: Arc::new(AtomicU64::new(0)),
                in_flight: Arc::clone(&run.shared.in_flight),
                failures: Arc::clone(&run.shared.failures),
            })
            .collect();
        for to in 0..n {
            let shard = &mut inputs[to % nshards];
            for from in 0..n {
                let Some(stream) = &endpoint[to][from] else {
                    continue;
                };
                shard.reads.push(ReadLink::new(
                    Arc::clone(stream),
                    from as u16,
                    to as u16,
                    run.senders[to].clone(),
                    Arc::clone(&dirty[to][from]),
                ));
                if let Some(link) = &outlinks[from][to] {
                    shard.writes.push(Arc::clone(link));
                }
            }
        }
        let reactor = Reactor::start(inputs);

        run.spawn_nodes(cfg, |run, me, inbox| ReactorTransport {
            me,
            inbox,
            links: outlinks[me as usize].clone(),
            batches: (0..n).map(|_| FrameBatch::new()).collect(),
            dirty: (0..n)
                .map(|j| (j != me as usize).then(|| Arc::clone(&dirty[j][me as usize])))
                .collect(),
            kicks: kicks.clone(),
            kick_due: vec![false; nshards],
            in_flight: Arc::clone(&run.shared.in_flight),
        });

        // Teardown hook: stop the shards once the node threads are done, and
        // fold link + shard counters into per-node transport stats (a shard's
        // wakeups are attributed to its lowest node id).
        run.finish = Some(Box::new(move || {
            let shard_wakeups = reactor.join();
            let mut stats = vec![TransportStats::default(); n];
            for (i, row) in outlinks.iter().enumerate() {
                for link in row.iter().flatten() {
                    let (frames, syscalls, peak) = link.stats();
                    stats[i].frames_sent += frames;
                    stats[i].write_syscalls += syscalls;
                    stats[i].pending_peak_bytes += peak;
                }
            }
            for (node, count) in stats.iter_mut().zip(shard_wakeups) {
                node.reactor_wakeups = count;
            }
            stats
        }));
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsj_core::{obs, Algorithm};
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
    fn base_tcp_cluster_is_nearly_exact() {
        let outcome = TcpCluster::run(&quick(4, Algorithm::Base)).unwrap();
        assert!(
            outcome.epsilon < 0.02,
            "eps {} ({} of {})",
            outcome.epsilon,
            outcome.reported_matches,
            outcome.truth_matches
        );
        assert!(outcome.messages > 0);
        // Transport stats are populated and show coalescing: strictly
        // fewer syscalls than frames would be ideal, but tiny frames can
        // tie, so assert the weaker invariant syscalls ≤ frames.
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
            syscalls <= frames,
            "{syscalls} syscalls for {frames} frames"
        );
        assert!(
            outcome
                .transport_per_node
                .iter()
                .any(|t| t.reactor_wakeups > 0),
            "shards never woke"
        );
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

    #[test]
    fn tcp_run_emits_observation_record_with_phases() {
        let collector = obs::Collector::install();
        let cfg = quick(3, Algorithm::Dft);
        let outcome = obs::scoped("tcp", 2, || TcpCluster::run(&cfg).unwrap());
        let records = collector.drain();
        assert_eq!(records.len(), 1);
        let reg = &records[0].registry;
        assert_eq!(reg.counter("live.messages"), outcome.messages);
        for phase in ["workload", "spawn", "inject", "drain", "join"] {
            assert!(reg.phase(phase).is_some(), "missing phase {phase}");
        }
    }

    #[test]
    fn invalid_config_rejected_before_binding() {
        let err = TcpCluster::run(&quick(1, Algorithm::Base)).unwrap_err();
        assert_eq!(err, LiveError::Config(dsj_core::RunError::TooFewNodes(1)));
    }
}
