//! N nodes over real loopback TCP sockets, framed with the wire codec.
//!
//! One nonblocking full-duplex socket per *unordered* node pair
//! (N(N−1)/2 connections). Every node thread reads its own inbound links
//! ([`crate::reactor`]) and writes through per-peer coalescing queues with
//! vectored writes: N threads in total, which is what lets the backend run
//! N = 128.
//!
//! Every link opens with a preface, the only place the wire version
//! travels: the dialer writes [`MAGIC`], [`VERSION`] and its node id (two
//! bytes, little-endian), so the accepting side knows which peer the bytes
//! on that socket come from without trusting ephemeral port numbers; the
//! acceptor writes [`MAGIC`] and [`VERSION`] back. Either end refuses any
//! other preface with [`LiveError::Version`], naming both versions — a
//! version-4 dialer's bare two-byte id included, which is told apart by
//! its first two bytes, so the refusal needs no byte such a dialer never
//! sends. Codec frames ([`dsj_core::wire::FrameDecoder`], one per link,
//! holding the link's base and sender) are reassembled from the byte
//! stream — frames arrive split and coalesced at TCP's whim — and decoded
//! messages join the arrivals the feed queued in the node's mailbox in
//! one engine frame. Node threads, wake-ups, in-flight accounting and
//! teardown are the backend-independent harness shared with
//! [`crate::LiveCluster`]; feeding, quiescence and the tally are
//! `dsj-core`'s driver.
//!
//! Everything stays on `127.0.0.1` with OS-assigned ports; nothing binds
//! a routable interface.

use crate::cluster::{LiveError, LiveOutcome, TransportStats};
use crate::harness::{self, Pacing, Run};
use crate::reactor::{OutLink, ReactorTransport, ReadLink};
use dsj_core::wire::VERSION;
use dsj_core::ClusterConfig;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The bytes every link preface starts with. Read as a version-4 dialer's
/// little-endian node id they would name node 29 540, which no cluster
/// runs, so the first two bytes tell such a dialer apart.
pub(crate) const MAGIC: [u8; 4] = *b"dsjw";

/// How long a preface may take to arrive before the link is given up.
const PREFACE_WAIT: Duration = Duration::from_secs(10);

pub(crate) fn io_err(node: u16, e: &io::Error) -> LiveError {
    LiveError::Io {
        node,
        detail: e.to_string(),
    }
}

/// The dialer's preface: [`MAGIC`], `version` and its node id `id`.
pub(crate) fn hello(version: u8, id: u16) -> [u8; 7] {
    let [m0, m1, m2, m3] = MAGIC;
    let [i0, i1] = id.to_le_bytes();
    [m0, m1, m2, m3, version, i0, i1]
}

/// The acceptor's preface: [`MAGIC`] and `version`.
pub(crate) fn reply(version: u8) -> [u8; 5] {
    let [m0, m1, m2, m3] = MAGIC;
    [m0, m1, m2, m3, version]
}

/// Reads a preface of `N` bytes into `buf` for node `me`: [`MAGIC`], then
/// [`VERSION`], then whatever follows. The magic's first two bytes are
/// checked before more is read, since a version-4 dialer sends two bytes
/// and waits. `read_exact` rides out short reads and `EINTR`: loopback
/// usually delivers a preface at once, but nothing guarantees it, and one
/// split across reads must not be mistaken for a protocol error.
///
/// # Errors
///
/// [`LiveError::Version`] for another magic or version; [`LiveError::Io`]
/// when the socket fails or the preface ends early.
fn read_preface<const N: usize>(
    stream: &mut impl Read,
    me: u16,
    buf: &mut [u8; N],
) -> Result<(), LiveError> {
    let refused = |theirs| LiveError::Version {
        node: me,
        ours: VERSION,
        theirs,
    };
    let (head, rest) = buf.split_at_mut(2);
    stream.read_exact(head).map_err(|e| io_err(me, &e))?;
    if *head != MAGIC[..2] {
        return Err(refused(None));
    }
    stream.read_exact(rest).map_err(|e| io_err(me, &e))?;
    match buf[MAGIC.len()] {
        _ if buf[..MAGIC.len()] != MAGIC => Err(refused(None)),
        VERSION => Ok(()),
        theirs => Err(refused(Some(theirs))),
    }
}

/// Reads a dialer's [`hello`] at node `me`: the id of the peer it names.
///
/// # Errors
///
/// As [`read_preface`].
pub(crate) fn read_hello(stream: &mut impl Read, me: u16) -> Result<u16, LiveError> {
    let mut buf = [0u8; 7];
    read_preface(stream, me, &mut buf)?;
    Ok(u16::from_le_bytes([buf[5], buf[6]]))
}

/// Accepts node `me`'s links from every higher-id peer of an `n`-node
/// cluster, each answered with this node's [`reply`], named by its
/// [`hello`] and made nonblocking. An id outside `me+1..n`, or one seen
/// twice, is `InvalidData`: its link would land out of place or over
/// another peer's.
///
/// # Errors
///
/// [`LiveError::Version`] for a peer of another wire version, as
/// [`read_preface`] finds it; [`LiveError::Io`] for a socket failure or
/// an id out of place.
fn accept_peers(
    listener: &TcpListener,
    me: usize,
    n: usize,
) -> Result<Vec<(u16, TcpStream)>, LiveError> {
    let node = me as u16;
    let io = |e: io::Error| io_err(node, &e);
    let mut seen = vec![false; n];
    (me + 1..n)
        .map(|_| {
            let (mut stream, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            stream.set_read_timeout(Some(PREFACE_WAIT)).map_err(io)?;
            // Answered first, so a dialer of another version learns it too.
            stream.write_all(&reply(VERSION)).map_err(io)?;
            let peer = read_hello(&mut stream, node)?;
            let p = usize::from(peer);
            if p <= me || p >= n || std::mem::replace(&mut seen[p], true) {
                return Err(io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "handshake names node {peer}, not a new peer in {}..{n}",
                        me + 1
                    ),
                )));
            }
            stream.set_read_timeout(None).map_err(io)?;
            stream.set_nonblocking(true).map_err(io)?;
            Ok((peer, stream))
        })
        .collect()
}

/// Node `j`'s end of its link to the listener at `addr`: connected, its
/// [`hello`] written, the acceptor's [`reply`] checked, made nonblocking.
///
/// # Errors
///
/// [`LiveError::Version`] for an acceptor of another wire version;
/// [`LiveError::Io`] for a socket failure or a reply that never came.
fn dial(addr: &SocketAddr, j: u16) -> Result<TcpStream, LiveError> {
    let io = |e: io::Error| io_err(j, &e);
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(PREFACE_WAIT)).map_err(io)?;
    stream.write_all(&hello(VERSION, j)).map_err(io)?;
    read_preface(&mut stream, j, &mut [0u8; 5])?;
    stream.set_read_timeout(None).map_err(io)?;
    stream.set_nonblocking(true).map_err(io)?;
    Ok(stream)
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
    /// failures; [`LiveError::Version`] for a link whose peer speaks
    /// another wire version; [`LiveError::NodePanicked`] if a node thread dies.
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

    /// Binds the socket topology — for pair `{i, j}` with `i < j`, node `j`
    /// dials node `i`'s listener — and spawns the node threads, each owning
    /// the read half of its inbound links: the cluster the driver feeds, for
    /// both entry points.
    fn spawn(cfg: &ClusterConfig) -> Result<Run, LiveError> {
        let mut run = Run::new(cfg.n);
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
            acceptors.push(thread::spawn(move || accept_peers(&listener, me, n)));
        }

        // Dial side: node j (conceptually — dials run on this thread) opens
        // the pair socket to every lower-id peer. `endpoint[a][b]` is node
        // a's end of the {a, b} socket.
        let mut endpoint: Vec<Vec<Option<Arc<TcpStream>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (j, row) in endpoint.iter_mut().enumerate().skip(1) {
            for (i, addr) in addrs.iter().enumerate().take(j) {
                row[i] = Some(Arc::new(dial(addr, j as u16)?));
            }
        }
        for (me, acceptor) in acceptors.into_iter().enumerate() {
            match acceptor.join() {
                Ok(accepted) => {
                    for (peer, stream) in accepted? {
                        endpoint[me][peer as usize] = Some(Arc::new(stream));
                    }
                }
                Err(_) => return Err(LiveError::ChannelClosed),
            }
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

    /// Node 1 of four accepting dialers that each write `hello` and keep
    /// their socket open.
    fn accept_hellos(hellos: &[&[u8]]) -> Result<Vec<(u16, TcpStream)>, LiveError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let _dialers: Vec<TcpStream> = (hellos.iter())
            .map(|hello| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(hello).unwrap();
                stream
            })
            .collect();
        accept_peers(&listener, 1, 4)
    }

    #[test]
    fn a_handshake_naming_no_new_higher_peer_is_invalid_data() {
        // Node 1 of four accepts nodes 2 and 3, once each.
        let dial = |ids: &[u16]| {
            let hellos: Vec<[u8; 7]> = ids.iter().map(|&id| hello(VERSION, id)).collect();
            accept_hellos(&hellos.iter().map(|h| &h[..]).collect::<Vec<_>>())
        };
        for ids in [&[0][..], &[1], &[4], &[u16::MAX], &[2, 2], &[3, 0]] {
            match dial(ids) {
                Err(LiveError::Io { node: 1, detail }) => {
                    assert!(detail.starts_with("handshake names node"), "{detail}");
                }
                other => panic!("{ids:?}: {other:?}"),
            }
        }
        let peers: Vec<u16> = dial(&[3, 2]).unwrap().iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, [3, 2]);
    }

    #[test]
    fn a_version_4_hello_is_refused_not_misread() {
        // A version-4 dialer wrote its id alone, two bytes, and then
        // waited; ids whose low byte is 5 (this version) or the magic's
        // first included. Refused from those two bytes, never read as a
        // preface or an id.
        for id in [2u16, 3, 5, 0x0305, u16::from_le_bytes([MAGIC[0], 0])] {
            let err = accept_hellos(&[&id.to_le_bytes()]).unwrap_err();
            assert_eq!(
                err,
                LiveError::Version {
                    node: 1,
                    ours: VERSION,
                    theirs: None
                },
                "{id}"
            );
            assert!(err.to_string().contains("4 or older"), "{err}");
        }
    }

    #[test]
    fn a_hello_of_another_version_is_refused_naming_both() {
        for version in [0, 1, 2, 3, 4, 6, u8::MAX] {
            let err = accept_hellos(&[&hello(version, 2)]).unwrap_err();
            let want = LiveError::Version {
                node: 1,
                ours: VERSION,
                theirs: Some(version),
            };
            assert_eq!(err, want);
            let text = err.to_string();
            assert!(
                text.contains(&format!("version {version}, this node {VERSION}")),
                "{text}"
            );
        }
        // Another magic, even at this version, is no preface.
        let mut stranger = hello(VERSION, 2);
        stranger[3] ^= 1;
        assert_eq!(
            accept_hellos(&[&stranger]).unwrap_err(),
            LiveError::Version {
                node: 1,
                ours: VERSION,
                theirs: None
            }
        );
    }

    #[test]
    fn a_reply_of_another_version_is_refused_by_the_dialer() {
        // An acceptor that answers with another version: node 3's dial
        // fails typed, naming both, and an acceptor that answers as this
        // one does is dialed through.
        for (version, want) in [(4, Err(Some(4))), (6, Err(Some(6))), (VERSION, Ok(()))] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let acceptor = thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.write_all(&reply(version)).unwrap();
                let mut hello = [0u8; 7];
                stream.read_exact(&mut hello).unwrap();
                hello
            });
            let dialed = dial(&addr, 3).map(|_| ()).map_err(|e| match e {
                LiveError::Version {
                    node: 3,
                    ours: VERSION,
                    theirs,
                } => theirs,
                other => panic!("{other:?}"),
            });
            assert_eq!(dialed, want, "{version}");
            assert_eq!(acceptor.join().unwrap(), hello(VERSION, 3));
        }
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
