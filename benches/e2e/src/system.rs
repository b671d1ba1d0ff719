//! The adapter: every call the benchmark makes into the system.
//!
//! Nothing outside this file names a `dsj_*` crate, so the public surface
//! a later change must keep working is exactly what is imported here:
//! `Scenario::arrivals`, `Trace`, `ClusterConfig::{new, with_trace,
//! arrivals, ground_truth_matches, build_node, interarrival_us}`,
//! `Simulation::{new, inject_at, run_to_quiescence, now, metrics,
//! events_processed, iter_nodes}`, `NodeEngine::{new, on_arrival, on_net,
//! metrics, match_digest}`, the `Transport` trait, `wire::{FrameBatch,
//! FrameDecoder}`, `RouterHarness`, `SlidingWindow`, `AgmsSketch`,
//! `PointDft`, `LiveCluster::{run_paced, run_open_loop}` and
//! `TcpCluster::{run_paced_mode, run_open_loop_mode}` with
//! `TcpMode::Reactor`.

use crate::stats::histogram_quantile;
use crate::trace::{Layer, Probe};
use dsj_core::hotpath::{HarnessParams, RouterHarness};
use dsj_core::wire::{FrameBatch, FrameDecoder};
use dsj_core::{Algorithm, ClusterConfig, Msg, NodeEngine, NodeMetrics, Transport, TransportEvent};
use dsj_dft::sliding::PointDft;
use dsj_dft::ControlVector;
use dsj_runtime::{LiveCluster, LiveOutcome, LoadRun, OpenLoop, Pacing, TcpCluster, TcpMode};
use dsj_simnet::{SimDuration, SimTime, Simulation};
use dsj_sketch::AgmsSketch;
use dsj_stream::gen::{Arrival, Scenario};
use dsj_stream::trace::Trace;
use dsj_stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Paper defaults shared by every workload (Zipf α = 0.4 is fixed inside
/// `Scenario`).
pub const WINDOW: usize = 1024;
pub const DOMAIN: u32 = 4096;
pub const KAPPA: u32 = 256;
pub const LOCALITY: f64 = 0.8;

/// The join strategies the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    Base,
    Dftt,
    Skch,
}

impl Alg {
    fn system(self) -> Algorithm {
        match self {
            Alg::Base => Algorithm::Base,
            Alg::Dftt => Algorithm::Dftt,
            Alg::Skch => Algorithm::Sketch,
        }
    }
}

/// How the key distribution evolves over a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    Steady,
    Migrate,
}

/// One arrival of a schedule, in the benchmark's own terms so that the
/// reference join shares no type with the system it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arr {
    /// `false` for stream R, `true` for stream S.
    pub s: bool,
    pub key: u32,
    pub seq: u64,
    pub node: u16,
}

impl Arr {
    fn stream(&self) -> StreamId {
        if self.s {
            StreamId::S
        } else {
            StreamId::R
        }
    }

    fn tuple(&self) -> Tuple {
        Tuple::new(self.stream(), self.key, self.seq, self.node)
    }
}

/// Generates a workload's schedule from the seed.
pub fn schedule(skew: Skew, n: u16, tuples: usize, seed: u64) -> Vec<Arr> {
    let scenario = match skew {
        Skew::Steady => Scenario::Steady,
        Skew::Migrate => Scenario::MigratingSkew,
    };
    scenario
        .arrivals(n, DOMAIN, tuples, LOCALITY, seed)
        .into_iter()
        .map(|a| Arr {
            s: a.stream == StreamId::S,
            key: a.key,
            seq: a.seq,
            node: a.node,
        })
        .collect()
}

/// A cluster configuration carrying its schedule as a `Trace`.
pub struct Cluster(ClusterConfig);

impl Cluster {
    pub fn new(alg: Alg, n: u16, seed: u64, schedule: &[Arr]) -> Cluster {
        let trace = Trace::from_arrivals(
            schedule
                .iter()
                .map(|a| Arrival {
                    stream: a.stream(),
                    key: a.key,
                    seq: a.seq,
                    node: a.node,
                })
                .collect(),
        );
        Cluster(
            ClusterConfig::new(n, alg.system())
                .window(WINDOW)
                .domain(DOMAIN)
                .kappa(KAPPA)
                .locality(LOCALITY)
                .seed(seed)
                .with_trace(trace),
        )
    }

    pub fn n(&self) -> u16 {
        self.0.n
    }

    pub fn tuples(&self) -> u64 {
        self.0.tuples as u64
    }

    /// The system's own exact result-set size for the schedule.
    pub fn truth_matches(&self) -> u64 {
        self.0.ground_truth_matches()
    }

    /// Matches of tuples below this sequence number are warm-up and not
    /// counted, by the system and by the reference join alike.
    pub fn count_from_seq(&self) -> u64 {
        (self.0.tuples as f64 * self.0.warmup) as u64
    }

    fn engines(&self) -> Vec<NodeEngine> {
        (0..self.0.n)
            .map(|me| NodeEngine::new(self.0.build_node(me)))
            .collect()
    }
}

/// Cluster-wide counters of one run, plus the per-node match digests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub arrivals: u64,
    pub reported: u64,
    pub tuple_msgs: u64,
    pub summary_msgs: u64,
    pub data_bytes: u64,
    pub overhead_bytes: u64,
    pub fallback_routes: u64,
    pub tuples_received: u64,
    pub key_domain_drops: u64,
    pub summary_index_drops: u64,
    pub digests: Vec<u64>,
}

impl Counts {
    fn absorb(&mut self, m: &NodeMetrics, digest: u64) {
        self.arrivals += m.arrivals;
        self.reported += m.matches();
        self.tuple_msgs += m.tuple_msgs_sent;
        self.summary_msgs += m.summary_msgs_sent;
        self.data_bytes += m.data_bytes_sent;
        self.overhead_bytes += m.overhead_bytes_sent;
        self.fallback_routes += m.fallback_routes;
        self.tuples_received += m.tuples_received;
        self.key_domain_drops += m.key_domain_drops;
        self.summary_index_drops += m.summary_index_drops;
        self.digests.push(digest);
    }

    fn of_engines<'a>(engines: impl Iterator<Item = &'a NodeEngine>) -> Counts {
        let mut c = Counts::default();
        for e in engines {
            c.absorb(e.metrics(), e.match_digest());
        }
        c
    }

    pub fn msgs(&self) -> u64 {
        self.tuple_msgs + self.summary_msgs
    }

    pub fn bytes(&self) -> u64 {
        self.data_bytes + self.overhead_bytes
    }
}

/// Socket-level totals of a reactor run (all zero on other backends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketTotals {
    pub frames_sent: u64,
    pub write_syscalls: u64,
    pub pending_peak_bytes: u64,
    pub reactor_wakeups: u64,
}

/// Delivery latency of one open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
}

/// What one run of a schedule through a backend measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The timed region: first arrival to quiescence.
    pub timed: Duration,
    pub truth: u64,
    pub counts: Counts,
    /// Tuples that entered the cluster (all of them unless an open-loop
    /// feeder bailed out on overload).
    pub injected: u64,
    pub overloaded: bool,
    pub peak_backlog: i64,
    pub latency: Option<Latency>,
    pub sockets: SocketTotals,
    /// simnet only: time spent in the `inject_at` loop, events processed.
    pub sim_inject: Duration,
    pub sim_events: u64,
}

/// Which live backend carries a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    Channels,
    Reactor,
}

/// How arrivals are fed into a live run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feed {
    /// Closed loop, bounded backlog.
    Freerun,
    /// Closed loop, drained to quiescence between arrivals.
    Lockstep,
    /// Open loop at a fixed rate with an explicit overload bound.
    Open { rate_tps: f64, abort_backlog: i64 },
}

/// Runs the schedule through simnet in virtual time, injecting every
/// arrival at its scheduled instant and then running to quiescence. Node
/// construction happens before the timed region starts.
pub fn run_sim(cluster: &Cluster, truth: u64) -> Run {
    let cfg = &cluster.0;
    let mut sim = Simulation::new(cluster.engines(), cfg.link, cfg.seed ^ 0x51A1);
    let arrivals = cfg.arrivals();
    let dt_us = cfg.interarrival_us();
    let start = Instant::now();
    for a in &arrivals {
        let t = SimTime::ZERO + SimDuration::from_micros(a.seq * dt_us);
        sim.inject_at(t, a.node, a.tuple());
    }
    let sim_inject = start.elapsed();
    sim.run_to_quiescence();
    let timed = start.elapsed();
    Run {
        timed,
        truth,
        counts: Counts::of_engines(sim.iter_nodes()),
        injected: arrivals.len() as u64,
        overloaded: false,
        peak_backlog: 0,
        latency: None,
        sockets: SocketTotals::default(),
        sim_inject,
        sim_events: sim.events_processed(),
    }
}

/// Runs the schedule through simnet in lockstep: each arrival is injected
/// at the current virtual time and the simulation drains before the next.
pub fn run_sim_lockstep(cluster: &Cluster, truth: u64) -> Run {
    let cfg = &cluster.0;
    let mut sim = Simulation::new(cluster.engines(), cfg.link, cfg.seed ^ 0x51A1);
    let arrivals = cfg.arrivals();
    let start = Instant::now();
    for a in &arrivals {
        let now = sim.now();
        sim.inject_at(now, a.node, a.tuple());
        sim.run_to_quiescence();
    }
    Run {
        timed: start.elapsed(),
        truth,
        counts: Counts::of_engines(sim.iter_nodes()),
        injected: arrivals.len() as u64,
        overloaded: false,
        peak_backlog: 0,
        latency: None,
        sockets: SocketTotals::default(),
        sim_inject: Duration::ZERO,
        sim_events: sim.events_processed(),
    }
}

/// Runs the schedule through a live backend. Schedule replay, ground
/// truth, spawn and join all happen inside the call; `Run::timed` is the
/// system's own first-arrival-to-quiescence wall time.
///
/// # Errors
///
/// The system's `LiveError`, rendered.
pub fn run_live(cluster: &Cluster, backend: Live, feed: Feed) -> Result<Run, String> {
    let cfg = &cluster.0;
    let outcome = match (backend, feed) {
        (
            Live::Channels,
            Feed::Open {
                rate_tps,
                abort_backlog,
            },
        ) => LiveCluster::run_open_loop(cfg, &open_loop(rate_tps, abort_backlog)).map(open_run),
        (
            Live::Reactor,
            Feed::Open {
                rate_tps,
                abort_backlog,
            },
        ) => TcpCluster::run_open_loop_mode(
            cfg,
            &open_loop(rate_tps, abort_backlog),
            TcpMode::Reactor,
        )
        .map(open_run),
        (Live::Channels, closed) => {
            LiveCluster::run_paced(cfg, pacing(closed)).map(|o| closed_run(cfg, o))
        }
        (Live::Reactor, closed) => {
            TcpCluster::run_paced_mode(cfg, pacing(closed), TcpMode::Reactor)
                .map(|o| closed_run(cfg, o))
        }
    };
    outcome.map_err(|e| e.to_string())
}

fn pacing(feed: Feed) -> Pacing {
    match feed {
        Feed::Lockstep => Pacing::Lockstep,
        Feed::Freerun | Feed::Open { .. } => Pacing::Freerun,
    }
}

fn open_loop(rate_tps: f64, abort_backlog: i64) -> OpenLoop {
    OpenLoop {
        rate_tps,
        abort_backlog: Some(abort_backlog),
    }
}

fn closed_run(cfg: &ClusterConfig, o: LiveOutcome) -> Run {
    live_run(o, cfg.tuples as u64, false, 0)
}

fn open_run(load: LoadRun) -> Run {
    live_run(
        load.outcome,
        load.injected as u64,
        load.overloaded,
        load.peak_backlog,
    )
}

fn live_run(o: LiveOutcome, injected: u64, overloaded: bool, peak_backlog: i64) -> Run {
    let mut counts = Counts::default();
    for (m, &d) in o.per_node.iter().zip(&o.match_digests) {
        counts.absorb(m, d);
    }
    let mut sockets = SocketTotals::default();
    for t in &o.transport_per_node {
        sockets.frames_sent += t.frames_sent;
        sockets.write_syscalls += t.write_syscalls;
        sockets.pending_peak_bytes += t.pending_peak_bytes;
        sockets.reactor_wakeups += t.reactor_wakeups;
    }
    let h = &o.delivery_latency_us;
    let latency = (h.count() > 0).then(|| {
        let buckets = h.nonzero_buckets();
        Latency {
            p50_us: histogram_quantile(&buckets, h.min(), h.max(), 0.50),
            p99_us: histogram_quantile(&buckets, h.min(), h.max(), 0.99),
        }
    });
    Run {
        timed: o.wall_time,
        truth: o.truth_matches,
        counts,
        injected,
        overloaded,
        peak_backlog,
        latency,
        sockets,
        sim_inject: Duration::ZERO,
        sim_events: 0,
    }
}

/// How messages travel between engines in the staged replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipe {
    /// The `Msg` value is moved to the destination engine.
    Null,
    /// `FrameBatch::push` → bytes → `FrameDecoder::feed_decode`.
    Codec,
    /// The encoded bytes additionally cross a loopback `TcpStream` pair.
    Socket,
}

/// What one staged replay measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    pub wall: Duration,
    pub counts: Counts,
    /// Messages and encoded bytes that crossed the pipe (bytes are 0 on
    /// the null pipe, which encodes nothing).
    pub msgs: u64,
    pub bytes: u64,
}

/// The benchmark's own `Transport`: sends of the arrival being processed
/// are parked in the pipe and delivered before the next arrival.
struct Stage<'a, P: Probe> {
    pipe: Pipe,
    probe: &'a mut P,
    from: u16,
    seq: u64,
    /// Null pipe: the parked messages.
    parked: Vec<(u16, u16, Msg)>,
    /// Codec and socket pipes: `(from, to, frame length)` per parked frame.
    frames: Vec<(u16, u16, usize)>,
    batch: FrameBatch,
    decoder: FrameDecoder,
    decoded: Vec<Msg>,
    socket: Option<(TcpStream, TcpStream)>,
    rbuf: Vec<u8>,
    msgs: u64,
    bytes: u64,
}

impl<P: Probe> Transport for Stage<'_, P> {
    type Error = io::Error;

    fn send(&mut self, to: u16, msg: Msg) -> Result<(), io::Error> {
        self.probe.enter(Layer::TransportSend, self.seq);
        self.msgs += 1;
        let result = match self.pipe {
            Pipe::Null => {
                self.parked.push((self.from, to, msg));
                Ok(())
            }
            Pipe::Codec | Pipe::Socket => {
                self.probe.enter(Layer::WireEncode, self.seq);
                let before = self.batch.bytes().len();
                self.batch.push(&msg);
                let len = self.batch.bytes().len() - before;
                self.probe.exit();
                self.bytes += len as u64;
                self.frames.push((self.from, to, len));
                match &mut self.socket {
                    Some((writer, _)) => {
                        self.probe.enter(Layer::SockWrite, self.seq);
                        let r = writer.write_all(&self.batch.bytes()[before..]);
                        self.probe.exit();
                        r
                    }
                    None => Ok(()),
                }
            }
        };
        self.probe.exit();
        result
    }

    fn poll(&mut self) -> Result<TransportEvent, io::Error> {
        // The replay pushes events into the engines; nothing pulls.
        Ok(TransportEvent::Shutdown)
    }

    fn now_us(&mut self) -> u64 {
        // Count windows and an ungoverned router never read the clock; the
        // sequence number keeps it monotone.
        self.seq
    }

    fn quiesce(&mut self) {}
}

impl<P: Probe> Stage<'_, P> {
    /// Delivers everything the last arrival parked.
    fn drain(&mut self, engines: &mut [NodeEngine]) -> io::Result<()> {
        let seq = self.seq;
        match self.pipe {
            Pipe::Null => {
                for (from, to, msg) in self.parked.drain(..) {
                    self.probe.enter(Layer::EngineNet, seq);
                    engines[to as usize].on_net(from, msg);
                    self.probe.exit();
                }
            }
            Pipe::Codec | Pipe::Socket => {
                let mut offset = 0;
                for (from, to, len) in self.frames.drain(..) {
                    let frame = match &mut self.socket {
                        Some((_, reader)) => {
                            self.probe.enter(Layer::SockRead, seq);
                            self.rbuf.resize(len, 0);
                            let r = reader.read_exact(&mut self.rbuf);
                            self.probe.exit();
                            r?;
                            &self.rbuf[..]
                        }
                        None => &self.batch.bytes()[offset..offset + len],
                    };
                    offset += len;
                    self.probe.enter(Layer::WireDecode, seq);
                    let decoded = &mut self.decoded;
                    let r = self.decoder.feed_decode(frame, &mut |m| {
                        decoded.push(m);
                        true
                    });
                    self.probe.exit();
                    r.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    for msg in self.decoded.drain(..) {
                        self.probe.enter(Layer::EngineNet, seq);
                        engines[to as usize].on_net(from, msg);
                        self.probe.exit();
                    }
                }
                self.batch.clear();
            }
        }
        Ok(())
    }
}

fn loopback_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    writer.set_nodelay(true)?;
    Ok((writer, reader))
}

/// Drives the cluster's engines on one thread: each arrival goes to
/// `on_arrival`, every message it produces crosses `pipe` and reaches
/// `on_net` on its destination before the next arrival. `probe` sees a
/// span at each boundary.
///
/// # Errors
///
/// Socket set-up or I/O failure on the socket pipe; a frame that fails to
/// decode.
pub fn staged_replay<P: Probe>(cluster: &Cluster, pipe: Pipe, probe: &mut P) -> io::Result<Replay> {
    let mut engines = cluster.engines();
    let arrivals = cluster.0.arrivals();
    let mut stage = Stage {
        pipe,
        probe,
        from: 0,
        seq: 0,
        parked: Vec::new(),
        frames: Vec::new(),
        batch: FrameBatch::new(),
        decoder: FrameDecoder::new(),
        decoded: Vec::new(),
        socket: match pipe {
            Pipe::Socket => Some(loopback_pair()?),
            Pipe::Null | Pipe::Codec => None,
        },
        rbuf: Vec::new(),
        msgs: 0,
        bytes: 0,
    };
    let start = Instant::now();
    for a in &arrivals {
        stage.from = a.node;
        stage.seq = a.seq;
        stage.probe.enter(Layer::EngineArrival, a.seq);
        let sent = engines[a.node as usize].on_arrival(a.tuple(), &mut stage);
        stage.probe.exit();
        sent?;
        stage.drain(&mut engines)?;
    }
    let wall = start.elapsed();
    Ok(Replay {
        wall,
        counts: Counts::of_engines(engines.iter()),
        msgs: stage.msgs,
        bytes: stage.bytes,
    })
}

/// Nanoseconds per operation of the summary and window primitives, with
/// the workload's own keys as input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveCosts {
    pub window_insert_ns: f64,
    pub window_probe_ns: f64,
    pub point_dft_add_ns: f64,
    pub agms_update_ns: f64,
}

fn ns_per(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Replays the schedule's keys through one `SlidingWindow`, one `PointDft`
/// and one `AgmsSketch`, each sized as a node of the cluster sizes it:
/// insert the arriving key, retire the one falling out of the window.
pub fn primitive_costs(schedule: &[Arr], seed: u64) -> PrimitiveCosts {
    let mut window = SlidingWindow::new(WindowSpec::count(WINDOW));
    let start = Instant::now();
    for a in schedule {
        black_box(window.insert(a.tuple(), a.seq).len());
    }
    let window_insert_ns = ns_per(start.elapsed(), schedule.len());
    let start = Instant::now();
    for a in schedule {
        black_box(window.probe(a.key));
    }
    let window_probe_ns = ns_per(start.elapsed(), schedule.len());

    let retained = ((DOMAIN / KAPPA).max(1)) as usize;
    let mut dft = PointDft::new(DOMAIN as usize, retained, ControlVector::never());
    let start = Instant::now();
    for (i, a) in schedule.iter().enumerate() {
        dft.add(a.key as usize, 1.0);
        if i >= WINDOW {
            dft.add(schedule[i - WINDOW].key as usize, -1.0);
        }
    }
    black_box(dft.updates());
    let dft_ops = 2 * schedule.len() - WINDOW.min(schedule.len());
    let point_dft_add_ns = ns_per(start.elapsed(), dft_ops);

    let mut sketch = AgmsSketch::with_size_bytes((retained * 16).max(48), seed);
    let start = Instant::now();
    for (i, a) in schedule.iter().enumerate() {
        sketch.update(u64::from(a.key), 1);
        if i >= WINDOW {
            sketch.update(u64::from(schedule[i - WINDOW].key), -1);
        }
    }
    black_box(sketch.updates());
    let agms_update_ns = ns_per(start.elapsed(), dft_ops);

    PrimitiveCosts {
        window_insert_ns,
        window_probe_ns,
        point_dft_add_ns,
        agms_update_ns,
    }
}

/// Nanoseconds per routing decision and per summary update of the
/// workload's strategy, outside any engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterCosts {
    pub route_ns: f64,
    pub local_update_ns: f64,
}

/// Warms one `RouterHarness` per node with the first half of the schedule
/// (window evictions included, summaries exchanged between all pairs),
/// then times `local_update` and `route` over the second half.
pub fn router_costs(alg: Alg, n: u16, seed: u64, schedule: &[Arr]) -> RouterCosts {
    let params = HarnessParams {
        n,
        domain: DOMAIN,
        kappa: KAPPA,
        window: WINDOW,
        seed,
    };
    let mut routers: Vec<RouterHarness> = (0..n)
        .map(|me| RouterHarness::new(alg.system(), me, params))
        .collect();
    // What each arrival evicts from its node's window, worked out ahead so
    // that the timed loops hold router calls only.
    let mut windows: Vec<[SlidingWindow; 2]> = (0..n)
        .map(|_| {
            [
                SlidingWindow::new(WindowSpec::count(WINDOW)),
                SlidingWindow::new(WindowSpec::count(WINDOW)),
            ]
        })
        .collect();
    let evicted: Vec<Option<u32>> = schedule
        .iter()
        .map(|a| {
            let w = &mut windows[a.node as usize][usize::from(a.s)];
            w.insert(a.tuple(), a.seq);
            w.evicted_keys().first().copied()
        })
        .collect();
    let exchange_all = |routers: &mut Vec<RouterHarness>| {
        for i in 0..routers.len() {
            for j in 0..routers.len() {
                if i != j {
                    let (src, dst) = if i < j {
                        let (lo, hi) = routers.split_at_mut(j);
                        (&mut lo[i], &mut hi[0])
                    } else {
                        let (lo, hi) = routers.split_at_mut(i);
                        (&mut hi[0], &mut lo[j])
                    };
                    src.exchange_into(dst);
                }
            }
        }
    };
    let half = schedule.len() / 2;
    for (a, ev) in schedule[..half].iter().zip(&evicted) {
        routers[a.node as usize].local_update(a.stream(), a.key, ev.as_slice());
    }
    exchange_all(&mut routers);
    let start = Instant::now();
    for (a, ev) in schedule[half..].iter().zip(&evicted[half..]) {
        routers[a.node as usize].local_update(a.stream(), a.key, ev.as_slice());
    }
    let local_update_ns = ns_per(start.elapsed(), schedule.len() - half);
    exchange_all(&mut routers);
    let start = Instant::now();
    for a in &schedule[half..] {
        black_box(routers[a.node as usize].route(a.stream(), a.key).0.len());
    }
    let route_ns = ns_per(start.elapsed(), schedule.len() - half);
    RouterCosts {
        route_ns,
        local_update_ns,
    }
}
