//! The backend-independent half of a live cluster run.
//!
//! Both live backends (threads-over-channels in [`crate::LiveCluster`],
//! sockets in [`crate::TcpCluster`]) share everything except how bytes
//! move: one OS thread per node running [`NodeEngine::run`] over its
//! transport, a feeder injecting the arrival schedule, an in-flight event
//! counter for quiescence detection, and the final aggregation into a
//! [`LiveOutcome`]. That shared half lives here — down to each node's one
//! wait point, a [`Mailbox`] (event queue plus wake-up latch) whose
//! receive half ([`Inbox`]) every transport embeds; the backends implement
//! `send`/`flush`, add their own event sources (the TCP nodes' sockets)
//! and spawn their nodes into the [`Run`] that [`prepare`] hands them.
//!
//! # Wake-ups are per burst, not per event
//!
//! Queueing an event ([`Mailbox::push`]) and waking its consumer
//! ([`Mailbox::kick`]) are separate steps: a producer kicks each node it
//! touched once, when it is about to wait or is done — the feeders at the
//! backlog cap or a schedule gap, a transport at the end of its `flush`. A
//! node woken per event runs each tuple through the cluster alone (one
//! frame, one write, several context switches per message); woken per
//! burst it finds a backlog that fills the frames and coalesced writes.
//!
//! # Driver / feeder split
//!
//! The run lifecycle — prepare → spawn → feed → quiesce → join →
//! aggregate — is one backend-independent driver ([`drive_with`])
//! parameterized by a [`Feeder`], the policy for *when* each arrival is
//! injected:
//!
//! * [`ClosedLoop`] waits for the cluster: [`Pacing::Freerun`] caps the
//!   in-flight backlog, [`Pacing::Lockstep`] drains to zero between
//!   arrivals (the deterministic, cross-backend-equivalent mode).
//! * [`OpenLoopFeeder`] does not wait: arrivals are injected on a
//!   virtual-time schedule at a target rate regardless of how fast the
//!   cluster drains them — the load-generator mode. Each arrival carries
//!   the time it was *due*, and the engines record due →
//!   end-of-processing delay into per-node latency histograms. A backlog
//!   past the overload bound ends injection early and marks the run
//!   overloaded instead of letting the schedule drift meaninglessly.
//!
//! # In-flight accounting
//!
//! A single cluster-wide `AtomicI64` counts events that have been produced
//! but not fully processed. Producers (the feeder for arrivals, a
//! transport's `send` for messages) increment *before* the event becomes
//! visible; the engine's `quiesce` hook decrements *after* the event's
//! processing — including any sends it triggered, which were counted
//! first — so the counter can only read zero when the cluster is globally
//! idle.

#![allow(
    clippy::disallowed_methods,
    reason = "the live harness runs on wall time: pacing, timeouts and latency stamps, never a reproduced result"
)]

use crate::cluster::{LiveError, LiveOutcome, TransportStats};
use crate::reactor::Kick;
use crate::sync::{AtomicI64, Mutex, Ordering};
use dsj_core::obs;
use dsj_core::{ClusterConfig, LockstepReport, NodeEngine, RunError, Transport, TransportEvent};
use dsj_stream::gen::Arrival;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How the closed-loop feeder paces arrivals into a live cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Inject as fast as backpressure allows (a bounded event backlog).
    /// Maximum throughput; remote probe timing races benignly.
    Freerun,
    /// Drain the cluster to quiescence between consecutive arrivals.
    /// Slow, but the global event order becomes deterministic — the mode
    /// under which every backend (simulated included) is provably
    /// equivalent.
    Lockstep,
}

/// An open-loop injection schedule: arrivals enter the cluster at a fixed
/// aggregate rate on a virtual-time schedule, independent of how fast the
/// cluster drains them. The load-generator counterpart of [`Pacing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Target aggregate injection rate, tuples per second across the
    /// whole cluster.
    pub rate_tps: f64,
    /// Backlog (in-flight events) at which the run is declared overloaded
    /// and injection stops; `None` picks a bound scaled to the cluster
    /// size. Without a bound, an offered rate above capacity would grow
    /// the queues — and the measured latencies — without limit, telling
    /// us nothing beyond "overloaded".
    pub abort_backlog: Option<i64>,
}

impl OpenLoop {
    /// An open-loop schedule at `rate_tps` with the default overload
    /// bound.
    pub fn new(rate_tps: f64) -> Self {
        OpenLoop {
            rate_tps,
            abort_backlog: None,
        }
    }

    /// The effective overload bound for a cluster of `n` nodes.
    fn backlog_bound(&self, n: u16) -> i64 {
        self.abort_backlog.unwrap_or(256 * i64::from(n).max(4))
    }
}

/// What a feeder observed while injecting the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FeedReport {
    /// Arrivals actually injected (all of them unless the feeder bailed
    /// out on overload).
    pub injected: usize,
    /// Highest in-flight backlog observed at injection points.
    pub peak_backlog: i64,
    /// `true` when an open-loop feeder stopped early because the backlog
    /// crossed its overload bound.
    pub overloaded: bool,
}

/// What one open-loop (load-generator) run measured: the regular outcome
/// plus the offered rate and the feeder's overload observations. Per-tuple
/// delivery latency is in
/// [`LiveOutcome::delivery_latency_us`](crate::LiveOutcome).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// The run outcome; `tuples_per_sec` is the *achieved* rate.
    pub outcome: LiveOutcome,
    /// The rate the feeder tried to inject at, tuples per second.
    pub offered_tps: f64,
    /// Arrivals injected before the run ended.
    pub injected: usize,
    /// Arrivals the schedule held in total.
    pub total: usize,
    /// Highest in-flight backlog observed at injection points.
    pub peak_backlog: i64,
    /// `true` when injection stopped early on overload.
    pub overloaded: bool,
}

/// State shared between the feeder and the node threads of one live run.
pub(crate) struct Shared {
    /// Events produced but not yet fully processed, cluster-wide.
    pub in_flight: Arc<AtomicI64>,
    /// Failure reporting from any thread. Every failure is kept; the
    /// harness aggregates them (deduplicated by node and kind, in
    /// first-seen order) when surfacing the run's error.
    pub failures: Arc<Mutex<Vec<LiveError>>>,
    /// Cluster start; live transports report clocks relative to it.
    pub epoch: Instant,
}

impl Shared {
    pub fn new() -> Self {
        Shared {
            in_flight: Arc::new(AtomicI64::new(0)),
            failures: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
        }
    }

    /// Whether any thread has reported a failure: one lock, no allocation.
    fn has_failure(&self) -> bool {
        !self.failures.lock().is_empty()
    }

    /// The wait loops' per-iteration check: `Err` with the aggregate once
    /// any thread has reported a failure, built only on that path.
    fn check(&self) -> Result<(), LiveError> {
        let failure = self.has_failure().then(|| self.failure()).flatten();
        failure.map_or(Ok(()), Err)
    }

    /// All reported failures so far, deduplicated by ([`LiveError::kind_key`])
    /// node and kind in first-seen order: `None` when the run is clean, the
    /// lone error when exactly one distinct failure was reported, and
    /// [`LiveError::Faults`] listing every distinct failure otherwise.
    fn failure(&self) -> Option<LiveError> {
        let mut distinct: Vec<LiveError> = Vec::new();
        for e in self.failures.lock().iter() {
            if !distinct.iter().any(|d| d.kind_key() == e.kind_key()) {
                distinct.push(e.clone());
            }
        }
        match distinct.len() {
            0 => None,
            1 => distinct.pop(),
            _ => Some(LiveError::Faults(distinct)),
        }
    }
}

/// One node's wait point: its event queue (feeder arrivals, shutdown and — on
/// the channel backend — peer traffic) and the latch its thread parks on.
/// Producers on any thread [`push`](Mailbox::push) and, separately,
/// [`kick`](Mailbox::kick); the owner drains through its [`Inbox`], whose drop
/// closes the queue.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<MailQueue>,
    latch: Kick,
}

#[derive(Default)]
struct MailQueue {
    events: VecDeque<TransportEvent>,
    /// Set when the owning [`Inbox`] is dropped: the node is gone.
    closed: bool,
}

impl Mailbox {
    /// Queues `event` without waking the node; the caller owes a
    /// [`Mailbox::kick`] before it waits for the event's effect.
    ///
    /// # Errors
    ///
    /// [`LiveError::ChannelClosed`] when the node's thread is gone.
    pub fn push(&self, event: TransportEvent) -> Result<(), LiveError> {
        let mut queue = self.queue.lock();
        if queue.closed {
            return Err(LiveError::ChannelClosed);
        }
        queue.events.push_back(event);
        Ok(())
    }

    /// Wakes the node if it is waiting (one atomic swap if not).
    pub fn kick(&self) {
        self.latch.notify();
    }

    /// Kicks every mailbox whose `due` flag is set, and clears the flags.
    pub fn kick_due(mailboxes: &[Arc<Mailbox>], due: &mut [bool]) {
        for (mailbox, due) in mailboxes.iter().zip(due) {
            if std::mem::take(due) {
                mailbox.kick();
            }
        }
    }

    /// How often the node found nothing to do and waited on its latch.
    pub fn waits(&self) -> u64 {
        self.latch.waits()
    }
}

/// Opens one node's mailbox: the producers' side and its receive half.
pub(crate) fn mailbox(shared: &Shared) -> (Arc<Mailbox>, Inbox) {
    let mailbox = Arc::<Mailbox>::default();
    let inbox = Inbox {
        mailbox: Arc::clone(&mailbox),
        in_flight: Arc::clone(&shared.in_flight),
        epoch: shared.epoch,
    };
    (mailbox, inbox)
}

/// The receive half of a [`Mailbox`], embedded by every live transport, with
/// the cluster's wall clock and the quiescence decrement.
pub(crate) struct Inbox {
    mailbox: Arc<Mailbox>,
    /// Cluster-wide in-flight event counter.
    pub in_flight: Arc<AtomicI64>,
    epoch: Instant,
}

impl Inbox {
    /// How long a node that is owed nothing parks between re-checks.
    pub const IDLE_WAIT: Duration = Duration::from_millis(20);

    /// Moves queued events into `frame` until it holds `max`; `true` when
    /// that emptied the queue.
    pub fn drain(&self, max: usize, frame: &mut Vec<TransportEvent>) -> bool {
        let mut queue = self.mailbox.queue.lock();
        let take = queue.events.len().min(max.saturating_sub(frame.len()));
        frame.extend(queue.events.drain(..take));
        queue.events.is_empty()
    }

    /// Parks until kicked or `timeout` passes; `true` when kicked.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.mailbox.latch.wait(timeout)
    }

    pub fn now_us(&self) -> u64 {
        // The live clock *is* wall time; it feeds only time-window eviction
        // and the governor, never reproduced results.
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn quiesce(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        self.mailbox.queue.lock().closed = true;
    }
}

/// `Transport::poll` for the live transports: a frame of one.
pub(crate) fn poll_one<T: Transport<Error = LiveError>>(
    transport: &mut T,
) -> Result<TransportEvent, LiveError> {
    let mut one = Vec::with_capacity(1);
    transport.poll_frame(1, &mut one)?;
    one.pop().ok_or(LiveError::ChannelClosed)
}

/// A feeder's handle on the node mailboxes: queues arrivals without
/// waking anyone and remembers which nodes it owes a kick.
pub(crate) struct Injector<'a> {
    shared: &'a Shared,
    mailboxes: &'a [Arc<Mailbox>],
    touched: Vec<bool>,
}

impl<'a> Injector<'a> {
    pub fn new(shared: &'a Shared, mailboxes: &'a [Arc<Mailbox>]) -> Self {
        Injector {
            shared,
            mailboxes,
            touched: vec![false; mailboxes.len()],
        }
    }

    /// Queues `event` for `node`, counted in flight *before* it becomes
    /// visible; gives the count back if the node is gone — a counted event
    /// nobody can process would wedge the drain loop forever.
    fn inject(&mut self, node: u16, event: TransportEvent) -> Result<(), LiveError> {
        let shared = self.shared;
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Err(closed) = self.mailboxes[node as usize].push(event) {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(shared.failure().unwrap_or(closed));
        }
        self.touched[node as usize] = true;
        Ok(())
    }

    /// Wakes every node injected into since the last call: the feeder's
    /// before each wait, the driver's once more when the feeder returns.
    fn kick(&mut self) {
        Mailbox::kick_due(self.mailboxes, &mut self.touched);
    }
}

/// Bounded-backoff waiting for the feeder and quiescence loops: a short
/// burst of `yield_now` spins (the common case — another runnable thread
/// finishes the work within a scheduling quantum), then timed parks so a
/// long drain costs wakeups, not a spinning core. Nothing unparks the
/// waiter early: the park timeout *is* the poll interval, so no wake
/// protocol (and no atomics-ordering obligation) exists to get wrong.
struct Backoff {
    spins: u32,
}

impl Backoff {
    /// Yield-spins before the first timed park.
    const SPIN_LIMIT: u32 = 64;
    /// Park duration once spinning gives up; also bounds how stale a
    /// failure check can get while waiting.
    const PARK: Duration = Duration::from_micros(100);

    fn new() -> Self {
        Backoff { spins: 0 }
    }

    /// Waits one step: a yield while in the spin phase, a timed park after.
    fn wait(&mut self) {
        if self.spins < Self::SPIN_LIMIT {
            self.spins += 1;
            thread::yield_now();
        } else {
            thread::park_timeout(Self::PARK);
        }
    }

    /// Back to the spin phase (progress was observed).
    fn reset(&mut self) {
        self.spins = 0;
    }
}

/// Records one node's transport counters — write coalescing, parked
/// bytes and how often the node itself waited on its latch — as
/// observability gauges.
fn record_transport(reg: &mut obs::Registry, me: u16, t: &TransportStats) {
    reg.gauge_set(
        &format!("node.{me:02}.pending_write_peak"),
        t.pending_peak_bytes as f64,
    );
    let per_syscall = if t.write_syscalls == 0 {
        0.0
    } else {
        t.frames_sent as f64 / t.write_syscalls as f64
    };
    reg.gauge_set(&format!("node.{me:02}.frames_per_syscall"), per_syscall);
    reg.gauge_set(
        &format!("node.{me:02}.reactor_wakeups"),
        t.reactor_wakeups as f64,
    );
}

/// Backend-provided teardown hook: runs after the node threads have
/// joined (so no more traffic can move), shuts down whatever transport
/// machinery the backend still holds, and returns per-node
/// [`TransportStats`] for the outcome.
pub(crate) type FinishHook = Box<dyn FnOnce() -> Vec<TransportStats> + Send>;

/// One live run, backend-independent: [`prepare`] fills in the workload
/// and the per-node mailboxes (arrivals and shutdown go this way on every
/// backend), the backend spawns its node threads into it, and [`drive`] /
/// [`drive_open`] consume it.
pub(crate) struct Run {
    reg: obs::Registry,
    arrivals: Vec<Arrival>,
    truth_matches: u64,
    /// When [`prepare`] returned; everything until the driver takes over
    /// is the `"spawn"` phase.
    spawn_started: Instant,
    /// Shared feeder/node/reader state.
    pub shared: Shared,
    /// Per-node mailboxes.
    pub mailboxes: Vec<Arc<Mailbox>>,
    /// The mailboxes' receive halves, until the nodes are spawned.
    inboxes: Vec<Inbox>,
    /// Node threads, in id order.
    handles: Vec<JoinHandle<NodeEngine>>,
    /// Transport teardown + stats collection; `None` for backends with
    /// nothing to report.
    pub finish: Option<FinishHook>,
}

/// Validates `cfg`, generates its schedule and ground truth (the
/// `"workload"` phase) and opens one mailbox per node — everything
/// every backend does before its first transport exists.
///
/// # Errors
///
/// [`LiveError::Config`] for configurations [`ClusterConfig::validate`]
/// rejects.
pub(crate) fn prepare(cfg: &ClusterConfig) -> Result<Run, LiveError> {
    cfg.validate()?;
    let mut reg = obs::Registry::default();
    let (arrivals, truth_matches) = reg.time_phase("workload", || {
        let arrivals = cfg.arrivals();
        let truth_matches = cfg.truth_of(&arrivals);
        (arrivals, truth_matches)
    });
    let shared = Shared::new();
    let (mailboxes, inboxes) = (0..cfg.n).map(|_| mailbox(&shared)).unzip();
    Ok(Run {
        reg,
        arrivals,
        truth_matches,
        spawn_started: Instant::now(),
        shared,
        mailboxes,
        inboxes,
        handles: Vec::new(),
        finish: None,
    })
}

impl Run {
    /// Spawns every node's thread, in id order: the engine's drive loop
    /// over the transport `build` wraps around the node's [`Inbox`], with
    /// failures reported through the shared state.
    pub fn spawn_nodes<T>(&mut self, cfg: &ClusterConfig, build: impl Fn(&Run, u16, Inbox) -> T)
    where
        T: Transport<Error = LiveError> + Send + 'static,
    {
        for (me, inbox) in (0..).zip(std::mem::take(&mut self.inboxes)) {
            let mut transport = build(self, me, inbox);
            let mut engine = cfg.build_node(me);
            let failures = Arc::clone(&self.shared.failures);
            self.handles.push(thread::spawn(move || {
                if let Err(e) = engine.run(&mut transport) {
                    failures.lock().push(e);
                }
                engine
            }));
        }
    }
}

/// Injection policy: *when* each scheduled arrival enters the cluster.
/// The driver owns everything around the feed (spawn, quiesce, join,
/// aggregate); a feeder owns only the injection loop.
pub(crate) trait Feeder {
    /// Injects `arrivals` into the node mailboxes through `nodes`,
    /// kicking the nodes it touched ([`Injector::kick`]) before every wait.
    ///
    /// # Errors
    ///
    /// A failure reported by the cluster while feeding, or the injection
    /// failure itself.
    fn feed(
        &mut self,
        arrivals: &[Arrival],
        nodes: &mut Injector<'_>,
    ) -> Result<FeedReport, LiveError>;
}

/// The closed-loop feeder: waits for the cluster before each injection,
/// per [`Pacing`].
pub(crate) struct ClosedLoop {
    threshold: i64,
}

impl ClosedLoop {
    /// Feeder for `pacing` over a cluster of `n` nodes.
    ///
    /// Freerun caps the events in flight so slow consumers don't
    /// accumulate unbounded queues — unbounded backlog would let probe
    /// messages arrive long after their window contents were evicted,
    /// losing matches to staleness rather than to the algorithm. Lockstep
    /// waits for zero: every arrival's full causal cone lands before the
    /// next moves.
    pub fn new(pacing: Pacing, n: u16) -> Self {
        ClosedLoop {
            threshold: match pacing {
                Pacing::Freerun => 8 * i64::from(n),
                Pacing::Lockstep => 1,
            },
        }
    }
}

impl Feeder for ClosedLoop {
    fn feed(
        &mut self,
        arrivals: &[Arrival],
        nodes: &mut Injector<'_>,
    ) -> Result<FeedReport, LiveError> {
        let shared = nodes.shared;
        let mut backoff = Backoff::new();
        let mut peak = 0i64;
        for a in arrivals {
            loop {
                let backlog = shared.in_flight.load(Ordering::SeqCst);
                if backlog < self.threshold {
                    peak = peak.max(backlog);
                    break;
                }
                // The cap is reached: what was queued since the last wait
                // is one burst, and its nodes are woken once for it.
                nodes.kick();
                shared.check()?;
                backoff.wait();
            }
            backoff.reset();
            nodes.inject(a.node, TransportEvent::Arrival(a.tuple()))?;
        }
        Ok(FeedReport {
            injected: arrivals.len(),
            peak_backlog: peak,
            overloaded: false,
        })
    }
}

/// The open-loop feeder: arrival `k` of the schedule is due at
/// `k / rate` seconds after the feed starts, and is injected then whether
/// or not the cluster has drained earlier ones — the defining property of
/// open-loop load generation (a closed loop can never observe
/// saturation: it slows its offered load to whatever the system sustains).
///
/// Each arrival is stamped with its due time on the cluster-epoch clock
/// — the same clock every live transport reports from `now_us` — not with
/// the moment the feeder got round to it: a generator that runs late
/// delays every later tuple, and that wait belongs in the delivery
/// latency the engines record. If the backlog crosses the overload bound,
/// injection stops and the run is reported overloaded.
pub(crate) struct OpenLoopFeeder {
    interarrival_ns: f64,
    abort_backlog: i64,
}

impl OpenLoopFeeder {
    /// Feeder for `spec` over a cluster of `n` nodes.
    pub fn new(spec: &OpenLoop, n: u16) -> Self {
        OpenLoopFeeder {
            interarrival_ns: 1e9 / spec.rate_tps,
            abort_backlog: spec.backlog_bound(n),
        }
    }
}

impl Feeder for OpenLoopFeeder {
    fn feed(
        &mut self,
        arrivals: &[Arrival],
        nodes: &mut Injector<'_>,
    ) -> Result<FeedReport, LiveError> {
        let shared = nodes.shared;
        let start = Instant::now();
        let start_ns = start.duration_since(shared.epoch).as_nanos() as u64;
        let mut peak = 0i64;
        for (k, a) in arrivals.iter().enumerate() {
            // Virtual-time schedule: wait out the gap to this arrival's
            // due time. Parks are capped so failure checks stay fresh
            // even at very low rates.
            let due_ns = (k as f64 * self.interarrival_ns) as u64;
            loop {
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                if elapsed_ns >= due_ns {
                    break;
                }
                // A schedule gap: everything due so far is queued, wake
                // its nodes once before sleeping the gap out.
                nodes.kick();
                shared.check()?;
                let gap = Duration::from_nanos(due_ns - elapsed_ns);
                thread::park_timeout(gap.min(Duration::from_millis(1)));
            }
            let backlog = shared.in_flight.load(Ordering::SeqCst);
            peak = peak.max(backlog);
            if backlog >= self.abort_backlog {
                // Overload: the cluster is provably not keeping up with
                // the offered rate. Stop injecting — latencies past this
                // point would only measure the queue we chose to build.
                return Ok(FeedReport {
                    injected: k,
                    peak_backlog: peak,
                    overloaded: true,
                });
            }
            let event = TransportEvent::StampedArrival {
                tuple: a.tuple(),
                injected_us: (start_ns + due_ns) / 1_000,
            };
            nodes.inject(a.node, event)?;
        }
        Ok(FeedReport {
            injected: arrivals.len(),
            peak_backlog: peak,
            overloaded: false,
        })
    }
}

/// Feeds the arrival schedule with the closed-loop feeder, waits for
/// quiescence, shuts the node threads down and aggregates their engines
/// into a [`LiveOutcome`].
pub(crate) fn drive(
    cfg: &ClusterConfig,
    pacing: Pacing,
    run: Run,
) -> Result<LiveOutcome, LiveError> {
    let mut feeder = ClosedLoop::new(pacing, cfg.n);
    drive_with(&mut feeder, run).map(|(outcome, _)| outcome)
}

/// Spawns the cluster, feeds the arrival schedule open-loop at the spec's
/// target rate and reports the run as a [`LoadRun`] (outcome + offered rate +
/// overload observations).
pub(crate) fn drive_open(
    cfg: &ClusterConfig,
    spec: &OpenLoop,
    spawn: impl FnOnce(&ClusterConfig) -> Result<Run, LiveError>,
) -> Result<LoadRun, LiveError> {
    // No schedule exists at a zero, negative, NaN or infinite rate: say so
    // before any thread is spawned, not by waiting out an arrival due in days.
    if !(spec.rate_tps.is_finite() && spec.rate_tps > 0.0) {
        return Err(RunError::ArrivalRateOutOfRange(spec.rate_tps).into());
    }
    let run = spawn(cfg)?;
    let mut feeder = OpenLoopFeeder::new(spec, cfg.n);
    let total = run.arrivals.len();
    let (outcome, report) = drive_with(&mut feeder, run)?;
    Ok(LoadRun {
        outcome,
        offered_tps: spec.rate_tps,
        injected: report.injected,
        total,
        peak_backlog: report.peak_backlog,
        overloaded: report.overloaded,
    })
}

/// The backend-independent driver: feed (via `feeder`) → quiesce → shut
/// down → join → finish hook → aggregate. A failed feed or quiesce skips
/// nothing after it: every exit path sends `Shutdown`, joins every node
/// thread and runs the backend's finish hook, and failures surfaced by any
/// thread — including node panics — are settled together into one
/// aggregated error.
pub(crate) fn drive_with<F: Feeder>(
    feeder: &mut F,
    run: Run,
) -> Result<(LiveOutcome, FeedReport), LiveError> {
    let Run {
        mut reg,
        arrivals,
        truth_matches,
        spawn_started,
        shared,
        mailboxes,
        handles,
        finish,
        ..
    } = run;
    reg.phase_add("spawn", spawn_started.elapsed());
    // Feed arrivals in global order (per-mailbox FIFO keeps each node's
    // sequence numbers ascending, as the windows require). Whatever the
    // feeder queued last has not been kicked yet: it is done, so kick.
    let start = Instant::now();
    let mut nodes = Injector::new(&shared, &mailboxes);
    let fed = feeder.feed(&arrivals, &mut nodes);
    nodes.kick();
    reg.phase_add("inject", start.elapsed());

    // Quiesce: wait until no events remain anywhere in the cluster.
    let drain_started = Instant::now();
    let fed = fed.and_then(|report| {
        let mut backoff = Backoff::new();
        let mut last = i64::MAX;
        while {
            let now = shared.in_flight.load(Ordering::SeqCst);
            if now < last {
                backoff.reset();
            }
            last = now;
            now > 0
        } {
            shared.check()?;
            backoff.wait();
        }
        Ok(report)
    });
    let wall_time = start.elapsed();
    reg.phase_add("drain", drain_started.elapsed());
    // Every node gets its shutdown, clean run or not: nothing else ends
    // a node's run loop, and an unsent one would leave the thread parked
    // on its latch for the life of the process.
    for mailbox in &mailboxes {
        let _ = mailbox.push(TransportEvent::Shutdown);
        mailbox.kick();
    }

    let join_started = Instant::now();
    let mut engines = Vec::with_capacity(handles.len());
    let mut panicked = Vec::new();
    for (id, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(engine) => engines.push(engine),
            Err(_) => panicked.push(LiveError::NodePanicked(id as u16)),
        }
    }
    // Node threads are done; stop the backend's transport machinery and
    // collect its per-node counters — and only then settle failures, so
    // anything the teardown surfaced is included. Panics are settled
    // *through* the shared failure list, not short-circuited: a node
    // panic caused by a transport fault must surface both (the fault is
    // the root cause, the panic its symptom).
    let transport_per_node = finish.map_or_else(Vec::new, |f| f());
    shared.failures.lock().extend(panicked);
    // A feed error no thread recorded (a send into a queue whose node is
    // gone) still fails the run.
    let report = match (shared.failure(), fed) {
        (Some(e), _) | (None, Err(e)) => return Err(e),
        (None, Ok(report)) => report,
    };
    let tally = LockstepReport::new(truth_matches, &engines);
    let mut delivery_latency_us = obs::Histogram::new();
    for engine in &engines {
        delivery_latency_us.merge(engine.delivery_latency());
    }
    reg.phase_add("join", join_started.elapsed());
    let totals = tally.totals();
    let messages = totals.tuple_msgs_sent + totals.summary_msgs_sent;
    let tuples_per_sec = report.injected as f64 / wall_time.as_secs_f64().max(1e-9);
    if obs::enabled() {
        tally.record_into(&mut reg, report.injected as u64);
        reg.counter_add("live.messages", messages);
        reg.gauge_set("wall_time_secs", wall_time.as_secs_f64());
        reg.gauge_set("tuples_per_sec", tuples_per_sec);
        if delivery_latency_us.count() > 0 {
            reg.histogram_merge("delivery_latency_us", &delivery_latency_us);
        }
        for (me, t) in transport_per_node.iter().enumerate() {
            record_transport(&mut reg, me as u16, t);
        }
        obs::emit(reg);
    }
    let outcome = LiveOutcome {
        truth_matches,
        reported_matches: tally.reported_matches,
        epsilon: tally.epsilon(),
        messages,
        totals,
        per_node: tally.per_node,
        match_digests: tally.match_digests,
        transport_per_node,
        delivery_latency_us,
        wall_time,
        tuples_per_sec,
    };
    Ok((outcome, report))
}

#[cfg(test)]
/// A node thread as `NodeEngine::run` drives its transport — a frame of up to
/// `max` events, a `quiesce` per event, a `flush` — until it has processed
/// `expect` events: an arrival forwards one probe to `peer`, a probe is
/// absorbed. `in_hand` counts events polled and not yet quiesced, for the
/// observer.
pub(crate) fn explored_node<T>(
    mut transport: T,
    peer: u16,
    max: usize,
    expect: usize,
    in_hand: &std::sync::atomic::AtomicUsize,
) where
    T: Transport<Error = LiveError>,
{
    let mut frame = Vec::new();
    let mut processed = 0;
    while processed < expect {
        transport.poll_frame(max, &mut frame).expect("poll_frame");
        in_hand.fetch_add(frame.len(), Ordering::SeqCst);
        for event in frame.drain(..) {
            if let TransportEvent::Arrival(tuple) = event {
                let piggyback = Vec::new();
                transport
                    .send(peer, dsj_core::Msg::Tuple { tuple, piggyback })
                    .expect("send");
            }
            transport.quiesce();
            in_hand.fetch_sub(1, Ordering::SeqCst);
            processed += 1;
        }
        transport.flush().expect("flush");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ChannelTransport;
    use crate::explore::{Explorer, Scenario};
    use dsj_core::{Algorithm, Msg};
    use std::sync::atomic::{AtomicU32, AtomicUsize};

    #[test]
    fn no_failures_reports_none() {
        assert_eq!(Shared::new().failure(), None);
    }

    #[test]
    fn a_single_failure_passes_through_unwrapped() {
        let shared = Shared::new();
        shared.failures.lock().push(LiveError::NodePanicked(3));
        assert_eq!(shared.failure(), Some(LiveError::NodePanicked(3)));
    }

    #[test]
    fn distinct_failures_aggregate_in_first_seen_order() {
        let shared = Shared::new();
        {
            let mut f = shared.failures.lock();
            f.push(LiveError::Io {
                node: 1,
                detail: "broken pipe".to_string(),
            });
            f.push(LiveError::ChannelClosed);
            f.push(LiveError::NodePanicked(0));
        }
        match shared.failure() {
            Some(LiveError::Faults(all)) => {
                assert_eq!(all.len(), 3);
                assert!(matches!(all[0], LiveError::Io { node: 1, .. }));
                assert_eq!(all[1], LiveError::ChannelClosed);
                assert_eq!(all[2], LiveError::NodePanicked(0));
            }
            other => panic!("expected Faults, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_by_node_and_kind_collapse() {
        let shared = Shared::new();
        {
            let mut f = shared.failures.lock();
            // Same kind, same node: one event reported twice.
            f.push(LiveError::Io {
                node: 2,
                detail: "reset".to_string(),
            });
            f.push(LiveError::Io {
                node: 2,
                detail: "reset again".to_string(),
            });
            // Same kind, different node: genuinely distinct.
            f.push(LiveError::Io {
                node: 4,
                detail: "reset".to_string(),
            });
            // Every peer sees the same closed channel once it dies.
            f.push(LiveError::ChannelClosed);
            f.push(LiveError::ChannelClosed);
        }
        match shared.failure() {
            Some(LiveError::Faults(all)) => {
                assert_eq!(all.len(), 3);
                assert!(matches!(all[0], LiveError::Io { node: 2, .. }));
                assert!(matches!(all[1], LiveError::Io { node: 4, .. }));
                assert_eq!(all[2], LiveError::ChannelClosed);
            }
            other => panic!("expected Faults, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_display_lists_every_failure() {
        let e = LiveError::Faults(vec![LiveError::NodePanicked(1), LiveError::ChannelClosed]);
        assert_eq!(
            e.to_string(),
            "2 transport failures: node thread 1 panicked; \
             inter-node channel closed unexpectedly"
        );
    }

    // --- Driver error-path harness -------------------------------------

    fn test_cfg(n: u16) -> ClusterConfig {
        ClusterConfig::new(n, Algorithm::Base)
            .window(16)
            .domain(1 << 9)
            .tuples(12)
            .seed(11)
    }

    /// A finish hook that counts its invocations.
    fn counting_hook(counter: &Arc<AtomicU32>) -> FinishHook {
        let counter = Arc::clone(counter);
        Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        })
    }

    /// Node threads that return their engine at once, as if every node
    /// had already seen its shutdown.
    fn idle_handles(cfg: &ClusterConfig) -> Vec<JoinHandle<NodeEngine>> {
        (0..cfg.n)
            .map(|me| {
                let engine = cfg.build_node(me);
                thread::spawn(move || engine)
            })
            .collect()
    }

    /// A prepared run over hand-made node threads, with a counting finish
    /// hook where a backend would put its own.
    fn rigged(
        cfg: &ClusterConfig,
        handles: Vec<JoinHandle<NodeEngine>>,
        finished: &Arc<AtomicU32>,
    ) -> Run {
        let mut run = prepare(cfg).unwrap();
        run.handles = handles;
        run.finish = Some(counting_hook(finished));
        run
    }

    #[test]
    fn send_failure_gives_its_increment_back_and_runs_finish() {
        let cfg = test_cfg(3);
        let finished = Arc::new(AtomicU32::new(0));
        let mut run = rigged(&cfg, idle_handles(&cfg), &finished);
        let in_flight = Arc::clone(&run.shared.in_flight);
        // Mailboxes whose receive halves are already gone: the first
        // injection fails.
        run.inboxes.clear();
        let err = drive(&cfg, Pacing::Freerun, run).unwrap_err();
        assert_eq!(err, LiveError::ChannelClosed);
        // The failed send's increment was given back — nothing leaks.
        assert_eq!(in_flight.load(Ordering::SeqCst), 0);
        // The backend teardown ran exactly once on the abort path.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quiesce_failure_aborts_through_finish_hook() {
        // Real channel-backed nodes, parked on their latches.
        let cfg = test_cfg(3);
        let mut run = crate::LiveCluster::spawn(&cfg).unwrap();
        let finished = Arc::new(AtomicU32::new(0));
        run.finish = Some(counting_hook(&finished));
        // A wedged cluster: one phantom in-flight event that never drains,
        // and a failure reported by a node's socket sweep.
        run.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        run.shared.failures.lock().push(LiveError::Io {
            node: 2,
            detail: "connection reset".to_string(),
        });
        // Empty schedule: the feed is a no-op, the quiesce loop sees the
        // failure.
        run.arrivals.clear();
        let mailboxes = run.mailboxes.clone();
        let err = drive(&cfg, Pacing::Freerun, run).unwrap_err();
        assert!(matches!(err, LiveError::Io { node: 2, .. }), "{err:?}");
        assert_eq!(finished.load(Ordering::SeqCst), 1);
        // No node thread outlives the failed run: each owned its mailbox's
        // receive half and closed it on the way out, so a send to a gone
        // node still fails.
        for (node, mailbox) in mailboxes.iter().enumerate() {
            assert_eq!(
                mailbox.push(TransportEvent::Shutdown),
                Err(LiveError::ChannelClosed),
                "node {node} is still parked on its mailbox"
            );
        }
    }

    #[test]
    fn node_panic_aggregates_with_transport_faults() {
        let cfg = test_cfg(3);
        // A transport fault took node 1's thread down with it.
        let handles: Vec<JoinHandle<NodeEngine>> = (0..cfg.n)
            .map(|me| {
                let engine = cfg.build_node(me);
                thread::spawn(move || -> NodeEngine {
                    if me == 1 {
                        panic!("induced node failure");
                    }
                    engine
                })
            })
            .collect();
        let finished = Arc::new(AtomicU32::new(0));
        let mut run = rigged(&cfg, handles, &finished);
        run.shared.failures.lock().push(LiveError::Io {
            node: 1,
            detail: "broken pipe".to_string(),
        });
        run.arrivals.clear();
        let err = drive(&cfg, Pacing::Freerun, run).unwrap_err();
        // Both the root cause and the panic surface, fault first.
        match err {
            LiveError::Faults(all) => {
                assert_eq!(all.len(), 2);
                assert!(matches!(all[0], LiveError::Io { node: 1, .. }));
                assert_eq!(all[1], LiveError::NodePanicked(1));
            }
            other => panic!("expected aggregated faults, got {other:?}"),
        }
        // The teardown ran before failures were settled.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn open_loop_rejects_a_rate_without_a_schedule_before_spawning() {
        type Backend = fn(&ClusterConfig, &OpenLoop) -> Result<LoadRun, LiveError>;
        let backends: [Backend; 2] = [
            crate::LiveCluster::run_open_loop,
            crate::TcpCluster::run_open_loop,
        ];
        // One node is no cluster either, but the rate is looked at first:
        // nothing has been prepared, bound or spawned when it is refused.
        for cfg in [test_cfg(3), test_cfg(1)] {
            for rate in [0.0, -3.0, f64::NAN, f64::INFINITY] {
                for run in backends {
                    match run(&cfg, &OpenLoop::new(rate)) {
                        Err(LiveError::Config(RunError::ArrivalRateOutOfRange(r))) => {
                            assert_eq!(r.to_bits(), rate.to_bits());
                        }
                        other => panic!("rate {rate}: {other:?}"),
                    }
                }
            }
        }
    }

    /// The driver owes the nodes one last kick when the feeder returns: a
    /// feeder that never had to wait has kicked nobody.
    #[test]
    fn the_driver_kicks_what_the_feeder_queued_last() {
        struct OneArrival;
        impl Feeder for OneArrival {
            fn feed(
                &mut self,
                _: &[Arrival],
                nodes: &mut Injector<'_>,
            ) -> Result<FeedReport, LiveError> {
                nodes.inject(0, arrival(0))?;
                Ok(FeedReport {
                    injected: 1,
                    peak_backlog: 0,
                    overloaded: false,
                })
            }
        }
        let cfg = test_cfg(2);
        let mut run = prepare(&cfg).unwrap();
        let inbox = run.inboxes.remove(0);
        let kicked = Arc::new(AtomicU32::new(0));
        let saw = Arc::clone(&kicked);
        let engine = cfg.build_node(0);
        // Node 0 by hand; only a kick counts, not the timeout, not a
        // spurious wake-up.
        run.handles = vec![thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut kicked = false;
            while !kicked && Instant::now() < deadline {
                kicked = inbox.wait(Duration::from_secs(10));
            }
            saw.store(u32::from(kicked), Ordering::SeqCst);
            assert_eq!(queued(&inbox).len(), 1);
            inbox.quiesce();
            engine
        })];
        drive_with(&mut OneArrival, run).unwrap();
        assert_eq!(
            kicked.load(Ordering::SeqCst),
            1,
            "the last burst was never kicked"
        );
    }

    /// Mailboxes nobody drains, with their receive halves kept alive.
    fn undrained(shared: &Shared, n: u16) -> (Vec<Arc<Mailbox>>, Vec<Inbox>) {
        (0..n).map(|_| mailbox(shared)).unzip()
    }

    /// Everything queued for a node so far.
    fn queued(inbox: &Inbox) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        assert!(inbox.drain(usize::MAX, &mut events));
        events
    }

    #[test]
    fn open_loop_feeder_preserves_per_node_sequence_order() {
        let cfg = test_cfg(3).tuples(300);
        let arrivals = cfg.arrivals();
        let shared = Shared::new();
        let (mailboxes, inboxes) = undrained(&shared, cfg.n);
        // Nothing drains in this test, so the backlog equals everything
        // injected; lift the overload bound out of the way.
        let spec = OpenLoop {
            rate_tps: 5_000_000.0,
            abort_backlog: Some(i64::MAX),
        };
        let report = OpenLoopFeeder::new(&spec, cfg.n)
            .feed(&arrivals, &mut Injector::new(&shared, &mailboxes))
            .unwrap();
        assert_eq!(report.injected, arrivals.len());
        assert!(!report.overloaded);
        // Every mailbox sees its node's arrivals with strictly ascending
        // sequence numbers and nondecreasing injection stamps.
        for (node, inbox) in inboxes.iter().enumerate() {
            let mut last_seq = None;
            let mut last_stamp = 0u64;
            for event in queued(inbox) {
                match event {
                    TransportEvent::StampedArrival { tuple, injected_us } => {
                        assert_eq!(usize::from(tuple.origin), node);
                        if let Some(prev) = last_seq {
                            assert!(tuple.seq > prev, "seq order broken at node {node}");
                        }
                        last_seq = Some(tuple.seq);
                        assert!(injected_us >= last_stamp);
                        last_stamp = injected_us;
                    }
                    other => panic!("open-loop feeder sent {other:?}"),
                }
            }
            assert!(last_seq.is_some(), "node {node} saw no arrivals");
        }
        // Feeder increments stayed balanced with what landed in mailboxes.
        assert_eq!(
            shared.in_flight.load(Ordering::SeqCst),
            arrivals.len() as i64
        );
    }

    #[test]
    fn open_loop_feeder_stamps_arrivals_with_their_due_time() {
        let cfg = test_cfg(2).tuples(5);
        let arrivals = cfg.arrivals();
        let shared = Shared::new();
        let (mailboxes, inboxes) = undrained(&shared, cfg.n);
        let spec = OpenLoop {
            rate_tps: 1_000.0,
            abort_backlog: Some(i64::MAX),
        };
        OpenLoopFeeder::new(&spec, cfg.n)
            .feed(&arrivals, &mut Injector::new(&shared, &mailboxes))
            .unwrap();
        // The stamp is the schedule, not the wall clock at injection: it
        // carries none of the feeder's wake-up jitter.
        let mut stamps = Vec::new();
        for inbox in &inboxes {
            let at = stamps.len();
            for event in queued(inbox) {
                match event {
                    TransportEvent::StampedArrival { injected_us, .. } => stamps.push(injected_us),
                    other => panic!("open-loop feeder sent {other:?}"),
                }
            }
            assert!(stamps[at..].windows(2).all(|w| w[0] <= w[1]));
        }
        stamps.sort_unstable();
        assert_eq!(stamps.len(), arrivals.len());
        assert!(
            stamps.windows(2).all(|w| w[1] - w[0] == 1_000),
            "{stamps:?}"
        );
    }

    #[test]
    fn open_loop_feeder_declares_overload_at_the_backlog_bound() {
        let cfg = test_cfg(3).tuples(100);
        let arrivals = cfg.arrivals();
        let shared = Shared::new();
        let (mailboxes, _inboxes) = undrained(&shared, cfg.n);
        // Nothing drains, so the backlog hits the bound after exactly
        // `bound` injections.
        let spec = OpenLoop {
            rate_tps: 5_000_000.0,
            abort_backlog: Some(25),
        };
        let report = OpenLoopFeeder::new(&spec, cfg.n)
            .feed(&arrivals, &mut Injector::new(&shared, &mailboxes))
            .unwrap();
        assert!(report.overloaded);
        assert_eq!(report.injected, 25);
        assert_eq!(report.peak_backlog, 25);
    }

    impl Mailbox {
        /// Events queued, read past the explorer (for its observer, which
        /// may not block: a queue held across a yield point is its finding).
        pub(crate) fn queued(&self) -> Result<usize, String> {
            let queue = self.queue.0.try_lock();
            let queued = queue.map(|queue| queue.events.len());
            queued.ok_or_else(|| "a mailbox is locked across a yield point".to_string())
        }
    }

    const SEARCH: Explorer = Explorer {
        bound: 3,
        random: 50,
        seed: 0x5EED,
    };

    fn arrival(seq: u64) -> TransportEvent {
        TransportEvent::Arrival(dsj_stream::Tuple::new(dsj_stream::StreamId::R, 1, seq, 0))
    }

    /// Who meets whom in scenario 2.
    #[derive(Clone, Copy, Debug)]
    enum Parties {
        /// `Injector::inject` ×2, `kick` ∥ node 0, which forwards both.
        FeederAndNode,
        /// Node 0 with two arrivals queued ∥ node 1, which absorbs its probes.
        NodeAndNode,
        /// Node 0's `send` ∥ node 1's `Inbox` dropping.
        SenderAndDyingReceiver,
    }

    /// Scenario 2, the mailbox + in-flight protocol on the channel backend,
    /// pair by pair. Nodes run as [`explored_node`]s, so a lost wake-up ends
    /// with one parked on an event it was not told about. The observer holds
    /// between any two steps: producers count first, so the in-flight count
    /// covers what is queued or in a node's hands (zero means idle), and at the
    /// end nothing else is left in it — a send that found its receiver gone
    /// gave its increment back.
    fn mailbox_protocol(parties: Parties) -> Scenario {
        let shared = Arc::new(Shared::new());
        let (mailboxes, mut inboxes) = undrained(&shared, 2);
        let in_hand = Arc::new(AtomicUsize::new(0));
        let node = |me: u16, inbox: Inbox| -> Box<dyn FnOnce() + Send> {
            let transport = ChannelTransport::new(me, inbox, mailboxes.clone());
            let in_hand = Arc::clone(&in_hand);
            Box::new(move || explored_node(transport, 1 - me, 8, 2, &in_hand))
        };
        let (peer, own) = (inboxes.pop().unwrap(), inboxes.pop().unwrap());
        let mut idle_peer = None;
        let threads: Vec<Box<dyn FnOnce() + Send>> = match parties {
            Parties::FeederAndNode => {
                idle_peer = Some(peer);
                let (shared, mailboxes) = (Arc::clone(&shared), mailboxes.clone());
                let feeder = move || {
                    let mut nodes = Injector::new(&shared, &mailboxes);
                    nodes.inject(0, arrival(0)).unwrap();
                    nodes.inject(0, arrival(1)).unwrap();
                    nodes.kick();
                };
                vec![node(0, own), Box::new(feeder)]
            }
            Parties::NodeAndNode => {
                for seq in 0..2 {
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    mailboxes[0].push(arrival(seq)).unwrap();
                }
                vec![node(0, own), node(1, peer)]
            }
            Parties::SenderAndDyingReceiver => {
                let mut sender = ChannelTransport::new(0, own, mailboxes.clone());
                let send = move || {
                    let tuple = dsj_stream::Tuple::new(dsj_stream::StreamId::R, 1, 0, 0);
                    let piggyback = Vec::new();
                    let sent = sender.send(1, Msg::Tuple { tuple, piggyback });
                    assert!(matches!(sent, Ok(()) | Err(LiveError::ChannelClosed)));
                };
                vec![Box::new(send), Box::new(move || drop(peer))]
            }
        };
        let invariant = move |done: bool| {
            let _undrained = &idle_peer;
            let in_flight = shared.in_flight.0.load(Ordering::SeqCst);
            let queued: Result<usize, String> = mailboxes.iter().map(|m| m.queued()).sum();
            let (queued, in_hand) = (queued?, in_hand.load(Ordering::SeqCst));
            let covered = (queued + in_hand) as i64;
            if in_flight < covered || (done && in_flight != covered) {
                return Err(format!(
                    "in_flight = {in_flight} with {queued} queued and {in_hand} in hand"
                ));
            }
            Ok(())
        };
        Scenario {
            threads,
            invariant: Box::new(invariant),
        }
    }

    #[test]
    fn explored_mailbox_protocol_counts_first_and_loses_no_wake_up() {
        for parties in [
            Parties::FeederAndNode,
            Parties::NodeAndNode,
            Parties::SenderAndDyingReceiver,
        ] {
            let report = SEARCH
                .explore(|| mailbox_protocol(parties))
                .unwrap_or_else(|f| panic!("{parties:?}: {f:?}"));
            println!("mailbox + in-flight, {parties:?}: {report:?}");
        }
    }

    #[test]
    fn feeders_wake_a_node_once_per_burst_not_per_arrival() {
        // Two nodes that never drain: the closed-loop cap (8·N = 16) stops
        // the feeder after 16 injections, and that is when it kicks. The
        // failure planted beforehand then ends the wait.
        let cfg = test_cfg(2).tuples(40);
        let arrivals = cfg.arrivals();
        let shared = Shared::new();
        let (mailboxes, inboxes) = undrained(&shared, cfg.n);
        shared.failures.lock().push(LiveError::NodePanicked(0));
        let mut nodes = Injector::new(&shared, &mailboxes);
        let err = ClosedLoop::new(Pacing::Freerun, cfg.n)
            .feed(&arrivals, &mut nodes)
            .unwrap_err();
        assert_eq!(err, LiveError::NodePanicked(0));
        assert_eq!(shared.in_flight.load(Ordering::SeqCst), 16);
        // The burst was kicked before the wait: nothing is owed, and each
        // node's latch is flagged exactly once (a second wait times out).
        assert!(nodes.touched.iter().all(|owed| !owed));
        for inbox in &inboxes {
            assert!(inbox.wait(Duration::from_secs(5)));
            assert!(!inbox.wait(Duration::from_millis(1)));
        }
        let total: usize = inboxes.iter().map(|inbox| queued(inbox).len()).sum();
        assert_eq!(total, 16);
    }
}
