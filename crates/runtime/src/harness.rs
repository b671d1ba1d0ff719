//! The live [`Cluster`] that `dsj-core`'s [`driver::drive`] feeds, shared
//! by both live backends ([`crate::LiveCluster`]'s channels,
//! [`crate::TcpCluster`]'s sockets): one OS thread per node running
//! [`NodeEngine::run`], each node's one wait point — a [`Mailbox`] (event
//! queue plus wake-up latch) whose receive half ([`Inbox`]) every transport
//! embeds — the wall clock, the waits and the teardown. A backend adds
//! `send`/`flush` and its own event sources and spawns its nodes into a
//! [`Run`]; [`Pacing`] and [`OpenLoop`] name the driver's feeds.
//!
//! **Wake-ups are per burst.** Queueing an event ([`Mailbox::push`]) and
//! waking its consumer ([`Mailbox::kick`]) are separate steps: a producer
//! kicks each node it touched once, before it waits — the feed in
//! [`Cluster::advance`] and [`Cluster::wait_until`], a transport at the
//! end of its `flush` — so a woken node finds a backlog that fills its
//! frames and coalesced writes instead of one tuple.
//!
//! **In-flight accounting.** One cluster-wide `AtomicI64`: producers (the
//! feed, a transport's `send`) count an event *before* it becomes visible,
//! the engine's `quiesce` uncounts it *after* processing it — its own
//! sends counted first — so zero means globally idle.

#![allow(
    clippy::disallowed_methods,
    reason = "the live harness runs on wall time: pacing, timeouts and latency stamps, never a reproduced result"
)]

use crate::cluster::{LiveError, LiveOutcome, TransportStats};
use crate::reactor::Kick;
use crate::sync::{AtomicI64, Mutex, Ordering};
use dsj_core::driver::{self, Cluster, Feed, FeedReport};
use dsj_core::obs;
use dsj_core::{ClusterConfig, NodeEngine, RunError, Transport, TransportEvent};
use dsj_stream::Tuple;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How a closed-loop feed paces arrivals into a live cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Inject as fast as backpressure allows, up to `W·N/4` events in
    /// flight: maximum throughput, and remote probes trail their
    /// destination's window by a quarter of its grace on average, so
    /// they race benignly.
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
}

/// What one open-loop (load-generator) run measured: the regular outcome
/// plus the offered rate and the feed's overload observations. Per-tuple
/// delivery latency is in
/// [`LiveOutcome::delivery_latency_us`](crate::LiveOutcome).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRun {
    /// The run outcome; `tuples_per_sec` is the *achieved* rate.
    pub outcome: LiveOutcome,
    /// The rate the feed tried to inject at, tuples per second.
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

/// One node's wait point: its event queue (fed arrivals, shutdown and — on
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

/// The receive half of a [`Mailbox`], embedded by every live transport, with
/// the cluster's wall clock and the quiescence decrement.
pub(crate) struct Inbox {
    me: u16,
    mailbox: Arc<Mailbox>,
    /// Cluster-wide in-flight event counter.
    pub in_flight: Arc<AtomicI64>,
    /// The run's failure list, where a panicking node reports itself.
    failures: Arc<Mutex<Vec<LiveError>>>,
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
    /// Closes the mailbox: the node is gone. A node unwinding from a panic
    /// reports it first, so the feed's next check fails the run instead of
    /// waiting on the events the node left in flight, and an inject into
    /// the closed mailbox returns the panic, not [`LiveError::ChannelClosed`].
    fn drop(&mut self) {
        if thread::panicking() {
            self.failures.lock().push(LiveError::NodePanicked(self.me));
        }
        self.mailbox.queue.lock().closed = true;
    }
}

/// Backend-provided teardown hook: runs after the node threads have
/// joined (so no more traffic can move), shuts down whatever transport
/// machinery the backend still holds, and returns per-node
/// [`TransportStats`] for the outcome.
pub(crate) type FinishHook = Box<dyn FnOnce() -> Vec<TransportStats> + Send>;

/// One live run, backend-independent — the live [`Cluster`]: per-node
/// mailboxes (arrivals and shutdown go this way on every backend), the
/// node threads a backend spawns into it, and the feed's wait state.
pub(crate) struct Run {
    /// Events produced but not yet fully processed, cluster-wide.
    pub in_flight: Arc<AtomicI64>,
    /// Every failure any thread reported, settled by [`Run::failure`].
    pub failures: Arc<Mutex<Vec<LiveError>>>,
    /// Cluster start: the live clock is relative to it.
    epoch: Instant,
    /// Per-node mailboxes.
    pub mailboxes: Vec<Arc<Mailbox>>,
    /// The mailboxes' receive halves, until the nodes are spawned.
    pub inboxes: Vec<Inbox>,
    /// Node threads, in id order.
    handles: Vec<JoinHandle<NodeEngine>>,
    /// Transport teardown + stats collection; `None` for backends with
    /// nothing to report.
    pub finish: Option<FinishHook>,
    /// Nodes injected into since the last kick.
    owed: Vec<bool>,
    /// Yield-spins since progress was last seen: an injection, or in the
    /// drain a smaller backlog than at its last step.
    spins: u32,
    last_in_flight: i64,
}

impl Run {
    /// A run of `n` nodes with their mailboxes open and no thread spawned.
    pub fn new(n: u16) -> Self {
        let (in_flight, epoch) = (Arc::new(AtomicI64::new(0)), Instant::now());
        let failures = Arc::<Mutex<Vec<LiveError>>>::default();
        let (mailboxes, inboxes) = (0..n)
            .map(|me| {
                let mailbox = Arc::<Mailbox>::default();
                let inbox = Inbox {
                    me,
                    mailbox: Arc::clone(&mailbox),
                    in_flight: Arc::clone(&in_flight),
                    failures: Arc::clone(&failures),
                    epoch,
                };
                (mailbox, inbox)
            })
            .unzip();
        Run {
            in_flight,
            failures,
            epoch,
            mailboxes,
            inboxes,
            handles: Vec::new(),
            finish: None,
            owed: vec![false; usize::from(n)],
            spins: 0,
            last_in_flight: i64::MAX,
        }
    }

    /// Spawns every node's thread, in id order: the engine's drive loop
    /// over the transport `build` wraps around the node's [`Inbox`], with
    /// failures reported to the run.
    pub fn spawn_nodes<T>(&mut self, cfg: &ClusterConfig, build: impl Fn(&Run, u16, Inbox) -> T)
    where
        T: Transport<Error = LiveError> + Send + 'static,
    {
        for (me, inbox) in (0..).zip(std::mem::take(&mut self.inboxes)) {
            let mut transport = build(self, me, inbox);
            let mut engine = cfg.build_node(me);
            let failures = Arc::clone(&self.failures);
            self.handles.push(thread::spawn(move || {
                if let Err(e) = engine.run(&mut transport) {
                    failures.lock().push(e);
                }
                engine
            }));
        }
    }

    /// Wakes every node injected into since the last kick: once per burst,
    /// before every wait.
    fn kick(&mut self) {
        Mailbox::kick_due(&self.mailboxes, &mut self.owed);
    }

    /// The waits' per-step check: one lock, and `Err` with the aggregate
    /// (built only on that path) once any thread has reported a failure.
    fn check(&self) -> Result<(), LiveError> {
        if self.failures.lock().is_empty() {
            return Ok(());
        }
        self.failure().map_or(Ok(()), Err)
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

impl Cluster for Run {
    type Error = LiveError;
    type Extras = Vec<TransportStats>;

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Queues the arrival without waking its node, counted in flight
    /// *before* it becomes visible, and stamped with its due time if it has
    /// one; gives the count back if the node is gone — a counted event
    /// nobody can process would wedge the drain forever.
    fn inject(&mut self, node: u16, tuple: Tuple, due_ns: Option<u64>) -> Result<(), LiveError> {
        let event = TransportEvent::Arrival(tuple, due_ns.map(|ns| ns / 1_000));
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Err(closed) = self.mailboxes[usize::from(node)].push(event) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(self.failure().unwrap_or(closed));
        }
        self.owed[usize::from(node)] = true;
        self.spins = 0;
        Ok(())
    }

    /// A schedule gap: everything due so far is queued, so its nodes are
    /// woken once before the gap is slept out. Parks are capped so failure
    /// checks stay fresh even at very low rates.
    fn wait_until(&mut self, due_ns: u64) -> Result<bool, LiveError> {
        let now_ns = self.now_ns();
        if now_ns >= due_ns {
            return Ok(true);
        }
        self.kick();
        self.check()?;
        let gap = Duration::from_nanos(due_ns - now_ns);
        thread::park_timeout(gap.min(Duration::from_millis(1)));
        Ok(false)
    }

    /// The backlog cap, or the drain: what was queued since the last wait
    /// is one burst and its nodes are woken once for it — after the feed's
    /// last arrival too. Then one step of bounded backoff: `yield_now`
    /// spins while progress is recent (another runnable thread usually
    /// finishes the work within a quantum), then 100 µs parks, so a long
    /// drain costs wake-ups, not a core. Progress is an injection while
    /// feeding and a smaller backlog while draining. Nothing unparks the
    /// feed early: the timeout *is* the poll interval, so there is no wake
    /// protocol to get wrong, and it bounds how stale a failure check can
    /// get.
    fn advance(&mut self, deadline_ns: Option<u64>) -> Result<bool, LiveError> {
        let in_flight = self.in_flight();
        if deadline_ns.is_some() && in_flight < self.last_in_flight {
            self.spins = 0;
        }
        self.last_in_flight = in_flight;
        self.kick();
        self.check()?;
        if self.spins < 64 {
            self.spins += 1;
            thread::yield_now();
        } else {
            thread::park_timeout(Duration::from_micros(100));
        }
        Ok(deadline_ns.is_none_or(|deadline| self.now_ns() < deadline))
    }

    /// Sends every node its `Shutdown`, joins the threads, runs the
    /// backend's finish hook, and only then settles failures — every one
    /// any thread reported, node panics included, together with `fed`'s.
    fn finish(
        mut self,
        fed: Result<(), LiveError>,
    ) -> Result<(Vec<NodeEngine>, Vec<TransportStats>), LiveError> {
        // Nothing else ends a node's run loop, clean run or not.
        for mailbox in &self.mailboxes {
            let _ = mailbox.push(TransportEvent::Shutdown);
            mailbox.kick();
        }
        let mut engines = Vec::with_capacity(self.handles.len());
        let mut panicked = Vec::new();
        for (id, h) in (0..).zip(std::mem::take(&mut self.handles)) {
            match h.join() {
                Ok(engine) => engines.push(engine),
                Err(_) => panicked.push(LiveError::NodePanicked(id)),
            }
        }
        // Panics settle *through* the failure list, after the teardown: a
        // node panic caused by a transport fault surfaces both.
        let transport_per_node = self.finish.take().map_or_else(Vec::new, |f| f());
        self.failures.lock().extend(panicked);
        match (self.failure(), fed) {
            (Some(e), _) | (None, Err(e)) => Err(e),
            (None, Ok(())) => Ok((engines, transport_per_node)),
        }
    }
}

/// Runs `cfg`'s workload closed-loop, per `pacing`, through the cluster
/// `spawn` starts.
pub(crate) fn run_paced(
    cfg: &ClusterConfig,
    pacing: Pacing,
    spawn: impl FnOnce(&ClusterConfig) -> Result<Run, LiveError>,
) -> Result<LiveOutcome, LiveError> {
    // Freerun's cap bounds how far a probe can trail its destination's
    // window: at W·N/4 events in flight a node is W/4 inserts ahead on
    // average, a quarter of the window's grace of one window, so as-of
    // probes stay exact (`late_probes` counts any that are not), and each
    // wake-up still finds a backlog to batch. Lockstep's lets every
    // arrival's causal cone land before the next moves.
    let cap = match pacing {
        Pacing::Freerun => cfg.window.saturating_mul(usize::from(cfg.n)) / 4,
        Pacing::Lockstep => 1,
    };
    let cap = i64::try_from(cap.max(1)).unwrap_or(i64::MAX);
    live(cfg, Feed::Closed { cap }, spawn).map(|(outcome, _)| outcome)
}

/// Runs `cfg`'s workload open-loop at `spec`'s rate through the cluster
/// `spawn` starts — a rate with no schedule is refused before anything is
/// spawned — and reports it with the offered rate and the feed's overload
/// observations.
pub(crate) fn run_open_loop(
    cfg: &ClusterConfig,
    spec: &OpenLoop,
    spawn: impl FnOnce(&ClusterConfig) -> Result<Run, LiveError>,
) -> Result<LoadRun, LiveError> {
    let interarrival_ns = 1e9 / spec.rate_tps;
    if !driver::schedulable(interarrival_ns, cfg.tuples) {
        return Err(RunError::ArrivalRateOutOfRange(spec.rate_tps).into());
    }
    // Arrivals are stamped with their due time on the cluster-epoch clock,
    // not with the moment the feed got round to them: a late generator
    // delays every later tuple, and that belongs in their latency.
    let feed = Feed::Scheduled {
        interarrival_ns,
        abort_backlog: Some(spec.abort_backlog.unwrap_or(256 * i64::from(cfg.n).max(4))),
        grace_ns: None,
    };
    let (outcome, fed) = live(cfg, feed, spawn)?;
    Ok(LoadRun {
        outcome,
        offered_tps: spec.rate_tps,
        injected: fed.injected,
        total: cfg.tuples,
        peak_backlog: fed.peak_backlog,
        overloaded: fed.overloaded,
    })
}

/// Drives one live run and folds what the driver returns into a
/// [`LiveOutcome`]; the wall time is the feed's start to quiescence.
fn live(
    cfg: &ClusterConfig,
    feed: Feed,
    spawn: impl FnOnce(&ClusterConfig) -> Result<Run, LiveError>,
) -> Result<(LiveOutcome, FeedReport), LiveError> {
    let run = driver::drive(cfg, feed, |reg| reg.time_phase("spawn", || spawn(cfg)))?;
    let mut delivery_latency_us = obs::Histogram::new();
    for engine in &run.engines {
        delivery_latency_us.merge(engine.delivery_latency());
    }
    let wall_time = Duration::from_nanos(run.elapsed_ns);
    let totals = run.tally.totals();
    let messages = totals.tuple_msgs_sent + totals.summary_msgs_sent;
    let tuples_per_sec = run.fed.injected as f64 / wall_time.as_secs_f64().max(1e-9);
    if obs::enabled() {
        let mut reg = run.reg;
        reg.counter_add("live.messages", messages);
        reg.gauge_set("wall_time_secs", wall_time.as_secs_f64());
        reg.gauge_set("tuples_per_sec", tuples_per_sec);
        if delivery_latency_us.count() > 0 {
            reg.histogram_merge("delivery_latency_us", &delivery_latency_us);
        }
        // Each node's write coalescing, parked bytes and latch waits.
        for (me, t) in run.extras.iter().enumerate() {
            let per_syscall = t.frames_sent as f64 / t.write_syscalls.max(1) as f64;
            reg.gauge_set(
                &format!("node.{me:02}.pending_write_peak"),
                t.pending_peak_bytes as f64,
            );
            reg.gauge_set(&format!("node.{me:02}.frames_per_syscall"), per_syscall);
            reg.gauge_set(
                &format!("node.{me:02}.reactor_wakeups"),
                t.reactor_wakeups as f64,
            );
        }
        obs::emit(reg);
    }
    let outcome = LiveOutcome {
        truth_matches: run.tally.truth_matches,
        reported_matches: run.tally.reported_matches,
        epsilon: run.tally.epsilon(),
        messages,
        totals,
        per_node: run.tally.per_node,
        match_digests: run.tally.match_digests,
        transport_per_node: run.extras,
        delivery_latency_us,
        wall_time,
        tuples_per_sec,
    };
    Ok((outcome, run.fed))
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
            if let TransportEvent::Arrival(tuple, _) = event {
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
        assert_eq!(Run::new(0).failure(), None);
    }

    #[test]
    fn a_single_failure_passes_through_unwrapped() {
        let shared = Run::new(0);
        shared.failures.lock().push(LiveError::NodePanicked(3));
        assert_eq!(shared.failure(), Some(LiveError::NodePanicked(3)));
    }

    #[test]
    fn distinct_failures_aggregate_in_first_seen_order() {
        let shared = Run::new(0);
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
        let shared = Run::new(0);
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

    #[test]
    fn quiesce_failure_aborts_through_finish_hook() {
        // Real channel-backed nodes, parked on their latches.
        let cfg = test_cfg(3);
        let mut run = crate::LiveCluster::spawn(&cfg).unwrap();
        let finished = Arc::new(AtomicU32::new(0));
        run.finish = Some(counting_hook(&finished));
        // A wedged cluster: one phantom in-flight event that never drains,
        // and a failure reported by a node's socket sweep. In lockstep the
        // phantom holds the first arrival back, so the wait sees the
        // failure before any traffic exists.
        run.in_flight.fetch_add(1, Ordering::SeqCst);
        run.failures.lock().push(LiveError::Io {
            node: 2,
            detail: "connection reset".to_string(),
        });
        let mailboxes = run.mailboxes.clone();
        let err = run_paced(&cfg, Pacing::Lockstep, |_| Ok(run)).unwrap_err();
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
        // Over those threads, its mailboxes open and undrained, with a
        // counting finish hook where a backend would put its own.
        let finished = Arc::new(AtomicU32::new(0));
        let mut run = Run::new(cfg.n);
        (run.handles, run.finish) = (handles, Some(counting_hook(&finished)));
        run.failures.lock().push(LiveError::Io {
            node: 1,
            detail: "broken pipe".to_string(),
        });
        let err = run_paced(&cfg, Pacing::Freerun, |_| Ok(run)).unwrap_err();
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
        // A rate so small that the second arrival is due in 10²¹ ns has no
        // schedule either.
        for cfg in [test_cfg(3), test_cfg(1)] {
            for rate in [0.0, -3.0, f64::NAN, f64::INFINITY, 1e-12] {
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

    /// A node transport that panics at the first arrival it is handed and
    /// otherwise waits for its `Shutdown`.
    struct PanicsOnArrival(Inbox);

    impl Transport for PanicsOnArrival {
        type Error = LiveError;
        fn send(&mut self, _: u16, _: Msg) -> Result<(), LiveError> {
            Ok(())
        }
        fn poll_frame(
            &mut self,
            max: usize,
            frame: &mut Vec<TransportEvent>,
        ) -> Result<(), LiveError> {
            while {
                self.0.drain(max, frame);
                frame.is_empty()
            } {
                self.0.wait(Inbox::IDLE_WAIT);
            }
            if frame.iter().any(|e| !matches!(e, TransportEvent::Shutdown)) {
                panic!("induced node failure");
            }
            Ok(())
        }
        fn now_us(&mut self) -> u64 {
            self.0.now_us()
        }
        fn quiesce(&mut self) {
            self.0.quiesce();
        }
    }

    fn spawn_panicking(cfg: &ClusterConfig) -> Result<Run, LiveError> {
        let mut run = Run::new(cfg.n);
        run.spawn_nodes(cfg, |_, _, inbox| PanicsOnArrival(inbox));
        Ok(run)
    }

    /// The panicked node never quiesces its arrival, so a feed that waited
    /// for the backlog to drain would wait forever: its checks must see the
    /// panic instead. Each feed runs on a helper thread, so a hang fails
    /// the test rather than the suite.
    #[test]
    fn a_node_panic_fails_the_run_instead_of_hanging_it() {
        type Feed = fn(&ClusterConfig) -> Result<(), LiveError>;
        let feeds: [(&str, Feed); 2] = [
            ("closed, cap 1", |cfg| {
                run_paced(cfg, Pacing::Lockstep, spawn_panicking).map(drop)
            }),
            ("scheduled", |cfg| {
                run_open_loop(cfg, &OpenLoop::new(1_000.0), spawn_panicking).map(drop)
            }),
        ];
        let cfg = test_cfg(2).tuples(1);
        let node = cfg.arrivals()[0].node;
        for (name, feed) in feeds {
            let (tx, rx) = std::sync::mpsc::channel();
            let cfg = cfg.clone();
            let helper = thread::spawn(move || tx.send(feed(&cfg)));
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(result) => assert_eq!(result, Err(LiveError::NodePanicked(node)), "{name}"),
                Err(_) => panic!("{name}: no outcome within 10 s"),
            }
            helper.join().unwrap().unwrap();
        }
    }

    /// The drain owes the nodes one last kick when feeding ends: a closed
    /// loop that never reached its cap has kicked nobody.
    #[test]
    fn the_driver_kicks_what_the_feeder_queued_last() {
        let cfg = test_cfg(2).tuples(1);
        let mut run = Run::new(cfg.n);
        let seen = recording(&cfg, &mut run);
        run_paced(&cfg, Pacing::Freerun, |_| Ok(run)).unwrap();
        let kicked: Vec<bool> = seen.lock().unwrap().iter().map(|s| s.3).collect();
        assert_eq!(kicked, [true], "the last burst was never kicked");
    }

    /// Everything queued for a node so far.
    fn queued(inbox: &Inbox) -> Vec<TransportEvent> {
        let mut events = Vec::new();
        assert!(inbox.drain(usize::MAX, &mut events));
        events
    }

    /// An arrival as a node saw it: `(node, seq, stamp, kicked)`.
    type Seen = (u16, u64, Option<u64>, bool);

    /// Hand-made node threads in node order that look at their mailbox only
    /// when kicked — not on a spurious wake-up — or after ten seconds
    /// without one: each takes everything queued, records every arrival
    /// (and whether a kick handed it over) and quiesces it, and returns at
    /// its `Shutdown`.
    fn recording(cfg: &ClusterConfig, run: &mut Run) -> Arc<std::sync::Mutex<Vec<Seen>>> {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        for (me, inbox) in (0..).zip(std::mem::take(&mut run.inboxes)) {
            let (engine, seen) = (cfg.build_node(me), Arc::clone(&seen));
            run.handles.push(thread::spawn(move || loop {
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut kicked = false;
                while !kicked && Instant::now() < deadline {
                    kicked = inbox.wait(Duration::from_secs(10));
                }
                for event in queued(&inbox) {
                    let (tuple, stamp) = match event {
                        TransportEvent::Arrival(tuple, stamp) => (tuple, stamp),
                        TransportEvent::Net { .. } | TransportEvent::Shutdown => return engine,
                    };
                    seen.lock().unwrap().push((me, tuple.seq, stamp, kicked));
                    inbox.quiesce();
                }
            }));
        }
        seen
    }

    /// Runs `cfg`'s schedule open-loop at `rate_tps` over [`recording`]
    /// nodes: what the feed reported, what the nodes saw, and the in-flight
    /// count it left.
    fn recorded_open_loop(
        cfg: &ClusterConfig,
        rate_tps: f64,
        abort_backlog: i64,
    ) -> (LoadRun, Vec<Seen>, i64) {
        let mut run = Run::new(cfg.n);
        let seen = recording(cfg, &mut run);
        let in_flight = Arc::clone(&run.in_flight);
        let spec = OpenLoop {
            rate_tps,
            abort_backlog: Some(abort_backlog),
        };
        let load = run_open_loop(cfg, &spec, |_| Ok(run)).unwrap();
        let seen = seen.lock().unwrap().clone();
        (load, seen, in_flight.load(Ordering::SeqCst))
    }

    #[test]
    fn open_loop_feeder_preserves_per_node_sequence_order() {
        let cfg = test_cfg(3).tuples(300);
        let (load, seen, in_flight) = recorded_open_loop(&cfg, 5_000_000.0, i64::MAX);
        assert_eq!(load.injected, 300);
        assert!(!load.overloaded);
        // Every node sees its arrivals with strictly ascending sequence
        // numbers and nondecreasing injection stamps.
        for node in 0..cfg.n {
            let mine: Vec<&Seen> = seen.iter().filter(|s| s.0 == node).collect();
            assert!(!mine.is_empty(), "node {node} saw no arrivals");
            for pair in mine.windows(2) {
                assert!(pair[1].1 > pair[0].1, "seq order broken at node {node}");
                assert!(pair[1].2 >= pair[0].2);
            }
            assert!(mine.iter().all(|s| s.2.is_some()), "an unstamped arrival");
            assert!(mine.iter().all(|s| s.3), "an arrival no kick handed over");
        }
        // Feed increments stayed balanced with what the nodes processed.
        assert_eq!(seen.len(), 300);
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn open_loop_feeder_stamps_arrivals_with_their_due_time() {
        let cfg = test_cfg(2).tuples(5);
        let (_, seen, _) = recorded_open_loop(&cfg, 1_000.0, i64::MAX);
        // The stamp is the schedule, not the wall clock at injection: it
        // carries none of the feed's wake-up jitter.
        for node in 0..cfg.n {
            let mine: Vec<u64> = seen
                .iter()
                .filter(|s| s.0 == node)
                .filter_map(|s| s.2)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] <= w[1]));
        }
        let mut stamps: Vec<u64> = seen.iter().filter_map(|s| s.2).collect();
        stamps.sort_unstable();
        assert_eq!(stamps.len(), 5);
        assert!(
            stamps.windows(2).all(|w| w[1] - w[0] == 1_000),
            "{stamps:?}"
        );
    }

    #[test]
    fn open_loop_feeder_declares_overload_at_the_backlog_bound() {
        let cfg = test_cfg(3).tuples(100);
        // Every arrival is due at once, so the feed never waits and never
        // kicks: nothing drains while it feeds, and the backlog hits the
        // bound after exactly `bound` injections.
        let (load, seen, _) = recorded_open_loop(&cfg, 1e15, 25);
        assert!(load.overloaded);
        assert_eq!(load.injected, 25);
        assert_eq!(load.peak_backlog, 25);
        assert_eq!((load.total, seen.len()), (100, 25));
    }

    impl Mailbox {
        /// Events queued, read past the explorer (for its observer, which
        /// may not block: a queue held across a yield point is its finding).
        pub(crate) fn queued(&self) -> Result<usize, String> {
            let queue = self.queue.0.try_lock().ok();
            let queued = queue.map(|queue| queue.events.len());
            queued.ok_or_else(|| "a mailbox is locked across a yield point".to_string())
        }
    }

    const SEARCH: Explorer = Explorer {
        bound: 3,
        random: 50,
        seed: 0x5EED,
    };

    fn tuple(seq: u64) -> Tuple {
        Tuple::new(dsj_stream::StreamId::R, 1, seq, 0)
    }

    /// Who meets whom in scenario 2.
    #[derive(Clone, Copy, Debug)]
    enum Parties {
        /// The feed's `Run::inject` ×2, `kick` ∥ node 0, which forwards both.
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
        let mut run = Run::new(2);
        let (mailboxes, in_flight) = (run.mailboxes.clone(), Arc::clone(&run.in_flight));
        let mut inboxes = std::mem::take(&mut run.inboxes);
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
                let feeder = move || {
                    run.inject(0, tuple(0), None).unwrap();
                    run.inject(0, tuple(1), None).unwrap();
                    run.kick();
                };
                vec![node(0, own), Box::new(feeder)]
            }
            Parties::NodeAndNode => {
                for seq in 0..2 {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    mailboxes[0]
                        .push(TransportEvent::Arrival(tuple(seq), None))
                        .unwrap();
                }
                vec![node(0, own), node(1, peer)]
            }
            Parties::SenderAndDyingReceiver => {
                let mut sender = ChannelTransport::new(0, own, mailboxes.clone());
                let send = move || {
                    let piggyback = Vec::new();
                    let sent = sender.send(
                        1,
                        Msg::Tuple {
                            tuple: tuple(0),
                            piggyback,
                        },
                    );
                    assert!(matches!(sent, Ok(()) | Err(LiveError::ChannelClosed)));
                };
                vec![Box::new(send), Box::new(move || drop(peer))]
            }
        };
        let invariant = move |done: bool| {
            let _undrained = &idle_peer;
            let in_flight = in_flight.0.load(Ordering::SeqCst);
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
        // Two nodes that never drain, fed 16 arrivals as a closed loop is
        // up to its cap: the injections wake nobody, and the wait at the
        // cap kicks. The failure planted beforehand then ends the wait.
        let cfg = test_cfg(2).tuples(40);
        let mut run = Run::new(cfg.n);
        let inboxes = std::mem::take(&mut run.inboxes);
        run.failures.lock().push(LiveError::NodePanicked(0));
        for a in &cfg.arrivals()[..16] {
            run.inject(a.node, a.tuple(), None).unwrap();
        }
        for inbox in &inboxes {
            assert!(!inbox.wait(Duration::ZERO), "an injection kicked its node");
        }
        assert_eq!(run.advance(None), Err(LiveError::NodePanicked(0)));
        assert_eq!(run.in_flight(), 16);
        // The burst was kicked before the wait: nothing is owed, and each
        // node's latch is flagged exactly once (a second wait times out).
        assert!(run.owed.iter().all(|owed| !owed));
        for inbox in &inboxes {
            assert!(inbox.wait(Duration::from_secs(5)));
            assert!(!inbox.wait(Duration::from_millis(1)));
        }
        let total: usize = inboxes.iter().map(|inbox| queued(inbox).len()).sum();
        assert_eq!(total, 16);
    }
}
