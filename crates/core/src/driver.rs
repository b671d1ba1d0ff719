//! The experiment protocol, written once for every backend: validate →
//! schedule and ground truth → build → feed → drain → finish → tally.
//!
//! A backend is a [`Cluster`] — the simulator (`Simulation<NodeEngine>`,
//! virtual clock) or `dsj-runtime`'s threaded and TCP clusters (wall
//! clock) — and *when* each arrival enters is the [`Feed`]. [`drive`] has
//! one feed loop and one drain loop for all of them, and no clock, thread
//! or wait of its own: clocks and waiting are the cluster's.

use crate::engine::NodeEngine;
use crate::error::RunError;
use crate::obs;
use crate::runner::{ClusterConfig, LockstepReport};
use dsj_stream::Tuple;

/// A running cluster the driver can feed. Times are nanoseconds on the
/// cluster's own clock; an injected arrival counts in flight before it is
/// visible, so `in_flight` reads zero only when the cluster is idle.
pub trait Cluster {
    /// What can go wrong while the cluster runs.
    type Error;
    /// What the backend reports beside the engines.
    type Extras;

    /// The cluster's clock.
    fn now_ns(&self) -> u64;

    /// Events produced and not yet processed, cluster-wide.
    fn in_flight(&self) -> i64;

    /// Queues `tuple` at `node`: at once for a closed loop (`None`), at
    /// `due_ns` for a schedule — a live node measures the arrival's
    /// delivery latency from it. A failed inject is not counted in flight.
    fn inject(&mut self, node: u16, tuple: Tuple, due_ns: Option<u64>) -> Result<(), Self::Error>;

    /// One step of waiting for `due_ns`; `true` once the clock reached it.
    fn wait_until(&mut self, due_ns: u64) -> Result<bool, Self::Error>;

    /// One step of progress on the work in flight: `None` while the feed
    /// waits under its cap, and in the drain the time it ends by
    /// (`u64::MAX` for none); `false` when no progress is possible before
    /// that.
    fn advance(&mut self, drain_deadline_ns: Option<u64>) -> Result<bool, Self::Error>;

    /// Stops the cluster and hands back its engines, in node order, and
    /// its extras. Runs on every path once the cluster is built, settling
    /// `fed` — the feed and drain's outcome — with the cluster's failures.
    fn finish(
        self,
        fed: Result<(), Self::Error>,
    ) -> Result<(Vec<NodeEngine>, Self::Extras), Self::Error>;
}

/// When each arrival of the schedule enters the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feed {
    /// Inject once fewer than `cap` events are in flight; 1 is lockstep.
    Closed {
        /// The backlog the feed waits under.
        cap: i64,
    },
    /// Inject arrival `k` at `k · interarrival_ns` after the feed starts,
    /// however far behind the cluster is.
    Scheduled {
        /// Spacing of the schedule (see [`schedulable`]).
        interarrival_ns: f64,
        /// Stop injecting, overloaded, at this backlog.
        abort_backlog: Option<i64>,
        /// End the drain this long after the last due time, losing what
        /// is still in flight; `None` drains to quiescence.
        grace_ns: Option<u64>,
    },
}

/// Whether `arrivals` arrivals spaced `interarrival_ns` apart fit the
/// driver's clock exactly: a finite, positive spacing, and a last due time
/// under 2⁵³ ns (~104 days), below which every multiple of an integer
/// spacing is an exact `f64`.
pub fn schedulable(interarrival_ns: f64, arrivals: usize) -> bool {
    interarrival_ns.is_finite()
        && interarrival_ns > 0.0
        && arrivals.saturating_sub(1) as f64 * interarrival_ns < (1u64 << 53) as f64
}

/// What the feed observed while injecting the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Arrivals injected: all unless the feed stopped on overload.
    pub injected: usize,
    /// Highest backlog seen at injection points.
    pub peak_backlog: i64,
    /// The feed stopped at its overload bound.
    pub overloaded: bool,
}

/// A finished run, as every backend reports it.
#[derive(Debug)]
pub struct Driven<X> {
    /// The backend-independent tally.
    pub tally: LockstepReport,
    /// The engines, in node order.
    pub engines: Vec<NodeEngine>,
    /// What the backend reported beside them.
    pub extras: X,
    /// What the feed observed.
    pub fed: FeedReport,
    /// From the feed's start to the run's end: quiescence, or the grace
    /// deadline if one was set.
    pub elapsed_ns: u64,
    /// The phases and, under an open capture buffer, the tally's rows;
    /// the caller adds its own and emits it.
    pub reg: obs::Registry,
}

/// Runs `cfg`'s workload through the cluster `build` makes, fed by `feed`:
/// `cfg` is validated before anything is built, and once it is built
/// [`Cluster::finish`] runs on every path.
///
/// # Errors
///
/// The configuration's [`RunError`], `build`'s error, or what `finish`
/// settles.
pub fn drive<C>(
    cfg: &ClusterConfig,
    feed: Feed,
    build: impl FnOnce(&mut obs::Registry) -> Result<C, C::Error>,
) -> Result<Driven<C::Extras>, C::Error>
where
    C: Cluster,
    C::Error: From<RunError>,
{
    cfg.validate()?;
    let mut reg = obs::Registry::default();
    let (arrivals, truth_matches) = reg.time_phase("workload", || {
        let arrivals = cfg.schedule();
        let truth_matches = cfg.truth_of(&arrivals);
        (arrivals, truth_matches)
    });
    let mut cluster = build(&mut reg)?;
    let started_ns = cluster.now_ns();
    let (cap, interarrival_ns, abort_backlog, grace_ns) = match feed {
        Feed::Closed { cap } => (cap, None, None, None),
        Feed::Scheduled {
            interarrival_ns,
            abort_backlog,
            grace_ns,
        } => (i64::MAX, Some(interarrival_ns), abort_backlog, grace_ns),
    };
    let due_ns = |k: usize| interarrival_ns.map(|dt| started_ns + (k as f64 * dt) as u64);
    let fed = reg.time_phase("inject", || -> Result<_, C::Error> {
        let mut fed = FeedReport::default();
        for (k, a) in arrivals.iter().enumerate() {
            let due_ns = due_ns(k);
            if let Some(due_ns) = due_ns {
                while !cluster.wait_until(due_ns)? {}
            }
            let backlog = loop {
                let backlog = cluster.in_flight();
                if backlog < cap {
                    break backlog;
                }
                cluster.advance(None)?;
            };
            fed.peak_backlog = fed.peak_backlog.max(backlog);
            // Past the bound the cluster provably does not keep up:
            // latencies would only measure the queue the feed built.
            fed.overloaded = abort_backlog.is_some_and(|bound| backlog >= bound);
            if fed.overloaded {
                return Ok(fed);
            }
            cluster.inject(a.node, a.tuple(), due_ns)?;
            fed.injected += 1;
        }
        Ok(fed)
    });
    let drained = reg.time_phase("drain", || -> Result<_, C::Error> {
        let fed = fed?;
        let last_due_ns = due_ns(fed.injected.saturating_sub(1));
        let deadline_ns = grace_ns
            .zip(last_due_ns)
            .map(|(grace, due)| due.saturating_add(grace));
        while cluster.in_flight() > 0 && cluster.advance(Some(deadline_ns.unwrap_or(u64::MAX)))? {}
        let ended_ns = deadline_ns.unwrap_or_else(|| cluster.now_ns());
        Ok((fed, ended_ns.saturating_sub(started_ns)))
    });
    let (settled, (fed, elapsed_ns)) = match drained {
        Ok(drained) => (Ok(()), drained),
        Err(e) => (Err(e), Default::default()),
    };
    let (engines, extras) = reg.time_phase("join", || cluster.finish(settled))?;
    let tally = LockstepReport::new(truth_matches, &engines);
    if obs::enabled() {
        tally.record_into(&mut reg, fed.injected as u64);
    }
    Ok(Driven {
        tally,
        engines,
        extras,
        fed,
        elapsed_ns,
        reg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Algorithm;
    use std::cell::Cell;
    use std::rc::Rc;

    fn cfg(tuples: usize) -> ClusterConfig {
        ClusterConfig::new(3, Algorithm::Base)
            .window(16)
            .domain(1 << 9)
            .tuples(tuples)
            .seed(11)
    }

    /// A scripted cluster, its own extras: an injected arrival is one event
    /// in flight, `advance` processes one in 10 ns unless `stuck`, and a
    /// wait moves the clock to the due time. `log` holds `(due, backlog
    /// before)` per inject.
    #[derive(Debug, Default)]
    struct Scripted {
        clock_ns: u64,
        pending: i64,
        log: Vec<(Option<u64>, i64)>,
        stuck: bool,
        fail_inject_at: Option<usize>,
        fail_advance: bool,
        finished: Rc<Cell<u32>>,
    }

    impl Cluster for Scripted {
        type Error = RunError;
        type Extras = Scripted;

        fn now_ns(&self) -> u64 {
            self.clock_ns
        }

        fn in_flight(&self) -> i64 {
            self.pending
        }

        fn inject(&mut self, _: u16, _: Tuple, due_ns: Option<u64>) -> Result<(), RunError> {
            if self.fail_inject_at == Some(self.log.len()) {
                return Err(RunError::NoTuples);
            }
            self.log.push((due_ns, self.pending));
            self.pending += 1;
            Ok(())
        }

        fn wait_until(&mut self, due_ns: u64) -> Result<bool, RunError> {
            self.clock_ns = self.clock_ns.max(due_ns);
            Ok(true)
        }

        fn advance(&mut self, deadline_ns: Option<u64>) -> Result<bool, RunError> {
            if self.fail_advance {
                return Err(RunError::ZeroWindow);
            }
            if self.stuck || deadline_ns.is_some_and(|d| self.clock_ns + 10 > d) {
                return Ok(false);
            }
            (self.clock_ns, self.pending) = (self.clock_ns + 10, self.pending - 1);
            Ok(true)
        }

        fn finish(self, fed: Result<(), RunError>) -> Result<(Vec<NodeEngine>, Self), RunError> {
            self.finished.set(self.finished.get() + 1);
            fed?;
            Ok(((0..3).map(|me| cfg(1).build_node(me)).collect(), self))
        }
    }

    #[test]
    fn a_closed_loop_with_cap_one_drains_to_zero_before_every_inject() {
        let cfg = cfg(20);
        let run = drive(&cfg, Feed::Closed { cap: 1 }, |_| Ok(Scripted::default())).unwrap();
        // Nothing is in flight at an inject, and nothing has a due time.
        assert_eq!(run.extras.log, vec![(None, 0); 20]);
        assert_eq!((run.fed.injected, run.fed.peak_backlog), (20, 0));
        // Nineteen waits at the cap and the drain, 10 ns each.
        assert_eq!((run.elapsed_ns, run.extras.pending), (200, 0));
        assert_eq!(run.tally.truth_matches, cfg.ground_truth_matches());
    }

    #[test]
    fn a_scheduled_feed_stops_at_its_overload_bound() {
        // Nothing is processed while feeding: the backlog is the count.
        let feed = Feed::Scheduled {
            interarrival_ns: 2.5,
            abort_backlog: Some(25),
            grace_ns: None,
        };
        let run = drive(&cfg(40), feed, |_| Ok(Scripted::default())).unwrap();
        let overloaded = FeedReport {
            injected: 25,
            peak_backlog: 25,
            overloaded: true,
        };
        assert_eq!(run.fed, overloaded);
        // Arrival k is due k · 2.5 ns after the start.
        let dues: Vec<_> = run.extras.log[..5].iter().map(|&(due, _)| due).collect();
        assert_eq!(dues, [0, 2, 5, 7, 10].map(Some));
    }

    #[test]
    fn a_grace_deadline_ends_the_drain_with_events_pending() {
        let stuck = Scripted {
            stuck: true,
            ..Scripted::default()
        };
        let feed = Feed::Scheduled {
            interarrival_ns: 100.0,
            abort_backlog: None,
            grace_ns: Some(35),
        };
        let run = drive(&cfg(10), feed, |_| Ok(stuck)).unwrap();
        // The last arrival was due at 900 ns: the run ends 35 ns later.
        assert_eq!((run.elapsed_ns, run.extras.pending), (935, 10));
    }

    #[test]
    fn a_failed_inject_or_advance_finishes_once_and_surfaces_its_error() {
        for (fail_inject_at, fail_advance, expect) in [
            (Some(3), false, RunError::NoTuples),
            (None, true, RunError::ZeroWindow),
        ] {
            let finished = Rc::default();
            let failing = Scripted {
                fail_inject_at,
                fail_advance,
                finished: Rc::clone(&finished),
                ..Scripted::default()
            };
            let err = drive(&cfg(10), Feed::Closed { cap: 2 }, |_| Ok(failing)).unwrap_err();
            assert_eq!((err, finished.get()), (expect, 1));
        }
        // An invalid configuration is refused before anything is built.
        let err = drive(
            &cfg(0),
            Feed::Closed { cap: 1 },
            |_| -> Result<Scripted, _> { unreachable!("built") },
        );
        assert_eq!(err.unwrap_err(), RunError::NoTuples);
    }
}
