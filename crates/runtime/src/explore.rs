#![cfg(test)]
//! A seeded, bounded interleaving explorer for the runtime's hand-written
//! protocols (loom's idea at 1 % of its scope).
//!
//! A scenario is a few closures over the *real* `Kick`, `Mailbox`, transports
//! and links. Each runs on its own OS thread, but only the holder of the baton
//! runs, and every [`crate::sync`] operation first offers the baton back
//! ([`step`]): what runs between two such yield points is atomic, so a schedule
//! — the thread chosen at each yield point — fixes the execution, sequentially
//! consistent. [`Explorer::explore`] runs every schedule with at most `bound`
//! preemptions (switches away from a thread that could go on) depth-first, then
//! `random` schedules drawn from `seed`, preemptions unbounded. `park_timeout`
//! never times out, so a lost wake-up ends with every live thread blocked: a
//! deadlock, as a lock cycle is. A deadlock, a violated invariant or a panicking
//! thread ends the search with a [`Failure`] whose schedule [`replay`]s.
//!
//! Not modelled: weaker-than-SC reorderings (what `Ordering` arguments are for;
//! `reactor::tests::every_ordering_weaker_than_seqcst_is_argued` pins those),
//! timeouts that fire, and yield points inside `OnceLock` (a thread yields
//! before it registers instead).

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// A scenario's observer: called with `false` at every yield point (between any
/// two steps of any two threads) and with `true` once every thread has returned.
/// It reads shared state past the facade (`.0`), never through it, and never
/// blocks: the threads it observes are stopped wherever they are.
pub(crate) type Invariant = Box<dyn Fn(bool) -> Result<(), String> + Send>;

/// One execution: its threads and its observer.
pub(crate) struct Scenario {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    pub invariant: Invariant,
}

/// Search limits; equal values explore the same schedules on every run.
pub(crate) struct Explorer {
    /// Most preemptions in one depth-first schedule.
    pub bound: usize,
    /// Random schedules, drawn from `seed`, after the depth-first search.
    pub random: usize,
    pub seed: u64,
}

/// A search that ran out of schedules without a finding.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Report {
    pub bound: usize,
    /// Depth-first schedules run: all there are within `bound`.
    pub exhaustive: usize,
    pub random: usize,
    /// Yield points of the longest schedule.
    pub longest: usize,
    /// Hash of every schedule run, in order.
    pub digest: u64,
}

/// What went wrong, and the schedule (thread per yield point) that got there.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Failure {
    pub what: String,
    pub schedule: Vec<usize>,
    /// Schedules run before this one.
    pub after: usize,
}

/// Yield points one schedule may take before it counts as a livelock, and the
/// wall-clock budget of every search in this test binary together.
const MAX_STEPS: usize = 5_000;
const BUDGET: Duration = Duration::from_secs(30);
static SPENT_MS: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Runnable,
    Parked,
    /// Found a mutex held; retries when any is released.
    Locked,
    Done,
}

/// One decision; `options[0]` is the previous thread when it could go on.
struct Choice {
    chosen: usize,
    options: Vec<usize>,
    /// The previous thread could not go on: no option is a preemption.
    free: bool,
    preemptions_before: usize,
}

struct State {
    status: Vec<Status>,
    /// `unpark` tokens no `park` has consumed yet.
    tokens: Vec<bool>,
    active: Option<usize>,
    /// Choices to make first; past them, `rng` or "stay, else lowest id".
    plan: Vec<usize>,
    rng: Option<u64>,
    trace: Vec<Choice>,
    preemptions: usize,
    failure: Option<String>,
    invariant: Invariant,
}

struct Execution {
    state: Mutex<State>,
    /// One per thread: a hand-off wakes only whoever takes the baton.
    turns: Vec<Condvar>,
}

/// Unwinds an explored thread out of a failed execution.
struct Aborted;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl State {
    fn fail(&mut self, what: String) {
        self.failure.get_or_insert(what);
    }

    /// Hands the baton on from `prev`: the decision every yield point makes.
    fn pick(&mut self, prev: Option<usize>) {
        self.active = None;
        if self.failure.is_some() {
            return;
        }
        let runnable = |t: &usize| self.status[*t] == Status::Runnable;
        let mut options: Vec<usize> = (0..self.status.len()).filter(runnable).collect();
        let free = !prev.is_some_and(|p| options.contains(&p));
        if let (false, Some(p)) = (free, prev) {
            options.retain(|&t| t != p);
            options.insert(0, p);
        }
        if options.is_empty() {
            let live = |(_, s): &(usize, &Status)| **s != Status::Done;
            let stuck: Vec<_> = self.status.iter().enumerate().filter(live).collect();
            if !stuck.is_empty() {
                self.fail(format!("deadlock: {stuck:?}"));
            }
            return;
        }
        if self.trace.len() >= MAX_STEPS {
            return self.fail(format!("livelock: {MAX_STEPS} steps without finishing"));
        }
        let chosen = match (self.plan.get(self.trace.len()), &mut self.rng) {
            (Some(t), _) if options.contains(t) => *t,
            (Some(t), _) => return self.fail(format!("replay diverged: thread {t} cannot run")),
            (None, Some(rng)) => options[splitmix(rng) as usize % options.len()],
            (None, None) => options[0],
        };
        let preemptions_before = self.preemptions;
        self.preemptions += usize::from(!free && chosen != options[0]);
        self.trace.push(Choice {
            chosen,
            options,
            free,
            preemptions_before,
        });
        self.active = Some(chosen);
    }
}

impl Execution {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A yield point of thread `me`, which goes on as `status`: checks the
    /// invariant, hands the baton on and returns once it is back.
    fn switch(&self, me: usize, status: Status) {
        let mut state = self.state();
        if let Err(what) = (state.invariant)(false) {
            state.fail(what);
        }
        state.status[me] = status;
        state.pick(Some(me));
        if state.active != Some(me) {
            self.hand_off(&state);
            self.wait_turn(state, me);
        }
    }

    /// Wakes the thread `pick` chose — every thread, once the execution failed.
    fn hand_off(&self, state: &State) {
        for (t, turn) in self.turns.iter().enumerate() {
            if state.failure.is_some() || state.active == Some(t) {
                turn.notify_one();
            }
        }
    }

    fn wait_turn(&self, mut state: MutexGuard<'_, State>, me: usize) {
        while state.active != Some(me) && state.failure.is_none() {
            state = self.turns[me]
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        if state.failure.is_some() {
            drop(state);
            panic::resume_unwind(Box::new(Aborted));
        }
    }
}

/// The explored thread this is, if it is one and is not unwinding (`Drop`s on
/// the way out of a failed execution run the plain primitives).
fn current() -> Option<(Arc<Execution>, usize)> {
    let current = || CURRENT.with(|c| c.borrow().clone());
    (!thread::panicking()).then(current).flatten()
}

/// A yield point; a no-op on a thread no explorer drives.
pub(crate) fn step() {
    if let Some((execution, me)) = current() {
        execution.switch(me, Status::Runnable);
    }
}

/// A thread about to publish itself (`OnceLock::get_or_init`): its index.
pub(crate) fn register() -> Option<usize> {
    step();
    current().map(|(_, me)| me)
}

/// `park` without a timeout: consumes a token or blocks until the next
/// `unpark`. `false` on a thread no explorer drives.
pub(crate) fn park() -> bool {
    step();
    current().is_some_and(|(execution, me)| {
        if !std::mem::take(&mut execution.state().tokens[me]) {
            execution.switch(me, Status::Parked);
        }
        true
    })
}

pub(crate) fn unpark(id: usize) {
    step();
    if let Some((execution, _)) = current() {
        let mut state = execution.state();
        match state.status[id] {
            Status::Parked => state.status[id] = Status::Runnable,
            _ => state.tokens[id] = true,
        }
    }
}

/// Found a mutex held: blocks until one is released, then the caller retries.
/// `false` on a thread no explorer drives.
pub(crate) fn blocked() -> bool {
    current().is_some_and(|(execution, me)| {
        execution.switch(me, Status::Locked);
        true
    })
}

/// A mutex was released (also while unwinding): lock waiters may retry.
pub(crate) fn released() {
    if let Some((execution, _)) = CURRENT.with(|c| c.borrow().clone()) {
        let waiting = |status: &&mut Status| **status == Status::Locked;
        (execution.state().status.iter_mut().filter(waiting)).for_each(|s| *s = Status::Runnable);
    }
}

/// Runs one schedule: `plan`, then `rng` or the default policy.
fn run_once(scenario: Scenario, plan: &[usize], rng: Option<u64>) -> (Vec<Choice>, Option<String>) {
    let Scenario { threads, invariant } = scenario;
    let execution = Arc::new(Execution {
        state: Mutex::new(State {
            status: vec![Status::Runnable; threads.len()],
            tokens: vec![false; threads.len()],
            active: None,
            plan: plan.to_vec(),
            rng,
            trace: Vec::new(),
            preemptions: 0,
            failure: None,
            invariant,
        }),
        turns: threads.iter().map(|_| Condvar::new()).collect(),
    });
    let spawn = |(me, body): (usize, Box<dyn FnOnce() + Send>)| {
        let execution = Arc::clone(&execution);
        thread::spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&execution), me)));
            // The body's captures drop in here too: `Inbox::drop` is a step.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                execution.wait_turn(execution.state(), me);
                body();
            }));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut state = execution.state();
            if matches!(&outcome, Err(payload) if !payload.is::<Aborted>()) {
                state.fail(format!("thread {me} panicked (its message is above)"));
            }
            state.status[me] = Status::Done;
            state.pick(Some(me));
            execution.hand_off(&state);
        })
    };
    let handles: Vec<_> = threads.into_iter().enumerate().map(spawn).collect();
    let mut state = execution.state();
    state.pick(None);
    execution.hand_off(&state);
    drop(state);
    for handle in handles {
        let _ = handle.join();
    }
    let mut state = execution.state();
    if state.failure.is_none() {
        state.failure = (state.invariant)(true).err();
    }
    (std::mem::take(&mut state.trace), state.failure.take())
}

/// The depth-first successor of `trace`: its deepest decision that still has
/// an untried option within `bound`, taken; `None` when the search is done.
fn next_plan(trace: &[Choice], bound: usize) -> Option<Vec<usize>> {
    let (at, next) = trace.iter().enumerate().rev().find_map(|(at, choice)| {
        let tried = choice.options.iter().position(|&t| t == choice.chosen)?;
        let next = *choice.options.get(tried + 1)?;
        (choice.free || choice.preemptions_before < bound).then_some((at, next))
    })?;
    let taken = trace[..at].iter().map(|choice| choice.chosen);
    Some(taken.chain([next]).collect())
}

/// Runs exactly `schedule`; the failure it reaches, if any.
pub(crate) fn replay(schedule: &[usize], setup: impl Fn() -> Scenario) -> Option<String> {
    run_once(setup(), schedule, None).1
}

impl Explorer {
    /// Searches `setup`'s scenario, built afresh for every schedule.
    pub(crate) fn explore(&self, setup: impl Fn() -> Scenario) -> Result<Report, Failure> {
        let started = Instant::now();
        let (bound, mut seed) = (self.bound, self.seed);
        let mut report = Report {
            bound,
            exhaustive: 0,
            random: 0,
            longest: 0,
            digest: 0,
        };
        let mut plan = Some(Vec::new());
        while plan.is_some() || report.random < self.random {
            let rng = plan.is_none().then(|| splitmix(&mut seed));
            let (trace, failure) = run_once(setup(), plan.as_deref().unwrap_or(&[]), rng);
            let schedule: Vec<usize> = trace.iter().map(|choice| choice.chosen).collect();
            if let Some(what) = failure {
                let after = report.exhaustive + report.random;
                return Err(Failure {
                    what,
                    schedule,
                    after,
                });
            }
            report.longest = report.longest.max(schedule.len());
            for thread in schedule {
                report.digest = (report.digest ^ thread as u64).wrapping_mul(0x100_0000_01B3) + 1;
            }
            match plan {
                Some(_) => {
                    (report.exhaustive, plan) = (report.exhaustive + 1, next_plan(&trace, bound))
                }
                None => report.random += 1,
            }
        }
        let spent = started.elapsed().as_millis() as u64;
        let total = Duration::from_millis(SPENT_MS.fetch_add(spent, Ordering::SeqCst) + spent);
        assert!(
            total < BUDGET,
            "explorer searches took {total:?} together, over {BUDGET:?}"
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{self, AtomicBool, Thread};
    use std::sync::OnceLock;

    const SEARCH: Explorer = Explorer {
        bound: 2,
        random: 20,
        seed: 0x5EED,
    };

    /// A latch that leaves nothing behind: the waker unparks only a waiter it
    /// can see. `check_first` plants the bug — the waiter registers *after*
    /// finding nothing to do, so a wake-up in between sees nobody and is lost.
    fn toy_latch(check_first: bool) -> Scenario {
        let latch = Arc::new((AtomicBool::new(false), OnceLock::<Thread>::new()));
        let (waiter, waker) = (Arc::clone(&latch), latch);
        let wait = move || {
            if !check_first {
                waiter.1.get_or_init(sync::current);
            }
            while !waiter.0.load(Ordering::SeqCst) {
                waiter.1.get_or_init(sync::current);
                sync::park_timeout(Duration::from_secs(1));
            }
        };
        let wake = move || {
            waker.0.store(true, Ordering::SeqCst);
            if let Some(thread) = waker.1.get() {
                thread.unpark();
            }
        };
        let threads: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(wait), Box::new(wake)];
        Scenario {
            threads,
            invariant: Box::new(|_| Ok(())),
        }
    }

    /// Two locks, taken `a, b` by one thread and — when `opposite` — `b, a` by
    /// the other. Nesting at all is the planted bug as far as the crate's
    /// never-two-at-once assertion goes, so the toy switches that off.
    fn two_locks(opposite: bool) -> Scenario {
        let locks = Arc::new((sync::Mutex::new(0u8), sync::Mutex::new(0u8)));
        let nest = move |flip: bool| -> Box<dyn FnOnce() + Send> {
            let locks = Arc::clone(&locks);
            Box::new(move || {
                let (first, second) = if flip {
                    (&locks.1, &locks.0)
                } else {
                    (&locks.0, &locks.1)
                };
                let mut outer = first.lock();
                sync::HELD.set(false);
                *outer += *second.lock() + 1;
            })
        };
        Scenario {
            threads: vec![nest(false), nest(opposite)],
            invariant: Box::new(|_| Ok(())),
        }
    }

    #[test]
    fn a_planted_lost_wake_up_is_found_printed_and_replayed() {
        let failure = SEARCH.explore(|| toy_latch(true)).unwrap_err();
        assert_eq!(failure.what, "deadlock: [(0, Parked)]");
        println!("toy latch, check first: {failure:?}");
        // The printed schedule alone reaches the same failure, every time...
        for _ in 0..3 {
            assert_eq!(
                replay(&failure.schedule, || toy_latch(true)),
                Some(failure.what.clone())
            );
        }
        // ...and the correct latch survives the whole search, whose report says
        // how far that went.
        let report = SEARCH.explore(|| toy_latch(false)).unwrap();
        assert!(report.exhaustive > 10 && report.random == 20, "{report:?}");
        println!("toy latch: {report:?}");
    }

    #[test]
    fn a_planted_lock_cycle_is_found_printed_and_replayed() {
        let failure = SEARCH.explore(|| two_locks(true)).unwrap_err();
        assert_eq!(failure.what, "deadlock: [(0, Locked), (1, Locked)]");
        println!("two locks, opposite orders: {failure:?}");
        assert_eq!(
            replay(&failure.schedule, || two_locks(true)),
            Some(failure.what)
        );
        let report = SEARCH.explore(|| two_locks(false)).unwrap();
        assert!(report.exhaustive > 3, "{report:?}");
        println!("two locks: {report:?}");
    }

    #[test]
    fn the_same_seed_explores_the_same_schedules() {
        let run = |seed| {
            Explorer { seed, ..SEARCH }
                .explore(|| toy_latch(false))
                .unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).digest, run(8).digest);
    }
}
