//! Order-preserving parallel execution of independent experiment cells.
//!
//! Every cell of the reproduction suite is a self-contained
//! [`dsj_core::ClusterConfig::run`] whose RNG streams derive from an
//! explicit per-cell seed, never from shared mutable state — so cells are
//! embarrassingly parallel and the schedule cannot perturb results (the
//! seed-isolation argument of arXiv:1307.6574). [`Executor::map`] fans
//! cells across a scoped-thread worker pool and returns results in
//! submission order, making parallel output byte-identical to serial.
//!
//! Observability travels the same way, as values: when the caller has a
//! [`dsj_core::obs::captured`] buffer open, every worker captures its
//! cell's emissions in a buffer of its own, and the caller's thread
//! re-emits them in submission order after the pool drains. Registry
//! merging is order-sensitive (gauges are last-write-wins), so whoever
//! merges the caller's buffer sees exactly what a serial run would have
//! emitted — thread completion order never reaches a record.

use dsj_core::obs;
use std::sync::Mutex;

/// A fixed-width worker pool that maps a function over items while
/// preserving submission order.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// A pool of `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Applies `f(index, item)` to every item, fanning across the pool,
    /// and returns the results in submission order.
    ///
    /// With one job (or at most one item) this runs inline — no threads,
    /// identical to a plain iterator map. `obs::emit` calls made inside
    /// `f` reach the caller's capture buffer, if one is open, in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` once all workers have stopped.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs <= 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let capture = obs::enabled();
        let work = Mutex::new(items.into_iter().enumerate());
        let f = &f;
        let mut done: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.jobs.min(n))
                .map(|_| {
                    s.spawn(|| {
                        let mut cells = Vec::new();
                        loop {
                            // The lock is released before the cell runs.
                            let next = work.lock().unwrap_or_else(|e| e.into_inner()).next();
                            let Some((index, item)) = next else {
                                return cells;
                            };
                            // A worker thread has no buffer open: capture the
                            // cell's emissions only if the caller can take them.
                            let cell = if capture {
                                obs::captured(|| f(index, item))
                            } else {
                                (f(index, item), Vec::new())
                            };
                            cells.push((index, cell));
                        }
                    })
                })
                .collect();
            (workers.into_iter())
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Re-emit into the caller's buffer in submission order: what it
        // merges is byte-identical to a serial run's.
        done.sort_unstable_by_key(|&(index, _)| index);
        (done.into_iter())
            .map(|(_, (out, regs))| {
                regs.into_iter().for_each(obs::emit);
                out
            })
            .collect()
    }

    /// [`Self::map`] over fallible cells. Every cell still runs; the first
    /// error *in submission order* is returned, matching what a serial
    /// short-circuiting loop would report.
    ///
    /// # Errors
    ///
    /// The submission-order-first `Err` produced by `f`, if any.
    pub fn try_map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(usize, T) -> Result<R, E> + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        for jobs in [1, 2, 4, 8] {
            let exec = Executor::new(jobs);
            let out = exec.map((0..97u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..97u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_matches_serial_map() {
        let work = |i: usize, x: u64| -> u64 {
            x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32)
        };
        let items: Vec<u64> = (0..64).map(|i| 1000 + i).collect();
        let serial = Executor::new(1).map(items.clone(), work);
        let parallel = Executor::new(4).map(items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_map_returns_first_error_in_submission_order() {
        let exec = Executor::new(4);
        let result: Result<Vec<u32>, String> = exec.try_map((0..32u32).collect(), |_, x| {
            if x % 10 == 7 {
                Err(format!("cell {x}"))
            } else {
                Ok(x)
            }
        });
        // Cells 7, 17 and 27 all fail; submission order picks 7.
        assert_eq!(result.unwrap_err(), "cell 7");
    }

    #[test]
    fn parallel_gauge_merge_is_submission_ordered() {
        // Gauges are last-write-wins: the merged record must keep the
        // *last submitted* cell's value no matter which worker finishes
        // last. Uneven spinning makes completion order scramble.
        for _ in 0..8 {
            let (_, regs) = obs::captured(|| {
                Executor::new(4).map((0..16u64).collect(), |_, x| {
                    for _ in 0..((16 - x) * 500) {
                        std::hint::black_box(x);
                    }
                    let mut reg = obs::Registry::default();
                    reg.gauge_set("winner", x as f64);
                    obs::emit(reg);
                })
            });
            let mut merged = obs::Registry::default();
            regs.iter().for_each(|r| merged.merge(r));
            assert_eq!(merged.gauge("winner"), Some(15.0));
            assert_eq!(regs.len(), 16);
        }
    }

    #[test]
    fn worker_emissions_reach_the_callers_buffer() {
        let (_, regs) = obs::captured(|| {
            Executor::new(4).map((0..8u64).collect(), |_, x| {
                let mut reg = obs::Registry::default();
                reg.counter_add("cells", 1);
                reg.counter_add("sum", x);
                obs::emit(reg);
            })
        });
        let mut merged = obs::Registry::default();
        regs.iter().for_each(|r| merged.merge(r));
        assert_eq!(regs.len(), 8, "all cells land in the caller's buffer");
        assert_eq!(merged.counter("cells"), 8);
        assert_eq!(merged.counter("sum"), (0..8).sum::<u64>());
        // With no buffer open on the caller, workers capture nothing.
        Executor::new(4).map((0..8u64).collect(), |_, _| assert!(!obs::enabled()));
    }
}
