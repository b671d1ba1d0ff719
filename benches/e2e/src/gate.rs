//! The correctness gate: an independent reference join, lockstep
//! agreement across backends, and the per-run invariants. Every check
//! appends a line to a failure list; an empty list means the gate passed.

use crate::system::{self, Alg, Arr, Cluster, Counts, Feed, Live, Run};
use std::collections::{HashMap, VecDeque};

/// Tuples of the schedule prefix the lockstep checks replay, and with
/// `--quick`.
pub const LOCKSTEP_PREFIX: usize = 5_000;
pub const LOCKSTEP_PREFIX_QUICK: usize = 1_000;

/// The exact sliding-window join, written against the schedule alone:
/// node `i` keeps the last `window` tuples of each stream that arrived at
/// it; an arrival matches every held tuple of the opposite stream with its
/// key, on any node, and is then stored at its own node. Matches of
/// arrivals below `count_from_seq` are warm-up and not counted.
pub fn reference_join(schedule: &[Arr], n: u16, window: usize, count_from_seq: u64) -> u64 {
    struct Held {
        order: VecDeque<u32>,
        per_key: HashMap<u32, u64>,
    }
    let mut held: Vec<[Held; 2]> = (0..n)
        .map(|_| {
            [false, true].map(|_| Held {
                order: VecDeque::new(),
                per_key: HashMap::new(),
            })
        })
        .collect();
    let mut total = 0u64;
    for a in schedule {
        let opposite = usize::from(!a.s);
        let matches: u64 = held
            .iter()
            .map(|node| node[opposite].per_key.get(&a.key).copied().unwrap_or(0))
            .sum();
        if a.seq >= count_from_seq {
            total += matches;
        }
        let own = &mut held[a.node as usize][usize::from(a.s)];
        own.order.push_back(a.key);
        *own.per_key.entry(a.key).or_insert(0) += 1;
        if own.order.len() > window {
            let old = own.order.pop_front().expect("non-empty");
            *own.per_key.get_mut(&old).expect("held key is counted") -= 1;
        }
    }
    total
}

/// Checks the system's ground truth for the schedule against the
/// reference join. `window` is a parameter only so that the command's
/// `--break-reference` flag can show the gate failing.
pub fn check_truth(
    failures: &mut Vec<String>,
    schedule: &[Arr],
    cluster: &Cluster,
    truth: u64,
    window: usize,
) {
    let reference = reference_join(schedule, cluster.n(), window, cluster.count_from_seq());
    if reference != truth {
        failures.push(format!(
            "truth_matches {truth} differs from the reference join's {reference}"
        ));
    }
}

/// Lockstep checks on a prefix of the schedule: BASE is exact on simnet,
/// channels and the reactor; DFTT produces the same per-node digests on
/// all three.
pub fn check_lockstep(
    failures: &mut Vec<String>,
    schedule: &[Arr],
    n: u16,
    seed: u64,
    quick: bool,
) {
    let prefix = if quick {
        LOCKSTEP_PREFIX_QUICK
    } else {
        LOCKSTEP_PREFIX
    };
    let prefix = &schedule[..schedule.len().min(prefix)];
    let mut three = |alg: Alg| -> Option<[Run; 3]> {
        let cluster = Cluster::new(alg, n, seed, prefix);
        let truth = cluster.truth_matches();
        let sim = system::run_sim_lockstep(&cluster, truth);
        let mut live = |backend: Live, label: &str| {
            system::run_live(&cluster, backend, Feed::Lockstep)
                .map_err(|e| failures.push(format!("lockstep {alg:?} on {label}: {e}")))
                .ok()
        };
        let channels = live(Live::Channels, "channels")?;
        let reactor = live(Live::Reactor, "reactor")?;
        Some([sim, channels, reactor])
    };
    let base = three(Alg::Base);
    let dftt = three(Alg::Dftt);
    let labels = ["simnet", "channels", "reactor"];
    if let Some(runs) = base {
        for (run, label) in runs.iter().zip(labels) {
            if run.counts.reported != run.truth {
                failures.push(format!(
                    "lockstep BASE on {label}: reported {} of {} matches, recall must be exactly 1",
                    run.counts.reported, run.truth
                ));
            }
        }
    }
    if let Some(runs) = dftt {
        for (run, label) in runs.iter().zip(labels).skip(1) {
            if run.counts != runs[0].counts {
                failures.push(format!(
                    "lockstep DFTT: {label} disagrees with simnet (digests {:x?} vs {:x?})",
                    run.counts.digests, runs[0].counts.digests
                ));
            }
        }
    }
}

/// Invariants of one measured run: nothing reported beyond the truth,
/// nothing dropped, every injected tuple arrived.
pub fn check_run(failures: &mut Vec<String>, label: &str, run: &Run) {
    let c = &run.counts;
    if c.reported > run.truth {
        failures.push(format!(
            "{label}: reported {} exceeds truth {}",
            c.reported, run.truth
        ));
    }
    if c.key_domain_drops != 0 || c.summary_index_drops != 0 {
        failures.push(format!(
            "{label}: key_domain_drops {} summary_index_drops {}, both must be 0",
            c.key_domain_drops, c.summary_index_drops
        ));
    }
    if c.arrivals != run.injected {
        failures.push(format!(
            "{label}: {} arrivals counted for {} tuples injected",
            c.arrivals, run.injected
        ));
    }
}

/// Deterministic backends must repeat exactly: same counts, same digests.
pub fn check_repeat(failures: &mut Vec<String>, label: &str, first: &Counts, again: &Counts) {
    if first != again {
        failures.push(format!(
            "{label}: repetition differs from the first (reported {} vs {}, digests {:x?} vs {:x?})",
            again.reported, first.reported, again.digests, first.digests
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(s: bool, key: u32, seq: u64, node: u16) -> Arr {
        Arr { s, key, seq, node }
    }

    #[test]
    fn reference_join_on_a_hand_checked_schedule() {
        // Two nodes, window 2 per stream per node.
        let schedule = [
            arr(false, 7, 0, 0), // R7@0: nothing held                      → 0
            arr(true, 7, 1, 1),  // S7@1: R7 held at node 0                 → 1
            arr(false, 7, 2, 1), // R7@1: S7 held at node 1                 → 1
            arr(true, 7, 3, 0),  // S7@0: R7 at node 0 and R7 at node 1     → 2
            arr(false, 1, 4, 0), // R1@0: no S1                             → 0
            arr(false, 2, 5, 0), // R2@0: evicts R7 (seq 0) from node 0     → 0
            arr(true, 7, 6, 0),  // S7@0: only node 1's R7 is still held    → 1
            arr(false, 7, 7, 0), // R7@0: S7 at node 1, S7 twice at node 0  → 3
        ];
        assert_eq!(reference_join(&schedule, 2, 2, 0), 8);
        // Warm-up: arrivals below seq 3 do not count.
        assert_eq!(reference_join(&schedule, 2, 2, 3), 6);
        // A window of one forgets more.
        // seq3: node 0 still holds R7 (its only R), node 1 holds R7 → 2;
        // seq6: node 0's R window holds R2 only, node 1 holds R7 → 1;
        // seq7: node 0's S window holds S7 (seq 6), node 1 holds S7 → 2.
        assert_eq!(reference_join(&schedule, 2, 1, 0), 7);
    }

    #[test]
    fn reference_join_matches_the_system_and_a_smaller_window_does_not() {
        let schedule = system::schedule(system::Skew::Steady, 4, 20_000, 7);
        let cluster = Cluster::new(Alg::Base, 4, 7, &schedule);
        let truth = cluster.truth_matches();
        assert!(truth > 0);
        let mut failures = Vec::new();
        check_truth(&mut failures, &schedule, &cluster, truth, system::WINDOW);
        assert!(failures.is_empty(), "{failures:?}");
        check_truth(
            &mut failures,
            &schedule,
            &cluster,
            truth,
            system::WINDOW - 1,
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn run_invariants_catch_drops_and_overcounts() {
        let schedule = system::schedule(system::Skew::Steady, 4, 2_000, 3);
        let cluster = Cluster::new(Alg::Base, 4, 3, &schedule);
        let good = system::run_sim_lockstep(&cluster, cluster.truth_matches());
        let mut failures = Vec::new();
        check_run(&mut failures, "good", &good);
        check_repeat(&mut failures, "good", &good.counts, &good.counts.clone());
        assert!(failures.is_empty(), "{failures:?}");
        let mut bad = good.clone();
        bad.counts.reported = bad.truth + 1;
        bad.counts.key_domain_drops = 2;
        bad.counts.arrivals -= 1;
        check_run(&mut failures, "bad", &bad);
        check_repeat(&mut failures, "bad", &good.counts, &bad.counts);
        assert_eq!(failures.len(), 4, "{failures:?}");
    }
}
