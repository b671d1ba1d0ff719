//! Stress scenarios for the load generator.
//!
//! The paper's workloads (UNI / ZIPF / FIN / NWRK) are *stationary*: their
//! key distribution and node assignment do not change over a run. Capacity
//! and latency under load are mostly determined by what happens when that
//! assumption breaks — a flash crowd concentrates traffic onto one key's
//! owner, a migrating skew invalidates every node's learned summaries, an
//! adversarial uniform phase flips the router's correlation detector into
//! its round-robin fallback. [`Scenario`] generates those non-stationary
//! schedules with the same contract as [`ArrivalGen`](super::ArrivalGen):
//! alternating `R`/`S` streams, dense sequence numbers, keys in
//! `[0, domain)` — so a scenario can be replayed through any backend as a
//! [`Trace`](crate::trace::Trace).

use super::{Arrival, UniformSource, ZipfSource};
use crate::partition::Partitioner;
use crate::tuple::StreamId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's mild skew; scenarios use it as their baseline traffic.
const BASE_ALPHA: f64 = 0.4;

/// A non-stationary load scenario: how keys and node assignments evolve
/// over one run of `tuples` arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Stationary Zipf(0.4) over geographically partitioned nodes — the
    /// control row every other scenario is compared against.
    Steady,
    /// A flash crowd: during the middle third of the run, most arrivals
    /// collapse onto one hot key, concentrating both streams' traffic on
    /// that key's range owner.
    FlashCrowd,
    /// Skew that migrates between nodes: the Zipf head shifts through the
    /// key domain over the run, so the hot range — and the node that owns
    /// it — keeps moving. Every node's learned frequency summaries go
    /// stale in turn.
    MigratingSkew,
    /// Correlated bursts: runs of consecutive arrivals (both streams)
    /// repeat one key, an exaggerated form of the NWRK packet-train
    /// behavior. High self-join locality, bursty per-node load.
    CorrelatedBursts,
    /// An adversarial uniform phase: Zipf traffic, then a middle third of
    /// pure uniform keys (no correlation signal — the regime that flips
    /// the router's CV detector into its round-robin fallback), then Zipf
    /// again.
    AdversarialUniform,
    /// A straggler node: node 0 receives a large extra share of every
    /// key's traffic on top of its own range — the arrival-schedule model
    /// of one overloaded/slow node dragging cluster capacity down.
    Straggler,
}

impl Scenario {
    /// Every scenario, in report order.
    pub const ALL: [Scenario; 6] = [
        Scenario::Steady,
        Scenario::FlashCrowd,
        Scenario::MigratingSkew,
        Scenario::CorrelatedBursts,
        Scenario::AdversarialUniform,
        Scenario::Straggler,
    ];

    /// Short label used in load reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Steady => "STEADY",
            Scenario::FlashCrowd => "FLASH",
            Scenario::MigratingSkew => "MIGRATE",
            Scenario::CorrelatedBursts => "BURSTS",
            Scenario::AdversarialUniform => "ADV-UNI",
            Scenario::Straggler => "STRAGGLER",
        }
    }

    /// Generates the scenario's deterministic schedule: `tuples` arrivals
    /// over `n` nodes with keys in `[0, domain)`, alternating streams and
    /// dense sequence numbers, geographically partitioned with
    /// `locality` (except where the scenario itself dictates placement).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `domain == 0`, or `locality` is outside
    /// `[0, 1]`.
    pub fn arrivals(
        &self,
        n: u16,
        domain: u32,
        tuples: usize,
        locality: f64,
        seed: u64,
    ) -> Vec<Arrival> {
        // Scenario-tagged seeding: the same base seed gives each scenario
        // an unrelated draw sequence.
        let tag = match self {
            Scenario::Steady => 0x51EAD1u64,
            Scenario::FlashCrowd => 0xF1A54Cu64,
            Scenario::MigratingSkew => 0x316A7Eu64,
            Scenario::CorrelatedBursts => 0xB0A575u64,
            Scenario::AdversarialUniform => 0xADF1A7u64,
            Scenario::Straggler => 0x57A661u64,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ tag);
        let mut partitioner = Partitioner::geographic(n, locality);
        let zipf = ZipfSource::new(domain, BASE_ALPHA);
        let mut uniform = UniformSource::new(domain);
        // Correlated-burst state: the key being repeated and how many
        // repetitions remain.
        let mut burst_key = 0u32;
        let mut burst_left = 0usize;
        // The flash crowd's hot key sits mid-domain so its range owner is
        // an interior node.
        let hot_key = domain / 2;

        let mut out = Vec::with_capacity(tuples);
        for t in 0..tuples {
            let stream = if t % 2 == 0 { StreamId::R } else { StreamId::S };
            let in_middle_third = t >= tuples / 3 && t < 2 * tuples / 3;
            let key = match self {
                Scenario::Steady | Scenario::Straggler => zipf.sample(&mut rng),
                Scenario::FlashCrowd => {
                    if in_middle_third && rng.gen_bool(0.6) {
                        hot_key
                    } else {
                        zipf.sample(&mut rng)
                    }
                }
                Scenario::MigratingSkew => {
                    // Shift the Zipf head once per 1/n of the run: the hot
                    // range walks through every node's territory.
                    let phase = ((t as u64 * u64::from(n)) / tuples.max(1) as u64) as u32;
                    let offset =
                        (u64::from(phase) * u64::from(domain) / u64::from(n).max(1)) as u32;
                    let rank = zipf.sample(&mut rng);
                    (rank.wrapping_add(offset)) % domain
                }
                Scenario::CorrelatedBursts => {
                    if burst_left > 0 {
                        burst_left -= 1;
                        burst_key
                    } else {
                        let key = zipf.sample(&mut rng);
                        if rng.gen_bool(1.0 / 8.0) {
                            // Start a burst: repeat this key for a random
                            // train of both streams' arrivals.
                            burst_key = key;
                            burst_left = rng.gen_range(8..32);
                        }
                        key
                    }
                }
                Scenario::AdversarialUniform => {
                    if in_middle_third {
                        uniform.next_key(stream, &mut rng)
                    } else {
                        zipf.sample(&mut rng)
                    }
                }
            };
            let node = match self {
                // Node 0 absorbs a large extra share of all traffic on
                // top of its own range.
                Scenario::Straggler if rng.gen_bool(0.35) => 0,
                _ => partitioner.assign(key, domain, &mut rng),
            };
            out.push(Arrival {
                stream,
                key,
                seq: t as u64,
                node,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u16 = 4;
    const DOMAIN: u32 = 1 << 10;
    const TUPLES: usize = 6_000;

    fn arrivals(s: Scenario) -> Vec<Arrival> {
        s.arrivals(N, DOMAIN, TUPLES, 0.8, 7)
    }

    #[test]
    fn every_scenario_meets_the_schedule_contract() {
        for s in Scenario::ALL {
            let v = arrivals(s);
            assert_eq!(v.len(), TUPLES, "{s:?}");
            for (i, a) in v.iter().enumerate() {
                assert_eq!(a.seq, i as u64, "{s:?}: sequence numbers must be dense");
                assert!(a.key < DOMAIN, "{s:?}: key out of domain");
                assert!(a.node < N, "{s:?}: node out of range");
                let expect = if i % 2 == 0 { StreamId::R } else { StreamId::S };
                assert_eq!(a.stream, expect, "{s:?}: streams must alternate");
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        for s in Scenario::ALL {
            let a = s.arrivals(N, DOMAIN, TUPLES, 0.8, 7);
            let b = s.arrivals(N, DOMAIN, TUPLES, 0.8, 7);
            let c = s.arrivals(N, DOMAIN, TUPLES, 0.8, 8);
            assert_eq!(a, b, "{s:?}: same seed must reproduce");
            assert_ne!(a, c, "{s:?}: different seed must differ");
        }
    }

    #[test]
    fn flash_crowd_concentrates_the_middle_third() {
        let v = arrivals(Scenario::FlashCrowd);
        let hot = DOMAIN / 2;
        let middle = &v[TUPLES / 3..2 * TUPLES / 3];
        let hot_middle = middle.iter().filter(|a| a.key == hot).count();
        let frac = hot_middle as f64 / middle.len() as f64;
        assert!((0.5..0.7).contains(&frac), "hot share {frac}");
        // Outside the surge the hot key is just another Zipf tail value.
        let hot_early = v[..TUPLES / 3].iter().filter(|a| a.key == hot).count();
        assert!(hot_early < TUPLES / 60, "{hot_early} early hot keys");
    }

    #[test]
    fn migrating_skew_moves_the_hot_range() {
        let v = arrivals(Scenario::MigratingSkew);
        // The modal key range of the first phase and the last phase must
        // differ: the skew walked away.
        let range_of = |a: &Arrival| (u64::from(a.key) * u64::from(N) / u64::from(DOMAIN)) as u16;
        let mode = |slice: &[Arrival]| -> u16 {
            let mut counts = [0usize; N as usize];
            for a in slice {
                counts[range_of(a) as usize] += 1;
            }
            (0..N as usize).max_by_key(|&i| counts[i]).unwrap() as u16
        };
        let first = mode(&v[..TUPLES / (N as usize)]);
        let last = mode(&v[TUPLES - TUPLES / (N as usize)..]);
        assert_ne!(first, last, "hot range never migrated");
    }

    #[test]
    fn correlated_bursts_repeat_keys() {
        let v = arrivals(Scenario::CorrelatedBursts);
        let repeats = v.windows(2).filter(|w| w[0].key == w[1].key).count();
        let frac = repeats as f64 / (v.len() - 1) as f64;
        // Bursts of 8–32 started ~1/8 of the time dominate transitions;
        // plain Zipf(0.4) over a 2^10 domain repeats almost never.
        assert!(frac > 0.4, "repeat fraction {frac}");
        let steady = arrivals(Scenario::Steady);
        let steady_repeats = steady.windows(2).filter(|w| w[0].key == w[1].key).count();
        assert!(repeats > 10 * steady_repeats.max(1));
    }

    #[test]
    fn adversarial_middle_third_is_uniform() {
        let v = arrivals(Scenario::AdversarialUniform);
        // Zipf(0.4) concentrates mass on low ranks; uniform doesn't. Use
        // the share of keys in the top eighth of the domain as a cheap
        // distribution probe.
        let high_share = |slice: &[Arrival]| {
            slice
                .iter()
                .filter(|a| a.key >= DOMAIN - DOMAIN / 8)
                .count() as f64
                / slice.len() as f64
        };
        let early = high_share(&v[..TUPLES / 3]);
        let middle = high_share(&v[TUPLES / 3..2 * TUPLES / 3]);
        assert!(
            middle > 0.10 && middle < 0.15,
            "uniform middle share {middle}"
        );
        assert!(early < middle, "zipf phase should avoid the high tail");
    }

    #[test]
    fn straggler_overloads_node_zero() {
        let v = arrivals(Scenario::Straggler);
        let to_zero = v.iter().filter(|a| a.node == 0).count() as f64 / v.len() as f64;
        // 35% redirected plus node 0's own range share.
        assert!(to_zero > 0.40, "node-0 share {to_zero}");
        let steady = arrivals(Scenario::Steady);
        let steady_zero =
            steady.iter().filter(|a| a.node == 0).count() as f64 / steady.len() as f64;
        assert!(to_zero > 1.5 * steady_zero);
    }
}
