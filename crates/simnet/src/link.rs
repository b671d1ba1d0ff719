//! Directed link model: latency plus FIFO bandwidth.
//!
//! A message of `b` bytes sent at time `t` on a link with bandwidth `B`
//! bits/s and latency `L` begins transmitting when the link is free
//! (`start = max(t, busy_until)`), occupies the link for `8b/B` seconds
//! (during which later messages queue), and is delivered at
//! `start + 8b/B + L`. This reproduces the paper's emulation, which pauses
//! one second per 90 kilobits and imposes 20–100 ms per-message latency.

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Latency and bandwidth parameters shared by all links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Minimum per-message propagation latency.
    pub latency_min: SimDuration,
    /// Maximum per-message propagation latency (inclusive range).
    pub latency_max: SimDuration,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Probability that a transmitted message is lost in flight (link
    /// bandwidth is still consumed). Parts per million to keep the config
    /// `Eq`/hashable; `0` = lossless (the paper's emulation).
    pub loss_ppm: u32,
}

impl LinkConfig {
    /// The paper's WAN emulation: latency uniform in [20 ms, 100 ms],
    /// bandwidth 90 kbps (Section 6).
    pub fn paper_wan() -> Self {
        LinkConfig {
            latency_min: SimDuration::from_millis(20),
            latency_max: SimDuration::from_millis(100),
            bandwidth_bps: 90_000,
            loss_ppm: 0,
        }
    }

    /// An effectively unconstrained network (1 µs latency, 100 Gbps) —
    /// useful for isolating algorithmic behaviour from network effects.
    pub fn instant() -> Self {
        LinkConfig {
            latency_min: SimDuration::from_micros(1),
            latency_max: SimDuration::from_micros(1),
            bandwidth_bps: 100_000_000_000,
            loss_ppm: 0,
        }
    }

    /// Returns this configuration with the given message-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss_ppm = (p * 1_000_000.0).round() as u32;
        self
    }

    /// Draws whether a message is lost.
    pub fn draw_loss(&self, rng: &mut StdRng) -> bool {
        self.loss_ppm > 0 && rng.gen_ratio(self.loss_ppm.min(1_000_000), 1_000_000)
    }

    /// Draws a latency uniformly from the configured range.
    pub fn draw_latency(&self, rng: &mut StdRng) -> SimDuration {
        let lo = self.latency_min.as_micros();
        let hi = self.latency_max.as_micros();
        if lo >= hi {
            return SimDuration::from_micros(lo);
        }
        SimDuration::from_micros(rng.gen_range(lo..=hi))
    }

    /// Checks that the configuration can be simulated.
    ///
    /// # Errors
    ///
    /// The first [`LinkFault`] it has.
    pub fn validate(&self) -> Result<(), LinkFault> {
        if self.bandwidth_bps == 0 {
            return Err(LinkFault::ZeroBandwidth);
        }
        if self.latency_min > self.latency_max {
            return Err(LinkFault::InvertedLatency);
        }
        if self.loss_ppm > 1_000_000 {
            return Err(LinkFault::LossAboveOne);
        }
        Ok(())
    }
}

/// Why a [`LinkConfig`] cannot be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Zero bandwidth: no message would ever finish transmitting.
    ZeroBandwidth,
    /// `latency_min` exceeds `latency_max`.
    InvertedLatency,
    /// `loss_ppm` exceeds one million: a loss probability above 1.
    LossAboveOne,
}

impl fmt::Display for LinkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkFault::ZeroBandwidth => "bandwidth must be positive",
            LinkFault::InvertedLatency => "latency range is inverted",
            LinkFault::LossAboveOne => "loss must be a probability",
        })
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::paper_wan()
    }
}

/// Per-directed-link transmitter state: when the link frees up.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkState {
    busy_until: SimTime,
}

impl LinkState {
    /// Schedules a `bytes`-long message at `now`; returns its delivery time
    /// and occupies the link for the transmission duration.
    pub fn schedule(
        &mut self,
        now: SimTime,
        bytes: usize,
        cfg: &LinkConfig,
        rng: &mut StdRng,
    ) -> SimTime {
        let start = now.max(self.busy_until);
        let tx = SimDuration::transmission(bytes, cfg.bandwidth_bps);
        self.busy_until = start + tx;
        self.busy_until + cfg.draw_latency(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn loss_draws_match_probability() {
        let cfg = LinkConfig::instant().with_loss(0.25);
        assert_eq!(cfg.loss_ppm, 250_000);
        let mut rng = StdRng::seed_from_u64(5);
        let lost = (0..10_000).filter(|_| cfg.draw_loss(&mut rng)).count();
        assert!((2_200..2_800).contains(&lost), "lost {lost}/10000");
        // Lossless config never draws a loss.
        let clean = LinkConfig::paper_wan();
        assert!(!(0..100).any(|_| clean.draw_loss(&mut rng)));
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1]")]
    fn invalid_loss_rejected() {
        LinkConfig::instant().with_loss(1.5);
    }

    #[test]
    fn paper_wan_parameters() {
        let cfg = LinkConfig::paper_wan();
        assert_eq!(cfg.latency_min, SimDuration::from_millis(20));
        assert_eq!(cfg.latency_max, SimDuration::from_millis(100));
        assert_eq!(cfg.bandwidth_bps, 90_000);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn latency_within_range() {
        let cfg = LinkConfig::paper_wan();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let l = cfg.draw_latency(&mut rng);
            assert!(l >= cfg.latency_min && l <= cfg.latency_max);
        }
    }

    #[test]
    fn fifo_transmission_queues() {
        let cfg = LinkConfig {
            latency_min: SimDuration::ZERO,
            latency_max: SimDuration::ZERO,
            bandwidth_bps: 8_000, // 1000 bytes/s
            loss_ppm: 0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut link = LinkState::default();
        let now = SimTime::ZERO;
        // 500 bytes = 0.5 s transmission.
        let d1 = link.schedule(now, 500, &cfg, &mut rng);
        assert_eq!(d1.as_micros(), 500_000);
        // Second message must wait for the first to finish.
        let d2 = link.schedule(now, 500, &cfg, &mut rng);
        assert_eq!(d2.as_micros(), 1_000_000);
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let cfg = LinkConfig {
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(10),
            bandwidth_bps: 8_000,
            loss_ppm: 0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut link = LinkState::default();
        let late = SimTime::from_micros(5_000_000);
        let d = link.schedule(late, 100, &cfg, &mut rng);
        // 100 bytes at 1000 B/s = 100 ms tx + 10 ms latency.
        assert_eq!(d.as_micros(), 5_000_000 + 100_000 + 10_000);
    }

    #[test]
    fn invalid_links_are_rejected_with_their_fault() {
        let ok = LinkConfig {
            latency_min: SimDuration::from_millis(1),
            latency_max: SimDuration::from_millis(1),
            bandwidth_bps: 1,
            loss_ppm: 1_000_000,
        };
        assert_eq!(ok.validate(), Ok(()));
        let inverted = LinkConfig {
            latency_min: SimDuration::from_millis(5),
            ..ok
        };
        assert_eq!(inverted.validate(), Err(LinkFault::InvertedLatency));
        assert_eq!(
            inverted.validate().unwrap_err().to_string(),
            "latency range is inverted"
        );
        let silent = LinkConfig {
            bandwidth_bps: 0,
            ..ok
        };
        assert_eq!(silent.validate(), Err(LinkFault::ZeroBandwidth));
        let lossy = LinkConfig {
            loss_ppm: 1_000_001,
            ..ok
        };
        assert_eq!(lossy.validate(), Err(LinkFault::LossAboveOne));
    }
}
