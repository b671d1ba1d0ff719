//! The ZIPF workload: keys with Zipfian popularity.
//!
//! `P(key = i) ∝ 1/(i+1)^α`. The paper's experiments use `α = 0.4` over a
//! domain of `2¹⁹` values. Sampling uses a precomputed cumulative table and
//! binary search — exact and `O(log D)` per draw.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf-distributed keys over `[0, domain)`.
#[derive(Debug, Clone)]
pub struct ZipfSource {
    cdf: Vec<f64>,
    /// `cdf.last()`, cached so sampling never touches an `Option`.
    total: f64,
}

impl ZipfSource {
    /// Creates a source with skew `alpha` over `[0, domain)`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0` or `alpha` is negative or non-finite.
    pub fn new(domain: u32, alpha: f64) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "skew must be a non-negative finite number"
        );
        let mut cdf = Vec::with_capacity(domain as usize);
        let mut acc = 0.0;
        for i in 0..domain as u64 {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        ZipfSource { cdf, total: acc }
    }

    /// Draws one Zipf-distributed rank (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let r = rng.gen::<f64>() * self.total;
        self.cdf.partition_point(|&c| c < r) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rank_frequencies_follow_power_law() {
        let src = ZipfSource::new(1 << 10, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0usize; 1 << 10];
        for _ in 0..200_000 {
            counts[src.sample(&mut rng) as usize] += 1;
        }
        // With α = 1, rank 0 should appear ~8x as often as rank 7.
        let ratio = counts[0] as f64 / counts[7].max(1) as f64;
        assert!((5.0..12.0).contains(&ratio), "ratio {ratio} off from 8");
        // Monotone head.
        assert!(counts[0] > counts[3]);
        assert!(counts[3] > counts[30]);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let src = ZipfSource::new(64, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 64];
        for _ in 0..64_000 {
            counts[src.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "α=0 should be uniform: {c}");
        }
    }

    #[test]
    fn mild_skew_spreads_mass() {
        // The paper's α = 0.4 is a mild skew: the head is popular but the
        // tail still receives a large share.
        let src = ZipfSource::new(1 << 12, 0.4);
        let mut rng = StdRng::seed_from_u64(13);
        let mut head = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if src.sample(&mut rng) < (1 << 8) {
                head += 1;
            }
        }
        let frac = head as f64 / n as f64;
        assert!(
            (0.1..0.6).contains(&frac),
            "head mass {frac} implausible for α=0.4"
        );
    }

    #[test]
    fn samples_stay_in_domain() {
        let src = ZipfSource::new(100, 0.4);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10_000 {
            assert!(src.sample(&mut rng) < 100);
        }
    }

    #[test]
    #[should_panic(expected = "skew must be a non-negative finite number")]
    fn negative_alpha_rejected() {
        ZipfSource::new(10, -1.0);
    }
}
