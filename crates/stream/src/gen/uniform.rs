//! The UNI workload: keys uniform over the domain.
//!
//! Uniform data is the analytic worst case for correlation-driven tuple
//! routing (Theorems 1 and 2): every node's window looks statistically like
//! every other's, so the filter probabilities carry no signal.

use crate::tuple::StreamId;
use rand::rngs::StdRng;
use rand::Rng;

/// Uniformly distributed keys.
#[derive(Debug, Clone)]
pub struct UniformSource {
    domain: u32,
}

impl UniformSource {
    /// Creates a source over `[0, domain)`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(domain: u32) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        UniformSource { domain }
    }

    /// Draws the next key for a tuple of `stream`, in `[0, domain)`.
    pub fn next_key(&mut self, _stream: StreamId, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn covers_domain_roughly_evenly() {
        let mut src = UniformSource::new(16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 16];
        for i in 0..16_000 {
            let stream = if i % 2 == 0 { StreamId::R } else { StreamId::S };
            counts[src.next_key(stream, &mut rng) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn empty_domain_rejected() {
        UniformSource::new(0);
    }
}
