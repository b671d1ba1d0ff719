//! AGMS ("tug-of-war") sketches for join-size estimation.
//!
//! An atomic estimator keeps `c = Σ_v f(v)·ξ(v)` where `f` is the frequency
//! vector of the summarized multiset and `ξ` is a four-wise independent ±1
//! hash. The product of two atomic estimators built with the *same* `ξ` is
//! an unbiased estimate of the join size `Σ_v f(v)·g(v)`. Averaging `s0`
//! independent estimators reduces variance; taking the median of `s1` such
//! averages boosts confidence. The paper's SKCH baseline keeps the
//! `s0 : s1` ratio at 5 : 1 (Section 6).

use crate::hash::PolyHash;
use std::fmt;

/// Error raised when combining incompatible sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchMismatchError {
    expected: (usize, usize, u64),
    found: (usize, usize, u64),
}

impl fmt::Display for SketchMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sketch shapes/seeds differ: expected (s0, s1, seed) = {:?}, found {:?}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for SketchMismatchError {}

/// An AGMS sketch with `s0 × s1` atomic estimators.
///
/// Two sketches can be compared (`join_size`) only when built with the
/// same `(s0, s1, seed)` triple, which makes them share hash functions.
///
/// ```
/// use dsj_sketch::AgmsSketch;
///
/// let mut r = AgmsSketch::new(25, 5, 42);
/// let mut s = AgmsSketch::new(25, 5, 42);
/// for v in 0..100u64 {
///     r.update(v, 1);
///     s.update(v, 1); // identical streams
/// }
/// let est = r.join_size(&s)?;
/// assert!((est - 100.0).abs() < 60.0, "estimate {est} too far from 100");
/// # Ok::<(), dsj_sketch::agms::SketchMismatchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgmsSketch {
    s0: usize,
    s1: usize,
    seed: u64,
    counters: Vec<i64>,
    hashes: Vec<PolyHash>,
    total_updates: u64,
}

impl AgmsSketch {
    /// Creates a sketch with `s0` averaged estimators per group and `s1`
    /// median groups, derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `s0 == 0` or `s1 == 0`.
    pub fn new(s0: usize, s1: usize, seed: u64) -> Self {
        assert!(s0 > 0 && s1 > 0, "sketch dimensions must be positive");
        let hashes = Self::derive_hashes(s0, s1, seed);
        AgmsSketch {
            s0,
            s1,
            seed,
            counters: vec![0; s0 * s1],
            hashes,
            total_updates: 0,
        }
    }

    /// Creates a sketch whose serialized size is at most `bytes`, keeping
    /// the paper's 5:1 `s0 : s1` ratio (8 bytes per counter).
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 48` (too small for even a 5×1 sketch).
    pub fn with_size_bytes(bytes: usize, seed: u64) -> Self {
        let counters = bytes / 8;
        assert!(counters >= 5, "budget too small for a 5x1 AGMS sketch");
        // s0 = 5·s1 ⇒ counters = 5·s1².
        let s1 = (((counters as f64) / 5.0).sqrt().floor() as usize).max(1);
        let s0 = (counters / s1).min(5 * s1).max(1);
        AgmsSketch::new(s0, s1, seed)
    }

    fn derive_hashes(s0: usize, s1: usize, seed: u64) -> Vec<PolyHash> {
        (0..s0 * s1)
            .map(|i| PolyHash::four_wise(seed.wrapping_add(0x51ED_270B ^ (i as u64) << 17)))
            .collect()
    }

    /// Number of averaged estimators per median group.
    #[inline]
    pub fn s0(&self) -> usize {
        self.s0
    }

    /// Number of median groups.
    #[inline]
    pub fn s1(&self) -> usize {
        self.s1
    }

    /// The seed this sketch's hash family derives from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serialized size in bytes (8 per counter).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * 8
    }

    /// Total updates applied.
    #[inline]
    pub fn updates(&self) -> u64 {
        self.total_updates
    }

    /// Applies a frequency change `delta` for value `v` (use `-1` on window
    /// eviction). Cost is one ±1 hash per atomic estimator.
    pub fn update(&mut self, v: u64, delta: i64) {
        for (c, h) in self.counters.iter_mut().zip(self.hashes.iter()) {
            *c += h.sign(v) * delta;
        }
        self.total_updates += 1;
    }

    /// Re-derives hash functions after deserialization (hashes are not
    /// serialized — they are a pure function of `(s0, s1, seed)`).
    pub fn rehydrate(&mut self) {
        if self.hashes.len() != self.s0 * self.s1 {
            self.hashes = Self::derive_hashes(self.s0, self.s1, self.seed);
        }
    }

    /// Rebuilds a sketch from its wire representation: the counter vector
    /// plus the `(s0, s1, seed, total_updates)` parameters. Hash functions
    /// are re-derived, so a reconstructed sketch is bit-identical to the
    /// one that was serialized.
    ///
    /// # Panics
    ///
    /// Panics if `s0 == 0`, `s1 == 0` or `counters.len() != s0 * s1`; wire
    /// decoders validate before calling.
    pub fn from_parts(
        s0: usize,
        s1: usize,
        seed: u64,
        counters: Vec<i64>,
        total_updates: u64,
    ) -> Self {
        assert!(s0 > 0 && s1 > 0, "sketch dimensions must be positive");
        assert!(
            counters.len() == s0 * s1,
            "counter vector must be s0 * s1 long"
        );
        let hashes = Self::derive_hashes(s0, s1, seed);
        AgmsSketch {
            s0,
            s1,
            seed,
            counters,
            hashes,
            total_updates,
        }
    }

    /// The raw counter vector, in index order (the wire representation).
    #[inline]
    pub fn counter_values(&self) -> &[i64] {
        &self.counters
    }

    /// Estimates the join size `Σ_v f(v)·g(v)` between the two summarized
    /// multisets: median over `s1` groups of the mean of `s0` atomic
    /// products.
    ///
    /// # Errors
    ///
    /// Returns [`SketchMismatchError`] when the sketches were built with
    /// different shapes or seeds.
    pub fn join_size(&self, other: &AgmsSketch) -> Result<f64, SketchMismatchError> {
        if self.s0 != other.s0 || self.s1 != other.s1 || self.seed != other.seed {
            return Err(SketchMismatchError {
                expected: (self.s0, self.s1, self.seed),
                found: (other.s0, other.s1, other.seed),
            });
        }
        let mut group_means: Vec<f64> = (0..self.s1)
            .map(|g| {
                let start = g * self.s0;
                (0..self.s0)
                    .map(|i| (self.counters[start + i] * other.counters[start + i]) as f64)
                    .sum::<f64>()
                    / self.s0 as f64
            })
            .collect();
        group_means.sort_by(f64::total_cmp);
        let mid = group_means.len() / 2;
        Ok(if group_means.len() % 2 == 1 {
            group_means[mid]
        } else {
            (group_means[mid - 1] + group_means[mid]) / 2.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix64;

    fn exact_join(f: &[i64], g: &[i64]) -> f64 {
        f.iter().zip(g).map(|(a, b)| (a * b) as f64).sum()
    }

    /// Builds frequency vectors and matching sketches for a small domain.
    fn sketch_of(freqs: &[i64], seed: u64) -> AgmsSketch {
        let mut sk = AgmsSketch::new(40, 8, seed);
        for (v, &f) in freqs.iter().enumerate() {
            if f != 0 {
                sk.update(v as u64, f);
            }
        }
        sk
    }

    #[test]
    fn join_size_is_close_on_correlated_streams() {
        let mut rng = SplitMix64::new(3);
        let f: Vec<i64> = (0..256).map(|_| (rng.next_u64() % 10) as i64).collect();
        let g: Vec<i64> = f.iter().map(|&x| (x + 1) / 2).collect();
        let exact = exact_join(&f, &g);
        let est = sketch_of(&f, 9).join_size(&sketch_of(&g, 9)).unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < 0.35,
            "relative error {rel} (est {est} vs exact {exact})"
        );
    }

    #[test]
    fn disjoint_streams_estimate_near_zero() {
        let mut f = vec![0i64; 512];
        let mut g = vec![0i64; 512];
        for i in 0..200 {
            f[i] = 5;
            g[i + 256] = 5;
        }
        let est = sketch_of(&f, 4).join_size(&sketch_of(&g, 4)).unwrap();
        let scale = exact_join(&f, &f);
        assert!(
            est.abs() < 0.3 * scale,
            "disjoint estimate {est} should be near zero (scale {scale})"
        );
    }

    #[test]
    fn self_join_estimates_f2() {
        let mut rng = SplitMix64::new(8);
        let f: Vec<i64> = (0..128).map(|_| (rng.next_u64() % 20) as i64).collect();
        let exact: f64 = f.iter().map(|&x| (x * x) as f64).sum();
        let sk = sketch_of(&f, 21);
        let est = sk.join_size(&sk).unwrap();
        assert!((est - exact).abs() / exact < 0.3, "{est} vs {exact}");
    }

    #[test]
    fn deletions_cancel_insertions() {
        let mut sk = AgmsSketch::new(10, 3, 5);
        for v in 0..50 {
            sk.update(v, 1);
        }
        for v in 0..50 {
            sk.update(v, -1);
        }
        assert_eq!(sk.join_size(&sk).unwrap(), 0.0);
    }

    #[test]
    fn incompatible_sketches_error() {
        let a = AgmsSketch::new(10, 3, 7);
        let b = AgmsSketch::new(10, 3, 8);
        let c = AgmsSketch::new(5, 3, 7);
        assert!(a.join_size(&b).is_err());
        assert!(a.join_size(&c).is_err());
        let err = a.join_size(&b).unwrap_err();
        assert!(err.to_string().contains("seed"));
    }

    #[test]
    fn with_size_bytes_respects_budget_and_ratio() {
        for bytes in [512usize, 4096, 32768] {
            let sk = AgmsSketch::with_size_bytes(bytes, 1);
            assert!(sk.size_bytes() <= bytes, "{} > {bytes}", sk.size_bytes());
            let ratio = sk.s0() as f64 / sk.s1() as f64;
            assert!(
                (1.0..=6.0).contains(&ratio),
                "s0:s1 ratio {ratio} drifted from 5:1"
            );
        }
    }

    #[test]
    fn estimate_variance_shrinks_with_size() {
        // Bigger sketches should estimate a fixed join more tightly.
        let mut rng = SplitMix64::new(77);
        let f: Vec<i64> = (0..512).map(|_| (rng.next_u64() % 8) as i64).collect();
        let exact: f64 = f.iter().map(|&x| (x * x) as f64).sum();
        let spread = |s0: usize, s1: usize| -> f64 {
            (0..12)
                .map(|seed| {
                    let mut sk = AgmsSketch::new(s0, s1, seed);
                    for (v, &c) in f.iter().enumerate() {
                        if c != 0 {
                            sk.update(v as u64, c);
                        }
                    }
                    ((sk.join_size(&sk).unwrap() - exact) / exact).abs()
                })
                .sum::<f64>()
                / 12.0
        };
        let small = spread(5, 1);
        let large = spread(60, 12);
        assert!(
            large < small + 0.05,
            "larger sketch should not be less accurate: small {small}, large {large}"
        );
    }
}
