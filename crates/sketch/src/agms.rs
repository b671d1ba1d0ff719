//! AGMS ("tug-of-war") sketches for join-size estimation.
//!
//! An atomic estimator keeps `c = Σ_v f(v)·ξ(v)` where `f` is the frequency
//! vector of the summarized multiset and `ξ` is a four-wise independent ±1
//! hash. The product of two atomic estimators built with the *same* `ξ` is
//! an unbiased estimate of the join size `Σ_v f(v)·g(v)`. Averaging `s0`
//! independent estimators reduces variance; taking the median of `s1` such
//! averages boosts confidence. The paper's SKCH baseline keeps the
//! `s0 : s1` ratio at 5 : 1 (Section 6).
//!
//! Each `ξ` is the low bit of a cubic over `GF(2⁶¹ − 1)`. The sketch keeps
//! the `s0·s1` cubics' coefficients in one flat array; an update reduces the
//! value and takes its square and cube once, then evaluates every cubic as
//! three independent products, each folded once, summed below `2⁶⁴` and
//! reduced once to the canonical residue. The arithmetic is exact: every
//! sign equals [`PolyHash::sign`] of the same hash.
//!
//! A family of at most 64 counters can also carry a sign table over a key
//! domain `[0, D)` ([`AgmsHashes::with_sign_table`]): one word per key whose
//! bit `i` is counter `i`'s sign bit. An update of a tabulated key reads
//! that word instead of evaluating the cubics; the table is an exact memo of
//! the kernel, so the counters are the same either way.

use crate::hash::{cubic_powers, eval_cubic, PolyHash};
use std::fmt;
use std::sync::Arc;

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

/// The hash family of an AGMS sketch: `s0 × s1` four-wise hashes derived
/// from `seed`, of which a sketch keeps only the coefficients. It is a pure
/// function of `(s0, s1, seed)` and never changes, so every sketch of one
/// cluster can hold the same family by [`Arc`]
/// ([`AgmsSketch::with_hashes`]).
///
/// Equality and `Debug` are by family: the sign table is a cache, so a
/// tabulated family equals the untabulated one of the same `(s0, s1, seed)`.
pub struct AgmsHashes {
    s0: usize,
    s1: usize,
    seed: u64,
    /// `[c₀, c₁, c₂, c₃]` of each counter's four-wise hash, in counter order.
    coeffs: Vec<[u64; 4]>,
    /// Entry `v`, bit `i`: the low bit of counter `i`'s cubic at `v`, for
    /// every `v` below the tabulated domain. Empty when untabulated.
    signs: Vec<u64>,
}

impl PartialEq for AgmsHashes {
    fn eq(&self, other: &Self) -> bool {
        (self.s0, self.s1, self.seed, &self.coeffs)
            == (other.s0, other.s1, other.seed, &other.coeffs)
    }
}

impl Eq for AgmsHashes {}

impl fmt::Debug for AgmsHashes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgmsHashes")
            .field("s0", &self.s0)
            .field("s1", &self.s1)
            .field("seed", &self.seed)
            .field("coeffs", &self.coeffs)
            .finish()
    }
}

impl AgmsHashes {
    /// The family of an `s0 × s1` sketch derived from `seed`: counter `i`'s
    /// hash is `PolyHash::four_wise` of a seed derived from `seed` and `i`.
    ///
    /// # Panics
    ///
    /// Panics if `s0 == 0` or `s1 == 0`.
    pub fn new(s0: usize, s1: usize, seed: u64) -> Self {
        assert!(s0 > 0 && s1 > 0, "sketch dimensions must be positive");
        let coeffs = (0..s0 * s1)
            .map(|i| {
                let hash = PolyHash::four_wise(seed.wrapping_add(0x51ED_270B ^ (i as u64) << 17));
                let mut c = [0; 4];
                c.copy_from_slice(hash.coefficients());
                c
            })
            .collect();
        AgmsHashes {
            s0,
            s1,
            seed,
            coeffs,
            signs: Vec::new(),
        }
    }

    /// The family of the largest sketch whose counters take at most `bytes`
    /// of memory (8 per `i64` counter), keeping the paper's 5:1 `s0 : s1`
    /// ratio. This is the budget Figure 10 equalises; the wire ships each
    /// counter narrower when it can.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 40` (too small for even a 5×1 sketch).
    pub fn with_size_bytes(bytes: usize, seed: u64) -> Self {
        let counters = bytes / 8;
        assert!(counters >= 5, "budget too small for a 5x1 AGMS sketch");
        // s0 = 5·s1 ⇒ counters = 5·s1².
        let s1 = (((counters as f64) / 5.0).sqrt().floor() as usize).max(1);
        let s0 = (counters / s1).min(5 * s1).max(1);
        AgmsHashes::new(s0, s1, seed)
    }

    /// This family with the signs of every key in `[0, domain)` tabulated,
    /// one `u64` (8 bytes) per key, when it has at most 64 counters; a
    /// larger family is returned untabulated. Costs `domain · s0 · s1` hash
    /// evaluations, once.
    pub fn with_sign_table(mut self, domain: usize) -> Self {
        if self.coeffs.len() <= 64 {
            self.signs = (0..domain as u64)
                .map(|v| {
                    let powers = cubic_powers(v);
                    self.coeffs
                        .iter()
                        .enumerate()
                        .fold(0, |word, (i, k)| word | (eval_cubic(k, powers) & 1) << i)
                })
                .collect();
        }
        self
    }

    /// Number of keys whose signs are tabulated: `[0, len)` is read from
    /// the table, every other value evaluates the cubics.
    pub fn sign_table_len(&self) -> usize {
        self.signs.len()
    }
}

/// An AGMS sketch with `s0 × s1` atomic estimators.
///
/// Two sketches can be compared (`join_size`) only when built with the
/// same `(s0, s1, seed)` triple, which makes them share hash functions.
/// A sketch holds its [`AgmsHashes`] by [`Arc`], so a clone copies the
/// counters only.
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
#[derive(Debug, PartialEq)]
pub struct AgmsSketch {
    hashes: Arc<AgmsHashes>,
    counters: Vec<i64>,
    total_updates: u64,
}

impl Clone for AgmsSketch {
    fn clone(&self) -> Self {
        AgmsSketch {
            hashes: Arc::clone(&self.hashes),
            counters: self.counters.clone(),
            total_updates: self.total_updates,
        }
    }

    /// Overwrites the counters and update count in place when `source` has
    /// the same shape and seed (and so the same hashes): no allocation.
    fn clone_from(&mut self, source: &Self) {
        if self.shape() == source.shape() {
            self.counters.copy_from_slice(&source.counters);
            self.total_updates = source.total_updates;
        } else {
            *self = source.clone();
        }
    }
}

impl AgmsSketch {
    /// Creates a sketch with `s0` averaged estimators per group and `s1`
    /// median groups, derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `s0 == 0` or `s1 == 0`.
    pub fn new(s0: usize, s1: usize, seed: u64) -> Self {
        Self::with_hashes(Arc::new(AgmsHashes::new(s0, s1, seed)))
    }

    /// Creates a sketch whose counters take at most `bytes` of memory (8 per
    /// counter), keeping the paper's 5:1 `s0 : s1` ratio.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 40` (too small for even a 5×1 sketch).
    pub fn with_size_bytes(bytes: usize, seed: u64) -> Self {
        Self::with_hashes(Arc::new(AgmsHashes::with_size_bytes(bytes, seed)))
    }

    /// An empty sketch over the shared hash family `hashes`.
    /// [`AgmsSketch::new`] and [`AgmsSketch::with_size_bytes`] are this
    /// over a family of their own.
    pub fn with_hashes(hashes: Arc<AgmsHashes>) -> Self {
        AgmsSketch {
            counters: vec![0; hashes.coeffs.len()],
            hashes,
            total_updates: 0,
        }
    }

    /// `(s0, s1, seed)`: equal exactly when two sketches share hashes.
    pub fn shape(&self) -> (usize, usize, u64) {
        (self.hashes.s0, self.hashes.s1, self.hashes.seed)
    }

    /// Number of averaged estimators per median group.
    #[inline]
    pub fn s0(&self) -> usize {
        self.hashes.s0
    }

    /// Number of median groups.
    #[inline]
    pub fn s1(&self) -> usize {
        self.hashes.s1
    }

    /// The seed this sketch's hash family derives from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.hashes.seed
    }

    /// Memory its counters take, in bytes (8 per counter): the summary
    /// budget, not the wire size.
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
    /// eviction). Cost: one table read when the family tabulates `v`
    /// ([`AgmsHashes::with_sign_table`]); otherwise two field multiplies for
    /// `v²` and `v³`, then three independent multiplies and one reduction
    /// per atomic estimator.
    pub fn update(&mut self, v: u64, delta: i64) {
        // `ξ = +1` on an even residue, `−1` on an odd one.
        let signs = &self.hashes.signs;
        if let Some(&word) = usize::try_from(v).ok().and_then(|v| signs.get(v)) {
            for (i, c) in self.counters.iter_mut().enumerate() {
                // All ones on an odd residue, zero on an even one, so
                // `(δ ^ neg) − neg` is `−δ` or `δ` without a multiply.
                let neg = -(((word >> i) & 1) as i64);
                *c += (delta ^ neg) - neg;
            }
        } else {
            let powers = cubic_powers(v);
            for (c, k) in self.counters.iter_mut().zip(&self.hashes.coeffs) {
                let odd = (eval_cubic(k, powers) & 1) as i64;
                *c += (1 - 2 * odd) * delta;
            }
        }
        self.total_updates += 1;
    }

    /// Rebuilds a sketch from its wire representation: the counter vector
    /// plus the `(s0, s1, seed, total_updates)` parameters. Hash functions
    /// are not serialized — they are a pure function of `(s0, s1, seed)` —
    /// so they are re-derived, and a reconstructed sketch is bit-identical
    /// to the one that was serialized.
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
        AgmsSketch {
            hashes: Arc::new(AgmsHashes::new(s0, s1, seed)),
            counters,
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
        self.join_size_into(other, &mut Vec::new())
    }

    /// [`AgmsSketch::join_size`] with the `s1` group means written into
    /// `group_means` (cleared first), so a caller that keeps the buffer
    /// estimates without allocating.
    ///
    /// # Errors
    ///
    /// As [`AgmsSketch::join_size`].
    pub fn join_size_into(
        &self,
        other: &AgmsSketch,
        group_means: &mut Vec<f64>,
    ) -> Result<f64, SketchMismatchError> {
        if self.shape() != other.shape() {
            return Err(SketchMismatchError {
                expected: self.shape(),
                found: other.shape(),
            });
        }
        let (s0, s1) = (self.s0(), self.s1());
        group_means.clear();
        group_means.extend((0..s1).map(|g| {
            let start = g * s0;
            (0..s0)
                .map(|i| (self.counters[start + i] * other.counters[start + i]) as f64)
                .sum::<f64>()
                / s0 as f64
        }));
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
    fn counters_are_pinned() {
        // Recorded from the per-hash Horner kernel: the flat kernel and the
        // coefficient derivation must both reproduce it.
        let mut sk = AgmsSketch::new(10, 2, 42);
        let mut rng = SplitMix64::new(2024);
        for _ in 0..1000 {
            let v = rng.next_u64();
            let delta = (rng.next_u64() % 7) as i64 - 3;
            sk.update(v, delta);
        }
        assert_eq!(
            sk.counter_values(),
            [
                -95, 3, -69, -17, -9, -43, -33, -79, 13, -59, 3, 51, -87, 9, -105, -117, 43, -69,
                73, 103
            ]
        );
        assert_eq!(sk.updates(), 1000);
    }

    #[test]
    fn a_family_over_sixty_four_counters_builds_no_table() {
        assert_eq!(
            AgmsHashes::new(16, 4, 3)
                .with_sign_table(100)
                .sign_table_len(),
            100
        );
        let wide = AgmsHashes::new(13, 5, 3).with_sign_table(100);
        assert_eq!(wide.sign_table_len(), 0, "65 counters keep the kernel");
        assert_eq!(wide, AgmsHashes::new(13, 5, 3));
    }

    #[test]
    fn clone_from_overwrites_in_place() {
        let mut held = AgmsSketch::new(10, 2, 42);
        let mut fresh = AgmsSketch::new(10, 2, 42);
        fresh.update(7, 3);
        let buffer = held.counter_values().as_ptr();
        held.clone_from(&fresh);
        assert_eq!(held, fresh);
        assert_eq!(held.counter_values().as_ptr(), buffer, "counters reused");
        let other = AgmsSketch::new(5, 1, 9);
        held.clone_from(&other);
        assert_eq!(held, other, "a different shape is replaced wholesale");
    }

    #[test]
    fn join_size_into_reuses_its_buffer() {
        let a = sketch_of(&[3, 1, 4, 1, 5], 6);
        let b = sketch_of(&[2, 7, 1, 8, 2], 6);
        let mut means = Vec::with_capacity(a.s1());
        let buffer = means.as_ptr();
        assert_eq!(a.join_size_into(&b, &mut means), a.join_size(&b));
        assert_eq!(means.len(), a.s1());
        assert_eq!(means.as_ptr(), buffer);
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
