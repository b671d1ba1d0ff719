//! k-wise independent hash families.
//!
//! Degree-`(k−1)` polynomials with random coefficients over the Mersenne
//! prime field `GF(2⁶¹ − 1)` are k-wise independent; AGMS sketches need the
//! four-wise family for their variance bound, Bloom indexes get by with the
//! pairwise one. All randomness is derived deterministically from a caller
//! seed via SplitMix64 so that two sketches built from the same seed are
//! joinable across nodes without shipping coefficient tables.

/// The Mersenne prime `2⁶¹ − 1`.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// A deterministic seed-expansion PRNG (SplitMix64).
///
/// Derives the hash coefficients, so sketches built from one seed on
/// different nodes share a hash family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One Mersenne fold: `(x mod 2⁶¹) + ⌊x / 2⁶¹⌋`, congruent to `x` modulo
/// `2⁶¹ − 1` because `2⁶¹ ≡ 1`. The product of two residues is below
/// `2¹²²`, so its fold is below `2⁶²`; a `u64` folds to below `2⁶¹ + 8`.
#[inline]
fn fold(x: u128) -> u64 {
    (x as u64 & MERSENNE_61) + (x >> 61) as u64
}

/// The canonical residue of `x < 2·(2⁶¹ − 1)`: one conditional subtract.
#[inline]
fn canonical(x: u64) -> u64 {
    if x >= MERSENNE_61 {
        x - MERSENNE_61
    } else {
        x
    }
}

/// Multiplication in `GF(2⁶¹ − 1)`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    canonical(fold(a as u128 * b as u128))
}

/// Addition in `GF(2⁶¹ − 1)`.
#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    canonical(a + b)
}

/// `x = v mod (2⁶¹ − 1)` with its square and cube: the powers every cubic
/// of a four-wise family is evaluated at, computed once per value.
#[inline]
pub(crate) fn cubic_powers(v: u64) -> [u64; 3] {
    let x = v % MERSENNE_61;
    let x2 = mul_mod(x, x);
    [x, x2, mul_mod(x2, x)]
}

/// `c₀ + c₁·x + c₂·x² + c₃·x³ mod (2⁶¹ − 1)`, canonical, at
/// `powers = [x, x², x³]` from [`cubic_powers`] — exactly the value
/// [`PolyHash::hash`] computes for a four-wise hash with coefficients `c`.
///
/// The three products are independent, so they pipeline instead of
/// chaining like Horner's rule. Each is folded once to below `2⁶²`; with
/// `c₀ < 2⁶¹` the sum stays below `3·2⁶² + 2⁶¹ < 2⁶⁴`, and one more fold
/// and one conditional subtract reach the canonical residue.
#[inline]
pub(crate) fn eval_cubic(c: &[u64; 4], [x, x2, x3]: [u64; 3]) -> u64 {
    let sum = c[0]
        + fold(c[1] as u128 * x as u128)
        + fold(c[2] as u128 * x2 as u128)
        + fold(c[3] as u128 * x3 as u128);
    canonical(fold(u128::from(sum)))
}

/// A k-wise independent polynomial hash `h(x) = Σ cᵢ·xⁱ mod (2⁶¹−1)`.
///
/// ```
/// use dsj_sketch::PolyHash;
///
/// let h = PolyHash::four_wise(42);
/// // Deterministic: the same seed yields the same function.
/// assert_eq!(h.hash(123), PolyHash::four_wise(42).hash(123));
/// // Signs are ±1.
/// assert!(h.sign(7) == 1 || h.sign(7) == -1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// A k-wise independent hash derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn k_wise(k: usize, seed: u64) -> Self {
        assert!(k > 0, "independence degree must be positive");
        let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        let coeffs = (0..k).map(|_| rng.next_u64() % MERSENNE_61).collect();
        PolyHash { coeffs }
    }

    /// A pairwise independent hash (degree-1 polynomial).
    pub fn pairwise(seed: u64) -> Self {
        PolyHash::k_wise(2, seed)
    }

    /// A four-wise independent hash (degree-3 polynomial) — the family AGMS
    /// sketches require for their variance guarantee.
    pub fn four_wise(seed: u64) -> Self {
        PolyHash::k_wise(4, seed)
    }

    /// The polynomial's coefficients `c₀, c₁, …`, each below `2⁶¹ − 1`.
    pub(crate) fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// Hash of `x`, uniform over `[0, 2⁶¹ − 1)`.
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE_61;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add_mod(mul_mod(acc, x), c);
        }
        acc
    }

    /// Hash of `x`, mapped uniformly into `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn hash_to_range(&self, x: u64, m: u64) -> u64 {
        assert!(m > 0, "range must be positive");
        ((self.hash(x) as u128 * m as u128) >> 61) as u64
    }

    /// A ±1 value derived from the hash (the AGMS `ξ` variable).
    pub fn sign(&self, x: u64) -> i64 {
        if self.hash(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn field_arithmetic_sane() {
        assert_eq!(mul_mod(MERSENNE_61 - 1, 1), MERSENNE_61 - 1);
        assert_eq!(add_mod(MERSENNE_61 - 1, 1), 0);
        // (p-1)·(p-1) mod p = 1 since p-1 ≡ -1.
        assert_eq!(mul_mod(MERSENNE_61 - 1, MERSENNE_61 - 1), 1);
    }

    #[test]
    fn cubic_kernel_matches_horner_at_the_extremes() {
        let p = MERSENNE_61;
        let coeffs = [[p - 1; 4], [0, p - 1, 0, p - 1], [1, 0, 0, 0], [0; 4]];
        for c in coeffs {
            let horner = PolyHash { coeffs: c.to_vec() };
            for v in [0, 1, 2, p - 2, p - 1, p, p + 1, 2 * p - 1, u64::MAX] {
                assert_eq!(
                    eval_cubic(&c, cubic_powers(v)),
                    horner.hash(v),
                    "{c:?} at {v}"
                );
            }
        }
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let h1 = PolyHash::four_wise(5);
        let h2 = PolyHash::four_wise(5);
        let h3 = PolyHash::four_wise(6);
        assert_eq!(h1.hash(1000), h2.hash(1000));
        let same = (0..64).filter(|&x| h1.hash(x) == h3.hash(x)).count();
        assert!(same < 4, "different seeds should rarely collide");
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let h = PolyHash::four_wise(11);
        let pos = (0..10_000u64).filter(|&x| h.sign(x) == 1).count();
        assert!(
            (4_000..6_000).contains(&pos),
            "sign bias too strong: {pos}/10000"
        );
    }

    #[test]
    fn range_hash_covers_buckets() {
        let h = PolyHash::pairwise(3);
        let m = 16u64;
        let mut hit = vec![false; m as usize];
        for x in 0..2_000 {
            hit[h.hash_to_range(x, m) as usize] = true;
        }
        assert!(hit.iter().all(|&b| b), "every bucket should be reachable");
    }

    #[test]
    fn pairwise_uniformity_chi_squared() {
        let h = PolyHash::pairwise(77);
        let m = 32usize;
        let n = 32_000u64;
        let mut counts = vec![0f64; m];
        for x in 0..n {
            counts[h.hash_to_range(x, m as u64) as usize] += 1.0;
        }
        let expect = n as f64 / m as f64;
        let chi2: f64 = counts
            .iter()
            .map(|c| (c - expect) * (c - expect) / expect)
            .sum();
        // 31 degrees of freedom; 99.9th percentile is ~61.1.
        assert!(chi2 < 62.0, "chi² too large: {chi2}");
    }

    #[test]
    #[should_panic(expected = "independence degree must be positive")]
    fn zero_degree_rejected() {
        PolyHash::k_wise(0, 1);
    }
}
