//! Flow control: turning correlation coefficients into bounded forwarding
//! probabilities (Section 5.2.2), detecting the uniform-data worst case,
//! and the round-robin fallback policy.
//!
//! For every arriving tuple, node `i` forwards to node `j` with probability
//! `p_{i,j} = w_i · ρ_{i,j}` (Eqn. 4). The weight `w_i` is chosen so the
//! expected number of transmissions `T_i = Σ_j p_{i,j}` satisfies
//! `1 ≤ T_i ≤ log N` (Eqn. 9). A near-zero variance among the `ρ_{i,j}`
//! signals uniformly distributed data — the worst case of Theorems 1/2 —
//! and triggers a heuristic fallback (round-robin) as the paper prescribes.

use rand::rngs::StdRng;
use rand::Rng;

/// The message-complexity operating point `T_i` (Eqn. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetComplexity {
    /// A fixed expected number of transmissions per tuple (the paper's
    /// `T_i = 1` bound is `Constant(1.0)`). Values below 1 under-send and
    /// are allowed for calibration sweeps.
    Constant(f64),
    /// `T_i = log₂ N` — the paper's upper operating point.
    LogN,
}

impl TargetComplexity {
    /// The numeric target for a cluster of `n` nodes, clamped to the
    /// feasible `[0, n−1]` range.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn target(&self, n: u16) -> f64 {
        assert!(n >= 2, "need at least two nodes");
        let raw = match *self {
            TargetComplexity::Constant(c) => c,
            TargetComplexity::LogN => (n as f64).log2().max(1.0),
        };
        raw.clamp(0.0, (n - 1) as f64)
    }
}

impl Default for TargetComplexity {
    fn default() -> Self {
        TargetComplexity::Constant(1.0)
    }
}

/// Probability of routing a tuple by flow probabilities even when a
/// membership test (DFTT/BLOOM) finds no candidate site — keeps the
/// summaries honest when they go stale. The floor of the router's explore
/// probability, which relaxes toward 1 as the message budget grows.
pub(crate) const EXPLORE: f64 = 0.05;

/// Reusable scratch for [`forwarding_probabilities_into`] — callers on the
/// per-tuple hot path keep one of these alive so the water-fill passes
/// allocate nothing at steady state.
#[derive(Debug, Clone, Default)]
pub struct FlowScratch {
    affinity: Vec<f64>,
    open: Vec<usize>,
    next_open: Vec<usize>,
}

/// Computes forwarding probabilities `p_j = clamp(w·ρ⁺_j, 0, 1)` with the
/// weight `w` chosen so `Σ_j p_j` meets `target` as closely as clamping
/// allows (two redistribution passes), into `probs` (cleared first).
///
/// `None` entries are peers with no summary yet; they receive the blind
/// probability `target / len` so unknown peers are neither starved nor
/// flooded. Returns `false` when every known correlation is non-positive —
/// the caller should fall back to a heuristic policy.
pub fn forwarding_probabilities_into(
    rhos: &[Option<f64>],
    target: f64,
    scratch: &mut FlowScratch,
    probs: &mut Vec<f64>,
) -> bool {
    probs.clear();
    if rhos.is_empty() || target <= 0.0 {
        return false;
    }
    let blind = (target / rhos.len() as f64).min(1.0);
    let known_positive: f64 = rhos.iter().flatten().map(|&r| r.max(0.0)).sum();
    if known_positive <= 1e-12 && rhos.iter().any(|r| r.is_some()) {
        return false;
    }
    // Effective affinity per peer: clamped ρ for known peers, a placeholder
    // proportional to the blind probability for unknown ones.
    let mean_known = {
        let k = rhos.iter().flatten().count();
        if k == 0 {
            1.0
        } else {
            (known_positive / k as f64).max(1e-6)
        }
    };
    scratch.affinity.clear();
    scratch.affinity.extend(rhos.iter().map(|r| match r {
        Some(v) => v.max(0.0),
        None => mean_known.min(blind.max(1e-6)),
    }));
    probs.resize(rhos.len(), 0.0);
    let mut remaining = target.min(rhos.len() as f64);
    // Water-fill in two passes: peers clamped at 1.0 release budget that is
    // redistributed over the rest.
    scratch.open.clear();
    scratch.open.extend(0..rhos.len());
    for _ in 0..2 {
        let mass: f64 = scratch.open.iter().map(|&j| scratch.affinity[j]).sum();
        if mass <= 1e-12 || remaining <= 1e-12 {
            break;
        }
        let w = remaining / mass;
        scratch.next_open.clear();
        for &j in &scratch.open {
            let p = (w * scratch.affinity[j]).min(1.0);
            probs[j] = p;
            if p < 1.0 {
                scratch.next_open.push(j);
            }
        }
        remaining = (target - probs.iter().sum::<f64>()).max(0.0);
        std::mem::swap(&mut scratch.open, &mut scratch.next_open);
    }
    // Budget the affinities could not justify is spread uniformly — a
    // target approaching N−1 must approach broadcast regardless of how
    // skewed (or zero) the correlations are.
    for _ in 0..2 {
        if remaining <= 1e-9 {
            break;
        }
        scratch.open.clear();
        scratch
            .open
            .extend((0..probs.len()).filter(|&j| probs[j] < 1.0));
        if scratch.open.is_empty() {
            break;
        }
        let share = remaining / scratch.open.len() as f64;
        for &j in &scratch.open {
            probs[j] = (probs[j] + share).min(1.0);
        }
        remaining = (target - probs.iter().sum::<f64>()).max(0.0);
    }
    true
}

/// `true` when the known correlations are too uniform to carry routing
/// signal — the Theorem 1/2 worst case (Section 5.2.2). The test is on the
/// coefficient of variation σ/μ: uniformly distributed data drives every
/// pairwise ρ to the same (high) value, while skewed data spreads them.
pub fn detect_uniform(rhos: &[Option<f64>], cv_threshold: f64) -> bool {
    // Two streaming passes over the known entries (count+sum, then
    // variance) — same summation order as collecting them into a buffer,
    // without the per-call allocation.
    let mut count = 0usize;
    let mut sum = 0.0f64;
    for &r in rhos.iter().flatten() {
        count += 1;
        sum += r;
    }
    if count < 2 || count * 2 < rhos.len() {
        // Too few summaries to judge; assume skew until proven otherwise.
        return false;
    }
    let n = count as f64;
    let mean = sum / n;
    if mean <= 1e-9 {
        // No correlation mass at all: let the probability builder decide.
        return false;
    }
    let var = rhos
        .iter()
        .flatten()
        .map(|&r| (r - mean) * (r - mean))
        .sum::<f64>()
        / n;
    var.sqrt() / mean < cv_threshold
}

/// Samples the set of peers to forward to into `out` (cleared first), one
/// Bernoulli draw per peer.
///
/// Exactly one draw is consumed per entry of `probs` — including clamped
/// certainties (`p >= 1`) and dead peers (`p <= 0`). Short-circuiting
/// those would shift the RNG stream seen by every later peer whenever a
/// single probability saturates, making routing decisions depend on
/// *which* peers were certain rather than only on the seed.
pub fn sample_recipients_into(probs: &[f64], rng: &mut StdRng, out: &mut Vec<usize>) {
    out.clear();
    for (j, &p) in probs.iter().enumerate() {
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            out.push(j);
        }
    }
}

/// Round-robin peer selection — the fallback distribution policy for the
/// uniform worst case — over the router's peer columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Clears `out` and fills it with up to `count` distinct columns of
    /// `peers`, cycling from where the last call stopped.
    pub fn pick_into(&mut self, peers: usize, count: usize, out: &mut Vec<usize>) {
        out.clear();
        for _ in 0..count.min(peers) {
            out.push(self.cursor);
            self.cursor = (self.cursor + 1) % peers;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert_eq, proptest};
    use rand::SeedableRng;

    /// Allocating twin of [`forwarding_probabilities_into`], for these
    /// tests and the reference router.
    pub(crate) fn forwarding_probabilities(rhos: &[Option<f64>], target: f64) -> Option<Vec<f64>> {
        let mut scratch = FlowScratch::default();
        let mut probs = Vec::new();
        forwarding_probabilities_into(rhos, target, &mut scratch, &mut probs).then_some(probs)
    }

    /// Allocating twin of [`sample_recipients_into`], for these tests and
    /// the reference router.
    pub(crate) fn sample_recipients(probs: &[f64], rng: &mut StdRng) -> Vec<usize> {
        let mut out = Vec::new();
        sample_recipients_into(probs, rng, &mut out);
        out
    }

    #[test]
    fn target_values() {
        assert_eq!(TargetComplexity::Constant(1.0).target(8), 1.0);
        assert_eq!(TargetComplexity::LogN.target(8), 3.0);
        // log2(2) = 1 → floor at 1.
        assert_eq!(TargetComplexity::LogN.target(2), 1.0);
        // Clamped to n-1.
        assert_eq!(TargetComplexity::Constant(99.0).target(4), 3.0);
    }

    #[test]
    fn probabilities_meet_target() {
        let rhos = vec![Some(0.9), Some(0.3), Some(0.1), Some(0.5)];
        let p = forwarding_probabilities(&rhos, 1.0).unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // Monotone in ρ.
        assert!(p[0] > p[3] && p[3] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn probabilities_clamp_and_redistribute() {
        let rhos = vec![Some(1.0), Some(0.01), Some(0.01)];
        let p = forwarding_probabilities(&rhos, 2.0).unwrap();
        assert!(p[0] <= 1.0 + 1e-12);
        let sum: f64 = p.iter().sum();
        assert!(sum > 1.0, "clamped budget redistributed: {sum}");
    }

    #[test]
    fn negative_rho_gets_zero() {
        let rhos = vec![Some(-0.5), Some(0.5)];
        let p = forwarding_probabilities(&rhos, 1.0).unwrap();
        assert_eq!(p[0], 0.0);
        assert!(p[1] > 0.0);
    }

    #[test]
    fn all_nonpositive_is_none() {
        assert!(forwarding_probabilities(&[Some(-0.1), Some(0.0)], 1.0).is_none());
        assert!(forwarding_probabilities(&[], 1.0).is_none());
        assert!(forwarding_probabilities(&[Some(0.5)], 0.0).is_none());
    }

    #[test]
    fn unknown_peers_get_blind_probability() {
        let rhos = vec![None, None, None, None];
        let p = forwarding_probabilities(&rhos, 1.0).unwrap();
        for &pj in &p {
            assert!((pj - 0.25).abs() < 1e-9, "blind prob {pj}");
        }
    }

    #[test]
    fn uniform_detection() {
        let flat = vec![Some(0.30), Some(0.31), Some(0.295), Some(0.305)];
        assert!(detect_uniform(&flat, 0.05));
        let skewed = vec![Some(0.9), Some(0.1), Some(0.3), Some(0.2)];
        assert!(!detect_uniform(&skewed, 0.05));
        // Too few known values: undecided ⇒ not uniform.
        let sparse = vec![Some(0.3), None, None, None];
        assert!(!detect_uniform(&sparse, 0.05));
        // Small but *spread* correlations are signal, not uniformity.
        let small_spread = vec![Some(0.07), Some(0.13), Some(0.09), Some(0.06)];
        assert!(!detect_uniform(&small_spread, 0.05));
        // Zero mass: undecided (the probability builder falls back anyway).
        let zero = vec![Some(0.0), Some(0.0)];
        assert!(!detect_uniform(&zero, 0.05));
    }

    #[test]
    fn sampling_respects_certainty() {
        let mut rng = StdRng::seed_from_u64(1);
        let picks = sample_recipients(&[1.0, 0.0, 1.0], &mut rng);
        assert_eq!(picks, vec![0, 2]);
    }

    #[test]
    fn sampling_consumes_one_draw_per_peer() {
        use rand::Rng;
        // Saturated (clamped) and zero probabilities still consume their
        // Bernoulli draw, so the stream position after sampling depends
        // only on the peer count — never on the probability values.
        let mut sampled = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        let picks = sample_recipients(&[1.0, 0.0, 0.3, 2.5], &mut sampled);
        assert!(
            picks.contains(&0) && picks.contains(&3),
            "certainties always picked"
        );
        assert!(!picks.contains(&1), "zero probability never picked");
        for _ in 0..4 {
            reference.gen_bool(0.5);
        }
        assert_eq!(
            sampled.gen::<u64>(),
            reference.gen::<u64>(),
            "exactly one draw per peer entry"
        );
    }

    #[test]
    fn sampling_expected_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let probs = vec![0.5, 0.25, 0.25];
        let total: usize = (0..10_000)
            .map(|_| sample_recipients(&probs, &mut rng).len())
            .sum();
        let avg = total as f64 / 10_000.0;
        assert!((avg - 1.0).abs() < 0.05, "average sends {avg}");
    }

    /// The fallback as it read before it cycled over columns: a cursor
    /// over node ids `0..n` that skips `me`.
    struct IdRoundRobin {
        cursor: u16,
    }

    impl IdRoundRobin {
        fn pick(&mut self, me: u16, n: u16, count: usize) -> Vec<u16> {
            let take = count.min(usize::from(n - 1));
            let mut out = Vec::new();
            while out.len() < take {
                let candidate = self.cursor % n;
                self.cursor = (self.cursor + 1) % n;
                if candidate != me {
                    out.push(candidate);
                }
            }
            out
        }
    }

    proptest! {
        #[test]
        fn round_robin_over_columns_picks_what_the_id_walk_picked(
            counts in prop::collection::vec(0usize..64, 50..51),
        ) {
            for n in 2u16..=9 {
                for me in 0..n {
                    let peers: Vec<u16> = (0..n).filter(|&j| j != me).collect();
                    let (mut rr, mut oracle) = (RoundRobin::default(), IdRoundRobin { cursor: 0 });
                    let mut cols = Vec::new();
                    for &c in &counts {
                        // 1..=n: up to one more than there are peers.
                        let count = 1 + c % usize::from(n);
                        rr.pick_into(peers.len(), count, &mut cols);
                        let picked: Vec<u16> = cols.iter().map(|&col| peers[col]).collect();
                        prop_assert_eq!(picked, oracle.pick(me, n, count));
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_cycles_over_columns_and_caps_at_the_peer_count() {
        let mut rr = RoundRobin::default();
        let mut out = Vec::new();
        for expect in [[0, 1], [2, 0], [1, 2]] {
            rr.pick_into(3, 2, &mut out);
            assert_eq!(out, expect);
        }
        rr.pick_into(3, 10, &mut out);
        assert_eq!(out, [0, 1, 2]);
    }
}
