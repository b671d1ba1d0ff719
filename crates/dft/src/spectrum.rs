//! Spectral statistics: the cross-correlation coefficient `ρ` of Eqn. 4,
//! computed *directly from DFT coefficients* so that a node can correlate
//! its stream with a remote node's stream from the remote's (compressed)
//! coefficient prefix alone (Eqns. 5–8).
//!
//! For real signals, Parseval's relation gives
//! `Σ_n x[n]·y[n] = (1/W)·Σ_k X[k]·Y*[k]`; with a Hermitian-symmetric
//! spectrum the sum over all `W` bins collapses onto the retained prefix:
//! `X[0]Y[0] + 2·Σ_{k=1}^{K-1} Re(X[k]·Y*[k])` (up to the energy of the
//! dropped mid-band, which is exactly the compression error).

use crate::complex::Complex64;

/// Inner product `Σ_n x[n]·y[n]` recovered from two coefficient prefixes of
/// length-`w` DFTs of real signals (Parseval over the Hermitian spectrum).
///
/// When the prefixes have different lengths the shorter one bounds the sum.
///
/// # Panics
///
/// Panics if either prefix is empty or `w == 0`.
pub fn inner_product_from_dfts(x: &[Complex64], y: &[Complex64], w: usize) -> f64 {
    assert!(w > 0, "signal length must be positive");
    assert!(
        !x.is_empty() && !y.is_empty(),
        "coefficient prefixes must be non-empty"
    );
    let k = x.len().min(y.len()).min(w / 2 + 1);
    let mut acc = x[0].re * y[0].re;
    for j in 1..k {
        let term = x[j] * y[j].conj();
        // The mirrored bin X[W−j]·Y*[W−j] is the conjugate of this term, so
        // together they contribute twice the real part — except at the
        // Nyquist bin of an even-length transform, which is its own mirror.
        if 2 * j == w {
            acc += term.re;
        } else {
            acc += 2.0 * term.re;
        }
    }
    acc / w as f64
}

/// Cross-correlation (uncentered second moment) `σ_xy = E[x·y]` from two
/// DFT prefixes — Eqn. 5 in the Papoulis convention the paper cites,
/// evaluated via Eqn. 8 / Parseval.
pub fn cross_moment(x: &[Complex64], y: &[Complex64], w: usize) -> f64 {
    inner_product_from_dfts(x, y, w) / w as f64
}

/// The cross-correlation coefficient `ρ = σ_xy / √(σ_x·σ_y)` of Eqn. 4,
/// with the σ's taken as *uncentered* second moments (`E[x·y*]`, the
/// Papoulis convention of the paper's Eqn. 5) — i.e. the cosine similarity
/// of the two signals. For join-attribute histograms this makes ρ directly
/// proportional to the expected join size between the two windows, which
/// is the quantity flow filtering needs; the mean-centered variant goes
/// *negative* for windows with disjoint hot ranges and carries no usable
/// routing signal.
///
/// Clamped to `[-1, 1]`; returns 0 when either signal has (numerically)
/// zero energy.
pub fn cross_correlation_coefficient(x: &[Complex64], y: &[Complex64], w: usize) -> f64 {
    rho_from_moments(
        cross_moment(x, y, w),
        cross_moment(x, x, w),
        cross_moment(y, y, w),
    )
}

/// `ρ = sxy / √(sx·sy)` from the three moments
/// [`cross_correlation_coefficient`] takes, for a caller that holds the
/// energies `sx` and `sy` already; clamped to `[-1, 1]`, and 0 when either
/// signal has (numerically) zero energy.
pub fn rho_from_moments(sxy: f64, sx: f64, sy: f64) -> f64 {
    let denom = (sx * sy).sqrt();
    // NaN-safe guard: zero-energy or non-finite spectra carry no signal.
    if denom.is_nan() || denom <= 1e-12 {
        return 0.0;
    }
    (sxy / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    /// `ρ` of two equal-length signals from their first `k` coefficients.
    fn rho_prefix(x: &[f64], y: &[f64], k: usize) -> f64 {
        let fft = Fft::new(x.len());
        let (sx, sy) = (fft.forward_real(x), fft.forward_real(y));
        cross_correlation_coefficient(&sx[..k], &sy[..k], x.len())
    }

    fn rho_full(x: &[f64], y: &[f64]) -> f64 {
        rho_prefix(x, y, x.len())
    }

    #[test]
    fn inner_product_matches_time_domain() {
        let x: Vec<f64> = (0..64).map(|n| ((n * 13) % 31) as f64).collect();
        let y: Vec<f64> = (0..64).map(|n| ((n * 7) % 17) as f64).collect();
        let fft = Fft::new(64);
        let sx = fft.forward_real(&x);
        let sy = fft.forward_real(&y);
        let direct: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let spectral = inner_product_from_dfts(&sx, &sy, 64);
        assert!(
            (direct - spectral).abs() < 1e-6 * direct.abs().max(1.0),
            "{direct} vs {spectral}"
        );
    }

    #[test]
    fn inner_product_odd_length() {
        let x: Vec<f64> = (0..33).map(|n| (n % 5) as f64).collect();
        let y: Vec<f64> = (0..33).map(|n| ((n + 2) % 7) as f64).collect();
        let sx = Fft::new(33).forward_real(&x);
        let sy = Fft::new(33).forward_real(&y);
        let direct: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let spectral = inner_product_from_dfts(&sx, &sy, 33);
        assert!((direct - spectral).abs() < 1e-6 * direct.abs().max(1.0));
    }

    #[test]
    fn self_correlation_is_one() {
        let x: Vec<f64> = (0..64).map(|n| ((n * 3) % 11) as f64).collect();
        assert!((rho_full(&x, &x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anti_correlated_signals() {
        let x: Vec<f64> = (0..64).map(|n| n as f64).collect();
        let y: Vec<f64> = (0..64).map(|n| -(n as f64)).collect();
        let rho = rho_full(&x, &y);
        assert!((rho + 1.0).abs() < 1e-9, "expected -1, got {rho}");
    }

    #[test]
    fn zero_signal_yields_zero() {
        let x = vec![0.0; 32];
        let y: Vec<f64> = (0..32).map(|n| n as f64).collect();
        let rho = rho_full(&x, &y);
        assert_eq!(rho, 0.0);
    }

    #[test]
    fn uncentered_rho_is_cosine_similarity() {
        let x: Vec<f64> = (0..64).map(|n| ((n * 3) % 11) as f64).collect();
        let y: Vec<f64> = (0..64).map(|n| ((n * 5) % 7) as f64).collect();
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let nx: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|a| a * a).sum::<f64>().sqrt();
        let rho = rho_full(&x, &y);
        assert!((rho - dot / (nx * ny)).abs() < 1e-9);
    }

    #[test]
    fn prefix_approximates_full_for_smooth_signals() {
        // Low-frequency signals: a short prefix captures nearly everything.
        let x: Vec<f64> = (0..256)
            .map(|n| 100.0 + 10.0 * (2.0 * std::f64::consts::PI * n as f64 / 256.0).sin())
            .collect();
        let y: Vec<f64> = (0..256)
            .map(|n| 50.0 + 5.0 * (2.0 * std::f64::consts::PI * n as f64 / 256.0).sin())
            .collect();
        let full = rho_full(&x, &y);
        let pref = rho_prefix(&x, &y, 8);
        assert!((full - pref).abs() < 1e-6, "{full} vs {pref}");
        assert!((full - 1.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_correlation_tracks_overlap() {
        // Two histograms over a 64-value domain: identical support ⇒ ρ ≈ 1;
        // disjoint support ⇒ ρ = 0 (no expected join contribution).
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        let mut c = vec![0.0; 64];
        for i in 0..16 {
            a[i] = 10.0 + (i % 3) as f64;
            b[i] = 9.0 + ((i + 1) % 3) as f64;
            c[32 + i] = 10.0 + (i % 3) as f64;
        }
        assert!(rho_full(&a, &b) > 0.9, "overlapping supports correlate");
        assert!(
            rho_full(&a, &c).abs() < 1e-9,
            "disjoint supports carry no join mass: {}",
            rho_full(&a, &c)
        );
    }
}
