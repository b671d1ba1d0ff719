//! Spectral statistics: power spectra, covariances and the
//! cross-correlation coefficient `ρ` of Eqn. 4, computed *directly from DFT
//! coefficients* so that a node can correlate its stream with a remote
//! node's stream from the remote's (compressed) coefficient prefix alone
//! (Eqns. 5–8).
//!
//! For real signals, Parseval's relation gives
//! `Σ_n x[n]·y[n] = (1/W)·Σ_k X[k]·Y*[k]`; with a Hermitian-symmetric
//! spectrum the sum over all `W` bins collapses onto the retained prefix:
//! `X[0]Y[0] + 2·Σ_{k=1}^{K-1} Re(X[k]·Y*[k])` (up to the energy of the
//! dropped mid-band, which is exactly the compression error).

use crate::complex::Complex64;
use crate::fft::Fft;

/// Cross power spectrum `S_xy[k] = X[k]·Y*[k]` of two equal-length signals,
/// estimated with FFTs (Section 5.2.1).
///
/// # Panics
///
/// Panics if the signals have different lengths.
pub fn power_spectrum(x: &[f64], y: &[f64]) -> Vec<Complex64> {
    assert_eq!(x.len(), y.len(), "signals must have equal length");
    if x.is_empty() {
        return Vec::new();
    }
    let fft = Fft::new(x.len());
    let sx = fft.forward_real(x);
    let sy = fft.forward_real(y);
    sx.iter().zip(&sy).map(|(a, b)| *a * b.conj()).collect()
}

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

/// Cross-covariance `σ_xy − E[x]·E[y]` (centered variant) from two DFT
/// prefixes.
pub fn cross_covariance(x: &[Complex64], y: &[Complex64], w: usize) -> f64 {
    let exy = cross_moment(x, y, w);
    let ex = x[0].re / w as f64;
    let ey = y[0].re / w as f64;
    exy - ex * ey
}

/// Auto-covariance (variance) `σ_x = E[x²] − E[x]²` from a DFT prefix.
pub fn auto_covariance(x: &[Complex64], w: usize) -> f64 {
    cross_covariance(x, x, w)
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
    let sxy = cross_moment(x, y, w);
    let sx = cross_moment(x, x, w);
    let sy = cross_moment(y, y, w);
    let denom = (sx * sy).sqrt();
    // NaN-safe guard: zero-energy or non-finite spectra carry no signal.
    if denom.is_nan() || denom <= 1e-12 {
        return 0.0;
    }
    (sxy / denom).clamp(-1.0, 1.0)
}

/// Full lagged cross-correlation `R_xy[m] = Σ_n x[n]·y[(n+m) mod W]` for
/// every lag `m`, computed in `O(W log W)` via the cross power spectrum
/// (the Wiener–Khinchin route the paper's Section 5.2.1 takes): the
/// inverse transform of `X*[k]·Y[k]`.
///
/// # Panics
///
/// Panics if the signals have different lengths.
pub fn cross_correlation_lags(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "signals must have equal length");
    if x.is_empty() {
        return Vec::new();
    }
    let fft = Fft::new(x.len());
    let sx = fft.forward_real(x);
    let sy = fft.forward_real(y);
    let cross: Vec<Complex64> = sx.iter().zip(&sy).map(|(a, b)| a.conj() * *b).collect();
    fft.inverse_real(&cross)
}

/// A self-describing DFT prefix: coefficients plus the transformed length.
///
/// This is the unit of summary exchanged between nodes; all spectral
/// statistics above are exposed as methods.
///
/// ```
/// use dsj_dft::{Fft, SpectralSummary};
///
/// let a: Vec<f64> = (0..32).map(|n| (n % 8) as f64).collect();
/// let spec = Fft::new(32).forward_real(&a);
/// let s = SpectralSummary::new(spec[..8].to_vec(), 32);
/// assert!((s.mean() - 3.5).abs() < 1e-9);
/// assert!((s.correlation(&s) - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralSummary {
    coeffs: Vec<Complex64>,
    signal_len: usize,
}

impl SpectralSummary {
    /// Wraps a coefficient prefix of a length-`signal_len` DFT.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or `signal_len == 0`.
    pub fn new(coeffs: Vec<Complex64>, signal_len: usize) -> Self {
        assert!(!coeffs.is_empty(), "summary must retain coefficients");
        assert!(signal_len > 0, "signal length must be positive");
        SpectralSummary { coeffs, signal_len }
    }

    /// Computes the full-spectrum summary of a real signal, retaining
    /// `retained` prefix coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is empty or `retained` is zero.
    pub fn from_signal(signal: &[f64], retained: usize) -> Self {
        assert!(!signal.is_empty(), "signal must be non-empty");
        assert!(retained > 0, "must retain at least one coefficient");
        let spec = Fft::new(signal.len()).forward_real(signal);
        let k = retained.min(spec.len());
        SpectralSummary::new(spec[..k].to_vec(), signal.len())
    }

    /// The retained coefficients.
    #[inline]
    pub fn coefficients(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// The transformed signal length `W`.
    #[inline]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Signal mean `E[x] = X[0]/W`.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.coeffs[0].re / self.signal_len as f64
    }

    /// Signal variance from the retained bins.
    #[inline]
    pub fn variance(&self) -> f64 {
        auto_covariance(&self.coeffs, self.signal_len)
    }

    /// Cross-covariance with another summary of equal signal length.
    ///
    /// # Panics
    ///
    /// Panics if the signal lengths differ.
    pub fn covariance(&self, other: &SpectralSummary) -> f64 {
        assert_eq!(
            self.signal_len, other.signal_len,
            "summaries must describe equal-length signals"
        );
        cross_covariance(&self.coeffs, &other.coeffs, self.signal_len)
    }

    /// Cross-correlation coefficient `ρ` (Eqn. 4) with another summary.
    ///
    /// # Panics
    ///
    /// Panics if the signal lengths differ.
    pub fn correlation(&self, other: &SpectralSummary) -> f64 {
        assert_eq!(
            self.signal_len, other.signal_len,
            "summaries must describe equal-length signals"
        );
        cross_correlation_coefficient(&self.coeffs, &other.coeffs, self.signal_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_summary(signal: &[f64]) -> SpectralSummary {
        SpectralSummary::from_signal(signal, signal.len())
    }

    fn naive_cov(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        x.iter()
            .zip(y)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum::<f64>()
            / n
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
    fn covariance_matches_naive() {
        let x: Vec<f64> = (0..128).map(|n| ((n * 29) % 97) as f64).collect();
        let y: Vec<f64> = (0..128).map(|n| ((n * 43) % 89) as f64).collect();
        let spectral = full_summary(&x).covariance(&full_summary(&y));
        let naive = naive_cov(&x, &y);
        assert!((spectral - naive).abs() < 1e-6 * naive.abs().max(1.0));
    }

    #[test]
    fn self_correlation_is_one() {
        let x: Vec<f64> = (0..64).map(|n| ((n * 3) % 11) as f64).collect();
        let s = full_summary(&x);
        assert!((s.correlation(&s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anti_correlated_signals() {
        let x: Vec<f64> = (0..64).map(|n| n as f64).collect();
        let y: Vec<f64> = (0..64).map(|n| -(n as f64)).collect();
        let rho = full_summary(&x).correlation(&full_summary(&y));
        assert!((rho + 1.0).abs() < 1e-9, "expected -1, got {rho}");
    }

    #[test]
    fn zero_signal_yields_zero() {
        let x = vec![0.0; 32];
        let y: Vec<f64> = (0..32).map(|n| n as f64).collect();
        let rho = full_summary(&x).correlation(&full_summary(&y));
        assert_eq!(rho, 0.0);
    }

    #[test]
    fn uncentered_rho_is_cosine_similarity() {
        let x: Vec<f64> = (0..64).map(|n| ((n * 3) % 11) as f64).collect();
        let y: Vec<f64> = (0..64).map(|n| ((n * 5) % 7) as f64).collect();
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let nx: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|a| a * a).sum::<f64>().sqrt();
        let rho = full_summary(&x).correlation(&full_summary(&y));
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
        let full = full_summary(&x).correlation(&full_summary(&y));
        let pref =
            SpectralSummary::from_signal(&x, 8).correlation(&SpectralSummary::from_signal(&y, 8));
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
        let sa = full_summary(&a);
        let sb = full_summary(&b);
        let sc = full_summary(&c);
        assert!(sa.correlation(&sb) > 0.9, "overlapping supports correlate");
        assert!(
            sa.correlation(&sc).abs() < 1e-9,
            "disjoint supports carry no join mass: {}",
            sa.correlation(&sc)
        );
    }

    #[test]
    fn power_spectrum_dc_is_product_of_sums() {
        let x: Vec<f64> = (1..=8).map(f64::from).collect();
        let y: Vec<f64> = (1..=8).map(|v| f64::from(v) * 2.0).collect();
        let s = power_spectrum(&x, &y);
        let sum_x: f64 = x.iter().sum();
        let sum_y: f64 = y.iter().sum();
        assert!((s[0].re - sum_x * sum_y).abs() < 1e-9);
    }

    #[test]
    fn power_spectrum_empty() {
        assert!(power_spectrum(&[], &[]).is_empty());
        assert!(cross_correlation_lags(&[], &[]).is_empty());
    }

    #[test]
    fn lagged_correlation_matches_naive() {
        let x: Vec<f64> = (0..32).map(|n| ((n * 5) % 11) as f64).collect();
        let y: Vec<f64> = (0..32).map(|n| ((n * 3) % 7) as f64).collect();
        let fast = cross_correlation_lags(&x, &y);
        for m in 0..32 {
            let naive: f64 = (0..32).map(|n| x[n] * y[(n + m) % 32]).sum();
            assert!(
                (fast[m] - naive).abs() < 1e-6,
                "lag {m}: {} vs {naive}",
                fast[m]
            );
        }
    }

    #[test]
    fn lagged_correlation_peaks_at_shift() {
        // y is x circularly shifted by 5: the correlation peaks at lag 5.
        let x: Vec<f64> = (0..64)
            .map(|n| (2.0 * std::f64::consts::PI * n as f64 / 64.0).sin() + 2.0)
            .collect();
        let y: Vec<f64> = (0..64).map(|n| x[(n + 5) % 64]).collect();
        let r = cross_correlation_lags(&x, &y);
        let peak = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        // x correlates with y at the lag that undoes the shift.
        assert_eq!(peak, 64 - 5, "peak at {peak}");
    }

    #[test]
    #[should_panic(expected = "summaries must describe equal-length signals")]
    fn mismatched_lengths_panic() {
        let a = SpectralSummary::from_signal(&[1.0, 2.0, 3.0, 4.0], 2);
        let b = SpectralSummary::from_signal(&[1.0, 2.0], 2);
        let _ = a.correlation(&b);
    }
}
