//! DFT coefficient compression and reconstruction (Section 5.3).
//!
//! A signal of `W` integer-valued samples is summarized by its first
//! `K = ⌈W/κ⌉` DFT coefficients (the `β` prefix of Eqn. 10). Because the
//! signals of interest are real, the retained low-frequency prefix implies
//! the mirrored high bins by Hermitian symmetry (`X[W−k] = X*[k]`), so a
//! prefix of `K` complex coefficients carries the information of `2K−1`
//! bins. Reconstruction is the inverse DFT of the completed spectrum;
//! rounding to the nearest integer is *lossless* wherever the per-sample
//! deviation stays below 0.5 — equivalently, when the expected mean square
//! error is below [`crate::LOSSLESS_MSE_THRESHOLD`] (Figures 5 and 6).

use crate::complex::Complex64;
use crate::fft::Fft;
use std::fmt;

/// Error raised for invalid compression parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressionError {
    /// The compression factor was zero.
    ZeroKappa,
    /// The signal was empty.
    EmptySignal,
}

impl fmt::Display for CompressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressionError::ZeroKappa => write!(f, "compression factor must be positive"),
            CompressionError::EmptySignal => write!(f, "cannot compress an empty signal"),
        }
    }
}

impl std::error::Error for CompressionError {}

/// Which coefficients a compressed DFT retains.
///
/// Section 4 of the paper motivates compression by "discarding low-energy
/// coefficients of higher frequencies"; Eqn. 10's `β` function keeps the
/// low-frequency *prefix*. Both readings are implemented:
///
/// * [`Selection::Prefix`] — the first `K` bins (no index overhead; right
///   for smooth signals whose energy is concentrated at low frequencies).
/// * [`Selection::TopEnergy`] — the `K` highest-`|X|` bins of the half
///   spectrum (4 extra bytes per coefficient for the index; right for
///   spiky signals whose energy sits at arbitrary frequencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Keep bins `0..K`.
    Prefix,
    /// Keep the `K` largest-magnitude bins of the half spectrum.
    TopEnergy,
}

/// A compressed DFT: `K = ⌈W/κ⌉` retained coefficients of a length-`W`
/// transform of a real signal — the low-frequency prefix by default, or an
/// explicit top-energy selection (see [`Selection`]).
///
/// ```
/// use dsj_dft::CompressedDft;
///
/// // A slow sinusoid compresses essentially losslessly at κ = 4.
/// let w = 64;
/// let signal: Vec<f64> = (0..w)
///     .map(|n| (10.0 * (2.0 * std::f64::consts::PI * n as f64 / w as f64).sin()).round())
///     .collect();
/// let c = CompressedDft::from_signal(&signal, 4)?;
/// assert!(c.mse(&signal) < 0.25);
/// // Every sample is recovered exactly by rounding.
/// assert_eq!(c.stats(&signal).lossless_fraction, 1.0);
/// # Ok::<(), dsj_dft::CompressionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedDft {
    coeffs: Vec<Complex64>,
    /// Bin index per coefficient when the selection is not the prefix.
    indices: Option<Vec<u32>>,
    signal_len: usize,
}

impl CompressedDft {
    /// Compresses `signal` by keeping the first `⌈W/κ⌉` DFT coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CompressionError::ZeroKappa`] when `kappa == 0` and
    /// [`CompressionError::EmptySignal`] when `signal` is empty.
    pub fn from_signal(signal: &[f64], kappa: u32) -> Result<Self, CompressionError> {
        CompressedDft::from_signal_selected(signal, kappa, Selection::Prefix)
    }

    /// Compresses `signal` by keeping `⌈W/κ⌉` coefficients chosen per
    /// `selection`.
    ///
    /// # Errors
    ///
    /// Returns [`CompressionError::ZeroKappa`] when `kappa == 0` and
    /// [`CompressionError::EmptySignal`] when `signal` is empty.
    pub fn from_signal_selected(
        signal: &[f64],
        kappa: u32,
        selection: Selection,
    ) -> Result<Self, CompressionError> {
        if kappa == 0 {
            return Err(CompressionError::ZeroKappa);
        }
        if signal.is_empty() {
            return Err(CompressionError::EmptySignal);
        }
        let w = signal.len();
        let k = retained_for(w, kappa);
        let spec = Fft::new(w).forward_real(signal);
        match selection {
            Selection::Prefix => Ok(CompressedDft {
                coeffs: spec[..k].to_vec(),
                indices: None,
                signal_len: w,
            }),
            Selection::TopEnergy => {
                // Only the half spectrum is eligible; the mirrored bins are
                // implied by Hermitian symmetry. Selecting bin i retains
                // |X[i]|² of spectral energy — *twice* that for bins with a
                // distinct mirror — so rank by the retained (weighted)
                // energy, not raw magnitude.
                let half = w / 2 + 1;
                let weighted = |i: usize| {
                    let pairs = i != 0 && 2 * i != w;
                    spec[i].norm_sqr() * if pairs { 2.0 } else { 1.0 }
                };
                let mut order: Vec<usize> = (0..half).collect();
                order.sort_by(|&a, &b| weighted(b).total_cmp(&weighted(a)));
                let mut chosen: Vec<usize> = order.into_iter().take(k.min(half)).collect();
                chosen.sort_unstable();
                Ok(CompressedDft {
                    coeffs: chosen.iter().map(|&i| spec[i]).collect(),
                    indices: Some(chosen.into_iter().map(|i| i as u32).collect()),
                    signal_len: w,
                })
            }
        }
    }

    /// Wraps an already-computed coefficient prefix (e.g. the tracked bins
    /// of a [`crate::SlidingDft`] or [`crate::sliding::PointDft`]).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or longer than `signal_len`.
    pub fn from_prefix(coeffs: Vec<Complex64>, signal_len: usize) -> Self {
        assert!(!coeffs.is_empty(), "coefficient prefix must be non-empty");
        assert!(
            coeffs.len() <= signal_len,
            "prefix cannot exceed signal length"
        );
        CompressedDft {
            coeffs,
            indices: None,
            signal_len,
        }
    }

    /// Number of retained coefficients `K`.
    #[inline]
    pub fn retained(&self) -> usize {
        self.coeffs.len()
    }

    /// The retained coefficient prefix.
    #[inline]
    pub fn coefficients(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// Serialized size in bytes (two `f64` components per coefficient,
    /// plus a 4-byte bin index for non-prefix selections) — the quantity
    /// the paper equates across DFT, Bloom and sketch summaries.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.coeffs.len() * 16 + self.indices.as_ref().map_or(0, |ix| ix.len() * 4)
    }

    /// Reconstructs the real signal by Hermitian completion of the retained
    /// coefficients followed by an inverse DFT (Eqn. 10 with the `β`
    /// window, or its top-energy analogue).
    pub fn reconstruct(&self) -> Vec<f64> {
        let w = self.signal_len;
        let mut spec = vec![Complex64::ZERO; w];
        match &self.indices {
            None => {
                let k = self.coeffs.len();
                spec[..k].copy_from_slice(&self.coeffs);
                // Mirror bins implied by the real-signal Hermitian
                // symmetry, unless the prefix already covers them.
                for j in 1..k.min(w) {
                    let m = w - j;
                    if m >= k {
                        spec[m] = self.coeffs[j].conj();
                    }
                }
            }
            Some(indices) => {
                for (&i, &c) in indices.iter().zip(&self.coeffs) {
                    let i = i as usize;
                    spec[i] = c;
                    if i > 0 && i < w - i {
                        spec[w - i] = c.conj();
                    }
                }
            }
        }
        Fft::new(w).inverse_real(&spec)
    }

    /// Per-sample squared reconstruction errors against `original`
    /// (the series plotted in Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `original.len()` differs from the compressed signal's length.
    pub fn squared_errors(&self, original: &[f64]) -> Vec<f64> {
        assert_eq!(
            original.len(),
            self.signal_len,
            "original length must match"
        );
        self.reconstruct()
            .iter()
            .zip(original)
            .map(|(xh, x)| (x - xh) * (x - xh))
            .collect()
    }

    /// Mean square error of the reconstruction against `original`
    /// (Eqn. 11 with the empirical distribution `P(n) = 1/W`).
    ///
    /// # Panics
    ///
    /// Panics if `original.len()` differs from the compressed signal's length.
    pub fn mse(&self, original: &[f64]) -> f64 {
        let se = self.squared_errors(original);
        se.iter().sum::<f64>() / se.len() as f64
    }

    /// Full reconstruction-quality statistics (Figure 6's mean ± σ and the
    /// fraction of samples recoverable by rounding).
    ///
    /// # Panics
    ///
    /// Panics if `original.len()` differs from the compressed signal's length.
    pub fn stats(&self, original: &[f64]) -> ReconstructionStats {
        let se = self.squared_errors(original);
        let n = se.len() as f64;
        let mean = se.iter().sum::<f64>() / n;
        let var = se.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
        let max = se.iter().fold(0.0_f64, |a, &b| a.max(b));
        let below = se
            .iter()
            .filter(|&&e| e < crate::LOSSLESS_MSE_THRESHOLD)
            .count();
        ReconstructionStats {
            mse: mean,
            std_dev: var.sqrt(),
            max_squared_error: max,
            lossless_fraction: below as f64 / n,
            samples: se.len(),
        }
    }
}

/// Summary statistics of a compressed reconstruction (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionStats {
    /// Mean square error `E[MSE]`.
    pub mse: f64,
    /// Standard deviation of the per-sample squared errors.
    pub std_dev: f64,
    /// Largest per-sample squared error.
    pub max_squared_error: f64,
    /// Fraction of samples whose squared error is below 0.25 — i.e. the
    /// fraction recovered exactly by rounding integer data.
    pub lossless_fraction: f64,
    /// Number of samples measured.
    pub samples: usize,
}

/// Number of coefficients retained for window `w` at compression factor `κ`.
#[inline]
fn retained_for(w: usize, kappa: u32) -> usize {
    w.div_ceil(kappa as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth random-walk-like integer signal (compressible).
    fn smooth_signal(n: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n);
        let mut x = 500.0_f64;
        for i in 0..n {
            // Deterministic pseudo-random steps in {-1, 0, 1}.
            let step = ((i * 2654435761) >> 13) % 3;
            x += step as f64 - 1.0;
            v.push(x.round());
        }
        v
    }

    #[test]
    fn kappa_one_is_lossless() {
        let s = smooth_signal(128);
        let c = CompressedDft::from_signal(&s, 1).unwrap();
        assert_eq!(c.retained(), 128);
        let back = c.reconstruct();
        for (a, b) in s.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn smooth_signal_lossless_after_rounding() {
        // Band-limited integer signal: all energy in bins k <= 3, so κ=8
        // (which keeps 128 of 1024 bins) drops only the rounding noise.
        let w = 1024;
        let s: Vec<f64> = (0..w)
            .map(|n| {
                let t = 2.0 * std::f64::consts::PI * n as f64 / w as f64;
                (500.0 + 100.0 * t.sin() + 20.0 * (3.0 * t).cos()).round()
            })
            .collect();
        let c = CompressedDft::from_signal(&s, 8).unwrap();
        let lossless = c.stats(&s).lossless_fraction;
        assert!(lossless > 0.99, "too many rounding mismatches: {lossless}");
    }

    #[test]
    fn higher_kappa_higher_mse() {
        let s = smooth_signal(512);
        let mut prev = -1.0;
        for kappa in [2u32, 8, 32, 128] {
            let mse = CompressedDft::from_signal(&s, kappa).unwrap().mse(&s);
            assert!(mse >= prev - 1e-12, "MSE should grow with κ");
            prev = mse;
        }
    }

    #[test]
    fn retained_counts() {
        assert_eq!(retained_for(1024, 256), 4);
        assert_eq!(retained_for(1000, 256), 4);
        assert_eq!(retained_for(4, 256), 1);
        assert_eq!(retained_for(1 << 19, 256), 2048);
    }

    #[test]
    fn stats_fields_consistent() {
        let s = smooth_signal(512);
        let stats = CompressedDft::from_signal(&s, 16).unwrap().stats(&s);
        assert_eq!(stats.samples, 512);
        assert!(stats.mse >= 0.0);
        assert!(stats.std_dev >= 0.0);
        assert!(stats.max_squared_error >= stats.mse);
        assert!((0.0..=1.0).contains(&stats.lossless_fraction));
    }

    #[test]
    fn from_prefix_round_trips() {
        let s = smooth_signal(128);
        let via_signal = CompressedDft::from_signal(&s, 4).unwrap();
        let via_prefix = CompressedDft::from_prefix(via_signal.coefficients().to_vec(), s.len());
        assert_eq!(via_signal, via_prefix);
    }

    #[test]
    fn size_bytes_matches_coefficients() {
        let s = smooth_signal(1024);
        let c = CompressedDft::from_signal(&s, 256).unwrap();
        assert_eq!(c.size_bytes(), 4 * 16);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            CompressedDft::from_signal(&[1.0], 0),
            Err(CompressionError::ZeroKappa)
        );
        assert_eq!(
            CompressedDft::from_signal(&[], 2),
            Err(CompressionError::EmptySignal)
        );
        assert!(CompressionError::ZeroKappa.to_string().contains("positive"));
    }

    #[test]
    fn top_energy_beats_prefix_on_spiky_signals() {
        // A sparse spiky "histogram": a few large values at scattered
        // positions. Its energy is spread over all frequencies, so the
        // low-frequency prefix reconstructs poorly while the top-energy
        // selection nails the dominant structure.
        let mut h = vec![0.0_f64; 256];
        for &(i, v) in &[(3usize, 40.0), (97, 35.0), (170, 50.0), (244, 30.0)] {
            h[i] = v;
        }
        let prefix = CompressedDft::from_signal_selected(&h, 8, Selection::Prefix).unwrap();
        let top = CompressedDft::from_signal_selected(&h, 8, Selection::TopEnergy).unwrap();
        assert!(
            top.mse(&h) < prefix.mse(&h),
            "top-energy {} should beat prefix {}",
            top.mse(&h),
            prefix.mse(&h)
        );
    }

    #[test]
    fn top_energy_matches_prefix_on_smooth_signals() {
        // On a low-frequency signal the top-energy bins ARE the prefix bins.
        let s = smooth_signal(256);
        let prefix = CompressedDft::from_signal_selected(&s, 16, Selection::Prefix).unwrap();
        let top = CompressedDft::from_signal_selected(&s, 16, Selection::TopEnergy).unwrap();
        assert!(top.mse(&s) <= prefix.mse(&s) + 1e-9);
    }

    #[test]
    fn top_energy_round_trips_at_full_retention() {
        let s = smooth_signal(64);
        let c = CompressedDft::from_signal_selected(&s, 1, Selection::TopEnergy).unwrap();
        // Half-spectrum coverage suffices for exact reconstruction.
        let back = c.reconstruct();
        for (a, b) in s.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn top_energy_pays_index_overhead() {
        let s = smooth_signal(256);
        let prefix = CompressedDft::from_signal_selected(&s, 16, Selection::Prefix).unwrap();
        let top = CompressedDft::from_signal_selected(&s, 16, Selection::TopEnergy).unwrap();
        assert_eq!(prefix.size_bytes(), 16 * 16);
        assert_eq!(top.size_bytes(), 16 * 16 + 16 * 4);
    }

    #[test]
    fn reconstruction_of_histogram_like_vector() {
        // A skewed histogram (Zipf-ish counts over a small domain).
        let mut h = vec![0.0_f64; 256];
        for (i, slot) in h.iter_mut().enumerate() {
            *slot = (1000.0 / (i + 1) as f64).floor();
        }
        let c = CompressedDft::from_signal(&h, 4).unwrap();
        let back = c.reconstruct();
        // Head of the histogram (large counts) must be recovered well.
        for i in 0..8 {
            let rel = (back[i] - h[i]).abs() / h[i].max(1.0);
            assert!(rel < 0.5, "bucket {i}: {} vs {}", back[i], h[i]);
        }
    }
}
