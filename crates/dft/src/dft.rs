//! The direct discrete Fourier transform.
//!
//! The direct *O(W²)* implementation is the ground truth the FFT and the
//! incremental transforms are validated against.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Direct *O(W²)* DFT: `X[k] = Σ_n x[n]·e^{-2πi·kn/W}`.
///
/// ```
/// use dsj_dft::{dft_direct, Complex64};
///
/// let x = vec![Complex64::new(1.0, 0.0); 4];
/// let spec = dft_direct(&x);
/// assert!((spec[0].re - 4.0).abs() < 1e-12);
/// ```
pub fn dft_direct(input: &[Complex64]) -> Vec<Complex64> {
    let w = input.len();
    if w == 0 {
        return Vec::new();
    }
    let base = -2.0 * PI / w as f64;
    (0..w)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (n, &x) in input.iter().enumerate() {
                // (k·n) mod W keeps the phase argument bounded for large W.
                let q = (k * n) % w;
                acc += x * Complex64::cis(base * q as f64);
            }
            acc
        })
        .collect()
}

/// Direct *O(W²)* DFT of a real signal.
pub fn dft_direct_real(input: &[f64]) -> Vec<Complex64> {
    let buf: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
    dft_direct(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    #[test]
    fn direct_and_fast_agree() {
        let x: Vec<Complex64> = (0..48)
            .map(|n| Complex64::new((n as f64).sin(), (n as f64 * 0.1).cos()))
            .collect();
        let d = dft_direct(&x);
        let f = Fft::new(x.len()).forward(&x);
        for (a, b) in d.iter().zip(&f) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn real_wrapper_matches_complex() {
        let x: Vec<f64> = (0..16).map(|n| n as f64 * 0.5).collect();
        let via_real = dft_direct_real(&x);
        let via_complex = dft_direct(
            &x.iter()
                .map(|&v| Complex64::from_real(v))
                .collect::<Vec<_>>(),
        );
        assert_eq!(via_real, via_complex);
    }

    #[test]
    fn idft_inverts_dft() {
        let x: Vec<Complex64> = (0..10)
            .map(|n| Complex64::new(n as f64, -(n as f64)))
            .collect();
        let fft = Fft::new(x.len());
        let back = fft.inverse(&fft.forward(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        assert!(dft_direct(&[]).is_empty());
    }

    #[test]
    fn dc_bin_is_signal_sum() {
        let x: Vec<Complex64> = (1..=5).map(|n| Complex64::from_real(n as f64)).collect();
        let spec = dft_direct(&x);
        assert!((spec[0].re - 15.0).abs() < 1e-12);
        assert!(spec[0].im.abs() < 1e-12);
    }
}
