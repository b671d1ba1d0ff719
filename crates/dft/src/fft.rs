//! Fast Fourier transform: iterative radix-2 Cooley–Tukey with cached
//! twiddle factors, plus a Bluestein chirp-z fallback for arbitrary lengths.
//!
//! Conventions (matching Eqn. 2/3 of the paper, 0-indexed):
//!
//! * forward:  `X[k] = Σ_{n=0}^{W-1} x[n]·e^{-2πi·kn/W}`
//! * inverse:  `x[n] = (1/W)·Σ_{k=0}^{W-1} X[k]·e^{+2πi·kn/W}`

use crate::complex::Complex64;
use std::f64::consts::PI;

/// A reusable FFT plan for a fixed transform length.
///
/// Construction precomputes twiddle factors and the bit-reversal permutation
/// (for power-of-two lengths) so that repeated transforms of the same length
/// avoid redundant trigonometry.
///
/// ```
/// use dsj_dft::{Fft, Complex64};
///
/// let fft = Fft::new(16);
/// let x: Vec<Complex64> = (0..16).map(|n| Complex64::from_real(n as f64)).collect();
/// let spec = fft.forward(&x);
/// let back = fft.inverse(&spec);
/// assert!(x.iter().zip(&back).all(|(a, b)| (*a - *b).abs() < 1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    len: usize,
    plan: Plan,
}

#[derive(Debug, Clone)]
enum Plan {
    /// Radix-2: twiddles `e^{-2πi·k/len}` for `k < len/2`, plus bit-reversal map.
    Radix2 {
        twiddles: Vec<Complex64>,
        rev: Vec<u32>,
    },
    /// Bluestein chirp-z: embeds an arbitrary-length DFT in a power-of-two
    /// circular convolution.
    Bluestein {
        /// `e^{-πi·n²/len}` for `n < len`.
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate chirp, length `m`.
        kernel_spec: Vec<Complex64>,
        /// Inner power-of-two FFT of length `m >= 2·len - 1`.
        inner: Box<Fft>,
    },
    /// Degenerate lengths 0 and 1.
    Trivial,
}

impl Fft {
    /// Creates a plan for transforms of length `len`.
    ///
    /// Any `len` is accepted; powers of two use the radix-2 path, other
    /// lengths fall back to Bluestein's algorithm.
    pub fn new(len: usize) -> Self {
        let plan = if len <= 1 {
            Plan::Trivial
        } else if len.is_power_of_two() {
            let half = len / 2;
            let twiddles = (0..half)
                .map(|k| Complex64::cis(-2.0 * PI * k as f64 / len as f64))
                .collect();
            let bits = len.trailing_zeros();
            let rev = (0..len as u32)
                .map(|i| i.reverse_bits() >> (32 - bits))
                .collect();
            Plan::Radix2 { twiddles, rev }
        } else {
            let m = (2 * len - 1).next_power_of_two();
            let chirp: Vec<Complex64> = (0..len)
                .map(|n| {
                    // n² mod 2·len keeps the phase argument small for big n.
                    let q = (n * n) % (2 * len);
                    Complex64::cis(-PI * q as f64 / len as f64)
                })
                .collect();
            let inner = Fft::new(m);
            let mut kernel = vec![Complex64::ZERO; m];
            kernel[0] = chirp[0].conj();
            for n in 1..len {
                let c = chirp[n].conj();
                kernel[n] = c;
                kernel[m - n] = c;
            }
            let kernel_spec = inner.forward(&kernel);
            Plan::Bluestein {
                chirp,
                kernel_spec,
                inner: Box::new(inner),
            }
        };
        Fft { len, plan }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the plan length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forward DFT of a complex signal.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(input.len(), self.len, "input length must match plan");
        let mut buf = input.to_vec();
        self.forward_in_place(&mut buf);
        buf
    }

    /// Forward DFT, transforming `buf` in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward_in_place(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.len, "buffer length must match plan");
        match &self.plan {
            Plan::Trivial => {}
            Plan::Radix2 { twiddles, rev } => radix2(buf, twiddles, rev),
            Plan::Bluestein {
                chirp,
                kernel_spec,
                inner,
            } => {
                let n = self.len;
                let m = inner.len();
                let mut a = vec![Complex64::ZERO; m];
                for i in 0..n {
                    a[i] = buf[i] * chirp[i];
                }
                inner.forward_in_place(&mut a);
                for (ai, ki) in a.iter_mut().zip(kernel_spec.iter()) {
                    *ai *= *ki;
                }
                inner.inverse_in_place(&mut a);
                for i in 0..n {
                    buf[i] = a[i] * chirp[i];
                }
            }
        }
    }

    /// Inverse DFT of a complex spectrum (includes the `1/W` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn inverse(&self, input: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(input.len(), self.len, "input length must match plan");
        let mut buf = input.to_vec();
        self.inverse_in_place(&mut buf);
        buf
    }

    /// Inverse DFT in place (includes the `1/W` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse_in_place(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.len, "buffer length must match plan");
        if self.len <= 1 {
            return;
        }
        // inverse(x) = conj(forward(conj(x))) / W
        for z in buf.iter_mut() {
            *z = z.conj();
        }
        self.forward_in_place(buf);
        let scale = 1.0 / self.len as f64;
        for z in buf.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }

    /// Forward DFT of a real-valued signal.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward_real(&self, input: &[f64]) -> Vec<Complex64> {
        let buf: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
        self.forward(&buf)
    }

    /// Inverse DFT returning only real parts — appropriate for spectra of
    /// real signals (Hermitian-symmetric coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn inverse_real(&self, input: &[Complex64]) -> Vec<f64> {
        self.inverse(input).into_iter().map(|z| z.re).collect()
    }
}

/// Iterative radix-2 decimation-in-time butterfly.
fn radix2(buf: &mut [Complex64], twiddles: &[Complex64], rev: &[u32]) {
    let n = buf.len();
    for (i, &r) in rev.iter().enumerate() {
        let j = r as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut span = 1;
    while span < n {
        let stride = n / (2 * span);
        for start in (0..n).step_by(2 * span) {
            for k in 0..span {
                let w = twiddles[k * stride];
                let a = buf[start + k];
                let b = buf[start + k + span] * w;
                buf[start + k] = a + b;
                buf[start + k + span] = a - b;
            }
        }
        span *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_direct;

    fn close_vec(a: &[Complex64], b: &[Complex64], eps: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).abs() < eps)
    }

    #[test]
    fn matches_direct_dft_power_of_two() {
        let x: Vec<Complex64> = (0..32)
            .map(|n| Complex64::new((n as f64 * 0.3).sin(), (n as f64 * 0.7).cos()))
            .collect();
        let fast = Fft::new(32).forward(&x);
        let direct = dft_direct(&x);
        assert!(close_vec(&fast, &direct, 1e-9));
    }

    #[test]
    fn matches_direct_dft_non_power_of_two() {
        for n in [3usize, 5, 6, 7, 12, 15, 100] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64, (i * i % 7) as f64))
                .collect();
            let fast = Fft::new(n).forward(&x);
            let direct = dft_direct(&x);
            assert!(close_vec(&fast, &direct, 1e-7), "length {n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 4, 8, 64, 12, 31] {
            let fft = Fft::new(n);
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).cos(), (i as f64 / 3.0).sin()))
                .collect();
            let back = fft.inverse(&fft.forward(&x));
            assert!(close_vec(&x, &back, 1e-9), "length {n}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 16;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::new(1.0, 0.0);
        let spec = Fft::new(n).forward(&x);
        for z in spec {
            assert!((z - Complex64::new(1.0, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_signal_concentrates_at_dc() {
        let n = 8;
        let x = vec![Complex64::from_real(2.5); n];
        let spec = Fft::new(n).forward(&x);
        assert!((spec[0] - Complex64::from_real(2.5 * n as f64)).abs() < 1e-12);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_detected() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        let spec = Fft::new(n).forward(&x);
        assert!((spec[k0].abs() - n as f64).abs() < 1e-8);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 {
                assert!(z.abs() < 1e-8, "leak at bin {k}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 128;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((i * 37) % 11) as f64, ((i * 13) % 5) as f64))
            .collect();
        let spec = Fft::new(n).forward(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn real_helpers_round_trip() {
        let n = 16;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin() * 10.0).collect();
        let fft = Fft::new(n);
        let spec = fft.forward_real(&x);
        // Hermitian symmetry of a real signal's spectrum.
        for k in 1..n {
            assert!((spec[k] - spec[n - k].conj()).abs() < 1e-9);
        }
        let back = fft.inverse_real(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let fft = Fft::new(n);
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let y: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i % 3) as f64))
            .collect();
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft.forward(&x);
        let fy = fft.forward(&y);
        let fsum = fft.forward(&sum);
        for k in 0..n {
            assert!((fsum[k] - (fx[k] + fy[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn trivial_lengths() {
        assert!(Fft::new(0).forward(&[]).is_empty());
        let one = Fft::new(1).forward(&[Complex64::new(3.0, 4.0)]);
        assert_eq!(one, vec![Complex64::new(3.0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "input length must match plan")]
    fn length_mismatch_panics() {
        Fft::new(8).forward(&[Complex64::ZERO; 4]);
    }
}
