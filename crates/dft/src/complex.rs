//! A minimal double-precision complex number.
//!
//! Implemented from scratch so the workspace carries no numerics dependency;
//! only the operations the DFT machinery needs are provided.

use std::ops::{Add, AddAssign, Mul, MulAssign, Sub};

/// A complex number with `f64` components.
///
/// ```
/// use dsj_dft::Complex64;
///
/// let i = Complex64::new(0.0, 1.0);
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ` (unit phasor).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|² = re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::new(1.0, 0.0), z);
        assert_eq!(z - z, Complex64::ZERO);
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex64::new(1.5, 2.5);
        assert_eq!(z.conj().conj(), z);
        assert!((z * z.conj()).im.abs() < EPS);
        assert!(((z * z.conj()).re - z.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn abs_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn mul_by_scalar_matches_scale() {
        let z = Complex64::new(2.0, -1.0);
        assert_eq!(z * 3.0, z.scale(3.0));
    }
}
