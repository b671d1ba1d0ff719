//! Wire messages, and the block-floating-point format of DFT coefficients.
//!
//! What a message costs is the codec's to say, and depends on its link:
//! [`crate::wire::LinkBase::advance`] is the encoder run into a byte
//! counter at the link's base, so the simulator's 90 kbps links charge
//! exactly the bytes a socket carries. It splits them into tuple data and
//! summary overhead (DFT coefficient updates, Bloom filters, AGMS sketches)
//! so that Figure 8's overhead-vs-net-data ratio can be reported.

use dsj_dft::Complex64;
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::{StreamId, Tuple};

/// One DFT coefficient update as the wire carries it: a bin index and a
/// mantissa pair whose value is `(re, im) · 2^exponent`, the exponent being
/// its payload's ([`SummaryPayload::Dft`]); [`Quantiser`] owns the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoeffUpdate {
    /// Coefficient (frequency bin) index.
    pub index: u16,
    /// Mantissa of the real part.
    pub re: i16,
    /// Mantissa of the imaginary part.
    pub im: i16,
}

/// The block-floating-point format of a DFT payload: every mantissa of one
/// payload shares one exponent, and a coefficient is worth
/// `mantissa · 2^exponent`, component by component.
///
/// The exponent is derived, never configured: [`Quantiser::fitting`] picks
/// the smallest at which every component it is given rounds into
/// `±32 767` (`i16::MIN` is left out, so the format is symmetric), and the
/// step `2^exponent` is as fine as 16 bits allow.
/// Scaling by a power of two is exact, so quantising, dequantising and
/// re-quantising are exact too: a dequantised value re-quantises to its
/// own mantissa, and every node that dequantises one payload holds the
/// same bits.
///
/// Rounding moves each component by at most `step / 2`. With those errors
/// modelled as independent and uniform on `±step/2` (variance
/// `step²/12`), a bucket of the Eqn. 10 reconstruction from a `K`-bin
/// prefix over a domain of `D`, `(1/D)·Σ_bin f·Re(X[bin]·e^{2πi·bin·n/D})`
/// with `f ≤ 2` (1 at DC), gains an expected squared error of at most
/// `(1 + 4(K−1))·step²/(12·D²) ≤ K·step²/(3·D²)`
/// ([`Quantiser::mse_bound`]). A window of `W` tuples has `|X[bin]| ≤ W`,
/// so the step is below `W / 16 383`: at `W = 1 024`, `D = 4 096`,
/// `K = 16` that is `1/16` and the bound about `1.2e-9`, against the
/// `E[MSE] < 0.25` under which rounding reconstructs the window exactly
/// (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiser {
    exponent: i8,
}

impl Quantiser {
    /// The largest mantissa magnitude a quantiser produces.
    const MAX_MANTISSA: i16 = i16::MAX;

    /// The finest quantiser at which every component of `values` rounds
    /// into `±32 767`: one step finer, the largest would not. All zeros fit
    /// any exponent and get the smallest, `i8::MIN`; components too small
    /// for it round to zero. Magnitudes beyond `32 767 · 2^127` (no window
    /// comes near) saturate.
    pub fn fitting(values: &[Complex64]) -> Self {
        let max = (values.iter()).fold(0.0f64, |m, c| m.max(c.re.abs()).max(c.im.abs()));
        if max == 0.0 {
            return Quantiser { exponent: i8::MIN };
        }
        // `max < 2^p` with `p` its binary exponent plus one, so every
        // component scales below `2^15` at `p − 15`, while at `p − 16` the
        // largest scales to at least `2^15`, past `MAX_MANTISSA`. Only
        // rounding up to `2^15` can push `p − 15` one further.
        let p = ((max.to_bits() >> 52) & 0x7ff) as i32 - 1022;
        let exponent = (p - 15).clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i8;
        let q = Quantiser { exponent };
        if exponent < i8::MAX && (max / q.step()).round() > f64::from(Self::MAX_MANTISSA) {
            return Quantiser {
                exponent: exponent + 1,
            };
        }
        q
    }

    /// The quantiser of a received payload's exponent.
    pub fn at(exponent: i8) -> Self {
        Quantiser { exponent }
    }

    /// The shared exponent.
    pub fn exponent(self) -> i8 {
        self.exponent
    }

    /// The value of one mantissa unit, `2^exponent`: a normal `f64` for
    /// every `i8` exponent.
    pub fn step(self) -> f64 {
        f64::from_bits(((1023 + i64::from(self.exponent)) as u64) << 52)
    }

    /// `value`'s bin `index` as the wire carries it: each component
    /// rounded to the nearest step (ties away from zero), clamped to
    /// `±32 767`.
    pub fn quantise(self, index: u16, value: Complex64) -> CoeffUpdate {
        let max = f64::from(Self::MAX_MANTISSA);
        let mantissa = |x: f64| (x / self.step()).round().clamp(-max, max) as i16;
        CoeffUpdate {
            index,
            re: mantissa(value.re),
            im: mantissa(value.im),
        }
    }

    /// The value `update` carries: finite for every mantissa and exponent.
    pub fn value(self, update: CoeffUpdate) -> Complex64 {
        let step = self.step();
        Complex64::new(f64::from(update.re) * step, f64::from(update.im) * step)
    }

    /// The documented bound on the expected squared error this step adds
    /// to one bucket of a `retained`-bin reconstruction over `domain`:
    /// `K·step²/(3·D²)`.
    pub fn mse_bound(self, domain: usize, retained: usize) -> f64 {
        let step = self.step();
        retained as f64 * step * step / (3.0 * (domain as f64).powi(2))
    }
}

/// Algorithm-specific summary content exchanged between nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryPayload {
    /// Changed DFT coefficients of one stream's window histogram.
    Dft {
        /// Which stream's window the coefficients summarize.
        stream: StreamId,
        /// Length of the summarized signal (the attribute domain).
        signal_len: u32,
        /// The exponent every update's mantissas share
        /// ([`Quantiser::at`]).
        exponent: i8,
        /// The changed coefficients.
        updates: Vec<CoeffUpdate>,
    },
    /// A full counting Bloom filter of one stream's window.
    Bloom {
        /// Which stream's window the filter summarizes.
        stream: StreamId,
        /// The filter.
        filter: CountingBloomFilter,
    },
    /// A full AGMS sketch of one stream's window.
    Sketch {
        /// Which stream's window the sketch summarizes.
        stream: StreamId,
        /// The sketch.
        sketch: AgmsSketch,
    },
}

/// A message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A forwarded tuple, optionally carrying piggy-backed summary updates
    /// (Fig. 7 line 5: coefficient changes ride on tuple messages).
    Tuple {
        /// The forwarded tuple (probe-only at the receiver; never stored).
        tuple: Tuple,
        /// Piggy-backed summary content (empty when none).
        piggyback: Vec<SummaryPayload>,
    },
    /// A standalone summary batch (sent when no tuple message has carried
    /// pending updates to a peer for too long).
    Summary(Vec<SummaryPayload>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn steps_are_the_powers_of_two_of_every_exponent() {
        for e in i8::MIN..=i8::MAX {
            assert_eq!(Quantiser::at(e).step(), 2f64.powi(i32::from(e)), "{e}");
        }
    }

    #[test]
    fn an_all_zero_prefix_takes_the_smallest_exponent_and_ships_zeros() {
        let q = Quantiser::fitting(&[Complex64::ZERO; 8]);
        assert_eq!(q, Quantiser::fitting(&[]));
        assert_eq!(q.exponent(), i8::MIN);
        let u = q.quantise(3, Complex64::ZERO);
        assert_eq!((u.re, u.im), (0, 0));
        assert_eq!(q.value(u).re.to_bits(), 0.0f64.to_bits(), "never -0.0");
    }

    #[test]
    fn a_full_windows_dc_sets_the_step() {
        // |X| ≤ W: W = 1 024 scales to 16 384 at 2^-4, to 32 768 at 2^-5.
        for (w, exponent) in [(16.0, -10), (1_024.0, -4), (65_536.0, 2)] {
            let q = Quantiser::fitting(&[Complex64::new(w, 0.0)]);
            assert_eq!(q.exponent(), exponent, "W = {w}");
        }
        // The benchmark's W = 1 024, D = 4 096, K = 16: step 1/16.
        let bound = Quantiser::fitting(&[Complex64::new(1_024.0, 0.0)]).mse_bound(4_096, 16);
        assert!((1.2e-9..1.3e-9).contains(&bound), "{bound}");
        // One past the top of the mantissa range rounds over it.
        assert_eq!(
            Quantiser::fitting(&[Complex64::new(32_767.5, 0.0)]).exponent(),
            1
        );
        assert_eq!(
            Quantiser::fitting(&[Complex64::new(0.0, -32_767.4)]).exponent(),
            0
        );
    }

    #[test]
    fn values_are_finite_at_every_extreme() {
        for e in [i8::MIN, i8::MAX] {
            for m in [i16::MIN, i16::MAX] {
                let v = Quantiser::at(e).value(CoeffUpdate {
                    index: 0,
                    re: m,
                    im: m,
                });
                assert!(v.re.is_finite() && v.im.is_finite(), "{m} at {e}");
            }
        }
    }

    /// A prefix of a window of at most `w` tuples: `|X[bin]| ≤ w`.
    fn prefix(w: f64, parts: &[(f64, f64)]) -> Vec<Complex64> {
        let scale = w / std::f64::consts::SQRT_2;
        (parts.iter())
            .map(|&(a, b)| Complex64::new(a * scale, b * scale))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_fitting_exponent_is_minimal_and_rounds_within_half_a_step(
            w in 0usize..3,
            parts in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..64),
        ) {
            let values = prefix([16.0, 1_024.0, 65_536.0][w], &parts);
            let q = Quantiser::fitting(&values);
            let max = f64::from(Quantiser::MAX_MANTISSA);
            let largest = |q: Quantiser| (values.iter())
                .map(|c| (c.re / q.step()).round().abs().max((c.im / q.step()).round().abs()))
                .fold(0.0, f64::max);
            prop_assert!(largest(q) <= max);
            if largest(q) > 0.0 {
                let finer = Quantiser::at(q.exponent() - 1);
                prop_assert!(largest(finer) > max, "one step finer still fits");
            }
            for (i, c) in values.iter().enumerate() {
                let u = q.quantise(i as u16, *c);
                let v = q.value(u);
                prop_assert!((v.re - c.re).abs() <= q.step() / 2.0);
                prop_assert!((v.im - c.im).abs() <= q.step() / 2.0);
                // A dequantised value re-quantises to its own mantissas.
                prop_assert_eq!(q.quantise(u.index, v), u);
            }
        }
    }
}
