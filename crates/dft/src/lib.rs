//! Discrete Fourier transform substrate for `dsjoin`.
//!
//! This crate implements, from scratch, every piece of Fourier machinery the
//! distributed approximate-join algorithms of Kriakov, Delis and Kollios
//! (ICDCS 2007) rely on:
//!
//! * [`Complex64`] — a minimal complex-number type ([`complex`]).
//! * [`Fft`] — an iterative radix-2 Cooley–Tukey FFT planner with a Bluestein
//!   chirp-z fallback for arbitrary lengths ([`fft`]).
//! * [`dft`] — the direct *O(W²)* DFT, the ground truth the FFT is
//!   validated against.
//! * [`SlidingDft`] — the *incremental* DFT of Section 4: per-update *O(K)*
//!   coefficient maintenance with drift tracking and periodic exact
//!   recomputation governed by a [`ControlVector`].
//! * [`CompressedDft`] — prefix (`β`) coefficient compression with a factor
//!   `κ`, inverse-DFT reconstruction with rounding, and the mean-square-error
//!   analysis of Eqns. 10–12 (Figures 5 and 6).
//! * [`PointwiseRecon`] — one bucket of the inverse-DFT reconstruction,
//!   *O(K)* and allocation-free, for routers that probe one key of a
//!   peer's window estimate per tuple; [`PointwiseRecon::eval_columns`]
//!   reads one key's bucket of every peer's prefix, held as the columns of
//!   bin-major coefficient planes, in one pass, and [`BlockGrid`] bounds a
//!   prefix's reconstruction per block of keys ([`recon`]).
//! * [`spectrum`] — the cross-correlation coefficient `ρ` of Eqn. 4,
//!   computed directly from (possibly compressed) DFT coefficients.
//!
//! # Example
//!
//! ```
//! use dsj_dft::{Fft, Complex64};
//!
//! let signal: Vec<f64> = (0..8).map(|n| (n as f64).sin()).collect();
//! let spectrum = Fft::new(8).forward_real(&signal);
//! let back = Fft::new(8).inverse_real(&spectrum);
//! for (a, b) in signal.iter().zip(back.iter()) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod compress;
pub mod control;
pub mod dft;
pub mod fft;
pub mod recon;
pub mod sliding;
pub mod spectrum;

pub use complex::Complex64;
pub use compress::{CompressedDft, CompressionError, ReconstructionStats, Selection};
pub use control::ControlVector;
pub use dft::dft_direct;
pub use fft::Fft;
pub use recon::{BlockGrid, PointwiseRecon};
pub use sliding::SlidingDft;
pub use spectrum::cross_correlation_coefficient;

/// The paper's lossless-rounding threshold: if the expected mean square error
/// of a reconstruction of integer-valued data is below `0.25` (deviation
/// `< 0.5`), rounding recovers the original values exactly (Section 5.3).
pub const LOSSLESS_MSE_THRESHOLD: f64 = 0.25;
