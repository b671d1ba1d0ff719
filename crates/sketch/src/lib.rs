//! Stream summary substrate for `dsjoin`: the two baseline summaries the
//! paper compares DFT flow filtering against (Section 6).
//!
//! * [`AgmsSketch`] — the AGMS "tug-of-war" sketch of Alon, Gibbons, Matias
//!   and Szegedy, used by the **SKCH** algorithm to estimate pairwise
//!   partition join sizes.
//! * [`CountingBloomFilter`] — a counting Bloom filter, used by the
//!   **BLOOM** algorithm for remote set-membership testing.
//! * [`hash`] — k-wise independent polynomial hash families over the
//!   Mersenne prime `2⁶¹ − 1` backing both summaries.
//!
//! Both summaries expose [`size_bytes`](AgmsSketch::size_bytes), the memory
//! their counters take, so experiments can equalize summary memory across
//! DFT coefficients, sketches and Bloom filters, as the paper does. Each holds its hash family
//! ([`AgmsHashes`], [`BloomHashes`]) by `Arc`, so summaries of one cluster
//! can share one family and a clone copies counters only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agms;
pub mod bloom;
pub mod hash;

pub use agms::{AgmsHashes, AgmsSketch};
pub use bloom::{BloomHashes, CountingBloomFilter};
pub use hash::PolyHash;
