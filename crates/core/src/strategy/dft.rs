//! The DFT-family summary (Sections 5.2–5.3, Fig. 7).
//!
//! Each node incrementally maintains the DFT coefficient prefix of its two
//! windows' join-attribute distributions ([`PointDft`]) and gossips the
//! prefix to peers — piggy-backed on tuple messages where possible,
//! standalone when overdue. From the local and remote prefixes it supplies
//! the flow filter's affinity: the cross-correlation coefficient `ρ_{i,j}`
//! (Eqn. 4).
//!
//! With `tuple_testing` enabled (**DFTT**), it additionally reconstructs
//! every remote window's attribute multiset by inverse DFT + rounding
//! (Eqn. 10) and supplies membership candidates: the sites whose
//! reconstruction shows at least one join partner for a key — the
//! `JoinEstimate`/`ChooseSite` steps of Fig. 7.

use super::plan::GRID_MAX_RETAINED;
use super::{RouterConfig, Work};
use crate::msg::{CoeffUpdate, Quantiser, SummaryPayload};
use dsj_dft::sliding::PointDft;
use dsj_dft::spectrum::{cross_moment, rho_from_moments};
use dsj_dft::{BlockGrid, Complex64, PointwiseRecon};
use dsj_stream::StreamId;
use std::sync::Arc;

/// A reconstruction bucket at or above this shows a join partner.
const HIT: f64 = 0.5;

/// Minimum absolute coefficient change worth piggy-backing on a tuple
/// message; combined with a relative component so large-magnitude bins
/// (e.g. DC) only ship when they moved materially.
const PIGGYBACK_TAU_ABS: f64 = 32.0;
/// Relative component of the piggyback threshold.
const PIGGYBACK_TAU_REL: f64 = 0.25;
/// Shrinks the piggyback scan's cheap bound just enough to absorb the
/// rounding of `hypot` and of the threshold arithmetic (a few ulps, far
/// below `1e-12`); the argument is at `most_changed`.
const PIGGYBACK_SKIP_MARGIN: f64 = 1.0 - 1e-12;

/// Summary state of the DFT (flow filtering) and DFTT (flow filtering +
/// tuple matching) algorithms.
#[derive(Debug)]
pub(super) struct DftSummary {
    domain: u32,
    /// Local window-histogram DFTs, indexed by [`StreamId::index`].
    local: [PointDft; 2],
    /// Every peer's prefix of each stream, as `planes[stream]`.
    planes: [Planes; 2],
    /// What each peer column holds of our coefficients: the dequantised
    /// values it last received.
    snapshot: Vec<[Option<Vec<Complex64>>; 2]>,
    /// Pointwise inverse DFT over every remote prefix (DFTT only):
    /// membership reads evaluate the one bucket they need, on demand.
    recon_plan: Option<PointwiseRecon>,
    /// The plan's block grid (DFTT, where it pays): membership reads
    /// evaluate only the columns whose bound reaches a hit in the key's
    /// block. Without it a read evaluates every column in one pass.
    grid: Option<Arc<BlockGrid>>,
    /// The arriving key's bucket of every column, rewritten per tuple
    /// read without a grid.
    buckets: Vec<f64>,
    /// Reconstruction and bound terms evaluated since the last
    /// [`DftSummary::take_work`].
    work: Work,
    /// Retained prefix length, clamped to the domain (matches `local`).
    retained: usize,
}

/// One stream's remote prefixes as bin-major planes, one column per peer
/// (the router's peer column): with `M` peers, bin `b` of column
/// `c` is `(re[b·M + c], im[b·M + c])`. Allocated when the stream's first
/// summary lands; a column reads as zero until its peer's first summary.
#[derive(Debug, Default)]
struct Planes {
    re: Vec<f64>,
    im: Vec<f64>,
    /// Which columns have landed.
    landed: Vec<bool>,
    /// Each column's energy over the bins `ρ` reads, `cross_moment` of
    /// the column with itself, computed when it lands.
    energy: Vec<f64>,
    /// With a grid, one bit per (block, column): block `j`'s words are
    /// `reach[j·words .. (j + 1)·words]`, `words = ⌈M / 64⌉`, and column
    /// `c`'s bit is set when its bound reaches a hit in the block.
    reach: Vec<u64>,
}

impl DftSummary {
    /// Creates the summary for `peers` peer columns over the cluster's
    /// shared twiddle tables: `forward` for both local DFTs, and `inverse`
    /// for DFTT's reconstructions (`None` selects plain DFT).
    pub fn new(
        cfg: &RouterConfig,
        peers: usize,
        forward: &Arc<[Complex64]>,
        inverse: Option<&Arc<[Complex64]>>,
        grid: Option<&Arc<BlockGrid>>,
    ) -> Self {
        let k = cfg.plan.key.retained.min(forward.len()).max(1);
        // Floating-point drift over experiment-scale update counts is
        // ~1e-11 of a count and cannot affect rounding decisions, so the
        // summaries are never recomputed exactly; the control-vector
        // trade-off itself is Table 1's iDFT column.
        let mk = || PointDft::with_twiddles(Arc::clone(forward), k);
        let recon_plan = inverse.map(|t| PointwiseRecon::with_twiddles(Arc::clone(t), k));
        let grid = grid.cloned();
        DftSummary {
            domain: cfg.plan.key.domain,
            local: [mk(), mk()],
            planes: Default::default(),
            snapshot: vec![[None, None]; peers],
            recon_plan,
            grid,
            buckets: vec![0.0; peers],
            work: Work::default(),
            retained: k,
        }
    }

    /// Applies a local window change.
    pub fn local_update(&mut self, stream: StreamId, added: u32, evicted: &[u32]) {
        let s = stream.index();
        self.local[s].add(added as usize, 1.0);
        for &e in evicted {
            self.local[s].add(e as usize, -1.0);
        }
    }

    /// The work counted since the last call, which it resets.
    pub fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    /// Number of low-frequency bins used for the correlation coefficient.
    /// Smoothing ρ to coarse resolution makes the uniform-data detector
    /// robust to sparse-window noise; the full prefix still serves
    /// reconstruction.
    const RHO_SMOOTH_BINS: usize = 16;

    /// Rewrites the entries of `row`, this node's `ρ` against each peer
    /// (column) for a tuple of `stream`, that `stale` flags, and clears
    /// their flags.
    ///
    /// Each entry is `cross_correlation_coefficient` of the two prefixes,
    /// bit for bit: the local energy is computed once per call and each
    /// column's at its landing, so a stale entry costs one cross moment.
    pub fn refresh_row(&self, stream: StreamId, stale: &mut [bool], row: &mut [Option<f64>]) {
        let k = self.retained.min(Self::RHO_SMOOTH_BINS);
        let w = self.domain as usize;
        let local = &self.local[stream.index()].coefficients()[..k];
        let local_energy = cross_moment(local, local, w);
        let planes = &self.planes[stream.opposite().index()];
        let mut remote = [Complex64::ZERO; Self::RHO_SMOOTH_BINS];
        for (col, (rho, flag)) in row.iter_mut().zip(stale).enumerate() {
            if std::mem::take(flag) {
                *rho = (planes.landed.get(col) == Some(&true)).then(|| {
                    planes.gather(col, &mut remote[..k]);
                    let sxy = cross_moment(local, &remote[..k], w);
                    rho_from_moments(sxy, local_energy, planes.energy[col])
                });
            }
        }
    }

    /// Pushes `(column, estimate)` for every peer column whose
    /// reconstructed opposite-stream window holds `key` (DFTT only), in
    /// column order. Returns whether any peer has a reconstruction at all.
    ///
    /// With a grid, only the columns whose bit is set in the key's block
    /// are evaluated, each by `eval_column`; without one, one pass over the
    /// planes evaluates the key's bucket of every column. Either way each
    /// estimate is bit for bit the one-pass value, *O(K)* per column, and a
    /// column that never landed estimates `0`. An out-of-domain key (ingest
    /// guards it, but the hot path must be panic-free regardless) has no
    /// bucket, so no hit.
    pub fn push_candidates(
        &mut self,
        stream: StreamId,
        key: u32,
        out: &mut Vec<(usize, f64)>,
    ) -> bool {
        let Some(plan) = self.recon_plan.as_ref() else {
            return false;
        };
        let planes = &self.planes[stream.opposite().index()];
        let m = planes.landed.len();
        if m == 0 {
            return false;
        }
        let idx = key as usize;
        let Some(grid) = &self.grid else {
            if plan.eval_columns(&planes.re, &planes.im, idx, &mut self.buckets) {
                self.work.recon_terms += (m * self.retained) as u64;
                let hits = self
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &est)| est >= HIT);
                out.extend(hits.map(|(col, &est)| (col, est)));
            }
            return true;
        };
        if key >= self.domain {
            return true;
        }
        let words = m.div_ceil(64);
        let start = idx / grid.block() * words;
        let mut read = 0;
        for (w, &word) in planes.reach[start..start + words].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let col = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                read += 1;
                let est = plan.eval_column(&planes.re, &planes.im, col, idx);
                if let Some(est) = est.filter(|&est| est >= HIT) {
                    out.push((col, est));
                }
            }
        }
        self.work.recon_terms += (read * self.retained) as u64;
        true
    }

    /// Ingests coefficient updates to the `stream` prefix in column `col`,
    /// dequantised at `exponent`, and marks it landed. Membership reads
    /// evaluate their bucket from the planes; what the column's landing
    /// derives is recomputed here: its energy, and with a grid its bit in
    /// every block.
    ///
    /// Returns the number of updates *dropped* because their index fell
    /// outside the retained prefix, rather than silently part-applying the
    /// payload.
    pub fn apply_summary(
        &mut self,
        col: usize,
        stream: StreamId,
        exponent: i8,
        updates: &[CoeffUpdate],
    ) -> u64 {
        let (k, m) = (self.retained, self.buckets.len());
        let q = Quantiser::at(exponent);
        let planes = &mut self.planes[stream.index()];
        if planes.landed.is_empty() {
            planes.re = vec![0.0; k * m];
            planes.im = vec![0.0; k * m];
            planes.landed = vec![false; m];
            planes.energy = vec![0.0; m];
            let words = m.div_ceil(64);
            planes.reach = vec![0; self.grid.as_ref().map_or(0, |g| g.blocks() * words)];
        }
        planes.landed[col] = true;
        let mut dropped = 0u64;
        for u in updates {
            let bin = usize::from(u.index);
            if bin < k {
                let value = q.value(*u);
                planes.re[bin * m + col] = value.re;
                planes.im[bin * m + col] = value.im;
            } else {
                dropped += 1;
            }
        }
        self.land(stream, col);
        dropped
    }

    /// Recomputes what column `col` of the `stream` planes derives: its
    /// energy, and with a grid its bit in every block, set or cleared.
    fn land(&mut self, stream: StreamId, col: usize) {
        let k = self.retained;
        let planes = &mut self.planes[stream.index()];
        let mut rho_bins = [Complex64::ZERO; Self::RHO_SMOOTH_BINS];
        let rho_bins = &mut rho_bins[..k.min(Self::RHO_SMOOTH_BINS)];
        planes.gather(col, rho_bins);
        planes.energy[col] = cross_moment(rho_bins, rho_bins, self.domain as usize);
        if let (Some(grid), Some(plan)) = (&self.grid, &self.recon_plan) {
            // A grid is built for at most `GRID_MAX_RETAINED` bins.
            let mut column = [Complex64::ZERO; GRID_MAX_RETAINED];
            planes.gather(col, &mut column[..k]);
            let words = planes.landed.len().div_ceil(64);
            let (word, bit) = (col / 64, 1u64 << (col % 64));
            // `G ≤ 8K`: `L = ⌊W/4K⌋ ≥ W/8K` whenever `L ≥ 1`.
            let mut edges = [0.0; 8 * GRID_MAX_RETAINED + 1];
            let reach = &mut planes.reach;
            plan.reach(grid, &column[..k], &mut edges, HIT, |j, hit| {
                let w = &mut reach[j * words + word];
                *w = if hit { *w | bit } else { *w & !bit };
            });
            self.work.bound_terms += (k * (grid.blocks() + 1)) as u64;
        }
    }

    /// Full refresh of both streams' coefficients for column `col`: the
    /// whole prefix on the first, afterwards every coefficient whose
    /// quantised value differs from what the peer holds.
    pub fn full_summaries(&mut self, col: usize) -> Vec<SummaryPayload> {
        // Indices travel as `u16` on the wire; config validation
        // (`RunError::RetainedTooLarge`) guarantees the prefix fits.
        debug_assert!(
            self.retained <= usize::from(u16::MAX) + 1,
            "retained prefix {} cannot be u16-index encoded",
            self.retained
        );
        // At most one payload per stream.
        let mut out = Vec::with_capacity(StreamId::BOTH.len());
        for stream in StreamId::BOTH {
            let s = stream.index();
            let cur = self.local[s].coefficients();
            let q = Quantiser::fitting(cur);
            let quantise = |(i, c): (usize, &Complex64)| q.quantise(i as u16, *c);
            let snap = &mut self.snapshot[col][s];
            let updates: Vec<CoeffUpdate> = match snap {
                Some(held) => (cur.iter().enumerate().map(quantise).zip(held))
                    .filter_map(|(u, held)| {
                        let value = q.value(u);
                        (value != *held).then(|| {
                            *held = value;
                            u
                        })
                    })
                    .collect(),
                None => {
                    let updates: Vec<CoeffUpdate> = cur.iter().enumerate().map(quantise).collect();
                    *snap = Some(updates.iter().map(|&u| q.value(u)).collect());
                    updates
                }
            };
            if !updates.is_empty() {
                out.push(SummaryPayload::Dft {
                    stream,
                    signal_len: self.domain,
                    exponent: q.exponent(),
                    updates,
                });
            }
        }
        out
    }

    /// A minimal piggyback delta: the single most-changed coefficient
    /// across both streams, when it moved past the (absolute + relative)
    /// threshold. Keeping this to one coefficient per tuple message holds
    /// the coefficient overhead at a few percent of the net data, the
    /// regime Figure 8 reports. How often one goes out is the router's
    /// call (`Router::attach`).
    ///
    /// It is quantised at the exponent a full refresh would use now, so
    /// every value a peer holds of one stream sits on the grid the next
    /// refresh compares against.
    pub fn piggyback(&mut self, col: usize) -> Vec<SummaryPayload> {
        // A stream never fully synced has no snapshot: a piggyback would
        // ship partial state.
        let prefixes = StreamId::BOTH.map(|stream| {
            let s = stream.index();
            let snap = self.snapshot[col][s].as_deref()?;
            Some((self.local[s].coefficients(), snap))
        });
        let Some((stream, i)) = most_changed(prefixes) else {
            return Vec::new();
        };
        let s = stream.index();
        let cur = self.local[s].coefficients();
        let q = Quantiser::fitting(cur);
        let update = q.quantise(i as u16, cur[i]);
        let Some(snap) = self.snapshot[col][s].as_mut() else {
            // Unreachable: `most_changed` only selects streams with a snapshot.
            return Vec::new();
        };
        snap[i] = q.value(update);
        vec![SummaryPayload::Dft {
            stream,
            signal_len: self.domain,
            exponent: q.exponent(),
            updates: vec![update],
        }]
    }
}

impl Planes {
    /// The first `out.len()` bins of column `col`.
    fn gather(&self, col: usize, out: &mut [Complex64]) {
        let m = self.landed.len();
        for (bin, c) in out.iter_mut().enumerate() {
            *c = Complex64::new(self.re[bin * m + col], self.im[bin * m + col]);
        }
    }
}

/// The coefficient a piggyback ships: over each stream's `(current,
/// snapshot)` prefixes (`None`: nothing to compare), the first of the
/// largest `delta = |cur − snap|` that passes `delta > tau`, with
/// `tau = TAU_ABS + TAU_REL·|snap|`.
///
/// Most coefficients are nowhere near `tau`, and they skip both `hypot`s:
/// with `d = cur − snap` and `s = snap`, one whose
/// `|d.re| + |d.im| ≤ (TAU_ABS + TAU_REL·max(|s.re|, |s.im|))·(1 − 1e-12)`
/// cannot pass. `hypot(a, b) ≤ |a| + |b|`; a faithful `hypot` returns at
/// most one ulp above the exact value and never less than
/// `max(|a|, |b|)`; and rounding is monotone. Together these make the
/// computed `delta` smaller than the computed `tau`, so a skipped
/// coefficient is neither selected nor `best`. Every other coefficient
/// computes `delta` and `tau` exactly as the plain scan does.
fn most_changed(prefixes: [Option<(&[Complex64], &[Complex64])>; 2]) -> Option<(StreamId, usize)> {
    let mut best: Option<(StreamId, usize, f64)> = None;
    for (stream, prefix) in StreamId::BOTH.into_iter().zip(prefixes) {
        let Some((cur, snap)) = prefix else {
            continue;
        };
        for (i, (c, s)) in cur.iter().zip(snap).enumerate() {
            let d = *c - *s;
            let bound = PIGGYBACK_TAU_ABS + PIGGYBACK_TAU_REL * s.re.abs().max(s.im.abs());
            if d.re.abs() + d.im.abs() <= bound * PIGGYBACK_SKIP_MARGIN {
                continue;
            }
            let delta = d.abs();
            let tau = PIGGYBACK_TAU_ABS + PIGGYBACK_TAU_REL * s.abs();
            if delta > tau && best.is_none_or(|(_, _, b)| delta > b) {
                best = Some((stream, i, delta));
            }
        }
    }
    best.map(|(stream, i, _)| (stream, i))
}

#[cfg(test)]
impl DftSummary {
    /// How many columns, over both streams' planes, are marked landed.
    pub(super) fn landed_columns(&self) -> usize {
        (self.planes.iter().flat_map(|p| &p.landed))
            .filter(|&&landed| landed)
            .count()
    }

    /// The `stream` prefix that landed in column `col`, copied out of the
    /// planes; `None` before that peer's first summary.
    pub(super) fn column(&self, stream: StreamId, col: usize) -> Option<Vec<Complex64>> {
        let planes = &self.planes[stream.index()];
        let m = planes.landed.len();
        (planes.landed.get(col) == Some(&true)).then(|| {
            (0..self.retained)
                .map(|bin| Complex64::new(planes.re[bin * m + col], planes.im[bin * m + col]))
                .collect()
        })
    }

    /// [`DftSummary::push_candidates`] by an independent kernel, for the
    /// reference router: each landed column's bucket is
    /// [`PointwiseRecon::eval`] over a copy of it.
    pub(super) fn push_candidates_reference(
        &self,
        stream: StreamId,
        key: u32,
        out: &mut Vec<(usize, f64)>,
    ) -> bool {
        let Some(plan) = self.recon_plan.as_ref() else {
            return false;
        };
        let mut any = false;
        for col in 0..self.snapshot.len() {
            let Some(coeffs) = self.column(stream.opposite(), col) else {
                continue;
            };
            any = true;
            let est = (key < self.domain).then(|| plan.eval(&coeffs, key as usize));
            if let Some(est) = est.filter(|&est| est >= HIT) {
                out.push((col, est));
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::super::{column_of, test_config, Algorithm, Plan, PlanKey, Router, Summary, Tables};
    use super::*;
    use dsj_dft::spectrum::cross_correlation_coefficient;
    use proptest::prelude::*;

    /// Node `me`'s summary in a two-node cluster running `algorithm`: its
    /// one peer sits in column 0.
    fn summary(algorithm: Algorithm, me: u16) -> DftSummary {
        let cfg = test_config(algorithm, me, 2);
        let Tables::Dft {
            forward,
            inverse,
            grid,
        } = &cfg.plan.tables
        else {
            panic!("{algorithm} has no DFT tables")
        };
        DftSummary::new(&cfg, 1, forward, inverse.as_ref(), grid.as_ref())
    }

    /// Fills a summary's local `stream` window with `keys`.
    fn fill(r: &mut DftSummary, stream: StreamId, keys: &[u32]) {
        for &k in keys {
            r.local_update(stream, k, &[]);
        }
    }

    /// Applies a DFT payload to `dst`'s column `col`, as the router does.
    fn apply(dst: &mut DftSummary, col: usize, payload: &SummaryPayload) -> u64 {
        let SummaryPayload::Dft {
            stream,
            exponent,
            updates,
            ..
        } = payload
        else {
            panic!("expected DFT payload")
        };
        dst.apply_summary(col, *stream, *exponent, updates)
    }

    /// Wires `src`'s summaries into `dst`, two nodes of a two-node
    /// cluster, as if exchanged over the network.
    fn exchange(src: &mut DftSummary, dst: &mut DftSummary) {
        for p in src.full_summaries(0) {
            apply(dst, 0, &p);
        }
    }

    /// One reconstruction bucket through the production read path: the
    /// key's bucket of every column of `stream`'s planes, evaluated as
    /// `push_candidates` does, read at column `col`.
    fn recon_bucket(r: &mut DftSummary, col: usize, stream: StreamId, key: u32) -> Option<f64> {
        let plan = r.recon_plan.as_ref()?;
        let planes = &r.planes[stream.index()];
        let landed = planes.landed[col];
        (landed && plan.eval_columns(&planes.re, &planes.im, key as usize, &mut r.buckets))
            .then(|| r.buckets[col])
    }

    /// The piggyback scan as it reads without the prefilter: both `hypot`s
    /// on every coefficient.
    fn most_changed_oracle(
        prefixes: [Option<(&[Complex64], &[Complex64])>; 2],
    ) -> Option<(StreamId, usize)> {
        let mut best: Option<(StreamId, usize, f64)> = None;
        for (stream, prefix) in StreamId::BOTH.into_iter().zip(prefixes) {
            let Some((cur, snap)) = prefix else {
                continue;
            };
            for (i, c) in cur.iter().enumerate() {
                let delta = (*c - snap[i]).abs();
                let tau = PIGGYBACK_TAU_ABS + PIGGYBACK_TAU_REL * snap[i].abs();
                if delta > tau && best.is_none_or(|(_, _, d)| delta > d) {
                    best = Some((stream, i, delta));
                }
            }
        }
        best.map(|(stream, i, _)| (stream, i))
    }

    /// The bit patterns of a prefix, for exact comparison.
    fn bits(prefix: &[Complex64]) -> Vec<(u64, u64)> {
        (prefix.iter())
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    /// `x` moved by `ulps` units in the last place (positive `x` only).
    fn nudge(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// One `(current, snapshot)` pair from a generated recipe. The kinds
    /// force the cases the prefilter's bound has to get right: zero
    /// components, large DC snapshots, deltas a few ulps either side of
    /// `tau` (axis-aligned or not, against axis-aligned or skewed
    /// snapshots), an exact copy of an earlier bin (a tie), and anything.
    fn recipe_bin(
        (kind, a, b, ulps): (u8, f64, f64, i64),
        tie: (Complex64, Complex64),
    ) -> (Complex64, Complex64) {
        match kind {
            0 => {
                let snap = Complex64::new(if a < 0.5 { 0.0 } else { 100.0 * a }, 0.0);
                let d = if b < 0.0 {
                    Complex64::new(0.0, 80.0 * b)
                } else {
                    Complex64::new(80.0 * b, 0.0)
                };
                (snap + d, snap)
            }
            1 => {
                let snap = Complex64::new(1e6 * (1.0 + a), 0.0);
                (snap + Complex64::new(4e5 * b, 50.0 * a), snap)
            }
            2 => {
                let snap = if ulps % 2 == 0 {
                    Complex64::new(400.0 * a, 0.0)
                } else {
                    Complex64::new(400.0 * a, 300.0 * b)
                };
                let tau = PIGGYBACK_TAU_ABS + PIGGYBACK_TAU_REL * snap.abs();
                let m = nudge(tau, ulps);
                let d = if a < 0.5 {
                    Complex64::new(m, 0.0)
                } else {
                    Complex64::cis(std::f64::consts::PI * b).scale(m)
                };
                // `cur − snap` rounds back to `d` or to within an ulp of it.
                (snap + d, snap)
            }
            3 => tie,
            _ => {
                let snap = Complex64::new(200.0 * a - 100.0, 200.0 * b);
                (snap + Complex64::new(90.0 * b, 90.0 * a - 45.0), snap)
            }
        }
    }

    /// Node 0's DFTT summary with `peers` columns over `domain` keys and
    /// `retained` bins, on its plan's block grid.
    fn grid_summary(domain: u32, retained: usize, peers: usize) -> DftSummary {
        let mut cfg = test_config(Algorithm::Dftt, 0, peers as u16 + 1);
        cfg.plan = Arc::new(Plan::new(PlanKey {
            algorithm: Algorithm::Dftt,
            domain,
            retained,
            window: 64,
            seed: 7,
        }));
        let Tables::Dft {
            forward,
            inverse,
            grid: Some(grid),
        } = &cfg.plan.tables
        else {
            panic!("W = {domain}, K = {retained} builds a grid")
        };
        DftSummary::new(&cfg, peers, forward, inverse.as_ref(), Some(grid))
    }

    /// Writes `values` (bin, re, im) into column `col` of the S planes, as
    /// a landing that bypasses quantisation, and lands it.
    fn land_raw(d: &mut DftSummary, col: usize, values: &[(usize, f64, f64)]) {
        apply(d, col, &dft_payload(0, &[]));
        let planes = &mut d.planes[StreamId::S.index()];
        let m = planes.landed.len();
        for &(bin, re, im) in values {
            planes.re[bin * m + col] = re;
            planes.im[bin * m + col] = im;
        }
        d.land(StreamId::S, col);
    }

    /// A DFT payload for stream S.
    fn dft_payload(exponent: i8, updates: &[(u16, i16, i16)]) -> SummaryPayload {
        SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 0,
            exponent,
            updates: (updates.iter())
                .map(|&(index, re, im)| CoeffUpdate { index, re, im })
                .collect(),
        }
    }

    /// One generated landing on column `col` of a `w`-key, `k`-bin summary.
    /// Kinds: quantised random bins, some past the prefix (dropped); the
    /// column's bins again at a quarter (its values fall); a DC within a
    /// few ulps of a hit with bins of rounding size; a smooth bump centred
    /// near the last keys, so that the last (short) block and the wrap to
    /// key 0 decide.
    fn landing(d: &mut DftSummary, w: usize, k: usize, col: usize, recipe: &Landing) {
        let (kind, exponent, ref mantissas, (a, b), ulps) = *recipe;
        match kind {
            0 => {
                let updates: Vec<(u16, i16, i16)> = (mantissas.iter().enumerate())
                    .map(|(i, &(re, im))| (((i * 7) % (k + 2)) as u16, re, im))
                    .collect();
                apply(d, col, &dft_payload(exponent, &updates));
            }
            1 => {
                let planes = &d.planes[StreamId::S.index()];
                let values: Vec<(usize, f64, f64)> = match planes.landed.get(col) {
                    Some(true) => {
                        let m = planes.landed.len();
                        (0..k)
                            .map(|b| {
                                (
                                    b,
                                    planes.re[b * m + col] / 4.0,
                                    planes.im[b * m + col] / 4.0,
                                )
                            })
                            .collect()
                    }
                    _ => Vec::new(),
                };
                land_raw(d, col, &values);
            }
            2 => {
                let dc = nudge(0.5 * w as f64, ulps);
                let tiny = |x: i16| f64::from(x) * w as f64 * 1e-20;
                let values: Vec<(usize, f64, f64)> = std::iter::once((0, dc, 0.0))
                    .chain(
                        (mantissas.iter().enumerate().skip(1).take(k - 1))
                            .map(|(b, &(re, im))| (b, tiny(re), tiny(im))),
                    )
                    .collect();
                land_raw(d, col, &values);
            }
            _ => {
                let centre = w as f64 - 2.0 * (w / (4 * k)) as f64 * a * a;
                let height = w as f64 * (0.4 + 0.4 * b) / (2 * k - 1) as f64;
                let values: Vec<(usize, f64, f64)> = (0..k)
                    .map(|b| {
                        let c = Complex64::cis(
                            -2.0 * std::f64::consts::PI * b as f64 * centre / w as f64,
                        )
                        .scale(height);
                        (b, c.re, c.im)
                    })
                    .collect();
                land_raw(d, col, &values);
            }
        }
    }

    /// `(kind, exponent, mantissas, (a, b), ulps)`, read by [`landing`].
    type Landing = (u8, i8, Vec<(i16, i16)>, (f64, f64), i64);

    /// Every key's pruned read against the one-pass read of the same
    /// planes, the work it counted, and every column's bits against the
    /// landing rule applied to the planes as they stand.
    fn check_pruned(d: &mut DftSummary, w: usize, k: usize) -> Result<(), TestCaseError> {
        let m = d.buckets.len();
        let words = m.div_ceil(64);
        let plan = d.recon_plan.clone().expect("DFTT");
        let grid = Arc::clone(d.grid.as_ref().expect("grid"));
        let planes = &d.planes[StreamId::S.index()];
        let mut expect_bits = vec![0u64; planes.reach.len()];
        let mut column = vec![Complex64::ZERO; k];
        let mut edges = [0.0; 8 * GRID_MAX_RETAINED + 1];
        for col in (0..m).filter(|&c| planes.landed[c]) {
            planes.gather(col, &mut column);
            plan.reach(&grid, &column, &mut edges, HIT, |j, hit| {
                expect_bits[j * words + col / 64] |= u64::from(hit) << (col % 64);
            });
        }
        prop_assert_eq!(&planes.reach, &expect_bits);
        let (re, im) = (planes.re.clone(), planes.im.clone());
        let mut buckets = vec![0.0; m];
        for key in 0..=w {
            let mut want = Vec::new();
            if plan.eval_columns(&re, &im, key, &mut buckets) {
                want.extend(
                    (buckets.iter().enumerate())
                        .filter(|(_, &e)| e >= HIT)
                        .map(|(c, e)| (c, e.to_bits())),
                );
            }
            let mut got = Vec::new();
            d.take_work();
            prop_assert!(d.push_candidates(StreamId::R, key as u32, &mut got));
            let got: Vec<(usize, u64)> = got.iter().map(|&(c, e)| (c, e.to_bits())).collect();
            prop_assert_eq!(&got, &want, "key {}", key);
            let set: u32 = (expect_bits.get(key / grid.block() * words..))
                .filter(|_| key < w)
                .map_or(0, |b| b[..words].iter().map(|x| x.count_ones()).sum());
            prop_assert_eq!(d.take_work().recon_terms, u64::from(set) * k as u64);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pruned_reads_equal_one_pass_reads_bit_for_bit(
            w in 24usize..300,
            k_seed in 0usize..64,
            peers in 1usize..70,
            landings in prop::collection::vec(
                ((0usize..70, 0u8..4, -9i8..-3),
                 prop::collection::vec((-32000i16..32000, -32000i16..32000), 1..20),
                 (0.0f64..1.0, 0.0f64..1.0, -4i64..5)),
                1..24),
        ) {
            let k = 1 + k_seed % (w / 4).min(GRID_MAX_RETAINED);
            let mut d = grid_summary(w as u32, k, peers);
            for (i, ((col, kind, exponent), mantissas, (a, b, ulps))) in landings.into_iter().enumerate() {
                landing(&mut d, w, k, col % peers, &(kind, exponent, mantissas, (a, b), ulps));
                if i % 8 == 0 {
                    check_pruned(&mut d, w, k)?;
                }
            }
            check_pruned(&mut d, w, k)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn piggyback_scan_selects_what_hypot_everywhere_selects(
            streams in (prop::bool::ANY, prop::bool::ANY),
            tie in (0.0f64..1.0, 0.0f64..1.0),
            r in prop::collection::vec(
                (0u8..5, 0.0f64..1.0, -1.0f64..1.0, -4i64..5), 0..33),
            s in prop::collection::vec(
                (0u8..5, 0.0f64..1.0, -1.0f64..1.0, -4i64..5), 0..33),
        ) {
            // Every tie copies one pair whose delta clears `tau`, so equal
            // deltas compete for `best` and the first must win.
            let tie_snap = Complex64::new(50.0 * tie.0, -20.0);
            let tie = (tie_snap + Complex64::new(60.0 + tie.1, 40.0), tie_snap);
            let build = |recipes: &[(u8, f64, f64, i64)]| -> (Vec<Complex64>, Vec<Complex64>) {
                recipes.iter().map(|&rcp| recipe_bin(rcp, tie)).unzip()
            };
            let (r_cur, r_snap) = build(&r);
            let (s_cur, s_snap) = build(&s);
            let prefixes = [
                streams.0.then_some((&r_cur[..], &r_snap[..])),
                streams.1.then_some((&s_cur[..], &s_snap[..])),
            ];
            prop_assert_eq!(most_changed(prefixes), most_changed_oracle(prefixes));
        }
    }

    #[test]
    fn full_summary_is_delta_after_first() {
        let mut r = summary(Algorithm::Dft, 0);
        fill(&mut r, StreamId::R, &[5, 5, 5]);
        let first = r.full_summaries(0);
        // R has content, S is empty (all-zero coefficients skipped? no —
        // first sync sends everything including zeros for S).
        assert_eq!(first.len(), 2);
        let SummaryPayload::Dft { updates, .. } = &first[0] else {
            panic!("expected DFT payload")
        };
        assert_eq!(updates.len(), 32, "first sync ships the full prefix");
        // No change ⇒ no updates.
        let second = r.full_summaries(0);
        assert!(second.is_empty());
        // One more arrival ⇒ small delta.
        r.local_update(StreamId::R, 7, &[]);
        let third = r.full_summaries(0);
        assert_eq!(third.len(), 1);
        let SummaryPayload::Dft { updates, .. } = &third[0] else {
            panic!("expected DFT payload")
        };
        assert!(!updates.is_empty() && updates.len() <= 32);
    }

    #[test]
    fn piggyback_requires_prior_sync_and_big_change() {
        let mut r = summary(Algorithm::Dft, 0);
        fill(&mut r, StreamId::R, &[5; 200]);
        assert!(r.piggyback(0).is_empty(), "no snapshot yet");
        let _ = r.full_summaries(0);
        assert!(r.piggyback(0).is_empty(), "nothing changed since sync");
        fill(&mut r, StreamId::R, &[9; 200]);
        let pb = r.piggyback(0);
        assert_eq!(pb.len(), 1, "one stream changed beyond tau");
        let SummaryPayload::Dft { updates, .. } = &pb[0] else {
            panic!("expected DFT payload")
        };
        assert_eq!(updates.len(), 1, "piggyback ships a single coefficient");
    }

    #[test]
    fn out_of_range_summary_indices_are_counted_not_applied() {
        // test_config retains 32 coefficients: indices ≥ 32 are the
        // signature of a version-skewed or corrupted peer and must be
        // dropped (and reported), never silently part-applied.
        let mut r = summary(Algorithm::Dftt, 0);
        let update = |index, re, im| CoeffUpdate { index, re, im };
        let payload = SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 256,
            exponent: -1,
            updates: vec![
                update(3, 16, -4),
                update(32, 2, 2),
                update(u16::MAX, 10, 10),
            ],
        };
        let dropped = apply(&mut r, 0, &payload);
        assert_eq!(dropped, 2, "two indices fall outside the prefix");
        let planes = &r.planes[StreamId::S.index()];
        assert_eq!(planes.re.len(), 32, "planes never grow for bad indices");
        let coeffs = r.column(StreamId::S, 0).unwrap();
        assert_eq!(coeffs[3], Complex64::new(8.0, -2.0), "valid update lands");
        // The reconstruction reads exactly the valid update.
        let full = dsj_dft::CompressedDft::from_prefix(coeffs, 256).reconstruct();
        for (key, b) in (0..).zip(&full) {
            let a = recon_bucket(&mut r, 0, StreamId::S, key).unwrap();
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(
            recon_bucket(&mut r, 0, StreamId::S, 256),
            None,
            "out of domain"
        );
        // A fully in-range payload reports zero drops.
        let ok = SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 256,
            exponent: 1,
            updates: vec![update(0, 1, 0)],
        };
        assert_eq!(apply(&mut r, 0, &ok), 0);
    }

    #[test]
    fn remote_prefix_tracks_the_senders_snapshot_across_exchanges() {
        // Full summaries, deltas and piggybacks all land in the receiver's
        // prefix; after every exchange it holds exactly what the sender's
        // snapshot (updated in place after the first sync) says the peer
        // has.
        let mut n0 = summary(Algorithm::Dftt, 0);
        let mut n1 = summary(Algorithm::Dftt, 1);
        let check = |n0: &DftSummary, n1: &DftSummary| {
            let s = StreamId::S.index();
            let (Some(got), Some(sent)) = (n0.column(StreamId::S, 0), &n1.snapshot[0][s]) else {
                panic!("stream S was synced");
            };
            assert_eq!(bits(&got), bits(sent));
        };
        fill(
            &mut n1,
            StreamId::S,
            &(0..64).map(|i| 30 + i % 7).collect::<Vec<_>>(),
        );
        exchange(&mut n1, &mut n0);
        check(&n0, &n1);
        // Evictions and fresh keys produce a sparse delta on the next sync.
        fill(&mut n1, StreamId::S, &[100; 48]);
        exchange(&mut n1, &mut n0);
        check(&n0, &n1);
        // A piggyback ships a single coefficient through the same path.
        fill(&mut n1, StreamId::S, &[200; 300]);
        let piggyback = n1.piggyback(0);
        assert_eq!(piggyback.len(), 1);
        for p in piggyback {
            apply(&mut n0, 0, &p);
        }
        check(&n0, &n1);
    }

    #[test]
    fn the_sender_snapshot_is_what_both_receive_paths_hold() {
        use crate::msg::Msg;
        use crate::wire::{FrameBatch, FrameDecoder, LinkBase};
        use dsj_stream::Tuple;

        fn dft(r: &Router) -> &DftSummary {
            let Summary::Dft(d) = &r.summary else {
                panic!("DFTT keeps a DFT summary")
            };
            d
        }
        /// Hands `msg` to `wired` through the codec, in 7-byte chunks as a
        /// socket might deliver it (the TCP path), and its payloads
        /// straight to `direct` (the simnet path).
        fn deliver(msg: &Msg, wired: &mut Router, direct: &mut Router) {
            let mut batch = FrameBatch::new();
            batch.push(msg);
            assert_eq!(batch.bytes().len(), LinkBase::new().advance(msg).1);
            let mut decoder = FrameDecoder::for_sender(1);
            let mut got = Vec::new();
            for chunk in batch.bytes().chunks(7) {
                let fed = decoder.feed_decode(chunk, &mut |m| {
                    got.push(m);
                    true
                });
                assert_eq!(fed, Ok(true));
            }
            let payloads = |m: &Msg| match m {
                Msg::Tuple { piggyback, .. } => piggyback.clone(),
                Msg::Summary(payloads) => payloads.clone(),
            };
            assert_eq!(got.len(), 1);
            for p in payloads(&got[0]) {
                assert_eq!(wired.apply_summary(1, &p), 0);
            }
            for p in payloads(msg) {
                assert_eq!(direct.apply_summary(1, &p), 0);
            }
        }
        /// Both receivers hold, bit for bit, what the sender's snapshot
        /// says node 0 holds.
        fn check(sender: &Router, wired: &Router, direct: &Router) {
            for stream in StreamId::BOTH {
                let held = dft(sender).snapshot[0][stream.index()].as_deref();
                let held = held.expect("both streams were synced");
                for receiver in [wired, direct] {
                    let got = dft(receiver).column(stream, 0).expect("landed");
                    assert_eq!(bits(&got), bits(held), "{stream:?}");
                }
            }
        }

        let mut sender = Router::new(test_config(Algorithm::Dftt, 1, 2));
        let mut wired = Router::new(test_config(Algorithm::Dftt, 0, 2));
        let mut direct = Router::new(test_config(Algorithm::Dftt, 0, 2));
        // S spreads over the domain: DC is its largest coefficient by far.
        let spread = |i: u32| i * 37 % 256;
        for i in 0..400 {
            sender.local_update(StreamId::S, spread(i), &[]);
            sender.local_update(StreamId::R, 3 * i % 200, &[]);
        }
        let refresh = Msg::Summary(sender.full_summaries(0));
        deliver(&refresh, &mut wired, &mut direct);
        check(&sender, &wired, &direct);
        // A big move of S rides on a tuple as one coefficient. Each key
        // replaces one the window held, so DC stays put and the moved
        // coefficient is not the prefix's largest.
        for i in 0..60 {
            sender.local_update(StreamId::S, 200, &[spread(i)]);
        }
        let Summary::Dft(d) = &mut sender.summary else {
            unreachable!()
        };
        let piggyback = d.piggyback(0);
        let [SummaryPayload::Dft { updates, .. }] = &piggyback[..] else {
            panic!("one DFT payload: {piggyback:?}")
        };
        let [CoeffUpdate { index: moved, .. }] = updates[..] else {
            panic!("one coefficient: {updates:?}")
        };
        let tuple = Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 5, 9, 1),
            piggyback,
        };
        deliver(&tuple, &mut wired, &mut direct);
        check(&sender, &wired, &direct);
        // The next refresh ships the rest of the move: the piggyback sat on
        // the grid it compares against, so not that coefficient again.
        // Then nothing, until the window changes again.
        let refresh = sender.full_summaries(0);
        let [SummaryPayload::Dft { updates, .. }] = &refresh[..] else {
            panic!("only S moved: {refresh:?}")
        };
        assert!(updates.iter().all(|u| u.index != moved), "{moved} again");
        deliver(&Msg::Summary(refresh), &mut wired, &mut direct);
        check(&sender, &wired, &direct);
        assert_eq!(sender.full_summaries(0), []);
    }

    #[test]
    fn every_peer_lands_in_its_own_column() {
        // Node 2 of six: peers 0 and 1 sit below it and 3, 4, 5 above, so a
        // sender's column is `from − (from > me)`.
        let (me, n) = (2, 6);
        let mut node = Router::new(test_config(Algorithm::Dftt, me, n));
        for i in 0..48 {
            node.local_update(StreamId::R, 30 + i % 50, &[]);
        }
        // What each peer sent of its S window, which sits on keys of its own.
        let mut sent = Vec::new();
        for from in (0..n).filter(|&j| j != me) {
            let mut peer = Router::new(test_config(Algorithm::Dftt, from, n));
            let base = 40 * u32::from(from);
            for i in 0..40 {
                peer.local_update(StreamId::S, base + i % (3 + u32::from(from)), &[]);
            }
            for p in peer.full_summaries(column_of(from, me)) {
                if let SummaryPayload::Dft {
                    stream: StreamId::S,
                    exponent,
                    updates,
                    ..
                } = &p
                {
                    // A first sync ships every bin, in order.
                    let q = Quantiser::at(*exponent);
                    sent.push((
                        from,
                        updates.iter().map(|&u| q.value(u)).collect::<Vec<_>>(),
                    ));
                }
                assert_eq!(node.apply_summary(from, &p), 0);
            }
        }
        assert_eq!(sent.len(), 5);
        let Summary::Dft(d) = &mut node.summary else {
            panic!("DFTT keeps a DFT summary")
        };
        let plan = d.recon_plan.clone().expect("DFTT reconstructs");
        let bits = |hits: &[(usize, f64)]| -> Vec<(usize, u64)> {
            hits.iter().map(|&(j, e)| (j, e.to_bits())).collect()
        };
        for key in [0, 1, 41, 77, 121, 122, 161, 201, 255] {
            let mut out = Vec::new();
            assert!(d.push_candidates(StreamId::R, key, &mut out));
            let expect: Vec<(usize, f64)> = (sent.iter().enumerate())
                .map(|(col, (_, prefix))| (col, plan.eval(prefix, key as usize)))
                .filter(|&(_, est)| est >= 0.5)
                .collect();
            assert_eq!(bits(&out), bits(&expect), "key {key}");
            let planes = &d.planes[StreamId::S.index()];
            let mut buckets = [0.0; 5];
            assert!(plan.eval_columns(&planes.re, &planes.im, key as usize, &mut buckets));
            for (col, (from, prefix)) in sent.iter().enumerate() {
                let est = plan.eval(prefix, key as usize).to_bits();
                let column = plan.eval_column(&planes.re, &planes.im, col, key as usize);
                assert_eq!(buckets[col].to_bits(), est, "key {key} peer {from}");
                assert_eq!(column.map(f64::to_bits), Some(est), "key {key} peer {from}");
            }
        }
        // Each peer holds its own keys' estimates, in its own column.
        for (col, (from, _)) in sent.iter().enumerate() {
            let mut out = Vec::new();
            d.push_candidates(StreamId::R, 40 * u32::from(*from) + 1, &mut out);
            assert!(out.iter().any(|&(j, _)| j == col), "peer {from}: {out:?}");
        }
        let (mut stale, mut row) = (vec![true; 5], vec![None; 5]);
        d.refresh_row(StreamId::R, &mut stale, &mut row);
        assert_eq!(stale, vec![false; 5]);
        let local = &d.local[StreamId::R.index()].coefficients()[..16];
        for (rho, (from, prefix)) in row.iter().zip(&sent) {
            let expect = cross_correlation_coefficient(local, &prefix[..16], 256);
            assert_eq!(rho.map(f64::to_bits), Some(expect.to_bits()), "peer {from}");
        }
        // Peer 3 (column 2) lands a new S window between two refreshes:
        // its entry reads the new prefix at its new energy, the others
        // keep theirs.
        let mut peer = Router::new(test_config(Algorithm::Dftt, 3, n));
        for i in 0..70 {
            peer.local_update(StreamId::S, 7 + i % 11, &[]);
        }
        let mut landed = None;
        for p in peer.full_summaries(column_of(3, me)) {
            if let SummaryPayload::Dft {
                stream: StreamId::S,
                exponent,
                updates,
                ..
            } = &p
            {
                let q = Quantiser::at(*exponent);
                landed = Some(updates.iter().map(|&u| q.value(u)).collect::<Vec<_>>());
            }
            assert_eq!(apply(d, 2, &p), 0);
        }
        let landed = landed.expect("a first sync ships S");
        let before = row.clone();
        stale[2] = true;
        d.refresh_row(StreamId::R, &mut stale, &mut row);
        let local = &d.local[StreamId::R.index()].coefficients()[..16];
        let expect = cross_correlation_coefficient(local, &landed[..16], 256);
        assert_eq!(row[2].map(f64::to_bits), Some(expect.to_bits()));
        assert_ne!(row[2], before[2], "the new window correlates differently");
        for col in [0, 1, 3, 4] {
            assert_eq!(row[col], before[col], "column {col} was not stale");
        }
    }

    #[test]
    fn reconstruction_tracks_remote_window() {
        let mut n0 = summary(Algorithm::Dftt, 0);
        let mut n1 = summary(Algorithm::Dftt, 1);
        // A smooth-ish window: keys concentrated in one region.
        let keys: Vec<u32> = (0..64).map(|i| 40 + (i % 5)).collect();
        fill(&mut n1, StreamId::S, &keys);
        exchange(&mut n1, &mut n0);
        // Keys present ~12.8 times each reconstruct to large estimates.
        for k in 40..45 {
            let r = recon_bucket(&mut n0, 0, StreamId::S, k).unwrap();
            assert!(r > 0.5, "bucket {k} = {r}");
        }
    }
}
