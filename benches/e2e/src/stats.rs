//! The benchmark's own arithmetic: medians, quartiles and histogram
//! quantiles. Pure functions, unit-tested below.

/// Median, quartiles and sample count of one metric's per-repetition
/// values — what every reported number carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; an empty slice summarizes to all zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quartile_sorted(&v, 2),
            q1: quartile_sorted(&v, 1),
            q3: quartile_sorted(&v, 3),
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Quartile `i` (1, 2 or 3) of an ascending slice, by the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`, so that a spread
/// computed here equals the one computed from the printed values there.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        }
    }
}

/// The `q`-quantile of a power-of-two histogram given as ascending
/// `(inclusive upper bound, count)` buckets, where a bucket with upper
/// bound `u > 0` covers `[(u + 1) / 2, u]`. Samples are taken as spread
/// evenly inside their bucket, so the estimate is continuous in the counts
/// instead of jumping by whole microseconds; it is clamped to the observed
/// `[min, max]`.
pub fn histogram_quantile(buckets: &[(u64, u64)], min: u64, max: u64, q: f64) -> f64 {
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * count as f64;
    let mut seen = 0u64;
    for &(upper, c) in buckets {
        if c > 0 && (seen + c) as f64 >= rank {
            let lo = if upper == 0 {
                0.0
            } else {
                upper.div_ceil(2) as f64
            };
            let frac = (rank - seen as f64) / c as f64;
            let est = lo + frac * (upper as f64 - lo);
            return est.clamp(min as f64, max as f64);
        }
        seen += c;
    }
    max as f64
}

/// `(b - a) / a`: how far `b` lies from `a`, as a share of `a`.
pub fn relative_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_odd_and_even_samples() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 1.25, 3.75, 4));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]).median, 0.0);
        let one = Summary::of(&[7.5]);
        assert_eq!((one.median, one.q1, one.q3, one.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[2.0, 9.0]), 5.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 100 samples in [16, 31], 100 in [32, 63].
        let buckets = [(31, 100), (63, 100)];
        assert_eq!(histogram_quantile(&buckets, 16, 63, 0.0), 16.0);
        assert_eq!(histogram_quantile(&buckets, 16, 63, 0.25), 23.5);
        assert_eq!(histogram_quantile(&buckets, 16, 63, 0.5), 31.0);
        assert_eq!(histogram_quantile(&buckets, 16, 63, 0.75), 47.5);
        assert_eq!(histogram_quantile(&buckets, 16, 63, 1.0), 63.0);
        // Clamped to what was observed.
        assert_eq!(histogram_quantile(&buckets, 20, 40, 0.0), 20.0);
        assert_eq!(histogram_quantile(&buckets, 20, 40, 1.0), 40.0);
        assert_eq!(histogram_quantile(&[], 0, 0, 0.5), 0.0);
    }

    #[test]
    fn relative_change_is_signed_share_of_the_first() {
        assert!((relative_change(100.0, 95.0) + 0.05).abs() < 1e-12);
        assert_eq!(relative_change(0.0, 0.0), 0.0);
        assert!(relative_change(0.0, 1.0).is_infinite());
    }
}
