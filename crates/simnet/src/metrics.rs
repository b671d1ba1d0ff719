//! Network accounting: message and byte counters plus distribution
//! summaries (message sizes, delivery latencies) kept as cheap log₂
//! histograms.

/// Number of buckets in a [`Log2Histogram`]: one per bit position of a
/// `u64`, plus bucket 0 for the value 0.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-size power-of-two histogram over `u64` samples.
///
/// Bucket `i > 0` covers `[2^(i-1), 2^i - 1]`; bucket 0 holds zeros. One
/// increment and a handful of integer ops per sample, no allocation —
/// cheap enough to sit on every simulated send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The bucket a value lands in.
    #[inline]
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < LOG2_BUCKETS, "bucket index out of range");
        if i == 0 {
            0
        } else if i == LOG2_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper_bound(i), c))
            .collect()
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), estimated by
    /// within-bucket linear interpolation, or 0 when the histogram is
    /// empty.
    ///
    /// The rank of quantile `q` over `count` samples is
    /// `ceil(q * count)` (at least 1), walked across the buckets in
    /// ascending order. Inside the bucket holding that rank, the sample
    /// values are assumed uniformly spread over the bucket's range; the
    /// interpolated estimate is additionally clamped to the observed
    /// `[min, max]`, so single-valued histograms report that value
    /// exactly at every quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The top rank is the largest observed sample — exact, not
            // interpolated.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Rank lands in bucket i: interpolate within its range.
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = Self::bucket_upper_bound(i);
                let into = (rank - seen - 1) as f64; // 0-based position in bucket
                let frac = if c == 1 { 0.0 } else { into / (c - 1) as f64 };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Counters maintained by the simulation for every send.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Total messages handed to links.
    pub messages_sent: u64,
    /// Total messages delivered to handlers.
    pub messages_delivered: u64,
    /// Messages lost in flight (lossy-link injection).
    pub messages_dropped: u64,
    /// Total bytes handed to links.
    pub bytes_sent: u64,
    /// Distribution of on-wire message sizes (bytes).
    pub msg_bytes: Log2Histogram,
    /// Distribution of send→delivery latencies (microseconds of virtual
    /// time), recorded at scheduling for messages that survive the link.
    pub delivery_latency_us: Log2Histogram,
}

impl NetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        NetMetrics::default()
    }

    /// Records a send of `bytes`.
    pub fn record_send(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        self.msg_bytes.record(bytes as u64);
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Records the scheduled in-flight latency of a message that will be
    /// delivered (queueing + transmission + propagation).
    pub fn record_latency_us(&mut self, micros: u64) {
        self.delivery_latency_us.record(micros);
    }

    /// Records an in-flight loss.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = NetMetrics::new();
        m.record_send(100);
        m.record_send(50);
        m.record_send(10);
        m.record_delivery();
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 160);
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.msg_bytes.count(), 3);
        assert_eq!(m.msg_bytes.sum(), 160);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [0u64, 1, 2, 3, 4, 100, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_000_110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        // 0 → bucket 0; 1 → (0,1]; 2,3 → (1,3]; 4 → (3,7]; 100 → (63,127].
        let buckets = h.nonzero_buckets();
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(1, 1)));
        assert!(buckets.contains(&(3, 2)));
        assert!(buckets.contains(&(7, 1)));
        assert!(buckets.contains(&(127, 1)));
        let mut other = Log2Histogram::new();
        other.record(5);
        other.merge(&h);
        assert_eq!(other.count(), 8);
        assert_eq!(other.max(), 1_000_000);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(Log2Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_upper_bound(8), 255);
        assert_eq!(Log2Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Log2Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_of_single_value_is_exact_everywhere() {
        let mut h = Log2Histogram::new();
        h.record(1000);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1000, "q={q}");
        }
    }

    #[test]
    fn quantile_walks_bucket_boundaries() {
        // 1..=8 spans buckets [1,1], [2,3], [4,7], [8,15]: the median rank
        // (ceil(0.5·8) = 4) lands on the first sample of the [4,7] bucket.
        let mut h = Log2Histogram::new();
        for v in 1..=8u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 8); // clamped to observed max
                                        // Tail quantiles saturate at the last occupied bucket's estimate,
                                        // clamped to the observed max.
        assert_eq!(h.quantile(0.999), 8);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // Three samples in the [64, 127] bucket: uniform-spread assumption
        // places ranks 1..3 at 64, 95 (midpoint, truncated) and 127 — but
        // the top estimate clamps to the observed max of 100.
        let mut h = Log2Histogram::new();
        for v in [64u64, 80, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.33), 64);
        assert_eq!(h.quantile(0.5), 95);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 3, 9, 27, 81, 243, 729, 2187, 6561] {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= last, "quantile not monotone at q={}", i as f64 / 100.0);
            last = v;
        }
        assert_eq!(h.quantile(1.0), 6561);
    }
}
