//! Request latency accounting.
//!
//! The performance experiment (E3) compares per-request latency and
//! throughput between the plain SSD and RSSD; this collector keeps a
//! log-linear histogram so million-request runs stay cheap.

use rssd_obs::Histogram;

/// Latency histogram with exact mean/min/max — `rssd-obs`'s log-linear
/// [`Histogram`] (power-of-two octaves, 16 linear sub-buckets per octave,
/// ≤ 6% quantization error on quantiles) under the names the device and
/// queue reports use.
///
/// # Examples
///
/// ```
/// use rssd_ssd::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// stats.record(1_000);
/// stats.record(2_000);
/// assert_eq!(stats.count(), 2);
/// assert!(stats.mean_ns() > 1_000.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct LatencyStats(Histogram);

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request latency in nanoseconds.
    pub fn record(&mut self, latency_ns: u64) {
        self.0.record(latency_ns);
    }

    /// Number of recorded requests.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Mean latency (ns); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        self.0.mean()
    }

    /// Minimum latency (ns); 0 when empty.
    #[cfg(test)]
    fn min_ns(&self) -> u64 {
        self.0.min()
    }

    /// Maximum latency (ns).
    #[cfg(test)]
    fn max_ns(&self) -> u64 {
        self.0.max()
    }

    /// Approximate latency at `quantile` (e.g. `0.99`), resolved to the
    /// upper edge of the containing log-linear bucket (≤ ~6% above the true
    /// quantile, never below its bucket, never past the observed extreme).
    pub fn quantile_ns(&self, quantile: f64) -> u64 {
        self.0.quantile(quantile)
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.0.merge(&other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.min_ns(), 0);
        assert_eq!(s.quantile_ns(0.5), 0);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut s = LatencyStats::new();
        s.record(100);
        s.record(300);
        assert_eq!(s.mean_ns(), 200.0);
        assert_eq!(s.min_ns(), 100);
        assert_eq!(s.max_ns(), 300);
    }

    #[test]
    fn quantile_monotone() {
        let mut s = LatencyStats::new();
        for i in 1..=1000u64 {
            s.record(i * 100);
        }
        let p50 = s.quantile_ns(0.5);
        let p99 = s.quantile_ns(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= s.quantile_ns(1.0).max(s.max_ns()));
    }

    #[test]
    fn quantile_brackets_distribution() {
        let mut s = LatencyStats::new();
        // 99 requests at ~1µs, one at ~1ms: p50 sits in the 1µs bucket,
        // p99.9+ must reach the 1ms outlier's bucket.
        for _ in 0..99 {
            s.record(1_000);
        }
        s.record(1_000_000);
        let p50 = s.quantile_ns(0.5);
        assert!((1_000..2_048).contains(&p50), "p50 bucket edge, got {p50}");
        let p100 = s.quantile_ns(1.0);
        assert!(
            p100 >= 1_000_000,
            "tail percentile sees outlier, got {p100}"
        );
        // Degenerate inputs clamp instead of panicking.
        assert_eq!(s.quantile_ns(-0.05), s.quantile_ns(0.0));
        assert!(s.quantile_ns(2.5) >= p100);
        assert_eq!(LatencyStats::new().quantile_ns(0.99), 0);
    }

    #[test]
    fn percentiles_monotone_in_p() {
        let mut s = LatencyStats::new();
        for i in 1..=10_000u64 {
            s.record(i * 37);
        }
        let ps: Vec<u64> = [0.01, 0.25, 0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&q| s.quantile_ns(q))
            .collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "{ps:?}");
        }
    }

    #[test]
    fn sub_octave_resolution_separates_p50_from_p99() {
        // 100 µs and 190 µs share a log₂ octave (2^17 = 131072 splits
        // them, but 100 000 and 120 000 do not): the old power-of-two
        // histogram reported the same edge for both and p50 == p99. The
        // log-linear buckets must keep them apart.
        let mut s = LatencyStats::new();
        for _ in 0..90 {
            s.record(100_000);
        }
        for _ in 0..10 {
            s.record(120_000);
        }
        let p50 = s.quantile_ns(0.5);
        let p99 = s.quantile_ns(0.99);
        assert!(
            p50 < p99,
            "sub-bucketing must separate them: {p50} vs {p99}"
        );
        // ≤ ~6% quantization error, conservative (upper edge).
        assert!((100_000..=107_000).contains(&p50), "{p50}");
        assert!((120_000..=128_000).contains(&p99), "{p99}");
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 10);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn zero_latency_is_representable() {
        let mut s = LatencyStats::new();
        s.record(0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.max_ns(), 0);
    }
}
