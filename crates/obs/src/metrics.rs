//! The log-linear histogram behind every latency distribution in the
//! workspace, with the established `merge` discipline (associative,
//! commutative, `Default` as identity) so per-member distributions fold
//! into the member-id-ordered report merge like every other stats type.

/// Sub-bucket resolution bits: each power-of-two octave is split into 16
/// linear sub-buckets, bounding the relative quantization error to 1/16
/// (≈ 6 %) at any magnitude — fine enough that p50 and p99 differ whenever
/// the distribution does (plain log₂ buckets collapse everything within a
/// 2× band). `rssd-ssd`'s `LatencyStats` is this histogram under the names
/// its reports use.
const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS;
const SUB_BUCKET_MASK: u64 = SUB_BUCKET_COUNT - 1;

/// Bucket index of `value` in the log-linear layout: values below 16 map
/// to themselves (exact), larger values to 16 sub-buckets per octave.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKET_COUNT {
        return value as usize;
    }
    let msb = 63 - u64::leading_zeros(value);
    let octave = msb - SUB_BUCKET_BITS + 1;
    let sub = (value >> (msb - SUB_BUCKET_BITS)) & SUB_BUCKET_MASK;
    ((u64::from(octave) << SUB_BUCKET_BITS) + sub) as usize
}

/// Largest value mapping to bucket `index` (inclusive).
fn bucket_upper_edge(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKET_COUNT {
        return index;
    }
    let octave = index >> SUB_BUCKET_BITS;
    let sub = index & SUB_BUCKET_MASK;
    // Lower edge plus width − 1: the top bucket's edge is `u64::MAX`, one
    // short of overflowing.
    ((SUB_BUCKET_COUNT + sub) << (octave - 1)) + ((1 << (octave - 1)) - 1)
}

/// A log-linear histogram of `u64` samples (latencies in ns, sizes in
/// bytes, ...). 16 sub-buckets per octave; exact below 16.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = if self.count == 1 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper edge of the bucket holding quantile `q` in `[0, 1]`, clamped
    /// to the recorded extremes (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_edge(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`: elementwise bucket addition plus
    /// count/sum/min/max. Associative and commutative with the empty
    /// histogram as identity (unit-tested below).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (index, &n) in other.buckets.iter().enumerate() {
            self.buckets[index] += n;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_continuous_and_monotone() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let index = bucket_index(v);
            assert!(index >= last, "index regressed at {v}");
            assert!(
                v <= bucket_upper_edge(index),
                "v={v} above its bucket edge {}",
                bucket_upper_edge(index)
            );
            last = index;
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        for v in [
            100u64,
            1_000,
            50_000,
            1_000_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let edge = bucket_upper_edge(bucket_index(v));
            assert!(
                (edge - v) as f64 / v as f64 <= 0.0625,
                "error at {v}: edge {edge}"
            );
        }
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000);
        assert!((h.mean() - 220.0).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 20 && h.quantile(0.5) <= 32);
        assert_eq!(h.quantile(1.0), 1_000);
    }

    #[test]
    fn histogram_merge_identity() {
        let mut h = Histogram::new();
        for v in 0..500u64 {
            h.record(v * 37);
        }
        let snapshot = h.clone();
        h.merge(&Histogram::default());
        assert_eq!(h, snapshot, "empty histogram must be the merge identity");
        let mut empty = Histogram::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "identity on the left too");
    }

    #[test]
    fn histogram_merge_associativity_and_commutativity() {
        let mk = |seed: u64, n: u64| {
            let mut h = Histogram::new();
            for i in 0..n {
                h.record(seed.wrapping_mul(i + 1) % 1_000_000);
            }
            h
        };
        let (a, b, c) = (mk(17, 300), mk(23, 50), mk(999, 700));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");
    }
}
