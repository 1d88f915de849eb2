//! Fixed-size log2-bucketed histogram.
//!
//! [`Hist`] is `Copy` and allocation-free so it can live inside
//! `KernelStats` (which the simulator copies around and compares with
//! `==`); it is also the snapshot type of the telemetry registry's
//! atomic histograms. 65 power-of-two buckets cover the full `u64`
//! range without clamping: bucket 0 holds the value 0 and bucket
//! `k ≥ 1` holds values in `[2^(k-1), 2^k)`.

/// Number of buckets.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Sample count per bucket (see module docs for bucket boundaries).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

/// `p50`/`p95`/`max` summary of a [`Hist`], from [`Hist::percentiles`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median estimate (bucket upper bound, capped at `max`).
    pub p50: u64,
    /// 95th-percentile estimate (bucket upper bound, capped at `max`).
    pub p95: u64,
    /// Exact largest recorded sample.
    pub max: u64,
}

/// Bucket index for a value: 0 for 0, else `1 + floor(log2(v))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive-exclusive value bounds `[lo, hi)` of bucket `idx`
/// (`hi == u64::MAX` for the top bucket, whose true bound is `2^64`).
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    match idx {
        0 => (0, 1),
        64.. => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), 1u64 << i),
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th sample, capped at `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return hi.saturating_sub(1).min(self.max).max(lo);
            }
        }
        self.max
    }

    /// The `p50`/`p95`/`max` summary used by tabular reports (host
    /// profiler thread tables, bench timing rows). Quantiles carry the
    /// same bucket-resolution caveat as [`Hist::quantile`]; `max` is the
    /// exact largest sample. All zero when empty.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
            max: self.max,
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(1 << 30), 31);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for v in [
            0u64,
            1,
            2,
            3,
            7,
            8,
            1 << 29,
            (1 << 30) + 5,
            1 << 63,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(
                v >= lo && (v < hi || hi == u64::MAX),
                "v={v} lo={lo} hi={hi}"
            );
        }
    }

    #[test]
    fn record_and_merge() {
        let mut a = Hist::new();
        for v in [0u64, 1, 1, 5, 9] {
            a.record(v);
        }
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 16);
        assert_eq!(a.max, 9);
        assert_eq!(a.buckets[0], 1); // 0
        assert_eq!(a.buckets[1], 2); // 1, 1
        assert_eq!(a.buckets[3], 1); // 5
        assert_eq!(a.buckets[4], 1); // 9

        let mut b = Hist::new();
        b.record(100);
        b.merge(&a);
        assert_eq!(b.count, 6);
        assert_eq!(b.sum, 116);
        assert_eq!(b.max, 100);
        assert!((b.mean() - 116.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!(q99 <= h.max);
        assert_eq!(Hist::new().quantile(0.5), 0);
    }

    #[test]
    fn empty_hist_is_all_zeroes() {
        let h = Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max, 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.nonzero_buckets().count(), 0);
        // merging an empty histogram is the identity
        let mut a = Hist::new();
        a.record(5);
        let before = a;
        a.merge(&h);
        assert_eq!(a, before);
    }

    #[test]
    fn single_sample_every_quantile_is_that_sample_bucket() {
        for v in [0u64, 1, 7, 1024] {
            let mut h = Hist::new();
            h.record(v);
            assert!(!h.is_empty());
            assert_eq!(h.mean(), v as f64);
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                let got = h.quantile(q);
                let (lo, _) = bucket_bounds(bucket_index(v));
                // capped at max and floored at the bucket's lower bound
                assert!(got >= lo && got <= h.max.max(lo), "v={v} q={q} got={got}");
            }
            assert_eq!(h.quantile(1.0), h.quantile(0.0));
        }
    }

    #[test]
    fn samples_above_2_pow_30_keep_their_own_buckets() {
        // phase durations beyond ~1.07 s must not collapse into one
        // clamped top bucket
        let mut h = Hist::new();
        for v in [1u64 << 30, (1 << 40) + 3, 1 << 50] {
            h.record(v);
        }
        assert_eq!(h.buckets[31], 1);
        assert_eq!(h.buckets[41], 1);
        assert_eq!(h.buckets[51], 1);
        assert_eq!(h.nonzero_buckets().count(), 3);
        assert_eq!(h.quantile(0.5), (1 << 41) - 1);
        assert_eq!(h.quantile(0.99), 1 << 50);
    }

    #[test]
    fn top_bucket_percentiles_stay_finite() {
        let mut top = Hist::new();
        top.record(u64::MAX - 7);
        assert_eq!(top.buckets[HIST_BUCKETS - 1], 1);
        // estimates cap at the recorded max, not the top bucket's
        // u64::MAX upper bound
        assert_eq!(top.quantile(0.5), u64::MAX - 7);
        assert_eq!(top.percentiles().p95, u64::MAX - 7);
    }

    #[test]
    fn percentiles_empty_hist_is_all_zero() {
        assert_eq!(Hist::new().percentiles(), Percentiles::default());
    }

    #[test]
    fn percentiles_single_sample() {
        let mut h = Hist::new();
        h.record(7);
        let p = h.percentiles();
        // every quantile of a one-sample histogram is that sample's
        // bucket estimate, capped at the exact max
        assert_eq!(p.max, 7);
        assert_eq!(p.p50, 7);
        assert_eq!(p.p95, 7);

        let mut z = Hist::new();
        z.record(0);
        assert_eq!(z.percentiles(), Percentiles::default());
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Hist::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        let p = h.percentiles();
        assert!(p.p50 <= p.p95);
        assert!(p.p95 <= p.max);
        assert_eq!(p.max, 9_999);
    }

    #[test]
    fn quantile_out_of_range_is_clamped() {
        let mut h = Hist::new();
        h.record(4);
        h.record(8);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn copy_and_eq() {
        let mut a = Hist::new();
        a.record(3);
        let b = a;
        assert_eq!(a, b);
        let mut c = b;
        c.record(3);
        assert_ne!(a, c);
    }
}
