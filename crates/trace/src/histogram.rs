//! Log-bucketed latency histogram.
//!
//! Latencies in this workspace span six orders of magnitude (a clear
//! backend serves a query in microseconds, a real BGV batch takes
//! seconds), so the histogram buckets by `floor(log2(nanos))`: 64
//! buckets cover every representable `u64` nanosecond count with a
//! fixed 2x relative error bound — the same power-of-two trick the
//! transform-size counters in `copse-fhe::meter` use. Recording and
//! merging are O(1)/O(64); nothing is sampled or dropped.

use std::time::Duration;

/// Number of log2 buckets: `floor(log2(u64::MAX)) + 1`.
const BUCKETS: usize = 64;

/// The bucket holding `nanos`: `floor(log2(nanos.max(1)))`.
#[inline]
fn bucket_index(nanos: u64) -> usize {
    (63 - nanos.max(1).leading_zeros()) as usize
}

/// A log2-bucketed histogram of latencies in nanoseconds.
///
/// Percentiles are reported as the **upper bound** of the bucket the
/// requested rank falls in, so a reported percentile never
/// understates the latency by more than the 2x bucket width, and the
/// sample at that rank always lies within
/// `[bucket_lo, bucket_hi]` of the reported bucket. The maximum is
/// tracked exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        // Derived `Default` stops at 32-element arrays on this
        // toolchain, so spell out the empty state.
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency sample given in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one (bucket-wise addition;
    /// associative and commutative, so per-thread histograms can be
    /// merged in any order).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded latency in nanoseconds (0 when empty).
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Sum of every recorded sample in nanoseconds (`u128`: 2^64
    /// samples of 2^64 ns each cannot overflow it).
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// The occupied buckets as `(upper_bound_nanos, count)` pairs,
    /// lowest bucket first — the shape a cumulative-bucket exposition
    /// (Prometheus `le` labels) is built from. Empty buckets are
    /// skipped; the sum of the counts is [`LatencyHistogram::count`].
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_hi(i), c))
    }

    /// Mean recorded latency in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_nanos / u128::from(self.count)) as u64
        }
    }

    /// The bucket index the `percentile`-th sample falls in (`None`
    /// when the histogram is empty). `percentile` is clamped to
    /// `[0, 100]`; the rank is `ceil(percentile/100 * count)`, floored
    /// at 1, i.e. `percentile_bucket(0)` locates the smallest sample
    /// and `percentile_bucket(100)` the largest.
    pub fn percentile_bucket(&self, percentile: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let p = percentile.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        unreachable!("rank <= count implies some bucket reaches it")
    }

    /// The `percentile`-th latency in nanoseconds, reported as the
    /// upper bound of its bucket (`None` when empty). The true sample
    /// at that rank lies in
    /// `[bucket_lo(b), bucket_hi(b)]` for the bucket `b` that
    /// [`LatencyHistogram::percentile_bucket`] reports.
    pub fn percentile_nanos(&self, percentile: f64) -> Option<u64> {
        self.percentile_bucket(percentile)
            .map(Self::bucket_hi)
            // The exact max caps the top bucket's upper bound so p100
            // never exceeds a latency that actually happened.
            .map(|hi| hi.min(self.max_nanos))
    }

    /// Median latency in nanoseconds (bucket upper bound; 0 if empty).
    pub fn p50_nanos(&self) -> u64 {
        self.percentile_nanos(50.0).unwrap_or(0)
    }

    /// 99th-percentile latency in nanoseconds (0 if empty).
    pub fn p99_nanos(&self) -> u64 {
        self.percentile_nanos(99.0).unwrap_or(0)
    }

    /// Smallest nanosecond count that lands in bucket `index`.
    pub fn bucket_lo(index: usize) -> u64 {
        assert!(index < BUCKETS, "bucket index out of range");
        // Bucket 0 holds both 0 and 1 ns (log2 floors 0 to bucket 0).
        if index == 0 {
            0
        } else {
            1u64 << index
        }
    }

    /// Largest nanosecond count that lands in bucket `index`.
    pub fn bucket_hi(index: usize) -> u64 {
        assert!(index < BUCKETS, "bucket index out of range");
        if index == BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (index + 1)) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_nanos(50.0), None);
        assert_eq!(h.p50_nanos(), 0);
        assert_eq!(h.max_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(7));
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let b = h.percentile_bucket(p).unwrap();
            assert!(LatencyHistogram::bucket_lo(b) <= 7_000);
            assert!(7_000 <= LatencyHistogram::bucket_hi(b));
        }
        assert_eq!(h.max_nanos(), 7_000);
        assert_eq!(h.mean_nanos(), 7_000);
    }

    #[test]
    fn max_caps_the_top_bucket_upper_bound() {
        let mut h = LatencyHistogram::new();
        h.record_nanos(1_025);
        // Bucket 10 spans 1024..=2047; the exact max keeps p100 honest.
        assert_eq!(h.percentile_nanos(100.0), Some(1_025));
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                LatencyHistogram::bucket_hi(i) + 1,
                LatencyHistogram::bucket_lo(i + 1),
                "bucket {i}"
            );
        }
        assert_eq!(LatencyHistogram::bucket_lo(0), 0);
        assert_eq!(LatencyHistogram::bucket_hi(BUCKETS - 1), u64::MAX);
    }

    fn from_samples(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &s in samples {
            h.record_nanos(s);
        }
        h
    }

    #[test]
    fn nonzero_buckets_cover_every_sample_in_order() {
        let mut h = LatencyHistogram::new();
        // Three buckets: 0–1 ns, 1024–2047 ns, and 4096–8191 ns.
        h.record_nanos(1);
        h.record_nanos(1_500);
        h.record_nanos(1_800);
        h.record_nanos(5_000);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2_047, 2), (8_191, 1)]);
        // The exposition invariants: ascending upper bounds, counts
        // summing to count(), every empty bucket skipped.
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(LatencyHistogram::new().nonzero_buckets().next().is_none());
    }

    #[test]
    fn sum_is_exact_and_merges_add() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.sum_nanos(), 0);
        h.record_nanos(3);
        h.record_nanos(u64::MAX);
        // Exact even where a u64 accumulator would have wrapped.
        assert_eq!(h.sum_nanos(), 3 + u128::from(u64::MAX));
        let mut other = LatencyHistogram::new();
        other.record_nanos(39);
        other.merge(&h);
        assert_eq!(other.sum_nanos(), 42 + u128::from(u64::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative(
            a in prop::collection::vec(0u64..1u64 << 40, 0..50),
            b in prop::collection::vec(0u64..1u64 << 40, 0..50),
        ) {
            let (ha, hb) = (from_samples(&a), from_samples(&b));
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative_and_counts_everything(
            a in prop::collection::vec(0u64..1u64 << 40, 0..40),
            b in prop::collection::vec(0u64..1u64 << 40, 0..40),
            c in prop::collection::vec(0u64..1u64 << 40, 0..40),
        ) {
            let (ha, hb, hc) = (from_samples(&a), from_samples(&b), from_samples(&c));
            // (a ⊔ b) ⊔ c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a ⊔ (b ⊔ c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(left.count() as usize, a.len() + b.len() + c.len());
            // Merging is the same as recording everything into one.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            prop_assert_eq!(left, from_samples(&all));
        }

        #[test]
        fn percentiles_are_monotone_in_rank(
            samples in prop::collection::vec(0u64..1u64 << 40, 1..100),
            p1 in 0u32..=100,
            p2 in 0u32..=100,
        ) {
            let h = from_samples(&samples);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = h.percentile_nanos(f64::from(lo)).unwrap();
            let b = h.percentile_nanos(f64::from(hi)).unwrap();
            prop_assert!(a <= b, "p{lo}={a} > p{hi}={b}");
        }

        #[test]
        fn rank_sample_lies_within_reported_bucket(
            samples in prop::collection::vec(0u64..1u64 << 40, 1..100),
            p in 0u32..=100,
        ) {
            let h = from_samples(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let p = f64::from(p);
            let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let actual = sorted[rank - 1];
            let bucket = h.percentile_bucket(p).unwrap();
            prop_assert!(
                LatencyHistogram::bucket_lo(bucket) <= actual
                    && actual <= LatencyHistogram::bucket_hi(bucket),
                "sample {actual} outside bucket {bucket} \
                 [{}, {}]",
                LatencyHistogram::bucket_lo(bucket),
                LatencyHistogram::bucket_hi(bucket)
            );
            // And the reported value never exceeds the exact max.
            prop_assert!(h.percentile_nanos(p).unwrap() <= h.max_nanos());
        }

        #[test]
        fn max_and_mean_are_exact(samples in prop::collection::vec(0u64..1u64 << 40, 1..100)) {
            let h = from_samples(&samples);
            prop_assert_eq!(h.max_nanos(), *samples.iter().max().unwrap());
            let mean = samples.iter().map(|&s| u128::from(s)).sum::<u128>()
                / samples.len() as u128;
            prop_assert_eq!(u128::from(h.mean_nanos()), mean);
        }
    }
}
