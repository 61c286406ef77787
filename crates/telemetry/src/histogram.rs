//! A log₂-scale histogram for latency- and size-shaped measurements.
//!
//! Values spanning many orders of magnitude (execution latency in
//! nanoseconds, sync-round cost, mutation stacking depth) are bucketed by
//! their bit length: bucket `b ≥ 1` covers `[2^(b-1), 2^b - 1]`, bucket 0
//! holds exact zeros. Recording is two adds and a shift — cheap enough for
//! the fuzzing hot loop — and merging is element-wise addition, so per-shard
//! histograms fold into campaign totals at sync rounds without locks in the
//! workers.

/// Number of buckets: one for zero plus one per possible bit length.
pub const BUCKETS: usize = 65;

/// A fixed-shape log₂ histogram with a total count and saturating sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The largest value bucket `index` can hold (inclusive).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// The smallest value bucket `index` can hold (inclusive).
    pub fn bucket_lower_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the upper bound
    /// of the first bucket whose cumulative count reaches `q · count`.
    /// Returns 0 for an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= threshold {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }

    /// Folds another histogram into this one (element-wise addition).
    pub fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`
    /// pairs, in ascending bound order — the shape Prometheus histogram
    /// exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((Self::bucket_upper_bound(i), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_land_in_distinct_buckets() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn quantile_bounds_bracket_the_data() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1060);
        // p50 upper bound must cover 20 (second value) but not exceed 31
        // (the bucket holding 20 is [16, 31]).
        assert_eq!(h.quantile_upper_bound(0.5), 31);
        assert!(h.quantile_upper_bound(1.0) >= 1000);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = Histogram::new();
        for v in 0..200u64 {
            h.record(v * v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds ascend");
            assert!(pair[0].1 < pair[1].1, "counts cumulative");
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
    }
}
