//! Log₂-bucketed latency histograms.
//!
//! Protocol latencies in this simulator span five orders of magnitude (an L1
//! hit is a handful of cycles, a guard inv-timeout recovery is tens of
//! thousands), so fixed-width buckets are useless. A [`Histogram`] buckets
//! values by their bit length: bucket 0 holds exactly the value 0, and bucket
//! `b ≥ 1` holds `[2^(b-1), 2^b)`. Buckets are stored densely, in a `Vec`
//! indexed by bucket and grown to the highest bucket ever hit (65 entries at
//! most): recording is an index increment, and restoring a checkpoint
//! ([`crate::CloneComponent::restore_into`]) is a `Vec::clone_from`, which
//! allocates nothing once the buffer has grown. Two histograms from
//! different runs or different controllers [`merge`](Histogram::merge)
//! losslessly — the property the report pipeline relies on when it folds
//! per-component stats into one run-level [`crate::Report`]. A histogram
//! is only ever recorded or merged into; the report writes its count, sum,
//! min, max and non-empty buckets, and nothing reads them back.

use std::fmt;

/// A mergeable histogram with logarithmic (power-of-two) buckets.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Population by [`Histogram::bucket_index`]. The last entry is the
    /// highest non-empty bucket (no entry when nothing was recorded), so
    /// equal observations give equal vectors.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

crate::clone_in_place!(impl[] for Histogram { buckets, count, sum, min, max });

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value falls into: 0 for 0, else its bit length
    /// (so bucket `b ≥ 1` spans `[2^(b-1), 2^b)`; bucket 64 ends at
    /// `u64::MAX`).
    pub fn bucket_index(value: u64) -> u32 {
        64 - value.leading_zeros()
    }

    /// The `[low, high]` inclusive value range of bucket `index`.
    pub fn bucket_bounds(index: u32) -> (u64, u64) {
        match index {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            b => (1u64 << (b - 1), (1u64 << b) - 1),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let index = Self::bucket_index(value) as usize;
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket where the cumulative count crosses `q * count`, clamped to the
    /// observed `[min, max]`. Exact for the extremes, within one power of two
    /// elsewhere — plenty for latency reporting.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                let (_, high) = Self::bucket_bounds(idx);
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterates `(bucket_index, population)` over non-empty buckets, in
    /// ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0u32..)
            .zip(self.buckets.iter().copied())
            .filter(|&(_, n)| n > 0)
    }

    /// Folds another histogram into this one. Merging is lossless: the
    /// result is identical to having recorded both observation streams into
    /// a single histogram, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} min={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.min,
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_overwrites_whatever_was_there() {
        let of = |values: &[u64]| {
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            h
        };
        let shapes: [&[u64]; 4] = [&[], &[5], &[0, 5, 9, 70_000], &[3, 3, 1 << 40]];
        for from in shapes {
            for into in shapes {
                let mut h = of(into);
                h.clone_from(&of(from));
                assert_eq!(h, of(from), "{from:?} over {into:?}");
            }
        }
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for b in 0..=64u32 {
            let (low, high) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_index(low), b, "low bound of {b}");
            assert_eq!(Histogram::bucket_index(high), b, "high bound of {b}");
        }
    }

    #[test]
    fn records_track_extremes_and_mean() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), (0, 0, 0, 0));
        for v in [5, 1, 9, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 9);
        assert_eq!(h.mean(), 4);
    }

    #[test]
    fn extreme_values_zero_and_max() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates, does not wrap");
        let got: Vec<_> = h.buckets().collect();
        assert_eq!(got, vec![(0, 1), (64, 1)]);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True median is 500; the log bucket answer may be up to its bucket's
        // upper bound (511).
        assert!((500..=511).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [0, 1, 2, 77, 4096] {
            a.record(v);
            whole.record(v);
        }
        for v in [3, 900, u64::MAX] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merge in the other order too (commutative).
        let mut merged_rev = b.clone();
        merged_rev.merge(&a);
        assert_eq!(merged_rev, whole);
    }

    #[test]
    fn merge_handles_empty_and_disjoint() {
        let mut empty = Histogram::new();
        let mut low = Histogram::new();
        low.record(1);
        low.record(2);
        let mut high = Histogram::new();
        high.record(1 << 40);

        // Empty is an identity on both sides.
        let mut m = empty.clone();
        m.merge(&low);
        assert_eq!(m, low);
        empty.merge(&Histogram::new());
        assert!(empty.is_empty());

        // Disjoint bucket ranges union cleanly.
        let mut d = low.clone();
        d.merge(&high);
        assert_eq!(d.count(), 3);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 1 << 40);
        assert_eq!(d.buckets().count(), 3);
    }

    #[test]
    fn display_is_compact() {
        let mut h = Histogram::new();
        h.record(10);
        let s = h.to_string();
        assert!(s.contains("n=1") && s.contains("mean=10"), "{s}");
    }
}
