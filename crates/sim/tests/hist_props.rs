//! [`Histogram`] against a reference model that keeps its buckets in a
//! `BTreeMap` — the sparse layout the dense `Vec` replaced. Recording,
//! merging, `clone_from` over any prior contents, the bucket listing,
//! quantiles and what a report's JSON says of the histogram must all agree.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::{Histogram, JsonValue, Report};

/// The reference: sparse buckets keyed by bit length, plus the running
/// statistics.
#[derive(Clone, Default)]
struct Model {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Model {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            (self.min, self.max) = (value, value);
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(64 - value.leading_zeros()).or_insert(0) += 1;
    }

    fn merge(&mut self, other: &Model) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            (self.min, self.max) = (other.min, other.max);
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// Upper bound of the bucket holding the rank-`ceil(q * count)`
    /// observation, clamped to `[min, max]`.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let high = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

fn build(values: &[u64]) -> (Histogram, Model) {
    let mut h = Histogram::new();
    let mut m = Model::default();
    for &v in values {
        h.record(v);
        m.record(v);
    }
    (h, m)
}

fn agree(h: &Histogram, m: &Model) -> TestCaseResult {
    let listed: Vec<(u32, u64)> = h.buckets().collect();
    let want: Vec<(u32, u64)> = m.buckets.iter().map(|(&b, &n)| (b, n)).collect();
    prop_assert_eq!(listed, want);
    prop_assert_eq!(
        (h.count(), h.sum(), h.min(), h.max()),
        (m.count, m.sum, m.min, m.max)
    );
    for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
        prop_assert_eq!(h.quantile(q), m.quantile(q), "q = {}", q);
    }
    Ok(())
}

/// Values spread over every bucket: a bit length, then random low bits.
fn value() -> impl Strategy<Value = u64> {
    (0u32..65, any::<u64>()).prop_map(|(bits, low)| match bits {
        0 => 0,
        b => (1u64 << (b - 1)) | low.checked_shr(65 - b).unwrap_or(0),
    })
}

proptest! {
    #[test]
    fn dense_histogram_matches_the_sparse_model(
        a in vec(value(), 0..40),
        b in vec(value(), 0..40),
        prior in vec(value(), 0..40),
    ) {
        let (ha, ma) = build(&a);
        let (hb, mb) = build(&b);
        agree(&ha, &ma)?;
        agree(&hb, &mb)?;

        // Merging in either order equals recording both streams.
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut model = ma.clone();
        model.merge(&mb);
        agree(&merged, &model)?;
        let mut reverse = hb.clone();
        reverse.merge(&ha);
        prop_assert_eq!(&reverse, &merged);
        let (whole, _) = build(&[&a[..], &b[..]].concat());
        prop_assert_eq!(&whole, &merged);

        // `clone_from` replaces whatever was there, longer or shorter.
        let (mut over, _) = build(&prior);
        over.clone_from(&merged);
        prop_assert_eq!(&over, &merged);
        agree(&over, &model)?;
        let (mut under, _) = build(&prior);
        let (shorter, short_model) = build(&a[..a.len() / 2]);
        under.clone_from(&shorter);
        agree(&under, &short_model)?;

        // A report's JSON states the model's statistics and buckets (and
        // leaves out a histogram nothing was recorded in).
        let mut report = Report::new();
        report.record_hist("h", &merged);
        let root = JsonValue::parse(&report.to_json()).expect("own JSON parses");
        let written = root.as_obj().and_then(|r| r.get("hists")?.as_obj()?.get("h"));
        prop_assert_eq!(written.is_some(), !merged.is_empty());
        if let Some(JsonValue::Obj(h)) = written {
            let num = |name: &str| h.get(name).and_then(JsonValue::as_num);
            prop_assert_eq!(
                (num("count"), num("sum"), num("min"), num("max")),
                (Some(model.count), Some(model.sum), Some(model.min), Some(model.max))
            );
            let buckets: BTreeMap<u32, u64> = h["buckets"]
                .as_obj()
                .expect("buckets are an object")
                .iter()
                .map(|(b, n)| (b.parse().expect("a bucket index"), n.as_num().expect("a count")))
                .collect();
            prop_assert_eq!(&buckets, &model.buckets);
        }
    }
}
