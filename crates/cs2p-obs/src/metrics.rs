//! Counters, gauges, and log-bucketed histograms with mergeable snapshots.
//!
//! Histograms bucket by powers of two: a sample `v > 0` lands in the
//! bucket whose exponent is `ceil(log2 v)`, i.e. the bucket with upper
//! bound `2^e` holds samples in `(2^(e-1), 2^e]`. Exponents are clamped to
//! `MIN_EXP..=MAX_EXP` (−64..=127); zero and negative samples land in the
//! dedicated `ZERO_EXP` bucket. Two snapshots of the same metric taken
//! on different threads (or processes) merge by plain addition, so
//! sharded pipelines can aggregate without precision loss.

use std::collections::BTreeMap;

/// Smallest exponent tracked: `2^-64` is far below any microsecond or
/// megabit quantity this workspace measures.
const MIN_EXP: i32 = -64;
/// Largest exponent tracked (`2^127` overflows nothing we count).
const MAX_EXP: i32 = 127;
/// Pseudo-exponent of the bucket holding zero and negative samples.
const ZERO_EXP: i32 = MIN_EXP - 1;

/// The power-of-two bucket exponent for a sample.
fn bucket_exp(v: f64) -> i32 {
    if v.is_nan() || v <= 0.0 {
        return ZERO_EXP;
    }
    if v.is_infinite() {
        return MAX_EXP;
    }
    (v.log2().ceil() as i32).clamp(MIN_EXP, MAX_EXP)
}

/// A log-bucketed histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(bucket_exp(v)).or_insert(0) += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// An immutable, serializable, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            buckets: self.buckets.iter().map(|(&e, &c)| (e, c)).collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], ordered by bucket exponent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
    /// `(bucket exponent, count)` pairs, ascending by exponent.
    pub buckets: Vec<(i32, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<i32, u64> = self.buckets.iter().copied().collect();
        for &(e, c) in &other.buckets {
            *merged.entry(e).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// A full metrics snapshot: every counter, gauge, and histogram the
/// registry has seen, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Streaming-quantile sketch snapshots.
    pub quantiles: BTreeMap<String, crate::quantile::QuantileSnapshot>,
}

impl MetricsSnapshot {
    /// Merges another snapshot into this one: counters and histograms
    /// add; for gauges and quantile snapshots the other snapshot's value
    /// wins (last writer — quantile *snapshots* carry no buckets, so they
    /// cannot be re-merged; merge live [`crate::quantile::QuantileSketch`]
    /// values instead when exact aggregation is needed).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, q) in &other.quantiles {
            self.quantiles.insert(k.clone(), *q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_exponents_follow_powers_of_two() {
        assert_eq!(bucket_exp(1.0), 0); // (0.5, 1]
        assert_eq!(bucket_exp(1.5), 1); // (1, 2]
        assert_eq!(bucket_exp(2.0), 1);
        assert_eq!(bucket_exp(2.1), 2);
        assert_eq!(bucket_exp(1000.0), 10);
        assert_eq!(bucket_exp(0.25), -2);
        assert_eq!(bucket_exp(0.0), ZERO_EXP);
        assert_eq!(bucket_exp(-3.0), ZERO_EXP);
        assert_eq!(bucket_exp(f64::NAN), ZERO_EXP);
        assert_eq!(bucket_exp(f64::INFINITY), MAX_EXP);
        assert_eq!(bucket_exp(1e-300), MIN_EXP);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 10.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 14.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean(), Some(14.0 / 3.0));
        // 3.0 -> exp 2, 1.0 -> exp 0, 10.0 -> exp 4.
        assert_eq!(s.buckets, vec![(0, 1), (2, 1), (4, 1)]);
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), None);
        let mut other = Histogram::new();
        other.observe(2.0);
        let mut merged = s.clone();
        merged.merge(&other.snapshot());
        assert_eq!(merged, other.snapshot());
        let mut back = other.snapshot();
        back.merge(&s);
        assert_eq!(back, other.snapshot());
    }

    #[test]
    fn merge_is_equivalent_to_observing_everything_in_one_histogram() {
        let xs = [0.1, 0.9, 5.0, 64.0, 64.1, 1e-3];
        let ys = [2.0, 0.9, 7.5, 1e9];
        let mut all = Histogram::new();
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for &x in &xs {
            a.observe(x);
            all.observe(x);
        }
        for &y in &ys {
            b.observe(y);
            all.observe(y);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let whole = all.snapshot();
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert_eq!(merged.buckets, whole.buckets);
        // Sums differ only by float association order.
        assert!((merged.sum - whole.sum).abs() <= 1e-9 * whole.sum.abs());
    }

    #[test]
    fn metrics_snapshot_merge_adds_counters_and_histograms() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 2);
        a.gauges.insert("g".into(), 1.0);
        let mut h = Histogram::new();
        h.observe(1.0);
        a.histograms.insert("h".into(), h.snapshot());

        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("d".into(), 1);
        b.gauges.insert("g".into(), 9.0);
        let mut h2 = Histogram::new();
        h2.observe(3.0);
        b.histograms.insert("h".into(), h2.snapshot());

        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(a.gauges["g"], 9.0);
        assert_eq!(a.histograms["h"].count, 2);
        assert_eq!(a.histograms["h"].sum, 4.0);
    }
}
