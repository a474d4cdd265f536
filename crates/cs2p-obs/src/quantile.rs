//! Deterministic mergeable streaming quantiles.
//!
//! [`QuantileSketch`] is a fixed-grid log-bucketed sketch: each positive
//! observation lands in the bucket `floor(log2(v) * SUBS)`, i.e. [`SUBS`]
//! sub-buckets per octave, giving a relative quantile error of at most
//! `2^(1/SUBS) - 1` (≈ 4.4% at `SUBS = 16`). Non-positive and NaN values
//! land in a sentinel zero bucket so the sketch never loses observations.
//!
//! Unlike sampling sketches (GK, KLL) the grid is data-independent, so
//! **merge is exact**: merging two sketches bucket-wise yields bit-identical
//! state to observing the concatenated stream in any order. There is
//! deliberately no `sum` field — floating-point addition is not associative,
//! so a sum would break the merge ≡ sequential-observe equality that the
//! determinism normalizer relies on. Callers that need totals should pair a
//! sketch with a counter or histogram.
//!
//! No wall-clock is read anywhere in this module.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sub-buckets per octave (power of two). Higher is more precise and more
/// memory per distinct magnitude; 16 keeps worst-case relative error under 5%.
pub const SUBS: i32 = 16;

/// Smallest representable grid index (values down to `2^-64`).
const MIN_IDX: i32 = -64 * SUBS;
/// Largest representable grid index (values up to `2^64` and beyond).
const MAX_IDX: i32 = 64 * SUBS;
/// Sentinel bucket for `v <= 0` and NaN observations.
const ZERO_IDX: i32 = MIN_IDX - 1;

/// Maps a value onto the fixed log grid.
fn grid_index(v: f64) -> i32 {
    if v.is_nan() || v <= 0.0 {
        return ZERO_IDX;
    }
    if v.is_infinite() {
        return MAX_IDX;
    }
    let idx = (v.log2() * f64::from(SUBS)).floor();
    // Clamp in f64 space before casting so huge magnitudes cannot wrap.
    idx.clamp(f64::from(MIN_IDX), f64::from(MAX_IDX)) as i32
}

/// Representative value for a grid bucket (geometric midpoint).
fn bucket_value(idx: i32) -> f64 {
    if idx == ZERO_IDX {
        0.0
    } else {
        ((f64::from(idx) + 0.5) / f64::from(SUBS)).exp2()
    }
}

/// Streaming quantile sketch over a fixed logarithmic grid.
///
/// All state is integer counts plus exact min/max, so two sketches built
/// from the same multiset of observations — in any order, or via any
/// sequence of [`merge`](Self::merge) calls — are equal field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    count: u64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
}

/// An empty sketch — [`QuantileSketch::new`], not the field-wise zero: a
/// derived `Default` would start `min`/`max` at 0.0 and report `min = 0`
/// after observing only positive values.
impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }

    /// Records one observation. NaN is treated as zero (sentinel bucket).
    pub fn observe(&mut self, v: f64) {
        let key = if v.is_nan() { 0.0 } else { v };
        self.count += 1;
        if key < self.min {
            self.min = key;
        }
        if key > self.max {
            self.max = key;
        }
        *self.buckets.entry(grid_index(v)).or_insert(0) += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges another sketch into this one. Exact: the result is
    /// field-for-field equal to a sketch that observed both streams
    /// sequentially.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) by rank walk over the
    /// grid. Returns `None` on an empty sketch. The estimate is the
    /// geometric midpoint of the bucket holding rank `ceil(q * count)`,
    /// clamped into the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_value(idx).clamp(self.min, self.max));
            }
        }
        // Unreachable when counts are consistent; fall back to max.
        Some(self.max)
    }

    /// Takes an immutable point-in-time snapshot with derived p50/p90/p99.
    pub fn snapshot(&self) -> QuantileSnapshot {
        QuantileSnapshot {
            count: self.count,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Point-in-time view of a [`QuantileSketch`]: count, exact min/max, and
/// the derived p50/p90/p99 estimates. This is what `quantile` JSONL
/// records and `/ops` serialize — deliberately without the internal
/// buckets, and without a float `sum` (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantileSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact minimum observed value (0.0 when empty).
    pub min: f64,
    /// Exact maximum observed value (0.0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        let snap = s.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50, 0.0);
    }

    #[test]
    fn default_is_an_empty_sketch_not_a_zeroed_one() {
        assert_eq!(QuantileSketch::default(), QuantileSketch::new());
        let mut pos = QuantileSketch::default();
        pos.observe(3.0);
        pos.observe(5.0);
        assert_eq!((pos.snapshot().min, pos.snapshot().max), (3.0, 5.0));
        let mut neg = QuantileSketch::default();
        neg.observe(-2.0);
        assert_eq!(neg.snapshot().max, -2.0);
    }

    #[test]
    fn single_value_is_exact() {
        let mut s = QuantileSketch::new();
        s.observe(7.25);
        // min == max == 7.25, so clamping makes every quantile exact.
        assert_eq!(s.quantile(0.5), Some(7.25));
        assert_eq!(s.quantile(0.99), Some(7.25));
    }

    #[test]
    fn relative_error_bound() {
        let mut s = QuantileSketch::new();
        for i in 1..=1000 {
            s.observe(f64::from(i));
        }
        let bound = f64::from(SUBS).recip().exp2() - 1.0; // 2^(1/SUBS) - 1
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = s.quantile(q).unwrap();
            assert!(
                (est - truth).abs() / truth <= bound + 1e-9,
                "q{q}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn zeros_negatives_and_nan_are_counted() {
        let mut s = QuantileSketch::new();
        s.observe(0.0);
        s.observe(-3.0);
        s.observe(f64::NAN);
        s.observe(2.0);
        assert_eq!(s.count(), 4);
        let snap = s.snapshot();
        assert_eq!(snap.min, -3.0);
        assert_eq!(snap.max, 2.0);
        // Three of four observations are in the sentinel zero bucket, so the
        // median is the zero representative clamped to min.
        assert!(snap.p50 <= 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs = [0.5, 1.0, 2.5, 9.0, 1e-9, 1e9];
        let ys = [3.0, 0.0, 7.7, 42.0];
        let mut merged_a = QuantileSketch::new();
        let mut merged_b = QuantileSketch::new();
        let mut seq = QuantileSketch::new();
        for &x in &xs {
            merged_a.observe(x);
            seq.observe(x);
        }
        for &y in &ys {
            merged_b.observe(y);
            seq.observe(y);
        }
        merged_a.merge(&merged_b);
        assert_eq!(merged_a, seq);
        assert_eq!(merged_a.snapshot(), seq.snapshot());
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for &x in &[1.0, 2.0, 4.0] {
            a.observe(x);
        }
        for &y in &[8.0, 16.0] {
            b.observe(y);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn extreme_magnitudes_clamp_without_wrap() {
        let mut s = QuantileSketch::new();
        s.observe(f64::MIN_POSITIVE);
        s.observe(f64::MAX);
        s.observe(f64::INFINITY);
        assert_eq!(s.count(), 3);
        let snap = s.snapshot();
        assert!(snap.p99.is_finite() || snap.p99.is_infinite());
        assert!(snap.min > 0.0);
    }
}
