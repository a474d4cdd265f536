//! Descriptive statistics used throughout the CS2P pipeline.
//!
//! The paper leans on a small set of summary statistics: means (arithmetic
//! and harmonic), medians and other percentiles, the coefficient of
//! variation (Observation 1 in §3) and empirical CDFs (Figures 3, 5, 9).
//! All of them live here so the higher layers never reimplement them ad
//! hoc.
//!
//! Conventions:
//! - All functions operate on `&[f64]` slices and never mutate their input;
//!   percentile-style functions sort an internal copy.
//! - Empty-input behaviour is explicit: functions that have no meaningful
//!   value for an empty slice return `None` rather than `NaN`.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Coefficient of variation: `stddev / mean` (the "normalized stddev" of
/// Observation 1). Returns `None` for empty input or zero mean.
pub fn coefficient_of_variation(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return None;
    }
    Some(stddev(xs)? / m.abs())
}

/// Harmonic mean, the estimator behind the HM baseline [Yin et al.].
///
/// Defined only for strictly positive inputs; any non-positive entry makes
/// the harmonic mean meaningless for throughput, so it yields `None`.
pub fn harmonic_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let denom: f64 = xs.iter().map(|x| 1.0 / x).sum();
    Some(xs.len() as f64 / denom)
}

/// Median (50th percentile). Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Percentile in `[0, 100]` with linear interpolation between order
/// statistics (the "exclusive" variant used by most plotting tools).
///
/// Returns `None` for an empty slice or a percentile outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice (ascending). Panics on empty input.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum of a slice, `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.min(x)),
    })
}

/// Maximum of a slice, `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.max(x)),
    })
}

/// An empirical cumulative distribution function over a sample.
///
/// Built once from a sample, then queried for `F(x)` (fraction of the
/// sample `<= x`) or for quantiles. This is the workhorse behind every CDF
/// figure in the paper (Figures 3, 5, 9).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF. Returns `None` for an empty sample; panics on NaN.
    pub fn new(sample: &[f64]) -> Option<Self> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF sample"));
        Some(Ecdf { sorted })
    }

    /// Number of points the ECDF was built from.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no points (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of sample values `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements < x or <= x depending
        // on the predicate; we want <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile for `q` in `[0, 1]` with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_of_sorted(&self.sorted, q.clamp(0.0, 1.0) * 100.0)
    }

    /// Samples the CDF at `n` evenly spaced quantiles, returning `(x, F(x))`
    /// pairs suitable for plotting or table output.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two curve points");
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn mean_basic() {
        assert_close(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_stddev() {
        // Population variance of [2, 4, 4, 4, 5, 5, 7, 9] is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(variance(&xs).unwrap(), 4.0);
        assert_close(stddev(&xs).unwrap(), 2.0);
    }

    #[test]
    fn cov_normalizes_by_mean() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(coefficient_of_variation(&xs).unwrap(), 2.0 / 5.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), None);
    }

    #[test]
    fn harmonic_mean_basic() {
        assert_close(harmonic_mean(&[1.0, 4.0, 4.0]).unwrap(), 2.0);
        assert_eq!(harmonic_mean(&[]), None);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), None);
        assert_eq!(harmonic_mean(&[1.0, -2.0]), None);
    }

    #[test]
    fn harmonic_le_arithmetic() {
        let xs = [0.5, 1.5, 2.5, 10.0];
        assert!(harmonic_mean(&xs).unwrap() <= mean(&xs).unwrap());
    }

    #[test]
    fn median_odd_even() {
        assert_close(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_close(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_close(percentile(&xs, 0.0).unwrap(), 10.0);
        assert_close(percentile(&xs, 100.0).unwrap(), 40.0);
        assert_close(percentile(&xs, 50.0).unwrap(), 25.0);
        // 75th percentile: rank = 0.75 * 3 = 2.25 -> 30 + 0.25*10 = 32.5
        assert_close(percentile(&xs, 75.0).unwrap(), 32.5);
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn min_max_basic() {
        assert_close(min(&[3.0, -1.0, 2.0]).unwrap(), -1.0);
        assert_close(max(&[3.0, -1.0, 2.0]).unwrap(), 3.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_close(e.eval(0.5), 0.0);
        assert_close(e.eval(1.0), 0.25);
        assert_close(e.eval(2.5), 0.5);
        assert_close(e.eval(4.0), 1.0);
        assert_close(e.eval(100.0), 1.0);
        assert_close(e.quantile(0.0), 1.0);
        assert_close(e.quantile(1.0), 4.0);
        assert_close(e.quantile(0.5), 2.5);
        assert_eq!(Ecdf::new(&[]), None);
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let e = Ecdf::new(&[5.0, 1.0, 9.0, 3.0, 3.0, 7.0]).unwrap();
        let curve = e.curve(11);
        assert_eq!(curve.len(), 11);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0, "x not monotone");
            assert!(w[0].1 <= w[1].1, "q not monotone");
        }
    }
}
