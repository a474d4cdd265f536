//! Autoregressive time-series model — the AR baseline of the paper
//! (§3 Observation 1, §7.1: "AR (Auto Regression \[24\])").
//!
//! `AR(p)`: `w_t = c + a_1 w_{t-1} + ... + a_p w_{t-p} + eps`, fit by
//! ordinary least squares on the session's own history. Like the paper we
//! refit from all available previous measurements each time a prediction is
//! requested ("For AR and HM, we utilize all the available previous
//! measurements to predict next value", §7.1).

use crate::matrix::{ols, Matrix};
use serde::{Deserialize, Serialize};

/// A fitted AR(p) model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArModel {
    /// Intercept `c`.
    pub intercept: f64,
    /// Lag coefficients `a_1..a_p` (index 0 multiplies the most recent lag).
    pub coefficients: Vec<f64>,
}

impl ArModel {
    /// Model order `p`.
    pub fn order(&self) -> usize {
        self.coefficients.len()
    }

    /// One-step prediction from `history` (most recent value last).
    ///
    /// Returns `None` when the history is shorter than the model order.
    pub fn predict(&self, history: &[f64]) -> Option<f64> {
        let p = self.order();
        if history.len() < p {
            return None;
        }
        let mut y = self.intercept;
        for (k, a) in self.coefficients.iter().enumerate() {
            y += a * history[history.len() - 1 - k];
        }
        Some(y)
    }

    /// Iterated multi-step prediction: feeds each prediction back as the
    /// newest observation. Returns predictions for horizons `1..=k`.
    pub fn predict_ahead(&self, history: &[f64], k: usize) -> Option<Vec<f64>> {
        if history.len() < self.order() {
            return None;
        }
        let mut extended = history.to_vec();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let next = self.predict(&extended)?;
            out.push(next);
            extended.push(next);
        }
        Some(out)
    }
}

/// Fits an AR(p) model to `series` by OLS.
///
/// Needs at least `p + 1` usable rows (i.e. `series.len() >= 2p + 1` is not
/// required, but `series.len() > p` is). Returns `None` when there is too
/// little data or the design matrix is singular (e.g. a constant series —
/// in which case lags are perfectly collinear with the intercept).
fn fit_ar(series: &[f64], p: usize) -> Option<ArModel> {
    assert!(p >= 1, "AR order must be at least 1");
    if series.len() <= p {
        return None;
    }
    let n_rows = series.len() - p;
    let mut rows = Vec::with_capacity(n_rows);
    let mut y = Vec::with_capacity(n_rows);
    for t in p..series.len() {
        let mut row = Vec::with_capacity(p + 1);
        row.push(1.0); // intercept
        for k in 1..=p {
            row.push(series[t - k]);
        }
        rows.push(row);
        y.push(series[t]);
    }
    let x = Matrix::from_rows(&rows);
    let beta = ols(&x, &y)?;
    Some(ArModel {
        intercept: beta[0],
        coefficients: beta[1..].to_vec(),
    })
}

/// The adaptive AR predictor used as a baseline: refits an `AR(p)` on the
/// full history each call and predicts one step ahead. Falls back to the
/// last sample while the history is too short or the fit is singular.
pub fn ar_predict_next(history: &[f64], p: usize) -> Option<f64> {
    if history.is_empty() {
        return None;
    }
    // Refit wants strictly more rows than parameters to avoid pure
    // interpolation; require a modest margin.
    if history.len() >= 2 * p + 2 {
        if let Some(model) = fit_ar(history, p) {
            if let Some(pred) = model.predict(history) {
                if pred.is_finite() {
                    return Some(pred);
                }
            }
        }
    }
    history.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn recovers_exact_ar1() {
        // w_t = 1 + 0.5 w_{t-1}, deterministic.
        let mut series = vec![4.0];
        for _ in 0..30 {
            let last = *series.last().unwrap();
            series.push(1.0 + 0.5 * last);
        }
        let model = fit_ar(&series, 1).unwrap();
        assert!((model.intercept - 1.0).abs() < 1e-6, "{model:?}");
        assert!((model.coefficients[0] - 0.5).abs() < 1e-6, "{model:?}");
        let pred = model.predict(&series).unwrap();
        let truth = 1.0 + 0.5 * series.last().unwrap();
        assert!((pred - truth).abs() < 1e-6);
    }

    #[test]
    fn recovers_ar2_with_noise() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (a1, a2, c) = (0.6, 0.25, 0.5);
        let mut series = vec![1.0, 1.2];
        for _ in 0..2_000 {
            let n = series.len();
            let noise: f64 = rng.gen::<f64>() - 0.5;
            series.push(c + a1 * series[n - 1] + a2 * series[n - 2] + 0.05 * noise);
        }
        let model = fit_ar(&series, 2).unwrap();
        assert!((model.coefficients[0] - a1).abs() < 0.05, "{model:?}");
        assert!((model.coefficients[1] - a2).abs() < 0.05, "{model:?}");
        assert!((model.intercept - c).abs() < 0.1, "{model:?}");
    }

    #[test]
    fn too_short_history_returns_none() {
        assert!(fit_ar(&[1.0, 2.0], 2).is_none());
        assert!(fit_ar(&[1.0], 1).is_none());
        let m = ArModel {
            intercept: 0.0,
            coefficients: vec![1.0, 0.0],
        };
        assert!(m.predict(&[1.0]).is_none());
    }

    #[test]
    fn constant_series_is_singular_but_fallback_works() {
        let series = vec![3.0; 20];
        assert!(fit_ar(&series, 1).is_none());
        // The adaptive predictor falls back to last-sample.
        assert_eq!(ar_predict_next(&series, 1), Some(3.0));
    }

    #[test]
    fn ar_predict_next_empty_history() {
        assert_eq!(ar_predict_next(&[], 2), None);
    }

    #[test]
    fn ar_predict_next_short_history_is_last_sample() {
        assert_eq!(ar_predict_next(&[1.0, 7.0], 3), Some(7.0));
    }

    #[test]
    fn predict_ahead_matches_manual_iteration() {
        let model = ArModel {
            intercept: 1.0,
            coefficients: vec![0.5],
        };
        let preds = model.predict_ahead(&[4.0], 3).unwrap();
        assert_eq!(preds.len(), 3);
        assert!((preds[0] - 3.0).abs() < 1e-12);
        assert!((preds[1] - 2.5).abs() < 1e-12);
        assert!((preds[2] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn stable_ar1_converges_to_fixed_point() {
        let model = ArModel {
            intercept: 1.0,
            coefficients: vec![0.5],
        };
        let preds = model.predict_ahead(&[10.0], 100).unwrap();
        // Fixed point: x = 1 + 0.5x -> x = 2.
        assert!((preds.last().unwrap() - 2.0).abs() < 1e-9);
    }
}
