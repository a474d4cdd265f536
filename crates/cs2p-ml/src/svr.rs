//! Epsilon-insensitive Support Vector Regression — the SVR baseline of the
//! paper (§7.1, "SVR (Support Vector Regression \[34\])").
//!
//! We solve the standard dual in the difference variables
//! `beta_i = alpha_i - alpha_i^*`:
//!
//! ```text
//! maximize  -1/2 beta^T K beta + y^T beta - eps * ||beta||_1
//! subject to  -C <= beta_i <= C
//! ```
//!
//! with the bias handled by augmenting the kernel with a constant
//! (`K' = K + 1`), which regularizes the bias instead of enforcing the
//! `sum beta = 0` equality — a standard simplification that removes the
//! coupling constraint so exact coordinate-wise maximization applies. Each
//! coordinate update is a soft-thresholding step clipped to the box, which
//! is precisely a one-variable SMO step for this formulation; sweeping
//! coordinates to convergence solves the (strictly concave) dual exactly.

use serde::{Deserialize, Serialize};

/// Kernel choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `k(a, b) = a . b`
    Linear,
    /// `k(a, b) = exp(-gamma ||a - b||^2)`
    Rbf {
        /// Kernel width parameter.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel on two feature rows.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// Hyperparameters for epsilon-SVR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrConfig {
    /// Box constraint `C` (regularization strength inverse).
    pub c: f64,
    /// Epsilon-insensitive tube half-width.
    pub epsilon: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// Maximum coordinate-descent sweeps.
    pub max_sweeps: usize,
    /// Stop when the largest coordinate change in a sweep drops below this.
    pub tol: f64,
}

impl Default for SvrConfig {
    fn default() -> Self {
        SvrConfig {
            c: 10.0,
            epsilon: 0.05,
            kernel: Kernel::Rbf { gamma: 1.0 },
            max_sweeps: 200,
            tol: 1e-6,
        }
    }
}

/// A fitted SVR model (stores its support vectors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Svr {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    beta: Vec<f64>,
    sweeps_used: usize,
}

impl Svr {
    /// Fits epsilon-SVR to `(x, y)` by exact coordinate ascent on the dual.
    /// Panics on empty input or ragged rows.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &SvrConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit SVR to zero samples");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(config.c > 0.0 && config.epsilon >= 0.0);
        let n = x.len();
        let n_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == n_features),
            "ragged feature rows"
        );

        // Gram matrix with the +1 bias augmentation.
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = config.kernel.eval(&x[i], &x[j]) + 1.0;
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut beta = vec![0.0; n];
        // g_i = (K beta)_i, maintained incrementally.
        let mut g = vec![0.0; n];
        let mut sweeps_used = 0;

        for sweep in 0..config.max_sweeps {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let kii = k[i * n + i];
                if kii <= 0.0 {
                    continue;
                }
                // Residual excluding i's own contribution.
                let r = y[i] - (g[i] - kii * beta[i]);
                // Maximize -1/2 kii b^2 + r b - eps |b| over b in [-C, C]:
                // soft-threshold then clip.
                let b_new = soft_threshold(r, config.epsilon) / kii;
                let b_new = b_new.clamp(-config.c, config.c);
                let delta = b_new - beta[i];
                if delta != 0.0 {
                    beta[i] = b_new;
                    for j in 0..n {
                        g[j] += delta * k[j * n + i];
                    }
                    max_delta = max_delta.max(delta.abs());
                }
            }
            sweeps_used = sweep + 1;
            if max_delta < config.tol {
                break;
            }
        }

        // Keep only support vectors (nonzero duals) for prediction.
        let mut support = Vec::new();
        let mut sbeta = Vec::new();
        for i in 0..n {
            if beta[i].abs() > 1e-12 {
                support.push(x[i].clone());
                sbeta.push(beta[i]);
            }
        }

        Svr {
            kernel: config.kernel,
            support,
            beta: sbeta,
            sweeps_used,
        }
    }

    /// Predicts the target for one feature row:
    /// `f(x) = sum_i beta_i (k(x_i, x) + 1)`.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.support
            .iter()
            .zip(&self.beta)
            .map(|(sv, b)| b * (self.kernel.eval(sv, row) + 1.0))
            .sum()
    }
}

fn soft_threshold(r: f64, eps: f64) -> f64 {
    if r > eps {
        r - eps
    } else if r < -eps {
        r + eps
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
        assert!((rbf.eval(&[0.0], &[2.0]) - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn linear_svr_fits_line_within_tube() {
        // y = 2x + 1 on [0, 1]; epsilon small.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let cfg = SvrConfig {
            kernel: Kernel::Linear,
            c: 100.0,
            epsilon: 0.01,
            ..Default::default()
        };
        let model = Svr::fit(&x, &y, &cfg);
        for (row, t) in x.iter().zip(&y) {
            let p = model.predict(row);
            assert!((p - t).abs() < 0.1, "pred {p} target {t}");
        }
    }

    #[test]
    fn rbf_svr_fits_sine() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0 * 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].sin()).collect();
        let cfg = SvrConfig {
            kernel: Kernel::Rbf { gamma: 2.0 },
            c: 50.0,
            epsilon: 0.02,
            ..Default::default()
        };
        let model = Svr::fit(&x, &y, &cfg);
        let mse: f64 = x
            .iter()
            .zip(&y)
            .map(|(r, t)| {
                let d = model.predict(r) - t;
                d * d
            })
            .sum::<f64>()
            / x.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn wide_tube_yields_sparse_model() {
        // With epsilon larger than the data spread, no support vectors are
        // needed at all (the zero function is within the tube up to bias;
        // with our regularized bias the model should be very sparse).
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![0.0; 20];
        let cfg = SvrConfig {
            kernel: Kernel::Linear,
            epsilon: 1.0,
            ..Default::default()
        };
        let model = Svr::fit(&x, &y, &cfg);
        assert!(model.support.is_empty());
        assert_eq!(model.predict(&[5.0]), 0.0);
    }

    #[test]
    fn duals_respect_box_constraint() {
        // Steep data with tiny C: check betas are clipped (indirectly via
        // prediction magnitude being limited).
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 1000.0 * i as f64).collect();
        let cfg = SvrConfig {
            kernel: Kernel::Linear,
            c: 0.001,
            epsilon: 0.0,
            ..Default::default()
        };
        let model = Svr::fit(&x, &y, &cfg);
        // With C = 0.001 and 10 points the function is severely capped.
        assert!(model.predict(&[9.0]) < y[9]);
    }

    #[test]
    fn converges_before_sweep_cap_on_easy_data() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let model = Svr::fit(&x, &y, &SvrConfig::default());
        assert!(model.sweeps_used < SvrConfig::default().max_sweeps);
    }

    #[test]
    fn deterministic() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![(i as f64).sin(), i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64).cos()).collect();
        let a = Svr::fit(&x, &y, &SvrConfig::default());
        let b = Svr::fit(&x, &y, &SvrConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let model = Svr::fit(&x, &y, &SvrConfig::default());
        let s = serde_json::to_string(&model).unwrap();
        let back: Svr = serde_json::from_str(&s).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        Svr::fit(&[], &[], &SvrConfig::default());
    }
}
