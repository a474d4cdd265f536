//! Gradient-boosted regression trees with squared-error loss — the GBR
//! baseline of the paper (§7.1, \[40\]).
//!
//! Classic Friedman boosting: start from the target mean, then repeatedly
//! fit a shallow [`RegressionTree`] to the current residuals and add it
//! scaled by the learning rate. Optional row subsampling (stochastic
//! gradient boosting) uses a seeded RNG so results are reproducible.

use crate::tree::{RegressionTree, TreeConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for gradient boosting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbrtConfig {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Weak-learner configuration.
    pub tree: TreeConfig,
    /// Fraction of rows sampled (without replacement) per stage; `1.0`
    /// disables subsampling.
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbrtConfig {
    fn default() -> Self {
        GbrtConfig {
            n_trees: 100,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 3,
                min_samples_leaf: 5,
                min_samples_split: 10,
            },
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbrt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
}

impl Gbrt {
    /// Fits the ensemble to `(x, y)`. Panics on empty input (same contract
    /// as [`RegressionTree::fit`]).
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &GbrtConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit GBRT to zero samples");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(
            config.subsample > 0.0 && config.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );

        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred: Vec<f64> = vec![base; y.len()];
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut all_indices: Vec<usize> = (0..x.len()).collect();
        let sample_size = ((x.len() as f64 * config.subsample).round() as usize).max(1);

        for _ in 0..config.n_trees {
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let (sx, sy): (Vec<Vec<f64>>, Vec<f64>) = if sample_size < x.len() {
                all_indices.shuffle(&mut rng);
                all_indices[..sample_size]
                    .iter()
                    .map(|&i| (x[i].clone(), residuals[i]))
                    .unzip()
            } else {
                (x.to_vec(), residuals.clone())
            };
            let tree = RegressionTree::fit(&sx, &sy, &config.tree);
            for (i, row) in x.iter().enumerate() {
                pred[i] += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }

        Gbrt {
            base,
            learning_rate: config.learning_rate,
            trees,
        }
    }

    /// Predicts the target for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// Number of boosting stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Mean squared error helper used by tests and model selection.
pub fn mse(model: &Gbrt, x: &[Vec<f64>], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    x.iter()
        .zip(y)
        .map(|(row, &t)| {
            let d = model.predict(row) - t;
            d * d
        })
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Smooth nonlinear target over 2 features, deterministic grid.
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 32) as f64 / 32.0;
            let b = (i / 32) as f64 / ((n / 32).max(1)) as f64;
            x.push(vec![a, b]);
            y.push((2.0 * std::f64::consts::PI * a).sin() + 2.0 * b * b);
        }
        (x, y)
    }

    #[test]
    fn boosting_reduces_training_error_monotonically_enough() {
        let (x, y) = friedman_like(256);
        let cfg = GbrtConfig {
            n_trees: 50,
            ..Default::default()
        };
        let model = Gbrt::fit(&x, &y, &cfg);
        // Training MSE after all stages must be far below the variance of y.
        let var = crate::stats::variance(&y).unwrap();
        let err = mse(&model, &x, &y);
        assert!(err < 0.1 * var, "mse {err} vs var {var}");
    }

    #[test]
    fn zero_trees_predicts_mean() {
        let (x, y) = friedman_like(64);
        let cfg = GbrtConfig {
            n_trees: 0,
            ..Default::default()
        };
        let model = Gbrt::fit(&x, &y, &cfg);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((model.predict(&x[0]) - mean).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(128);
        let cfg = GbrtConfig {
            subsample: 0.5,
            seed: 42,
            n_trees: 20,
            ..Default::default()
        };
        let a = Gbrt::fit(&x, &y, &cfg);
        let b = Gbrt::fit(&x, &y, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn subsampling_changes_model_but_still_learns() {
        let (x, y) = friedman_like(256);
        let full = Gbrt::fit(&x, &y, &GbrtConfig::default());
        let sub_cfg = GbrtConfig {
            subsample: 0.6,
            seed: 7,
            ..Default::default()
        };
        let sub = Gbrt::fit(&x, &y, &sub_cfg);
        assert_ne!(full, sub);
        let var = crate::stats::variance(&y).unwrap();
        assert!(mse(&sub, &x, &y) < 0.2 * var);
    }

    #[test]
    fn more_trees_fit_training_data_better() {
        let (x, y) = friedman_like(256);
        let mk = |n| GbrtConfig {
            n_trees: n,
            ..Default::default()
        };
        let small = Gbrt::fit(&x, &y, &mk(5));
        let large = Gbrt::fit(&x, &y, &mk(80));
        assert!(mse(&large, &x, &y) < mse(&small, &x, &y));
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y) = friedman_like(64);
        let cfg = GbrtConfig {
            n_trees: 5,
            ..Default::default()
        };
        let model = Gbrt::fit(&x, &y, &cfg);
        let s = serde_json::to_string(&model).unwrap();
        let back: Gbrt = serde_json::from_str(&s).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    #[should_panic(expected = "subsample")]
    fn invalid_subsample_panics() {
        let (x, y) = friedman_like(32);
        let cfg = GbrtConfig {
            subsample: 0.0,
            ..Default::default()
        };
        Gbrt::fit(&x, &y, &cfg);
    }
}
