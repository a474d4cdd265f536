//! CART-style regression trees (the weak learner behind the paper's GBR
//! baseline, §7.1: "GBR (Gradient Boosting Regression trees \[40\])").
//!
//! Standard recursive binary splitting with the variance-reduction
//! criterion: at each node we scan every feature and every midpoint
//! between consecutive distinct values, choosing the split that minimizes
//! the weighted sum of child variances (equivalently, squared error of the
//! child means). Categorical session features are one-hot encoded by the
//! caller, so numeric `<=` splits suffice.

use serde::{Deserialize, Serialize};

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to consider splitting a node.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 4,
            min_samples_leaf: 5,
            min_samples_split: 10,
        }
    }
}

/// A node in the flattened tree representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node predicting the mean of its training targets.
    Leaf {
        /// Predicted value (mean of the leaf's training targets).
        value: f64,
    },
    /// Internal split: go left when `x[feature] <= threshold`.
    Split {
        /// Feature column tested.
        feature: usize,
        /// Split threshold (midpoint between adjacent training values).
        threshold: f64,
        /// Node id of the `<=` child.
        left: usize,
        /// Node id of the `>` child.
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)`. `x` holds one row per sample; all rows must
    /// have equal length. Panics on empty input or ragged rows.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &TreeConfig) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let n_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == n_features),
            "ragged feature rows"
        );

        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..x.len()).collect();
        build(x, y, &indices, 0, config, &mut nodes);
        RegressionTree { nodes, n_features }
    }

    /// Predicts the target for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }
}

/// Recursively builds the subtree over `indices`, returning its node id.
fn build(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    depth: usize,
    config: &TreeConfig,
    nodes: &mut Vec<Node>,
) -> usize {
    let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;

    let stop = depth >= config.max_depth
        || indices.len() < config.min_samples_split
        || indices.len() < 2 * config.min_samples_leaf;
    let split = if stop {
        None
    } else {
        best_split(x, y, indices, config)
    };

    match split {
        None => {
            nodes.push(Node::Leaf { value: mean });
            nodes.len() - 1
        }
        Some((feature, threshold)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| x[i][feature] <= threshold);
            // Reserve our slot first so child ids are stable.
            let id = nodes.len();
            nodes.push(Node::Leaf { value: mean }); // placeholder
            let left = build(x, y, &li, depth + 1, config, nodes);
            let right = build(x, y, &ri, depth + 1, config, nodes);
            nodes[id] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            id
        }
    }
}

/// Finds the variance-minimizing split, or `None` if no valid split
/// improves on the parent (all features constant, or leaf-size limits).
#[allow(clippy::needless_range_loop)] // scanning features by index keeps the sweep readable
fn best_split(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    config: &TreeConfig,
) -> Option<(usize, f64)> {
    let n = indices.len() as f64;
    let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
    let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();
    let parent_sse = total_sq - total_sum * total_sum / n;

    let n_features = x[indices[0]].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

    let mut order: Vec<usize> = indices.to_vec();
    for f in 0..n_features {
        order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).unwrap());
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += y[i];
            left_sq += y[i] * y[i];
            let next = order[k + 1];
            if x[i][f] == x[next][f] {
                continue; // can't split between equal values
            }
            let left_n = (k + 1) as f64;
            let right_n = n - left_n;
            if (k + 1) < config.min_samples_leaf || (order.len() - k - 1) < config.min_samples_leaf
            {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / left_n)
                + (right_sq - right_sum * right_sum / right_n);
            if best.as_ref().is_none_or(|b| sse < b.2) {
                let threshold = 0.5 * (x[i][f] + x[next][f]);
                best = Some((f, threshold, sse));
            }
        }
    }

    match best {
        Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 for x < 0.5, y = 5 for x >= 0.5.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        (x, y)
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert!((tree.predict(&[0.1]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[0.9]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_mean_stump() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        assert_eq!(tree.nodes.len(), 1);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((tree.predict(&[0.3]) - mean).abs() < 1e-12);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| (i as f64).sin()).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_samples_leaf: 1,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (x, y) = step_data();
        let cfg = TreeConfig {
            max_depth: 10,
            min_samples_leaf: 15,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        // Count leaf sizes by running training data through the tree:
        // every leaf must receive >= 15 samples.
        let mut counts = std::collections::HashMap::new();
        for row in &x {
            // identify leaf by its predicted value bits (distinct per leaf here)
            let v = tree.predict(row).to_bits();
            *counts.entry(v).or_insert(0usize) += 1;
        }
        for (_, c) in counts {
            assert!(c >= 15, "leaf with {c} samples");
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 20];
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(tree.nodes.len(), 1);
        assert!((tree.predict(&[3.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|_| vec![1.0, 2.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn picks_informative_feature_among_noise() {
        // Feature 1 is informative; feature 0 is constant noise.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![0.5, if i < 30 { 0.0 } else { 1.0 }])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| if i < 30 { -2.0 } else { 2.0 }).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert!((tree.predict(&[0.5, 0.0]) + 2.0).abs() < 1e-9);
        assert!((tree.predict(&[0.5, 1.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_dimensional_quadrants_need_depth_two() {
        // Four quadrants with distinct means; depth-2 tree fits exactly.
        let pts = [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 5.0),
            (1.0, 0.0, 9.0),
            (1.0, 1.0, 2.0),
        ];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..10 {
            for &(a, b, t) in &pts {
                x.push(vec![a, b]);
                y.push(t);
            }
        }
        let cfg = TreeConfig {
            max_depth: 2,
            min_samples_leaf: 1,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        for &(a, b, t) in &pts {
            assert!((tree.predict(&[a, b]) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn greedy_cart_cannot_split_pure_xor() {
        // Documented limitation: on XOR no single split reduces variance,
        // so the greedy criterion refuses to split at all.
        let pts = [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 5.0),
            (1.0, 0.0, 5.0),
            (1.0, 1.0, 1.0),
        ];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..10 {
            for &(a, b, t) in &pts {
                x.push(vec![a, b]);
                y.push(t);
            }
        }
        let cfg = TreeConfig {
            max_depth: 4,
            min_samples_leaf: 1,
            min_samples_split: 2,
        };
        let tree = RegressionTree::fit(&x, &y, &cfg);
        assert_eq!(tree.nodes.len(), 1);
        assert!((tree.predict(&[0.0, 0.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeConfig::default());
        let s = serde_json::to_string(&tree).unwrap();
        let back: RegressionTree = serde_json::from_str(&s).unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        RegressionTree::fit(&[], &[], &TreeConfig::default());
    }
}
