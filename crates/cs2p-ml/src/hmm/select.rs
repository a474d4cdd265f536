//! Cross-validated selection of the HMM state count.
//!
//! The paper (§5.2, §7.1): "the number of states N needs to be specified.
//! … Smaller N yields simpler models, but may be inadequate … a large N …
//! may in turn lead to overfitting. … we adopt 4-fold cross validation"
//! and lands on a 6-state model. This module reproduces that procedure:
//! for each candidate `N`, train on `k-1` folds of sequences and score
//! one-step-ahead absolute normalized prediction error on the held-out
//! fold; pick the `N` with the lowest mean error.

use super::baum_welch::{train, TrainConfig};

/// Configuration for state-count selection.
#[derive(Debug, Clone)]
pub struct SelectConfig {
    /// Candidate state counts to evaluate (e.g. `2..=8`).
    pub candidates: Vec<usize>,
    /// Number of CV folds (paper: 4).
    pub folds: usize,
    /// Template training configuration; `n_states` is overridden per
    /// candidate.
    pub train: TrainConfig,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            candidates: (2..=8).collect(),
            folds: 4,
            train: TrainConfig::default(),
        }
    }
}

/// Outcome of selection.
#[derive(Debug, Clone)]
pub struct SelectReport {
    /// `(candidate N, mean held-out one-step error)` per candidate, in the
    /// order given. Candidates that could not be trained are omitted.
    pub errors: Vec<(usize, f64)>,
    /// The winning state count.
    pub best: usize,
}

/// Runs k-fold CV over `sequences` and returns the best state count.
///
/// Returns `None` when no candidate could be evaluated (too little data).
pub fn select_state_count<S: AsRef<[f64]>>(
    sequences: &[S],
    config: &SelectConfig,
) -> Option<SelectReport> {
    assert!(config.folds >= 2, "need at least 2 folds");
    let usable: Vec<&[f64]> = sequences
        .iter()
        .map(AsRef::as_ref)
        .filter(|s| s.len() >= 2)
        .collect();
    if usable.len() < config.folds {
        return None;
    }

    let mut errors = Vec::new();
    for &n in &config.candidates {
        let mut fold_errors = Vec::new();
        for fold in 0..config.folds {
            let train_set: Vec<&[f64]> = usable
                .iter()
                .enumerate()
                .filter(|(i, _)| i % config.folds != fold)
                .map(|(_, s)| *s)
                .collect();
            let test_set: Vec<&[f64]> = usable
                .iter()
                .enumerate()
                .filter(|(i, _)| i % config.folds == fold)
                .map(|(_, s)| *s)
                .collect();
            let cfg = TrainConfig {
                n_states: n,
                ..config.train.clone()
            };
            let Some((hmm, _)) = train(&train_set, &cfg) else {
                continue;
            };
            if let Some(err) = one_step_error(&hmm, &test_set) {
                fold_errors.push(err);
            }
        }
        if !fold_errors.is_empty() {
            let mean = fold_errors.iter().sum::<f64>() / fold_errors.len() as f64;
            errors.push((n, mean));
        }
    }

    let best = errors
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?
        .0;
    Some(SelectReport { errors, best })
}

/// Mean one-step-ahead absolute normalized error of `hmm` over `test`
/// sequences, run through the online filter exactly as in production.
pub fn one_step_error<S: AsRef<[f64]>>(hmm: &super::Hmm, test: &[S]) -> Option<f64> {
    let mut total = 0.0;
    let mut count = 0usize;
    for seq in test {
        let seq = seq.as_ref();
        if seq.len() < 2 {
            continue;
        }
        let mut filter = hmm.filter();
        filter.observe(seq[0]);
        for &actual in &seq[1..] {
            let pred = filter.predict_next();
            if actual.abs() > 1e-12 {
                total += (pred - actual).abs() / actual.abs();
                count += 1;
            }
            filter.observe(actual);
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::super::toy_hmm;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sequences(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| hmm.sample_sequence(len, &mut rng).1)
            .collect()
    }

    #[test]
    fn selects_a_reasonable_state_count_for_3_state_data() {
        let seqs = sequences(24, 120, 5);
        let cfg = SelectConfig {
            candidates: vec![1, 2, 3, 4, 5],
            folds: 4,
            train: TrainConfig {
                max_iters: 30,
                ..Default::default()
            },
        };
        let report = select_state_count(&seqs, &cfg).unwrap();
        // The truth has 3 states; 1 state should clearly lose, and the
        // winner should be at least 3 (4/5 may tie by overfitting slightly).
        assert!(
            report.best >= 3,
            "picked {} ({:?})",
            report.best,
            report.errors
        );
        let err_of = |n: usize| {
            report
                .errors
                .iter()
                .find(|(c, _)| *c == n)
                .map(|(_, e)| *e)
                .unwrap()
        };
        assert!(err_of(1) > err_of(3), "{:?}", report.errors);
    }

    #[test]
    fn too_few_sequences_returns_none() {
        let seqs = sequences(2, 50, 1);
        let cfg = SelectConfig {
            folds: 4,
            ..Default::default()
        };
        assert!(select_state_count(&seqs, &cfg).is_none());
    }

    #[test]
    fn one_step_error_zero_on_deterministic_model() {
        // A 1-state HMM with tiny sigma predicting its own mean over a
        // constant sequence has ~zero error.
        let seqs = vec![vec![2.0; 30]];
        let cfg = TrainConfig {
            n_states: 1,
            ..Default::default()
        };
        let (hmm, _) = super::super::train(&seqs, &cfg).unwrap();
        let err = one_step_error(&hmm, &[&seqs[0]]).unwrap();
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn one_step_error_ignores_short_sequences() {
        let hmm = toy_hmm();
        let short = vec![1.0];
        assert!(one_step_error(&hmm, &[&short]).is_none());
    }

    #[test]
    fn report_contains_all_trainable_candidates() {
        let seqs = sequences(12, 60, 2);
        let cfg = SelectConfig {
            candidates: vec![2, 3],
            folds: 3,
            train: TrainConfig {
                max_iters: 15,
                ..Default::default()
            },
        };
        let report = select_state_count(&seqs, &cfg).unwrap();
        let ns: Vec<usize> = report.errors.iter().map(|(n, _)| *n).collect();
        assert_eq!(ns, vec![2, 3]);
    }
}
