//! Edge-case tests for Baum–Welch `train`: degenerate inputs that have
//! historically produced NaN/inf parameters in EM implementations
//! (zero-variance data, length-1 sequences, empty sequences, single
//! iteration) must yield either a clean `None` or a fully finite,
//! validating model and report.

use cs2p_ml::hmm::{train, Emission, EmissionFamily, Hmm, TrainConfig, TrainReport};

fn assert_finite_model(hmm: &Hmm, report: &TrainReport, label: &str) {
    hmm.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    for (i, p) in hmm.initial.iter().enumerate() {
        assert!(p.is_finite() && *p >= 0.0, "{label}: initial[{i}] = {p}");
    }
    for i in 0..hmm.n_states() {
        for (j, p) in hmm.transition.row(i).iter().enumerate() {
            assert!(p.is_finite() && *p >= 0.0, "{label}: P[{i}][{j}] = {p}");
        }
    }
    for (i, emission) in hmm.emissions.iter().enumerate() {
        let (mu, sigma) = match emission {
            Emission::Gaussian(g) | Emission::LogNormal(g) => (g.mu, g.sigma),
        };
        assert!(mu.is_finite(), "{label}: emission[{i}].mu = {mu}");
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "{label}: emission[{i}].sigma = {sigma} (must stay positive)"
        );
    }
    for (it, ll) in report.log_likelihoods.iter().enumerate() {
        assert!(ll.is_finite(), "{label}: log-likelihood[{it}] = {ll}");
    }
    assert_eq!(report.iterations, report.log_likelihoods.len(), "{label}");
    assert!(
        !report.final_rel_delta.is_nan(),
        "{label}: rel delta is NaN"
    );
}

#[test]
fn constant_sequences_train_without_nan() {
    // Zero observed variance is the classic EM degeneracy: sigma -> 0
    // sends the log-pdf to +inf unless variance is floored.
    for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
        let sequences = vec![vec![5.0; 20], vec![5.0; 7], vec![5.0; 3]];
        let config = TrainConfig {
            n_states: 3,
            family,
            ..TrainConfig::default()
        };
        let (hmm, report) = train(&sequences, &config).expect("constant data is trainable");
        assert_finite_model(&hmm, &report, &format!("constant/{family:?}"));
        // The model must still reproduce the constant: every state's
        // emission mean is (close to) the observed value.
        // Floored variance shifts the log-normal mean by exp(sigma^2/2),
        // so "close" rather than exact.
        for emission in &hmm.emissions {
            assert!(
                (emission.mean() - 5.0).abs() < 1e-3,
                "mean {} for constant-5 data",
                emission.mean()
            );
        }
    }
}

#[test]
fn single_observation_sequences_train_without_nan() {
    // Length-1 sequences exercise the no-transition path: the transition
    // counts are pure smoothing, and sigma comes entirely from flooring.
    let sequences = vec![vec![1.0], vec![2.0], vec![4.0], vec![8.0]];
    let config = TrainConfig {
        n_states: 2,
        ..TrainConfig::default()
    };
    let (hmm, report) = train(&sequences, &config).expect("length-1 sequences");
    assert_finite_model(&hmm, &report, "single-observation");
}

#[test]
fn single_iteration_report_is_finite() {
    let sequences = vec![vec![1.0, 5.0, 1.0, 5.0, 2.0, 4.0]];
    let config = TrainConfig {
        n_states: 2,
        max_iters: 1,
        ..TrainConfig::default()
    };
    let (hmm, report) = train(&sequences, &config).expect("one EM iteration");
    assert_eq!(report.iterations, 1);
    assert!(!report.converged, "one capped iteration cannot converge");
    assert_finite_model(&hmm, &report, "single-iteration");
}

#[test]
fn empty_sequences_are_filtered_not_fatal() {
    let seq = vec![1.0, 3.0, 2.0, 5.0, 4.0, 2.5, 3.5];
    let with_empties = vec![vec![], seq.clone(), vec![], seq.clone(), vec![]];
    let without = vec![seq.clone(), seq];
    let config = TrainConfig {
        n_states: 2,
        ..TrainConfig::default()
    };
    let (hmm_a, report_a) = train(&with_empties, &config).expect("empties filtered");
    let (hmm_b, _report_b) = train(&without, &config).expect("clean input");
    assert_finite_model(&hmm_a, &report_a, "with-empties");
    // Filtering must be transparent: identical model, not just a similar one.
    assert_eq!(hmm_a, hmm_b, "empty sequences must not perturb training");
}

#[test]
fn all_empty_input_returns_none() {
    let config = TrainConfig::default();
    assert!(train::<Vec<f64>>(&[], &config).is_none());
    assert!(train(&[vec![], vec![]], &config).is_none());
}

#[test]
fn non_finite_observations_are_rejected_not_panicked_on() {
    // A NaN used to unwrap a `partial_cmp` in the k-means sort and an
    // infinity tripped `Gaussian::new`'s assert — on the registry's
    // retrain thread, in production terms.
    for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
        let config = TrainConfig {
            n_states: 2,
            family,
            ..TrainConfig::default()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sequences = [vec![1.0, bad, 2.0], vec![1.5, 2.5, 0.5]];
            assert!(train(&sequences, &config).is_none(), "{family:?}, {bad}");
            let last = [vec![1.5, 2.5, 0.5], vec![1.0, 2.0, bad]];
            assert!(train(&last, &config).is_none(), "{family:?}, {bad} last");
        }
        assert!(
            train(&[vec![1.0, 3.0, 2.0]], &config).is_some(),
            "{family:?}"
        );
    }
}

#[test]
fn lognormal_rejects_nonpositive_observations() {
    let config = TrainConfig {
        family: EmissionFamily::LogNormal,
        ..TrainConfig::default()
    };
    assert!(train(&[vec![1.0, 0.0, 2.0]], &config).is_none());
    assert!(train(&[vec![1.0, -3.0]], &config).is_none());
}

#[test]
fn more_states_than_observations_stays_finite() {
    // k-means with more centroids than points: some states start empty.
    let sequences = vec![vec![2.0, 7.0]];
    let config = TrainConfig {
        n_states: 5,
        ..TrainConfig::default()
    };
    if let Some((hmm, report)) = train(&sequences, &config) {
        assert_finite_model(&hmm, &report, "overparameterized");
    }
    // `None` is acceptable; a NaN-filled `Some` is not.
}
