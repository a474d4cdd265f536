//! Property-based tests over the ML substrate's core invariants.

use cs2p_ml::gaussian::Gaussian;
use cs2p_ml::hmm::{train, Emission, FilterState, Hmm, TrainConfig};
use cs2p_ml::matrix::Matrix;
use cs2p_ml::stats;
use proptest::prelude::*;

/// Strategy: a non-empty vector of finite, positive throughput-like values.
fn throughputs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..100.0, 1..200)
}

/// Strategy: a small row-stochastic matrix plus matching emissions -> HMM.
fn arb_hmm() -> impl Strategy<Value = Hmm> {
    (2usize..5).prop_flat_map(|n| {
        let rows = prop::collection::vec(prop::collection::vec(0.01f64..1.0, n), n);
        let init = prop::collection::vec(0.01f64..1.0, n);
        let mus = prop::collection::vec(0.1f64..20.0, n);
        let sigmas = prop::collection::vec(0.01f64..2.0, n);
        (rows, init, mus, sigmas).prop_map(|(rows, mut init, mus, sigmas)| {
            let norm_rows: Vec<Vec<f64>> = rows
                .into_iter()
                .map(|mut r| {
                    let s: f64 = r.iter().sum();
                    for x in r.iter_mut() {
                        *x /= s;
                    }
                    r
                })
                .collect();
            let s: f64 = init.iter().sum();
            for x in init.iter_mut() {
                *x /= s;
            }
            let emissions = mus
                .into_iter()
                .zip(sigmas)
                .map(|(m, sd)| Emission::Gaussian(Gaussian::new(m, sd)))
                .collect();
            Hmm::new(init, Matrix::from_rows(&norm_rows), emissions)
        })
    })
}

proptest! {
    #[test]
    fn harmonic_never_exceeds_arithmetic_mean(xs in prop::collection::vec(0.01f64..1000.0, 1..100)) {
        let hm = stats::harmonic_mean(&xs).unwrap();
        let am = stats::mean(&xs).unwrap();
        prop_assert!(hm <= am + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1000.0f64..1000.0, 1..100),
                                p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&xs, lo).unwrap();
        let b = stats::percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn percentile_bounded_by_min_max(xs in prop::collection::vec(-100.0f64..100.0, 1..50),
                                     p in 0.0f64..100.0) {
        let v = stats::percentile(&xs, p).unwrap();
        prop_assert!(v >= stats::min(&xs).unwrap() - 1e-9);
        prop_assert!(v <= stats::max(&xs).unwrap() + 1e-9);
    }

    #[test]
    fn ecdf_is_a_cdf(xs in prop::collection::vec(-50.0f64..50.0, 1..100), q in -60.0f64..60.0) {
        let e = stats::Ecdf::new(&xs).unwrap();
        let f = e.eval(q);
        prop_assert!((0.0..=1.0).contains(&f));
        // Monotone in its argument.
        prop_assert!(e.eval(q + 1.0) >= f);
    }

    #[test]
    fn gaussian_fit_mean_within_sample_range(xs in prop::collection::vec(-100.0f64..100.0, 1..80)) {
        let g = Gaussian::fit(&xs).unwrap();
        prop_assert!(g.mu >= stats::min(&xs).unwrap() - 1e-9);
        prop_assert!(g.mu <= stats::max(&xs).unwrap() + 1e-9);
        prop_assert!(g.sigma > 0.0);
    }

    #[test]
    fn hmm_filter_posterior_always_normalized(hmm in arb_hmm(), obs in throughputs()) {
        let mut f = hmm.filter();
        for w in obs {
            f.observe(w);
            let s: f64 = f.posterior().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-6, "posterior sum {s}");
            prop_assert!(f.posterior().iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        }
    }

    #[test]
    fn hmm_prediction_is_some_state_mean(hmm in arb_hmm(), obs in throughputs()) {
        let mut f = hmm.filter();
        for w in obs {
            f.observe(w);
        }
        let pred = f.predict_next();
        let means: Vec<f64> = hmm.emissions.iter().map(|e| e.mean()).collect();
        prop_assert!(means.iter().any(|m| (m - pred).abs() < 1e-9));
    }

    /// Eq. 8 bounds what a server ever sends: every step of every horizon
    /// window, before and after each observation, is bit-equal to one of
    /// the emission means.
    #[test]
    fn predict_horizon_outputs_are_emission_means_bit_for_bit(
        hmm in arb_hmm(),
        obs in throughputs(),
        horizon in 1usize..12,
    ) {
        let means: Vec<u64> = hmm.emissions.iter().map(|e| e.mean().to_bits()).collect();
        let mut state = FilterState::new(&hmm);
        let mut out = vec![f64::NAN; horizon];
        for w in std::iter::once(None).chain(obs.into_iter().map(Some)) {
            if let Some(w) = w {
                state.observe(&hmm, w);
            }
            state.predict_horizon(&hmm, &mut out);
            for p in &out {
                prop_assert!(means.contains(&p.to_bits()), "{p} is no emission mean");
            }
        }
    }

    #[test]
    fn hmm_propagation_preserves_mass(hmm in arb_hmm(), k in 1usize..50) {
        let n = hmm.n_states();
        let pi = vec![1.0 / n as f64; n];
        let out = hmm.propagate_k(&pi, k);
        let s: f64 = out.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hmm_log_likelihood_finite(hmm in arb_hmm(), obs in throughputs()) {
        let ll = hmm.log_likelihood(&obs);
        prop_assert!(ll.is_finite());
    }

    #[test]
    fn em_training_yields_valid_model(seqs in prop::collection::vec(
        prop::collection::vec(0.1f64..20.0, 5..40), 2..6)) {
        let cfg = TrainConfig {
            n_states: 2,
            max_iters: 10,
            ..Default::default()
        };
        if let Some((hmm, report)) = train(&seqs, &cfg) {
            prop_assert!(hmm.validate().is_ok());
            // EM must not decrease the likelihood (within numerical slack).
            for w in report.log_likelihoods.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                    "EM decreased ll: {} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn ols_residuals_orthogonal_to_design(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 5..30),
        noise in prop::collection::vec(-1.0f64..1.0, 5..30)
    ) {
        // Build y from a fixed linear rule plus noise; check X^T r ~= 0.
        let n = rows.len().min(noise.len());
        let rows: Vec<Vec<f64>> = rows[..n].iter()
            .map(|r| vec![1.0, r[0], r[1]])
            .collect();
        let y: Vec<f64> = rows.iter().zip(&noise[..n])
            .map(|(r, e)| 2.0 + 0.5 * r[1] - 1.5 * r[2] + e)
            .collect();
        let x = Matrix::from_rows(&rows);
        if let Some(beta) = cs2p_ml::matrix::ols(&x, &y) {
            let pred = x.matvec(&beta);
            let resid: Vec<f64> = y.iter().zip(&pred).map(|(a, b)| a - b).collect();
            let xtr = x.transpose().matvec(&resid);
            for v in xtr {
                prop_assert!(v.abs() < 1e-6, "X^T r component {v}");
            }
        }
    }

    #[test]
    fn matrix_solve_actually_solves(
        diag in prop::collection::vec(1.0f64..10.0, 2..6),
        off in prop::collection::vec(-0.5f64..0.5, 36),
        b in prop::collection::vec(-10.0f64..10.0, 2..6)
    ) {
        // Diagonally dominant systems are well-conditioned and solvable.
        let n = diag.len().min(b.len());
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j { diag[i] } else { off[i * 6 + j] };
            }
        }
        let b = &b[..n];
        if let Some(x) = a.solve(b) {
            let ax = a.matvec(&x);
            for (l, r) in ax.iter().zip(b) {
                prop_assert!((l - r).abs() < 1e-6);
            }
        }
    }
}
