//! Baum–Welch (EM) training of the Gaussian-emission HMM.
//!
//! The paper trains one HMM per session cluster on the throughput sequences
//! of the cluster's sessions via "the expectation-maximization (EM)
//! algorithm \[8\]" (§5.2, *Offline training*). A cluster contributes many
//! sequences, so this implementation is multi-sequence from the start:
//! E-step statistics are accumulated across sequences, and the M-step
//! reestimates `(pi, P, emissions)` from the pooled posteriors.
//!
//! Numerical notes:
//! - the E-step is the scaled forward/backward lattice of
//!   [`super::forward`], one per training run, reused across sequences
//!   and iterations;
//! - transition counts get a tiny additive floor so no row of `P` ever
//!   becomes exactly zero (keeps the chain ergodic and the filter sane);
//! - state emission fits are clamped to `MIN_SIGMA` by [`Gaussian::new`].

use super::forward::Lattice;
use super::init::kmeans_init;
use super::{Emission, Hmm};
use crate::gaussian::Gaussian;
use crate::matrix::Matrix;
use cs2p_obs::Level;

/// Emission family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmissionFamily {
    /// Gaussian over raw observations (the paper's choice).
    Gaussian,
    /// Gaussian over `ln w` (ablation).
    LogNormal,
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of hidden states `N`. The paper uses 6 (picked by 4-fold CV).
    pub n_states: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the relative log-likelihood improvement drops below this.
    pub tol: f64,
    /// Seed for the k-means initialization.
    pub seed: u64,
    /// Emission family.
    pub family: EmissionFamily,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            n_states: 6,
            max_iters: 50,
            tol: 1e-5,
            seed: 0,
            family: EmissionFamily::Gaussian,
        }
    }
}

/// How EM was initialized for one training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// k-means initialization — no prior model was offered.
    Cold,
    /// EM resumed from a prior model's parameters ([`train_seeded`]).
    Warm,
    /// A prior was offered but rejected (state count, emission family, or
    /// validity mismatch); training fell back to the k-means cold start.
    ColdFallback,
}

impl StartMode {
    /// `true` for [`StartMode::Warm`].
    pub fn is_warm(self) -> bool {
        self == StartMode::Warm
    }
}

/// What training produced, beyond the model itself.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Log-likelihood after each EM iteration (total over all sequences).
    pub log_likelihoods: Vec<f64>,
    /// Number of EM iterations actually run.
    pub iterations: usize,
    /// Whether the tolerance criterion (rather than the iteration cap)
    /// stopped training.
    pub converged: bool,
    /// Relative log-likelihood improvement of the last iteration (what the
    /// tolerance check saw; `f64::INFINITY` when only one iteration ran).
    pub final_rel_delta: f64,
    /// How EM was initialized: cold k-means, warm resume from a prior
    /// model, or cold fallback after a rejected prior.
    pub start: StartMode,
    /// Iteration budget left unused under `max_iters` when the tolerance
    /// criterion stopped training early (0 when the cap was hit). For a
    /// warm start this is the budget the resume saved relative to the
    /// configured worst case; refresh benchmarks compare it against the
    /// cold-start figure directly.
    pub iterations_saved: usize,
    /// Correlates this run's `train.em.*` telemetry records (each carries
    /// a matching `run_id` field).
    pub telemetry_run_id: u64,
}

/// Additive smoothing applied to transition counts so no transition
/// probability collapses to exactly zero.
pub(super) const TRANSITION_FLOOR: f64 = 1e-6;

/// Trains an HMM on `sequences` with Baum–Welch EM.
///
/// Returns `None` when there is no usable data: no sequences, all
/// sequences empty, or an observation no emission of the family can
/// describe (non-finite; non-positive under [`EmissionFamily::LogNormal`]).
/// Fewer distinct observations than states is not rejected — states may
/// then coincide.
pub fn train<S: AsRef<[f64]>>(sequences: &[S], config: &TrainConfig) -> Option<(Hmm, TrainReport)> {
    train_seeded(sequences, config, None)
}

/// Checks whether `prior` is a usable warm-start seed under `config`:
/// valid parameters, matching state count, matching emission family.
pub(super) fn prior_usable(prior: &Hmm, config: &TrainConfig) -> bool {
    prior.validate().is_ok()
        && prior.n_states() == config.n_states
        && prior.emissions.iter().all(|e| match config.family {
            EmissionFamily::Gaussian => matches!(e, Emission::Gaussian(_)),
            EmissionFamily::LogNormal => matches!(e, Emission::LogNormal(_)),
        })
}

/// [`train`] with an optional warm-start seed: when `prior` is a valid
/// model with the configured state count and emission family, EM resumes
/// from its parameters `(pi, P, emissions)` instead of the k-means
/// initialization — the online-refresh path of the paper's daily model
/// update (§5), where yesterday's model is a far better starting point
/// than a fresh init. A mismatched or invalid prior falls back to the
/// cold start (recorded as [`StartMode::ColdFallback`], never a panic).
///
/// EM monotonicity holds from any valid starting point, so the resumed
/// run's log-likelihood trace is non-decreasing exactly like a cold run's.
pub fn train_seeded<S: AsRef<[f64]>>(
    sequences: &[S],
    config: &TrainConfig,
    prior: Option<&Hmm>,
) -> Option<(Hmm, TrainReport)> {
    assert!(config.n_states >= 1, "need at least one state");
    // Sized up front: a filtered `collect` grows by doubling, and the
    // allocation count of a run must not depend on the data.
    let mut nonempty: Vec<&[f64]> = Vec::with_capacity(sequences.len());
    nonempty.extend(
        sequences
            .iter()
            .map(AsRef::as_ref)
            .filter(|s| !s.is_empty()),
    );
    if nonempty.is_empty() {
        return None;
    }
    // Neither family can emit a non-finite observation, and log-normal
    // cannot emit a non-positive one.
    let positive_only = config.family == EmissionFamily::LogNormal;
    if nonempty.iter().any(|s| {
        s.iter()
            .any(|&w| !w.is_finite() || (positive_only && w <= 0.0))
    }) {
        return None;
    }

    let start = match prior {
        Some(p) if prior_usable(p, config) => StartMode::Warm,
        Some(_) => StartMode::ColdFallback,
        None => StartMode::Cold,
    };
    let mut hmm = match start {
        StartMode::Warm => prior.expect("warm start has a prior").clone(),
        StartMode::Cold | StartMode::ColdFallback => kmeans_init(&nonempty, config)?,
    };
    let n = config.n_states;

    let run_id = cs2p_obs::next_run_id();
    if cs2p_obs::enabled() {
        cs2p_obs::event(
            Level::Debug,
            "train.em.start",
            vec![
                ("run_id", run_id.into()),
                ("n_states", n.into()),
                ("n_sequences", nonempty.len().into()),
                ("max_iters", config.max_iters.into()),
                ("seed", config.seed.into()),
                ("warm_start", start.is_warm().into()),
            ],
        );
        if start == StartMode::ColdFallback {
            cs2p_obs::counter_add("train.warm_start.fallbacks", 1);
            cs2p_obs::event(
                Level::Warn,
                "train.warm_start.rejected",
                vec![
                    ("run_id", run_id.into()),
                    ("n_states", n.into()),
                    (
                        "prior_states",
                        prior.map(|p| p.n_states()).unwrap_or(0).into(),
                    ),
                ],
            );
        }
    }

    let mut lls = Vec::with_capacity(config.max_iters);
    let mut converged = false;
    let mut final_rel_delta = f64::INFINITY;
    let longest = nonempty.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut lattice = Lattice::new(n, longest);

    for _iter in 0..config.max_iters {
        // --- E step: accumulate statistics over all sequences ---
        let mut ll_total = 0.0;
        let mut pi_acc = vec![0.0; n];
        let mut xi_acc = vec![0.0; n * n]; // sum_t xi_t(i, j), row-major
        let mut gamma_trans_acc = vec![0.0; n]; // sum_{t<T} gamma_t(i)

        // Weighted-emission accumulators: for each state, (sum g, sum g*x,
        // sum g*x^2) over all observations.
        let mut em_w = vec![0.0; n];
        let mut em_wx = vec![0.0; n];
        let mut em_wxx = vec![0.0; n];

        lattice.set_model(&hmm);
        for seq in &nonempty {
            ll_total += lattice.smooth(&hmm, seq);

            for (acc, &g) in pi_acc.iter_mut().zip(lattice.gamma(0)) {
                *acc += g;
            }
            for (t, &w) in seq.iter().enumerate() {
                let x = match config.family {
                    EmissionFamily::Gaussian => w,
                    EmissionFamily::LogNormal => w.ln(),
                };
                for (i, &g) in lattice.gamma(t).iter().enumerate() {
                    em_w[i] += g;
                    em_wx[i] += g * x;
                    em_wxx[i] += g * x * x;
                }
            }

            // A step whose xi cannot be normalized contributes nothing.
            for t in 0..seq.len() - 1 {
                let Some((xi, total)) = lattice.xi(&hmm, t) else {
                    continue;
                };
                for (acc, &v) in xi_acc.iter_mut().zip(xi) {
                    *acc += v / total;
                }
                for (acc, &g) in gamma_trans_acc.iter_mut().zip(lattice.gamma(t)) {
                    *acc += g;
                }
            }
        }
        lls.push(ll_total);

        // Convergence check against the previous iteration's likelihood.
        if lls.len() >= 2 {
            let prev = lls[lls.len() - 2];
            let rel = (ll_total - prev).abs() / prev.abs().max(1.0);
            final_rel_delta = rel;
        }
        if cs2p_obs::enabled() {
            let mut fields: cs2p_obs::Fields = vec![
                ("run_id", run_id.into()),
                ("iter", lls.len().into()),
                ("log_likelihood", ll_total.into()),
            ];
            // The first iteration has no predecessor to compare against.
            if final_rel_delta.is_finite() {
                fields.push(("rel_delta", final_rel_delta.into()));
            }
            cs2p_obs::event(Level::Debug, "train.em.iteration", fields);
        }
        if lls.len() >= 2 && final_rel_delta < config.tol {
            converged = true;
            break;
        }

        // --- M step ---
        let mut initial = pi_acc;
        super::normalize(&mut initial);

        let mut transition = Matrix::zeros(n, n);
        for i in 0..n {
            let denom = gamma_trans_acc[i];
            for j in 0..n {
                let num = xi_acc[i * n + j] + TRANSITION_FLOOR;
                transition[(i, j)] = if denom > 0.0 {
                    num / (denom + TRANSITION_FLOOR * n as f64)
                } else {
                    // State never occupied before the last step: keep it
                    // maximally self-persistent so it stays identifiable.
                    if i == j {
                        1.0
                    } else {
                        0.0
                    }
                };
            }
            super::normalize(transition.row_mut(i));
        }

        let emissions: Vec<Emission> = (0..n)
            .map(|i| {
                let (mu, sigma) = if em_w[i] > 0.0 {
                    let mu = em_wx[i] / em_w[i];
                    let var = (em_wxx[i] / em_w[i] - mu * mu).max(0.0);
                    (mu, var.sqrt())
                } else {
                    // Dead state: keep the previous parameters.
                    match hmm.emissions[i] {
                        Emission::Gaussian(g) | Emission::LogNormal(g) => (g.mu, g.sigma),
                    }
                };
                let g = Gaussian::new(mu, sigma);
                match config.family {
                    EmissionFamily::Gaussian => Emission::Gaussian(g),
                    EmissionFamily::LogNormal => Emission::LogNormal(g),
                }
            })
            .collect();

        hmm = Hmm::new(initial, transition, emissions);
    }

    let iterations = lls.len();
    let iterations_saved = config.max_iters.saturating_sub(iterations);
    if cs2p_obs::enabled() {
        cs2p_obs::counter_add("train.em.runs", 1);
        cs2p_obs::observe("train.em.iterations", iterations as f64);
        if start.is_warm() {
            cs2p_obs::counter_add("train.warm_start.runs", 1);
            cs2p_obs::observe("train.warm_start.iterations_saved", iterations_saved as f64);
        }
        let mut fields: cs2p_obs::Fields = vec![
            ("run_id", run_id.into()),
            ("iterations", iterations.into()),
            ("converged", converged.into()),
            ("warm_start", start.is_warm().into()),
        ];
        if let Some(&ll) = lls.last() {
            fields.push(("log_likelihood", ll.into()));
        }
        if final_rel_delta.is_finite() {
            fields.push(("final_rel_delta", final_rel_delta.into()));
        }
        if converged {
            cs2p_obs::event(Level::Info, "train.em.converged", fields);
        } else {
            // Explicit, not silent: the iteration cap stopped training
            // before the tolerance criterion was met.
            cs2p_obs::counter_add("train.em.max_iters_hit", 1);
            cs2p_obs::event(Level::Warn, "train.em.max_iters", fields);
        }
    }
    Some((
        hmm,
        TrainReport {
            log_likelihoods: lls,
            iterations,
            converged,
            final_rel_delta,
            start,
            iterations_saved,
            telemetry_run_id: run_id,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::super::toy_hmm;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_training_set(n_seqs: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n_seqs)
            .map(|_| hmm.sample_sequence(len, &mut rng).1)
            .collect()
    }

    #[test]
    fn rejects_empty_input() {
        let cfg = TrainConfig::default();
        assert!(train::<Vec<f64>>(&[], &cfg).is_none());
        assert!(train(&[vec![]], &cfg).is_none());
    }

    #[test]
    fn lognormal_rejects_nonpositive_observations() {
        let cfg = TrainConfig {
            family: EmissionFamily::LogNormal,
            n_states: 2,
            ..Default::default()
        };
        assert!(train(&[vec![1.0, -0.5, 2.0]], &cfg).is_none());
        assert!(train(&[vec![1.0, 0.5, 2.0]], &cfg).is_some());
    }

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let seqs = sample_training_set(20, 100, 5);
        let cfg = TrainConfig {
            n_states: 3,
            max_iters: 30,
            tol: 0.0, // run all iterations
            seed: 1,
            family: EmissionFamily::Gaussian,
        };
        let (_, report) = train(&seqs, &cfg).unwrap();
        for w in report.log_likelihoods.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "EM decreased log-likelihood: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_generating_parameters() {
        // Train on data from the Figure-8 HMM and check the learned state
        // means land close to {0.20, 1.43, 2.41} and self-transitions are
        // strong.
        let seqs = sample_training_set(60, 200, 9);
        let cfg = TrainConfig {
            n_states: 3,
            max_iters: 60,
            tol: 1e-7,
            seed: 2,
            family: EmissionFamily::Gaussian,
        };
        let (hmm, _) = train(&seqs, &cfg).unwrap();
        let mut mus: Vec<f64> = hmm.emissions.iter().map(|e| e.mean()).collect();
        mus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth = [0.20, 1.43, 2.41];
        for (m, t) in mus.iter().zip(&truth) {
            assert!((m - t).abs() < 0.15, "mean {m} far from {t} (all: {mus:?})");
        }
        for i in 0..3 {
            assert!(
                hmm.transition[(i, i)] > 0.8,
                "state {i} lost persistence: {:?}",
                hmm.transition.row(i)
            );
        }
    }

    #[test]
    fn trained_model_is_valid() {
        let seqs = sample_training_set(10, 80, 17);
        let cfg = TrainConfig {
            n_states: 4,
            ..Default::default()
        };
        let (hmm, report) = train(&seqs, &cfg).unwrap();
        assert!(hmm.validate().is_ok());
        assert!(report.iterations >= 1);
    }

    #[test]
    fn converges_before_cap_on_easy_data() {
        let seqs = sample_training_set(30, 150, 23);
        let cfg = TrainConfig {
            n_states: 3,
            max_iters: 200,
            tol: 1e-6,
            seed: 3,
            family: EmissionFamily::Gaussian,
        };
        let (_, report) = train(&seqs, &cfg).unwrap();
        assert!(report.converged, "did not converge in 200 iterations");
        assert!(report.iterations < 200);
    }

    #[test]
    fn single_state_degenerates_to_gaussian_fit() {
        let seqs = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0]];
        let cfg = TrainConfig {
            n_states: 1,
            ..Default::default()
        };
        let (hmm, _) = train(&seqs, &cfg).unwrap();
        assert_eq!(hmm.n_states(), 1);
        assert!((hmm.emissions[0].mean() - 3.0).abs() < 1e-6);
        assert!((hmm.transition[(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_states_never_hurt_training_likelihood_much() {
        // A 4-state fit of 3-state data should reach at least the 3-state
        // likelihood (up to EM local optima slack).
        let seqs = sample_training_set(20, 120, 31);
        let mk = |n| TrainConfig {
            n_states: n,
            max_iters: 60,
            tol: 1e-7,
            seed: 4,
            family: EmissionFamily::Gaussian,
        };
        let (_, r3) = train(&seqs, &mk(3)).unwrap();
        let (_, r4) = train(&seqs, &mk(4)).unwrap();
        let ll3 = *r3.log_likelihoods.last().unwrap();
        let ll4 = *r4.log_likelihoods.last().unwrap();
        assert!(ll4 > ll3 - 0.01 * ll3.abs(), "ll4 {ll4} << ll3 {ll3}");
    }

    #[test]
    fn lognormal_family_trains_on_positive_data() {
        let seqs = sample_training_set(10, 100, 41)
            .into_iter()
            .map(|s| s.into_iter().map(|w| w.abs().max(0.01)).collect())
            .collect::<Vec<Vec<f64>>>();
        let cfg = TrainConfig {
            n_states: 3,
            family: EmissionFamily::LogNormal,
            ..Default::default()
        };
        let (hmm, _) = train(&seqs, &cfg).unwrap();
        assert!(matches!(hmm.emissions[0], Emission::LogNormal(_)));
        assert!(hmm.validate().is_ok());
    }
}
