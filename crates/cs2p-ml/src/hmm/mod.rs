//! Hidden Markov Model with Gaussian (or log-normal) emissions.
//!
//! This is the model at the core of CS2P's midstream predictor (§5.2):
//! throughput `W_t` evolves according to a hidden state `X_t` taking one of
//! `N` discrete values; the state is a first-order Markov chain with
//! transition matrix `P`, and conditioned on the state the observation is
//! Gaussian, `W_t | X_t = x ~ N(mu_x, sigma_x^2)` (Eq. 4–5 in the paper).
//!
//! The module provides:
//! - [`Hmm`]: the parameter set `theta = (pi, P, emissions)`;
//! - scaled forward/backward recursions ([`forward()`](forward)) that never underflow;
//! - Baum–Welch EM training over multiple observation sequences
//!   ([`train`]), initialized by 1-D k-means ([`kmeans_init`]);
//! - the online filter of Algorithm 1 ([`HmmFilter`]): predict the next epoch
//!   by MLE over the propagated state distribution, then condition on the
//!   measured throughput;
//! - cross-validated state-count selection ([`select_state_count`]), mirroring the
//!   paper's use of 4-fold CV to pick `N = 6`.
//!
//! Conventions: the transition matrix is **row-stochastic**
//! (`P[(i, j)] = P(X_{t+1} = j | X_t = i)`); state distributions are row
//! vectors propagated as `pi' = pi P` (the paper writes the same equation,
//! Eq. 4).

mod baum_welch;
mod filter;
mod forward;
mod init;
#[cfg(test)]
mod reference;
mod select;
mod viterbi;

pub use baum_welch::{train, train_seeded, EmissionFamily, StartMode, TrainConfig, TrainReport};
pub use filter::{FilterState, HmmFilter};
pub use forward::{forward, ForwardResult};
pub use init::kmeans_init;
pub use select::{one_step_error, select_state_count, SelectConfig, SelectReport};
pub use viterbi::{viterbi, ViterbiPath};

use crate::gaussian::{self, Gaussian};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Emission distribution attached to a hidden state.
///
/// The paper uses Gaussian emissions but notes the model is agnostic to the
/// family; we also support log-normal (a Gaussian over `ln w`) for the
/// emission-family ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Emission {
    /// `W | X = x ~ N(mu, sigma^2)`.
    Gaussian(Gaussian),
    /// `ln W | X = x ~ N(mu, sigma^2)` — heavier right tail, strictly
    /// positive support.
    LogNormal(Gaussian),
}

impl Emission {
    /// Log-density of observation `w` under this emission.
    pub fn log_pdf(&self, w: f64) -> f64 {
        self.log_pdf_given(w, self.ln_sigma())
    }

    /// `ln sigma` of the underlying Gaussian, the one term of
    /// [`log_pdf`](Self::log_pdf) that does not depend on the observation.
    pub(crate) fn ln_sigma(&self) -> f64 {
        match self {
            Emission::Gaussian(g) | Emission::LogNormal(g) => g.sigma.ln(),
        }
    }

    /// [`log_pdf`](Self::log_pdf) with [`ln_sigma`](Self::ln_sigma)
    /// supplied by the caller.
    pub(crate) fn log_pdf_given(&self, w: f64, ln_sigma: f64) -> f64 {
        match self {
            Emission::Gaussian(g) => g.log_pdf_given(w, ln_sigma),
            Emission::LogNormal(g) => {
                if w <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    let ln_w = w.ln();
                    g.log_pdf_given(ln_w, ln_sigma) - ln_w
                }
            }
        }
    }

    /// Density of observation `w`.
    pub fn pdf(&self, w: f64) -> f64 {
        self.log_pdf(w).exp()
    }

    /// The mean of the observation distribution — the value Algorithm 1
    /// emits as the prediction for a state (`W_hat = mu_x`).
    pub fn mean(&self) -> f64 {
        match self {
            Emission::Gaussian(g) => g.mu,
            Emission::LogNormal(g) => (g.mu + 0.5 * g.sigma * g.sigma).exp(),
        }
    }

    /// Draws one observation.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Emission::Gaussian(g) => gaussian::sample(g, rng),
            Emission::LogNormal(g) => gaussian::sample(g, rng).exp(),
        }
    }
}

/// A trained Hidden Markov Model: `theta = (pi, P, emissions)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hmm {
    /// Initial state distribution `pi` (length `N`, sums to 1).
    pub initial: Vec<f64>,
    /// Row-stochastic `N x N` transition matrix.
    pub transition: Matrix,
    /// Per-state emission distributions (length `N`).
    pub emissions: Vec<Emission>,
}

impl Hmm {
    /// Builds an HMM, validating shapes and stochasticity.
    pub fn new(initial: Vec<f64>, transition: Matrix, emissions: Vec<Emission>) -> Self {
        let hmm = Hmm {
            initial,
            transition,
            emissions,
        };
        hmm.validate().expect("invalid HMM parameters");
        hmm
    }

    /// Number of hidden states.
    pub fn n_states(&self) -> usize {
        self.emissions.len()
    }

    /// Checks that `pi` and every row of `P` are probability distributions
    /// and that all shapes agree.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.emissions.len();
        if n == 0 {
            return Err("HMM with zero states".into());
        }
        if self.initial.len() != n {
            return Err(format!(
                "initial distribution has {} entries, expected {n}",
                self.initial.len()
            ));
        }
        if self.transition.rows() != n || self.transition.cols() != n {
            return Err(format!(
                "transition matrix is {}x{}, expected {n}x{n}",
                self.transition.rows(),
                self.transition.cols()
            ));
        }
        check_distribution(&self.initial, "initial")?;
        for i in 0..n {
            check_distribution(self.transition.row(i), &format!("transition row {i}"))?;
        }
        Ok(())
    }

    /// Propagates a state distribution one step: `pi' = pi P` (Eq. 4).
    pub fn propagate(&self, pi: &[f64]) -> Vec<f64> {
        self.transition.vecmat(pi)
    }

    /// Propagates a state distribution `k` steps: `pi P^k`.
    pub fn propagate_k(&self, pi: &[f64], k: usize) -> Vec<f64> {
        let mut cur = pi.to_vec();
        for _ in 0..k {
            cur = self.propagate(&cur);
        }
        cur
    }

    /// The emission-probability vector `e(w) = (f(w | x_1), ..., f(w | x_N))`
    /// used in the filter update (Eq. 9).
    pub fn emission_vector(&self, w: f64) -> Vec<f64> {
        self.emissions.iter().map(|e| e.pdf(w)).collect()
    }

    /// Total log-likelihood of an observation sequence under the model.
    pub fn log_likelihood(&self, obs: &[f64]) -> f64 {
        forward::log_likelihood(self, obs)
    }

    /// Starts an online filter (Algorithm 1) from the model's initial
    /// distribution.
    pub fn filter(&self) -> HmmFilter<'_> {
        HmmFilter::new(self)
    }

    /// Samples a `(states, observations)` trajectory of length `len`.
    ///
    /// Used by the synthetic-trace generator: the ground-truth world *is* a
    /// set of HMMs, which is exactly the structure Observation 2 of the
    /// paper reports.
    pub fn sample_sequence<R: rand::Rng + ?Sized>(
        &self,
        len: usize,
        rng: &mut R,
    ) -> (Vec<usize>, Vec<f64>) {
        let mut states = Vec::with_capacity(len);
        let mut obs = Vec::with_capacity(len);
        if len == 0 {
            return (states, obs);
        }
        let mut state = sample_categorical(&self.initial, rng);
        for _ in 0..len {
            states.push(state);
            obs.push(self.emissions[state].sample(rng));
            state = sample_categorical(self.transition.row(state), rng);
        }
        (states, obs)
    }

    /// The stationary distribution of the transition chain, found by
    /// power iteration. Returns `None` if iteration fails to converge
    /// (e.g. a periodic chain).
    pub fn stationary_distribution(&self) -> Option<Vec<f64>> {
        let n = self.n_states();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..10_000 {
            let next = self.propagate(&pi);
            let diff: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if diff < 1e-12 {
                return Some(pi);
            }
        }
        None
    }
}

/// Draws an index from a categorical distribution given by `probs`.
pub(crate) fn sample_categorical<R: rand::Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

fn check_distribution(p: &[f64], what: &str) -> Result<(), String> {
    if p.iter().any(|&x| !(0.0..=1.0 + 1e-9).contains(&x)) {
        return Err(format!("{what} has entries outside [0, 1]: {p:?}"));
    }
    let sum: f64 = p.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(format!("{what} sums to {sum}, expected 1"));
    }
    Ok(())
}

/// Normalizes a non-negative vector in place to sum to 1.
///
/// Returns `false` (leaving a uniform distribution) when the sum is zero or
/// non-finite — the caller observed something impossible under every state,
/// and a uniform reset is the standard robust fallback.
pub(crate) fn normalize(v: &mut [f64]) -> bool {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        for x in v.iter_mut() {
            *x /= sum;
        }
        true
    } else {
        let u = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = u;
        }
        false
    }
}

#[cfg(test)]
pub(crate) fn toy_hmm() -> Hmm {
    // The 3-state example of Figure 8 in the paper.
    Hmm::new(
        vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        Matrix::from_rows(&[
            vec![0.972, 0.012, 0.016],
            vec![0.055, 0.935, 0.010],
            vec![0.025, 0.005, 0.970],
        ]),
        vec![
            Emission::Gaussian(Gaussian::new(1.43, 0.15)),
            Emission::Gaussian(Gaussian::new(2.41, 0.49)),
            Emission::Gaussian(Gaussian::new(0.20, 0.10)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validate_catches_bad_shapes() {
        let good = toy_hmm();
        assert!(good.validate().is_ok());

        let mut bad = good.clone();
        bad.initial = vec![0.5, 0.5];
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.initial = vec![0.5, 0.4, 0.2]; // sums to 1.1
        assert!(bad.validate().is_err());
    }

    #[test]
    fn propagate_preserves_mass() {
        let hmm = toy_hmm();
        let pi = vec![0.2, 0.3, 0.5];
        let next = hmm.propagate(&pi);
        assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_k_composes() {
        let hmm = toy_hmm();
        let pi = vec![1.0, 0.0, 0.0];
        let two = hmm.propagate(&hmm.propagate(&pi));
        let viak = hmm.propagate_k(&pi, 2);
        for (a, b) in two.iter().zip(&viak) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_distribution_is_fixed_point() {
        let hmm = toy_hmm();
        let pi = hmm.stationary_distribution().unwrap();
        let next = hmm.propagate(&pi);
        for (a, b) in pi.iter().zip(&next) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_sequence_lengths_and_state_range() {
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (states, obs) = hmm.sample_sequence(500, &mut rng);
        assert_eq!(states.len(), 500);
        assert_eq!(obs.len(), 500);
        assert!(states.iter().all(|&s| s < 3));
    }

    #[test]
    fn sampled_observations_cluster_near_state_means() {
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (states, obs) = hmm.sample_sequence(5_000, &mut rng);
        for (s, mu) in [(0usize, 1.43), (1, 2.41), (2, 0.20)] {
            let vals: Vec<f64> = states
                .iter()
                .zip(&obs)
                .filter(|(st, _)| **st == s)
                .map(|(_, &o)| o)
                .collect();
            assert!(vals.len() > 100, "state {s} undersampled");
            let m = crate::stats::mean(&vals).unwrap();
            assert!((m - mu).abs() < 0.1, "state {s}: mean {m} far from {mu}");
        }
    }

    #[test]
    fn sampled_chain_has_persistent_states() {
        // Observation 2 of the paper: states persist. With self-transition
        // probabilities >0.93, runs should be long on average.
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (states, _) = hmm.sample_sequence(10_000, &mut rng);
        let switches = states.windows(2).filter(|w| w[0] != w[1]).count();
        let switch_rate = switches as f64 / (states.len() - 1) as f64;
        assert!(switch_rate < 0.08, "switch rate {switch_rate} too high");
    }

    #[test]
    fn emission_vector_matches_pdfs() {
        let hmm = toy_hmm();
        let e = hmm.emission_vector(1.43);
        assert_eq!(e.len(), 3);
        // Observation right at state 0's mean: state 0 has the highest density
        // per unit sigma... compare directly against pdfs.
        for (i, em) in hmm.emissions.iter().enumerate() {
            assert!((e[i] - em.pdf(1.43)).abs() < 1e-15);
        }
    }

    #[test]
    fn lognormal_emission_mean_and_support() {
        let e = Emission::LogNormal(Gaussian::new(0.0, 0.5));
        assert!((e.mean() - (0.125f64).exp()).abs() < 1e-12);
        assert_eq!(e.log_pdf(-1.0), f64::NEG_INFINITY);
        assert_eq!(e.log_pdf(0.0), f64::NEG_INFINITY);
        assert!(e.log_pdf(1.0).is_finite());
    }

    #[test]
    fn lognormal_pdf_integrates_to_one() {
        let e = Emission::LogNormal(Gaussian::new(0.2, 0.4));
        let (lo, hi, n) = (1e-6, 30.0, 300_000);
        let dx = (hi - lo) / n as f64;
        let sum: f64 = (0..n).map(|i| e.pdf(lo + (i as f64 + 0.5) * dx) * dx).sum();
        assert!((sum - 1.0).abs() < 1e-3, "integral {sum}");
    }

    #[test]
    fn normalize_handles_zero_vector() {
        let mut v = vec![0.0, 0.0];
        assert!(!normalize(&mut v));
        assert_eq!(v, vec![0.5, 0.5]);
        let mut v = vec![2.0, 6.0];
        assert!(normalize(&mut v));
        assert_eq!(v, vec![0.25, 0.75]);
    }

    #[test]
    fn categorical_sampling_matches_probs() {
        let probs = [0.1, 0.6, 0.3];
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        for (c, p) in counts.iter().zip(&probs) {
            let freq = *c as f64 / 30_000.0;
            assert!((freq - p).abs() < 0.02, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let hmm = toy_hmm();
        let s = serde_json::to_string(&hmm).unwrap();
        let back: Hmm = serde_json::from_str(&s).unwrap();
        assert_eq!(hmm, back);
    }
}
