//! The online prediction filter — the math of Algorithm 1 in the paper.
//!
//! Per epoch the player (or server) does two things:
//!
//! 1. **Predict** the next epoch's throughput: propagate the state
//!    posterior one step (`pi_{t|1:t-1} = pi_{t-1|1:t-1} P`, Eq. 7) and
//!    output the mean of the maximum-likelihood state (`W_hat = mu_x`,
//!    `x = argmax`, Eq. 8).
//! 2. **Update** once the actual throughput `w_t` is measured: multiply by
//!    the emission vector and renormalize
//!    (`pi_{t|1:t} = pi_{t|1:t-1} ⊙ e(w_t) / |...|`, Eq. 9).
//!
//! The struct is intentionally tiny — the paper stresses that a client
//! needs "<5 KB" of model and "two matrix multiplication operations" per
//! prediction, which is literally what this does.

use super::Hmm;

/// Online HMM filter over one session (Algorithm 1): a model and the
/// [`FilterState`] it advances. Holders of a bare `FilterState` (the
/// prediction server's session table) call the state's own
/// [`observe`](FilterState::observe) /
/// [`predict_horizon`](FilterState::predict_horizon) in place instead of
/// moving it through a filter and back.
#[derive(Debug, Clone)]
pub struct HmmFilter<'a> {
    hmm: &'a Hmm,
    state: FilterState,
}

impl<'a> HmmFilter<'a> {
    /// Starts a fresh filter at the model's initial state distribution.
    pub fn new(hmm: &'a Hmm) -> Self {
        HmmFilter {
            state: FilterState::new(hmm),
            hmm,
        }
    }

    /// The model this filter runs.
    pub fn hmm(&self) -> &Hmm {
        self.hmm
    }

    /// Number of observations consumed.
    pub fn epoch(&self) -> usize {
        self.state.epoch
    }

    /// Current state posterior: `pi_0` before any observation, otherwise
    /// `pi_{t|1:t}` for the last observed epoch `t`.
    pub fn posterior(&self) -> &[f64] {
        &self.state.posterior
    }

    /// Distribution of the state `k >= 1` epochs past the last observation.
    ///
    /// Before any observation, `k = 1` refers to the first epoch and the
    /// answer is `pi_0` itself (the initial distribution is *of* the first
    /// state); afterwards it is the posterior propagated `k` steps.
    pub fn predicted_distribution(&self, k: usize) -> Vec<f64> {
        assert!(k >= 1, "prediction horizon must be at least 1");
        if self.state.epoch == 0 {
            self.hmm.propagate_k(&self.state.posterior, k - 1)
        } else {
            self.hmm.propagate_k(&self.state.posterior, k)
        }
    }

    /// MLE throughput prediction for the next epoch (Eq. 8):
    /// the emission mean of the most probable predicted state.
    pub fn predict_next(&self) -> f64 {
        self.predict_ahead(1)
    }

    /// MLE throughput prediction `k` epochs ahead (used for Figure 9c's
    /// look-ahead-horizon study). A caller that wants the whole window
    /// `1..=h` asks [`predict_horizon`](Self::predict_horizon) instead:
    /// this re-propagates from the posterior on every call.
    pub fn predict_ahead(&self, k: usize) -> f64 {
        mle_readout(self.hmm, &self.predicted_distribution(k))
    }

    /// The whole look-ahead window at once — what MPC asks for before
    /// every decision: `out[k - 1]` is bit-identical to
    /// [`predict_ahead(k)`](Self::predict_ahead), at one propagation per
    /// step.
    pub fn predict_horizon(&self, out: &mut [f64]) {
        self.state.predict_horizon(self.hmm, out);
    }

    /// Most probable state for the next epoch.
    #[cfg(test)]
    fn map_state(&self) -> usize {
        argmax(&self.predicted_distribution(1))
    }

    /// Consumes the measured throughput of the next epoch (Eq. 9).
    pub fn observe(&mut self, w: f64) {
        self.state.observe(self.hmm, w);
    }

    /// Resets to the initial distribution (new session, same cluster).
    pub fn reset(&mut self) {
        self.state = FilterState::new(self.hmm);
    }

    /// Snapshots the filter state for external storage (e.g. a prediction
    /// server holding per-session state across requests).
    pub fn state(&self) -> FilterState {
        self.state.clone()
    }

    /// Restores a filter from a snapshot taken with [`state`](Self::state).
    /// Panics when the snapshot's width doesn't match the model.
    pub fn from_state(hmm: &'a Hmm, state: FilterState) -> Self {
        state.check_width(hmm);
        HmmFilter { hmm, state }
    }
}

/// An [`HmmFilter`]'s per-session state: serializable, and advanced in
/// place against the model that produced it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FilterState {
    /// Distribution of the state at the *next unobserved epoch* when
    /// `epoch == 0` (i.e. `pi_0`), or of the last observed epoch otherwise.
    pub posterior: Vec<f64>,
    /// Number of observations consumed.
    pub epoch: usize,
}

impl FilterState {
    /// The state of a fresh session: the model's initial distribution.
    pub fn new(hmm: &Hmm) -> Self {
        FilterState {
            posterior: hmm.initial.clone(),
            epoch: 0,
        }
    }

    /// Panics when this state was not produced by a model of `hmm`'s
    /// width — the one condition every operation below relies on.
    fn check_width(&self, hmm: &Hmm) {
        assert_eq!(
            self.posterior.len(),
            hmm.n_states(),
            "filter state width does not match model"
        );
    }

    /// Eq. 9 in place: `posterior <- normalize(predicted ⊙ e(w))`, where
    /// `predicted` is `pi_0` itself before the first observation and
    /// `posterior P` afterwards. One scratch vector, none at epoch 0.
    pub fn observe(&mut self, hmm: &Hmm, w: f64) {
        self.check_width(hmm);
        if self.epoch > 0 {
            let mut predicted = vec![0.0; self.posterior.len()];
            hmm.transition.vecmat_into(&self.posterior, &mut predicted);
            self.posterior = predicted;
        }
        for (p, e) in self.posterior.iter_mut().zip(&hmm.emissions) {
            *p *= e.pdf(w);
        }
        // `normalize` falls back to uniform when the observation is
        // impossible under every state (total mass 0) — the robust reset.
        super::normalize(&mut self.posterior);
        self.epoch += 1;
    }

    /// Fills `out[k - 1]` with the MLE prediction `k` epochs ahead for
    /// `k = 1..=out.len()`. The distribution is carried from one step to
    /// the next — `out.len()` propagations (one fewer before the first
    /// observation, where step 1 is `pi_0` itself) over one scratch
    /// allocation whatever the horizon — through the same
    /// [`vecmat`](crate::matrix::Matrix::vecmat) operations
    /// [`HmmFilter::predict_ahead`] performs from scratch for each `k`,
    /// so every entry has the same bits.
    pub fn predict_horizon(&self, hmm: &Hmm, out: &mut [f64]) {
        self.check_width(hmm);
        let Some((first, rest)) = out.split_first_mut() else {
            return;
        };
        let n = self.posterior.len();
        let mut scratch = vec![0.0; 2 * n];
        let (mut cur, mut next) = scratch.split_at_mut(n);
        if self.epoch == 0 {
            cur.copy_from_slice(&self.posterior);
        } else {
            hmm.transition.vecmat_into(&self.posterior, cur);
        }
        *first = mle_readout(hmm, cur);
        for slot in rest {
            hmm.transition.vecmat_into(cur, next);
            std::mem::swap(&mut cur, &mut next);
            *slot = mle_readout(hmm, cur);
        }
    }
}

/// Eq. 8: the emission mean of the most probable state of `dist`.
fn mle_readout(hmm: &Hmm, dist: &[f64]) -> f64 {
    hmm.emissions[argmax(dist)].mean()
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .expect("argmax of empty vector")
}

#[cfg(test)]
mod tests {
    use super::super::toy_hmm;
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn posterior_stays_normalized() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for w in [1.4, 1.5, 2.4, 0.2, 0.21, 2.38] {
            f.observe(w);
            assert!((f.posterior().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(f.epoch(), 6);
    }

    #[test]
    fn filter_locks_onto_persistent_state() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for _ in 0..5 {
            f.observe(2.41);
        }
        assert_eq!(f.map_state(), 1);
        // Prediction is the MLE state's mean.
        assert!((f.predict_next() - 2.41).abs() < 1e-9);
    }

    #[test]
    fn filter_tracks_state_switch() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        for _ in 0..5 {
            f.observe(2.41);
        }
        // Throughput drops to state 2's regime (0.20 Mbps).
        for _ in 0..3 {
            f.observe(0.20);
        }
        assert_eq!(f.map_state(), 2);
        assert!((f.predict_next() - 0.20).abs() < 1e-9);
    }

    #[test]
    fn prediction_matches_manual_two_matmuls() {
        // The paper's claim: a prediction is two matrix multiplications.
        // Reproduce predict after one observation by hand.
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        let w = 1.5;
        f.observe(w);

        // Manual: post ∝ pi_0 ⊙ e(w); pred_dist = post * P.
        let e = hmm.emission_vector(w);
        let mut post: Vec<f64> = hmm.initial.iter().zip(&e).map(|(p, q)| p * q).collect();
        let s: f64 = post.iter().sum();
        for x in post.iter_mut() {
            *x /= s;
        }
        let pred_dist = hmm.propagate(&post);
        let x = pred_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((f.predict_next() - hmm.emissions[x].mean()).abs() < 1e-12);
    }

    #[test]
    fn initial_prediction_uses_pi0_without_propagation() {
        let hmm = toy_hmm();
        let f = hmm.filter();
        let d1 = f.predicted_distribution(1);
        assert_eq!(d1, hmm.initial);
        let d2 = f.predicted_distribution(2);
        assert_eq!(d2, hmm.propagate(&hmm.initial));
    }

    #[test]
    fn horizon_consistency_after_observation() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(1.4);
        let d1 = f.predicted_distribution(1);
        let d2 = f.predicted_distribution(2);
        let d2_via_d1 = hmm.propagate(&d1);
        for (a, b) in d2.iter().zip(&d2_via_d1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn long_horizon_approaches_stationary_prediction() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.41);
        let stationary = hmm.stationary_distribution().unwrap();
        let far = f.predicted_distribution(5_000);
        for (a, b) in far.iter().zip(&stationary) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn impossible_observation_resets_to_uniform() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(1.0e9);
        let u = 1.0 / 3.0;
        for p in f.posterior() {
            assert!((p - u).abs() < 1e-12);
        }
    }

    #[test]
    fn state_snapshot_roundtrip() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.4);
        f.observe(2.38);
        let snap = f.state();
        let restored = HmmFilter::from_state(&hmm, snap.clone());
        assert_eq!(restored.posterior(), f.posterior());
        assert_eq!(restored.epoch(), f.epoch());
        assert_eq!(restored.predict_next(), f.predict_next());
        // Snapshot is serializable (server-side session tables).
        let json = serde_json::to_string(&snap).unwrap();
        let back: FilterState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    /// A random `n`-state model; sparse rows put exact zeros into the
    /// propagated distributions (the entries `vecmat` skips).
    fn random_hmm(rng: &mut ChaCha8Rng, n: usize) -> Hmm {
        use crate::gaussian::Gaussian;
        use crate::hmm::Emission;
        use rand::Rng;
        let dist = |rng: &mut ChaCha8Rng| {
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        0.0
                    } else {
                        rng.gen_range(0.01..1.0)
                    }
                })
                .collect();
            v[rng.gen_range(0..n)] += 0.5;
            let sum: f64 = v.iter().sum();
            v.iter().map(|x| x / sum).collect::<Vec<f64>>()
        };
        let initial = dist(rng);
        let rows: Vec<Vec<f64>> = (0..n).map(|_| dist(rng)).collect();
        let emissions = (0..n)
            .map(|i| {
                let g = Gaussian::new(rng.gen_range(0.2..6.0), rng.gen_range(0.05..0.8));
                if i % 2 == 0 {
                    Emission::Gaussian(g)
                } else {
                    Emission::LogNormal(g)
                }
            })
            .collect();
        Hmm::new(initial, crate::matrix::Matrix::from_rows(&rows), emissions)
    }

    fn assert_horizon_is_predict_ahead(f: &HmmFilter<'_>, what: &str) {
        for h in 0..=32 {
            let mut out = vec![f64::NAN; h];
            f.predict_horizon(&mut out);
            for (i, got) in out.iter().enumerate() {
                let want = f.predict_ahead(i + 1);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: h={h} k={}", i + 1);
            }
        }
    }

    #[test]
    fn predict_horizon_is_predict_ahead_bit_for_bit() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut models = vec![toy_hmm()];
        for n in 1..=8 {
            models.push(random_hmm(&mut rng, n));
        }
        for (m, hmm) in models.iter().enumerate() {
            let mut f = hmm.filter();
            assert_horizon_is_predict_ahead(&f, &format!("model {m}, epoch 0"));
            for t in 0..12 {
                f.observe(rng.gen_range(0.05..8.0));
                assert_horizon_is_predict_ahead(&f, &format!("model {m}, epoch {}", t + 1));
            }
            // Impossible under every state: the posterior resets to uniform.
            f.observe(-1.0e300);
            let u = 1.0 / hmm.n_states() as f64;
            assert!(f.posterior().iter().all(|p| *p == u));
            assert_horizon_is_predict_ahead(&f, &format!("model {m}, after uniform reset"));
        }
    }

    #[test]
    fn in_place_observe_matches_the_three_vector_update() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for n in 1..=8 {
            let hmm = random_hmm(&mut rng, n);
            let mut f = hmm.filter();
            for _ in 0..20 {
                let w = if rng.gen_bool(0.1) {
                    1.0e300
                } else {
                    rng.gen_range(0.05..8.0)
                };
                // Eq. 9 as it was written before the in-place update.
                let predicted = f.predicted_distribution(1);
                let e = hmm.emission_vector(w);
                let mut want: Vec<f64> = predicted.iter().zip(&e).map(|(p, q)| p * q).collect();
                crate::hmm::normalize(&mut want);
                f.observe(w);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(f.posterior()), bits(&want));
            }
        }
    }

    #[test]
    fn borrowed_state_steps_like_an_owned_filter() {
        let hmm = toy_hmm();
        let mut owned = hmm.filter();
        let mut state = FilterState::new(&hmm);
        assert_eq!(state, owned.state());
        for w in [1.4, 2.4, 0.2, 1.0e9, 2.38] {
            owned.observe(w);
            state.observe(&hmm, w);
            assert_eq!(state, owned.state());
            let (mut a, mut b) = ([0.0; 5], [0.0; 5]);
            owned.predict_horizon(&mut a);
            state.predict_horizon(&hmm, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn borrowed_state_rejects_wrong_width() {
        let hmm = toy_hmm();
        let mut state = FilterState {
            posterior: vec![0.5, 0.5],
            epoch: 1,
        };
        state.observe(&hmm, 1.0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn from_state_rejects_wrong_width() {
        let hmm = toy_hmm();
        HmmFilter::from_state(
            &hmm,
            FilterState {
                posterior: vec![0.5, 0.5],
                epoch: 1,
            },
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let hmm = toy_hmm();
        let mut f = hmm.filter();
        f.observe(2.4);
        f.observe(2.4);
        f.reset();
        assert_eq!(f.epoch(), 0);
        assert_eq!(f.posterior(), hmm.initial.as_slice());
    }

    #[test]
    fn filter_beats_last_sample_on_noisy_stateful_trace() {
        // End-to-end sanity: on data generated by the model itself, the HMM
        // filter should have lower mean absolute error than Last-Sample.
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut err_hmm = 0.0;
        let mut err_ls = 0.0;
        let mut count = 0.0;
        for _ in 0..40 {
            let (_, obs) = hmm.sample_sequence(120, &mut rng);
            let mut f = hmm.filter();
            f.observe(obs[0]);
            for t in 1..obs.len() {
                let pred = f.predict_next();
                err_hmm += (pred - obs[t]).abs() / obs[t].abs().max(1e-9);
                err_ls += (obs[t - 1] - obs[t]).abs() / obs[t].abs().max(1e-9);
                count += 1.0;
                f.observe(obs[t]);
            }
        }
        let (err_hmm, err_ls) = (err_hmm / count, err_ls / count);
        assert!(
            err_hmm < err_ls,
            "HMM filter ({err_hmm:.4}) should beat last-sample ({err_ls:.4})"
        );
    }
}
