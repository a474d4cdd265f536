//! Scaled forward and backward recursions (Rabiner's method) over one
//! reusable lattice.
//!
//! Raw forward probabilities underflow after a few dozen epochs, so each
//! step's `alpha` vector is renormalized and the scale factor remembered;
//! the sequence log-likelihood is the sum of log scale factors. The same
//! scales are reused in the backward pass so that
//! `gamma_t(i) ∝ alpha_t(i) * beta_t(i)` stays well-conditioned — exactly
//! what Baum–Welch needs.
//!
//! [`Lattice`] is the E-step's only kernel. Per sequence it evaluates each
//! emission density once into a flat `T x N` table (the forward step fills
//! row `t`; the backward recursion and `xi` read it back), over flat
//! buffers sized once for the longest sequence. The order of every product
//! and sum is frozen — `(alpha P) b`, `(P b) beta`, `((alpha P) b) beta` —
//! because trained parameters are pinned bit for bit (DESIGN.md §3i).

use super::Hmm;

/// Output of the scaled forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// `alpha[t][i] = P(X_t = i | W_{1..t})` — *scaled* forward variables,
    /// i.e. each row is already normalized to sum to 1.
    pub alpha: Vec<Vec<f64>>,
    /// Per-step normalizers `c_t = P(W_t | W_{1..t-1})`.
    pub scales: Vec<f64>,
    /// `log P(W_{1..T})` under the model.
    pub log_likelihood: f64,
}

/// Runs the scaled forward recursion over `obs`.
///
/// An empty observation sequence yields empty tables and log-likelihood 0.
pub fn forward(hmm: &Hmm, obs: &[f64]) -> ForwardResult {
    let mut lattice = Lattice::new(hmm.n_states(), obs.len());
    lattice.set_model(hmm);
    let log_likelihood = lattice.forward(hmm, obs);
    ForwardResult {
        alpha: (0..obs.len()).map(|t| lattice.alpha(t).to_vec()).collect(),
        scales: lattice.scales,
        log_likelihood,
    }
}

/// One scaled forward step: the emission densities of `w` into `emit`,
/// the normalized `alpha_t` into `cur`; returns the scale `c_t`.
/// `prev` is `alpha_{t-1}`, `None` at `t = 0`.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook recursions
fn forward_step(
    hmm: &Hmm,
    ln_sigma: &[f64],
    w: f64,
    prev: Option<&[f64]>,
    emit: &mut [f64],
    cur: &mut [f64],
) -> f64 {
    let n = cur.len();
    let p = hmm.transition.data();
    for j in 0..n {
        emit[j] = hmm.emissions[j].log_pdf_given(w, ln_sigma[j]).exp();
        let reach = match prev {
            None => hmm.initial[j],
            Some(prev) => {
                let mut sum = 0.0;
                for i in 0..n {
                    sum += prev[i] * p[i * n + j];
                }
                sum
            }
        };
        cur[j] = reach * emit[j];
    }
    let c: f64 = cur.iter().sum();
    if c > 0.0 && c.is_finite() {
        for x in cur.iter_mut() {
            *x /= c;
        }
        c
    } else {
        // Observation impossible under every state (deep tail): reset to
        // the propagated prior (or initial) and charge a large penalty
        // so the likelihood still reflects the miss.
        match prev {
            None => cur.copy_from_slice(&hmm.initial),
            Some(prev) => hmm.transition.vecmat_into(prev, cur),
        }
        f64::MIN_POSITIVE
    }
}

/// The forward half alone, over two rolling `alpha` rows: what
/// [`Hmm::log_likelihood`] needs, in memory independent of `obs.len()`.
pub(super) fn log_likelihood(hmm: &Hmm, obs: &[f64]) -> f64 {
    let n = hmm.n_states();
    let ln_sigma: Vec<f64> = hmm.emissions.iter().map(|e| e.ln_sigma()).collect();
    let mut rows = vec![0.0; 3 * n];
    let (emit, alpha) = rows.split_at_mut(n);
    let (mut prev, mut cur) = alpha.split_at_mut(n);
    let mut log_likelihood = 0.0;
    for (t, &w) in obs.iter().enumerate() {
        let before = (t > 0).then_some(&*prev);
        log_likelihood += forward_step(hmm, &ln_sigma, w, before, emit, cur).ln();
        std::mem::swap(&mut prev, &mut cur);
    }
    log_likelihood
}

/// The E-step workspace: emission table, `alpha`, `beta`, `gamma` (flat,
/// row `t` at `t * n`), scales and one `n x n` scratch for `xi_t`. Built
/// once per training run and reused across sequences and iterations.
pub(super) struct Lattice {
    n: usize,
    ln_sigma: Vec<f64>,
    emit: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    gamma: Vec<f64>,
    scales: Vec<f64>,
    xi: Vec<f64>,
}

#[allow(clippy::needless_range_loop)] // index loops mirror the textbook recursions
impl Lattice {
    /// A lattice for `n` states and sequences of up to `t_max` epochs.
    pub(super) fn new(n: usize, t_max: usize) -> Self {
        let table = vec![0.0; t_max * n];
        Lattice {
            n,
            ln_sigma: vec![0.0; n],
            emit: table.clone(),
            alpha: table.clone(),
            beta: table.clone(),
            gamma: table,
            scales: vec![0.0; t_max],
            xi: vec![0.0; n * n],
        }
    }

    /// Hoists `ln sigma` out of the densities; call whenever the model's
    /// emissions change (once per EM iteration).
    pub(super) fn set_model(&mut self, hmm: &Hmm) {
        for (ls, e) in self.ln_sigma.iter_mut().zip(&hmm.emissions) {
            *ls = e.ln_sigma();
        }
    }

    fn alpha(&self, t: usize) -> &[f64] {
        &self.alpha[t * self.n..(t + 1) * self.n]
    }

    /// Smoothed posterior `gamma_t` of the last [`smooth`](Self::smooth).
    pub(super) fn gamma(&self, t: usize) -> &[f64] {
        &self.gamma[t * self.n..(t + 1) * self.n]
    }

    /// Fills the emission table, `alpha` and the scales for `obs`;
    /// returns the sequence log-likelihood.
    fn forward(&mut self, hmm: &Hmm, obs: &[f64]) -> f64 {
        let n = self.n;
        let mut log_likelihood = 0.0;
        for (t, &w) in obs.iter().enumerate() {
            let (done, rest) = self.alpha.split_at_mut(t * n);
            let prev = (t > 0).then(|| &done[(t - 1) * n..]);
            let emit = &mut self.emit[t * n..(t + 1) * n];
            self.scales[t] = forward_step(hmm, &self.ln_sigma, w, prev, emit, &mut rest[..n]);
            log_likelihood += self.scales[t].ln();
        }
        log_likelihood
    }

    /// Scaled backward recursion over the emission table and scales the
    /// forward pass left behind, then `gamma_t(i) ∝ alpha_t(i) beta_t(i)`.
    fn backward(&mut self, hmm: &Hmm, t_max: usize) {
        let n = self.n;
        for t in (0..t_max).rev() {
            let (head, tail) = self.beta.split_at_mut((t + 1) * n);
            let beta = &mut head[t * n..];
            if t + 1 == t_max {
                beta.fill(1.0);
            } else {
                let c = self.scales[t + 1].max(f64::MIN_POSITIVE);
                let (emit, next) = (&self.emit[(t + 1) * n..(t + 2) * n], &tail[..n]);
                for i in 0..n {
                    let p = &hmm.transition.row(i)[..n];
                    let mut sum = 0.0;
                    for j in 0..n {
                        sum += p[j] * emit[j] * next[j];
                    }
                    beta[i] = sum / c;
                }
            }
            let gamma = &mut self.gamma[t * n..(t + 1) * n];
            for i in 0..n {
                gamma[i] = self.alpha[t * n + i] * beta[i];
            }
            super::normalize(gamma);
        }
    }

    /// The whole E-step pass for one sequence — emission table, forward,
    /// backward, `gamma` — after which [`gamma`](Self::gamma) and
    /// [`xi`](Self::xi) answer for it. Returns the log-likelihood.
    pub(super) fn smooth(&mut self, hmm: &Hmm, obs: &[f64]) -> f64 {
        let log_likelihood = self.forward(hmm, obs);
        self.backward(hmm, obs.len());
        log_likelihood
    }

    /// Unnormalized `xi_t(i, j) = alpha_t(i) P_ij e_j(w_{t+1}) beta_{t+1}(j)`
    /// (row-major) and its total, or `None` when the total cannot
    /// normalize it. `t + 1` must be inside the smoothed sequence.
    pub(super) fn xi(&mut self, hmm: &Hmm, t: usize) -> Option<(&[f64], f64)> {
        let n = self.n;
        let emit = &self.emit[(t + 1) * n..(t + 2) * n];
        let next = &self.beta[(t + 1) * n..(t + 2) * n];
        let mut total = 0.0;
        for i in 0..n {
            let (a, p) = (self.alpha[t * n + i], &hmm.transition.row(i)[..n]);
            let xi = &mut self.xi[i * n..(i + 1) * n];
            for j in 0..n {
                xi[j] = a * p[j] * emit[j] * next[j];
                total += xi[j];
            }
        }
        (total > 0.0 && total.is_finite()).then_some((&self.xi[..], total))
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::super::toy_hmm;
    use super::*;

    #[test]
    fn forward_rows_are_normalized() {
        let hmm = toy_hmm();
        let obs = [1.4, 1.5, 2.3, 2.5, 0.2, 0.25];
        let f = forward(&hmm, &obs);
        assert_eq!(f.alpha.len(), obs.len());
        for row in &f.alpha {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_identifies_obvious_state() {
        let hmm = toy_hmm();
        // Observations sitting on state 1's mean (2.41) should concentrate
        // the posterior there.
        let obs = [2.41, 2.41, 2.41, 2.41];
        let f = forward(&hmm, &obs);
        let last = f.alpha.last().unwrap();
        let argmax = last
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 1);
        assert!(last[1] > 0.95);
    }

    #[test]
    fn log_likelihood_matches_bruteforce_two_steps() {
        // Brute-force P(w1, w2) = sum_{i,j} pi_i e_i(w1) P_ij e_j(w2).
        let hmm = toy_hmm();
        let obs = [1.3, 2.2];
        let mut p = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                p += hmm.initial[i]
                    * hmm.emissions[i].pdf(obs[0])
                    * hmm.transition[(i, j)]
                    * hmm.emissions[j].pdf(obs[1]);
            }
        }
        let f = forward(&hmm, &obs);
        assert!((f.log_likelihood - p.ln()).abs() < 1e-9);
    }

    #[test]
    fn forward_no_underflow_on_long_sequence() {
        let hmm = toy_hmm();
        let obs: Vec<f64> = (0..5_000).map(|i| 1.4 + 0.01 * ((i % 7) as f64)).collect();
        let f = forward(&hmm, &obs);
        assert!(f.log_likelihood.is_finite());
        for row in &f.alpha {
            assert!(row.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn forward_survives_impossible_observation() {
        let hmm = toy_hmm();
        // 1e6 Mbps is essentially impossible under every state.
        let obs = [1.4, 1.0e6, 1.4];
        let f = forward(&hmm, &obs);
        assert!(f.log_likelihood.is_finite());
        for row in &f.alpha {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_empty_sequence() {
        let hmm = toy_hmm();
        let f = forward(&hmm, &[]);
        assert!(f.alpha.is_empty());
        assert_eq!(f.log_likelihood, 0.0);
    }

    fn smoothed(hmm: &Hmm, obs: &[f64]) -> Lattice {
        let mut lattice = Lattice::new(hmm.n_states(), obs.len());
        lattice.set_model(hmm);
        lattice.smooth(hmm, obs);
        lattice
    }

    #[test]
    fn backward_terminal_is_ones() {
        let hmm = toy_hmm();
        let l = smoothed(&hmm, &[1.4, 2.3, 0.2]);
        assert_eq!(l.beta[2 * 3..3 * 3], [1.0; 3]);
    }

    #[test]
    fn gamma_is_a_valid_posterior() {
        let hmm = toy_hmm();
        let obs = [1.4, 1.5, 2.4, 2.3, 0.2];
        let l = smoothed(&hmm, &obs);
        for t in 0..obs.len() {
            let gamma = l.gamma(t);
            assert!((gamma.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(gamma.iter().all(|&g| (0.0..=1.0).contains(&g)));
        }
    }

    #[test]
    fn gamma_at_last_step_equals_filtered_alpha() {
        // beta_T = 1, so gamma_T must equal alpha_T exactly.
        let hmm = toy_hmm();
        let obs = [1.4, 2.4, 0.2, 0.22];
        let l = smoothed(&hmm, &obs);
        let t = obs.len() - 1;
        for i in 0..3 {
            assert!((l.gamma(t)[i] - l.alpha(t)[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn xi_rows_sum_to_gamma() {
        // sum_j xi_t(i, j) = gamma_t(i) for every t < T - 1.
        let hmm = toy_hmm();
        let obs = [1.4, 1.5, 2.4, 2.3, 0.2];
        let mut l = smoothed(&hmm, &obs);
        for t in 0..obs.len() - 1 {
            let (xi, total) = l.xi(&hmm, t).expect("every step is possible");
            let rows: Vec<f64> = xi
                .chunks(3)
                .map(|r| r.iter().sum::<f64>() / total)
                .collect();
            for (row, g) in rows.iter().zip(l.gamma(t)) {
                assert!((row - g).abs() < 1e-12, "t = {t}: {row} vs {g}");
            }
        }
    }

    #[test]
    fn a_shorter_sequence_reuses_a_longer_lattice() {
        let hmm = toy_hmm();
        let (long, short) = ([1.4, 1.5, 2.4, 2.3, 0.2, 0.25], [2.2, 0.3]);
        let mut l = smoothed(&hmm, &long);
        let ll = l.smooth(&hmm, &short);
        let fresh = smoothed(&hmm, &short);
        assert_eq!(ll.to_bits(), forward(&hmm, &short).log_likelihood.to_bits());
        assert_eq!(l.gamma(0), fresh.gamma(0));
        assert_eq!(l.gamma(1), fresh.gamma(1));
    }

    #[test]
    fn log_likelihood_is_the_forward_pass_to_the_bit() {
        let hmm = toy_hmm();
        let long: Vec<f64> = (0..300)
            .map(|i| 0.2 + 0.01 * ((i * 7) % 250) as f64)
            .collect();
        // Empty, one step, the reset branch at t = 0, mid-sequence and last.
        let cases: [&[f64]; 6] = [
            &[],
            &[1.4],
            &[1.0e6, 1.4, 2.4],
            &[1.4, 1.0e6, 2.4],
            &[1.4, 2.4, 1.0e6],
            &long,
        ];
        for obs in cases {
            assert_eq!(
                hmm.log_likelihood(obs).to_bits(),
                forward(&hmm, obs).log_likelihood.to_bits(),
                "{} observations",
                obs.len()
            );
        }
    }
}
