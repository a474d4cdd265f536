//! The E-step as it was before the lattice — one `Vec` per time step, a
//! fresh `xi` matrix per step, every emission density evaluated where it
//! is used (`2N² + N` times per observation) — kept as the reference the
//! lattice trainer is held to, bit for bit.
//!
//! Nothing outside tests calls this. The differential below is what
//! allows [`super::forward::Lattice`] to be the only E-step in the crate:
//! any reordering of a product or a sum in it moves a bit here first.

use super::baum_welch::{
    prior_usable, train_seeded, EmissionFamily, TrainConfig, TRANSITION_FLOOR,
};
use super::forward::ForwardResult;
use super::init::kmeans_init;
use super::{Emission, Hmm};
use crate::gaussian::Gaussian;
use crate::matrix::Matrix;

#[allow(clippy::needless_range_loop)] // index loops mirror the textbook recursions
fn forward(hmm: &Hmm, obs: &[f64]) -> ForwardResult {
    let n = hmm.n_states();
    let mut alpha = Vec::with_capacity(obs.len());
    let mut scales = Vec::with_capacity(obs.len());
    let mut log_likelihood = 0.0;

    let mut prev: Vec<f64> = Vec::new();
    for (t, &w) in obs.iter().enumerate() {
        let mut cur = vec![0.0; n];
        if t == 0 {
            for i in 0..n {
                cur[i] = hmm.initial[i] * hmm.emissions[i].pdf(w);
            }
        } else {
            for j in 0..n {
                let mut sum = 0.0;
                for i in 0..n {
                    sum += prev[i] * hmm.transition[(i, j)];
                }
                cur[j] = sum * hmm.emissions[j].pdf(w);
            }
        }
        let c: f64 = cur.iter().sum();
        if c > 0.0 && c.is_finite() {
            for x in cur.iter_mut() {
                *x /= c;
            }
            log_likelihood += c.ln();
            scales.push(c);
        } else {
            let fallback = if t == 0 {
                hmm.initial.clone()
            } else {
                hmm.propagate(&prev)
            };
            cur = fallback;
            log_likelihood += f64::MIN_POSITIVE.ln();
            scales.push(f64::MIN_POSITIVE);
        }
        alpha.push(cur.clone());
        prev = cur;
    }

    ForwardResult {
        alpha,
        scales,
        log_likelihood,
    }
}

#[allow(clippy::needless_range_loop)]
fn backward(hmm: &Hmm, obs: &[f64], scales: &[f64]) -> Vec<Vec<f64>> {
    let n = hmm.n_states();
    let t_max = obs.len();
    let mut beta = vec![vec![0.0; n]; t_max];
    if t_max == 0 {
        return beta;
    }
    for i in 0..n {
        beta[t_max - 1][i] = 1.0;
    }
    for t in (0..t_max - 1).rev() {
        let c = scales[t + 1].max(f64::MIN_POSITIVE);
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                sum += hmm.transition[(i, j)] * hmm.emissions[j].pdf(obs[t + 1]) * beta[t + 1][j];
            }
            beta[t][i] = sum / c;
        }
    }
    beta
}

/// What a reference run produced: the fields of `TrainReport` that depend
/// on the arithmetic.
struct Reference {
    hmm: Hmm,
    log_likelihoods: Vec<f64>,
    converged: bool,
    final_rel_delta: f64,
}

#[allow(clippy::needless_range_loop)]
fn train_reference(
    sequences: &[Vec<f64>],
    config: &TrainConfig,
    prior: Option<&Hmm>,
) -> Option<Reference> {
    let nonempty: Vec<&Vec<f64>> = sequences.iter().filter(|s| !s.is_empty()).collect();
    if nonempty.is_empty() {
        return None;
    }
    let mut hmm = match prior {
        Some(p) if prior_usable(p, config) => p.clone(),
        _ => kmeans_init(&nonempty, config)?,
    };
    let n = config.n_states;

    let mut lls = Vec::new();
    let mut converged = false;
    let mut final_rel_delta = f64::INFINITY;

    for _iter in 0..config.max_iters {
        let mut ll_total = 0.0;
        let mut pi_acc = vec![0.0; n];
        let mut xi_acc = Matrix::zeros(n, n);
        let mut gamma_trans_acc = vec![0.0; n];
        let mut em_w = vec![0.0; n];
        let mut em_wx = vec![0.0; n];
        let mut em_wxx = vec![0.0; n];

        for seq in &nonempty {
            let f = forward(&hmm, seq);
            ll_total += f.log_likelihood;
            let beta = backward(&hmm, seq, &f.scales);
            let t_max = seq.len();

            let mut gamma = vec![vec![0.0; n]; t_max];
            for t in 0..t_max {
                for i in 0..n {
                    gamma[t][i] = f.alpha[t][i] * beta[t][i];
                }
                super::normalize(&mut gamma[t]);
            }

            for i in 0..n {
                pi_acc[i] += gamma[0][i];
            }
            for (t, &w) in seq.iter().enumerate() {
                let x = match config.family {
                    EmissionFamily::Gaussian => w,
                    EmissionFamily::LogNormal => w.ln(),
                };
                for i in 0..n {
                    let g = gamma[t][i];
                    em_w[i] += g;
                    em_wx[i] += g * x;
                    em_wxx[i] += g * x * x;
                }
            }

            for t in 0..t_max.saturating_sub(1) {
                let mut xi = Matrix::zeros(n, n);
                let mut total = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        let v = f.alpha[t][i]
                            * hmm.transition[(i, j)]
                            * hmm.emissions[j].pdf(seq[t + 1])
                            * beta[t + 1][j];
                        xi[(i, j)] = v;
                        total += v;
                    }
                }
                if total > 0.0 && total.is_finite() {
                    for i in 0..n {
                        for j in 0..n {
                            xi_acc[(i, j)] += xi[(i, j)] / total;
                        }
                        gamma_trans_acc[i] += gamma[t][i];
                    }
                }
            }
        }
        lls.push(ll_total);

        if lls.len() >= 2 {
            let prev = lls[lls.len() - 2];
            final_rel_delta = (ll_total - prev).abs() / prev.abs().max(1.0);
        }
        if lls.len() >= 2 && final_rel_delta < config.tol {
            converged = true;
            break;
        }

        let mut initial = pi_acc;
        super::normalize(&mut initial);

        let mut transition = Matrix::zeros(n, n);
        for i in 0..n {
            let denom = gamma_trans_acc[i];
            for j in 0..n {
                let num = xi_acc[(i, j)] + TRANSITION_FLOOR;
                transition[(i, j)] = if denom > 0.0 {
                    num / (denom + TRANSITION_FLOOR * n as f64)
                } else if i == j {
                    1.0
                } else {
                    0.0
                };
            }
            let mut row: Vec<f64> = transition.row(i).to_vec();
            super::normalize(&mut row);
            transition.row_mut(i).copy_from_slice(&row);
        }

        let emissions: Vec<Emission> = (0..n)
            .map(|i| {
                let (mu, sigma) = if em_w[i] > 0.0 {
                    let mu = em_wx[i] / em_w[i];
                    let var = (em_wxx[i] / em_w[i] - mu * mu).max(0.0);
                    (mu, var.sqrt())
                } else {
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

    Some(Reference {
        hmm,
        log_likelihoods: lls,
        converged,
        final_rel_delta,
    })
}

fn hmm_bits(hmm: &Hmm) -> Vec<u64> {
    let emissions = hmm.emissions.iter().flat_map(|e| match e {
        Emission::Gaussian(g) => [0.0, g.mu, g.sigma],
        Emission::LogNormal(g) => [1.0, g.mu, g.sigma],
    });
    hmm.initial
        .iter()
        .chain(hmm.transition.data())
        .copied()
        .chain(emissions)
        .map(f64::to_bits)
        .collect()
}

/// Trains both ways and requires every iteration's log-likelihood, the
/// stopping decision and every trained parameter to agree to the bit.
/// Returns the number of EM iterations run.
#[track_caller]
fn assert_same_training(
    what: &str,
    sequences: &[Vec<f64>],
    config: &TrainConfig,
    prior: Option<&Hmm>,
) -> usize {
    let reference = train_reference(sequences, config, prior).expect("reference trains");
    let (hmm, report) = train_seeded(sequences, config, prior).expect("lattice trains");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&report.log_likelihoods),
        bits(&reference.log_likelihoods),
        "{what}: per-iteration log-likelihoods"
    );
    assert_eq!(report.iterations, reference.log_likelihoods.len(), "{what}");
    assert_eq!(report.converged, reference.converged, "{what}: converged");
    assert_eq!(
        report.final_rel_delta.to_bits(),
        reference.final_rel_delta.to_bits(),
        "{what}: final_rel_delta"
    );
    assert_eq!(hmm_bits(&hmm), hmm_bits(&reference.hmm), "{what}: model");
    report.iterations
}

mod tests {
    use super::super::toy_hmm;
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn config(n_states: usize, family: EmissionFamily, seed: u64) -> TrainConfig {
        TrainConfig {
            n_states,
            max_iters: 12,
            tol: 1e-5,
            seed,
            family,
        }
    }

    /// Sequences of mixed length (1, 2 and longer) drawn from the toy
    /// model, made strictly positive so both families accept them.
    fn random_sequences(rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
        let hmm = toy_hmm();
        let n_seqs = rng.gen_range(1..8usize);
        (0..n_seqs)
            .map(|k| {
                let len = match k % 4 {
                    0 => rng.gen_range(3..60usize),
                    1 => 1,
                    2 => 2,
                    _ => rng.gen_range(1..12usize),
                };
                let (_, obs) = hmm.sample_sequence(len, rng);
                obs.into_iter().map(|w| w.abs().max(0.01)).collect()
            })
            .collect()
    }

    #[test]
    fn lattice_matches_reference_on_seeded_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1a77);
        for case in 0..48u64 {
            let sequences = random_sequences(&mut rng);
            for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
                let n_states = 1 + (case as usize % 8);
                let cfg = config(n_states, family, case);
                assert_same_training(
                    &format!("case {case}, {n_states} states, {family:?}"),
                    &sequences,
                    &cfg,
                    None,
                );
            }
        }
    }

    #[test]
    fn lattice_matches_reference_on_short_and_constant_sequences() {
        for family in [EmissionFamily::Gaussian, EmissionFamily::LogNormal] {
            for n_states in 1..=4 {
                let cfg = config(n_states, family, 3);
                assert_same_training("length 1", &[vec![1.5], vec![2.5], vec![0.3]], &cfg, None);
                assert_same_training("length 2", &[vec![1.5, 1.6], vec![0.3, 2.5]], &cfg, None);
                // Zero variance: every state's sigma is clamped to MIN_SIGMA.
                let constant = vec![vec![2.0; 30], vec![2.0; 7], vec![2.0]];
                assert_same_training("constant", &constant, &cfg, None);
            }
        }
    }

    #[test]
    fn lattice_matches_reference_through_the_reset_branch() {
        let hmm = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let clean: Vec<Vec<f64>> = (0..6)
            .map(|_| hmm.sample_sequence(40, &mut rng).1)
            .collect();
        // 1e6 is impossible under every state of the toy prior (densities
        // underflow to 0): `c == 0` at that step, alpha is reset to the
        // initial distribution (t = 0) or the propagated prior (later).
        for at in [0usize, 17, 39] {
            let mut sequences = clean.clone();
            sequences[2][at] = 1.0e6;
            let cfg = config(3, EmissionFamily::Gaussian, 5);
            assert_same_training(
                &format!("impossible at t = {at}"),
                &sequences,
                &cfg,
                Some(&hmm),
            );
        }
        let f = super::super::forward(&hmm, &[1.0e6, 1.4, 1.0e6]);
        assert_eq!(
            f.scales[0],
            f64::MIN_POSITIVE,
            "the input does reach the reset"
        );
        assert_eq!(f.scales[2], f64::MIN_POSITIVE);
    }

    #[test]
    fn lattice_matches_reference_with_a_dead_state() {
        // State 2 cannot be entered: zero initial mass, zero incoming
        // transitions. Its gamma is exactly 0 everywhere, so the M-step
        // keeps its emission and gives it the identity transition row.
        let prior = Hmm::new(
            vec![0.5, 0.5, 0.0],
            Matrix::from_rows(&[
                vec![0.9, 0.1, 0.0],
                vec![0.2, 0.8, 0.0],
                vec![0.3, 0.3, 0.4],
            ]),
            vec![
                Emission::Gaussian(Gaussian::new(1.4, 0.2)),
                Emission::Gaussian(Gaussian::new(2.4, 0.5)),
                Emission::Gaussian(Gaussian::new(0.2, 0.1)),
            ],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let sequences: Vec<Vec<f64>> = (0..5)
            .map(|_| toy_hmm().sample_sequence(50, &mut rng).1)
            .collect();
        let mut cfg = config(3, EmissionFamily::Gaussian, 1);
        assert_same_training("dead state", &sequences, &cfg, Some(&prior));
        // After one M-step; the transition floor revives the state later.
        cfg.max_iters = 1;
        assert_same_training("dead state, one step", &sequences, &cfg, Some(&prior));
        let (after_one, _) = train_seeded(&sequences, &cfg, Some(&prior)).unwrap();
        assert_eq!(
            after_one.emissions[2], prior.emissions[2],
            "old parameters kept"
        );
        assert_eq!(after_one.transition.row(2), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn lattice_matches_reference_on_warm_starts_and_stopping_rules() {
        let truth = toy_hmm();
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let sequences: Vec<Vec<f64>> = (0..12)
            .map(|_| truth.sample_sequence(80, &mut rng).1)
            .collect();
        let base = config(3, EmissionFamily::Gaussian, 2);

        let warm = assert_same_training("warm start", &sequences, &base, Some(&truth));
        let cold = assert_same_training("cold start", &sequences, &base, None);
        assert!(warm <= cold, "warm {warm} vs cold {cold} iterations");
        // A prior with the wrong state count is rejected by both.
        let four = TrainConfig {
            n_states: 4,
            ..base.clone()
        };
        assert_same_training("rejected prior", &sequences, &four, Some(&truth));

        let capped = TrainConfig {
            max_iters: 3,
            tol: 1e-12,
            ..base.clone()
        };
        assert_eq!(
            assert_same_training("max_iters hit", &sequences, &capped, None),
            3
        );
        let never = TrainConfig {
            max_iters: 9,
            tol: 0.0,
            ..base
        };
        assert_eq!(assert_same_training("tol = 0", &sequences, &never, None), 9);
    }
}
