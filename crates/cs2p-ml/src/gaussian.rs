//! Univariate Gaussian distribution: pdf, log-pdf, sampling helpers, and
//! maximum-likelihood fitting.
//!
//! CS2P's HMM uses Gaussian emissions (§5.2, Eq. 5): conditioned on the
//! hidden state `x`, throughput is `N(mu_x, sigma_x^2)`. The paper notes the
//! HMM is agnostic to the emission family; Gaussian is chosen for accuracy
//! on their data and computational simplicity. We mirror that and also
//! provide a log-normal emission (compared in `cs2p-eval ablations`).

use serde::{Deserialize, Serialize};

/// Smallest standard deviation we allow when fitting.
///
/// EM can collapse a state onto a handful of identical observations, driving
/// sigma to zero and the likelihood to infinity; clamping is the standard
/// remedy (a crude variance floor prior).
pub const MIN_SIGMA: f64 = 1e-3;

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// A univariate Gaussian `N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (strictly positive).
    pub sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian, clamping sigma to [`MIN_SIGMA`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "non-finite mean");
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma {sigma}");
        Gaussian {
            mu,
            sigma: sigma.max(MIN_SIGMA),
        }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Log-density at `x`; numerically safe far into the tails.
    pub fn log_pdf(&self, x: f64) -> f64 {
        self.log_pdf_given(x, self.sigma.ln())
    }

    /// [`log_pdf`](Self::log_pdf) with `ln sigma` supplied by a caller
    /// that evaluates many points under one distribution (the E-step
    /// computes it once per state per iteration). Must be `sigma.ln()`.
    pub(crate) fn log_pdf_given(&self, x: f64, ln_sigma: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - ln_sigma - LN_SQRT_2PI
    }

    /// Variance `sigma^2`.
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// Maximum-likelihood fit from a sample. Returns `None` for an empty
    /// slice; a singleton sample gets `sigma = MIN_SIGMA`.
    pub fn fit(xs: &[f64]) -> Option<Self> {
        let mu = crate::stats::mean(xs)?;
        let var = crate::stats::variance(xs)?;
        Some(Gaussian::new(mu, var.sqrt()))
    }
}

/// Draws a standard normal variate via Box–Muller from two uniforms.
///
/// Kept free of any particular RNG trait so callers can pass uniforms from
/// whatever deterministic source they like.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    let u1 = u1.max(f64::MIN_POSITIVE); // guard log(0)
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mu, sigma^2)` using the `rand` crate.
pub fn sample<R: rand::Rng + ?Sized>(g: &Gaussian, rng: &mut R) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    g.mu + g.sigma * box_muller(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn pdf_standard_normal_at_zero() {
        let g = Gaussian::standard();
        assert_close(g.pdf(0.0), 0.398_942_280_401_432_7, 1e-12);
    }

    #[test]
    fn pdf_integrates_to_one_by_riemann() {
        let g = Gaussian::new(1.5, 0.7);
        let (lo, hi, n) = (-6.0, 9.0, 20_000);
        let dx = (hi - lo) / n as f64;
        let sum: f64 = (0..n).map(|i| g.pdf(lo + (i as f64 + 0.5) * dx) * dx).sum();
        assert_close(sum, 1.0, 1e-6);
    }

    #[test]
    fn log_pdf_matches_pdf() {
        let g = Gaussian::new(-2.0, 3.0);
        for x in [-5.0, 0.0, 2.5] {
            assert_close(g.log_pdf(x), g.pdf(x).ln(), 1e-12);
        }
    }

    #[test]
    fn log_pdf_finite_in_deep_tail() {
        let g = Gaussian::new(0.0, 1.0);
        let lp = g.log_pdf(50.0);
        assert!(lp.is_finite());
        assert_eq!(g.pdf(50.0), 0.0); // underflows, but log stays sane
    }

    #[test]
    fn fit_recovers_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let g = Gaussian::fit(&xs).unwrap();
        assert_close(g.mu, 5.0, 1e-12);
        assert_close(g.sigma, 2.0, 1e-12);
        assert!(Gaussian::fit(&[]).is_none());
    }

    #[test]
    fn sigma_clamped() {
        let g = Gaussian::new(1.0, 0.0);
        assert_eq!(g.sigma, MIN_SIGMA);
        let g = Gaussian::fit(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(g.sigma, MIN_SIGMA);
    }

    #[test]
    fn sampling_matches_moments() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let g = Gaussian::new(3.0, 2.0);
        let xs: Vec<f64> = (0..50_000).map(|_| sample(&g, &mut rng)).collect();
        let fitted = Gaussian::fit(&xs).unwrap();
        assert_close(fitted.mu, 3.0, 0.05);
        assert_close(fitted.sigma, 2.0, 0.05);
    }

    #[test]
    fn serde_roundtrip() {
        let g = Gaussian::new(1.25, 0.5);
        let s = serde_json::to_string(&g).unwrap();
        let back: Gaussian = serde_json::from_str(&s).unwrap();
        assert_eq!(g, back);
    }
}
