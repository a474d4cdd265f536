//! K-means initialization for Baum–Welch.
//!
//! EM converges to a local optimum, so the starting point matters. We pool
//! all observations, run 1-D k-means (with k-means++-style seeding) to place
//! the emission means, set each state's sigma from its cluster members, and
//! start with a sticky transition matrix (strong self-transitions), which
//! encodes the paper's Observation 2 — states persist — as a prior.

use super::baum_welch::{EmissionFamily, TrainConfig};
use super::{Emission, Hmm};
use crate::gaussian::Gaussian;
use crate::matrix::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Initial self-transition probability of the sticky prior.
const STICKY: f64 = 0.8;

/// Builds an initial HMM for EM from the pooled observations.
///
/// Returns `None` if there are no observations at all.
pub fn kmeans_init<S: AsRef<[f64]>>(sequences: &[S], config: &TrainConfig) -> Option<Hmm> {
    let mut pooled: Vec<f64> = sequences
        .iter()
        .flat_map(|s| s.as_ref().iter().copied())
        .map(|w| match config.family {
            EmissionFamily::Gaussian => w,
            EmissionFamily::LogNormal => w.ln(),
        })
        .collect();
    if pooled.is_empty() {
        return None;
    }
    pooled.sort_by(f64::total_cmp);

    let n = config.n_states;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let centers = kmeans_1d(&pooled, n, &mut rng);

    // Assign points to nearest center to estimate per-state spread.
    let mut members: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &x in &pooled {
        let k = nearest(&centers, x);
        members[k].push(x);
    }
    let global_sigma = crate::stats::stddev(&pooled).unwrap_or(1.0).max(1e-3);
    let emissions: Vec<Emission> = (0..n)
        .map(|k| {
            let mu = centers[k];
            let sigma = crate::stats::stddev(&members[k])
                .filter(|s| *s > 1e-6)
                .unwrap_or(global_sigma / n as f64);
            let g = Gaussian::new(mu, sigma);
            match config.family {
                EmissionFamily::Gaussian => Emission::Gaussian(g),
                EmissionFamily::LogNormal => Emission::LogNormal(g),
            }
        })
        .collect();

    // Sticky transition prior; off-diagonal mass split evenly.
    let mut transition = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            transition[(i, j)] = if n == 1 {
                1.0
            } else if i == j {
                STICKY
            } else {
                (1.0 - STICKY) / (n - 1) as f64
            };
        }
    }

    // Initial distribution from cluster occupancy.
    let total: usize = members.iter().map(Vec::len).sum();
    let mut initial: Vec<f64> = members
        .iter()
        .map(|m| (m.len().max(1)) as f64 / total.max(1) as f64)
        .collect();
    super::normalize(&mut initial);

    Some(Hmm::new(initial, transition, emissions))
}

/// 1-D k-means with k-means++ seeding. `data` must be sorted ascending.
fn kmeans_1d<R: Rng + ?Sized>(data: &[f64], k: usize, rng: &mut R) -> Vec<f64> {
    assert!(!data.is_empty());
    // k-means++ seeding.
    let mut centers: Vec<f64> = Vec::with_capacity(k);
    centers.push(*data.choose(rng).unwrap());
    while centers.len() < k {
        let d2: Vec<f64> = data
            .iter()
            .map(|&x| {
                let d = x - centers[nearest(&centers, x)];
                d * d
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centers: spread duplicates.
            let last = *centers.last().unwrap();
            centers.push(last + 1e-3 * centers.len() as f64);
            continue;
        }
        let mut u = rng.gen::<f64>() * total;
        let mut chosen = data[data.len() - 1];
        for (&x, &w) in data.iter().zip(&d2) {
            u -= w;
            if u <= 0.0 {
                chosen = x;
                break;
            }
        }
        centers.push(chosen);
    }

    // Lloyd iterations.
    for _ in 0..100 {
        let mut sums = vec![0.0; k];
        let mut counts = vec![0usize; k];
        for &x in data {
            let c = nearest(&centers, x);
            sums[c] += x;
            counts[c] += 1;
        }
        let mut moved = 0.0;
        for c in 0..k {
            if counts[c] > 0 {
                let new = sums[c] / counts[c] as f64;
                moved += (new - centers[c]).abs();
                centers[c] = new;
            }
        }
        if moved < 1e-12 {
            break;
        }
    }
    centers.sort_by(f64::total_cmp);
    centers
}

fn nearest(centers: &[f64], x: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &c) in centers.iter().enumerate() {
        let d = (x - c).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut data: Vec<f64> = Vec::new();
        for i in 0..100 {
            data.push(1.0 + 0.001 * i as f64);
            data.push(10.0 + 0.001 * i as f64);
        }
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let centers = kmeans_1d(&data, 2, &mut rng);
        assert!((centers[0] - 1.05).abs() < 0.1, "{centers:?}");
        assert!((centers[1] - 10.05).abs() < 0.1, "{centers:?}");
    }

    #[test]
    fn kmeans_handles_duplicate_points() {
        let data = vec![5.0; 50];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let centers = kmeans_1d(&data, 3, &mut rng);
        assert_eq!(centers.len(), 3);
        assert!(centers.iter().all(|c| (c - 5.0).abs() < 0.1));
    }

    #[test]
    fn init_produces_valid_hmm() {
        let s1 = vec![1.0, 1.1, 0.9, 5.0, 5.2];
        let s2 = vec![4.9, 5.1, 1.05];
        let cfg = TrainConfig {
            n_states: 2,
            ..Default::default()
        };
        let hmm = kmeans_init(&[&s1, &s2], &cfg).unwrap();
        assert!(hmm.validate().is_ok());
        assert_eq!(hmm.n_states(), 2);
        // Means should land near 1 and 5.
        let mut mus: Vec<f64> = hmm.emissions.iter().map(|e| e.mean()).collect();
        mus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mus[0] - 1.0).abs() < 0.3);
        assert!((mus[1] - 5.0).abs() < 0.3);
    }

    #[test]
    fn init_is_sticky() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        let cfg = TrainConfig {
            n_states: 4,
            ..Default::default()
        };
        let hmm = kmeans_init(&[&s], &cfg).unwrap();
        for i in 0..4 {
            assert!((hmm.transition[(i, i)] - STICKY).abs() < 1e-12);
        }
    }

    #[test]
    fn init_empty_returns_none() {
        let empty: Vec<f64> = vec![];
        let cfg = TrainConfig::default();
        assert!(kmeans_init(&[&empty], &cfg).is_none());
    }

    #[test]
    fn init_deterministic_for_fixed_seed() {
        let s = vec![0.5, 1.5, 2.5, 7.0, 7.5, 8.0];
        let cfg = TrainConfig {
            n_states: 2,
            seed: 99,
            ..Default::default()
        };
        let a = kmeans_init(&[&s], &cfg).unwrap();
        let b = kmeans_init(&[&s], &cfg).unwrap();
        assert_eq!(a, b);
    }
}
