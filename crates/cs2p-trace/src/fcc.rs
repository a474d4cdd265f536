//! An FCC-MBA-like dataset with richer per-session features (§7.2).
//!
//! The paper re-runs the initial-epoch experiment on the FCC Measuring
//! Broadband America data, "where more features are available for each
//! session (e.g., connection technology, downlink/uplink speed)", and
//! finds initial prediction error drops to ~10% median. This module
//! generates that setting: short fixed-length sessions whose throughput is
//! largely *determined* by the advertised speed tier and access
//! technology, with modest utilization noise.

use cs2p_core::features::{FeatureSchema, FeatureVector};
use cs2p_core::{Dataset, Session};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Access technology of a panelist line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Technology {
    /// DSL: low tiers, stable.
    Dsl,
    /// Cable: mid/high tiers, some neighbourhood contention.
    Cable,
    /// Fiber: high tiers, very stable.
    Fiber,
    /// Satellite: high latency, strongly variable.
    Satellite,
}

impl Technology {
    /// All technologies, index-aligned with their feature encoding.
    pub const ALL: [Technology; 4] = [
        Technology::Dsl,
        Technology::Cable,
        Technology::Fiber,
        Technology::Satellite,
    ];

    /// Mean utilization (fraction of the advertised tier actually seen).
    fn utilization(self) -> f64 {
        match self {
            Technology::Dsl => 0.85,
            Technology::Cable => 0.9,
            Technology::Fiber => 0.94,
            Technology::Satellite => 0.6,
        }
    }

    /// Relative throughput noise per epoch.
    fn noise(self) -> f64 {
        match self {
            Technology::Dsl => 0.05,
            Technology::Cable => 0.10,
            Technology::Fiber => 0.03,
            Technology::Satellite => 0.25,
        }
    }

    /// Download tiers offered (Mbps).
    fn tiers(self) -> &'static [f64] {
        match self {
            Technology::Dsl => &[1.5, 3.0, 6.0, 12.0],
            Technology::Cable => &[10.0, 25.0, 50.0, 100.0],
            Technology::Fiber => &[50.0, 100.0, 300.0],
            Technology::Satellite => &[5.0, 12.0, 25.0],
        }
    }
}

/// Configuration of the FCC-like dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FccConfig {
    /// Number of measurement sessions.
    pub n_sessions: usize,
    /// Number of ISPs.
    pub n_isps: usize,
    /// Number of US-state-like regions.
    pub n_states: usize,
    /// Epochs per session (the paper notes these are short, fixed ~30 s).
    pub epochs_per_session: usize,
    /// Days covered.
    pub days: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FccConfig {
    fn default() -> Self {
        FccConfig {
            n_sessions: 10_000,
            n_isps: 8,
            n_states: 10,
            epochs_per_session: 5,
            days: 2,
            seed: 2,
        }
    }
}

/// The FCC-like feature schema: Technology, DownTier, UpTier, ISP, State.
fn fcc_schema() -> FeatureSchema {
    FeatureSchema::new(vec!["Technology", "DownTier", "UpTier", "ISP", "State"])
}

/// Generates the dataset. Tier values are encoded as indices into a global
/// tier table so they remain categorical ids.
pub fn generate(config: &FccConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x46_43_43); // "FCC"
    let schema = fcc_schema();

    // Global tier id table: (tech index, tier index) -> id.
    let tier_id = |tech_idx: usize, tier_idx: usize| (tech_idx * 8 + tier_idx) as u32;

    let mut sessions = Vec::with_capacity(config.n_sessions);
    for id in 0..config.n_sessions as u64 {
        let tech_idx = rng.gen_range(0..Technology::ALL.len());
        let tech = Technology::ALL[tech_idx];
        let tiers = tech.tiers();
        let tier_idx = rng.gen_range(0..tiers.len());
        let down = tiers[tier_idx];
        let up_idx = rng.gen_range(0..tiers.len().min(tier_idx + 1));
        let isp = rng.gen_range(0..config.n_isps) as u32;
        let state = rng.gen_range(0..config.n_states) as u32;

        let start_time = rng.gen_range(0..config.days * 86_400);
        // Per-line utilization varies a bit line to line.
        let line_util = tech.utilization() * (1.0 + rng.gen_range(-0.05..0.05f64));
        let throughput: Vec<f64> = (0..config.epochs_per_session)
            .map(|_| {
                let noise = 1.0 + rng.gen_range(-1.0..1.0f64) * tech.noise();
                (down * line_util * noise).max(0.05)
            })
            .collect();

        let features = FeatureVector(vec![
            tech_idx as u32,
            tier_id(tech_idx, tier_idx),
            tier_id(tech_idx, up_idx),
            isp,
            state,
        ]);
        sessions.push(Session::new(id, features, start_time, 6, throughput));
    }
    Dataset::new(schema, sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_ml::stats;

    #[test]
    fn deterministic() {
        let cfg = FccConfig {
            n_sessions: 300,
            ..Default::default()
        };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn schema_has_five_features() {
        let d = generate(&FccConfig {
            n_sessions: 50,
            ..Default::default()
        });
        assert_eq!(d.schema().len(), 5);
        assert_eq!(d.schema().index_of("Technology"), Some(0));
    }

    #[test]
    fn tier_and_tech_explain_throughput_well() {
        // The point of the FCC experiment: features are highly predictive.
        // Within (tech, down-tier), CoV of initial throughput must be small.
        let d = generate(&FccConfig {
            n_sessions: 3_000,
            ..Default::default()
        });
        use std::collections::HashMap;
        let mut groups: HashMap<(u32, u32), Vec<f64>> = HashMap::new();
        for s in d.sessions() {
            if let Some(w0) = s.initial_throughput() {
                groups
                    .entry((s.features.get(0), s.features.get(1)))
                    .or_default()
                    .push(w0);
            }
        }
        let covs: Vec<f64> = groups
            .values()
            .filter(|v| v.len() >= 10)
            .filter_map(|v| stats::coefficient_of_variation(v))
            .collect();
        assert!(!covs.is_empty());
        let mean_cov = stats::mean(&covs).unwrap();
        assert!(mean_cov < 0.20, "per-tier CoV too high: {mean_cov}");
    }

    #[test]
    fn satellite_is_noisier_than_fiber() {
        let d = generate(&FccConfig {
            n_sessions: 3_000,
            ..Default::default()
        });
        let cov_for_tech = |tech: u32| {
            let covs: Vec<f64> = d
                .sessions()
                .iter()
                .filter(|s| s.features.get(0) == tech && s.n_epochs() >= 3)
                .filter_map(|s| s.throughput_cov())
                .collect();
            stats::mean(&covs).unwrap()
        };
        let fiber = cov_for_tech(2);
        let sat = cov_for_tech(3);
        assert!(sat > 2.0 * fiber, "satellite {sat} vs fiber {fiber}");
    }

    #[test]
    fn sessions_are_short_and_fixed_length() {
        let cfg = FccConfig {
            n_sessions: 100,
            epochs_per_session: 5,
            ..Default::default()
        };
        let d = generate(&cfg);
        assert!(d.sessions().iter().all(|s| s.n_epochs() == 5));
    }
}
