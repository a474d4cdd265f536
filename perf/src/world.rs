//! The common world: one synthetic data set, split by day.
//!
//! Day 0 trains. Day 1 is held out and supplies every feature vector and
//! every measured throughput a workload sends, so the server never sees a
//! measurement its model was fitted to.
//!
//! The world itself is a constant (`synth.world_seed`): EM's running time
//! depends on the data it is given, and runs with different `--seed`
//! values are compared with each other. `--seed` decides which held-out
//! session each player replays — every request body, none of the work.

use crate::spec::Spec;
use cs2p_core::engine::{EngineConfig, PredictionEngine, TrainSummary};
use cs2p_core::{Dataset, ModelRegistry};
use cs2p_trace::synth::{generate, SynthConfig};
use cs2p_trace::world::WorldConfig;
use std::time::{Duration, Instant};

pub struct World {
    pub day0: Dataset,
    pub day1: Dataset,
}

impl World {
    /// Synthesises the world and splits it at day 1.
    pub fn synth(spec: &Spec) -> World {
        let seed = spec.synth.world_seed;
        let (dataset, _) = generate(&SynthConfig {
            n_sessions: spec.synth.n_sessions,
            days: spec.synth.days,
            seed,
            world: WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            ..SynthConfig::default()
        });
        let (day0, day1) = dataset.split_at_day(1);
        World { day0, day1 }
    }

    /// What players send: one [`Source`] per held-out session, its trace
    /// wrapped into a ring of `ring_epochs` measurements so the set of
    /// distinct request bodies is finite (a few MB, encoded before timing),
    /// in an order shuffled by `seed`.
    pub fn sources(&self, ring_epochs: usize, seed: u64) -> Vec<Source> {
        let mut sources: Vec<Source> = self
            .day1
            .sessions()
            .iter()
            .filter(|s| !s.throughput.is_empty())
            .map(|s| Source {
                features: s.features.0.clone(),
                ring: (0..ring_epochs)
                    .map(|e| s.throughput[e % s.throughput.len()])
                    .collect(),
            })
            .collect();
        // Fisher-Yates over a splitmix64 stream.
        let mut state = seed;
        for i in (1..sources.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            sources.swap(i, (z % (i as u64 + 1)) as usize);
        }
        sources
    }
}

/// A held-out session as traffic: its features and its measurement ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    pub features: Vec<u32>,
    pub ring: Vec<f64>,
}

impl Source {
    /// The same trace behind features no training session carried, so the
    /// lookup misses every cluster and falls to the global model.
    pub fn out_of_vocabulary(&self, k: u32) -> Source {
        Source {
            features: self.features.iter().map(|_| u32::MAX - k).collect(),
            ring: self.ring.clone(),
        }
    }
}

/// The training configuration of every workload.
pub fn engine_config(spec: &Spec) -> EngineConfig {
    let mut config = EngineConfig::small_data();
    config.hmm.n_states = spec.engine.n_states;
    config.hmm.max_iters = spec.engine.max_iters;
    config.n_threads = spec.engine.n_threads;
    config
}

/// `ModelRegistry::retrain` on day 1 from the cold model. Returns the
/// published warm engine and how long the `retrain` call alone took.
pub fn train_warm(
    world: &World,
    config: &EngineConfig,
    cold: &PredictionEngine,
) -> (PredictionEngine, TrainSummary, Duration) {
    let registry = ModelRegistry::new(cold.clone(), config.clone(), 2);
    let start = Instant::now();
    let (_, summary) = registry
        .retrain(&world.day1)
        .expect("day 1 supports a model");
    let elapsed = start.elapsed();
    let (_, warm) = registry.current();
    ((*warm).clone(), summary, elapsed)
}
