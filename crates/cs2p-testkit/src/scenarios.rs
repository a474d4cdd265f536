//! Deterministic scenario builders.
//!
//! Every function here is a pure function of its arguments: the same call
//! yields the same world, dataset, or model in every test, on every run.
//! Tests across the workspace share these instead of hand-rolling their
//! own generators, so "the small two-regime dataset" or "the e2e
//! materials" mean the same thing everywhere.

use cs2p_core::engine::{EngineConfig, PredictionEngine};
use cs2p_core::{Dataset, FeatureSchema, FeatureVector, Session};
use cs2p_ml::hmm::{train, Hmm, TrainConfig};
use cs2p_trace::synth::{generate, SynthConfig};
use cs2p_trace::world::WorldConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A compact world for property tests and smoke runs: a couple of ISPs
/// and servers, small prefix table, deterministic in `seed`.
fn small_world(seed: u64) -> WorldConfig {
    WorldConfig {
        n_isps: 2,
        n_provinces: 2,
        cities_per_province: 1,
        n_servers: 2,
        n_prefixes: 24,
        ases_per_isp: 2,
        n_states: 3,
        seed,
        drift: 0.0,
    }
}

/// The synthesis config used by compact scenarios: `n_sessions` sessions
/// over two days in `small_world(seed)`.
pub fn small_synth(n_sessions: usize, seed: u64) -> SynthConfig {
    SynthConfig {
        n_sessions,
        seed,
        world: small_world(seed),
        ..Default::default()
    }
}

/// Two ISPs with clearly separated throughput regimes (≈2 Mbps vs
/// ≈8 Mbps); the city feature is pure noise. The canonical dataset for
/// "does clustering separate what should be separated" tests.
pub fn two_regime_dataset(n_per_isp: usize, seed: u64) -> Dataset {
    let schema = FeatureSchema::new(vec!["isp", "city"]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sessions = Vec::new();
    for isp in 0..2u32 {
        let base = if isp == 0 { 2.0 } else { 8.0 };
        for k in 0..n_per_isp {
            let city = rng.gen_range(0..4u32);
            let tp: Vec<f64> = (0..20)
                .map(|_| (base + rng.gen_range(-0.3..0.3f64)).max(0.05))
                .collect();
            sessions.push(Session::new(
                (isp as u64) * 10_000 + k as u64,
                FeatureVector(vec![isp, city]),
                k as u64 * 30,
                6,
                tp,
            ));
        }
    }
    Dataset::new(schema, sessions)
}

/// The engine configuration matching [`two_regime_dataset`]: one time
/// window, 2 HMM states, thresholds sized for a few dozen sessions.
pub fn two_regime_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.cluster.min_cluster_size = 10;
    config.cluster.candidate_windows = vec![cs2p_core::TimeWindow::All];
    config.cluster.max_est_sessions = 10;
    config.hmm.n_states = 2;
    config.hmm.max_iters = 15;
    config.max_train_sequences = 100;
    config.min_sequence_epochs = 2;
    config
}

/// The 40-session, two-ISP dataset behind [`tiny_engine`]: ISP 0 sits at
/// `1.0 + shift` Mbps, ISP 1 at `5.0 + shift`, constant traces. A nonzero
/// `shift` models the regime drifting between model refreshes — retrain
/// on `tiny_dataset(shift)` and the cluster medians move by `shift`.
pub fn tiny_dataset(shift: f64) -> Dataset {
    let schema = FeatureSchema::new(vec!["isp"]);
    let sessions: Vec<Session> = (0..40)
        .map(|k| {
            let isp = (k % 2) as u32;
            let tp = if isp == 0 { 1.0 } else { 5.0 } + shift;
            Session::new(k, FeatureVector(vec![isp]), k * 50, 6, vec![tp; 8])
        })
        .collect();
    Dataset::new(schema, sessions)
}

/// The training configuration matching [`tiny_dataset`] (also the right
/// `RefreshConfig::train_config` for servers built on [`tiny_engine`]).
pub fn tiny_train_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.cluster.min_cluster_size = 5;
    config.hmm.n_states = 2;
    config.hmm.max_iters = 10;
    config
}

/// The 40-session, two-ISP engine used by server/client failure tests:
/// ISP 0 sits at 1 Mbps, ISP 1 at 5 Mbps, constant traces, trains in
/// milliseconds.
pub fn tiny_engine() -> PredictionEngine {
    PredictionEngine::train(&tiny_dataset(0.0), &tiny_train_config())
        .expect("tiny engine trains")
        .0
}

/// Everything the end-to-end tests share: a generated two-day dataset,
/// its temporal train/test split (train on day 0, test on day 1), and an
/// engine trained on the train half only.
pub struct TrainedScenario {
    /// Day-0 sessions (training).
    pub train: Dataset,
    /// Day-1 sessions (held out).
    pub test: Dataset,
    /// Engine trained on `train` with `config`.
    pub engine: PredictionEngine,
    /// The exact training configuration used.
    pub config: EngineConfig,
}

impl TrainedScenario {
    /// The workspace's end-to-end materials: 2 000 sessions, seed 42,
    /// `EngineConfig::small_data()` with 12 EM iterations. Big enough for
    /// the statistical assertions, small enough to train in seconds.
    pub fn e2e() -> Self {
        Self::generate(2_000, 42)
    }

    /// A smaller variant for golden fixtures and per-crate tests.
    pub fn small() -> Self {
        Self::generate(600, 9)
    }

    /// `n_sessions` over two default-world days with master `seed`,
    /// split at day 1, trained with `small_data` + 12 EM iterations.
    pub fn generate(n_sessions: usize, seed: u64) -> Self {
        let (dataset, _world) = generate(&SynthConfig {
            n_sessions,
            seed,
            ..Default::default()
        });
        let (train, test) = dataset.split_at_day(1);
        let mut config = EngineConfig::small_data();
        config.hmm.max_iters = 12;
        let (engine, _) = PredictionEngine::train(&train, &config).expect("training failed");
        TrainedScenario {
            train,
            test,
            engine,
            config,
        }
    }

    /// Per-session prediction trace on a held-out session: the sequence
    /// of `(prediction_before_epoch, actual)` pairs Algorithm 1 produces.
    /// This is what the golden prediction-trace fixtures record.
    pub fn prediction_trace(&self, session_index: usize) -> Vec<(Option<f64>, f64)> {
        use cs2p_core::ThroughputPredictor;
        let s = self.test.get(session_index);
        let mut p = self.engine.predictor(&s.features);
        let mut out = Vec::new();
        let mut pred = p.predict_initial();
        for &actual in &s.throughput {
            out.push((pred, actual));
            p.observe(actual);
            pred = p.predict_next();
        }
        out
    }
}

/// A reference HMM with known structure: sequences are emitted by a
/// sticky two-state process (≈2 Mbps and ≈8 Mbps), then a model is
/// trained on them. Returns the trained model and the training sequences.
pub fn reference_hmm(seed: u64) -> (Hmm, Vec<Vec<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4852_4D4D); // "HRMM"
    let mut seqs = Vec::new();
    for _ in 0..8 {
        let mut state = rng.gen_range(0..2u32);
        let seq: Vec<f64> = (0..30)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    state = 1 - state;
                }
                let base = if state == 0 { 2.0 } else { 8.0 };
                (base + rng.gen_range(-0.4..0.4f64)).max(0.05)
            })
            .collect();
        seqs.push(seq);
    }
    let cfg = TrainConfig {
        n_states: 2,
        max_iters: 20,
        ..Default::default()
    };
    let (hmm, _report) = train(&seqs, &cfg).expect("reference HMM trains");
    (hmm, seqs)
}

/// A deterministic "adequate link" throughput trace (Mbps), mildly noisy
/// around `base_mbps`, for playback tests that should not stall.
pub fn adequate_trace(len: usize, base_mbps: f64, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5452_4143); // "TRAC"
    (0..len)
        .map(|_| (base_mbps * (1.0 + rng.gen_range(-0.15..0.15f64))).max(0.1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(two_regime_dataset(20, 5), two_regime_dataset(20, 5));
        assert_eq!(adequate_trace(50, 5.0, 3), adequate_trace(50, 5.0, 3));
        let (a, _) = reference_hmm(1);
        let (b, _) = reference_hmm(1);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn two_regime_dataset_has_both_regimes() {
        let d = two_regime_dataset(30, 1);
        assert_eq!(d.len(), 60);
        let lows = d
            .sessions()
            .iter()
            .filter(|s| s.features.get(0) == 0)
            .count();
        assert_eq!(lows, 30);
    }

    #[test]
    fn small_scenario_splits_cleanly() {
        let sc = TrainedScenario::small();
        assert!(!sc.train.is_empty());
        assert!(!sc.test.is_empty());
        assert!(sc.train.sessions().iter().all(|s| s.start_time < 86_400));
        assert!(sc.test.sessions().iter().all(|s| s.start_time >= 86_400));
        let trace = sc.prediction_trace(0);
        assert_eq!(trace.len(), sc.test.get(0).n_epochs());
        assert!(trace[0].0.is_some(), "initial prediction must exist");
    }
}
