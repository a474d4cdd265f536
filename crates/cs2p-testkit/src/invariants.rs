//! Reusable invariant checkers.
//!
//! Each function asserts one cross-cutting property the workspace
//! guarantees; tests in several crates call these rather than re-encoding
//! the property locally.

use cs2p_core::engine::{EngineConfig, PredictionEngine};
use cs2p_core::model_io::ModelBundle;
use cs2p_core::{Dataset, ThroughputPredictor};

/// Training must be a pure function of (dataset, config): the number of
/// worker threads must not change a single bit of the resulting model.
///
/// Serializes the bundle trained by `train_sequential` and by `train`
/// with each thread count in `thread_counts`, and requires byte-identical
/// JSON (stronger than structural equality — even field order and float
/// formatting must agree).
pub fn assert_thread_count_independence(
    dataset: &Dataset,
    config: &EngineConfig,
    thread_counts: &[usize],
) {
    let (sequential, _) =
        PredictionEngine::train_sequential(dataset, config).expect("sequential training");
    let baseline = ModelBundle::from_engine(&sequential)
        .to_json()
        .expect("serialize sequential bundle");

    for &n_threads in thread_counts {
        let threaded_config = EngineConfig {
            n_threads,
            ..config.clone()
        };
        let (engine, _) =
            PredictionEngine::train(dataset, &threaded_config).expect("threaded training");
        let json = ModelBundle::from_engine(&engine)
            .to_json()
            .expect("serialize threaded bundle");
        assert_eq!(
            json, baseline,
            "training with n_threads={n_threads} diverged from train_sequential"
        );
    }
}

/// A model bundle must survive serialize → deserialize → predict with
/// *exact* (bitwise) prediction equality. Runs Algorithm 1 over the first
/// `n_sessions` sessions of `test`, `n_epochs` epochs each.
pub fn assert_bundle_roundtrip(
    engine: &PredictionEngine,
    test: &Dataset,
    n_sessions: usize,
    n_epochs: usize,
) {
    let json = ModelBundle::from_engine(engine).to_json().expect("to_json");
    let rebuilt = ModelBundle::from_json(&json)
        .expect("from_json")
        .into_engine();
    // Serializing the rebuilt engine must reproduce the document too.
    let rebuilt_json = ModelBundle::from_engine(&rebuilt)
        .to_json()
        .expect("re-serialize");
    assert_eq!(
        json, rebuilt_json,
        "bundle JSON not stable under round-trip"
    );

    for s in test.sessions().iter().take(n_sessions) {
        let mut a = engine.predictor(&s.features);
        let mut b = rebuilt.predictor(&s.features);
        assert_eq!(
            a.predict_initial(),
            b.predict_initial(),
            "initial prediction diverged after round-trip"
        );
        for &w in s.throughput.iter().take(n_epochs) {
            a.observe(w);
            b.observe(w);
            assert_eq!(
                a.predict_next(),
                b.predict_next(),
                "midstream prediction diverged after round-trip"
            );
        }
    }
}

/// Serving must be concurrency-transparent: K client threads streaming
/// interleaved sessions against a sharded multi-worker server must get
/// *bit-identical* per-session prediction sequences to a single-client
/// run against a single-worker server.
///
/// Starts one baseline server (1 worker, 1 client, **singleton**
/// `/predict` POSTs — `batch` is stripped from the baseline config) and
/// then, for every worker count in `worker_counts`, a fresh server
/// driven with `config.n_clients` concurrent clients; all runs replay
/// the same seeded workload (see [`crate::loadgen`]). When `config.batch`
/// is set, the runs under test ship `/predict_batch` frames, so this
/// additionally proves the batched path bit-equivalent to sequential
/// singleton serving. The server under test is `scenarios::tiny_engine`
/// with generous queue/session bounds so no request is ever rejected —
/// a 503'd measurement would legitimately change a session's filter
/// sequence.
pub fn assert_serving_concurrency_independence(
    worker_counts: &[usize],
    config: &crate::loadgen::LoadConfig,
) {
    use crate::loadgen::{run_load, LoadConfig};
    use cs2p_net::{serve_with, ServeConfig};

    fn roomy(n_workers: usize) -> ServeConfig {
        ServeConfig {
            n_workers,
            queue_depth: 4096,
            max_sessions: 1 << 20,
            ..ServeConfig::default()
        }
    }

    let baseline_server =
        serve_with(crate::scenarios::tiny_engine(), "127.0.0.1:0", roomy(1)).expect("baseline");
    let baseline_config = LoadConfig {
        n_clients: 1,
        batch: None,
        ..config.clone()
    };
    let baseline = run_load(baseline_server.addr(), &baseline_config);
    baseline_server.shutdown();
    assert_eq!(
        baseline.ok,
        baseline_config.total_requests(),
        "baseline run must not drop requests (rejected={}, errors={})",
        baseline.rejected,
        baseline.errors
    );

    for &n_workers in worker_counts {
        let server = serve_with(
            crate::scenarios::tiny_engine(),
            "127.0.0.1:0",
            roomy(n_workers),
        )
        .unwrap_or_else(|e| panic!("server with {n_workers} workers: {e}"));
        let report = run_load(server.addr(), config);
        server.shutdown();
        assert_eq!(
            report.ok,
            config.total_requests(),
            "run with n_workers={n_workers} dropped requests (rejected={}, errors={})",
            report.rejected,
            report.errors
        );
        assert_eq!(
            report.predictions, baseline.predictions,
            "per-session predictions diverged with n_workers={n_workers}, \
             n_clients={}",
            config.n_clients
        );
    }
}

/// The playback simulator must be deterministic: the same trace,
/// predictor construction, and ABR must give the same outcome twice.
///
/// `run` builds and executes one playback and returns its outcome; the
/// checker simply calls it twice and requires equality, so any closure
/// capturing only deterministic state can be checked.
pub fn assert_simulator_deterministic<F>(mut run: F)
where
    F: FnMut() -> cs2p_abr::SessionOutcome,
{
    let first = run();
    let second = run();
    assert_eq!(first, second, "simulator outcome changed between runs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use cs2p_abr::{simulate, FixedBitrate, SimConfig};
    use cs2p_core::NoisyOracle;

    #[test]
    fn thread_independence_holds_on_the_two_regime_dataset() {
        let d = scenarios::two_regime_dataset(30, 11);
        let config = scenarios::two_regime_config();
        assert_thread_count_independence(&d, &config, &[1, 2]);
    }

    #[test]
    fn bundle_roundtrip_holds_on_the_two_regime_dataset() {
        let d = scenarios::two_regime_dataset(30, 12);
        let (engine, _) = PredictionEngine::train(&d, &scenarios::two_regime_config()).unwrap();
        assert_bundle_roundtrip(&engine, &d, 10, 5);
    }

    #[test]
    fn fixed_bitrate_playback_is_deterministic() {
        let trace = scenarios::adequate_trace(60, 5.0, 4);
        assert_simulator_deterministic(|| {
            let mut oracle = NoisyOracle::new(trace.clone(), 0.1, 7);
            let mut abr = FixedBitrate::new(1);
            simulate(&trace, 6.0, &mut oracle, &mut abr, &SimConfig::default())
        });
    }
}
