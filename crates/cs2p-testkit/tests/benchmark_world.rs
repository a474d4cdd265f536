//! Golden fixture of the benchmark's own models: the cold (day 0) and
//! warm (day 1, resumed from cold) bundles of the world every
//! `perf/run.sh` workload trains on — `perf/spec.json`'s `synth` and
//! `engine` blocks, restated here because `perf/` is a package of its own.
//!
//! Training is pinned bit for bit (the lattice differential in
//! `cs2p-ml`), and the benchmark notices a moved bit only as a changed
//! `model_io.bundle_bytes` or iteration count. This fixture says *which*
//! parameter moved: the harness reports the first differing node, and the
//! two FNV-1a hashes of the serialized bundles catch a change smaller
//! than the harness's numeric tolerance.

use cs2p_core::engine::{EngineConfig, PredictionEngine};
use cs2p_core::model_io::ModelBundle;
use cs2p_core::ModelRegistry;
use cs2p_testkit::golden;
use cs2p_trace::synth::{generate, SynthConfig};
use cs2p_trace::world::WorldConfig;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_benchmark_world_bundles() {
    let seed = 42;
    let (dataset, _) = generate(&SynthConfig {
        n_sessions: 500,
        days: 2,
        seed,
        world: WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        ..SynthConfig::default()
    });
    let (day0, day1) = dataset.split_at_day(1);
    let mut config = EngineConfig::small_data();
    config.hmm.n_states = 6;
    config.hmm.max_iters = 50;
    config.n_threads = 1;

    let (cold, cold_summary) = PredictionEngine::train(&day0, &config).expect("day 0 trains");
    let registry = ModelRegistry::new(cold.clone(), config, 2);
    let (_, warm_summary) = registry.retrain(&day1).expect("day 1 trains");
    let (_, warm) = registry.current();

    // The counts the traced benchmark prints for this world
    // (`engine.n_models`, `baum_welch.em_iterations`,
    // `train.warm_iterations_saved`, `model_io.bundle_bytes`).
    assert_eq!(cold_summary.n_models, 26);
    assert_eq!(cold_summary.em_iterations, 1159);
    assert_eq!(cold_summary.em_iterations - warm_summary.em_iterations, 333);
    let cold_json = ModelBundle::from_engine(&cold).to_json().unwrap();
    let warm_json = ModelBundle::from_engine(&warm).to_json().unwrap();
    assert_eq!(cold_json.len(), 47360);

    let document = format!(
        r#"{{"cold_fnv1a64":"{:016x}","warm_fnv1a64":"{:016x}","cold":{cold_json},"warm":{warm_json}}}"#,
        fnv1a64(cold_json.as_bytes()),
        fnv1a64(warm_json.as_bytes()),
    );
    golden::check_golden("benchmark_world_bundles", &document);
}
