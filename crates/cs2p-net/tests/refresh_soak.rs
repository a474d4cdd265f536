//! Swap-correctness battery for the online model refresh.
//!
//! Two angles on the same contract (§5's periodic model update must be
//! invisible to in-flight sessions):
//!
//! 1. **Swap-spanning bit-identity** — a session that straddles a
//!    hot-swap must produce predictions bit-identical to the same session
//!    on a server that never swapped: pinning means the filter state
//!    never touches the new model. Meanwhile a session registered *after*
//!    the swap must see the new model (and say so in `model_version`).
//! 2. **Registry model check** — random `retrain`/`gc`/`pin`/`unpin`/
//!    `get` programs run against both the real `cs2p_core::ModelRegistry`
//!    and a naive reference model (a map from version to the regime shift
//!    its dataset was built with, plus the documented retention rules).
//!    Engines are identified by the cluster median they were trained on —
//!    exact for constant-throughput datasets — so the model also proves
//!    the registry never serves the wrong *engine* under a right version.
//!
//! Zero downtime under swaps racing a full load run is the chaos soak's
//! two swapper cells (`chaos_soak.rs`), which also hold the retention
//! bound.

use cs2p_core::{Dataset, FeatureVector, ModelRegistry, ModelVersion};
use cs2p_net::protocol::PredictRequest;
use cs2p_net::{serve_with, RefreshConfig, ServeConfig, ServerHandle};
use cs2p_testkit::loadgen::predict;
use cs2p_testkit::scenarios::{tiny_dataset, tiny_engine, tiny_train_config};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn refresh_server() -> ServerHandle {
    let config = ServeConfig {
        n_shards: 4,
        n_workers: 3,
        queue_depth: 1024,
        max_sessions: 10_000,
        refresh: RefreshConfig {
            train_config: tiny_train_config(),
            retain: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).expect("server starts")
}

/// The deterministic measurement session `id` reports at `epoch`
/// (regime `1.0` or `5.0` Mbps plus a session- and epoch-specific wiggle
/// large enough that any filter-state divergence shows up bitwise).
fn measurement(id: u64, epoch: usize) -> f64 {
    let base = if id.is_multiple_of(2) { 1.0 } else { 5.0 };
    base + 0.25 * (((id * 31 + epoch as u64 * 7) % 13) as f64 - 6.0) / 6.0
}

/// Per-session prediction traces from the swapped and control servers.
type TracePair = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Angle 1: sessions spanning a hot-swap stay bit-identical to a
/// swap-free control server, while post-swap sessions get the new model.
#[test]
fn sessions_spanning_a_swap_are_bit_identical_to_a_swap_free_run() {
    let swapped = refresh_server();
    let control = refresh_server();
    let sessions: Vec<u64> = (1..=8).collect();
    let mut traces: BTreeMap<u64, TracePair> = BTreeMap::new();

    // Epoch 0: register everywhere; epochs 1-2 pre-swap measurements.
    for epoch in 0..=2usize {
        for &id in &sessions {
            let preq = PredictRequest {
                session_id: id,
                features: (epoch == 0).then(|| vec![(id % 2) as u32]),
                measured_mbps: (epoch > 0).then(|| measurement(id, epoch)),
                horizon: 2,
            };
            let a = predict(swapped.addr(), &preq);
            let b = predict(control.addr(), &preq);
            assert_eq!(a.model_version, 1, "session {id} registered on v1");
            let entry = traces.entry(id).or_default();
            entry.0.push(a.predictions_mbps);
            entry.1.push(b.predictions_mbps);
        }
    }

    // Hot-swap on one server only: retrain on a regime that drifted up
    // by 2 Mbps. The control server keeps serving v1.
    let (version, summary) = swapped
        .refresh_models_with(&tiny_dataset(2.0))
        .expect("drifted dataset supports a model");
    assert_eq!(version, ModelVersion(2));
    assert!(summary.warm_started > 0, "refresh must warm-start");
    assert_eq!(swapped.model_version(), ModelVersion(2));
    assert_eq!(control.model_version(), ModelVersion(1));

    // Epochs 3-5 cross the swap midstream.
    for epoch in 3..=5usize {
        for &id in &sessions {
            let preq = PredictRequest {
                session_id: id,
                features: None,
                measured_mbps: Some(measurement(id, epoch)),
                horizon: 2,
            };
            let a = predict(swapped.addr(), &preq);
            let b = predict(control.addr(), &preq);
            // The pinned session still reports the version it started on.
            assert_eq!(a.model_version, 1, "session {id} must stay pinned");
            let entry = traces.entry(id).or_default();
            entry.0.push(a.predictions_mbps);
            entry.1.push(b.predictions_mbps);
        }
    }

    for (id, (swapped_trace, control_trace)) in &traces {
        assert_eq!(
            swapped_trace, control_trace,
            "session {id}: a swap it never asked for changed its predictions"
        );
    }

    // A session registering after the swap sees the drifted model: its
    // initial prediction is the new cluster median (3.0 for ISP 0), not
    // the old one (1.0).
    let fresh = predict(
        swapped.addr(),
        &PredictRequest {
            session_id: 100,
            features: Some(vec![0]),
            measured_mbps: None,
            horizon: 1,
        },
    );
    assert_eq!(fresh.model_version, 2);
    assert!(
        (fresh.predictions_mbps[0] - 3.0).abs() < 0.5,
        "post-swap session got {} — still the stale model?",
        fresh.predictions_mbps[0]
    );

    swapped.shutdown();
    control.shutdown();
}

// ---------------------------------------------------------------------
// Angle 2: model-based property test of the registry.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Retrain on `tiny_dataset(shift)` and publish.
    Retrain(f64),
    /// Fetch a version (present or collected).
    Get(u64),
    /// Pin a version (may already be collected).
    Pin(u64),
    /// Unpin a version (may not be pinned — documented no-op).
    Unpin(u64),
    /// Explicit GC pass.
    Gc,
}

/// The documented registry semantics, written the obvious slow way: a
/// version is just the regime shift its dataset carried.
struct RefRegistry {
    retain: usize,
    next: u64,
    current: u64,
    retained: BTreeMap<u64, f64>,
    pins: BTreeMap<u64, usize>,
}

impl RefRegistry {
    fn new(retain: usize) -> Self {
        RefRegistry {
            retain: retain.max(1),
            next: 2,
            current: 1,
            retained: BTreeMap::from([(1, 0.0)]),
            pins: BTreeMap::new(),
        }
    }

    fn publish(&mut self, shift: f64) -> u64 {
        let v = self.next;
        self.next += 1;
        self.retained.insert(v, shift);
        self.current = v;
        self.gc();
        v
    }

    fn gc(&mut self) {
        let mut versions: Vec<u64> = self.retained.keys().copied().collect();
        versions.sort_unstable_by(|a, b| b.cmp(a));
        let keep_from = versions.get(self.retain - 1).copied().unwrap_or(0);
        let current = self.current;
        let pins = &self.pins;
        self.retained
            .retain(|v, _| *v >= keep_from || *v == current || pins.contains_key(v));
    }

    fn pin(&mut self, v: u64) -> Option<f64> {
        let shift = self.retained.get(&v).copied()?;
        *self.pins.entry(v).or_insert(0) += 1;
        Some(shift)
    }

    fn unpin(&mut self, v: u64) {
        if let Some(count) = self.pins.get_mut(&v) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&v);
            }
        }
    }
}

/// The shift a constant-regime engine was trained on, recovered exactly:
/// ISP 0's cluster median is `1.0 + shift` and medians of constant data
/// are exact.
fn shift_of(engine: &cs2p_core::PredictionEngine) -> f64 {
    engine.lookup(&FeatureVector(vec![0])).initial_median - 1.0
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Version operands range a little past what short programs can
    // publish, so get/pin/unpin also probe collected and future versions.
    prop::collection::vec((0u8..5, 0u64..10, 0u64..8), 1..14).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, v, shift)| match kind {
                0 => Op::Retrain(shift as f64 * 0.25),
                1 => Op::Get(v),
                2 => Op::Pin(v),
                3 => Op::Unpin(v),
                _ => Op::Gc,
            })
            .collect()
    })
}

fn run_program(retain: usize, ops: &[Op]) {
    let registry = ModelRegistry::new(tiny_engine(), tiny_train_config(), retain);
    let mut model = RefRegistry::new(retain);
    let shifted_datasets: BTreeMap<u64, Dataset> =
        (0..8).map(|s| (s, tiny_dataset(s as f64 * 0.25))).collect();

    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Retrain(shift) => {
                let dataset = &shifted_datasets[&((shift / 0.25) as u64)];
                let (version, summary) = registry
                    .retrain(dataset)
                    .expect("tiny dataset always supports a model");
                let expected = model.publish(shift);
                assert_eq!(version.0, expected, "step {step}: published version");
                assert!(summary.warm_started > 0, "step {step}: cold retrain");
            }
            Op::Get(v) => {
                let real = registry.get(ModelVersion(v)).map(|e| shift_of(&e));
                let expected = model.retained.get(&v).copied();
                assert_eq!(real, expected, "step {step}: get(v{v})");
            }
            Op::Pin(v) => {
                let real = registry.pin(ModelVersion(v)).map(|e| shift_of(&e));
                let expected = model.pin(v);
                assert_eq!(real, expected, "step {step}: pin(v{v})");
            }
            Op::Unpin(v) => {
                registry.unpin(ModelVersion(v));
                model.unpin(v);
            }
            Op::Gc => {
                registry.gc();
                model.gc();
            }
        }
        assert_eq!(
            registry.current_version().0,
            model.current,
            "step {step}: current version"
        );
        assert_eq!(
            registry.versions(),
            model
                .retained
                .keys()
                .map(|&v| ModelVersion(v))
                .collect::<Vec<_>>(),
            "step {step}: retained set"
        );
        assert_eq!(registry.published(), model.next - 1, "step {step}");
    }

    // Final sweep: every version ever (plus a few never published) agrees
    // on presence, and every surviving engine is the right one.
    for v in 0..model.next + 2 {
        let real = registry.get(ModelVersion(v)).map(|e| shift_of(&e));
        let expected = model.retained.get(&v).copied();
        assert_eq!(real, expected, "final probe of v{v}");
    }
    let (version, engine) = registry.current();
    assert_eq!(version.0, model.current);
    assert_eq!(shift_of(&engine), model.retained[&model.current]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random retrain/get/pin/unpin/gc programs: the real registry and
    /// the naive model agree on the current version, the retained set,
    /// and — via the recovered regime shift — on which *engine* every
    /// version maps to.
    #[test]
    fn registry_matches_naive_model(
        ops in arb_ops(),
        retain in 1usize..4,
    ) {
        run_program(retain, &ops);
    }
}
