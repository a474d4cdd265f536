//! The traffic generators: determinism, stationarity, closed-form counts.

use cs2p_net::{BatchPredictRequest, PredictRequest, SessionLog};
use cs2p_perf::phases::Plan;
use cs2p_perf::spec::{Scale, Spec, Workload};
use cs2p_perf::traffic::Kind;
use cs2p_perf::world::{Source, World};

fn sources(spec: &Spec, seed: u64) -> Vec<Source> {
    World::synth(spec).sources(spec.ring_epochs, seed)
}

/// Six windows of a fifth of the specification's length.
fn scale() -> Scale {
    Scale {
        num: 1,
        den: 5,
        timed_windows: Some(5),
        warmup_windows: 1,
        single_repetition: true,
    }
}

#[test]
fn traffic_follows_the_seed_and_nothing_else() {
    let spec = Spec::load();
    let (a, b) = (sources(&spec, 1), sources(&spec, 2));
    assert_eq!(a, sources(&spec, 1), "one seed, one shuffle");
    assert_ne!(a, b, "another seed, another shuffle");
    let sorted = |mut s: Vec<Source>| {
        s.sort_by(|x, y| {
            x.features
                .cmp(&y.features)
                .then(x.ring.partial_cmp(&y.ring).unwrap())
        });
        s
    };
    assert_eq!(
        sorted(a.clone()),
        sorted(b.clone()),
        "a shuffle keeps the sessions"
    );
    for workload in Workload::ALL {
        let print = |s: &[Source]| {
            Plan::build(&spec, &scale(), workload, s)
                .traffic()
                .fingerprint()
        };
        assert_eq!(print(&a), print(&a), "{}", workload.name());
        assert_ne!(print(&a), print(&b), "{}", workload.name());
    }
}

#[test]
fn every_body_is_the_request_its_kind_says() {
    let spec = Spec::load();
    let s = sources(&spec, 7);
    for workload in Workload::ALL {
        let plan = Plan::build(&spec, &scale(), workload, &s);
        let traffic = plan.traffic();
        for frame in &traffic.setup {
            let req: BatchPredictRequest = serde_json::from_slice(&frame.body).unwrap();
            assert_eq!(req.entries.len(), frame.n);
        }
        for op in traffic.scripts.iter().flat_map(|s| &s.ops) {
            let body = &traffic.bodies[op.body as usize];
            match op.kind {
                Kind::Predict => {
                    let req: PredictRequest = serde_json::from_slice(body).unwrap();
                    assert_eq!(req.horizon, spec.horizon);
                }
                Kind::Batch => {
                    let req: BatchPredictRequest = serde_json::from_slice(body).unwrap();
                    assert_eq!(req.entries.len(), traffic.frame_entries);
                }
                Kind::Log => {
                    serde_json::from_slice::<SessionLog>(body).unwrap();
                }
            }
        }
    }
}

/// Operations of each kind in every window, summed over connections.
fn window_mix(plan: &Plan) -> Vec<[usize; 3]> {
    let traffic = plan.traffic();
    (0..traffic.scripts[0].windows())
        .map(|w| {
            let mut mix = [0; 3];
            for script in &traffic.scripts {
                for op in script.window(w) {
                    mix[op.kind as usize] += 1;
                }
            }
            mix
        })
        .collect()
}

#[test]
fn every_batch_window_is_the_same_work() {
    let spec = Spec::load();
    let plan = Plan::build(
        &spec,
        &Scale::gated(&spec, spec.run_seconds),
        Workload::PredictBatch64Wal,
        &sources(&spec, 3),
    );
    let b = &spec.workloads.predict_batch64_wal;
    let groups = b.sessions / b.frame_entries;
    let mix = window_mix(&plan);
    assert_eq!(mix.len(), spec.warmup_windows + spec.timed_windows);
    // Per round every group is visited once and groups / life_steps of
    // them end their sessions' lives: one log per session, then a frame
    // that registers the group again.
    let frames = b.window_rounds * groups;
    let logs = b.window_rounds * (groups / b.life_steps) * b.frame_entries;
    for (w, m) in mix.iter().enumerate() {
        assert_eq!(*m, [0, frames, logs], "window {w}");
    }
    assert_eq!(plan.traffic().entries_per_window, frames * b.frame_entries);
}

#[test]
fn churn_never_evicts_a_live_session_and_its_counts_close() {
    let spec = Spec::load();
    let c = &spec.workloads.session_churn;
    // Building the traffic runs every operation through the shard model,
    // which panics if a predict or a log would not find its session, if
    // an id came back before its last session left the store, or if
    // set-up left a shard below capacity.
    let plan = Plan::build(
        &spec,
        &Scale::gated(&spec, spec.run_seconds),
        Workload::SessionChurn,
        &sources(&spec, 5),
    );
    let Plan::Churn(churn) = &plan else {
        panic!("session_churn builds churn traffic")
    };
    let windows = spec.warmup_windows + spec.timed_windows;
    let sessions = windows * (c.window_sessions - c.window_sessions % c.connections);
    assert_eq!(churn.traffic.units, sessions);
    let mix = window_mix(&plan);
    let predicts: usize = mix.iter().map(|m| m[Kind::Predict as usize]).sum();
    let logs: usize = mix.iter().map(|m| m[Kind::Log as usize]).sum();
    assert_eq!(predicts, sessions * (c.predicts_per_session + 1));
    assert_eq!(logs, churn.logs);
    assert!(mix
        .iter()
        .all(|m| m[Kind::Predict as usize] == churn.traffic.entries_per_window));
    // Conservation: what went in either left by log, left by eviction, or
    // is still there.
    assert_eq!(
        c.prefill_sessions + sessions,
        churn.logs + churn.expected_evicted as usize + churn.expected_live,
    );
    // The store was full when the windows began and ends within one
    // session per connection of full.
    let cap = c.max_sessions.div_ceil(spec.serve.n_shards) * spec.serve.n_shards;
    assert!(churn.expected_live <= cap && churn.expected_live + spec.serve.n_shards >= cap);
    // Roughly one session in ten misses every cluster.
    let oov = churn
        .cycle_sources
        .iter()
        .filter(|s| s.features.iter().all(|&f| f > u32::MAX - 2048))
        .count();
    assert_eq!(oov, churn.cycle_sources.len().div_ceil(c.oov_every));
}
