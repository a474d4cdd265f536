//! Overload battery for the admission-control degradation ladder.
//!
//! Three kinds of proof, all built on the deterministic loadgen:
//!
//! - **forced-level semantics**: each ladder level is pinned via
//!   [`ServerHandle::force_admission_level`] and held to its exact
//!   contract — Degraded answers the cluster prior without touching
//!   per-session filters (shown differentially against a server that
//!   never saw the degraded-phase measurements), Fallback reproduces
//!   the paper's harmonic-mean baseline bit-for-bit, Shed refuses
//!   predict traffic with `Retry-After` while `/ops` keeps answering;
//! - **the Full-level differential**: a 16-client run against a
//!   1-worker server pinned at Full must produce per-session
//!   predictions bit-identical to an unloaded 1-client golden run —
//!   admission machinery in the request path must not perturb the
//!   model's answers;
//! - **liveness**: with real watermarks enabled and a 4-deep queue
//!   under 16 closed-loop clients, the server survives (no panics, the
//!   request ledger balances exactly), recovers to Full after the
//!   storm, and drains within the shutdown bound at every level.

use cs2p_core::baselines::HarmonicMean;
use cs2p_core::ThroughputPredictor;
use cs2p_net::http::Request;
use cs2p_net::protocol::{Degradation, PredictRequest};
use cs2p_net::{
    serve_with, AdmissionConfig, AdmissionLevel, HttpClient, OpsSnapshot, ServeConfig, ServerHandle,
};
use cs2p_testkit::faults::shutdown_bounded;
use cs2p_testkit::loadgen::{predict, run_load, send, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::time::{Duration, Instant};

fn default_server() -> ServerHandle {
    serve_with(tiny_engine(), "127.0.0.1:0", ServeConfig::default()).unwrap()
}

#[test]
fn forced_full_under_overload_matches_unloaded_golden() {
    // Golden: one client, default server, no admission machinery armed.
    let workload = LoadConfig {
        n_clients: 1,
        n_sessions: 16,
        epochs_per_session: 5,
        horizon: 2,
        seed: 41,
        session_id_base: 1_000,
        ..LoadConfig::default()
    };
    let golden_server = default_server();
    let golden = run_load(golden_server.addr(), &workload);
    assert_eq!(golden.ok, golden.sent);
    shutdown_bounded(golden_server);

    // Overloaded: 16 clients against one worker, watermarks armed but
    // pinned at Full, queue deep enough that nothing is rejected. The
    // admission layer sits in the request path for every one of these
    // requests — and must not change a single bit of any answer.
    let config = ServeConfig {
        n_workers: 1,
        queue_depth: 1024,
        admission: AdmissionConfig::watermarks(),
        ..ServeConfig::default()
    };
    let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
    server.force_admission_level(Some(AdmissionLevel::Full));
    let overloaded = run_load(
        server.addr(),
        &LoadConfig {
            n_clients: 16,
            ..workload.clone()
        },
    );
    let stats = shutdown_bounded(server);
    assert_eq!(overloaded.rejected, 0, "queue sized for the workload");
    assert_eq!(overloaded.ok, overloaded.sent);
    assert_eq!(overloaded.degraded + overloaded.fallback, 0);
    assert_eq!(
        golden.predictions, overloaded.predictions,
        "Full under overload must be bit-identical to the unloaded golden"
    );
    assert_eq!(stats.admission.served_full, stats.predictions_served);
}

#[test]
fn degraded_level_skips_filter_updates_differentially() {
    // Server A: session 7 registers, then reports m1/m2 while the
    // ladder is pinned Degraded, then m3 after recovery.
    let server_a = default_server();
    let register = PredictRequest {
        session_id: 7,
        features: Some(vec![1]),
        measured_mbps: None,
        horizon: 3,
    };
    let first = predict(server_a.addr(), &register);
    assert!(first.initial);
    assert_eq!(first.degradation, None);

    server_a.force_admission_level(Some(AdmissionLevel::Degraded));
    let mut degraded_answers = Vec::new();
    for m in [4.8, 5.3] {
        let resp = predict(
            server_a.addr(),
            &PredictRequest {
                session_id: 7,
                features: None,
                measured_mbps: Some(m),
                horizon: 3,
            },
        );
        assert_eq!(resp.degradation, Some(Degradation::Degraded));
        assert!(
            resp.initial,
            "no filter update at Degraded: the session never leaves epoch 0"
        );
        degraded_answers.push(resp.predictions_mbps);
    }
    // The cluster prior is one constant vector, identical across epochs.
    assert_eq!(degraded_answers[0], degraded_answers[1]);
    assert_eq!(degraded_answers[0].len(), 3);
    assert!(degraded_answers[0]
        .windows(2)
        .all(|w| w[0].to_bits() == w[1].to_bits()));

    server_a.force_admission_level(None);
    let after = predict(
        server_a.addr(),
        &PredictRequest {
            session_id: 7,
            features: None,
            measured_mbps: Some(5.1),
            horizon: 3,
        },
    );
    assert_eq!(after.degradation, None);

    // Server B never degrades and never sees m1/m2: if Degraded really
    // dropped them, the post-recovery answer is bit-identical to a
    // session whose first measurement is m3.
    let server_b = default_server();
    predict(server_b.addr(), &register);
    let golden = predict(
        server_b.addr(),
        &PredictRequest {
            session_id: 7,
            features: None,
            measured_mbps: Some(5.1),
            horizon: 3,
        },
    );
    assert_eq!(
        after.predictions_mbps, golden.predictions_mbps,
        "measurements reported at Degraded must never reach the filter"
    );
    let stats = shutdown_bounded(server_a);
    assert_eq!(stats.admission.served_degraded, 2);
    assert_eq!(
        stats.admission.served_full + stats.admission.served_degraded,
        stats.predictions_served
    );
    shutdown_bounded(server_b);
}

#[test]
fn fallback_level_reproduces_the_harmonic_mean_baseline_exactly() {
    let server = serve_with(tiny_engine(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    server.force_admission_level(Some(AdmissionLevel::Fallback));

    // No measurement, no history: shed with a Retry-After.
    let body = serde_json::to_vec(&PredictRequest {
        session_id: 42,
        features: Some(vec![0]),
        measured_mbps: None,
        horizon: 2,
    })
    .unwrap();
    let resp = send(server.addr(), &Request::new("POST", "/predict", body));
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));

    // Every measurement-carrying request answers exactly what the
    // paper's HarmonicMean baseline would after the same observations.
    let mut hm = HarmonicMean::new();
    for (i, m) in [2.0, 6.0, 3.0, 0.0, 4.5].into_iter().enumerate() {
        let resp = predict(
            server.addr(),
            &PredictRequest {
                session_id: 42,
                features: None,
                measured_mbps: Some(m),
                horizon: 4,
            },
        );
        assert_eq!(resp.degradation, Some(Degradation::Fallback));
        hm.observe(m);
        let want = hm.predict_ahead(1).unwrap();
        assert_eq!(resp.predictions_mbps.len(), 4);
        for p in &resp.predictions_mbps {
            assert_eq!(p.to_bits(), want.to_bits(), "sample {i}");
        }
    }
    let stats = shutdown_bounded(server);
    assert_eq!(stats.admission.served_fallback, 5);
    assert_eq!(stats.admission.fallback_misses, 1);
    assert_eq!(
        stats.admission.served_fallback + stats.admission.served_full,
        stats.predictions_served
    );
}

#[test]
fn ops_surface_never_sheds_and_reports_the_current_level() {
    let server = default_server();
    server.force_admission_level(Some(AdmissionLevel::Shed));
    let mut client = HttpClient::new(server.addr());

    // Predict traffic is refused…
    let resp = client
        .send(&Request::new(
            "POST",
            "/predict",
            serde_json::to_vec(&PredictRequest {
                session_id: 1,
                features: Some(vec![1]),
                measured_mbps: None,
                horizon: 1,
            })
            .unwrap(),
        ))
        .unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    client.reset_connection();

    // …but the operator's read-only surface keeps answering, and
    // truthfully reports the level doing the refusing.
    let ops = client.get("/ops").unwrap();
    assert_eq!(ops.status, 200);
    let snap: OpsSnapshot = serde_json::from_slice(&ops.body).unwrap();
    assert_eq!(snap.admission.level, "shed");
    assert_eq!(snap.admission.shed, 1);
    assert!(snap.admission.store_occupancy >= 0.0);

    let prom = client.get("/ops/metrics").unwrap();
    assert_eq!(prom.status, 200);
    let text = String::from_utf8(prom.body.to_vec()).unwrap();
    assert!(text.contains("cs2p_admission_level 3"), "{text}");
    assert!(
        text.contains(r#"cs2p_admission_level_info{level="shed"} 1"#),
        "{text}"
    );
    assert!(text.contains("cs2p_admission_shed 1"), "{text}");

    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let stats = shutdown_bounded(server);
    assert_eq!(stats.admission.shed, 1);
}

#[test]
fn graceful_shutdown_is_bounded_at_every_forced_level() {
    for level in [
        None,
        Some(AdmissionLevel::Degraded),
        Some(AdmissionLevel::Fallback),
        Some(AdmissionLevel::Shed),
    ] {
        let server = default_server();
        server.force_admission_level(level);
        let report = run_load(
            server.addr(),
            &LoadConfig {
                n_clients: 2,
                n_sessions: 4,
                epochs_per_session: 3,
                seed: 9,
                ..LoadConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "level {level:?}");
        let stats = shutdown_bounded(server);
        assert_eq!(
            stats.admission.served_full
                + stats.admission.served_degraded
                + stats.admission.served_fallback,
            stats.predictions_served,
            "level {level:?}: ladder serve ledger out of balance"
        );
    }
}

#[test]
fn enabled_watermarks_survive_overload_and_recover_to_full() {
    // A storm the watermarks can actually see: 16 closed-loop clients
    // against one worker and a 4-deep queue. Which requests land at
    // which level is scheduling-dependent; what must hold exactly is
    // the ledger, survival, and recovery. The outer loop re-rolls the
    // (practically certain) overload in the unlikely event a scheduler
    // quirk let the queue stay shallow all run.
    for attempt in 0..3 {
        let config = ServeConfig {
            n_workers: 1,
            queue_depth: 4,
            admission: AdmissionConfig::watermarks(),
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let report = run_load(
            server.addr(),
            &LoadConfig {
                n_clients: 16,
                n_sessions: 32,
                epochs_per_session: 6,
                horizon: 2,
                seed: 17 + attempt,
                session_id_base: 1_000,
                ..LoadConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "overload must never error, only shed");

        // Recovery: keep sampling with cheap requests until the dwell
        // timers walk the ladder back down to Full (condition polling,
        // not a fixed sleep — the watermark clock is real time here).
        let mut probe = HttpClient::new(server.addr());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(resp) = probe.send(&Request::new("GET", "/healthz", bytes::Bytes::new())) {
                if resp.status == 503 {
                    probe.reset_connection();
                }
            } else {
                probe.reset_connection();
            }
            if server.admission_level() == AdmissionLevel::Full {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "ladder never recovered to Full after the storm (stuck at {:?})",
                server.admission_level()
            );
            std::thread::yield_now();
        }

        let stats = shutdown_bounded(server);
        let snap = stats.admission;
        // Exact ledgers even under a scheduling-dependent storm: every
        // 200 at exactly one level, every client-visible 503 accounted
        // to queue backpressure, an admission shed, or a fallback miss.
        assert_eq!(
            snap.served_full + snap.served_degraded + snap.served_fallback,
            stats.predictions_served
        );
        assert_eq!(
            report.rejected,
            stats.rejected + snap.shed + snap.fallback_misses,
            "503 ledger out of balance: {report:?} vs {stats:?}"
        );
        assert_eq!(report.ok, stats.predictions_served);
        assert_eq!(
            report.degraded, snap.served_degraded,
            "every degraded answer carries its provenance mark"
        );
        assert_eq!(report.fallback, snap.served_fallback);

        // Non-vacuity: the storm actually moved the ladder (or re-roll).
        if snap.transitions > 0 {
            assert!(snap.served_degraded + snap.served_fallback + snap.shed + stats.rejected > 0);
            return;
        }
    }
    panic!("16 clients against a 4-deep queue never built pressure in 3 attempts");
}
