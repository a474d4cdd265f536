//! The live ops surface and the in-band prediction-quality monitor,
//! observed over plain HTTP (no global registry involved — the monitor
//! keeps its own sketches, so `/ops` works with telemetry disabled).
//!
//! Covers:
//! - `GET /ops` returns the full [`OpsSnapshot`] as JSON, consistent
//!   with [`ServerHandle::metrics_snapshot`];
//! - `GET /ops/metrics` renders Prometheus text with the documented
//!   content type;
//! - `/predict` measurements score the *previous* prediction, keyed by
//!   model version and provenance (`v1.cluster.*` vs `v1.global.*`);
//! - `/log` closes a live session's open prediction as unmatched, and
//!   scores offline `throughput_pairs` into the `log` sketch;
//! - `PredictResponse.cluster_hit` reports cluster vs global fallback.

use cs2p_net::http::Request;
use cs2p_net::protocol::{PredictRequest, PredictResponse, SessionLog};
use cs2p_net::{serve, ServerHandle};
use cs2p_testkit::loadgen::{ops, predict, send};
use cs2p_testkit::scenarios::tiny_engine;
use std::net::SocketAddr;

fn server() -> ServerHandle {
    serve(tiny_engine(), "127.0.0.1:0").expect("server starts")
}

/// Streams `epochs` requests for one session (features first, then
/// measurements), returning every response.
fn stream(
    addr: SocketAddr,
    sid: u64,
    features: Vec<u32>,
    mbps: f64,
    epochs: usize,
) -> Vec<PredictResponse> {
    (0..epochs)
        .map(|epoch| {
            predict(
                addr,
                &PredictRequest {
                    session_id: sid,
                    features: (epoch == 0).then(|| features.clone()),
                    measured_mbps: (epoch > 0).then_some(mbps),
                    horizon: 1,
                },
            )
        })
        .collect()
}

#[test]
fn ops_json_matches_the_embedded_snapshot() {
    let server = server();
    let addr = server.addr();
    stream(addr, 1, vec![1], 5.0, 4);

    let over_http = ops(addr);
    let embedded = server.metrics_snapshot();
    // Stable fields agree between the HTTP surface and the embedded
    // accessor (latency/connection gauges move with the /ops request
    // itself, so the comparison sticks to the model and quality state).
    assert_eq!(over_http.status, "ok");
    assert_eq!(over_http.model_version, embedded.model_version);
    assert_eq!(over_http.n_models, embedded.n_models);
    assert_eq!(over_http.predictions_served, 4);
    assert_eq!(over_http.sessions_live, 1);
    assert_eq!(over_http.quality, embedded.quality);
    // No global registry in this test: fault rows must be empty, not
    // fabricated.
    assert!(over_http.faults.is_empty());
    server.shutdown();
}

#[test]
fn ops_metrics_renders_prometheus_text() {
    let server = server();
    let addr = server.addr();
    stream(addr, 7, vec![1], 5.0, 3);

    let resp = send(addr, &Request::new("GET", "/ops/metrics", Vec::new()));
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    for needle in [
        "cs2p_up 1",
        "cs2p_model_version 1",
        "cs2p_predictions_served 3",
        "# TYPE cs2p_request_latency_us summary",
        "cs2p_quality_matched 2",
        "cs2p_quality_ape{key=\"v1.cluster.initial\",quantile=\"0.5\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn measurements_score_the_previous_prediction_by_provenance() {
    let server = server();
    let addr = server.addr();
    // Cluster session: first scored sample is the initial prediction,
    // the rest are midstream.
    stream(addr, 10, vec![1], 5.0, 4);
    // Unknown feature vector falls back to the global model.
    let global = stream(addr, 11, vec![9], 5.0, 3);
    assert!(
        !global[0].cluster_hit,
        "unseen ISP must fall back to global"
    );

    let snap = server.metrics_snapshot();
    assert_eq!(snap.quality.matched, 5); // 3 cluster + 2 global
    let find = |key: &str| {
        snap.quality
            .ape
            .iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("missing {key} in {:?}", snap.quality.ape))
            .clone()
    };
    assert_eq!(find("v1.cluster.initial").count, 1);
    assert_eq!(find("v1.cluster.midstream").count, 2);
    assert_eq!(find("v1.global.initial").count, 1);
    assert_eq!(find("v1.global.midstream").count, 1);
    // The tiny world is constant, so cluster APE is ~0 throughout.
    assert!(find("v1.cluster.initial").p50 < 0.05);
    server.shutdown();
}

#[test]
fn cluster_hit_is_constant_per_session_and_true_for_clustered_isps() {
    let server = server();
    let addr = server.addr();
    let clustered = stream(addr, 20, vec![0], 1.0, 3);
    assert!(clustered.iter().all(|r| r.cluster_hit));
    let fallback = stream(addr, 21, vec![42], 1.0, 3);
    assert!(fallback.iter().all(|r| !r.cluster_hit));
    server.shutdown();
}

#[test]
fn log_closes_open_predictions_as_unmatched_and_scores_offline_pairs() {
    let server = server();
    let addr = server.addr();
    // Live session: the last prediction is still pending when /log
    // arrives, so it counts unmatched.
    stream(addr, 30, vec![1], 5.0, 3);
    let live_log = SessionLog {
        session_id: 30,
        strategy: "CS2P+MPC".into(),
        qoe: 1.0,
        avg_bitrate_kbps: 1000.0,
        good_ratio: 1.0,
        rebuffer_seconds: 0.0,
        startup_delay_seconds: 0.5,
        throughput_pairs: vec![],
        bitrates_kbps: vec![],
    };
    let resp = send(
        addr,
        &Request::new("POST", "/log", serde_json::to_vec(&live_log).unwrap()),
    );
    assert_eq!(resp.status, 204);

    // Offline upload for a session the server never saw: scored pairs go
    // into the dedicated `log` sketch. A pair with a zero measurement
    // counts unmatched; a pair with no prediction is skipped outright
    // (there was never a prediction to score).
    let offline_log = SessionLog {
        session_id: 999,
        strategy: "offline".into(),
        qoe: 0.5,
        avg_bitrate_kbps: 800.0,
        good_ratio: 0.9,
        rebuffer_seconds: 1.0,
        startup_delay_seconds: 1.0,
        throughput_pairs: vec![
            (Some(4.0), 5.0),
            (Some(5.0), 5.0),
            (None, 5.0),
            (Some(3.0), 0.0),
        ],
        bitrates_kbps: vec![],
    };
    let resp = send(
        addr,
        &Request::new("POST", "/log", serde_json::to_vec(&offline_log).unwrap()),
    );
    assert_eq!(resp.status, 204);

    let snap = server.metrics_snapshot();
    // 2 scored in-band + 2 scored offline pairs.
    assert_eq!(snap.quality.matched, 4);
    // 1 pending-at-log + 1 unusable (zero) actual.
    assert_eq!(snap.quality.unmatched, 2);
    let log_row = snap
        .quality
        .ape
        .iter()
        .find(|r| r.key == "log")
        .expect("log sketch present");
    assert_eq!(log_row.count, 2);
    server.shutdown();
}
