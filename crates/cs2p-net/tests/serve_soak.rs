//! Soak/churn test: hundreds of short-lived sessions against a server
//! with a tight session-capacity bound and LRU eviction.
//!
//! This file is its own test binary (one `#[test]`) because it flips the
//! *global* cs2p-obs registry on and diffs its counters; sharing a
//! process with unrelated concurrent tests would make the counter diff
//! meaningless.

use cs2p_net::protocol::Health;
use cs2p_net::{serve_with, HttpClient, ServeConfig};
use cs2p_testkit::loadgen::{run_load, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;

#[test]
fn churn_of_500_sessions_respects_capacity_and_reports_evictions() {
    let registry = cs2p_obs::Registry::global();
    cs2p_obs::set_enabled(true);
    let evicted_before = registry
        .snapshot()
        .counters
        .get("serve.evicted")
        .copied()
        .unwrap_or(0);

    let config = ServeConfig {
        n_shards: 4,
        n_workers: 2,
        queue_depth: 2048,
        max_sessions: 64,
        ..ServeConfig::default()
    };
    let capacity = config.max_sessions;
    let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();

    let workload = LoadConfig {
        n_clients: 4,
        n_sessions: 500,
        epochs_per_session: 2,
        horizon: 1,
        seed: 31,
        session_id_base: 10_000,
        ..LoadConfig::default()
    };
    let report = run_load(server.addr(), &workload);

    // Nothing was shed or lost: every request (including the re-init
    // retries after a 404) was eventually answered 200.
    assert_eq!(report.rejected, 0, "workload must not overload the queue");
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok, report.sent - report.reinit);
    assert!(
        report.reinit > 0,
        "500 sessions over a 64-session bound must evict live sessions \
         and exercise the 404 re-init path"
    );
    // Every session produced its two predictions (one may have come from
    // a re-registered filter).
    assert_eq!(report.predictions.len(), workload.n_sessions);
    for (id, preds) in &report.predictions {
        assert_eq!(preds.len(), workload.epochs_per_session, "session {id}");
    }

    // The session map never outgrew its bound, and the server agrees
    // over HTTP.
    let stats = server.stats();
    assert!(
        stats.sessions_live <= capacity,
        "live {} > capacity {}",
        stats.sessions_live,
        capacity
    );
    assert!(stats.session_capacity >= capacity);
    assert!(
        stats.sessions_evicted >= (workload.n_sessions - capacity) as u64,
        "evicted only {} of the inevitable {}",
        stats.sessions_evicted,
        workload.n_sessions - capacity
    );
    let mut client = HttpClient::new(server.addr());
    let health: Health = serde_json::from_slice(&client.get("/healthz").unwrap().body).unwrap();
    assert!(health.n_sessions <= capacity);

    // The `serve.evicted` telemetry matches the store's own count.
    let evicted_after = registry
        .snapshot()
        .counters
        .get("serve.evicted")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        evicted_after - evicted_before,
        stats.sessions_evicted,
        "serve.evicted telemetry out of sync with the store"
    );

    let final_stats = server.shutdown();
    assert_eq!(final_stats.predictions_served, report.ok);
    cs2p_obs::set_enabled(false);
}
