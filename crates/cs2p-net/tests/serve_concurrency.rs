//! Concurrency correctness, overload backpressure, and graceful-drain
//! tests for the sharded prediction server (driven by the testkit load
//! generator — see TESTING.md).

use cs2p_net::http::{Request, Response};
use cs2p_net::protocol::PredictRequest;
use cs2p_net::{serve_with, HttpClient, ServeConfig};
use cs2p_testkit::invariants::assert_serving_concurrency_independence;
use cs2p_testkit::loadgen::{run_load, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// K concurrent clients against worker counts {1, 2, 8} must produce
/// per-session prediction sequences bit-identical to one client against
/// one worker.
#[test]
fn concurrent_serving_matches_single_threaded_run() {
    let workload = LoadConfig {
        n_clients: 4,
        n_sessions: 8,
        epochs_per_session: 4,
        horizon: 2,
        seed: 21,
        ..LoadConfig::default()
    };
    assert_serving_concurrency_independence(&[1, 2, 8], &workload);
}

/// Interleaved arrival *timing* must not matter either: a paced
/// (open-loop, seeded gaps) multi-client run sees the same per-session
/// predictions as the closed-loop run.
#[test]
fn paced_interleaving_does_not_change_predictions() {
    let workload = LoadConfig {
        n_clients: 3,
        n_sessions: 6,
        epochs_per_session: 3,
        seed: 22,
        max_gap_us: 300,
        ..LoadConfig::default()
    };
    assert_serving_concurrency_independence(&[2], &workload);
}

/// Overload (tiny queue, one worker, many clients) must answer 503 —
/// never panic, deadlock, or silently drop a connection: every request
/// is accounted for as ok, rejected, or a clean transport error, and the
/// server keeps serving afterwards.
#[test]
fn overload_yields_503_backpressure_and_stays_healthy() {
    let config = ServeConfig {
        n_workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
    let workload = LoadConfig {
        n_clients: 16,
        n_sessions: 32,
        epochs_per_session: 4,
        seed: 23,
        ..LoadConfig::default()
    };
    let report = run_load(server.addr(), &workload);
    // Every request is accounted for: answered 200, shed with a 503,
    // answered 404 (a 503'd registration makes the session unknown, and
    // the load generator re-registers), or a clean transport error.
    assert_eq!(
        report.ok + report.rejected + report.reinit + report.errors,
        report.sent,
        "every request must be accounted for"
    );
    assert!(
        report.rejected > 0,
        "a 1-deep queue under 16 clients must shed load via 503"
    );
    assert!(report.ok > 0, "the server must still make progress");

    // The server survived the storm and still answers.
    let mut client = HttpClient::new(server.addr());
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);

    let stats = server.shutdown();
    assert!(stats.rejected >= report.rejected);
    // The server never served more 200s than clients observed plus the
    // (rare) retransmits after a broken keep-alive connection.
    assert!(stats.predictions_served >= report.ok);
}

fn spawn_streamer(addr: SocketAddr, session_id: u64) -> std::thread::JoinHandle<(u64, bool)> {
    std::thread::spawn(move || {
        let mut client = HttpClient::new(addr);
        let mut ok = 0u64;
        let mut clean_exit = false;
        for epoch in 0..10_000u64 {
            let preq = PredictRequest {
                session_id,
                features: (epoch == 0).then(|| vec![(session_id % 2) as u32]),
                measured_mbps: (epoch > 0).then_some(2.5),
                horizon: 1,
            };
            let body = serde_json::to_vec(&preq).unwrap();
            match client.send(&Request::new("POST", "/predict", body)) {
                Ok(Response { status: 200, .. }) => ok += 1,
                // Any refusal/close during shutdown is a *clean* end:
                // the request was answered or never read, not dropped.
                _ => {
                    clean_exit = true;
                    break;
                }
            }
        }
        (ok, clean_exit)
    })
}

/// `shutdown()` must complete in bounded time while clients are actively
/// streaming, and every request the server accepted must have been
/// answered (clients' 200-counts never exceed the server's own count —
/// nothing in flight was dropped; streamers terminate promptly instead
/// of hanging on a half-closed connection).
#[test]
fn shutdown_is_bounded_and_drains_in_flight_requests() {
    let config = ServeConfig {
        n_workers: 2,
        io_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let streamers: Vec<_> = (0..4).map(|i| spawn_streamer(addr, 500 + i)).collect();

    // Let traffic build — polling the server's own served counter rather
    // than sleeping a fixed interval, so a slow machine waits longer and
    // a fast one doesn't wait at all — then pull the plug mid-stream.
    let traffic_deadline = Instant::now() + Duration::from_secs(30);
    while server.predictions_served() < 50 {
        assert!(
            Instant::now() < traffic_deadline,
            "streamers never produced traffic"
        );
        std::thread::yield_now();
    }
    let start = Instant::now();
    let stats = server.shutdown();
    let shutdown_elapsed = start.elapsed();
    assert!(
        shutdown_elapsed < Duration::from_secs(5),
        "shutdown took {shutdown_elapsed:?}"
    );

    let mut client_ok = 0u64;
    for h in streamers {
        let (ok, clean_exit) = h.join().expect("streamer panicked");
        assert!(clean_exit, "streamer outlived the server");
        client_ok += ok;
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "streamers did not unblock promptly after shutdown"
    );
    assert!(client_ok > 0, "no traffic flowed before shutdown");
    assert!(
        stats.predictions_served >= client_ok,
        "server answered {} but clients saw {} — in-flight work dropped",
        stats.predictions_served,
        client_ok
    );
}

/// Restarting on the same port right after shutdown works: all threads,
/// sockets, and the listener are actually gone.
#[test]
fn shutdown_releases_the_port() {
    let server = serve_with(tiny_engine(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr();
    server.shutdown();
    let again = serve_with(tiny_engine(), &addr.to_string(), ServeConfig::default())
        .expect("rebinding the freed port");
    let mut client = HttpClient::new(again.addr());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    again.shutdown();
}
