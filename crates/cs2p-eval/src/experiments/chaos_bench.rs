//! `chaos-bench`: recovery latency and success rate of the hardened
//! client/server failure path, one row per fault class.
//!
//! Each trial injects exactly one fault from `cs2p-testkit::faults` into
//! an otherwise healthy register-and-predict exchange and measures the
//! wall time until the request finally succeeds (client transport
//! retries, corrupted-frame resends, and forced-eviction re-registration
//! included). The fault-free baseline row calibrates what "recovered"
//! costs relative to a clean request. Like `serve-bench`, this needs no
//! paper materials and works with `--metrics` (fault telemetry lands in
//! the `serve.fault.*` / `client.retry.*` vocabulary).

use cs2p_net::http::Request;
use cs2p_net::protocol::PredictRequest;
use cs2p_net::{serve_with, HttpClient, RetryPolicy, ServeConfig, ServerHandle};
use cs2p_testkit::faults::{FaultAction, FaultPlan};
use cs2p_testkit::scenarios::tiny_engine;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRIALS: usize = 10;

/// Harness-level resends (on top of the client's transport retries).
const MAX_RESENDS: usize = 4;

struct Row {
    class: &'static str,
    trials: usize,
    succeeded: usize,
    latencies_ms: Vec<f64>,
}

impl Row {
    fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }

    fn max_ms(&self) -> f64 {
        self.latencies_ms.iter().cloned().fold(0.0, f64::max)
    }
}

fn bench_server() -> ServerHandle {
    let config = ServeConfig {
        n_workers: 2,
        // Short reaping window so truncated frames do not dominate the
        // table with the production 10 s timeout.
        io_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap()
}

fn register_request(session_id: u64, with_features: bool, measured: Option<f64>) -> Request {
    let preq = PredictRequest {
        session_id,
        features: with_features.then(|| vec![1]),
        measured_mbps: measured,
        horizon: 2,
    };
    Request::new("POST", "/predict", serde_json::to_vec(&preq).unwrap())
}

/// Drives one logical request to a 200 (absorbing 400s from corrupted
/// frames by resending); returns success. Every resend carries the
/// features again, so a mid-flight eviction cannot strand the trial.
fn drive_to_success(client: &mut HttpClient, session_id: u64) -> bool {
    for _ in 0..MAX_RESENDS {
        match client.send(&register_request(session_id, true, None)) {
            Ok(resp) if resp.status == 200 => return true,
            Ok(_) | Err(_) => client.reset_connection(),
        }
    }
    false
}

/// One trial: a fresh client (so the fault lands on its connection 0)
/// against a shared healthy server.
fn trial(server: &ServerHandle, session_id: u64, fault: Option<FaultAction>) -> (bool, f64) {
    let mut client = HttpClient::new(server.addr()).with_retry(RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_micros(500),
        max_backoff: Duration::from_millis(5),
        seed: session_id,
    });
    if let Some(action) = fault {
        let plan = FaultPlan::new().fault(0, action);
        client = client.with_transport_wrapper(Arc::new(plan));
    }
    let start = Instant::now();
    let ok = drive_to_success(&mut client, session_id);
    (ok, start.elapsed().as_secs_f64() * 1e3)
}

/// The forced-eviction class is not a transport fault: register, evict
/// server-side, then measure the re-register-and-replay round trip.
fn eviction_trial(server: &ServerHandle, session_id: u64) -> (bool, f64) {
    let mut client = HttpClient::new(server.addr());
    if !drive_to_success(&mut client, session_id) {
        return (false, 0.0);
    }
    server.force_evict(session_id);
    let start = Instant::now();
    // The measured-only request 404s; the replay re-registers with the
    // measurement attached, exactly like `RemotePredictor` does.
    let ok = match client.send(&register_request(session_id, false, Some(2.5))) {
        Ok(resp) if resp.status == 404 => matches!(
            client.send(&register_request(session_id, true, Some(2.5))),
            Ok(r) if r.status == 200
        ),
        Ok(resp) => resp.status == 200,
        Err(_) => false,
    };
    (ok, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the full table. Each class gets its own server so lingering
/// half-dead connections from one class cannot skew the next.
pub fn chaos_bench() -> String {
    let classes: [(&'static str, Option<FaultAction>); 6] = [
        ("baseline (no fault)", None),
        (
            "reset mid-response",
            Some(FaultAction::ResetAfterReadBytes(20)),
        ),
        (
            "reset mid-request",
            Some(FaultAction::ResetAfterWriteBytes(10)),
        ),
        (
            "truncated frame",
            Some(FaultAction::TruncateWritesAfter(25)),
        ),
        ("corrupted frame", Some(FaultAction::CorruptWriteByte(1))),
        (
            "dribbled request",
            Some(FaultAction::DribbleWrites {
                advance_us_per_write: 0,
            }),
        ),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (i, (class, action)) in classes.iter().enumerate() {
        let server = bench_server();
        let mut row = Row {
            class,
            trials: TRIALS,
            succeeded: 0,
            latencies_ms: Vec::new(),
        };
        for t in 0..TRIALS {
            let session_id = 80_000 + (i as u64) * 1_000 + t as u64;
            let (ok, ms) = trial(&server, session_id, *action);
            if ok {
                row.succeeded += 1;
                row.latencies_ms.push(ms);
            }
        }
        server.shutdown();
        rows.push(row);
    }

    let server = bench_server();
    let mut evict_row = Row {
        class: "forced eviction",
        trials: TRIALS,
        succeeded: 0,
        latencies_ms: Vec::new(),
    };
    for t in 0..TRIALS {
        let (ok, ms) = eviction_trial(&server, 89_000 + t as u64);
        if ok {
            evict_row.succeeded += 1;
            evict_row.latencies_ms.push(ms);
        }
    }
    server.shutdown();
    rows.push(evict_row);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos-bench: recovery per fault class ({TRIALS} trials each, one injected fault per trial)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>14} {:>12}",
        "fault class", "trials", "success", "mean ms", "max ms"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>9.0}% {:>14.2} {:>12.2}",
            row.class,
            row.trials,
            100.0 * row.succeeded as f64 / row.trials as f64,
            row.mean_ms(),
            row.max_ms()
        );
    }
    out.push_str(
        "recovery = wall time from first byte of the faulted exchange to its eventual 200\n",
    );
    out
}
