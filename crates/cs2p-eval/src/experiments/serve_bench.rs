//! `serve-bench`: a telemetry capture of the sharded worker-pool
//! prediction server, not a benchmark.
//!
//! It drives one server with the testkit's deterministic load generator
//! — singleton `/predict` phases at 1, 8 and 64 clients, then a
//! `/predict_batch` phase in frames of 64 — and prints only accounting.
//! What it is for is the `--metrics` file: CI's schema, two-run
//! determinism, tracing and vocabulary gates read it (and
//! `tests/captures.rs` runs the same gates offline). Nothing here reads
//! a clock; `perf/` is the one harness that times the server.
//!
//! Unlike the paper experiments this needs no materials: the server
//! runs the milliseconds-scale two-ISP `tiny_engine`.

use cs2p_net::{serve_with, ServeConfig};
use cs2p_testkit::loadgen::{run_load, BatchSpec, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::fmt::Write as _;
use std::net::SocketAddr;

const CLIENT_COUNTS: [usize; 3] = [1, 8, 64];
pub(crate) const EPOCHS_PER_SESSION: usize = 4;
/// Entries per `/predict_batch` frame in the batched phases.
pub(crate) const FRAME: usize = 64;

pub(crate) fn sharded_config() -> ServeConfig {
    ServeConfig {
        n_workers: 8,
        n_shards: 8,
        queue_depth: 1024,
        max_connections: 4096,
        ..ServeConfig::default()
    }
}

/// Column titles for the rows [`capture_phase`] appends.
pub(crate) const PHASE_HEADER: &str = "  clients  sessions  frame    sent      ok";

/// Runs one load phase and appends its accounting row; panics if any
/// request was shed or failed (the phases are sized to be absorbed).
///
/// Clients are trace-seeded, so the capture's `serve.request` spans
/// carry `trace_id`s. Each session reports throughputs within 30% of
/// its trained regime: the APEs the quality monitor scores stay far
/// under the drift threshold, so the alarm — whose firing point would
/// depend on cross-client interleaving — never enters a file that CI
/// diffs across two runs.
pub(crate) fn capture_phase(
    out: &mut String,
    addr: SocketAddr,
    n_clients: usize,
    n_sessions: usize,
    session_id_base: u64,
    frame: Option<usize>,
) {
    let config = LoadConfig {
        n_clients,
        n_sessions,
        epochs_per_session: EPOCHS_PER_SESSION,
        session_id_base,
        // Distinct per phase, so trace ids never collide within a capture.
        trace_seed: Some(0x5E12_BE4C ^ session_id_base),
        batch: frame.map(BatchSpec::fixed),
        ..LoadConfig::default()
    };
    let report = run_load(addr, &config);
    assert_eq!(
        (report.ok, report.sent),
        (report.sent, config.total_requests()),
        "capture workload shed load: {n_clients} clients, frame {frame:?}, \
         {} rejected, {} errors",
        report.rejected,
        report.errors
    );
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>6} {:>7} {:>7}",
        n_clients,
        n_sessions,
        frame.unwrap_or(1),
        report.sent,
        report.ok
    );
}

/// The serve-bench capture: singleton phases per client count, then one
/// batched phase, all against one server.
pub fn serve_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: telemetry capture, {EPOCHS_PER_SESSION} requests per session"
    );
    let _ = writeln!(out, "{PHASE_HEADER}");
    let server = serve_with(tiny_engine(), "127.0.0.1:0", sharded_config()).expect("bind sharded");
    let mut base = 90_000;
    for &n_clients in &CLIENT_COUNTS {
        capture_phase(&mut out, server.addr(), n_clients, n_clients, base, None);
        base += 1_000;
    }
    capture_phase(&mut out, server.addr(), 8, 8 * FRAME, base, Some(FRAME));
    server.shutdown();
    out
}
