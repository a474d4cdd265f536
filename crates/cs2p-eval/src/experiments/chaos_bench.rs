//! `chaos-bench`: a telemetry capture of the hardened failure path, not
//! a benchmark.
//!
//! It runs the testkit's one load driver with faults as its input
//! (`cs2p_testkit::faults::run_chaos`): every client sends through a
//! seeded fault plan — resets mid-request and mid-response, truncated,
//! corrupted and dribbled frames — and every session is force-evicted
//! once mid-stream. One run ships singleton `/predict` frames, one ships
//! ragged `/predict_batch` frames. It prints the fired-fault tally per
//! class and each run's ledger, and panics unless the recovery rules
//! held — the same `faults::assert_recovered` the chaos soak calls:
//! nothing abandoned, errored or shed, one re-registration per forced
//! eviction, every session answered once per epoch, and the send ledger
//! of the run's framing balanced. What it is for is the
//! `--metrics` file: `tests/captures.rs` validates two runs, diffs them,
//! and looks for the `serve.fault.*` / `client.retry.*` telemetry.
//! Nothing here reads a clock; `perf/` is the one harness that times the
//! server.

use cs2p_net::{serve_with, ServeConfig};
use cs2p_testkit::faults::{assert_recovered, run_chaos, ChaosConfig};
use cs2p_testkit::loadgen::{BatchSpec, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::fmt::Write as _;
use std::time::Duration;

const N_SESSIONS: usize = 16;
const EPOCHS_PER_SESSION: usize = 5;

/// Runs the singleton and the ragged-batch chaos runs against one server.
pub fn chaos_bench() -> String {
    let config = ServeConfig {
        n_workers: 2,
        // Short reaping window so a truncated frame costs 100 ms, not the
        // production 10 s timeout.
        io_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = serve_with(tiny_engine(), "127.0.0.1:0", config).expect("bind chaos server");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos-bench: telemetry capture, a fault plan on every client, \
         {N_SESSIONS} sessions x {EPOCHS_PER_SESSION} epochs"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>6} {:>9}",
        "frames",
        "reset-rd",
        "reset-wr",
        "truncated",
        "corrupted",
        "dribbled",
        "evicted",
        "sent",
        "ok",
        "reinit",
        "err-stat"
    );
    let runs = [
        ("1", None),
        (
            "1..=7",
            Some(BatchSpec {
                min_entries: 1,
                max_entries: 7,
            }),
        ),
    ];
    for (k, (frames, batch)) in runs.into_iter().enumerate() {
        let chaos = ChaosConfig {
            load: LoadConfig {
                n_sessions: N_SESSIONS,
                epochs_per_session: EPOCHS_PER_SESSION,
                session_id_base: 80_000 + 1_000 * k as u64,
                batch,
                // Its plans fire every fault class in both runs.
                seed: 11,
                ..LoadConfig::default()
            },
            chaotic_client_percent: 100,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&server, &chaos);
        assert_recovered(&report, &chaos.load);
        let f = report.fired;
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>6} {:>9}",
            frames,
            f.resets_read,
            f.resets_write,
            f.truncations,
            f.corruptions,
            f.dribbles,
            report.forced_evictions,
            report.sent,
            report.ok,
            report.reinit,
            report.error_statuses
        );
    }
    server.shutdown();
    out
}
