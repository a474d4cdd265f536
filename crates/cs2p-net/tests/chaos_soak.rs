//! Chaos soak: the full loadgen workload under seeded fault schedules.
//!
//! For every seed (fixed CI matrix, overridable via `CHAOS_SEEDS`, e.g.
//! `CHAOS_SEEDS=5,6,7`), the suite runs a fault-free golden pass and a
//! chaos pass with half the clients behind seeded [`FaultPlan`]s plus
//! forced mid-session store evictions, then checks:
//!
//! - **liveness**: no panics, every request eventually answered, no
//!   give-ups, and shutdown completes within a hard bound (a stuck
//!   worker or poller fails the join timeout);
//! - **fault accounting identity**: every injected fault is either
//!   observed in the recovery telemetry (`client.retry.*`,
//!   `serve.fault.*`) or survived outright — nothing disappears;
//! - **blast-radius isolation**: sessions owned by fault-free clients
//!   produce bit-identical predictions to the golden run.
//!
//! A second pass re-runs the schedule with model hot-swaps firing
//! concurrently (both the explicit-dataset path and the recorder path,
//! so a retrain races the forced evictions that feed it): the same
//! accounting identities must stay exact, shutdown must stay bounded
//! (no refresh/eviction/slow-peer deadlock), and the registry must not
//! leak versions past its retention window.
//!
//! A third pass crashes durable servers mid-load at seeded WAL commit
//! points and recovers them (see `crash_restart_one_seed`): recovery
//! must be a deterministic function of the directory bytes, post-restart
//! sessions must be bit-identical to a never-crashed server, and the
//! WAL's record/commit accounting must stay exact across the restart.
//!
//! Own test binary, single `#[test]`: the identities diff the global
//! cs2p-obs registry, which concurrent tests would corrupt.

use cs2p_net::http::Request;
use cs2p_net::protocol::PredictRequest;
use cs2p_net::{
    serve_with, HttpClient, PersistConfig, RefreshConfig, ServeConfig, ServerHandle, WalFaultHook,
};
use cs2p_testkit::crash::{CrashPlan, TempDir};
use cs2p_testkit::faults::{run_chaos, ChaosConfig};
use cs2p_testkit::loadgen::{run_load, BatchSpec, LoadConfig};
use cs2p_testkit::scenarios::{tiny_dataset, tiny_engine, tiny_train_config};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn counter(name: &str) -> u64 {
    cs2p_obs::Registry::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![11, 23, 47, 91],
    }
}

fn chaos_server() -> ServerHandle {
    let config = ServeConfig {
        n_shards: 4,
        n_workers: 3,
        queue_depth: 1024,
        max_sessions: 10_000,
        session_ttl_requests: None,
        // Short enough that a truncated frame is reaped quickly (well
        // under the client's 10 s read timeout), long enough that a
        // healthy keep-alive request never trips it.
        io_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap()
}

/// Shuts the server down on a helper thread and panics if it does not
/// drain within the bound — a stuck worker/poller/acceptor shows up here.
fn shutdown_bounded(server: ServerHandle) -> cs2p_net::ServeStats {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete in bounded time (stuck thread?)")
}

fn soak_one_seed(seed: u64) -> (u64, usize) {
    let config = ChaosConfig {
        load: LoadConfig {
            n_clients: 4,
            n_sessions: 8,
            epochs_per_session: 5,
            horizon: 2,
            seed,
            session_id_base: 1_000,
            ..LoadConfig::default()
        },
        ..ChaosConfig::default()
    };

    // Golden pass: identical workload, no faults, fresh identical server.
    let golden_server = chaos_server();
    let golden = run_load(golden_server.addr(), &config.load);
    assert_eq!(golden.errors, 0, "seed {seed}: golden run must be clean");
    assert_eq!(golden.rejected, 0);
    shutdown_bounded(golden_server);

    let attempts0 = counter("client.retry.attempts");
    let giveups0 = counter("client.retry.giveups");
    let bad_frames0 = counter("serve.fault.bad_frames");
    let read_errors0 = counter("serve.fault.read_errors");
    let evictions0 = counter("serve.fault.forced_evictions");
    let aborts0 = counter("serve.fault.slow_peer_aborts");

    let server = chaos_server();
    let addr = server.addr();
    let report = run_chaos(&server, &config);
    let stats = shutdown_bounded(server);

    let fired = report.fired;
    let d_attempts = counter("client.retry.attempts") - attempts0;
    let d_giveups = counter("client.retry.giveups") - giveups0;
    let d_bad_frames = counter("serve.fault.bad_frames") - bad_frames0;
    let d_read_errors = counter("serve.fault.read_errors") - read_errors0;
    let d_evictions = counter("serve.fault.forced_evictions") - evictions0;

    // Liveness: everything was eventually answered, nothing gave up,
    // nothing was shed (the queue is sized for the workload).
    assert_eq!(report.gave_up, 0, "seed {seed}: requests abandoned");
    assert_eq!(d_giveups, 0, "seed {seed}: client send() gave up");
    assert_eq!(report.errors, 0, "seed {seed}");
    assert_eq!(report.rejected, 0, "seed {seed}");
    assert_eq!(stats.rejected, 0, "seed {seed}");
    for s in 0..config.load.n_sessions as u64 {
        let id = config.load.session_id_base + s;
        let preds = report.predictions.get(&id).map_or(0, Vec::len);
        assert_eq!(
            preds, config.load.epochs_per_session,
            "seed {seed}: session {id} lost predictions"
        );
    }
    // Request conservation: every sent request is accounted to exactly
    // one outcome.
    assert_eq!(
        report.sent,
        report.ok + report.reinit + report.rejected + report.error_statuses,
        "seed {seed}: request ledger out of balance"
    );

    // Fault accounting identity — injected == observed + survived:
    // every transport-failure fault surfaces as exactly one client
    // retry, every corruption as exactly one 400 bad frame, every
    // forced eviction as exactly one re-registration; dribbles (and
    // in-budget delays) are survived with no error at all.
    assert_eq!(
        d_attempts,
        fired.transport_failures(),
        "seed {seed}: retries vs injected transport faults"
    );
    assert_eq!(
        d_bad_frames, fired.corruptions,
        "seed {seed}: bad frames vs injected corruptions"
    );
    assert_eq!(
        report.error_statuses, fired.corruptions,
        "seed {seed}: client-visible error statuses vs corruptions"
    );
    // Resets mid-request and truncations are each reaped as exactly one
    // server read error; a reset mid-response *may* additionally surface
    // server-side (close-with-unread-data RST timing), so the total is
    // bounded, not exact.
    assert!(
        d_read_errors >= fired.resets_write + fired.truncations
            && d_read_errors <= fired.transport_failures(),
        "seed {seed}: read errors {d_read_errors} outside [{}, {}]",
        fired.resets_write + fired.truncations,
        fired.transport_failures()
    );
    assert_eq!(d_evictions, report.forced_evictions, "seed {seed}");
    assert_eq!(
        report.reinit, report.forced_evictions,
        "seed {seed}: every forced eviction re-registers exactly once"
    );
    assert_eq!(
        stats.sessions_evicted, report.forced_evictions,
        "seed {seed}: only forced evictions may evict (no TTL, huge cap)"
    );
    assert_eq!(
        counter("serve.fault.slow_peer_aborts"),
        aborts0,
        "seed {seed}: no slow-peer aborts without injected delay"
    );

    // Admission-ladder accounting: the ladder is disabled (default
    // config), so every 200 is booked as a Full-level serve, nothing
    // degrades, and the level never moves — exactly.
    assert_eq!(
        stats.admission.served_full
            + stats.admission.served_degraded
            + stats.admission.served_fallback,
        stats.predictions_served,
        "seed {seed}: ladder serve ledger out of balance"
    );
    assert_eq!(stats.admission.served_degraded, 0, "seed {seed}");
    assert_eq!(stats.admission.served_fallback, 0, "seed {seed}");
    assert_eq!(stats.admission.shed, 0, "seed {seed}");
    assert_eq!(stats.admission.transitions, 0, "seed {seed}");

    // Blast-radius isolation: fault-free clients' sessions are
    // bit-identical to the golden run.
    for &id in &report.clean_sessions {
        assert_eq!(
            report.predictions.get(&id),
            golden.predictions.get(&id),
            "seed {seed}: clean session {id} diverged from fault-free run"
        );
    }

    // The listener is really gone: a fresh connect is refused.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "seed {seed}: port still accepting after shutdown"
    );

    (
        fired.error_class_total() + fired.survivable_total(),
        report.clean_sessions.len(),
    )
}

/// The chaos schedule driven through `/predict_batch`: every client
/// chunks its request stream into seeded ragged frames (1..=7 entries)
/// and the fault schedules now fire *mid-batch* — a reset can kill a
/// frame carrying seven sessions' requests, a corruption 400s the whole
/// frame, and a forced eviction surfaces as a per-entry 404 inside an
/// otherwise-healthy frame. The golden baseline stays the *singleton*
/// fault-free run: clean sessions must be bit-identical across the
/// framing change AND the fault schedule simultaneously.
///
/// The batched ledger differs from the singleton one: a frame-level 400
/// books one `error_statuses` but a `sent` per entry (nothing was
/// applied), while per-entry 404s replay as singletons that book their
/// own sends. What stays exact: every logical entry
/// yields exactly one `ok`, every corruption exactly one client-visible
/// error status, every forced eviction exactly one re-registration.
fn batched_soak_one_seed(seed: u64) -> (u64, u64) {
    let config = ChaosConfig {
        load: LoadConfig {
            n_clients: 4,
            n_sessions: 8,
            epochs_per_session: 5,
            horizon: 2,
            seed,
            session_id_base: 1_000,
            batch: Some(BatchSpec {
                min_entries: 1,
                max_entries: 7,
            }),
            ..LoadConfig::default()
        },
        ..ChaosConfig::default()
    };

    // Golden pass: the same workload as sequential singleton requests,
    // no faults — the strongest baseline the batched chaos pass can be
    // held to.
    let golden_config = LoadConfig {
        batch: None,
        ..config.load.clone()
    };
    let golden_server = chaos_server();
    let golden = run_load(golden_server.addr(), &golden_config);
    assert_eq!(golden.errors, 0, "seed {seed}: golden run must be clean");
    assert_eq!(golden.rejected, 0);
    shutdown_bounded(golden_server);

    let attempts0 = counter("client.retry.attempts");
    let giveups0 = counter("client.retry.giveups");
    let bad_frames0 = counter("serve.fault.bad_frames");
    let read_errors0 = counter("serve.fault.read_errors");
    let evictions0 = counter("serve.fault.forced_evictions");
    let batch_requests0 = counter("serve.batch.requests");
    let batch_entries0 = counter("serve.batch.entries");
    let partial_failures0 = counter("serve.batch.partial_failures");

    let server = chaos_server();
    let addr = server.addr();
    let report = run_chaos(&server, &config);
    let stats = shutdown_bounded(server);

    let fired = report.fired;
    let d_attempts = counter("client.retry.attempts") - attempts0;
    let d_giveups = counter("client.retry.giveups") - giveups0;
    let d_bad_frames = counter("serve.fault.bad_frames") - bad_frames0;
    let d_read_errors = counter("serve.fault.read_errors") - read_errors0;
    let d_evictions = counter("serve.fault.forced_evictions") - evictions0;
    let d_batch_requests = counter("serve.batch.requests") - batch_requests0;
    let d_batch_entries = counter("serve.batch.entries") - batch_entries0;
    let d_partial_failures = counter("serve.batch.partial_failures") - partial_failures0;

    // Liveness: every frame was eventually answered, nothing abandoned.
    assert_eq!(report.gave_up, 0, "seed {seed}: batch frames abandoned");
    assert_eq!(d_giveups, 0, "seed {seed}: client send() gave up");
    assert_eq!(report.errors, 0, "seed {seed}");
    assert_eq!(report.rejected, 0, "seed {seed}");
    assert_eq!(stats.rejected, 0, "seed {seed}");
    for s in 0..config.load.n_sessions as u64 {
        let id = config.load.session_id_base + s;
        let preds = report.predictions.get(&id).map_or(0, Vec::len);
        assert_eq!(
            preds, config.load.epochs_per_session,
            "seed {seed}: session {id} lost predictions in batched chaos"
        );
    }
    // Entry conservation: every logical entry produced exactly one
    // success, whether in-frame or via a per-entry-404 singleton replay.
    let total_entries = (config.load.n_sessions * config.load.epochs_per_session) as u64;
    assert_eq!(
        report.ok, total_entries,
        "seed {seed}: entry ledger out of balance"
    );
    // Replays only ever *add* sends on top of the framed entries.
    assert!(
        report.sent >= report.ok + report.reinit,
        "seed {seed}: sent {} < ok {} + reinit {}",
        report.sent,
        report.ok,
        report.reinit
    );
    // The server really was driven through the batch path, and its
    // entry meter matches frame arithmetic: applied frames account all
    // entries that ever got a 200 (duplicates from reset-mid-response
    // resends can only add).
    assert!(
        d_batch_requests > 0,
        "seed {seed}: batched soak never hit /predict_batch"
    );
    assert!(
        d_batch_entries >= total_entries,
        "seed {seed}: server batch entries {d_batch_entries} < {total_entries}"
    );

    // Fault accounting identity, unchanged by framing: every transport
    // fault is exactly one retry, every corruption exactly one 400
    // (whole-frame, never applied), every forced eviction exactly one
    // re-registration — a mid-frame eviction answers a per-entry 404
    // and the harness re-registers once no matter how many of that
    // session's entries shared the frame.
    assert_eq!(
        d_attempts,
        fired.transport_failures(),
        "seed {seed}: retries vs injected transport faults"
    );
    assert_eq!(
        d_bad_frames, fired.corruptions,
        "seed {seed}: bad frames vs injected corruptions"
    );
    assert_eq!(
        report.error_statuses, fired.corruptions,
        "seed {seed}: client-visible error statuses vs corruptions"
    );
    assert!(
        d_read_errors >= fired.resets_write + fired.truncations
            && d_read_errors <= fired.transport_failures(),
        "seed {seed}: read errors {d_read_errors} outside [{}, {}]",
        fired.resets_write + fired.truncations,
        fired.transport_failures()
    );
    assert_eq!(d_evictions, report.forced_evictions, "seed {seed}");
    assert_eq!(
        report.reinit, report.forced_evictions,
        "seed {seed}: every forced eviction re-registers exactly once"
    );
    assert_eq!(
        stats.sessions_evicted, report.forced_evictions,
        "seed {seed}: only forced evictions may evict (no TTL, huge cap)"
    );
    // Every mid-frame eviction shows up as a partially-failed frame
    // (a 404 entry inside a 200 frame). Corrupted frames are refused
    // whole, so they never count here.
    assert!(
        d_partial_failures >= report.forced_evictions,
        "seed {seed}: partial failures {d_partial_failures} < evictions {}",
        report.forced_evictions
    );

    // Blast-radius isolation across the framing change: fault-free
    // clients' batched sessions are bit-identical to the *singleton*
    // golden run.
    for &id in &report.clean_sessions {
        assert_eq!(
            report.predictions.get(&id),
            golden.predictions.get(&id),
            "seed {seed}: clean batched session {id} diverged from singleton golden"
        );
    }

    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "seed {seed}: port still accepting after shutdown"
    );

    (
        fired.error_class_total() + fired.survivable_total(),
        report.forced_evictions,
    )
}

/// Same shards/workers/timeouts as [`chaos_server`], plus an active
/// refresh configuration: tiny training knobs, a 2-version retention
/// window, and a recorder that accepts a refresh from the very first
/// completed session (so the recorder retrain path actually runs).
fn refresh_chaos_server() -> ServerHandle {
    let config = ServeConfig {
        n_shards: 4,
        n_workers: 3,
        queue_depth: 1024,
        max_sessions: 10_000,
        session_ttl_requests: None,
        io_timeout: Duration::from_millis(150),
        refresh: RefreshConfig {
            train_config: tiny_train_config(),
            retain: 2,
            min_sessions: 1,
            ..Default::default()
        },
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap()
}

/// The chaos schedule with hot-swaps racing it: a swapper thread
/// alternates explicit-dataset refreshes with recorder refreshes (the
/// latter retrains from sessions the concurrent forced evictions just
/// completed) while the full fault schedule runs. Blast-radius
/// bit-identity is not asserted here — sessions registering after a swap
/// legitimately see a different model; `refresh_soak.rs` proves pinning
/// bit-identity deterministically. Everything else must hold unchanged.
/// Returns the number of swaps published.
fn refresh_chaos_one_seed(seed: u64) -> u64 {
    let config = ChaosConfig {
        load: LoadConfig {
            n_clients: 4,
            n_sessions: 8,
            epochs_per_session: 5,
            horizon: 2,
            seed,
            session_id_base: 1_000,
            ..LoadConfig::default()
        },
        ..ChaosConfig::default()
    };

    let attempts0 = counter("client.retry.attempts");
    let giveups0 = counter("client.retry.giveups");
    let bad_frames0 = counter("serve.fault.bad_frames");
    let read_errors0 = counter("serve.fault.read_errors");
    let evictions0 = counter("serve.fault.forced_evictions");
    let aborts0 = counter("serve.fault.slow_peer_aborts");
    let swaps0 = counter("serve.model.swaps");

    let server = refresh_chaos_server();
    let addr = server.addr();
    let done = AtomicBool::new(false);
    let (report, swaps) = std::thread::scope(|scope| {
        let server_ref = &server;
        let done_ref = &done;
        let swapper = scope.spawn(move || {
            let mut swaps = 0u64;
            let mut round = 0u64;
            while !done_ref.load(Ordering::Relaxed) {
                let published = if round.is_multiple_of(2) {
                    // Operator push: always trains.
                    let shift = 0.5 * (round % 4) as f64;
                    server_ref
                        .refresh_models_with(&tiny_dataset(shift))
                        .is_some()
                } else {
                    // Recorder path: races the forced evictions feeding
                    // it; a no-op until the first session completes.
                    server_ref.refresh_models().is_some()
                };
                if published {
                    swaps += 1;
                }
                round += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            swaps
        });
        let report = run_chaos(&server, &config);
        done.store(true, Ordering::Relaxed);
        (report, swapper.join().expect("swapper panicked"))
    });

    // Version retention under churn: at most `retain` versions (nothing
    // pins past the window — session pins are Arcs, not registry pins).
    let versions = server.model_versions();
    assert!(
        versions.len() <= 2,
        "seed {seed}: swaps under chaos leaked versions: {versions:?}"
    );

    let stats = shutdown_bounded(server);

    let fired = report.fired;
    let d_attempts = counter("client.retry.attempts") - attempts0;
    let d_giveups = counter("client.retry.giveups") - giveups0;
    let d_bad_frames = counter("serve.fault.bad_frames") - bad_frames0;
    let d_read_errors = counter("serve.fault.read_errors") - read_errors0;
    let d_evictions = counter("serve.fault.forced_evictions") - evictions0;
    let d_swaps = counter("serve.model.swaps") - swaps0;

    // Liveness with swaps in the mix: nothing abandoned, nothing shed.
    assert_eq!(report.gave_up, 0, "seed {seed}: requests abandoned");
    assert_eq!(d_giveups, 0, "seed {seed}: client send() gave up");
    assert_eq!(report.errors, 0, "seed {seed}");
    assert_eq!(report.rejected, 0, "seed {seed}");
    assert_eq!(stats.rejected, 0, "seed {seed}");
    for s in 0..config.load.n_sessions as u64 {
        let id = config.load.session_id_base + s;
        let preds = report.predictions.get(&id).map_or(0, Vec::len);
        assert_eq!(
            preds, config.load.epochs_per_session,
            "seed {seed}: session {id} lost predictions under swaps"
        );
    }
    assert_eq!(
        report.sent,
        report.ok + report.reinit + report.rejected + report.error_statuses,
        "seed {seed}: request ledger out of balance under swaps"
    );

    // The fault accounting identities are swap-independent: a refresh
    // must neither absorb nor duplicate any fault observation.
    assert_eq!(d_attempts, fired.transport_failures(), "seed {seed}");
    assert_eq!(d_bad_frames, fired.corruptions, "seed {seed}");
    assert_eq!(report.error_statuses, fired.corruptions, "seed {seed}");
    assert!(
        d_read_errors >= fired.resets_write + fired.truncations
            && d_read_errors <= fired.transport_failures(),
        "seed {seed}: read errors {d_read_errors} outside [{}, {}]",
        fired.resets_write + fired.truncations,
        fired.transport_failures()
    );
    assert_eq!(d_evictions, report.forced_evictions, "seed {seed}");
    assert_eq!(report.reinit, report.forced_evictions, "seed {seed}");
    assert_eq!(
        stats.sessions_evicted, report.forced_evictions,
        "seed {seed}: only forced evictions may evict (no TTL, huge cap)"
    );
    assert_eq!(
        counter("serve.fault.slow_peer_aborts"),
        aborts0,
        "seed {seed}"
    );

    // Swap accounting: every publish bumped the counter and the version
    // exactly once (versions are dense), and the recorder only ever held
    // sessions the evictions completed.
    assert_eq!(d_swaps, swaps, "seed {seed}: swap counter vs publishes");
    assert_eq!(
        stats.model_version,
        1 + swaps,
        "seed {seed}: versions must be dense in publishes"
    );
    assert!(
        (stats.recorded_sessions as u64) <= report.forced_evictions,
        "seed {seed}: recorder invented sessions"
    );

    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "seed {seed}: port still accepting after shutdown"
    );

    swaps
}

/// Same shards/workers as [`chaos_server`], but durable: opened over a
/// persistence directory with per-record group commit and a compaction
/// cadence short enough that several WAL rotations race the workload.
fn durable_chaos_server(dir: &Path, hook: Option<Arc<CrashPlan>>) -> ServerHandle {
    let config = ServeConfig {
        n_shards: 4,
        n_workers: 3,
        queue_depth: 1024,
        max_sessions: 10_000,
        session_ttl_requests: None,
        io_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let persist = PersistConfig {
        commit_every_records: 1,
        snapshot_every_records: 16,
        fsync_data: false,
        fault_hook: hook.map(|h| h as Arc<dyn WalFaultHook>),
        ..PersistConfig::default()
    };
    ServerHandle::open_or_recover(dir, tiny_engine(), "127.0.0.1:0", config, persist).unwrap()
}

/// Recursively copies a persistence directory (WAL segments, snapshot,
/// model bundles) — taken *after* shutdown, so the bytes are quiescent.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// One identical probe request per session id, answered as raw
/// `(status, body bytes)` — 404s included, since which sessions survived
/// the crash is part of the recovered state being compared.
fn probe_sessions(server: &ServerHandle, ids: impl Iterator<Item = u64>) -> Vec<(u16, Vec<u8>)> {
    let mut client = HttpClient::new(server.addr());
    ids.map(|id| {
        let preq = PredictRequest {
            session_id: id,
            features: None,
            measured_mbps: Some(2.5),
            horizon: 2,
        };
        let resp = client
            .send(&Request::new(
                "POST",
                "/predict",
                serde_json::to_vec(&preq).unwrap(),
            ))
            .unwrap();
        (resp.status, resp.body.to_vec())
    })
    .collect()
}

/// Crash-restart differential: the full multi-client loadgen workload
/// runs against a durable server whose WAL is killed (or torn) at a
/// seeded commit point mid-load — with group commits and compactions
/// racing four client threads, the crash lands at an arbitrary,
/// schedule-dependent place. What must still hold exactly:
///
/// - **liveness through the crash**: the process model keeps serving
///   from memory after its disk dies — the workload finishes cleanly;
/// - **recovery determinism**: two recoveries of the same directory
///   bytes are response-byte-identical on every session (replay is a
///   function of the log, not of timing);
/// - **post-restart blast radius**: sessions born after the restart are
///   bit-identical to the same workload on a never-crashed server;
/// - **persistence accounting across the restart**: on the recovered
///   server every successful post-restart request appends exactly one
///   WAL record, every record is group-committed (commit-per-record
///   config), and the WAL stays alive.
fn crash_restart_one_seed(seed: u64) -> u64 {
    let phase1 = LoadConfig {
        n_clients: 4,
        n_sessions: 8,
        epochs_per_session: 5,
        horizon: 2,
        seed,
        session_id_base: 1_000,
        ..LoadConfig::default()
    };

    // Phase 1: crash mid-load. ~40 predict records land across the run;
    // the plan kills (or tears) one of the first 30 commits.
    let dir = TempDir::new("soak-crash");
    let plan = CrashPlan::seeded(seed, 30);
    let server = durable_chaos_server(dir.path(), Some(Arc::clone(&plan)));
    let report = run_load(server.addr(), &phase1);
    assert_eq!(
        report.errors, 0,
        "seed {seed}: crash must not drop requests"
    );
    assert_eq!(report.rejected, 0, "seed {seed}");
    assert!(plan.killed(), "seed {seed}: the seeded crash never fired");
    let crashed_stats = server.persist_stats().expect("durable server");
    assert!(
        crashed_stats.dead,
        "seed {seed}: WAL must be dead post-crash"
    );
    shutdown_bounded(server);

    // Recovery determinism: recover the directory twice (one from a
    // byte-for-byte copy) and compare every session's probe exactly.
    let dir_copy = TempDir::new("soak-crash-copy");
    copy_dir(dir.path(), dir_copy.path());
    let recovered = durable_chaos_server(dir.path(), None);
    let twin = durable_chaos_server(dir_copy.path(), None);
    let ids = || (0..phase1.n_sessions as u64).map(|s| phase1.session_id_base + s);
    let got = probe_sessions(&recovered, ids());
    let twin_got = probe_sessions(&twin, ids());
    assert_eq!(
        got, twin_got,
        "seed {seed}: two recoveries of the same bytes diverged"
    );
    let survivors = got.iter().filter(|(status, _)| *status == 200).count() as u64;
    shutdown_bounded(twin);

    // Phase 2 on the recovered server: a fresh cohort of sessions, with
    // a golden in-memory server as the never-crashed baseline.
    let phase2 = LoadConfig {
        session_id_base: 2_000,
        seed: seed ^ 0x0051_EED2,
        ..phase1.clone()
    };
    let stats_before = recovered.persist_stats().expect("durable server");
    assert!(
        !stats_before.dead,
        "seed {seed}: recovered WAL must be live"
    );
    let golden_server = chaos_server();
    let golden = run_load(golden_server.addr(), &phase2);
    shutdown_bounded(golden_server);
    let phase2_report = run_load(recovered.addr(), &phase2);
    assert_eq!(phase2_report.errors, 0, "seed {seed}");
    assert_eq!(phase2_report.rejected, 0, "seed {seed}");
    assert_eq!(
        phase2_report.reinit, 0,
        "seed {seed}: fresh cohort must never re-register"
    );
    for s in 0..phase2.n_sessions as u64 {
        let id = phase2.session_id_base + s;
        assert_eq!(
            phase2_report.predictions.get(&id),
            golden.predictions.get(&id),
            "seed {seed}: post-restart session {id} diverged from never-crashed golden"
        );
    }

    // Persistence accounting: exactly one WAL record per successful
    // post-restart request (no evictions: huge cap, no TTL), all of
    // them committed record-by-record, WAL still alive.
    let stats_after = recovered.persist_stats().expect("durable server");
    let d_records = stats_after.records - stats_before.records;
    let d_commits = stats_after.commits - stats_before.commits;
    assert_eq!(
        d_records, phase2_report.ok,
        "seed {seed}: WAL records vs successful requests"
    );
    assert_eq!(
        d_commits, d_records,
        "seed {seed}: commit-per-record config must commit every record"
    );
    assert!(!stats_after.dead, "seed {seed}: WAL died without a fault");
    shutdown_bounded(recovered);
    survivors
}

/// Degradation-ladder accounting under the full multi-client workload:
/// one fresh cohort of sessions per forced ladder level, then recovery.
/// What must hold *exactly*, three ways at once (load report ↔ handle
/// snapshot ↔ telemetry registry):
///
/// - every 200 is booked at exactly one ladder level, and the three
///   level counters sum to `predictions_served`;
/// - Degraded and Fallback answers all carry their provenance mark;
/// - at Fallback, exactly the no-history registrations miss (one 503
///   per session, booked as a fallback miss, not a shed);
/// - at Shed, every request is refused and the server neither panics
///   nor stops answering the next cohort after recovery;
/// - the transition counter counts exactly the four forced level
///   changes (Full→Degraded→Fallback→Shed→Full).
fn ladder_accounting_one_seed(seed: u64) -> (u64, u64) {
    use cs2p_net::AdmissionLevel;
    let base = LoadConfig {
        n_clients: 4,
        n_sessions: 8,
        epochs_per_session: 5,
        horizon: 2,
        seed,
        session_id_base: 1_000,
        ..LoadConfig::default()
    };
    let cohort = |base_id: u64| LoadConfig {
        session_id_base: base_id,
        ..base.clone()
    };
    let full0 = counter("serve.admission.full");
    let degraded0 = counter("serve.admission.degraded");
    let fallback0 = counter("serve.admission.fallback");
    let shed0 = counter("serve.admission.shed");
    let misses0 = counter("serve.admission.fallback_misses");
    let transitions0 = counter("serve.admission.transitions");

    let server = chaos_server();
    let full_run = run_load(server.addr(), &base);
    assert_eq!(full_run.ok, full_run.sent, "seed {seed}");
    assert_eq!(full_run.degraded + full_run.fallback, 0, "seed {seed}");

    server.force_admission_level(Some(AdmissionLevel::Degraded));
    let degraded_run = run_load(server.addr(), &cohort(2_000));
    assert_eq!(degraded_run.ok, degraded_run.sent, "seed {seed}");
    assert_eq!(
        degraded_run.degraded, degraded_run.ok,
        "seed {seed}: every Degraded answer must carry provenance"
    );

    server.force_admission_level(Some(AdmissionLevel::Fallback));
    let fallback_run = run_load(server.addr(), &cohort(3_000));
    assert_eq!(
        fallback_run.rejected, base.n_sessions as u64,
        "seed {seed}: exactly the no-history registrations miss"
    );
    assert_eq!(
        fallback_run.ok,
        (base.n_sessions * (base.epochs_per_session - 1)) as u64,
        "seed {seed}: every measurement-carrying epoch answers"
    );
    assert_eq!(fallback_run.fallback, fallback_run.ok, "seed {seed}");

    server.force_admission_level(Some(AdmissionLevel::Shed));
    let shed_run = run_load(server.addr(), &cohort(4_000));
    assert_eq!(shed_run.ok, 0, "seed {seed}");
    assert_eq!(shed_run.rejected, shed_run.sent, "seed {seed}");

    server.force_admission_level(None);
    assert_eq!(
        server.admission_level(),
        AdmissionLevel::Full,
        "seed {seed}"
    );
    let recovered_run = run_load(server.addr(), &cohort(5_000));
    assert_eq!(recovered_run.ok, recovered_run.sent, "seed {seed}");
    assert_eq!(
        recovered_run.degraded + recovered_run.fallback,
        0,
        "seed {seed}: recovery serves the full path again"
    );

    let stats = shutdown_bounded(server);
    let snap = stats.admission;
    assert_eq!(
        snap.served_full + snap.served_degraded + snap.served_fallback,
        stats.predictions_served,
        "seed {seed}: ladder serve ledger out of balance"
    );
    assert_eq!(
        snap.served_full,
        full_run.ok + recovered_run.ok,
        "seed {seed}"
    );
    assert_eq!(snap.served_degraded, degraded_run.ok, "seed {seed}");
    assert_eq!(snap.served_fallback, fallback_run.ok, "seed {seed}");
    assert_eq!(snap.shed, shed_run.rejected, "seed {seed}");
    assert_eq!(snap.fallback_misses, fallback_run.rejected, "seed {seed}");
    assert_eq!(snap.transitions, 4, "seed {seed}");
    // The telemetry registry agrees with the handle snapshot exactly.
    assert_eq!(
        counter("serve.admission.full") - full0,
        snap.served_full,
        "seed {seed}"
    );
    assert_eq!(
        counter("serve.admission.degraded") - degraded0,
        snap.served_degraded,
        "seed {seed}"
    );
    assert_eq!(
        counter("serve.admission.fallback") - fallback0,
        snap.served_fallback,
        "seed {seed}"
    );
    assert_eq!(
        counter("serve.admission.shed") - shed0,
        snap.shed,
        "seed {seed}"
    );
    assert_eq!(
        counter("serve.admission.fallback_misses") - misses0,
        snap.fallback_misses,
        "seed {seed}"
    );
    assert_eq!(
        counter("serve.admission.transitions") - transitions0,
        snap.transitions,
        "seed {seed}"
    );
    (snap.served_degraded + snap.served_fallback, snap.shed)
}

#[test]
fn seeded_chaos_schedules_are_survived_with_exact_accounting() {
    cs2p_obs::set_enabled(true);
    let mut total_fired = 0;
    let mut total_clean = 0;
    for seed in seeds() {
        let (fired, clean) = soak_one_seed(seed);
        total_fired += fired;
        total_clean += clean;
    }
    // The suite must not be vacuous: across the seed matrix, faults
    // actually fired and clean sessions were actually compared.
    assert!(
        total_fired > 0,
        "no fault ever fired across the seed matrix"
    );
    assert!(total_clean > 0, "no clean session was ever compared");

    // Batched-framing pass (a subset of the matrix): the same fault
    // schedules fire mid-batch, and clean sessions must still be
    // bit-identical to the singleton fault-free golden run.
    let mut batched_fired = 0;
    let mut batched_evictions = 0;
    for seed in seeds().into_iter().take(2) {
        let (fired, evictions) = batched_soak_one_seed(seed);
        batched_fired += fired;
        batched_evictions += evictions;
    }
    assert!(batched_fired > 0, "no fault ever fired mid-batch");
    assert!(
        batched_evictions > 0,
        "no forced eviction ever hit a batch frame"
    );

    // Refresh-under-chaos pass (a subset of the matrix — each pass costs
    // a full chaos run): hot-swaps racing the same fault schedules.
    let mut total_swaps = 0;
    for seed in seeds().into_iter().take(2) {
        total_swaps += refresh_chaos_one_seed(seed);
    }
    assert!(total_swaps > 0, "no swap ever published under chaos");

    // Crash-restart differential pass: durable servers killed mid-load
    // at seeded WAL commit points, recovered, and held to determinism,
    // blast-radius, and persistence-accounting identities.
    let mut total_survivors = 0;
    for seed in seeds().into_iter().take(2) {
        total_survivors += crash_restart_one_seed(seed);
    }
    assert!(
        total_survivors > 0,
        "no session ever survived a crash across the seed matrix"
    );

    // Degradation-ladder accounting pass: forced ladder levels under
    // the full workload, with exact level accounting across the load
    // report, the handle snapshot, and the telemetry registry.
    let mut ladder_degraded = 0;
    let mut ladder_shed = 0;
    for seed in seeds().into_iter().take(2) {
        let (non_full, shed) = ladder_accounting_one_seed(seed);
        ladder_degraded += non_full;
        ladder_shed += shed;
    }
    assert!(
        ladder_degraded > 0,
        "no degraded/fallback answer was ever served"
    );
    assert!(ladder_shed > 0, "no request was ever shed");
    cs2p_obs::set_enabled(false);
}
