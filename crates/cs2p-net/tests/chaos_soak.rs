//! Chaos soak: the full loadgen workload under seeded fault schedules.
//!
//! Every seed (fixed CI matrix, overridable via `CHAOS_SEEDS`, e.g.
//! `CHAOS_SEEDS=5,6,7`) runs one fault-free singleton golden run and then
//! [`chaos_pass`] once per cell of [`CELLS`]: half the clients behind
//! seeded [`cs2p_testkit::faults::FaultPlan`]s, their sessions
//! force-evicted mid-stream, in four cells:
//!
//! | Cell | Frames | Hot swaps |
//! |---|---|---|
//! | singleton soak | `/predict` | no |
//! | batched soak | ragged `/predict_batch`, 1..=7 entries | no |
//! | refresh soak | `/predict` | a swapper thread |
//! | batched refresh soak | ragged `/predict_batch`, 1..=7 entries | a swapper thread |
//!
//! Every cell checks:
//!
//! - **liveness**: loadgen's recovery rules
//!   ([`cs2p_testkit::faults::assert_recovered`]: nothing abandoned,
//!   errored or shed, every session answered once per epoch, the send
//!   ledger of its framing balanced), no slow-peer aborts, and shutdown
//!   within a hard bound (a stuck worker or poller fails the join);
//! - **fault accounting identity**: every injected fault is either
//!   observed in the recovery telemetry (`client.retry.*`,
//!   `serve.fault.*`) or survived outright — nothing disappears;
//! - **admission**: the ladder is off, so every 200 is a Full serve;
//! - **swap accounting**: every publish bumps the version exactly once,
//!   and the registry keeps at most its retention window;
//! - **blast-radius isolation** (no-swap cells): sessions owned by
//!   fault-free clients produce bit-identical predictions to the golden
//!   run, across the framing change and the fault schedule at once.
//!
//! Two more passes run on the first two seeds. The crash-restart pass
//! ([`crash_restart_one_seed`]) kills durable servers mid-load at seeded
//! WAL commit points and recovers them: recovery must be a deterministic
//! function of the directory bytes, post-restart sessions bit-identical
//! to a never-crashed server, and the WAL's record/commit accounting
//! exact. The ladder pass ([`ladder_accounting_one_seed`]) forces each
//! admission level under the workload and books every answer exactly.
//!
//! Own test binary, single `#[test]`: the identities diff the global
//! cs2p-obs registry, which concurrent tests would corrupt.

use cs2p_net::http::Request;
use cs2p_net::protocol::PredictRequest;
use cs2p_net::{
    serve_with, HttpClient, PersistConfig, RefreshConfig, ServeConfig, ServerHandle, WalFaultHook,
};
use cs2p_testkit::crash::{copy_dir, CrashPlan, TempDir};
use cs2p_testkit::faults::{assert_recovered, run_chaos, shutdown_bounded, ChaosConfig};
use cs2p_testkit::loadgen::{run_load, BatchSpec, LoadConfig, LoadReport};
use cs2p_testkit::scenarios::{tiny_dataset, tiny_engine, tiny_train_config};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        // 11 fires both resets, truncations and dribbles; 6 fires
        // write resets, corruptions and dribbles: every class, in every
        // cell.
        Err(_) => vec![11, 6, 23, 91],
    }
}

/// Every registry counter at one instant. [`Ledger::since`] turns an
/// earlier reading into how far each counter has moved since.
struct Ledger(BTreeMap<String, u64>);

impl Ledger {
    fn read() -> Ledger {
        Ledger(cs2p_obs::Registry::global().snapshot().counters)
    }

    fn since(before: &Ledger) -> Ledger {
        let mut now = Ledger::read();
        for (name, value) in &mut now.0 {
            *value -= before.get(name);
        }
        now
    }

    /// Counter `name` (0 if it was never bumped).
    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The workload of every pass: loadgen's default shape (4 clients,
/// 8 sessions × 5 epochs, horizon 2) at `seed`.
fn workload(seed: u64) -> LoadConfig {
    LoadConfig {
        seed,
        ..LoadConfig::default()
    }
}

/// The one server shape of this file: a store far above the session
/// count, so only forced evictions evict, and an I/O timeout
/// short enough that a truncated frame is reaped quickly (well under the
/// client's 10 s read timeout), long enough that a healthy keep-alive
/// request never trips it.
fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: 4,
        n_workers: 3,
        queue_depth: 1024,
        max_sessions: 10_000,
        io_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    }
}

/// A [`serve_config`] server. With `swaps` it also gets an active refresh
/// configuration: tiny training knobs, a 2-version retention window, and
/// a recorder that accepts a refresh from the very first completed
/// session (so the recorder retrain path actually runs).
fn chaos_server(swaps: bool) -> ServerHandle {
    let mut config = serve_config();
    if swaps {
        config.refresh = RefreshConfig {
            train_config: tiny_train_config(),
            retain: 2,
            min_sessions: 1,
            ..Default::default()
        };
    }
    serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap()
}

/// One cell of the chaos table: how clients frame their entries, and
/// whether a swapper thread hot-swaps models while the faults fire.
#[derive(Debug)]
struct Cell {
    batch: Option<BatchSpec>,
    swaps: bool,
}

const RAGGED: Option<BatchSpec> = Some(BatchSpec {
    min_entries: 1,
    max_entries: 7,
});

/// {singleton, ragged 1..=7} × {no swap, swapper}, each run on every seed.
const CELLS: [Cell; 4] = [
    Cell {
        batch: None,
        swaps: false,
    },
    Cell {
        batch: RAGGED,
        swaps: false,
    },
    Cell {
        batch: None,
        swaps: true,
    },
    Cell {
        batch: RAGGED,
        swaps: true,
    },
];

/// The fault classes `FaultPlan::seeded` draws, in [`Seen::fired`] order.
const FAULT_CLASSES: [&str; 5] = [
    "reset-read",
    "reset-write",
    "truncation",
    "corruption",
    "dribble",
];

/// What one cell saw across the seed matrix, for its non-vacuity guards.
#[derive(Default)]
struct Seen {
    /// Faults fired per class of [`FAULT_CLASSES`].
    fired: [u64; 5],
    evictions: u64,
    swaps: u64,
    compared: u64,
}

/// Alternates explicit-dataset refreshes with recorder refreshes until
/// `done`, and returns how many published. The recorder path retrains
/// from sessions the concurrent forced evictions just completed.
fn swap_until(server: &ServerHandle, done: &AtomicBool) -> u64 {
    let mut swaps = 0;
    let mut round = 0u64;
    while !done.load(Ordering::Relaxed) {
        let published = if round.is_multiple_of(2) {
            // Operator push: always trains.
            let shift = 0.5 * (round % 4) as f64;
            server.refresh_models_with(&tiny_dataset(shift)).is_some()
        } else {
            // Recorder path: a no-op until the first session completes.
            server.refresh_models().is_some()
        };
        swaps += u64::from(published);
        round += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    swaps
}

/// One chaos run of `cell` at `seed`, held to every identity in the
/// module docs. In batch cells the faults fire mid-frame: a reset kills
/// a frame carrying up to seven sessions' entries, a corruption 400s the
/// whole frame, and a forced eviction is a per-entry 404 inside an
/// otherwise-healthy frame. `golden` is the seed's fault-free singleton
/// run; swap cells skip it, since sessions registering after a swap
/// legitimately see a different model (`refresh_soak.rs` proves pinning
/// bit-identity deterministically).
fn chaos_pass(seed: u64, cell: &Cell, golden: &LoadReport, seen: &mut Seen) {
    let config = ChaosConfig {
        load: LoadConfig {
            batch: cell.batch.clone(),
            ..workload(seed)
        },
        ..ChaosConfig::default()
    };
    let at = format!("seed {seed}, {cell:?}");
    let before = Ledger::read();
    let server = chaos_server(cell.swaps);
    let addr = server.addr();
    let done = AtomicBool::new(false);
    let (report, swaps) = std::thread::scope(|scope| {
        let swapper = cell
            .swaps
            .then(|| scope.spawn(|| swap_until(&server, &done)));
        let report = run_chaos(&server, &config);
        done.store(true, Ordering::Relaxed);
        let swaps = swapper.map_or(0, |s| s.join().expect("swapper panicked"));
        (report, swaps)
    });
    // Version retention under churn: at most `retain` versions (nothing
    // pins past the window — session pins are Arcs, not registry pins).
    let versions = server.model_versions();
    assert!(versions.len() <= 2, "{at}: leaked versions: {versions:?}");
    let stats = shutdown_bounded(server);
    let d = Ledger::since(&before);
    let fired = report.fired;

    assert_recovered(&report, &config.load);
    assert_eq!(stats.rejected, 0, "{at}");
    assert_eq!(d.get("client.retry.giveups"), 0, "{at}: send() gave up");

    // Fault accounting identity — injected == observed + survived, the
    // same under every framing and swap schedule: every transport
    // failure is exactly one client retry, every corruption exactly one
    // 400 (whole-frame, never applied), every forced eviction exactly one
    // store eviction (and one re-registration, in `assert_recovered`),
    // however many of the victim's entries shared its frame; dribbles
    // are survived with no error at all.
    assert_eq!(
        d.get("client.retry.attempts"),
        fired.transport_failures(),
        "{at}: retries vs injected transport faults"
    );
    assert_eq!(
        d.get("serve.fault.bad_frames"),
        fired.corruptions,
        "{at}: bad frames vs injected corruptions"
    );
    assert_eq!(
        report.error_statuses, fired.corruptions,
        "{at}: client-visible error statuses vs corruptions"
    );
    // Resets mid-request and truncations are each reaped as exactly one
    // server read error; a reset mid-response *may* additionally surface
    // server-side (close-with-unread-data RST timing), so the total is
    // bounded, not exact.
    let read_errors = d.get("serve.fault.read_errors");
    let (lo, hi) = (
        fired.resets_write + fired.truncations,
        fired.transport_failures(),
    );
    assert!(
        (lo..=hi).contains(&read_errors),
        "{at}: read errors {read_errors} outside [{lo}, {hi}]"
    );
    assert_eq!(
        d.get("serve.fault.forced_evictions"),
        report.forced_evictions,
        "{at}"
    );
    assert_eq!(
        stats.sessions_evicted, report.forced_evictions,
        "{at}: only forced evictions may evict (huge cap)"
    );
    assert_eq!(
        d.get("serve.fault.slow_peer_aborts"),
        0,
        "{at}: no slow-peer aborts without injected delay"
    );

    // Admission-ladder accounting: the ladder is disabled (default
    // config), so every 200 is booked as a Full-level serve and the level
    // never moves — exactly.
    let a = stats.admission;
    assert_eq!(
        a.served_full, stats.predictions_served,
        "{at}: ladder serve ledger out of balance"
    );
    assert_eq!(
        (a.served_degraded, a.served_fallback, a.shed, a.transitions),
        (0, 0, 0, 0),
        "{at}: degraded, fallback, shed, transitions"
    );

    // Swap accounting: every publish bumped the counter and the version
    // exactly once (versions are dense), and the recorder only ever held
    // sessions the evictions completed.
    assert_eq!(
        d.get("serve.model.swaps"),
        swaps,
        "{at}: swaps vs publishes"
    );
    assert_eq!(stats.model_version, 1 + swaps, "{at}: versions not dense");
    assert!(
        stats.recorded_sessions as u64 <= report.forced_evictions,
        "{at}: recorder invented sessions"
    );

    if cell.batch.is_some() {
        // The server really was driven through the batch path; applied
        // frames account every entry that ever got a 200 (duplicates from
        // reset-mid-response resends can only add); and every mid-frame
        // eviction is a 404 entry inside a 200 frame (corrupted frames are
        // refused whole, so they never count there).
        let total = config.load.total_requests();
        let entries = d.get("serve.batch.entries");
        let partial = d.get("serve.batch.partial_failures");
        assert!(d.get("serve.batch.requests") > 0, "{at}: no batch frame");
        assert!(entries >= total, "{at}: batch entries {entries} < {total}");
        assert!(
            partial >= report.forced_evictions,
            "{at}: partial failures {partial} < evictions {}",
            report.forced_evictions
        );
    }
    if !cell.swaps {
        for &id in &report.clean_sessions {
            assert_eq!(
                report.predictions.get(&id),
                golden.predictions.get(&id),
                "{at}: clean session {id} diverged from the singleton golden run"
            );
        }
        seen.compared += report.clean_sessions.len() as u64;
    }

    // The listener is really gone: a fresh connect is refused.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "{at}: port still accepting after shutdown"
    );
    let by_class = [
        fired.resets_read,
        fired.resets_write,
        fired.truncations,
        fired.corruptions,
        fired.dribbles,
    ];
    for (seen, n) in seen.fired.iter_mut().zip(by_class) {
        *seen += n;
    }
    seen.evictions += report.forced_evictions;
    seen.swaps += swaps;
}

/// A [`serve_config`] server, but durable: opened over a persistence
/// directory with per-record group commit and a compaction cadence short
/// enough that several WAL rotations race the workload.
fn durable_chaos_server(dir: &Path, hook: Option<Arc<CrashPlan>>) -> ServerHandle {
    let persist = PersistConfig {
        commit_every_records: 1,
        snapshot_every_records: 16,
        fsync_data: false,
        fault_hook: hook.map(|h| h as Arc<dyn WalFaultHook>),
        ..PersistConfig::default()
    };
    ServerHandle::open_or_recover(dir, tiny_engine(), "127.0.0.1:0", serve_config(), persist)
        .unwrap()
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
    let phase1 = workload(seed);

    // Phase 1: crash mid-load. ~40 predict records land across the run;
    // the plan kills (or tears) one of the first 30 commits.
    let dir = TempDir::new("soak-crash");
    let plan = CrashPlan::seeded(seed, 30);
    let server = durable_chaos_server(dir.path(), Some(Arc::clone(&plan)));
    let report = run_load(server.addr(), &phase1);
    assert_recovered(&report, &phase1);
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
    // a golden in-memory server as the never-crashed baseline. Nothing
    // evicts, so `assert_recovered` also proves the fresh cohort never
    // re-registers.
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
    let golden_server = chaos_server(false);
    let golden = run_load(golden_server.addr(), &phase2);
    shutdown_bounded(golden_server);
    let phase2_report = run_load(recovered.addr(), &phase2);
    assert_recovered(&phase2_report, &phase2);
    for s in 0..phase2.n_sessions as u64 {
        let id = phase2.session_id_base + s;
        assert_eq!(
            phase2_report.predictions.get(&id),
            golden.predictions.get(&id),
            "seed {seed}: post-restart session {id} diverged from never-crashed golden"
        );
    }

    // Persistence accounting: exactly one WAL record per successful
    // post-restart request (no evictions: huge cap), all of
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
    let base = workload(seed);
    let cohort = |base_id: u64| LoadConfig {
        session_id_base: base_id,
        ..base.clone()
    };
    let before = Ledger::read();

    let server = chaos_server(false);
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
    let d = Ledger::since(&before);
    let moved = |level| d.get(&format!("serve.admission.{level}"));
    let levels = [
        "full",
        "degraded",
        "fallback",
        "shed",
        "fallback_misses",
        "transitions",
    ];
    assert_eq!(
        levels.map(moved),
        [
            snap.served_full,
            snap.served_degraded,
            snap.served_fallback,
            snap.shed,
            snap.fallback_misses,
            snap.transitions
        ],
        "seed {seed}: registry vs handle snapshot"
    );
    (snap.served_degraded + snap.served_fallback, snap.shed)
}

#[test]
fn seeded_chaos_schedules_are_survived_with_exact_accounting() {
    cs2p_obs::set_enabled(true);
    let mut seen: [Seen; 4] = Default::default();
    for seed in seeds() {
        // Golden run: the same workload as sequential singleton requests,
        // no faults — the strongest baseline any framing can be held to.
        let golden_server = chaos_server(false);
        let golden = run_load(golden_server.addr(), &workload(seed));
        shutdown_bounded(golden_server);
        assert_recovered(&golden, &workload(seed));
        for (cell, seen) in CELLS.iter().zip(&mut seen) {
            chaos_pass(seed, cell, &golden, seen);
        }
    }
    // No cell is vacuous: across the seed matrix each one fired every
    // fault class (so each accounting identity compares non-zero
    // counts), force-evicted sessions (mid-frame, in batch cells), and
    // compared clean sessions or published swaps.
    for (cell, seen) in CELLS.iter().zip(&seen) {
        for (class, n) in FAULT_CLASSES.iter().zip(seen.fired) {
            assert!(n > 0, "{cell:?}: no {class} fault ever fired");
        }
        assert!(seen.evictions > 0, "{cell:?}: no forced eviction hit");
        if cell.swaps {
            assert!(seen.swaps > 0, "{cell:?}: no swap ever published");
        } else {
            assert!(seen.compared > 0, "{cell:?}: no clean session compared");
        }
    }

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
