//! `persist-bench`: a telemetry capture of the durable prediction
//! server, not a benchmark.
//!
//! Runs `serve-bench`'s load phases — one singleton, one in frames of
//! 64 — against two durable servers: a commit per record (the strictest
//! cadence) and a 64-record group commit (the production cadence), and
//! prints the WAL's own accounting. What it is for is the `--metrics`
//! file behind CI's persistence schema, determinism and vocabulary
//! gates; what the WAL costs is `perf/`'s `predict_batch64_wal`.
//!
//! `fsync_data` is off and `snapshot_every_records = 0` disables
//! load-triggered compaction: the one compaction runs after the load,
//! with no request in flight, so a capture is reproducible across two
//! runs (CI diffs them). The directory starts fresh, which is no damage:
//! the startup recovery does not compact.
//! The workload is a fixed request count, so
//! `serve.persist.wal_records`/`wal_bytes` are bit-deterministic; the
//! commit count depends on how shard groups interleave and is only
//! bounded, not exact.

use super::serve_bench::{capture_phase, sharded_config, EPOCHS_PER_SESSION, FRAME, PHASE_HEADER};
use cs2p_net::{PersistConfig, ServerHandle, WalStats};
use cs2p_testkit::crash::TempDir;
use cs2p_testkit::scenarios::tiny_engine;
use std::fmt::Write as _;

const N_SESSIONS: usize = 256;
const N_CLIENTS: usize = 4;
const GROUP_COMMIT: usize = 64;

/// Drives both phases through a durable server at the given commit
/// cadence (no load-triggered compaction, no per-commit fsync — see the
/// module docs), then audits and returns the WAL's accounting.
fn capture_cadence(out: &mut String, commit_every: usize) -> WalStats {
    let _ = writeln!(out, "commit every {commit_every}:");
    let dir = TempDir::new("persist-bench");
    let server = ServerHandle::open_or_recover(
        dir.path(),
        tiny_engine(),
        "127.0.0.1:0",
        sharded_config(),
        PersistConfig {
            commit_every_records: commit_every,
            snapshot_every_records: 0,
            fsync_data: false,
            ..PersistConfig::default()
        },
    )
    .expect("bind durable");
    let addr = server.addr();
    capture_phase(out, addr, N_CLIENTS, N_SESSIONS, 80_000, None);
    capture_phase(out, addr, N_CLIENTS, N_SESSIONS, 90_000, Some(FRAME));
    let wal = server
        .persist_stats()
        .expect("durable server reports WAL stats");
    server.compact();
    server.shutdown();
    assert!(!wal.dead, "capture WAL died: {wal:?}");
    // Batched requests land whole shard groups (up to 64 records) in one
    // append, and a commit drains everything buffered — so each commit
    // covers at most `commit_every + 64` records, and an append commits
    // at most once: records/(commit_every+64) <= commits <= records.
    assert!(
        wal.commits >= wal.records / (commit_every as u64 + 64) && wal.commits <= wal.records,
        "commit count out of range for cadence {commit_every}: {wal:?}"
    );
    let _ = writeln!(
        out,
        "  wal: {} records, {} bytes, {} commits",
        wal.records, wal.bytes, wal.commits
    );
    wal
}

/// The persist-bench capture: both load phases at both commit cadences,
/// plus the WAL's own accounting.
pub fn persist_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "persist-bench: telemetry capture of the durable server, \
         {EPOCHS_PER_SESSION} requests per session"
    );
    let _ = writeln!(out, "{PHASE_HEADER}");
    let strict = capture_cadence(&mut out, 1);
    let group = capture_cadence(&mut out, GROUP_COMMIT);
    assert_eq!(
        strict.records, group.records,
        "same workload writes the same records regardless of cadence"
    );
    out
}
