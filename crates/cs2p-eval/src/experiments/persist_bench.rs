//! `persist-bench`: WAL overhead of the durable prediction server.
//!
//! Runs the `serve-bench --batch` workload per cell against three
//! servers — in-memory (`serve_with`), durable with a commit per record
//! (the strictest cadence), and durable with a 64-record group commit
//! (the production cadence) — and reports entries/second side by side.
//! `fsync_data` is off in both durable configs, so the table isolates
//! the framing/CRC/write cost of the WAL itself rather than the disk's
//! sync latency, which varies by machine. `snapshot_every_records = 0`
//! disables load-triggered compaction: only the deterministic startup
//! compaction runs, keeping a `--metrics` capture reproducible across
//! two runs (CI diffs them). The workload drives a fixed request count,
//! so `serve.persist.wal_records`/`wal_bytes` are bit-deterministic;
//! the commit count depends on how shard groups interleave and is only
//! bounded, not exact.
//!
//! The closing gate asserts the group-commit durable server sustains at
//! least `MIN_DURABLE_RATIO` of the in-memory throughput at batch 64 —
//! the amortized regime the batch path exists for. If the WAL ever costs
//! more than that, a serving-path regression snuck into the durability
//! layer.

use super::serve_bench::{bench_engine, measure_eps, sharded_config};
use cs2p_net::{serve_with, PersistConfig, ServerHandle, WalStats};
use cs2p_testkit::crash::TempDir;
use std::fmt::Write as _;

const SESSIONS_PER_CLIENT: usize = 256;
const BATCH_SIZES: [usize; 2] = [1, 64];
const N_CLIENTS: usize = 4;
const GROUP_COMMIT: usize = 64;

/// Measurement repetitions per server. A single closed-loop round is
/// milliseconds long — scheduler-noise territory — so each cell is the
/// *best* of [`TRIALS`] rounds (the standard estimator for "what can
/// this configuration sustain"), and the three servers are measured
/// round-robin within each trial rather than one after another, so a
/// machine-wide slowdown hits every column instead of silently skewing
/// the ratio the gate checks.
const TRIALS: usize = 5;

/// Group-commit durable throughput must stay within this fraction of
/// in-memory throughput at batch 64 (the WAL-overhead CI gate).
const MIN_DURABLE_RATIO: f64 = 0.8;

/// A durable config with the given commit cadence; no load-triggered
/// compaction, no per-commit fsync (see module docs).
fn bench_persist_config(commit_every_records: usize) -> PersistConfig {
    PersistConfig {
        commit_every_records,
        snapshot_every_records: 0,
        fsync_data: false,
        ..PersistConfig::default()
    }
}

/// Open a durable server into a scratch directory at the given cadence.
fn open_durable(dir: &TempDir, commit_every: usize) -> ServerHandle {
    ServerHandle::open_or_recover(
        dir.path(),
        bench_engine(),
        "127.0.0.1:0",
        sharded_config(),
        bench_persist_config(commit_every),
    )
    .expect("bind durable")
}

/// Shut a durable server down and audit its WAL accounting.
fn finish_durable(server: ServerHandle, commit_every: usize) -> WalStats {
    let wal = server
        .persist_stats()
        .expect("durable server reports WAL stats");
    server.shutdown();
    assert!(!wal.dead, "bench WAL died: {wal:?}");
    // Batched requests land whole shard groups (up to 64 records) in one
    // append, and a commit drains everything buffered — so each commit
    // covers at most `commit_every + 64` records, and an append commits
    // at most once: records/(commit_every+64) <= commits <= records.
    assert!(
        wal.commits >= wal.records / (commit_every as u64 + 64) && wal.commits <= wal.records,
        "commit count out of range for cadence {commit_every}: {wal:?}"
    );
    wal
}

/// The persist-bench table: in-memory vs durable entries/second at the
/// singleton and batch-64 points, plus the WAL's own accounting.
pub fn persist_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "persist-bench: in-memory vs durable entries/second, \
         {N_CLIENTS} clients x {SESSIONS_PER_CLIENT} sessions"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>14} {:>13} {:>9}",
        "batch", "in-mem eps", "commit-1 eps", "group-64 eps", "64 ratio"
    );

    let mut ratio_at_64 = None;
    for &batch in &BATCH_SIZES {
        let inmem =
            serve_with(bench_engine(), "127.0.0.1:0", sharded_config()).expect("bind in-memory");
        let strict_dir = TempDir::new("persist-bench-strict");
        let strict = open_durable(&strict_dir, 1);
        let group_dir = TempDir::new("persist-bench-group");
        let group = open_durable(&group_dir, GROUP_COMMIT);

        // Round-robin the trials across the three servers (see TRIALS).
        let (mut inmem_eps, mut strict_eps, mut group_eps) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..TRIALS {
            let eps = |addr| measure_eps(addr, N_CLIENTS, SESSIONS_PER_CLIENT, batch);
            inmem_eps = inmem_eps.max(eps(inmem.addr()));
            strict_eps = strict_eps.max(eps(strict.addr()));
            group_eps = group_eps.max(eps(group.addr()));
        }

        inmem.shutdown();
        let strict_wal = finish_durable(strict, 1);
        let group_wal = finish_durable(group, GROUP_COMMIT);
        assert_eq!(
            strict_wal.records, group_wal.records,
            "same workload writes the same records regardless of cadence"
        );

        let ratio = group_eps / inmem_eps;
        if batch == 64 {
            ratio_at_64 = Some(ratio);
        }
        let _ = writeln!(
            out,
            "{:>7} {:>12.0} {:>14.0} {:>13.0} {:>8.2}x",
            batch, inmem_eps, strict_eps, group_eps, ratio
        );
        let _ = writeln!(
            out,
            "        wal: {} records, {} bytes; {} commits per-record, {} group",
            group_wal.records, group_wal.bytes, strict_wal.commits, group_wal.commits
        );
    }

    let ratio = ratio_at_64.expect("batch 64 is in BATCH_SIZES");
    assert!(
        ratio >= MIN_DURABLE_RATIO,
        "WAL overhead gate: group-commit durable eps is {ratio:.2}x in-memory at batch 64 \
         (floor {MIN_DURABLE_RATIO})\n{out}"
    );
    let _ = writeln!(
        out,
        "gate: durable (group commit {GROUP_COMMIT}) >= {MIN_DURABLE_RATIO}x in-memory \
         at batch 64 -- ok ({ratio:.2}x)"
    );
    out
}
