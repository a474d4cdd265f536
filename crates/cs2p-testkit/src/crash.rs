//! Crash harness for the durability layer: a seeded process-death model
//! over `cs2p-net`'s WAL commit points, plus a scoped temp directory.
//!
//! A "crash" here is in-process: a [`CrashPlan`] installed as the
//! server's [`WalFaultHook`] kills the WAL at an exact commit point —
//! everything committed before it is on disk, everything after is
//! silently dropped, exactly the state a `kill -9` (or a torn page on
//! power loss, via [`CrashPlan::torn_at_commit`]) leaves behind. The
//! server keeps serving from memory until shut down, which lets a test
//! drive a known request stream past the kill point and then recover
//! with `ServerHandle::open_or_recover`, comparing against a control
//! server that was only fed the committed prefix.
//!
//! Determinism: the kill point is either explicit or derived from a seed
//! (ChaCha8), and the commit counter is the WAL's own — the same request
//! stream with the same `commit_every_records` crashes in the same place
//! on every run.

use cs2p_net::persist::{CommitOutcome, WalFaultHook};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A process-unique scratch directory removed on drop. Std-only (the
/// workspace vendors no `tempfile`): `$TMPDIR/cs2p-<tag>-<pid>-<seq>`.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh empty directory tagged `tag`.
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cs2p-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Recursively copies a persistence directory (WAL segments,
/// `store.snap`, `models/`). Take it after shutdown, so the bytes are
/// quiescent.
pub fn copy_dir(src: &Path, dst: &Path) {
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

enum CrashMode {
    /// Let every commit through (a control plan; also useful to count
    /// commit points before choosing where to crash on the next run).
    Observe,
    /// Die before commit `at` reaches the disk.
    KillAt { at: u64 },
    /// Write a seeded prefix of commit `at`'s batch, then die.
    TornAt { at: u64, seed: u64 },
}

/// A deterministic crash plan over WAL commit points (see the module
/// docs). Install via `PersistConfig::fault_hook`.
pub struct CrashPlan {
    mode: CrashMode,
    commits: AtomicU64,
    killed: AtomicBool,
}

impl CrashPlan {
    /// A plan that never crashes but counts commit points — run the
    /// workload once under this to learn the commit count, then crash a
    /// second run anywhere inside it.
    pub fn observe() -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            mode: CrashMode::Observe,
            commits: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        })
    }

    /// Kills the process model at commit point `at` (0-based): commits
    /// `0..at` reach the disk, commit `at` and everything after are lost.
    pub fn kill_at_commit(at: u64) -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            mode: CrashMode::KillAt { at },
            commits: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        })
    }

    /// Like [`kill_at_commit`](Self::kill_at_commit), but commit `at`
    /// tears: a seeded strict prefix of its bytes reaches the disk — the
    /// torn-write shape recovery must truncate, never trip over.
    pub fn torn_at_commit(at: u64, seed: u64) -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            mode: CrashMode::TornAt { at, seed },
            commits: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        })
    }

    /// A seeded crash somewhere in `[0, max_commits)`: half the seeds
    /// kill clean, half tear the final commit. Use after an
    /// [`observe`](Self::observe) run has measured `max_commits`.
    pub fn seeded(seed: u64, max_commits: u64) -> Arc<CrashPlan> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A5_11D0);
        let at = rng.gen_range(0..max_commits.max(1));
        if rng.gen_range(0..2u8) == 0 {
            Self::kill_at_commit(at)
        } else {
            Self::torn_at_commit(at, rng.gen_range(0..u64::MAX))
        }
    }

    /// Whether the crash has fired yet.
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

impl WalFaultHook for CrashPlan {
    fn on_commit(&self, commit_index: u64, batch: &[u8]) -> CommitOutcome {
        self.commits.fetch_add(1, Ordering::SeqCst);
        match self.mode {
            CrashMode::Observe => CommitOutcome::Write,
            CrashMode::KillAt { at } if commit_index == at => {
                self.killed.store(true, Ordering::SeqCst);
                CommitOutcome::Kill
            }
            CrashMode::TornAt { at, seed } if commit_index == at => {
                self.killed.store(true, Ordering::SeqCst);
                // A strict prefix: tearing all of the batch would be a
                // clean commit, tearing 0 bytes is a plain kill — both
                // are covered by the other modes.
                let len = if batch.len() > 1 {
                    ChaCha8Rng::seed_from_u64(seed).gen_range(1..batch.len())
                } else {
                    0
                };
                CommitOutcome::ShortWrite(len)
            }
            _ => CommitOutcome::Write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_unique_and_removed() {
        let first = TempDir::new("t");
        let second = TempDir::new("t");
        assert_ne!(first.path(), second.path());
        let kept = first.path().to_path_buf();
        assert!(kept.is_dir());
        drop(first);
        assert!(!kept.exists());
    }

    #[test]
    fn kill_plan_fires_exactly_once_at_its_commit() {
        let plan = CrashPlan::kill_at_commit(2);
        assert_eq!(plan.on_commit(0, b"a"), CommitOutcome::Write);
        assert_eq!(plan.on_commit(1, b"b"), CommitOutcome::Write);
        assert!(!plan.killed());
        assert_eq!(plan.on_commit(2, b"c"), CommitOutcome::Kill);
        assert!(plan.killed());
        assert_eq!(plan.commits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn torn_plan_writes_a_strict_prefix() {
        for seed in 0..32u64 {
            let plan = CrashPlan::torn_at_commit(0, seed);
            let batch = vec![0u8; 64];
            match plan.on_commit(0, &batch) {
                CommitOutcome::ShortWrite(n) => assert!(n >= 1 && n < batch.len()),
                other => panic!("expected a short write, got {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..16u64 {
            let a = CrashPlan::seeded(seed, 10);
            let b = CrashPlan::seeded(seed, 10);
            let batch = vec![1u8; 32];
            for i in 0..10 {
                assert_eq!(
                    a.on_commit(i, &batch),
                    b.on_commit(i, &batch),
                    "seed {seed}"
                );
            }
            assert!(a.killed(), "every seeded plan crashes within range");
        }
    }
}
