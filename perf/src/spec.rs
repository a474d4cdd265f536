//! The benchmark's constants, read from `perf/spec.json` (compiled in, so
//! a run can never see a different file from the one it was built with).
//!
//! Every size is a count. `--seconds` only rescales the window counts
//! linearly from [`Spec::run_seconds`]; nothing is calibrated at run time.

use serde::Deserialize;

/// The text of `perf/spec.json`.
pub const SPEC_JSON: &str = include_str!("../spec.json");

/// The four workloads, by the names every later issue refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PredictSingle,
    PredictBatch64Wal,
    SessionChurn,
    TrainRefresh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PredictSingle,
        Workload::PredictBatch64Wal,
        Workload::SessionChurn,
        Workload::TrainRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictSingle => "predict_single",
            Workload::PredictBatch64Wal => "predict_batch64_wal",
            Workload::SessionChurn => "session_churn",
            Workload::TrainRefresh => "train_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub default_seed: u64,
    pub run_seconds: u64,
    pub horizon: usize,
    pub ring_epochs: usize,
    pub warmup_windows: usize,
    pub timed_windows: usize,
    pub smoke: Smoke,
    pub traced: Traced,
    pub synth: Synth,
    pub engine: Engine,
    pub serve: Serve,
    pub persist: Persist,
    pub rounds: Rounds,
    pub workloads: Workloads,
    pub complement: Complement,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Smoke {
    pub windows: usize,
    pub length_divisor: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Traced {
    pub timed_windows: usize,
    pub micro_calls: usize,
    pub unpinned_windows: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Synth {
    pub world_seed: u64,
    pub n_sessions: usize,
    pub days: u64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Engine {
    pub n_states: usize,
    pub max_iters: usize,
    pub n_threads: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Serve {
    pub n_workers: usize,
    pub n_shards: usize,
    pub queue_depth: usize,
    pub max_connections: usize,
    pub max_sessions: usize,
    pub recorder_capacity: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Persist {
    pub commit_every_records: usize,
    pub fsync_data: bool,
    pub snapshots_per_window: u64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Rounds {
    /// Rounds of the whole lifecycle per run.
    pub count: usize,
    pub recovers_per_round: usize,
    pub world_setups_per_round_train_refresh: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Workloads {
    pub predict_single: Single,
    pub predict_batch64_wal: Batch,
    pub session_churn: Churn,
    pub train_refresh: Tail,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Single {
    pub sessions: usize,
    pub window_requests: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Batch {
    pub connections: usize,
    pub sessions: usize,
    pub frame_entries: usize,
    /// Responses of one session life: its registration and
    /// `life_steps - 1` measurements.
    pub life_steps: usize,
    /// Visits of every group per window.
    pub window_rounds: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Churn {
    pub connections: usize,
    pub max_sessions: usize,
    pub prefill_sessions: usize,
    pub id_cycle: usize,
    pub predicts_per_session: usize,
    pub oov_every: usize,
    pub window_sessions: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Tail {
    pub tail_sessions: usize,
    pub tail_window_requests: usize,
    pub tail_timed_windows: usize,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Complement {
    pub recover_seed_sessions: usize,
}

impl Spec {
    /// The checked-in specification.
    pub fn load() -> Spec {
        serde_json::from_str(SPEC_JSON).expect("perf/spec.json matches spec.rs")
    }
}

/// How long a run is, relative to the specification: the driver's
/// `--seconds` rescales window *counts of requests*, the smoke size cuts
/// both the window count and the window length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Numerator and denominator applied to every per-window count.
    pub num: usize,
    pub den: usize,
    /// Timed windows (`None`: the workload's own count).
    pub timed_windows: Option<usize>,
    /// Warm-up windows.
    pub warmup_windows: usize,
    /// One round and one repetition of everything (smoke and traced runs).
    pub single_repetition: bool,
}

impl Scale {
    /// The gated run at `seconds` (the specification's size when
    /// `seconds == spec.run_seconds`).
    pub fn gated(spec: &Spec, seconds: u64) -> Scale {
        Scale {
            num: seconds.max(1) as usize,
            den: spec.run_seconds as usize,
            timed_windows: None,
            warmup_windows: spec.warmup_windows,
            single_repetition: false,
        }
    }

    /// The traced run: same windows, about a tenth as many, and one
    /// repetition of whatever the gated run repeats.
    pub fn traced(spec: &Spec, seconds: u64) -> Scale {
        Scale {
            timed_windows: Some(spec.traced.timed_windows),
            single_repetition: true,
            ..Scale::gated(spec, seconds)
        }
    }

    /// The smoke size the package's own tests drive end to end.
    pub fn smoke(spec: &Spec) -> Scale {
        Scale {
            num: 1,
            den: spec.smoke.length_divisor,
            timed_windows: Some(spec.smoke.windows),
            warmup_windows: 1,
            single_repetition: true,
        }
    }

    /// A per-window count at this scale (never below `floor`).
    pub fn count(&self, full: usize, floor: usize) -> usize {
        (full * self.num / self.den).max(floor)
    }

    pub fn timed(&self, full: usize) -> usize {
        self.timed_windows.unwrap_or(full)
    }

    pub fn reps(&self, full: usize) -> usize {
        if self.single_repetition {
            1
        } else {
            full
        }
    }
}
