//! The phases a run is made of: set-up, serving, recovery, training.
//!
//! Every workload is a composition of the same phases at the same sizes,
//! so a metric means the same thing wherever it is printed; what differs
//! between workloads is the traffic and whether the WAL is on.

use crate::check::{verify_frames, verify_phase, Tally};
use crate::load::{kept, run_phase, PhaseOutcome, SendHook, Templates};
use crate::reference::{answers, Replay};
use crate::spec::{Scale, Spec, Workload};
use crate::traffic::{
    batch_traffic, churn_traffic, next_step_frames, single_traffic, slots, ChurnExpect,
    ChurnTraffic, Expect, Kind, Op, SetupFrame, Slot, SlotExpect, Traffic,
};
use crate::world::{engine_config, train_warm, Source, World};
use bytes::Bytes;
use cs2p_core::engine::TrainSummary;
use cs2p_core::{ModelBundle, PredictionEngine};
use cs2p_net::server::RefreshConfig;
use cs2p_net::{
    serve_with, HttpClient, PersistConfig, PredictResponse, ServeConfig, ServeStats, ServerHandle,
    WalStats,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a run is asked to do.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub scale: Scale,
    /// Scratch space for WAL directories, removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn new(spec: Spec, seed: u64, scale: Scale) -> io::Result<Ctx> {
        // One directory per context: tests hold several in one process.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp)?;
        Ok(Ctx {
            spec,
            seed,
            scale,
            tmp,
        })
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// `perf/out` from the repository root, `out` from inside `perf/`.
pub fn out_dir() -> PathBuf {
    if Path::new("perf/spec.json").exists() {
        PathBuf::from("perf/out")
    } else {
        PathBuf::from("out")
    }
}

const LOOPBACK: &str = "127.0.0.1:0";

pub fn serve_config(spec: &Spec, max_sessions: usize) -> ServeConfig {
    ServeConfig {
        n_shards: spec.serve.n_shards,
        n_workers: spec.serve.n_workers,
        queue_depth: spec.serve.queue_depth,
        max_connections: spec.serve.max_connections,
        max_sessions,
        refresh: RefreshConfig {
            train_config: engine_config(spec),
            recorder_capacity: spec.serve.recorder_capacity,
            ..RefreshConfig::default()
        },
        ..ServeConfig::default()
    }
}

pub fn persist_config(spec: &Spec, snapshot_every_records: u64) -> PersistConfig {
    PersistConfig {
        commit_every_records: spec.persist.commit_every_records,
        commit_interval: None,
        snapshot_every_records,
        fsync_data: spec.persist.fsync_data,
        fault_hook: None,
    }
}

/// `snapshot_every_records` that puts `persist.snapshots_per_window`
/// compactions into every window: a window's WAL records are one per
/// prediction entry and one per log upload, the same count in every
/// window of the traffic that runs with the WAL on.
pub fn snapshot_every(spec: &Spec, traffic: &Traffic) -> u64 {
    let logs: usize = traffic
        .scripts
        .iter()
        .map(|s| s.window(0).iter().filter(|op| op.kind == Kind::Log).count())
        .sum();
    (traffic.entries_per_window + logs) as u64 / spec.persist.snapshots_per_window
}

/// `min_of_n`, in seconds.
pub fn min_secs(samples: &[Duration]) -> f64 {
    samples
        .iter()
        .min()
        .expect("at least one repetition")
        .as_secs_f64()
}

// ---------------------------------------------------------------------------
// Plans: what a serving phase sends, and the reference that checks it
// ---------------------------------------------------------------------------

pub enum Plan {
    Slots { slots: Vec<Slot>, traffic: Traffic },
    Churn(ChurnTraffic),
}

impl Plan {
    /// The serving plan of `workload` (for `train_refresh`, its tail).
    pub fn build(spec: &Spec, scale: &Scale, workload: Workload, sources: &[Source]) -> Plan {
        let w = &spec.workloads;
        let windows = |timed: usize| scale.warmup_windows + scale.timed(timed);
        match workload {
            Workload::PredictSingle => {
                let slots = slots(w.predict_single.sessions, sources.len());
                let traffic = single_traffic(
                    &slots,
                    sources,
                    spec,
                    scale.count(w.predict_single.window_requests, 64),
                    windows(spec.timed_windows),
                );
                Plan::Slots { slots, traffic }
            }
            Workload::PredictBatch64Wal => {
                let b = &w.predict_batch64_wal;
                let slots = slots(b.sessions, sources.len());
                let traffic = batch_traffic(
                    &slots,
                    sources,
                    spec,
                    scale.count(b.window_rounds, 1),
                    windows(spec.timed_windows),
                );
                Plan::Slots { slots, traffic }
            }
            Workload::SessionChurn => {
                let c = &w.session_churn;
                let sessions = scale.count(c.window_sessions, 4 * c.connections);
                Plan::Churn(churn_traffic(
                    sources,
                    spec,
                    sessions - sessions % c.connections,
                    windows(spec.timed_windows),
                ))
            }
            Workload::TrainRefresh => {
                let t = &w.train_refresh;
                let slots = slots(t.tail_sessions, sources.len());
                let traffic = single_traffic(
                    &slots,
                    sources,
                    spec,
                    scale.count(t.tail_window_requests, 64),
                    windows(t.tail_timed_windows),
                );
                Plan::Slots { slots, traffic }
            }
        }
    }

    pub fn traffic(&self) -> &Traffic {
        match self {
            Plan::Slots { traffic, .. } => traffic,
            Plan::Churn(churn) => &churn.traffic,
        }
    }

    /// The reference for this plan over `engine`.
    pub fn reference<'a>(
        &'a self,
        engine: &'a PredictionEngine,
        sources: &'a [Source],
        spec: &Spec,
    ) -> Reference<'a> {
        match self {
            Plan::Slots { slots, traffic } => Reference::Slots(SlotExpect::new(
                engine,
                slots,
                sources,
                spec.horizon,
                traffic,
            )),
            Plan::Churn(churn) => Reference::Churn {
                expect: ChurnExpect::new(engine, churn, spec),
                prefill: churn
                    .prefill
                    .iter()
                    .map(|s| Replay::new(engine, &sources[s.source], spec.horizon))
                    .collect(),
            },
        }
    }
}

pub enum Reference<'a> {
    Slots(SlotExpect<'a>),
    Churn {
        expect: ChurnExpect<'a>,
        /// The sessions that fill the store in set-up.
        prefill: Vec<Replay<'a>>,
    },
}

impl Reference<'_> {
    /// The responses a frame of the set-up owes.
    pub fn setup_frame(&mut self, frame: &SetupFrame) -> Vec<PredictResponse> {
        match self {
            Reference::Slots(slots) => slots.frame(frame.from, frame.n),
            Reference::Churn { prefill, .. } => answers(prefill, frame.from, frame.n),
        }
    }
}

impl Expect for Reference<'_> {
    fn next(&mut self, op: &Op, decoded: bool) -> (Vec<u8>, Vec<PredictResponse>) {
        match self {
            Reference::Slots(slots) => slots.next(op, decoded),
            Reference::Churn { expect, .. } => expect.next(op, decoded),
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The data a run stands on.
pub struct Ground {
    pub world: World,
    pub sources: Vec<Source>,
}

impl Ground {
    /// Synthesises the world; returns how long that took.
    pub fn synth(ctx: &Ctx) -> (Ground, Duration) {
        let start = Instant::now();
        let world = World::synth(&ctx.spec);
        let elapsed = start.elapsed();
        let sources = world.sources(ctx.spec.ring_epochs, ctx.seed);
        (Ground { world, sources }, elapsed)
    }
}

/// A started server with its sessions registered.
pub struct Stage {
    pub server: ServerHandle,
    /// The WAL directory, when the WAL is on.
    pub dir: Option<PathBuf>,
    pub plan: Plan,
    /// The registration responses, to be verified after the run.
    pub registered: Vec<(u16, Bytes)>,
    /// Server start plus registration.
    pub elapsed: Duration,
}

/// Sends `frames` over one connection, keeping every response.
pub fn send_frames(server: &ServerHandle, frames: &[SetupFrame]) -> Vec<(u16, Bytes)> {
    let mut client = HttpClient::new(server.addr());
    let mut templates = Templates::new();
    frames
        .iter()
        .map(|frame| kept(client.send(templates.with_body(Kind::Batch, &frame.body))))
        .collect()
}

impl Stage {
    /// Starts the server of `workload` on `engine` and registers the
    /// plan's sessions. Encoding the traffic is the generator's cost, not
    /// the system's, and stays outside `elapsed`.
    pub fn start(
        ctx: &Ctx,
        scale: &Scale,
        workload: Workload,
        engine: PredictionEngine,
        sources: &[Source],
        tag: &str,
    ) -> io::Result<Stage> {
        let plan = Plan::build(&ctx.spec, scale, workload, sources);
        let spec = &ctx.spec;
        let max_sessions = match workload {
            Workload::SessionChurn => spec.workloads.session_churn.max_sessions,
            _ => spec.serve.max_sessions,
        };
        let config = serve_config(spec, max_sessions);
        let start = Instant::now();
        let (server, dir) = if workload == Workload::PredictBatch64Wal {
            let dir = ctx.tmp.join(format!("wal-{tag}"));
            let server = ServerHandle::open_or_recover(
                &dir,
                engine,
                LOOPBACK,
                config,
                persist_config(spec, snapshot_every(spec, plan.traffic())),
            )?;
            (server, Some(dir))
        } else {
            (serve_with(engine, LOOPBACK, config)?, None)
        };
        let registered = send_frames(&server, &plan.traffic().setup);
        Ok(Stage {
            server,
            dir,
            plan,
            registered,
            elapsed: start.elapsed(),
        })
    }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// What a serving phase leaves behind once its server is shut down.
pub struct Served {
    pub outcome: PhaseOutcome,
    pub stats: ServeStats,
    pub wal: Option<WalStats>,
}

impl Stage {
    /// Runs the stage's traffic against its server, which stays up.
    /// Window and send times are counted from `epoch`.
    pub fn run<H: SendHook + Send>(
        &self,
        ctx: &Ctx,
        epoch: Instant,
        hooks: &mut [H],
    ) -> PhaseOutcome {
        run_phase(
            self.server.addr(),
            self.plan.traffic(),
            ctx.scale.warmup_windows,
            epoch,
            hooks,
        )
    }

    /// Reads the server's counters and shuts it down.
    pub fn finish(self, outcome: PhaseOutcome) -> Finished {
        let wal = self.server.persist_stats();
        let stats = self.server.shutdown();
        Finished {
            served: Served {
                outcome,
                stats,
                wal,
            },
            plan: self.plan,
            registered: self.registered,
            dir: self.dir,
        }
    }
}

/// A stage after its server is gone: what it measured, what it sent,
/// what set-up was answered, and the WAL directory it leaves.
pub struct Finished {
    pub served: Served,
    pub plan: Plan,
    pub registered: Vec<(u16, Bytes)>,
    pub dir: Option<PathBuf>,
}

/// Runs the stage's traffic, reads the server's counters, shuts it down.
pub fn serve<H: SendHook + Send>(ctx: &Ctx, stage: Stage, hooks: &mut [H]) -> Finished {
    let outcome = stage.run(ctx, Instant::now(), hooks);
    stage.finish(outcome)
}

/// Verifies a served plan against `reference` and asserts the exact
/// counts: every entry answered, every WAL record written, every
/// eviction predicted by the shard model.
pub fn verify_served(
    ctx: &Ctx,
    finished: &Finished,
    reference: &mut Reference<'_>,
    tally: &mut Tally,
) {
    let Finished {
        served,
        plan,
        registered,
        ..
    } = finished;
    let traffic = plan.traffic();
    verify_frames(
        &traffic.setup,
        registered,
        |f| reference.setup_frame(f),
        tally,
    );
    verify_phase(
        traffic,
        &served.outcome,
        ctx.scale.warmup_windows,
        reference,
        tally,
    );

    let setup_entries: u64 = traffic.setup.iter().map(|f| f.n as u64).sum();
    let entries = setup_entries + traffic.window_entries();
    let logs = traffic
        .scripts
        .iter()
        .flat_map(|s| &s.ops)
        .filter(|op| op.kind == Kind::Log)
        .count() as u64;
    tally.expect_eq(
        "serve.predictions_served",
        served.stats.predictions_served,
        entries,
    );
    match plan {
        Plan::Slots { slots, .. } => {
            tally.expect_eq("store.evicted", served.stats.sessions_evicted, 0);
            tally.expect_eq("store.live", served.stats.sessions_live, slots.len());
        }
        Plan::Churn(churn) => {
            tally.expect_eq(
                "store.evicted",
                served.stats.sessions_evicted,
                churn.expected_evicted,
            );
            tally.expect_eq(
                "store.live",
                served.stats.sessions_live,
                churn.expected_live,
            );
        }
    }
    if let Some(wal) = &served.wal {
        // One Register or Update per entry, one Remove per log; nothing
        // is evicted.
        tally.expect_eq("persist.wal_records", wal.records, entries + logs);
        tally.expect_eq("persist.wal_dead", wal.dead, false);
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// A WAL directory holding `slots`, and the replays that know what each
/// recovered session must predict next.
pub struct Recoverable<'a> {
    pub dir: PathBuf,
    pub slots: Vec<Slot>,
    pub replays: Vec<Replay<'a>>,
    /// `snapshot_every_records` the directory was written under.
    pub snapshot_every: u64,
}

impl<'a> Recoverable<'a> {
    /// Seeds a directory for the workloads that run without the WAL:
    /// registers half of `recover_seed_sessions` sessions, compacts (so
    /// the snapshot holds them), registers the other half and gives every
    /// session one measurement (so the WAL tail holds registrations and
    /// an update per session).
    pub fn seed(
        ctx: &Ctx,
        engine: &'a PredictionEngine,
        sources: &'a [Source],
        tally: &mut Tally,
    ) -> io::Result<Recoverable<'a>> {
        let spec = &ctx.spec;
        let dir = ctx.tmp.join("wal-seed");
        let slots = slots(spec.complement.recover_seed_sessions, sources.len());
        let mut replays: Vec<Replay<'a>> = slots
            .iter()
            .map(|s| Replay::new(engine, &sources[s.source], spec.horizon))
            .collect();
        let server = ServerHandle::open_or_recover(
            &dir,
            engine.clone(),
            LOOPBACK,
            serve_config(spec, spec.serve.max_sessions),
            persist_config(spec, 0),
        )?;
        let registration = next_step_frames(&slots, sources, &vec![0; slots.len()], spec.horizon);
        let measurement = next_step_frames(&slots, sources, &vec![1; slots.len()], spec.horizon);
        let (in_snapshot, in_tail) = registration.split_at(registration.len() / 2);
        let mut send = |frames: &[SetupFrame]| {
            let kept = send_frames(&server, frames);
            verify_frames(frames, &kept, |f| answers(&mut replays, f.from, f.n), tally);
        };
        send(in_snapshot);
        server.compact();
        send(in_tail);
        send(&measurement);
        server.shutdown();
        Ok(Recoverable {
            dir,
            slots,
            replays,
            snapshot_every: 0,
        })
    }
}

/// `recover_ms`: `rounds.recovers_per_round` times, a fresh byte-copy of
/// the directory is opened with `open_or_recover` and asked for one frame
/// of predictions; the first repetition goes on to ask every recovered
/// session for its next prediction, which must equal what a server that
/// never restarted would answer.
pub fn recover_phase(
    ctx: &Ctx,
    rec: &Recoverable<'_>,
    engine: &PredictionEngine,
    sources: &[Source],
    tally: &mut Tally,
) -> io::Result<Vec<Duration>> {
    let spec = &ctx.spec;
    let steps: Vec<usize> = rec.replays.iter().map(Replay::steps).collect();
    let frames = next_step_frames(&rec.slots, sources, &steps, spec.horizon);
    let work = ctx.tmp.join("wal-recover");
    let mut samples = Vec::new();
    for rep in 0..ctx.scale.reps(spec.rounds.recovers_per_round) {
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(&rec.dir, &work)?;
        let bootstrap = engine.clone();
        let config = serve_config(spec, spec.serve.max_sessions);
        let persist = persist_config(spec, rec.snapshot_every);
        let mut replays = rec.replays.clone();

        let start = Instant::now();
        let server = ServerHandle::open_or_recover(&work, bootstrap, LOOPBACK, config, persist)?;
        let first = send_frames(&server, &frames[..1]);
        samples.push(start.elapsed());

        verify_frames(
            &frames[..1],
            &first,
            |f| answers(&mut replays, f.from, f.n),
            tally,
        );
        if rep == 0 {
            let rest = send_frames(&server, &frames[1..]);
            verify_frames(
                &frames[1..],
                &rest,
                |f| answers(&mut replays, f.from, f.n),
                tally,
            );
            tally.expect_eq(
                "recovered sessions",
                server.stats().sessions_live,
                rec.slots.len(),
            );
        }
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Repetitions of one training step, which must all produce one engine.
pub struct Trained {
    pub engine: PredictionEngine,
    pub summary: TrainSummary,
    pub samples: Vec<Duration>,
}

fn same_summary(a: &TrainSummary, b: &TrainSummary) -> bool {
    (a.n_models, a.n_combos, a.warm_started, a.em_iterations)
        == (b.n_models, b.n_combos, b.warm_started, b.em_iterations)
}

impl Trained {
    /// Folds another repetition in, checking it reproduced the first.
    pub fn push(
        this: Option<Trained>,
        what: &str,
        engine: PredictionEngine,
        summary: TrainSummary,
        took: Duration,
        tally: &mut Tally,
    ) -> Trained {
        tally.attempt(1);
        match this {
            None => Trained {
                engine,
                summary,
                samples: vec![took],
            },
            Some(mut t) => {
                if t.engine != engine || !same_summary(&t.summary, &summary) {
                    tally.fail(1, || {
                        format!("{what}: a repetition trained a different engine")
                    });
                }
                t.samples.push(took);
                t
            }
        }
    }
}

/// `train_cold_s`: `PredictionEngine::train` on day 0, timed.
pub fn cold_once(ctx: &Ctx, world: &World) -> (PredictionEngine, TrainSummary, Duration) {
    let config = engine_config(&ctx.spec);
    let start = Instant::now();
    let (engine, summary) =
        PredictionEngine::train(&world.day0, &config).expect("day 0 supports a model");
    (engine, summary, start.elapsed())
}

/// `train_warm_s`: `ModelRegistry::retrain` on day 1 from the cold model,
/// timed.
pub fn warm_once(
    ctx: &Ctx,
    world: &World,
    cold: &PredictionEngine,
) -> (PredictionEngine, TrainSummary, Duration) {
    train_warm(world, &engine_config(&ctx.spec), cold)
}

/// `ModelBundle::to_json` / `from_json` round trip; the engine that comes
/// back must equal the one that went in.
pub fn bundle_round_trip(
    engine: &PredictionEngine,
    tally: &mut Tally,
) -> (PredictionEngine, usize) {
    let json = ModelBundle::from_engine(engine)
        .to_json()
        .expect("ModelBundle serialises");
    let back = ModelBundle::from_json(&json)
        .expect("ModelBundle parses its own JSON")
        .into_engine();
    tally.attempt(1);
    if back != *engine {
        tally.fail(1, || "model bundle round trip changed the engine".into());
    }
    (back, json.len())
}
