use super::app::{rehydrate_session, AppState, MAX_RECORDED_EPOCHS};
use super::conn::{run_acceptor, run_poller, run_worker};
use super::ServeConfig;
use crate::admission::{AdmissionLevel, AdmissionSnapshot};
use crate::ops::OpsSnapshot;
use crate::persist::{self, PersistConfig, SessionPersist, WalStats};
use crate::protocol::SessionLog;
use crate::store::SessionStore;
use cs2p_core::engine::TrainSummary;
use cs2p_core::{Dataset, ModelRegistry, ModelVersion, PredictionEngine};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Snapshot of the serving counters (also returned by
/// [`ServerHandle::shutdown`], whose final values are exact because all
/// workers have drained by then).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Predictions answered with a 200: `/predict` responses plus
    /// successful `/predict_batch` entries.
    pub predictions_served: u64,
    /// Sessions currently resident in the store.
    pub sessions_live: usize,
    /// Sessions evicted (LRU or forced) since startup.
    pub sessions_evicted: u64,
    /// The store's total capacity bound.
    pub session_capacity: usize,
    /// Connections answered with 503 backpressure.
    pub rejected: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// The live model version (1 = the engine the server started with).
    pub model_version: u64,
    /// Completed sessions currently held by the training recorder.
    pub recorded_sessions: usize,
    /// Degradation-ladder counters (level, per-level serve counts, shed).
    pub admission: AdmissionSnapshot,
}

/// A running prediction server (see the module docs for the thread
/// architecture).
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<AppState>,
    accept_thread: Option<JoinHandle<()>>,
    poller_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Opens a durably-persisted server from `dir`, recovering whatever
    /// state a previous incarnation committed there.
    ///
    /// Recovery replays the store snapshot plus every uncovered WAL
    /// generation: the recovered server holds the same sessions — same
    /// HMM filter posteriors, same pinned model versions, same LRU
    /// stamps, same store tick — as the committed prefix of the crashed
    /// run, so its predictions are bit-identical to a server that never
    /// crashed. Replay truncates at the first torn or corrupt record and
    /// never panics on arbitrary bytes. A fresh (or empty) directory
    /// bootstraps from `engine`, persisting it as model version 1; after
    /// a successful recovery `engine` is unused — the persisted registry
    /// wins. Sessions pinned to a version whose bundle is gone (GC'd or
    /// corrupt) are dropped to the re-register path, never served from a
    /// mismatched model.
    ///
    /// The recovered server starts a fresh WAL generation after the old
    /// ones. It compacts at once only to repair: when replay stopped at a
    /// torn or corrupt record (orphaning the tail), when `store.snap` did
    /// not decode, or when the restore dropped sessions the disk still
    /// holds. After a clean recovery the old segments stay, and the
    /// records replayed from them count toward
    /// [`PersistConfig::snapshot_every_records`], which bounds the next
    /// replay. Durability counters land under `serve.persist.*`; the
    /// `serve.persist.recovered` event times the four phases of the cold
    /// start (DESIGN.md §3f).
    pub fn open_or_recover(
        dir: &Path,
        engine: PredictionEngine,
        addr: &str,
        config: ServeConfig,
        persist_config: PersistConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let start = Instant::now();
        let recovered = persist::recover(dir, MAX_RECORDED_EPOCHS)?;
        let restore_start = Instant::now();
        let persist = Arc::new(SessionPersist::create(
            dir,
            Arc::clone(&config.clock),
            &persist_config,
        )?);
        persist.resume_cadence(recovered.wal_records);
        let damaged = !recovered.clean || recovered.snapshot_corrupt;
        let on_disk = recovered.sessions.len();

        let refresh = &config.refresh;
        let restored = recovered.current_version.and_then(|current| {
            ModelRegistry::restore(
                recovered
                    .engines
                    .into_iter()
                    .map(|(v, e)| (ModelVersion(v), e))
                    .collect(),
                ModelVersion(current),
                refresh.train_config.clone(),
                refresh.retain,
            )
        });
        let registry = restored.unwrap_or_else(|| {
            let registry = ModelRegistry::new(engine, refresh.train_config.clone(), refresh.retain);
            // Persist the bootstrap version right away: sessions that
            // pin it must survive a crash that happens before the
            // first retrain ever publishes anything.
            let (v1, e1) = registry.current();
            use cs2p_core::registry::RegistryPersistence;
            persist.registry_sink().publish_version(v1, &e1);
            registry
        });

        // Each pinned version resolves once, not once per session; a
        // version whose bundle is gone drops its sessions.
        let mut pins: Vec<(u64, Option<Arc<PredictionEngine>>)> = Vec::new();
        let mut dropped_sessions = 0usize;
        let sessions = SessionStore::restore_with(
            config.n_shards,
            config.max_sessions,
            None,
            recovered.tick,
            recovered.sessions,
            |ps| {
                let engine = match pins.iter().find(|(v, _)| *v == ps.version) {
                    Some((_, engine)) => engine.clone(),
                    None => {
                        let engine = registry.get(ModelVersion(ps.version));
                        pins.push((ps.version, engine.clone()));
                        engine
                    }
                };
                let session = engine.and_then(|engine| rehydrate_session(engine, ps));
                dropped_sessions += usize::from(session.is_none());
                session
            },
        );
        let app = AppState::new(registry, sessions, config, Some(persist));
        let restore_us = persist::micros(restore_start.elapsed());
        // A torn tail must be orphaned before anything is appended after
        // it, and a store that holds fewer sessions than the disk must not
        // see them come back at the next restart.
        let compacted = damaged || app.sessions.len() != on_disk;
        let compact_us = if compacted {
            let compact_start = Instant::now();
            app.compact_now();
            persist::micros(compact_start.elapsed())
        } else {
            0
        };
        if cs2p_obs::enabled() {
            cs2p_obs::observe(
                "serve.persist.recovery_us",
                start.elapsed().as_micros() as f64,
            );
            cs2p_obs::event(
                cs2p_obs::Level::Info,
                "serve.persist.recovered",
                vec![
                    ("wal_records", recovered.wal_records.into()),
                    ("clean", recovered.clean.into()),
                    ("compacted", compacted.into()),
                    ("sessions", app.sessions.len().into()),
                    ("dropped_sessions", dropped_sessions.into()),
                    ("models_us", recovered.models_us.into()),
                    ("replay_us", recovered.replay_us.into()),
                    ("restore_us", restore_us.into()),
                    ("compact_us", compact_us.into()),
                ],
            );
        }
        spawn_server(listener, app)
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// WAL counters of the durability layer; `None` on an in-memory
    /// server (one not opened via [`open_or_recover`](Self::open_or_recover)).
    pub fn persist_stats(&self) -> Option<WalStats> {
        self.app.persist.as_ref().map(|p| p.wal_stats())
    }

    /// Forces a WAL rotation + store snapshot now (ops hook). No-op on an
    /// in-memory server or when a compaction is already in flight.
    pub fn compact(&self) {
        self.app.compact_now();
    }

    /// Total predictions served so far.
    pub fn predictions_served(&self) -> u64 {
        self.app.predictions_served.load(Ordering::Relaxed)
    }

    /// Session logs uploaded so far.
    pub fn logs(&self) -> Vec<SessionLog> {
        self.app.logs.lock().clone()
    }

    /// Forcibly evicts a session mid-stream (chaos/ops hook): the next
    /// request for it gets the "unknown session" re-register path, just
    /// like an LRU eviction. Counted in `serve.fault.forced_evictions`
    /// (and as a regular eviction). Returns whether it was present.
    pub fn force_evict(&self, session_id: u64) -> bool {
        self.app.sessions.force_evict(session_id)
    }

    /// The live model version new sessions will pin.
    pub fn model_version(&self) -> ModelVersion {
        self.app.registry.current_version()
    }

    /// Completed sessions currently held by the training recorder.
    pub fn recorded_sessions(&self) -> usize {
        self.app.recorder.len()
    }

    /// Model versions the registry currently retains, ascending. Bounded
    /// by [`super::RefreshConfig::retain`] plus explicitly pinned versions — the
    /// soak tests assert swaps and evictions never leak versions here.
    pub fn model_versions(&self) -> Vec<ModelVersion> {
        self.app.registry.versions()
    }

    /// The live `(version, engine)` snapshot. The `Arc` stays valid (and
    /// bit-identical) across later swaps — what a pinned session holds,
    /// and what `refresh-bench` evaluates offline against held-out days.
    pub fn model_snapshot(&self) -> (ModelVersion, Arc<PredictionEngine>) {
        self.app.registry.current()
    }

    /// Retrains from the completed sessions the server has recorded and
    /// hot-swaps the result in (warm-starting every cluster from the live
    /// version). In-flight sessions keep serving from the version they
    /// registered on; only new sessions see the new model. `None` — the
    /// live version untouched — when the recorder holds fewer than
    /// [`super::RefreshConfig::min_sessions`] sessions or the data cannot
    /// support a model.
    pub fn refresh_models(&self) -> Option<(ModelVersion, TrainSummary)> {
        self.app.refresh_models()
    }

    /// Like [`refresh_models`](Self::refresh_models) but trains from an
    /// explicit dataset (operator push, deterministic tests) instead of
    /// the recorder window.
    pub fn refresh_models_with(&self, dataset: &Dataset) -> Option<(ModelVersion, TrainSummary)> {
        self.app.refresh_models_with(dataset)
    }

    /// The full operational snapshot — exactly the struct `GET /ops`
    /// serializes, without a socket round-trip. Includes request-latency
    /// and online-APE quantiles from the quality monitor (see
    /// [`crate::ops::OpsSnapshot`]).
    pub fn metrics_snapshot(&self) -> OpsSnapshot {
        self.app.ops_snapshot()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            predictions_served: self.app.predictions_served.load(Ordering::Relaxed),
            sessions_live: self.app.sessions.len(),
            sessions_evicted: self.app.sessions.evicted(),
            session_capacity: self.app.sessions.capacity(),
            rejected: self.app.serving.rejected.load(Ordering::Relaxed),
            accepted: self.app.serving.accepted.load(Ordering::Relaxed),
            model_version: self.app.registry.current_version().0,
            recorded_sessions: self.app.recorder.len(),
            admission: self.app.admission.snapshot(),
        }
    }

    /// The degradation-ladder level requests are admitted at right now.
    pub fn admission_level(&self) -> AdmissionLevel {
        self.app.admission.level()
    }

    /// Pins (or, with `None`, unpins) the degradation ladder — the
    /// deterministic overload-forcing hook the ladder tests and benches
    /// drive (see TESTING.md). Works even when the watermark machinery
    /// is disabled.
    pub fn force_admission_level(&self, level: Option<AdmissionLevel>) {
        self.app.admission.force(level);
    }

    /// Gracefully drains and stops the server: stop accepting, finish
    /// every request already received or readable, join all threads.
    /// Completes in bounded time (worst case one read-timeout for a
    /// stalled peer) and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        if self.app.serving.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking acceptor with a throwaway loopback connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Wake the poller; it does a final ready sweep and exits.
        self.app.serving.intake_cv.notify_all();
        if let Some(t) = self.poller_thread.take() {
            let _ = t.join();
        }
        // Workers drain the queue, then see `None` and exit.
        self.app.serving.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // No worker is appending anymore: make the WAL tail durable. A
        // graceful shutdown therefore loses nothing; only a crash can.
        if let Some(p) = &self.app.persist {
            let _ = p.flush();
        }
        // Anything a worker handed back after the poller left is idle by
        // definition — safe to close now that no thread will touch it.
        self.app.serving.intake_lock().clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Starts the server on `addr` (use port 0 for an ephemeral port) with
/// default [`ServeConfig`].
pub fn serve(engine: PredictionEngine, addr: &str) -> io::Result<ServerHandle> {
    serve_with(engine, addr, ServeConfig::default())
}

/// Starts the server on `addr` with explicit tuning knobs.
pub fn serve_with(
    engine: PredictionEngine,
    addr: &str,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let refresh = &config.refresh;
    let registry = ModelRegistry::new(engine, refresh.train_config.clone(), refresh.retain);
    let sessions = SessionStore::new(config.n_shards, config.max_sessions, None);
    let app = AppState::new(registry, sessions, config, None);
    spawn_server(listener, app)
}

/// Starts one named serving thread over the shared state.
fn spawn(
    name: &str,
    app: &Arc<AppState>,
    run: impl FnOnce(Arc<AppState>) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let app = Arc::clone(app);
    thread::Builder::new()
        .name(name.into())
        .spawn(move || run(app))
}

/// Spawns the serving threads around an already-built [`AppState`] —
/// shared by [`serve_with`] (fresh state) and
/// [`ServerHandle::open_or_recover`] (recovered state).
fn spawn_server(listener: TcpListener, app: AppState) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let n_workers = app.config.n_workers.max(1);
    let app = Arc::new(app);

    let accept_thread = spawn("cs2p-accept", &app, move |app| run_acceptor(listener, app))?;
    let poller_thread = spawn("cs2p-poll", &app, run_poller)?;
    let workers = (0..n_workers)
        .map(|i| spawn(&format!("cs2p-worker-{i}"), &app, run_worker))
        .collect::<io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        app,
        accept_thread: Some(accept_thread),
        poller_thread: Some(poller_thread),
        workers,
    })
}
