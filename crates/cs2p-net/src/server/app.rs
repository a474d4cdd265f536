use super::conn::Serving;
use super::ServeConfig;
use crate::admission::{AdmissionController, AdmissionLevel};
use crate::http::{Request, Response};
use crate::ops::{FaultRow, OpsAdmission, OpsQuality, OpsSnapshot, QualityRow};
use crate::persist::{PersistedPending, PersistedSession, SessionPersist, WalBatch, WalRecord};
use crate::protocol::{
    parse_features_query, BatchEntryResult, BatchPredictRequest, BatchPredictResponse, DecodeError,
    Degradation, Health, LogStats, PredictRequest, PredictResponse, SessionLog,
};
use crate::quality::{ape, QualityMonitor};
use crate::recorder::{SessionRecorder, SERVER_MIN_EPOCHS};
use crate::store::{SessionStore, ShardGuard};
use cs2p_core::engine::{ClusterModel, TrainSummary};
use cs2p_core::session::DEFAULT_EPOCH_SECONDS;
use cs2p_core::{
    ClientModel, Dataset, FeatureVector, ModelRegistry, ModelVersion, PredictionEngine,
};
use cs2p_ml::hmm::FilterState;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cap on the requested prediction horizon.
const MAX_HORIZON: usize = 32;
/// Cap on per-session recorded observations (a marathon session cannot
/// grow its training record unboundedly; later epochs are dropped).
pub(super) const MAX_RECORDED_EPOCHS: usize = 1024;

/// A prediction's quality outcome, carried out of the shard lock: the
/// scored `(was_initial, ape)` pair for the previous prediction, or a
/// mark that its measurement left APE undefined. The monitor is only
/// touched after every shard lock is dropped (see
/// [`AppState::score_deferred`]).
#[derive(Debug, Clone, Copy, Default)]
struct DeferredScore {
    scored: Option<(bool, f64)>,
    unscorable: bool,
}

/// One entry's outcome inside a frame: the response plus its deferred
/// quality outcome, or the status and message the singleton endpoint
/// answers its failure with.
type EntryOutcome = Result<(PredictResponse, DeferredScore), (u16, &'static str)>;

/// How a store-backed ladder level answers one resolved session (see
/// [`AppState::predict_session`]).
type Strategy =
    fn(&mut PersistedSession, &ClusterModel, &PredictRequest) -> (PredictResponse, DeferredScore);

/// A served frame: per-entry results in frame order, how many of them
/// are predictions, and the shard-lock acquisitions the frame paid.
struct Frame {
    results: Vec<BatchEntryResult>,
    served: u64,
    shard_groups: usize,
}

/// Per-session server-side state. The session is *pinned*: it holds the
/// exact engine snapshot it registered on, so a model hot-swap never
/// moves its HMM filter state onto a different model — filter posteriors
/// are only meaningful against the model that produced them. The `Arc`
/// keeps the snapshot alive even after the registry GCs the version;
/// eviction drops the pin naturally.
#[derive(Debug, Clone)]
pub(super) struct SessionState {
    /// The engine snapshot of `durable.version`.
    engine: Arc<PredictionEngine>,
    /// Everything else, in exactly the shape the WAL and the snapshots
    /// persist it. `observed` is capped at [`MAX_RECORDED_EPOCHS`] and
    /// drained into the recorder on completion; `pending` awaits the
    /// measurement the player reports on its *next* request (the online
    /// accuracy loop — see [`crate::quality`]).
    durable: PersistedSession,
}

impl SessionState {
    /// Completes the session: its record drains into the training
    /// recorder, and a prediction still awaiting its measurement will
    /// never be scored — count it so coverage stays honest.
    fn complete(self, monitor: &QualityMonitor, recorder: &SessionRecorder) {
        if self.durable.pending.is_some() {
            monitor.note_unmatched();
        }
        recorder.record(FeatureVector(self.durable.features), self.durable.observed);
    }
}

/// Everything the server's threads share: the request → response state
/// behind the HTTP endpoints, the configuration, and the connection
/// layer's queue and counters.
pub(super) struct AppState {
    pub(super) registry: ModelRegistry,
    pub(super) sessions: SessionStore<SessionState>,
    pub(super) recorder: Arc<SessionRecorder>,
    pub(super) logs: Mutex<Vec<SessionLog>>,
    pub(super) predictions_served: AtomicU64,
    /// Online accuracy monitor (APE sketches, drift alarm). `Arc` so
    /// the store's eviction sink can count evicted-with-pending
    /// predictions as unmatched.
    pub(super) monitor: Arc<QualityMonitor>,
    pub(super) config: ServeConfig,
    /// The connection layer's queue and counters, read by `/ops`.
    pub(super) serving: Serving,
    /// Durability layer (WAL + snapshots + registry bundles); `None` for
    /// an in-memory server (the default).
    pub(super) persist: Option<Arc<SessionPersist>>,
    /// The overload degradation ladder (see [`crate::admission`]).
    /// `Arc` so the store's eviction sink can retire the evicted
    /// session's fallback measurement history.
    pub(super) admission: Arc<AdmissionController>,
}

impl AppState {
    /// Builds the app state around a registry and session store — fresh
    /// ones under [`super::serve_with`], recovered ones under
    /// [`super::ServerHandle::open_or_recover`].
    pub(super) fn new(
        mut registry: ModelRegistry,
        mut sessions: SessionStore<SessionState>,
        config: ServeConfig,
        persist: Option<Arc<SessionPersist>>,
    ) -> Self {
        let (_, engine) = registry.current();
        let recorder = Arc::new(SessionRecorder::new(
            engine.schema().clone(),
            // The wire protocol carries no timing, so the recorded epoch
            // length is the paper's nominal one.
            DEFAULT_EPOCH_SECONDS,
            config.refresh.recorder_capacity,
            SERVER_MIN_EPOCHS,
        ));
        let monitor = Arc::new(QualityMonitor::new(
            config.quality.clone(),
            Arc::clone(&config.clock),
        ));
        let admission = Arc::new(AdmissionController::new(
            config.admission.clone(),
            Arc::clone(&config.clock),
        ));
        if let Some(p) = &persist {
            registry.set_persistence(p.registry_sink());
        }
        let sink = Arc::clone(&recorder);
        let sink_monitor = Arc::clone(&monitor);
        let sink_persist = persist.clone();
        let sink_admission = Arc::clone(&admission);
        sessions.set_eviction_sink(Box::new(move |id, state: SessionState| {
            // The sink runs under the owning shard's lock, so this Remove
            // lands in the WAL ordered with the mutation that evicted it.
            if let Some(p) = &sink_persist {
                p.log(&WalRecord::Remove { id });
            }
            // The session is gone; its fallback measurement history is
            // dead weight in the side table.
            sink_admission.fallback_tracker().remove(id);
            // An evicted viewer is a completed session.
            state.complete(&sink_monitor, &sink);
        }));
        AppState {
            registry,
            sessions,
            recorder,
            logs: Mutex::new(Vec::new()),
            predictions_served: AtomicU64::new(0),
            monitor,
            serving: Serving::new(config.queue_depth),
            config,
            persist,
            admission,
        }
    }

    /// Runs the snapshot compaction if the cadence is due. Must be called
    /// outside every shard lock — the snapshot takes each (non-reentrant)
    /// shard lock itself.
    fn maybe_compact(&self) {
        if let Some(p) = &self.persist {
            if p.should_compact() {
                self.compact_now();
            }
        }
    }

    /// Rotates the WAL and writes a store snapshot now (recovery epilogue
    /// and ops hook). No-op on an in-memory server or when another
    /// compaction is in flight. Must run outside every shard lock.
    pub(super) fn compact_now(&self) {
        let Some(p) = &self.persist else {
            return;
        };
        let result = p.compact_visiting(|snapshot| {
            self.sessions
                .visit(|id, t, state| snapshot.push(id, t, &state.durable))
        });
        if let Err(e) = result {
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "serve.persist.compact_failed",
                vec![("error", e.to_string().into())],
            );
        }
    }

    /// Retrains from the recorder's completed-session window and swaps
    /// the result in. `None` (current version untouched) when the window
    /// holds fewer than [`super::RefreshConfig::min_sessions`] sessions or
    /// cannot support a model.
    pub(super) fn refresh_models(&self) -> Option<(ModelVersion, TrainSummary)> {
        if self.recorder.len() < self.config.refresh.min_sessions {
            return None;
        }
        let dataset = self.recorder.dataset()?;
        self.refresh_models_with(&dataset)
    }

    /// Retrains from an explicit dataset (operator push / tests) and
    /// swaps the result in. In-flight sessions keep their pinned version;
    /// sessions registering after the swap get the new one.
    pub(super) fn refresh_models_with(
        &self,
        dataset: &Dataset,
    ) -> Option<(ModelVersion, TrainSummary)> {
        let start = Instant::now();
        let out = self.registry.retrain(dataset);
        if let Some((version, summary)) = &out {
            let pinned = self
                .sessions
                .count_values(|s| s.durable.version != version.0);
            if cs2p_obs::enabled() {
                cs2p_obs::counter_add("serve.model.swaps", 1);
                cs2p_obs::gauge_set("serve.model.version", version.0 as f64);
                cs2p_obs::gauge_set("serve.model.pinned_sessions", pinned as f64);
                cs2p_obs::observe("serve.model.refresh_us", start.elapsed().as_micros() as f64);
                cs2p_obs::event(
                    cs2p_obs::Level::Info,
                    "serve.model.swapped",
                    vec![
                        ("version", version.0.into()),
                        ("pinned_sessions", pinned.into()),
                        ("n_models", summary.n_models.into()),
                        ("warm_started", summary.warm_started.into()),
                        ("em_iterations", summary.em_iterations.into()),
                    ],
                );
            }
        }
        out
    }

    fn model_of(engine: &PredictionEngine, model: Option<usize>) -> &ClusterModel {
        match model {
            Some(i) => &engine.models()[i],
            None => engine.global_model(),
        }
    }

    /// Fires an alarm-triggered model refresh, at most one at a time.
    /// Called outside every shard lock (training is slow). A refresh
    /// already in flight, or too few recorded sessions, makes this a
    /// no-op — the alarm event itself has already been emitted.
    fn refresh_on_drift(&self) {
        if !self.monitor.begin_refresh() {
            return;
        }
        let _ = self.refresh_models();
        self.monitor.end_refresh();
    }

    /// Assembles the `/ops` snapshot (also [`super::ServerHandle::metrics_snapshot`]).
    pub(super) fn ops_snapshot(&self) -> OpsSnapshot {
        let (windowed_samples, windowed_median_ape) = self.monitor.windowed();
        // Fault counters live on the global registry (they are bumped
        // on I/O paths with no AppState in scope); empty when disabled.
        let faults = if cs2p_obs::enabled() {
            cs2p_obs::Registry::global()
                .snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("serve.fault."))
                .map(|(name, value)| FaultRow { name, value })
                .collect()
        } else {
            Vec::new()
        };
        let (_, engine) = self.registry.current();
        let admission = self.admission.snapshot();
        let store_pressure = self.sessions.pressure();
        OpsSnapshot {
            status: "ok".into(),
            model_version: self.registry.current_version().0,
            n_models: engine.models().len() as u64,
            sessions_live: self.sessions.len() as u64,
            sessions_evicted: self.sessions.evicted(),
            predictions_served: self.predictions_served.load(Ordering::Relaxed),
            logs: self.logs.lock().len() as u64,
            recorded_sessions: self.recorder.len() as u64,
            accepted: self.serving.accepted.load(Ordering::Relaxed),
            rejected: self.serving.rejected.load(Ordering::Relaxed),
            live_connections: self.serving.live_conns.load(Ordering::Relaxed) as u64,
            queue_depth: self.serving.queue.len() as u64,
            request_latency_us: self.monitor.latency_snapshot(),
            quality: OpsQuality {
                matched: self.monitor.matched(),
                unmatched: self.monitor.unmatched(),
                drift_alarms: self.monitor.alarms(),
                windowed_samples: windowed_samples as u64,
                windowed_median_ape,
                ape: self
                    .monitor
                    .ape_snapshots()
                    .into_iter()
                    .map(|(key, snap)| QualityRow::from_snapshot(key, snap))
                    .collect(),
            },
            admission: OpsAdmission {
                level: admission.level.as_str().into(),
                pressure: self.admission.pressure(),
                transitions: admission.transitions,
                served_full: admission.served_full,
                served_degraded: admission.served_degraded,
                served_fallback: admission.served_fallback,
                shed: admission.shed,
                fallback_misses: admission.fallback_misses,
                store_occupancy: store_pressure.occupancy,
                store_eviction_rate: store_pressure.eviction_rate,
            },
            faults,
        }
    }

    pub(super) fn handle(&self, req: &Request) -> Response {
        let _span = cs2p_obs::span("net.server.request");
        let resp = self.route(req);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("net.server.requests", 1);
            cs2p_obs::counter_add("net.server.bytes_in", req.body.len() as u64);
            cs2p_obs::counter_add("net.server.bytes_out", resp.body.len() as u64);
            if resp.status >= 400 {
                cs2p_obs::counter_add("net.server.errors", 1);
            }
        }
        resp
    }

    fn route(&self, req: &Request) -> Response {
        match (
            req.method.as_str(),
            req.path.split('?').next().unwrap_or(""),
        ) {
            ("POST", "/predict") => self.handle_predict(req),
            ("POST", "/predict_batch") => self.handle_predict_batch(req),
            ("GET", "/model") => self.handle_model(req),
            ("POST", "/log") => self.handle_log(req),
            ("GET", "/logs") => json_response(&*self.logs.lock()),
            ("GET", "/stats") => json_response(&LogStats::from_logs(&self.logs.lock())),
            ("GET", "/ops") => json_response(&self.ops_snapshot()),
            ("GET", "/ops/metrics") => {
                let text = self.ops_snapshot().to_prometheus();
                let mut resp = Response::new(200, bytes::Bytes::from(text.into_bytes()));
                resp.headers
                    .push(("content-type".into(), "text/plain; version=0.0.4".into()));
                resp
            }
            ("GET", "/healthz") => {
                let (_, engine) = self.registry.current();
                json_response(&Health {
                    status: "ok".into(),
                    n_models: engine.models().len(),
                    n_sessions: self.sessions.len(),
                    predictions_served: self.predictions_served.load(Ordering::Relaxed),
                    n_logs: self.logs.lock().len(),
                })
            }
            ("POST" | "GET", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// Lock-free validation: entries failing here never reach the
    /// admission check or the session store.
    fn validate_predict(preq: &PredictRequest) -> Result<(), (u16, &'static str)> {
        if preq.horizon == 0 || preq.horizon > MAX_HORIZON {
            return Err((400, "horizon out of range"));
        }
        if let Some(w) = preq.measured_mbps {
            if !w.is_finite() || w < 0.0 {
                return Err((400, "measured throughput must be finite and nonnegative"));
            }
        }
        Ok(())
    }

    /// The per-entry core of the store-backed ladder levels, run under the
    /// owning shard's lock and shared verbatim by both endpoints, so a
    /// batch is bit-identical to its sequential expansion. Full and
    /// Degraded resolve (or register) the session and stage its WAL
    /// record the same way; only the `answer` strategy in between
    /// differs. The quality outcome is returned, not applied — APE
    /// scoring happens after the shard lock drops. A registration moves
    /// the entry's `features` into the session; nothing reads them after.
    fn predict_session(
        &self,
        shard: &mut ShardGuard<'_, SessionState>,
        preq: &mut PredictRequest,
        wal: &mut WalBatch,
        answer: Strategy,
    ) -> EntryOutcome {
        // Never seen (or evicted): (re-)initialize from the
        // request's features, or tell the client to re-register. New
        // sessions pin the registry's current snapshot; the version
        // is fixed for the session's whole lifetime.
        let tick = shard.now();
        let (state, registered) = match shard.get_mut(preq.session_id) {
            Some(state) => (state, false),
            None => {
                let Some(features) = preq.features.take() else {
                    return Err((404, "unknown session: send features to (re)register"));
                };
                let (version, engine) = self.registry.current();
                if features.len() != engine.schema().len() {
                    return Err((400, "feature width mismatch"));
                }
                let fv = FeatureVector(features);
                let lookup = engine.lookup_detailed(&fv);
                let durable = PersistedSession {
                    version: version.0,
                    model: lookup.model_index,
                    cluster_hit: lookup.provenance.is_cluster_hit(),
                    filter: FilterState::new(&lookup.model.hmm),
                    features: fv.0,
                    observed: Vec::new(),
                    pending: None,
                };
                let state = shard.insert_mut(preq.session_id, SessionState { engine, durable });
                (state, true)
            }
        };
        // Resolve against the session's pinned snapshot, never the
        // registry's current one: the filter state is only meaningful
        // against the model that produced it.
        let engine = Arc::clone(&state.engine);
        let model = Self::model_of(&engine, state.durable.model);
        let out = answer(&mut state.durable, model, preq);
        // Stage the mutation while the shard lock is still held, so the
        // WAL order agrees with this shard's mutation order; the caller
        // lands the whole staged shard group in a single WAL append
        // before the shard lock drops. Registrations carry the full
        // post-request state (one record covers register + first
        // measurement); updates carry absolute values so replaying a
        // record a fuzzy snapshot already includes is a no-op. A
        // degraded answer left the session untouched: nothing to stage.
        if let Some(p) = &self.persist {
            if registered {
                p.stage(
                    &WalRecord::Register {
                        id: preq.session_id,
                        tick,
                        session: state.durable.clone(),
                    },
                    wal,
                );
            } else if out.0.degradation.is_none() {
                p.stage(
                    &WalRecord::Update {
                        id: preq.session_id,
                        tick,
                        measured: preq.measured_mbps,
                        observed_len: state.durable.observed.len() as u64,
                        filter: state.durable.filter.clone(),
                        pending: state.durable.pending,
                    },
                    wal,
                );
            }
        }
        Ok(out)
    }

    /// The Full-level strategy — Algorithm 1's online step, on the
    /// session's filter state in place: observe the carried measurement,
    /// predict the horizon, remember the 1-step prediction for scoring
    /// against the next measurement.
    fn filter_step(
        state: &mut PersistedSession,
        model: &ClusterModel,
        preq: &PredictRequest,
    ) -> (PredictResponse, DeferredScore) {
        // The measurement this request carries is the ground truth for
        // the 1-step prediction served last time: score it (outside the
        // shard lock). An actual of zero leaves APE undefined.
        let mut deferred = DeferredScore::default();
        if let Some(w) = preq.measured_mbps {
            if let Some(p) = state.pending.take() {
                match ape(p.value, w) {
                    Some(e) => deferred.scored = Some((p.initial, e)),
                    None => deferred.unscorable = true,
                }
            }
            state.filter.observe(&model.hmm, w);
            if state.observed.len() < MAX_RECORDED_EPOCHS {
                state.observed.push(w);
            }
        }
        // Before any measurement the first step is Algorithm 1 line 5,
        // the cluster median, not the filter's readout of `pi_0`.
        let initial = state.filter.epoch == 0;
        let mut predictions_mbps = vec![0.0; preq.horizon];
        state
            .filter
            .predict_horizon(&model.hmm, &mut predictions_mbps);
        if initial {
            predictions_mbps[0] = model.initial_median;
        }
        state.pending = Some(PersistedPending {
            value: predictions_mbps[0],
            initial,
        });
        let resp = PredictResponse {
            predictions_mbps,
            initial,
            cluster_sessions: model.n_sessions,
            cluster_hit: state.cluster_hit,
            model_version: state.version,
            degradation: None,
        };
        (resp, deferred)
    }

    /// The Degraded-level strategy: the pinned model's cluster-prior
    /// median for every horizon step — no per-session filter read or
    /// update, no pending prediction, nothing to score. Registration
    /// still works (the cluster lookup is cheap and keeps re-registering
    /// clients alive).
    fn cluster_prior(
        state: &mut PersistedSession,
        model: &ClusterModel,
        preq: &PredictRequest,
    ) -> (PredictResponse, DeferredScore) {
        let resp = PredictResponse {
            predictions_mbps: vec![model.initial_median; preq.horizon],
            initial: state.filter.epoch == 0,
            cluster_sessions: model.n_sessions,
            cluster_hit: state.cluster_hit,
            model_version: state.version,
            degradation: Some(Degradation::Degraded),
        };
        (resp, DeferredScore::default())
    }

    /// The store pass of a Full or Degraded frame. Still-unresolved
    /// entries are grouped by session-store shard and each shard lock is
    /// taken **once**; within a group entries run in frame order, so
    /// same-session entries (which always share a shard) see exactly the
    /// sequential semantics. Every entry gets its own outcome — an
    /// evicted session answers a 404 while the rest of the frame
    /// proceeds. Returns the shard-lock acquisitions paid.
    fn predict_locked(
        &self,
        entries: &mut [PredictRequest],
        outcomes: &mut [Option<EntryOutcome>],
        answer: Strategy,
    ) -> usize {
        // Group entry indices by owning shard, in first-appearance order
        // (deterministic in the frame alone). The dense `group_of` map
        // keeps grouping O(n) without hashing per entry twice.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut group_of: Vec<Option<usize>> = vec![None; self.sessions.n_shards()];
        for (i, entry) in entries.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            let shard_idx = self.sessions.shard_of(entry.session_id);
            match group_of[shard_idx] {
                Some(g) => groups[g].1.push(i),
                None => {
                    group_of[shard_idx] = Some(groups.len());
                    groups.push((shard_idx, vec![i]));
                }
            }
        }
        // One staging buffer reused across shard groups: each group's
        // records land in a single WAL append (one mutex acquisition per
        // group, not per entry), flushed before that group's shard lock
        // drops so WAL order matches the shard's mutation order.
        let mut wal = WalBatch::default();
        for (shard_idx, indices) in &groups {
            let mut shard = self.sessions.lock_shard(*shard_idx);
            for &i in indices {
                outcomes[i] =
                    Some(self.predict_session(&mut shard, &mut entries[i], &mut wal, answer));
            }
            if let Some(p) = &self.persist {
                p.log_staged(&mut wal);
            }
        }
        if cs2p_obs::enabled() {
            cs2p_obs::gauge_set("serve.sessions", self.sessions.len() as f64);
        }
        self.maybe_compact();
        groups.len()
    }

    /// The Fallback-level answer: purely the session's own recent
    /// measurements via the admission side table — the paper's
    /// harmonic-mean baseline — with no model, registry, or session-store
    /// access at all. A session with no history yet cannot be answered
    /// and is shed.
    fn predict_fallback(&self, preq: &PredictRequest) -> EntryOutcome {
        let Some(v) = self.admission.fallback_tracker().predict(preq.session_id) else {
            self.admission.note_fallback_miss();
            return Err((503, "no measurement history at fallback level"));
        };
        let resp = PredictResponse {
            predictions_mbps: vec![v; preq.horizon],
            initial: false,
            cluster_sessions: 0,
            cluster_hit: false,
            model_version: 0,
            degradation: Some(Degradation::Fallback),
        };
        Ok((resp, DeferredScore::default()))
    }

    /// Books one entry's deferred quality outcome: APE into the monitor's
    /// sketches (possibly tripping the drift alarm and its refresh), or
    /// an unmatched mark. Must run outside every shard lock.
    fn score_deferred(&self, resp: &PredictResponse, deferred: DeferredScore) {
        let mut alarm = false;
        if let Some((was_initial, e)) = deferred.scored {
            alarm = self
                .monitor
                .record_ape(resp.model_version, resp.cluster_hit, was_initial, e);
        } else if deferred.unscorable {
            self.monitor.note_unmatched();
        }
        if alarm && self.monitor.config().trigger_refresh {
            // Training is slow — it runs here, after the shard lock is
            // gone, on the worker that happened to trip the alarm.
            self.refresh_on_drift();
        }
    }

    /// The one prediction pipeline: `POST /predict_batch` runs its frame
    /// through it, `POST /predict` a frame of one. Validate each entry →
    /// read the ladder level → store pass (one lock per shard group, WAL
    /// group flushed before the lock drops) → frame-order side-table
    /// feed, scoring and accounting. `Err` is the whole-frame shed 503.
    /// The frame is the caller's decoded request, lent mutably so a
    /// registration can move its features instead of cloning them.
    fn predict_frame(&self, entries: &mut [PredictRequest]) -> Result<Frame, Response> {
        let mut outcomes: Vec<Option<EntryOutcome>> = entries
            .iter()
            .map(|preq| Self::validate_predict(preq).err().map(Err))
            .collect();

        // The ladder level is read once per frame, so one frame never
        // mixes two levels, and this match is the only place it picks
        // behaviour. Only the prediction endpoints are gated — /ops,
        // /healthz, /model, and /log always answer.
        let level = self.admission.level();
        let shard_groups = match level {
            AdmissionLevel::Full => self.predict_locked(entries, &mut outcomes, Self::filter_step),
            AdmissionLevel::Degraded => {
                self.predict_locked(entries, &mut outcomes, Self::cluster_prior)
            }
            // No store pass: entries still unresolved are answered from
            // the side table below, in frame order.
            AdmissionLevel::Fallback => 0,
            // A frame is shed whole, counted once — unless nothing in it
            // is valid: then there is nothing to shed and it answers its
            // 400s, as its sequential expansion would.
            AdmissionLevel::Shed if outcomes.iter().all(Option::is_some) => 0,
            AdmissionLevel::Shed => {
                self.admission.note_shed();
                return Err(Response::service_unavailable());
            }
        };

        // Frame order, outside every shard lock — the same monitor and
        // admission calls in the same order as the sequential expansion.
        let mut served = 0u64;
        let results: Vec<BatchEntryResult> = entries
            .iter()
            .zip(outcomes)
            .map(|(preq, outcome)| {
                // Every measurement an answered entry carries feeds the
                // fallback side table: at Fallback before the answer reads
                // it (the baseline's observe-then-predict order); under
                // an enabled ladder after a store-backed answer, so a
                // later brownout finds mid-stream sessions warm. Off with
                // the ladder (no side-table cost on the default path).
                let feeds = match &outcome {
                    None => true,
                    Some(answered) => answered.is_ok() && self.admission.enabled(),
                };
                if let (true, Some(w)) = (feeds, preq.measured_mbps) {
                    self.admission.fallback_tracker().record(preq.session_id, w);
                }
                match outcome.unwrap_or_else(|| self.predict_fallback(preq)) {
                    Ok((resp, deferred)) => {
                        self.score_deferred(&resp, deferred);
                        self.admission.note_served(level);
                        served += 1;
                        BatchEntryResult::ok(resp)
                    }
                    Err((status, msg)) => BatchEntryResult::failed(status, msg),
                }
            })
            .collect();
        if served > 0 {
            self.predictions_served.fetch_add(served, Ordering::Relaxed);
            cs2p_obs::counter_add("predict.server.served", served);
        }
        Ok(Frame {
            results,
            shard_groups,
            served,
        })
    }

    /// `POST /predict`: a frame of one, its single entry mapped back to
    /// an HTTP status.
    fn handle_predict(&self, req: &Request) -> Response {
        let Ok(mut preq) = PredictRequest::from_json_bytes(&req.body) else {
            return Response::error(400, "malformed PredictRequest");
        };
        let mut frame = match self.predict_frame(std::slice::from_mut(&mut preq)) {
            Ok(frame) => frame,
            Err(shed) => return shed,
        };
        let Some(entry) = frame.results.pop() else {
            return Response::error(500, "frame of one answered no entry");
        };
        match (entry.status, entry.response) {
            (_, Some(resp)) => Response::json(resp.to_json_bytes()),
            (503, None) => Response::service_unavailable(),
            (status, None) => Response::error(status, entry.error.as_deref().unwrap_or_default()),
        }
    }

    /// `POST /predict_batch`: many prediction entries in one frame, each
    /// answered with its own status.
    fn handle_predict_batch(&self, req: &Request) -> Response {
        let mut entries = match BatchPredictRequest::from_json_bytes(&req.body) {
            Ok(breq) => breq.entries,
            Err(DecodeError::TooManyEntries) => return Response::error(400, "batch too large"),
            Err(DecodeError::Malformed) => {
                return Response::error(400, "malformed BatchPredictRequest")
            }
        };
        let n = entries.len();
        if n == 0 {
            return Response::error(400, "empty batch");
        }
        let frame = match self.predict_frame(&mut entries) {
            Ok(frame) => frame,
            Err(shed) => return shed,
        };
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("serve.batch.requests", 1);
            cs2p_obs::counter_add("serve.batch.entries", n as u64);
            if frame.shard_groups > 0 {
                cs2p_obs::counter_add("serve.batch.shard_groups", frame.shard_groups as u64);
            }
            if n as u64 > frame.served {
                cs2p_obs::counter_add("serve.batch.partial_failures", n as u64 - frame.served);
            }
        }
        // Direct writer: skips the serde Value tree, which at 64 entries
        // per frame costs thousands of small allocations.
        let bresp = BatchPredictResponse {
            results: frame.results,
        };
        Response::json(bresp.to_json_bytes())
    }

    fn handle_model(&self, req: &Request) -> Response {
        let Some(features) = parse_features_query(&req.path) else {
            return Response::error(400, "missing features query");
        };
        let (_, engine) = self.registry.current();
        if features.len() != engine.schema().len() {
            return Response::error(400, "feature width mismatch");
        }
        let cm = ClientModel::for_client(&engine, &FeatureVector(features));
        match cm.to_json() {
            Ok(body) => Response::json(body.into_bytes()),
            Err(_) => Response::error(500, "serialization failed"),
        }
    }

    fn handle_log(&self, req: &Request) -> Response {
        let Ok(log) = serde_json::from_slice::<SessionLog>(&req.body) else {
            return Response::error(400, "malformed SessionLog");
        };
        // A log upload marks the session complete: retire it from the
        // store and drain its observations into the training recorder.
        let mut alarm = false;
        let removed = {
            let mut guard = self.sessions.lock(log.session_id);
            let removed = guard.remove(log.session_id);
            // Explicit removes bypass the eviction sink, so the retirement
            // is WAL'd here, still under the owning shard's lock.
            if removed.is_some() {
                if let Some(p) = &self.persist {
                    p.log(&WalRecord::Remove { id: log.session_id });
                }
            }
            removed
        };
        // A completed session's fallback history is dead weight.
        self.admission.fallback_tracker().remove(log.session_id);
        if let Some(state) = removed {
            state.complete(&self.monitor, &self.recorder);
        } else {
            // No live session (completed offline, or evicted long ago):
            // the log's own (predicted, actual) pairs are the only
            // accuracy signal. Provenance and model version are unknown
            // here, so they land in the dedicated `log` sketch.
            for &(predicted, actual) in &log.throughput_pairs {
                let Some(p) = predicted else { continue };
                match ape(p, actual) {
                    Some(e) => alarm |= self.monitor.record_log_ape(e),
                    None => self.monitor.note_unmatched(),
                }
            }
        }
        self.logs.lock().push(log);
        if alarm && self.monitor.config().trigger_refresh {
            self.refresh_on_drift();
        }
        self.maybe_compact();
        Response::new(204, bytes::Bytes::new())
    }
}

/// A 200 carrying `value` as JSON (500 if it cannot be serialized).
fn json_response<T: serde::Serialize>(value: &T) -> Response {
    match serde_json::to_vec(value) {
        Ok(body) => Response::json(body),
        Err(_) => Response::error(500, "serialization failed"),
    }
}

/// Turns a recovered [`PersistedSession`] back into live session state
/// pinned to `engine`, the recovered registry's engine for its version.
/// `None` — the session is dropped to the re-register path — when the
/// persisted state is inconsistent with that engine (model index out of
/// range, posterior or feature width mismatch); recovery must never
/// panic, and the filter step would on a bad width.
pub(super) fn rehydrate_session(
    engine: Arc<PredictionEngine>,
    ps: PersistedSession,
) -> Option<SessionState> {
    if ps.model.is_some_and(|i| i >= engine.models().len()) {
        return None;
    }
    if ps.features.len() != engine.schema().len() {
        return None;
    }
    let model = AppState::model_of(&engine, ps.model);
    if ps.filter.posterior.len() != model.hmm.n_states() {
        return None;
    }
    Some(SessionState {
        engine,
        durable: ps,
    })
}
