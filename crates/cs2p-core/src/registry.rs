//! Versioned model registry: the online half of the paper's daily model
//! update (§5, "the prediction models can be updated periodically (e.g.,
//! daily)").
//!
//! A [`ModelRegistry`] holds immutable [`PredictionEngine`] snapshots
//! behind [`Arc`]s, keyed by a monotonically increasing [`ModelVersion`].
//! Readers take a snapshot with [`current`](ModelRegistry::current) and
//! keep using it for as long as they like — a swap never mutates a
//! published engine, so an in-flight session's HMM filter state stays
//! consistent with the exact model it started on.
//! [`retrain`](ModelRegistry::retrain) trains the next version *outside*
//! the lock, warm-starting every cluster from the current version
//! ([`PredictionEngine::train_with_prior`]), then publishes it with a
//! brief write-lock swap.
//!
//! Retention: the last `retain` versions stay fetchable by
//! [`get`](ModelRegistry::get) so pinned readers (sessions that started
//! on an older version) can re-resolve their model; explicitly
//! [`pin`](ModelRegistry::pin)ned versions survive garbage collection
//! beyond that window until unpinned. The current version is never
//! collected.

use crate::dataset::Dataset;
use crate::engine::{EngineConfig, PredictionEngine, TrainSummary};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Monotonically increasing identifier of one published engine snapshot.
///
/// Versions start at 1 (the engine the registry was created with) and
/// increase by 1 per publish; they are never reused, so observing a
/// response's version is enough to know *which* model produced it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ModelVersion(pub u64);

impl std::fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

struct Inner {
    /// Version the next publish will get.
    next: u64,
    current: ModelVersion,
    retained: BTreeMap<ModelVersion, Arc<PredictionEngine>>,
    /// Pin refcounts; a pinned version survives GC until fully unpinned.
    pins: BTreeMap<ModelVersion, usize>,
}

/// Durability seam for the registry: a sink notified of every lifecycle
/// transition that must survive a crash. Implementations write each
/// published version's bundle (and the current-version pointer) to disk
/// and unlink versions GC has dropped — see `cs2p-net`'s persist module.
///
/// Callbacks run while the registry's write lock is held, so the swap a
/// reader observes is never ahead of what is durable. Publishes are rare
/// (a daily-scale retrain), so the held-lock I/O is deliberate: readers
/// block for one bundle write at swap time, never on the request path.
pub trait RegistryPersistence: Send + Sync {
    /// `version` was just published (and made current): persist its
    /// engine and the current-version pointer.
    fn publish_version(&self, version: ModelVersion, engine: &PredictionEngine);
    /// `version` fell out of retention: its persisted bundle can go.
    fn collect_version(&self, version: ModelVersion);
}

/// Versioned, atomically swappable store of [`PredictionEngine`]
/// snapshots. See the module docs for semantics.
pub struct ModelRegistry {
    config: EngineConfig,
    retain: usize,
    inner: RwLock<Inner>,
    persistence: Option<Arc<dyn RegistryPersistence>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ModelRegistry")
            .field("current", &inner.current)
            .field("retained", &inner.retained.keys().collect::<Vec<_>>())
            .field("retain", &self.retain)
            .finish()
    }
}

impl ModelRegistry {
    /// Creates a registry whose version 1 is `engine`. `config` is the
    /// training configuration every [`retrain`](Self::retrain) uses;
    /// `retain` is the number of most-recent versions kept fetchable
    /// (clamped to at least 1 — the current version is always kept).
    pub fn new(engine: PredictionEngine, config: EngineConfig, retain: usize) -> Self {
        let v1 = ModelVersion(1);
        let mut retained = BTreeMap::new();
        retained.insert(v1, Arc::new(engine));
        ModelRegistry {
            config,
            retain: retain.max(1),
            inner: RwLock::new(Inner {
                next: 2,
                current: v1,
                retained,
                pins: BTreeMap::new(),
            }),
            persistence: None,
        }
    }

    /// Rebuilds a registry from recovered parts: the surviving
    /// `(version, engine)` pairs and the current-version pointer. `None`
    /// when `engines` is empty or does not contain `current`. The next
    /// publish continues after the greatest recovered version, so version
    /// numbers are never reused across a restart.
    pub fn restore(
        engines: Vec<(ModelVersion, PredictionEngine)>,
        current: ModelVersion,
        config: EngineConfig,
        retain: usize,
    ) -> Option<Self> {
        let retained: BTreeMap<ModelVersion, Arc<PredictionEngine>> =
            engines.into_iter().map(|(v, e)| (v, Arc::new(e))).collect();
        if !retained.contains_key(&current) {
            return None;
        }
        let next = retained.keys().next_back()?.0 + 1;
        Some(ModelRegistry {
            config,
            retain: retain.max(1),
            inner: RwLock::new(Inner {
                next,
                current,
                retained,
                pins: BTreeMap::new(),
            }),
            persistence: None,
        })
    }

    /// Installs the durability sink (see [`RegistryPersistence`]). Call
    /// before sharing the registry across threads; versions already in
    /// the registry are not re-notified.
    pub fn set_persistence(&mut self, sink: Arc<dyn RegistryPersistence>) {
        self.persistence = Some(sink);
    }

    /// The live snapshot: `(version, engine)`. The `Arc` keeps the engine
    /// alive for the caller even across later swaps and GC.
    pub fn current(&self) -> (ModelVersion, Arc<PredictionEngine>) {
        let inner = self.inner.read();
        let engine = inner.retained[&inner.current].clone();
        (inner.current, engine)
    }

    /// The live version number.
    pub fn current_version(&self) -> ModelVersion {
        self.inner.read().current
    }

    /// Fetches a retained version; `None` once GC has dropped it.
    pub fn get(&self, version: ModelVersion) -> Option<Arc<PredictionEngine>> {
        self.inner.read().retained.get(&version).cloned()
    }

    /// All retained versions, ascending.
    pub fn versions(&self) -> Vec<ModelVersion> {
        self.inner.read().retained.keys().copied().collect()
    }

    /// Number of published versions so far (equals the current version's
    /// number, since versions are dense from 1).
    pub fn published(&self) -> u64 {
        self.inner.read().next - 1
    }

    /// Pins `version` against GC and returns its engine; `None` (and no
    /// pin) when the version is no longer retained. Pins nest: each
    /// successful `pin` needs one [`unpin`](Self::unpin).
    pub fn pin(&self, version: ModelVersion) -> Option<Arc<PredictionEngine>> {
        let mut inner = self.inner.write();
        let engine = inner.retained.get(&version).cloned()?;
        *inner.pins.entry(version).or_insert(0) += 1;
        Some(engine)
    }

    /// Releases one pin on `version`. The version stays retained until
    /// the next GC pass. Unpinning an unpinned version is a no-op.
    pub fn unpin(&self, version: ModelVersion) {
        let mut inner = self.inner.write();
        if let Some(count) = inner.pins.get_mut(&version) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&version);
            }
        }
    }

    /// Publishes `engine` as the next version, making it current, then
    /// collects versions that fell out of the retention window. Returns
    /// the new version.
    pub fn publish(&self, engine: PredictionEngine) -> ModelVersion {
        let mut inner = self.inner.write();
        let version = ModelVersion(inner.next);
        inner.next += 1;
        let engine = Arc::new(engine);
        inner.retained.insert(version, Arc::clone(&engine));
        inner.current = version;
        let dropped = Self::gc_locked(&mut inner, self.retain);
        if let Some(sink) = &self.persistence {
            sink.publish_version(version, &engine);
            for v in dropped {
                sink.collect_version(v);
            }
        }
        version
    }

    /// Retrains on `dataset` (warm-starting every cluster from the current
    /// version) and publishes the result. Returns `None` — leaving the
    /// current version untouched — when the dataset cannot support a
    /// model at all.
    ///
    /// Training runs outside the registry lock, so readers keep serving
    /// the old version for the whole EM run; the swap itself is a brief
    /// write-lock pointer update.
    pub fn retrain(&self, dataset: &Dataset) -> Option<(ModelVersion, TrainSummary)> {
        let (_, prior) = self.current();
        let (engine, summary) =
            PredictionEngine::train_with_prior(dataset, &self.config, Some(&prior))?;
        Some((self.publish(engine), summary))
    }

    /// Drops versions outside the retention window. Kept: the greatest
    /// `retain` versions, the current version, and every pinned version.
    pub fn gc(&self) {
        let dropped = Self::gc_locked(&mut self.inner.write(), self.retain);
        if let Some(sink) = &self.persistence {
            for v in dropped {
                sink.collect_version(v);
            }
        }
    }

    /// Collects retained-out versions and returns what was dropped, so
    /// callers holding the lock can notify the persistence sink.
    fn gc_locked(inner: &mut Inner, retain: usize) -> Vec<ModelVersion> {
        let keep_from = {
            let mut versions: Vec<ModelVersion> = inner.retained.keys().copied().collect();
            versions.sort_unstable_by(|a, b| b.cmp(a));
            versions.get(retain - 1).copied().unwrap_or(ModelVersion(0))
        };
        let current = inner.current;
        let pins = std::mem::take(&mut inner.pins);
        let dropped: Vec<ModelVersion> = inner
            .retained
            .keys()
            .copied()
            .filter(|v| *v < keep_from && *v != current && !pins.contains_key(v))
            .collect();
        for v in &dropped {
            inner.retained.remove(v);
        }
        inner.pins = pins;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::features::{FeatureSchema, FeatureVector};
    use crate::session::Session;
    use crate::timewin::TimeWindow;
    use cs2p_ml::hmm::TrainConfig;

    fn tiny_dataset(seed: u64) -> Dataset {
        let schema = FeatureSchema::new(vec!["isp"]);
        let sessions: Vec<Session> = (0..40)
            .map(|k| {
                let isp = (k % 2) as u32;
                let tp = if isp == 0 { 1.0 } else { 5.0 } + (seed as f64) * 0.01;
                Session::new(k, FeatureVector(vec![isp]), k * 50, 6, vec![tp; 8])
            })
            .collect();
        Dataset::new(schema, sessions)
    }

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            cluster: ClusterConfig {
                min_cluster_size: 5,
                candidate_windows: vec![TimeWindow::All],
                max_est_sessions: 10,
                ..Default::default()
            },
            hmm: TrainConfig {
                n_states: 2,
                max_iters: 10,
                ..Default::default()
            },
            max_train_sequences: 100,
            min_sequence_epochs: 2,
            n_threads: 1,
        }
    }

    fn tiny_registry(retain: usize) -> ModelRegistry {
        let config = tiny_config();
        let (engine, _) = PredictionEngine::train(&tiny_dataset(0), &config).unwrap();
        ModelRegistry::new(engine, config, retain)
    }

    #[test]
    fn versions_are_monotonic_and_dense() {
        let reg = tiny_registry(8);
        assert_eq!(reg.current_version(), ModelVersion(1));
        for i in 2..6u64 {
            let (v, _) = reg.retrain(&tiny_dataset(i)).expect("retrain succeeds");
            assert_eq!(v, ModelVersion(i));
            assert_eq!(reg.current_version(), v);
        }
        assert_eq!(reg.published(), 5);
    }

    #[test]
    fn retention_keeps_last_k_versions() {
        let reg = tiny_registry(2);
        for i in 2..6u64 {
            reg.retrain(&tiny_dataset(i)).unwrap();
        }
        assert_eq!(reg.versions(), vec![ModelVersion(4), ModelVersion(5)]);
        assert!(reg.get(ModelVersion(3)).is_none());
        assert!(reg.get(ModelVersion(5)).is_some());
    }

    #[test]
    fn pin_blocks_gc_until_unpin() {
        let reg = tiny_registry(1);
        let pinned = reg.pin(ModelVersion(1)).expect("v1 is retained");
        for i in 2..5u64 {
            reg.retrain(&tiny_dataset(i)).unwrap();
        }
        // v1 survived three swaps past its window because of the pin.
        assert!(reg.get(ModelVersion(1)).is_some());
        assert!(reg.get(ModelVersion(2)).is_none());
        reg.unpin(ModelVersion(1));
        reg.gc();
        assert!(reg.get(ModelVersion(1)).is_none());
        // The caller's Arc still works after GC — snapshots are immutable.
        assert!(!pinned.models().is_empty() || pinned.global_model().n_sessions > 0);
    }

    #[test]
    fn pin_of_collected_version_fails_cleanly() {
        let reg = tiny_registry(1);
        reg.retrain(&tiny_dataset(2)).unwrap();
        assert!(reg.pin(ModelVersion(1)).is_none());
        reg.unpin(ModelVersion(1)); // no-op, must not panic or underflow
        reg.gc();
        assert_eq!(reg.versions(), vec![ModelVersion(2)]);
    }

    #[test]
    fn retrain_warm_starts_from_current() {
        let reg = tiny_registry(4);
        let (_, summary) = reg.retrain(&tiny_dataset(1)).unwrap();
        assert!(
            summary.warm_started > 0,
            "retrain should warm-start at least the global model"
        );
    }

    #[test]
    fn snapshots_survive_swaps_unchanged() {
        let reg = tiny_registry(4);
        let (v1, before) = reg.current();
        let lookup_before = before.lookup(&FeatureVector(vec![0])).initial_median;
        reg.retrain(&tiny_dataset(9)).unwrap();
        let (v2, after) = reg.current();
        assert!(v2 > v1);
        // The old snapshot is bit-identical to what we captured.
        assert_eq!(
            before.lookup(&FeatureVector(vec![0])).initial_median,
            lookup_before
        );
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_engine() {
        let reg = std::sync::Arc::new(tiny_registry(2));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (v, engine) = reg.current();
                        // A torn engine would fail lookup's internal
                        // consistency (combo index pointing at models).
                        let m = engine.lookup(&FeatureVector(vec![1]));
                        assert!(m.initial_median > 0.0, "bad model at {v}");
                    }
                });
            }
            for i in 2..8u64 {
                reg.retrain(&tiny_dataset(i)).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(reg.current_version(), ModelVersion(7));
    }
}
