//! The Prediction Engine: offline training and model registry (§4, §5).
//!
//! Offline (Figure 1, stage 1): collect sessions, find each session's best
//! cluster spec (feature subset + time window), and for every resulting
//! cluster train (a) the initial-throughput predictor — the median initial
//! throughput of the cluster's sessions (Eq. 6) — and (b) a Gaussian-
//! emission HMM over the cluster's throughput sequences (§5.2).
//!
//! Online (stages 2–3): a new session is mapped to the trained cluster
//! matching the most features; its model drives Algorithm 1. When no
//! cluster matches, the engine regresses to the global model trained on
//! all sessions (which doubles as the paper's GHM baseline).

use crate::cluster::{ClusterConfig, ClusterFinder, ClusterSpec};
use crate::dataset::Dataset;
use crate::features::{FeatureSchema, FeatureSet, FeatureVector};
use crate::predictor::Cs2pPredictor;
use cs2p_ml::hmm::{train_seeded, Hmm, TrainConfig};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration of offline training.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Clustering-search configuration (§5.1).
    pub cluster: ClusterConfig,
    /// HMM training configuration (paper default: 6 states, EM).
    pub hmm: TrainConfig,
    /// Cap on the number of sequences fed to each cluster's EM run
    /// (most-recent kept); keeps training time bounded on large clusters.
    pub max_train_sequences: usize,
    /// Sequences shorter than this are skipped by EM (no transition info).
    pub min_sequence_epochs: usize,
    /// Worker threads for the offline stage (the paper, §6: "the model
    /// learning for different clusters are independent, this process can
    /// be easily parallelized"). `0` = one thread per available core;
    /// `1` = fully sequential. Results are identical regardless.
    pub n_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cluster: ClusterConfig::default(),
            hmm: TrainConfig::default(),
            max_train_sequences: 200,
            min_sequence_epochs: 2,
            n_threads: 0,
        }
    }
}

impl EngineConfig {
    /// A configuration tuned for datasets of thousands (not millions) of
    /// sessions: wide time windows only (narrow ones starve at this
    /// scale), larger validation pools for the spec search, and a modest
    /// cluster-size threshold.
    pub fn small_data() -> Self {
        EngineConfig {
            cluster: ClusterConfig {
                min_cluster_size: 10,
                candidate_windows: vec![
                    crate::timewin::TimeWindow::All,
                    crate::timewin::TimeWindow::History { minutes: 720 },
                    crate::timewin::TimeWindow::SameHourOfDay { days: 1 },
                ],
                max_est_sessions: 30,
                min_est_sessions: 30,
                ..ClusterConfig::default()
            },
            hmm: TrainConfig {
                n_states: 5,
                max_iters: 20,
                ..TrainConfig::default()
            },
            max_train_sequences: 120,
            min_sequence_epochs: 2,
            n_threads: 0,
        }
    }
}

/// A trained per-cluster model: what the Prediction Engine ships to a
/// player or video server (<5 KB serialized; see `model_io`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterModel {
    /// The cluster definition this model was trained for.
    pub spec: ClusterSpec,
    /// Feature values (projected onto `spec.set`) identifying the cluster.
    pub key: Vec<u32>,
    /// Median initial throughput of the cluster's sessions (Eq. 6).
    pub initial_median: f64,
    /// The midstream HMM (§5.2).
    pub hmm: Hmm,
    /// How many sessions the cluster held at training time.
    pub n_sessions: usize,
}

/// Outcome of training, for reports and tests.
#[derive(Debug, Clone)]
pub struct TrainSummary {
    /// Number of cluster models trained (excluding the global model).
    pub n_models: usize,
    /// Number of distinct full-feature combinations examined.
    pub n_combos: usize,
    /// Fraction of combos that regressed to the global model.
    pub global_fallback_fraction: f64,
    /// Cluster models (including the global model) whose EM run resumed
    /// from a prior engine's parameters (see
    /// [`train_with_prior`](PredictionEngine::train_with_prior)).
    pub warm_started: usize,
    /// Total EM iterations across all cluster models (including the
    /// global model) — the figure warm-start retraining drives down.
    pub em_iterations: usize,
}

/// The trained Prediction Engine.
///
/// Not directly serializable: persist it through `model_io`, which ships
/// `(schema, models, global)` and rebuilds via
/// [`PredictionEngine::from_parts`] — mirroring the paper's deployment,
/// where clients download individual cluster models rather than the
/// engine's internals.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionEngine {
    schema: FeatureSchema,
    models: Vec<ClusterModel>,
    /// Per training combo: features and the chosen model (`None` = global).
    combos: Vec<(FeatureVector, Option<usize>)>,
    /// `(subset, projected values) -> combo index`, for most-similar
    /// lookup, keyed by a 64-bit fingerprint (see [`ComboIndex`]).
    combo_index: ComboIndex,
    /// All non-empty feature subsets, most specific first.
    subset_order: Vec<FeatureSet>,
    global: ClusterModel,
}

impl PredictionEngine {
    /// Trains the engine on a dataset (Figure 1, stage 1).
    ///
    /// Returns `None` when the dataset cannot even support a global model
    /// (no usable sequences).
    pub fn train(dataset: &Dataset, config: &EngineConfig) -> Option<(Self, TrainSummary)> {
        Self::train_with_prior(dataset, config, None)
    }

    /// Like [`train`](Self::train), but warm-starts every cluster's EM run
    /// from `prior`'s model for the same `(spec, key)` cluster (and the
    /// global model from the prior global) when one exists and matches the
    /// configured state count and emission family — the daily-refresh path
    /// of §5, where yesterday's engine seeds today's retraining. Clusters
    /// with no matching prior (new feature combos, changed spec) cold-start
    /// exactly as [`train`](Self::train) does.
    pub fn train_with_prior(
        dataset: &Dataset,
        config: &EngineConfig,
        prior: Option<&PredictionEngine>,
    ) -> Option<(Self, TrainSummary)> {
        let _train_span = cs2p_obs::span("train.engine")
            .field("n_sessions", dataset.len())
            .field("n_threads", config.n_threads)
            .field("warm", prior.is_some());
        let finder = ClusterFinder::new(dataset, config.cluster.clone());
        // Prior models keyed the way phase 2 keys cluster jobs, so a
        // refreshed cluster finds its predecessor in O(1).
        let prior_models: HashMap<(ClusterSpec, &[u32]), &Hmm> = prior
            .map(|p| {
                p.models()
                    .iter()
                    .map(|m| ((m.spec, m.key.as_slice()), &m.hmm))
                    .collect()
            })
            .unwrap_or_default();
        // Reference time: just past the last training session, so every
        // cluster sees the full training history.
        let reference_time = dataset
            .sessions()
            .last()
            .map(|s| s.end_time() + 1)
            .unwrap_or(0);

        // The global model doubles as the fallback and the GHM baseline.
        let all_indices: Vec<usize> = (0..dataset.len()).collect();
        let (global, global_report) = Self::train_cluster_model(
            dataset,
            ClusterSpec::GLOBAL,
            vec![],
            &all_indices,
            config,
            prior.map(|p| &p.global_model().hmm),
        )?;
        let mut warm_started = usize::from(global_report.start.is_warm());
        let mut em_iterations = global_report.iterations;

        // One search per distinct full-feature combination, in a
        // deterministic order.
        let combo_list: Vec<FeatureVector> = {
            let mut set: Vec<FeatureVector> = dataset
                .sessions()
                .iter()
                .map(|s| s.features.clone())
                .collect();
            set.sort_by(|a, b| a.0.cmp(&b.0));
            set.dedup();
            set
        };

        // Phase 1 (parallel): one spec search per combo. ClusterFinder is
        // Sync (its memo cache is behind a lock) and searches are
        // independent, so combos are dealt round-robin to workers and
        // results reassembled in combo order — bitwise identical to the
        // sequential run.
        let searches: Vec<crate::cluster::SpecSearch> = {
            let _span = cs2p_obs::span("train.engine.search").field("n_combos", combo_list.len());
            run_parallel(config.n_threads, combo_list.len(), |i| {
                finder.find_best_spec(&combo_list[i], reference_time)
            })
        };

        // Phase 2 (sequential): deduplicate (spec, key) clusters.
        let mut combos: Vec<(FeatureVector, Option<usize>)> = Vec::new();
        let mut index: HashMap<(ClusterSpec, Vec<u32>), usize> = HashMap::new();
        let mut cluster_jobs: Vec<(ClusterSpec, Vec<u32>, Vec<usize>)> = Vec::new();
        let mut fallbacks = 0usize;
        // combo index -> pending cluster-job index (model id after phase 3).
        let mut combo_jobs: Vec<Option<usize>> = Vec::with_capacity(combo_list.len());
        for (features, search) in combo_list.iter().zip(&searches) {
            if search.used_global_fallback {
                fallbacks += 1;
                combo_jobs.push(None);
                continue;
            }
            let key = features.project(search.spec.set);
            match index.entry((search.spec, key.clone())) {
                Entry::Occupied(e) => {
                    combo_jobs.push(Some(*e.get()));
                }
                Entry::Vacant(e) => {
                    let members = finder.aggregate(search.spec, features, reference_time);
                    e.insert(cluster_jobs.len());
                    combo_jobs.push(Some(cluster_jobs.len()));
                    cluster_jobs.push((search.spec, key, members));
                }
            }
        }

        // Phase 3 (parallel): Baum–Welch per distinct cluster, each run
        // seeded by the prior engine's model for the same cluster when one
        // exists.
        let trained: Vec<Option<(ClusterModel, cs2p_ml::hmm::TrainReport)>> = {
            let _span = cs2p_obs::span("train.engine.em").field("n_clusters", cluster_jobs.len());
            run_parallel(config.n_threads, cluster_jobs.len(), |i| {
                let (spec, key, members) = &cluster_jobs[i];
                let seed = prior_models.get(&(*spec, key.as_slice())).copied();
                Self::train_cluster_model(dataset, *spec, key.clone(), members, config, seed)
            })
        };

        // Phase 4 (sequential): compact failed trainings out of the model
        // list, remapping combo -> model ids.
        let mut models: Vec<ClusterModel> = Vec::new();
        let mut job_to_model: Vec<Option<usize>> = Vec::with_capacity(trained.len());
        for t in trained {
            match t {
                Some((model, report)) => {
                    warm_started += usize::from(report.start.is_warm());
                    em_iterations += report.iterations;
                    job_to_model.push(Some(models.len()));
                    models.push(model);
                }
                None => job_to_model.push(None),
            }
        }
        for (features, job) in combo_list.into_iter().zip(combo_jobs) {
            let model = job.and_then(|j| job_to_model[j]);
            if job.is_some() && model.is_none() {
                fallbacks += 1;
            }
            combos.push((features, model));
        }

        let n_combos = combos.len();
        let summary = TrainSummary {
            n_models: models.len(),
            n_combos,
            global_fallback_fraction: if n_combos == 0 {
                0.0
            } else {
                fallbacks as f64 / n_combos as f64
            },
            warm_started,
            em_iterations,
        };
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("train.engine.runs", 1);
            cs2p_obs::gauge_set("train.engine.models", summary.n_models as f64);
            cs2p_obs::gauge_set(
                "train.engine.fallback_fraction",
                summary.global_fallback_fraction,
            );
            cs2p_obs::event(
                cs2p_obs::Level::Info,
                "train.engine.trained",
                vec![
                    ("n_models", summary.n_models.into()),
                    ("n_combos", summary.n_combos.into()),
                    ("fallbacks", fallbacks.into()),
                    ("warm_started", summary.warm_started.into()),
                    ("em_iterations", summary.em_iterations.into()),
                ],
            );
        }
        Some((
            Self::from_parts(dataset.schema().clone(), models, global, combos),
            summary,
        ))
    }

    /// Like [`train`](Self::train) but forced sequential — used by tests
    /// to verify thread-count independence.
    pub fn train_sequential(
        dataset: &Dataset,
        config: &EngineConfig,
    ) -> Option<(Self, TrainSummary)> {
        let config = EngineConfig {
            n_threads: 1,
            ..config.clone()
        };
        Self::train(dataset, &config)
    }

    /// Rebuilds an engine from persisted parts (see `model_io`).
    ///
    /// `combos` records, per distinct training feature combination, which
    /// cluster model its spec search chose (`None` = the global model).
    /// The subset index built here powers [`lookup`](Self::lookup).
    ///
    /// # Panics
    ///
    /// Panics when `combos` repeats a full feature combination. Training
    /// dedups combos before it ever gets here, so a duplicate can only
    /// come from a corrupt or hand-assembled bundle — and accepting it
    /// would let whichever copy wins the index build silently shadow the
    /// other in [`lookup`](Self::lookup).
    pub fn from_parts(
        schema: FeatureSchema,
        models: Vec<ClusterModel>,
        global: ClusterModel,
        combos: Vec<(FeatureVector, Option<usize>)>,
    ) -> Self {
        let mut subset_order = schema.all_nonempty_subsets();
        subset_order.sort_unstable_by_key(|s| (std::cmp::Reverse(s.len()), s.0));
        // On projection collisions, prefer the combo whose model rests on
        // more sessions.
        let reliability = |mi: Option<usize>| match mi {
            Some(i) => models[i].n_sessions,
            None => global.n_sessions,
        };
        let combo_index = ComboIndex::build(&combos, &subset_order, schema.full_set(), reliability);
        PredictionEngine {
            schema,
            models,
            combos,
            combo_index,
            subset_order,
            global,
        }
    }

    fn train_cluster_model(
        dataset: &Dataset,
        spec: ClusterSpec,
        key: Vec<u32>,
        members: &[usize],
        config: &EngineConfig,
        prior: Option<&Hmm>,
    ) -> Option<(ClusterModel, cs2p_ml::hmm::TrainReport)> {
        let initials: Vec<f64> = members
            .iter()
            .filter_map(|&i| dataset.get(i).initial_throughput())
            .collect();
        let initial_median = cs2p_ml::stats::median(&initials)?;

        // Most recent sequences first, capped.
        let mut ordered: Vec<usize> = members.to_vec();
        ordered.sort_by_key(|&i| std::cmp::Reverse(dataset.get(i).start_time));
        let sequences: Vec<&[f64]> = ordered
            .iter()
            .map(|&i| dataset.get(i).throughput.as_slice())
            .filter(|s| s.len() >= config.min_sequence_epochs)
            .take(config.max_train_sequences)
            .collect();
        let (hmm, report) = train_seeded(&sequences, &config.hmm, prior)?;

        Some((
            ClusterModel {
                spec,
                key,
                initial_median,
                hmm,
                n_sessions: members.len(),
            },
            report,
        ))
    }

    /// The schema the engine was trained on.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// All trained cluster models (excluding the global fallback).
    pub fn models(&self) -> &[ClusterModel] {
        &self.models
    }

    /// The global model (also the GHM baseline of §7.2).
    pub fn global_model(&self) -> &ClusterModel {
        &self.global
    }

    /// Maps a new session to its cluster model, the way §5.2 describes:
    /// "a new session is mapped to the most similar session in the
    /// training dataset, which matches all (or most of) the features with
    /// the session under prediction. We then use the corresponding HMM of
    /// that session." Concretely: find the training feature-combination
    /// sharing the largest feature subset with the new session, and return
    /// the model that combo's cluster search selected; with no match at
    /// all (or if that combo fell back), return the global model.
    pub fn lookup(&self, features: &FeatureVector) -> &ClusterModel {
        self.lookup_detailed(features).model
    }

    /// Like [`lookup`](Self::lookup), but also reports *how* the session
    /// resolved: the index of the cluster model (when one matched) and
    /// whether the prediction will come from a cluster HMM or the global
    /// fallback. Serving layers surface this provenance to callers and to
    /// the per-`{cluster, global}` quality sketches.
    pub fn lookup_detailed(&self, features: &FeatureVector) -> LookupResult<'_> {
        assert_eq!(
            features.len(),
            self.schema.len(),
            "feature width does not match engine schema"
        );
        for &set in &self.subset_order {
            if let Some(ci) = self.combo_index.get(&self.combos, set, features) {
                return match self.combos[ci].1 {
                    Some(mi) => {
                        cs2p_obs::counter_add("predict.lookup.cluster", 1);
                        LookupResult {
                            model: &self.models[mi],
                            model_index: Some(mi),
                            provenance: Provenance::Cluster,
                        }
                    }
                    None => {
                        cs2p_obs::counter_add("predict.lookup.global", 1);
                        LookupResult {
                            model: &self.global,
                            model_index: None,
                            provenance: Provenance::Global,
                        }
                    }
                };
            }
        }
        cs2p_obs::counter_add("predict.lookup.global", 1);
        LookupResult {
            model: &self.global,
            model_index: None,
            provenance: Provenance::Global,
        }
    }

    /// The training combos and their chosen models (for persistence).
    pub fn combos(&self) -> &[(FeatureVector, Option<usize>)] {
        &self.combos
    }

    /// Convenience: an Algorithm-1 predictor for a new session.
    pub fn predictor(&self, features: &FeatureVector) -> Cs2pPredictor<'_> {
        Cs2pPredictor::new(self.lookup(features))
    }

    /// Convenience: a predictor running on the global HMM (GHM baseline).
    pub fn global_predictor(&self) -> Cs2pPredictor<'_> {
        Cs2pPredictor::new(&self.global)
    }
}

/// The most-similar-lookup index: every training combo filed under every
/// feature subset, so a probe for `(subset, the query's projection onto
/// it)` finds the training combo agreeing with the query on that subset.
///
/// A key is not stored. Each entry is a 64-bit fingerprint of `(subset,
/// projected values)` pointing at a combo, and a probe confirms a hit
/// against that combo's own features, so building and probing hash a few
/// words and allocate nothing per key. [`build`](Self::build) picks the
/// first fingerprint seed under which no two distinct keys share a
/// fingerprint; a hit that fails the confirmation is therefore a key
/// that was never filed, never a shadowed one.
#[derive(Debug, Clone, PartialEq)]
struct ComboIndex {
    seed: u64,
    slots: HashMap<u64, usize, BuildHasherDefault<Fingerprinted>>,
}

impl ComboIndex {
    /// Files every combo under every subset in `subsets`. A key two
    /// combos share goes to the one whose model rests on strictly more
    /// sessions (`reliability`), the earlier one on a tie.
    ///
    /// # Panics
    ///
    /// When two combos agree on every column of `full`: one would
    /// silently shadow the other in lookup.
    fn build(
        combos: &[(FeatureVector, Option<usize>)],
        subsets: &[FeatureSet],
        full: FeatureSet,
        reliability: impl Fn(Option<usize>) -> usize,
    ) -> Self {
        // Distinct keys are at most one per (combo, subset): sized once,
        // the table never regrows.
        let mut slots = HashMap::with_capacity_and_hasher(
            combos.len() * subsets.len(),
            BuildHasherDefault::default(),
        );
        'seeds: for seed in 0.. {
            slots.clear();
            for (ci, (features, mi)) in combos.iter().enumerate() {
                for &set in subsets {
                    match slots.entry(fingerprint(seed, set, features)) {
                        Entry::Vacant(e) => {
                            e.insert(ci);
                        }
                        Entry::Occupied(mut e) => {
                            let (filed, filed_model) = &combos[*e.get()];
                            if !filed.matches(features, set) {
                                continue 'seeds; // two keys, one fingerprint
                            }
                            assert!(
                                set != full,
                                "duplicate training combo {features:?}: combos must be unique \
                                 per full feature vector (one would silently shadow the other \
                                 in lookup)"
                            );
                            if reliability(*mi) > reliability(*filed_model) {
                                e.insert(ci);
                            }
                        }
                    }
                }
            }
            return ComboIndex { seed, slots };
        }
        unreachable!("some seed separates every key")
    }

    /// The combo filed under `(set, features projected onto set)`.
    fn get(
        &self,
        combos: &[(FeatureVector, Option<usize>)],
        set: FeatureSet,
        features: &FeatureVector,
    ) -> Option<usize> {
        let &ci = self.slots.get(&fingerprint(self.seed, set, features))?;
        combos[ci].0.matches(features, set).then_some(ci)
    }
}

/// A 64-bit fingerprint of `(set, features projected onto set)`: the
/// seed and the set, then each projected value, folded in by a
/// 64×64→128-bit multiply whose halves are xored together.
fn fingerprint(seed: u64, set: FeatureSet, features: &FeatureVector) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |x: u64| {
        let m = u128::from(x) * u128::from(K);
        (m as u64) ^ ((m >> 64) as u64)
    };
    set.iter().fold(fold(seed ^ u64::from(set.0)), |h, i| {
        fold(h ^ u64::from(features.get(i)))
    })
}

/// The [`ComboIndex`] table's hasher: its keys are already fingerprints,
/// so a key hashes to itself.
#[derive(Default)]
struct Fingerprinted(u64);

impl Hasher for Fingerprinted {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Where a session's model came from: a feature-cluster HMM, or the
/// global fallback (§5.2's "no sufficiently similar training session").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A cluster model matched the session's features.
    Cluster,
    /// No combo matched (or its cluster fell back): the global HMM serves.
    Global,
}

impl Provenance {
    /// Whether the session hit a cluster model.
    pub fn is_cluster_hit(self) -> bool {
        matches!(self, Provenance::Cluster)
    }
}

/// The outcome of [`PredictionEngine::lookup_detailed`].
#[derive(Debug, Clone, Copy)]
pub struct LookupResult<'a> {
    /// The model predictions will come from.
    pub model: &'a ClusterModel,
    /// Index into [`PredictionEngine::models`] when a cluster matched.
    pub model_index: Option<usize>,
    /// Cluster hit vs global fallback.
    pub provenance: Provenance,
}

/// Runs `job(i)` for `i in 0..n`, fanned out over worker threads, and
/// returns the results in index order. `n_threads == 0` uses one thread
/// per available core; `<= 1` (or trivially small `n`) runs inline.
///
/// Work is dealt by a shared atomic counter so an expensive item doesn't
/// serialize a whole stripe; output order (and therefore every downstream
/// id) is independent of scheduling.
fn run_parallel<T, F>(n_threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n_threads
    }
    .min(n.max(1));

    if workers <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();

    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let job = &job;
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    return;
                }
                if tx.send((i, job(i))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
    })
    .expect("training worker panicked");

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in rx {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;
    use crate::session::Session;
    use crate::timewin::TimeWindow;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Two ISPs with very different throughput regimes; city is noise.
    fn two_regime_dataset(n_per_isp: usize, seed: u64) -> Dataset {
        let schema = FeatureSchema::new(vec!["isp", "city"]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sessions = Vec::new();
        for isp in 0..2u32 {
            let base = if isp == 0 { 2.0 } else { 8.0 };
            for k in 0..n_per_isp {
                let city = rng.gen_range(0..4u32);
                let tp: Vec<f64> = (0..20)
                    .map(|_| (base + rng.gen_range(-0.3..0.3f64)).max(0.05))
                    .collect();
                sessions.push(Session::new(
                    (isp as u64) * 10_000 + k as u64,
                    FeatureVector(vec![isp, city]),
                    k as u64 * 30,
                    6,
                    tp,
                ));
            }
        }
        Dataset::new(schema, sessions)
    }

    fn test_config() -> EngineConfig {
        EngineConfig {
            cluster: ClusterConfig {
                min_cluster_size: 10,
                candidate_windows: vec![TimeWindow::All],
                max_est_sessions: 10,
                ..Default::default()
            },
            hmm: TrainConfig {
                n_states: 2,
                max_iters: 15,
                ..Default::default()
            },
            max_train_sequences: 100,
            min_sequence_epochs: 2,
            n_threads: 0,
        }
    }

    #[test]
    fn trains_and_separates_regimes() {
        let d = two_regime_dataset(60, 1);
        let (engine, summary) = PredictionEngine::train(&d, &test_config()).unwrap();
        assert!(summary.n_models >= 1, "no cluster models trained");
        let m0 = engine.lookup(&FeatureVector(vec![0, 1]));
        let m1 = engine.lookup(&FeatureVector(vec![1, 1]));
        assert!(
            (m0.initial_median - 2.0).abs() < 0.5,
            "isp0 median {}",
            m0.initial_median
        );
        assert!(
            (m1.initial_median - 8.0).abs() < 0.5,
            "isp1 median {}",
            m1.initial_median
        );
    }

    #[test]
    fn unknown_features_fall_back_to_global() {
        let d = two_regime_dataset(40, 2);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        let m = engine.lookup(&FeatureVector(vec![77, 77]));
        assert_eq!(m.spec, ClusterSpec::GLOBAL);
        // Global median sits between the regimes.
        assert!(m.initial_median > 1.0 && m.initial_median < 9.0);
    }

    #[test]
    fn global_model_trained_on_everything() {
        let d = two_regime_dataset(40, 3);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        assert_eq!(engine.global_model().n_sessions, d.len());
    }

    #[test]
    fn predictor_runs_algorithm_one() {
        let d = two_regime_dataset(60, 4);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        use crate::predictor::ThroughputPredictor;
        let mut p = engine.predictor(&FeatureVector(vec![1, 0]));
        let initial = p.predict_initial().unwrap();
        assert!((initial - 8.0).abs() < 0.5);
        p.observe(8.1);
        p.observe(7.9);
        let mid = p.predict_next().unwrap();
        assert!((mid - 8.0).abs() < 0.6, "midstream prediction {mid}");
    }

    #[test]
    fn empty_dataset_returns_none() {
        let schema = FeatureSchema::new(vec!["isp"]);
        let d = Dataset::new(schema, vec![]);
        assert!(PredictionEngine::train(&d, &test_config()).is_none());
    }

    #[test]
    fn lookup_prefers_more_specific_cluster() {
        // All sessions share ISP 0 but split into two cities with different
        // throughput; with a small min size both {ISP} and {ISP, City}
        // clusters qualify, and the search should favour the city split.
        let schema = FeatureSchema::new(vec!["isp", "city"]);
        let mut sessions = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for city in 0..2u32 {
            let base = if city == 0 { 1.0 } else { 6.0 };
            for k in 0..50 {
                let tp: Vec<f64> = (0..10)
                    .map(|_| (base + rng.gen_range(-0.2..0.2f64)).max(0.05))
                    .collect();
                sessions.push(Session::new(
                    (city as u64) * 1000 + k,
                    FeatureVector(vec![0, city]),
                    k * 40,
                    6,
                    tp,
                ));
            }
        }
        let d = Dataset::new(schema, sessions);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        let m = engine.lookup(&FeatureVector(vec![0, 1]));
        assert!(
            (m.initial_median - 6.0).abs() < 0.5,
            "lookup returned median {} — wrong cluster",
            m.initial_median
        );
    }

    #[test]
    fn lookup_detailed_reports_provenance() {
        let d = two_regime_dataset(60, 4);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        // A trained combo resolves to a cluster model with its index.
        let hit = engine.lookup_detailed(&FeatureVector(vec![1, 0]));
        assert!(hit.provenance.is_cluster_hit());
        let mi = hit.model_index.expect("cluster hit carries an index");
        assert!(std::ptr::eq(hit.model, &engine.models()[mi]));
        // Features no training combo shares anything with fall back.
        let miss = engine.lookup_detailed(&FeatureVector(vec![99, 99]));
        assert_eq!(miss.provenance, Provenance::Global);
        assert_eq!(miss.model_index, None);
        assert!(std::ptr::eq(miss.model, engine.global_model()));
        // `lookup` and `lookup_detailed` agree.
        assert!(std::ptr::eq(
            engine.lookup(&FeatureVector(vec![1, 0])),
            hit.model
        ));
    }

    #[test]
    fn parallel_training_matches_sequential_exactly() {
        let d = two_regime_dataset(60, 21);
        let mut parallel_cfg = test_config();
        parallel_cfg.n_threads = 4;
        let (par, par_summary) = PredictionEngine::train(&d, &parallel_cfg).unwrap();
        let (seq, seq_summary) = PredictionEngine::train_sequential(&d, &parallel_cfg).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par_summary.n_models, seq_summary.n_models);
        assert_eq!(
            par_summary.global_fallback_fraction,
            seq_summary.global_fallback_fraction
        );
    }

    #[test]
    #[should_panic(expected = "duplicate training combo")]
    fn from_parts_rejects_duplicate_combos() {
        let d = two_regime_dataset(30, 6);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        let mut combos = engine.combos().to_vec();
        // Duplicate the first combo, pointing it somewhere else entirely —
        // before the guard this silently shadowed in `lookup`.
        let dup = (combos[0].0.clone(), None);
        combos.push(dup);
        let _ = PredictionEngine::from_parts(
            engine.schema().clone(),
            engine.models().to_vec(),
            engine.global_model().clone(),
            combos,
        );
    }

    #[test]
    fn warm_retrain_matches_clusters_and_saves_iterations() {
        let d = two_regime_dataset(60, 7);
        let mut cfg = test_config();
        cfg.hmm.max_iters = 60;
        cfg.hmm.tol = 1e-6;
        let (prior, cold) = PredictionEngine::train(&d, &cfg).unwrap();
        assert_eq!(cold.warm_started, 0);

        // Retrain on a slightly later slice of the same world: every
        // cluster should find its predecessor and resume from it.
        let (warm_engine, warm) =
            PredictionEngine::train_with_prior(&d, &cfg, Some(&prior)).unwrap();
        assert_eq!(
            warm.warm_started,
            warm.n_models + 1,
            "every cluster (and the global model) should warm-start"
        );
        assert!(
            warm.em_iterations < cold.em_iterations,
            "warm retrain took {} EM iterations, cold {}",
            warm.em_iterations,
            cold.em_iterations
        );
        // Same data, (near-)converged prior: lookups stay coherent.
        let m = warm_engine.lookup(&FeatureVector(vec![0, 1]));
        assert!((m.initial_median - 2.0).abs() < 0.5);
    }

    #[test]
    fn warm_retrain_with_mismatched_states_falls_back_cold() {
        let d = two_regime_dataset(40, 8);
        let cfg = test_config();
        let (prior, _) = PredictionEngine::train(&d, &cfg).unwrap();
        let mut wider = cfg.clone();
        wider.hmm.n_states = 3; // prior trained with 2
        let (engine, summary) =
            PredictionEngine::train_with_prior(&d, &wider, Some(&prior)).unwrap();
        assert_eq!(
            summary.warm_started, 0,
            "mismatched priors must be rejected"
        );
        assert_eq!(engine.global_model().hmm.n_states(), 3);
    }

    #[test]
    fn from_parts_roundtrip_preserves_lookup() {
        let d = two_regime_dataset(30, 5);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();
        let rebuilt = PredictionEngine::from_parts(
            engine.schema().clone(),
            engine.models().to_vec(),
            engine.global_model().clone(),
            engine.combos().to_vec(),
        );
        assert_eq!(engine, rebuilt);
        for fv in [FeatureVector(vec![0, 0]), FeatureVector(vec![1, 3])] {
            assert_eq!(engine.lookup(&fv), rebuilt.lookup(&fv));
        }
    }

    #[test]
    fn lookup_uses_most_similar_training_combo() {
        // Two cities with very different throughput under one ISP; a new
        // session with an unseen city value must fall back to the global
        // model, while an unseen *ISP* with a known city must still land
        // on that city's model (most features matched).
        let schema = FeatureSchema::new(vec!["isp", "city"]);
        let mut sessions = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for city in 0..2u32 {
            let base = if city == 0 { 1.0 } else { 6.0 };
            for k in 0..50 {
                let tp: Vec<f64> = (0..10)
                    .map(|_| (base + rng.gen_range(-0.2..0.2f64)).max(0.05))
                    .collect();
                sessions.push(Session::new(
                    (city as u64) * 1000 + k,
                    FeatureVector(vec![0, city]),
                    k * 40,
                    6,
                    tp,
                ));
            }
        }
        let d = Dataset::new(schema, sessions);
        let (engine, _) = PredictionEngine::train(&d, &test_config()).unwrap();

        // Unseen ISP, known city: city model should win.
        let m = engine.lookup(&FeatureVector(vec![9, 1]));
        assert!(
            (m.initial_median - 6.0).abs() < 0.5,
            "expected city-1 model, got median {}",
            m.initial_median
        );
        // Nothing matches at all: global.
        let m = engine.lookup(&FeatureVector(vec![9, 9]));
        assert_eq!(m.spec, ClusterSpec::GLOBAL);
    }
}
