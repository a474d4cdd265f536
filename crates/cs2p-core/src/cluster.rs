//! Session clustering: finding the critical feature set and time window
//! (§5.1, Equations 2–3).
//!
//! For a target session `s`, CS2P picks the feature subset `M` and time
//! window that minimize the historical prediction error
//!
//! ```text
//! M*_s = argmin_M  (1/|Est(s)|) * sum_{s' in Est(s)} Err(F(Agg(M, s')), s'_w)
//! ```
//!
//! where `Est(s)` is a validation pool of recent similar sessions (the
//! paper: sessions matching `s` on the Table-2 features within the last two
//! hours) and `F` is the cluster predictor — for the search we use the
//! cheap initial-throughput predictor (the cluster median, Eq. 6), since
//! training a full HMM per candidate would be quadratic in everything.
//!
//! Specs whose own cluster `Agg(M, s)` holds fewer than a threshold number
//! of sessions are discarded, and when nothing qualifies the search
//! regresses to the global model (empty feature set, all history) — the
//! paper reports ~4% of sessions take this fallback.

use crate::dataset::{Dataset, FeatureIndex};
use crate::features::{FeatureSet, FeatureVector};
use crate::metrics::abs_normalized_error;
use crate::timewin::TimeWindow;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A cluster definition: which features must match, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Feature subset `M`.
    pub set: FeatureSet,
    /// Time window restricting which past sessions count.
    pub window: TimeWindow,
}

impl ClusterSpec {
    /// The global fallback: every session, all history.
    pub const GLOBAL: ClusterSpec = ClusterSpec {
        set: FeatureSet::EMPTY,
        window: TimeWindow::All,
    };
}

/// Configuration of the clustering search.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Minimum sessions `Agg(M, s)` must hold for a spec to qualify.
    pub min_cluster_size: usize,
    /// Candidate feature subsets (default: all non-empty subsets).
    pub candidate_sets: Option<Vec<FeatureSet>>,
    /// Candidate time windows (default: [`TimeWindow::candidates`]).
    pub candidate_windows: Vec<TimeWindow>,
    /// How far back `Est(s)` reaches (paper: 2 hours). When no session
    /// matches inside the window, the most recent matches from all history
    /// are used instead — at paper scale (millions of sessions) the window
    /// always has matches, at reproduction scale it often doesn't.
    pub est_window_seconds: u64,
    /// Cap on `|Est(s)|` for tractability (most recent kept).
    pub max_est_sessions: usize,
    /// Minimum pool size before reaching outside the time window: with
    /// fewer than this many in-window matches, the most recent
    /// out-of-window matches top the pool up (spec selection over one or
    /// two noisy sessions is a coin flip).
    pub min_est_sessions: usize,
    /// Which features must match for a session to enter `Est(s)`.
    ///
    /// The paper matches on all Table-2 features; on a smaller dataset
    /// that starves the pool (a near-unique column like the client prefix
    /// makes full-feature matches rare). `None` (the default) derives the
    /// set from the data: starting from the full set, the highest-
    /// cardinality column is dropped until the average pool reaches
    /// [`min_est_sessions`](Self::min_est_sessions).
    pub est_feature_set: Option<FeatureSet>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            min_cluster_size: 100,
            candidate_sets: None,
            candidate_windows: TimeWindow::candidates(),
            est_window_seconds: 2 * 3600,
            max_est_sessions: 50,
            min_est_sessions: 10,
            est_feature_set: None,
        }
    }
}

/// Details of one spec-search run, for diagnostics and tests.
#[derive(Debug, Clone)]
pub struct SpecSearch {
    /// The winning spec.
    pub spec: ClusterSpec,
    /// Mean `Est`-pool error of the winner (`None` for fallback paths that
    /// never evaluated an error).
    pub error: Option<f64>,
    /// Size of `Agg(spec, s)` for the target.
    pub cluster_size: usize,
    /// Whether the search regressed to the global model.
    pub used_global_fallback: bool,
}

/// Derives a usable `Est(s)` feature set from the data: start from all
/// columns, and while the *average* number of same-key past sessions falls
/// below `min_pool`, drop the remaining column with the most distinct
/// values. At paper scale this returns the full set (matching the paper's
/// definition); at reproduction scale it sheds near-unique columns that
/// would starve every pool.
fn auto_est_feature_set(dataset: &Dataset, min_pool: usize) -> FeatureSet {
    let full = dataset.schema().full_set();
    if dataset.is_empty() {
        return full;
    }
    let cardinalities: Vec<usize> = dataset
        .unique_value_counts()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let mut set = full;
    loop {
        let idx = FeatureIndex::build(dataset, set);
        // Average members per key = n / n_keys; a session's own pool is
        // one less (itself excluded).
        let avg = dataset.len() as f64 / idx.n_keys() as f64 - 1.0;
        if avg >= min_pool as f64 || set.len() <= 1 {
            return set;
        }
        let drop = set
            .iter()
            .max_by_key(|&i| cardinalities[i])
            .expect("non-empty set");
        set = FeatureSet(set.0 & !(1 << drop));
    }
}

/// Runs clustering searches against one dataset, with per-feature-set
/// indexes built once.
pub struct ClusterFinder<'a> {
    dataset: &'a Dataset,
    config: ClusterConfig,
    candidate_sets: Vec<FeatureSet>,
    indexes: HashMap<FeatureSet, FeatureIndex<'a>>,
    /// Memoizes `F(Agg(spec, s'))` per `(spec, s')`. The Eq. 3 search
    /// re-evaluates the same pairs for every target whose `Est` pool
    /// overlaps, which in a real dataset is nearly all of them.
    pred_cache: Mutex<HashMap<(ClusterSpec, usize), Option<f64>>>,
}

impl<'a> ClusterFinder<'a> {
    /// Builds indexes for every candidate feature subset (plus the Est-pool
    /// set, derived from the data when not configured).
    pub fn new(dataset: &'a Dataset, mut config: ClusterConfig) -> Self {
        let candidate_sets = config
            .candidate_sets
            .clone()
            .unwrap_or_else(|| dataset.schema().all_nonempty_subsets());
        let mut indexes = HashMap::new();
        for &set in &candidate_sets {
            indexes
                .entry(set)
                .or_insert_with(|| FeatureIndex::build(dataset, set));
        }
        let est_set = config
            .est_feature_set
            .unwrap_or_else(|| auto_est_feature_set(dataset, config.min_est_sessions.max(10)));
        config.est_feature_set = Some(est_set);
        indexes
            .entry(est_set)
            .or_insert_with(|| FeatureIndex::build(dataset, est_set));
        ClusterFinder {
            dataset,
            config,
            candidate_sets,
            indexes,
            pred_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The dataset being searched.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// `Agg(spec, s)`: indices of past sessions in the spec's cluster for a
    /// target with `features` starting at `start`.
    pub fn aggregate(&self, spec: ClusterSpec, features: &FeatureVector, start: u64) -> Vec<usize> {
        match self.indexes.get(&spec.set) {
            Some(idx) => idx.aggregate(features, start, spec.window),
            None => self
                .dataset
                .aggregate(features, start, spec.set, spec.window),
        }
    }

    /// The validation pool `Est(s)`: sessions matching the configured
    /// feature set within the last `est_window_seconds`, most recent
    /// first, capped. Falls back to all-history matches when the window is
    /// empty (small datasets).
    pub fn estimation_pool(&self, features: &FeatureVector, start: u64) -> Vec<usize> {
        let est_set = self
            .config
            .est_feature_set
            .unwrap_or_else(|| self.dataset.schema().full_set());
        let idx = &self.indexes[&est_set];
        let lo = start.saturating_sub(self.config.est_window_seconds);
        let mut pool: Vec<usize> = idx
            .lookup(features)
            .iter()
            .copied()
            .filter(|&i| {
                let t = self.dataset.get(i).start_time;
                t < start && t >= lo
            })
            .collect();
        if pool.len() < self.config.min_est_sessions {
            let mut extra: Vec<usize> = idx
                .lookup(features)
                .iter()
                .copied()
                .filter(|&i| {
                    let t = self.dataset.get(i).start_time;
                    t < start && t < lo
                })
                .collect();
            extra.sort_by_key(|&i| std::cmp::Reverse(self.dataset.get(i).start_time));
            extra.truncate(self.config.min_est_sessions.saturating_sub(pool.len()));
            pool.extend(extra);
        }
        pool.sort_by_key(|&i| std::cmp::Reverse(self.dataset.get(i).start_time));
        pool.truncate(self.config.max_est_sessions);
        pool
    }

    /// The median-of-initial-throughputs predictor used as `F` during the
    /// search (and as the initial predictor at serving time, Eq. 6).
    pub fn median_initial(&self, members: &[usize]) -> Option<f64> {
        let initials: Vec<f64> = members
            .iter()
            .filter_map(|&i| self.dataset.get(i).initial_throughput())
            .collect();
        cs2p_ml::stats::median(&initials)
    }

    /// Cached `F(Agg(spec, s'))`: the cluster-median prediction the spec
    /// would have made for training session `s'` at its own start time.
    fn predicted_initial_for(&self, spec: ClusterSpec, session_idx: usize) -> Option<f64> {
        if let Some(&cached) = self.pred_cache.lock().get(&(spec, session_idx)) {
            return cached;
        }
        let s_prime = self.dataset.get(session_idx);
        let agg = self.aggregate(spec, &s_prime.features, s_prime.start_time);
        let pred = self.median_initial(&agg);
        self.pred_cache.lock().insert((spec, session_idx), pred);
        pred
    }

    /// Finds `M*_s` for a target session (Eq. 2–3).
    pub fn find_best_spec(&self, features: &FeatureVector, start: u64) -> SpecSearch {
        let est = self.estimation_pool(features, start);

        let mut best: Option<(ClusterSpec, f64, usize)> = None;
        let mut qualifying_without_est: Option<(ClusterSpec, usize)> = None;

        for &set in &self.candidate_sets {
            for &window in &self.config.candidate_windows {
                let spec = ClusterSpec { set, window };
                let members = self.aggregate(spec, features, start);
                if members.len() < self.config.min_cluster_size {
                    continue;
                }
                // Remember the most specific qualifying spec in case the
                // Est pool is empty (cold start).
                let better_fallback = match &qualifying_without_est {
                    None => true,
                    Some((cur, cur_n)) => {
                        set.len() > cur.set.len()
                            || (set.len() == cur.set.len() && members.len() > *cur_n)
                    }
                };
                if better_fallback {
                    qualifying_without_est = Some((spec, members.len()));
                }
                if est.is_empty() {
                    continue;
                }

                // Error of F over the Est pool (Eq. 3). We summarize with
                // the median rather than the paper's mean: initial
                // throughputs are heavy-tailed (sessions that start inside
                // a congestion episode or a transient dip), and a handful
                // of such outliers otherwise drowns the signal that
                // separates feature subsets.
                let mut errors = Vec::with_capacity(est.len());
                for &si in &est {
                    let Some(actual) = self.dataset.get(si).initial_throughput() else {
                        continue;
                    };
                    let Some(pred) = self.predicted_initial_for(spec, si) else {
                        continue;
                    };
                    errors.push(abs_normalized_error(pred, actual));
                }
                let Some(err) = cs2p_ml::stats::median(&errors) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(_, e, _)| err < *e) {
                    best = Some((spec, err, members.len()));
                }
            }
        }

        if let Some((spec, error, cluster_size)) = best {
            return SpecSearch {
                spec,
                error: Some(error),
                cluster_size,
                used_global_fallback: false,
            };
        }
        if let Some((spec, cluster_size)) = qualifying_without_est {
            return SpecSearch {
                spec,
                error: None,
                cluster_size,
                used_global_fallback: false,
            };
        }
        // Global fallback (paper: ~4% of sessions).
        let members = self.aggregate(ClusterSpec::GLOBAL, features, start);
        SpecSearch {
            spec: ClusterSpec::GLOBAL,
            error: None,
            cluster_size: members.len(),
            used_global_fallback: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;
    use crate::session::Session;

    /// Dataset where feature 0 (ISP) perfectly determines initial
    /// throughput, and feature 1 (city) is noise.
    fn structured_dataset(n_per_isp: usize) -> Dataset {
        let schema = FeatureSchema::new(vec!["isp", "city"]);
        let mut sessions = Vec::new();
        let mut id = 0;
        for isp in 0..2u32 {
            for k in 0..n_per_isp {
                let city = (k % 5) as u32;
                let tp = if isp == 0 { 2.0 } else { 8.0 };
                sessions.push(Session::new(
                    id,
                    FeatureVector(vec![isp, city]),
                    (k as u64) * 60,
                    6,
                    vec![tp, tp, tp],
                ));
                id += 1;
            }
        }
        Dataset::new(schema, sessions)
    }

    fn small_config(min: usize) -> ClusterConfig {
        ClusterConfig {
            min_cluster_size: min,
            candidate_windows: vec![TimeWindow::All, TimeWindow::History { minutes: 30 }],
            // Tests below reason about exact full-feature pools; disable
            // the data-driven column dropping.
            est_feature_set: Some(FeatureSet::full(2)),
            ..Default::default()
        }
    }

    #[test]
    fn picks_the_informative_feature() {
        let d = structured_dataset(50);
        let finder = ClusterFinder::new(&d, small_config(5));
        let target = FeatureVector(vec![0, 3]);
        let result = finder.find_best_spec(&target, 10_000);
        assert!(!result.used_global_fallback);
        assert!(
            result.spec.set.contains(0),
            "best set {:?} must include ISP",
            result.spec.set
        );
        // Prediction via the chosen spec should be exact (2.0 Mbps).
        let members = finder.aggregate(result.spec, &target, 10_000);
        let pred = finder.median_initial(&members).unwrap();
        assert!((pred - 2.0).abs() < 1e-9);
    }

    #[test]
    fn winner_has_zero_error_on_deterministic_data() {
        let d = structured_dataset(50);
        let finder = ClusterFinder::new(&d, small_config(5));
        let result = finder.find_best_spec(&FeatureVector(vec![1, 2]), 10_000);
        assert_eq!(result.error, Some(0.0));
    }

    #[test]
    fn min_cluster_size_forces_global_fallback() {
        let d = structured_dataset(3); // 6 sessions total
        let finder = ClusterFinder::new(&d, small_config(1_000));
        let result = finder.find_best_spec(&FeatureVector(vec![0, 0]), 10_000);
        assert!(result.used_global_fallback);
        assert_eq!(result.spec, ClusterSpec::GLOBAL);
    }

    #[test]
    fn estimation_pool_is_recent_past_only() {
        let d = structured_dataset(50);
        let cfg = ClusterConfig {
            est_window_seconds: 600,
            min_est_sessions: 0, // no out-of-window top-up in this test
            ..small_config(5)
        };
        let finder = ClusterFinder::new(&d, cfg);
        let target = FeatureVector(vec![0, 3]);
        // Sessions with city=3 and isp=0 start at times k*60 where k%5==3.
        let pool = finder.estimation_pool(&target, 1_000);
        for &i in &pool {
            let s = d.get(i);
            assert!(s.start_time < 1_000 && s.start_time >= 400);
            assert_eq!(s.features, target);
        }
        assert!(!pool.is_empty());
    }

    #[test]
    fn estimation_pool_tops_up_outside_window_when_starved() {
        let d = structured_dataset(50);
        let cfg = ClusterConfig {
            est_window_seconds: 60, // window admits at most one session
            min_est_sessions: 5,
            ..small_config(5)
        };
        let finder = ClusterFinder::new(&d, cfg);
        let target = FeatureVector(vec![0, 3]);
        let pool = finder.estimation_pool(&target, 1_000);
        // Only 3 matching sessions exist before t=1000 (k in {3, 8, 13});
        // the top-up must surface all of them despite the 60 s window.
        assert_eq!(pool.len(), 3, "pool {:?} not topped up", pool);
        // Still strictly past, still feature-matched.
        for &i in &pool {
            let s = d.get(i);
            assert!(s.start_time < 1_000);
            assert_eq!(s.features, target);
        }
    }

    #[test]
    fn estimation_pool_is_capped_and_most_recent_first() {
        let d = structured_dataset(200);
        let cfg = ClusterConfig {
            max_est_sessions: 3,
            est_window_seconds: u64::MAX,
            ..small_config(5)
        };
        let finder = ClusterFinder::new(&d, cfg);
        let target = FeatureVector(vec![0, 0]);
        let pool = finder.estimation_pool(&target, 1_000_000);
        assert_eq!(pool.len(), 3);
        let times: Vec<u64> = pool.iter().map(|&i| d.get(i).start_time).collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn cold_start_uses_most_specific_qualifying_spec() {
        // Target whose exact feature combo never occurred: Est(s) is empty,
        // but ISP-level clusters qualify.
        let d = structured_dataset(50);
        let finder = ClusterFinder::new(&d, small_config(5));
        let target = FeatureVector(vec![0, 99]); // unseen city
        let result = finder.find_best_spec(&target, 10_000);
        assert!(!result.used_global_fallback);
        assert!(result.error.is_none());
        assert!(result.cluster_size >= 5);
        assert!(result.spec.set.contains(0));
        assert!(!result.spec.set.contains(1), "city=99 can't match anything");
    }

    #[test]
    fn auto_est_set_drops_near_unique_columns() {
        // Column 0 is near-unique (a prefix-like id); column 1 has 2
        // values. With min_pool above what full-feature matching can
        // deliver, the near-unique column must be dropped.
        let schema = crate::features::FeatureSchema::new(vec!["prefix", "isp"]);
        let sessions: Vec<Session> = (0..200)
            .map(|k| {
                Session::new(
                    k,
                    FeatureVector(vec![k as u32, (k % 2) as u32]),
                    k * 10,
                    6,
                    vec![1.0, 1.0],
                )
            })
            .collect();
        let d = Dataset::new(schema, sessions);
        let set = super::auto_est_feature_set(&d, 10);
        assert!(!set.contains(0), "prefix should be dropped: {set:?}");
        assert!(set.contains(1));
    }

    #[test]
    fn auto_est_set_keeps_full_set_when_dense() {
        // Few combos, many sessions: full-feature pools are plentiful.
        let schema = crate::features::FeatureSchema::new(vec!["a", "b"]);
        let sessions: Vec<Session> = (0..200)
            .map(|k| {
                Session::new(
                    k,
                    FeatureVector(vec![(k % 2) as u32, (k % 3) as u32]),
                    k * 10,
                    6,
                    vec![1.0],
                )
            })
            .collect();
        let d = Dataset::new(schema, sessions);
        let set = super::auto_est_feature_set(&d, 10);
        assert_eq!(set, d.schema().full_set());
    }

    #[test]
    fn aggregate_excludes_future_sessions() {
        let d = structured_dataset(50);
        let finder = ClusterFinder::new(&d, small_config(5));
        let spec = ClusterSpec {
            set: FeatureSet::from_indices(&[0]),
            window: TimeWindow::All,
        };
        let members = finder.aggregate(spec, &FeatureVector(vec![0, 0]), 300);
        for &i in &members {
            assert!(d.get(i).start_time < 300);
        }
    }

    #[test]
    fn global_spec_aggregates_everything_past() {
        let d = structured_dataset(10);
        let finder = ClusterFinder::new(&d, small_config(1));
        let members = finder.aggregate(ClusterSpec::GLOBAL, &FeatureVector(vec![9, 9]), u64::MAX);
        assert_eq!(members.len(), d.len());
    }
}
