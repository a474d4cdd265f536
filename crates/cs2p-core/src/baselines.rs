//! The baseline predictors the paper compares against (§7.1):
//!
//! - **History-based**: LS (Last Sample), HM (Harmonic Mean), AR
//!   (Auto-Regression) — per-session, no cross-session information, no
//!   initial prediction.
//! - **Last-mile heuristics**: LM-client / LM-server — predict a new
//!   session by the median throughput of past sessions sharing the client
//!   IP prefix / the server (§7.2, Figure 9a).
//! - **Machine-learning**: SVR and GBR trained on the Table-2 session
//!   features (plus recent history for midstream predictions).

use crate::dataset::Dataset;
use crate::features::{FeatureSet, FeatureVector};
use crate::predictor::ThroughputPredictor;
use cs2p_ml::ar::ar_predict_next;
use cs2p_ml::gbrt::{Gbrt, GbrtConfig};
use cs2p_ml::stats;
use cs2p_ml::svr::{Svr, SvrConfig};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// History-based predictors
// ---------------------------------------------------------------------------

/// LS: predicts the next epoch by the last observed sample.
#[derive(Debug, Clone, Default)]
pub struct LastSample {
    last: Option<f64>,
}

impl LastSample {
    /// Fresh predictor with no history.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThroughputPredictor for LastSample {
    fn name(&self) -> &str {
        "LS"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        None
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        self.last
    }
    fn observe(&mut self, throughput: f64) {
        self.last = Some(throughput);
    }
    fn reset(&mut self) {
        self.last = None;
    }
}

/// HM: predicts by the harmonic mean of all past samples in the session —
/// the estimator used by FastMPC [Yin et al.] and robust to outliers.
#[derive(Debug, Clone, Default)]
pub struct HarmonicMean {
    history: Vec<f64>,
}

impl HarmonicMean {
    /// Fresh predictor with no history.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThroughputPredictor for HarmonicMean {
    fn name(&self) -> &str {
        "HM"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        None
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        stats::harmonic_mean(&self.history).or_else(|| self.history.last().copied())
    }
    fn observe(&mut self, throughput: f64) {
        self.history.push(throughput);
    }
    fn reset(&mut self) {
        self.history.clear();
    }
}

/// AR: refits an AR(p) on the session's history each prediction (§7.1:
/// "For AR and HM, we utilize all the available previous measurements").
#[derive(Debug, Clone)]
pub struct AutoRegressive {
    history: Vec<f64>,
    order: usize,
}

impl AutoRegressive {
    /// AR of the given order (the classic choice for throughput traces is
    /// a small `p`; we default to 3 in callers).
    pub fn new(order: usize) -> Self {
        assert!(order >= 1);
        AutoRegressive {
            history: Vec::new(),
            order,
        }
    }
}

impl ThroughputPredictor for AutoRegressive {
    fn name(&self) -> &str {
        "AR"
    }
    fn predict_initial(&mut self) -> Option<f64> {
        None
    }
    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        if self.history.is_empty() {
            return None;
        }
        // Iterate one-step predictions, feeding them back.
        let mut extended = self.history.clone();
        let mut last = None;
        for _ in 0..k {
            let next = ar_predict_next(&extended, self.order)?;
            extended.push(next);
            last = Some(next);
        }
        last.map(|v| v.max(0.0))
    }
    fn observe(&mut self, throughput: f64) {
        self.history.push(throughput);
    }
    fn reset(&mut self) {
        self.history.clear();
    }
}

// ---------------------------------------------------------------------------
// Last-mile heuristics
// ---------------------------------------------------------------------------

/// LM-client / LM-server: a constant prediction equal to the median initial
/// throughput of past sessions sharing one feature (client prefix for
/// LM-client, server for LM-server).
#[derive(Debug, Clone)]
pub struct LastMile {
    name: &'static str,
    value: Option<f64>,
}

impl LastMile {
    /// LM from a precomputed median (callers that batch-evaluate across
    /// many sessions precompute per-key tables instead of rescanning the
    /// training set per session).
    pub fn from_value(name: &'static str, value: Option<f64>) -> Self {
        LastMile { name, value }
    }

    /// LM over an arbitrary single feature column.
    fn from_feature(
        name: &'static str,
        train: &Dataset,
        column: usize,
        features: &FeatureVector,
    ) -> Self {
        let set = FeatureSet::from_indices(&[column]);
        let initials: Vec<f64> = train
            .sessions()
            .iter()
            .filter(|s| s.features.matches(features, set))
            .filter_map(|s| s.initial_throughput())
            .collect();
        LastMile {
            name,
            value: stats::median(&initials),
        }
    }

    /// LM-client: match on the client IP prefix column.
    pub fn client(train: &Dataset, features: &FeatureVector) -> Self {
        let col = train
            .schema()
            .index_of("ClientIPPrefix")
            .expect("schema lacks ClientIPPrefix");
        Self::from_feature("LM-client", train, col, features)
    }

    /// LM-server: match on the server column.
    pub fn server(train: &Dataset, features: &FeatureVector) -> Self {
        let col = train
            .schema()
            .index_of("Server")
            .expect("schema lacks Server");
        Self::from_feature("LM-server", train, col, features)
    }
}

impl ThroughputPredictor for LastMile {
    fn name(&self) -> &str {
        self.name
    }
    fn predict_initial(&mut self) -> Option<f64> {
        self.value
    }
    fn predict_ahead(&mut self, _k: usize) -> Option<f64> {
        self.value
    }
    fn observe(&mut self, _throughput: f64) {}
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// Feature-based ML baselines (SVR / GBR)
// ---------------------------------------------------------------------------

/// One-hot encoder over the categorical session features, with
/// vocabularies learned from a training dataset. Unseen values encode to
/// the all-zero block for their column.
#[derive(Debug, Clone)]
pub struct FeatureEncoder {
    vocab: Vec<HashMap<u32, usize>>,
    offsets: Vec<usize>,
    dims: usize,
}

impl FeatureEncoder {
    /// Learns per-column vocabularies from the training sessions.
    pub fn fit(train: &Dataset) -> Self {
        let n_cols = train.schema().len();
        let mut vocab: Vec<HashMap<u32, usize>> = vec![HashMap::new(); n_cols];
        for s in train.sessions() {
            for (c, v) in vocab.iter_mut().enumerate() {
                let val = s.features.get(c);
                let next = v.len();
                v.entry(val).or_insert(next);
            }
        }
        let mut offsets = Vec::with_capacity(n_cols);
        let mut dims = 0;
        for v in &vocab {
            offsets.push(dims);
            dims += v.len();
        }
        FeatureEncoder {
            vocab,
            offsets,
            dims,
        }
    }

    /// Encoded width.
    fn dims(&self) -> usize {
        self.dims
    }

    /// One-hot encodes a feature vector.
    pub fn encode(&self, features: &FeatureVector) -> Vec<f64> {
        let mut out = vec![0.0; self.dims];
        for (c, v) in self.vocab.iter().enumerate() {
            if let Some(&slot) = v.get(&features.get(c)) {
                out[self.offsets[c] + slot] = 1.0;
            }
        }
        out
    }
}

/// The model family used by [`MlBaseline`].
#[derive(Debug, Clone)]
pub enum MlModelKind {
    /// Epsilon-SVR.
    Svr(SvrConfig),
    /// Gradient-boosted regression trees.
    Gbrt(GbrtConfig),
}

#[derive(Debug, Clone)]
enum MlModel {
    Svr(Svr),
    Gbrt(Gbrt),
}

impl MlModel {
    fn fit(kind: &MlModelKind, x: &[Vec<f64>], y: &[f64]) -> MlModel {
        match kind {
            MlModelKind::Svr(cfg) => MlModel::Svr(Svr::fit(x, y, cfg)),
            MlModelKind::Gbrt(cfg) => MlModel::Gbrt(Gbrt::fit(x, y, cfg)),
        }
    }
    fn predict(&self, row: &[f64]) -> f64 {
        match self {
            MlModel::Svr(m) => m.predict(row),
            MlModel::Gbrt(m) => m.predict(row),
        }
    }
}

/// SVR/GBR baseline trained on session features.
///
/// Two models are fit: an *initial* model mapping one-hot features to the
/// first epoch's throughput, and a *midstream* model whose inputs append
/// the last observed throughput and the running harmonic mean. The numeric
/// history features are standardized (zero mean, unit variance on the
/// training data) — kernel methods are scale-sensitive and raw Mbps values
/// dwarf the one-hot block.
#[derive(Debug, Clone)]
pub struct MlBaseline {
    name: &'static str,
    encoder: FeatureEncoder,
    initial_model: MlModel,
    midstream_model: MlModel,
    /// `(mean, std)` per numeric history feature.
    numeric_scale: [(f64, f64); 2],
}

/// A per-session handle onto a trained [`MlBaseline`].
#[derive(Debug, Clone)]
pub struct MlSession<'a> {
    baseline: &'a MlBaseline,
    encoded: Vec<f64>,
    history: Vec<f64>,
}

impl MlBaseline {
    /// Trains both models from a dataset. `max_midstream_samples` caps the
    /// training matrix (most recent sessions first) so SVR's quadratic
    /// kernel stays tractable.
    pub fn train(
        name: &'static str,
        kind: &MlModelKind,
        train: &Dataset,
        max_midstream_samples: usize,
    ) -> Option<Self> {
        let encoder = FeatureEncoder::fit(train);

        let mut xi = Vec::new();
        let mut yi = Vec::new();
        let mut xm = Vec::new();
        let mut ym = Vec::new();
        // Most recent sessions first so the cap keeps fresh data.
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(train.get(i).start_time));
        for &i in &order {
            let s = train.get(i);
            let enc = encoder.encode(&s.features);
            if let Some(w0) = s.initial_throughput() {
                if xi.len() < max_midstream_samples {
                    xi.push(enc.clone());
                    yi.push(w0);
                }
            }
            for t in 1..s.throughput.len() {
                if xm.len() >= max_midstream_samples {
                    break;
                }
                let mut row = enc.clone();
                row.push(s.throughput[t - 1]);
                let hm = stats::harmonic_mean(&s.throughput[..t]).unwrap_or(s.throughput[t - 1]);
                row.push(hm);
                xm.push(row);
                ym.push(s.throughput[t]);
            }
        }
        if xi.is_empty() || xm.is_empty() {
            return None;
        }

        // Standardize the two numeric columns appended to midstream rows.
        let enc_dims = encoder.dims();
        let mut numeric_scale = [(0.0, 1.0); 2];
        for (j, scale) in numeric_scale.iter_mut().enumerate() {
            let col: Vec<f64> = xm.iter().map(|row| row[enc_dims + j]).collect();
            let mean = stats::mean(&col).unwrap_or(0.0);
            let std = stats::stddev(&col).unwrap_or(1.0).max(1e-9);
            *scale = (mean, std);
            for row in xm.iter_mut() {
                row[enc_dims + j] = (row[enc_dims + j] - mean) / std;
            }
        }

        let initial_model = MlModel::fit(kind, &xi, &yi);
        let midstream_model = MlModel::fit(kind, &xm, &ym);
        Some(MlBaseline {
            name,
            encoder,
            initial_model,
            midstream_model,
            numeric_scale,
        })
    }

    /// Starts a session predictor for the given features.
    pub fn session(&self, features: &FeatureVector) -> MlSession<'_> {
        MlSession {
            baseline: self,
            encoded: self.encoder.encode(features),
            history: Vec::new(),
        }
    }
}

impl ThroughputPredictor for MlSession<'_> {
    fn name(&self) -> &str {
        self.baseline.name
    }

    fn predict_initial(&mut self) -> Option<f64> {
        Some(self.baseline.initial_model.predict(&self.encoded).max(0.0))
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        if self.history.is_empty() {
            return self.predict_initial();
        }
        // Iterate the one-step midstream model, feeding predictions back.
        let [(m0, s0), (m1, s1)] = self.baseline.numeric_scale;
        let mut hist = self.history.clone();
        let mut last = 0.0;
        for _ in 0..k {
            let mut row = self.encoded.clone();
            row.push((*hist.last().unwrap() - m0) / s0);
            let hm = stats::harmonic_mean(&hist).unwrap_or(*hist.last().unwrap());
            row.push((hm - m1) / s1);
            last = self.baseline.midstream_model.predict(&row).max(0.0);
            hist.push(last);
        }
        Some(last)
    }

    fn observe(&mut self, throughput: f64) {
        self.history.push(throughput);
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;
    use crate::session::Session;

    #[test]
    fn last_sample_behaviour() {
        let mut p = LastSample::new();
        assert_eq!(p.predict_initial(), None);
        assert_eq!(p.predict_next(), None);
        p.observe(3.0);
        assert_eq!(p.predict_next(), Some(3.0));
        assert_eq!(p.predict_ahead(10), Some(3.0));
        p.observe(5.0);
        assert_eq!(p.predict_next(), Some(5.0));
        p.reset();
        assert_eq!(p.predict_next(), None);
    }

    #[test]
    fn harmonic_mean_behaviour() {
        let mut p = HarmonicMean::new();
        assert_eq!(p.predict_next(), None);
        p.observe(1.0);
        p.observe(4.0);
        p.observe(4.0);
        assert!((p.predict_next().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_falls_back_on_zero_samples() {
        let mut p = HarmonicMean::new();
        p.observe(0.0); // harmonic mean undefined
        assert_eq!(p.predict_next(), Some(0.0)); // falls back to last sample
    }

    #[test]
    fn ar_needs_history_and_tracks_trend() {
        let mut p = AutoRegressive::new(1);
        assert_eq!(p.predict_next(), None);
        // Feed a geometric decay; AR(1) should extrapolate downward.
        let mut w = 8.0;
        for _ in 0..12 {
            p.observe(w);
            w *= 0.9;
        }
        let pred = p.predict_next().unwrap();
        let last = 8.0 * 0.9f64.powi(11);
        assert!(pred < last, "AR should extrapolate decay: {pred} vs {last}");
        assert!(pred > 0.0);
    }

    #[test]
    fn ar_kahead_iterates() {
        let mut p = AutoRegressive::new(1);
        for _ in 0..3 {
            p.observe(2.0);
        }
        // Constant history -> singular fit -> last-sample fallback at each
        // iteration, so every horizon predicts 2.0.
        assert_eq!(p.predict_ahead(5), Some(2.0));
    }

    fn lm_dataset() -> Dataset {
        let schema = FeatureSchema::iqiyi();
        let mk = |id, prefix: u32, server: u32, start, tp0: f64| {
            Session::new(
                id,
                FeatureVector(vec![prefix, 0, 0, 0, 0, server]),
                start,
                6,
                vec![tp0, tp0],
            )
        };
        Dataset::new(
            schema,
            vec![
                mk(1, 100, 1, 10, 2.0),
                mk(2, 100, 2, 20, 3.0),
                mk(3, 200, 1, 30, 8.0),
                mk(4, 200, 2, 40, 9.0),
            ],
        )
    }

    #[test]
    fn lm_client_matches_prefix() {
        let d = lm_dataset();
        let mut p = LastMile::client(&d, &FeatureVector(vec![100, 9, 9, 9, 9, 9]));
        assert!((p.predict_initial().unwrap() - 2.5).abs() < 1e-12);
        let mut q = LastMile::client(&d, &FeatureVector(vec![200, 0, 0, 0, 0, 0]));
        assert!((q.predict_initial().unwrap() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn lm_server_matches_server() {
        let d = lm_dataset();
        let mut p = LastMile::server(&d, &FeatureVector(vec![0, 0, 0, 0, 0, 1]));
        assert!((p.predict_initial().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lm_unknown_key_yields_none() {
        let d = lm_dataset();
        let mut p = LastMile::client(&d, &FeatureVector(vec![999, 0, 0, 0, 0, 0]));
        assert_eq!(p.predict_initial(), None);
    }

    fn ml_dataset() -> Dataset {
        // ISP (column 1) determines throughput exactly.
        let schema = FeatureSchema::iqiyi();
        let mut sessions = Vec::new();
        let mut id = 0;
        for isp in 0..2u32 {
            let tp = if isp == 0 { 2.0 } else { 8.0 };
            for k in 0..30u64 {
                sessions.push(Session::new(
                    id,
                    FeatureVector(vec![k as u32 % 4, isp, 0, 0, 0, 0]),
                    k * 10,
                    6,
                    vec![tp; 6],
                ));
                id += 1;
            }
        }
        Dataset::new(schema, sessions)
    }

    #[test]
    fn encoder_one_hot_shape() {
        let d = ml_dataset();
        let enc = FeatureEncoder::fit(&d);
        // Columns: prefix(4) + isp(2) + as(1) + province(1) + city(1) + server(1)
        assert_eq!(enc.dims(), 10);
        let row = enc.encode(&FeatureVector(vec![0, 1, 0, 0, 0, 0]));
        assert_eq!(row.iter().filter(|&&v| v == 1.0).count(), 6);
        // Unseen value -> zero block for that column.
        let row = enc.encode(&FeatureVector(vec![77, 1, 0, 0, 0, 0]));
        assert_eq!(row.iter().filter(|&&v| v == 1.0).count(), 5);
    }

    #[test]
    fn gbr_baseline_learns_feature_rule() {
        let d = ml_dataset();
        let kind = MlModelKind::Gbrt(GbrtConfig {
            n_trees: 30,
            ..Default::default()
        });
        let model = MlBaseline::train("GBR", &kind, &d, 500).unwrap();
        let mut s = model.session(&FeatureVector(vec![0, 1, 0, 0, 0, 0]));
        let init = s.predict_initial().unwrap();
        assert!((init - 8.0).abs() < 1.0, "GBR initial {init}");
        s.observe(8.0);
        let mid = s.predict_next().unwrap();
        assert!((mid - 8.0).abs() < 1.0, "GBR midstream {mid}");
    }

    #[test]
    fn svr_baseline_learns_feature_rule() {
        let d = ml_dataset();
        let kind = MlModelKind::Svr(SvrConfig {
            kernel: cs2p_ml::svr::Kernel::Linear,
            c: 10.0,
            epsilon: 0.1,
            ..Default::default()
        });
        let model = MlBaseline::train("SVR", &kind, &d, 400).unwrap();
        let mut s = model.session(&FeatureVector(vec![1, 0, 0, 0, 0, 0]));
        let init = s.predict_initial().unwrap();
        assert!((init - 2.0).abs() < 1.0, "SVR initial {init}");
    }

    #[test]
    fn ml_baseline_empty_dataset_returns_none() {
        let schema = FeatureSchema::iqiyi();
        let d = Dataset::new(schema, vec![]);
        let kind = MlModelKind::Gbrt(GbrtConfig::default());
        assert!(MlBaseline::train("GBR", &kind, &d, 100).is_none());
    }
}
