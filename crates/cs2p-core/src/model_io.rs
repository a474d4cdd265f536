//! Model persistence: what the Prediction Engine ships over the wire.
//!
//! The paper stresses deployability: trained models are compact ("<5KB"
//! §5.3) and are downloaded by players (client-side adaptation) or pushed
//! to video servers (server-side). [`ModelBundle`] is that wire format —
//! the schema plus per-cluster models plus the global fallback — and a
//! [`ClientModel`] is the single-cluster subset a player actually needs.

use crate::engine::{ClusterModel, PredictionEngine};
use crate::features::{FeatureSchema, FeatureVector, MAX_FEATURES};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Everything needed to reconstruct a [`PredictionEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Feature schema the models are keyed on.
    pub schema: FeatureSchema,
    /// Per-cluster models.
    pub models: Vec<ClusterModel>,
    /// Global fallback model.
    pub global: ClusterModel,
    /// Training feature combinations and their chosen model index
    /// (`None` = global fallback) — the most-similar-session lookup table.
    pub combos: Vec<(FeatureVector, Option<usize>)>,
}

impl ModelBundle {
    /// Extracts the bundle from a trained engine.
    pub fn from_engine(engine: &PredictionEngine) -> Self {
        ModelBundle {
            schema: engine.schema().clone(),
            models: engine.models().to_vec(),
            global: engine.global_model().clone(),
            combos: engine.combos().to_vec(),
        }
    }

    /// Rebuilds the engine.
    pub fn into_engine(self) -> PredictionEngine {
        PredictionEngine::from_parts(self.schema, self.models, self.global, self.combos)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON. A bundle [`into_engine`](Self::into_engine)
    /// could not rebuild is an error, never a later panic.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        let bundle: Self = serde_json::from_str(json)?;
        bundle.check().map_err(serde::DeError)?;
        Ok(bundle)
    }

    /// What `PredictionEngine::from_parts` relies on: a schema of 1 to
    /// `MAX_FEATURES` columns, and combos of the schema's width, each
    /// full vector once, each naming a model that exists.
    fn check(&self) -> Result<(), String> {
        let width = self.schema.len();
        if !(1..=MAX_FEATURES).contains(&width) {
            return Err(format!(
                "schema has {width} features, not 1..={MAX_FEATURES}"
            ));
        }
        let mut seen = HashSet::with_capacity(self.combos.len());
        for (features, model) in &self.combos {
            if features.len() != width {
                return Err(format!("combo {features:?} is not {width} features wide"));
            }
            if model.is_some_and(|i| i >= self.models.len()) {
                return Err(format!("combo {features:?} names model {model:?}"));
            }
            if !seen.insert(features) {
                return Err(format!("combo {features:?} is repeated"));
            }
        }
        Ok(())
    }

    /// Writes the bundle to `path` crash-safely: serialize to
    /// `<path>.tmp`, fsync, then rename over `path`. A reader (or a
    /// recovery after a crash anywhere in this sequence) sees either the
    /// old complete file or the new complete file, never a torn one.
    pub fn write_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, json.as_bytes())?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a bundle previously written by
    /// [`write_atomic`](Self::write_atomic). Corrupt JSON, or a bundle
    /// [`from_json`](Self::from_json) rejects, is an `InvalidData` error,
    /// never a panic.
    pub fn read_atomic(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The single-cluster payload a client downloads for one session: its
/// cluster's HMM and initial prediction (§5.3, client-side integration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientModel {
    /// The cluster model matched to the client's features.
    pub model: ClusterModel,
}

impl ClientModel {
    /// Looks up the right cluster for a client and packages it.
    pub fn for_client(engine: &PredictionEngine, features: &FeatureVector) -> Self {
        ClientModel {
            model: engine.lookup(features).clone(),
        }
    }

    /// Serializes to JSON (the payload whose size the paper bounds at 5 KB).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_json().map(|s| s.len()).unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use cs2p_ml::gaussian::Gaussian;
    use cs2p_ml::hmm::{Emission, Hmm};
    use cs2p_ml::matrix::Matrix;

    /// A model with the paper's production shape: 6 states.
    fn six_state_model() -> ClusterModel {
        let n = 6;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = vec![0.02; n];
            row[i] = 1.0 - 0.02 * (n - 1) as f64;
            rows.push(row);
        }
        let emissions = (0..n)
            .map(|i| Emission::Gaussian(Gaussian::new(0.5 + i as f64, 0.1 + 0.01 * i as f64)))
            .collect();
        let hmm = Hmm::new(vec![1.0 / n as f64; n], Matrix::from_rows(&rows), emissions);
        ClusterModel {
            spec: ClusterSpec::GLOBAL,
            key: vec![1, 2, 3],
            initial_median: 2.345,
            hmm,
            n_sessions: 512,
        }
    }

    #[test]
    fn client_model_under_5kb() {
        // The paper: "<5KB memory is used to keep the HMM" (§5.3). Our JSON
        // wire format for a 6-state model must respect the same bound.
        let cm = ClientModel {
            model: six_state_model(),
        };
        let size = cm.wire_size();
        assert!(size < 5 * 1024, "client model is {size} bytes");
    }

    #[test]
    fn client_model_roundtrip() {
        let cm = ClientModel {
            model: six_state_model(),
        };
        let json = cm.to_json().unwrap();
        let back = ClientModel::from_json(&json).unwrap();
        assert_eq!(cm, back);
    }

    #[test]
    fn bundle_roundtrip_preserves_engine() {
        use crate::dataset::Dataset;
        use crate::engine::EngineConfig;
        use crate::features::FeatureSchema;
        use crate::session::Session;

        let schema = FeatureSchema::new(vec!["isp"]);
        let sessions: Vec<Session> = (0..40)
            .map(|k| {
                let isp = (k % 2) as u32;
                let tp = if isp == 0 { 1.0 } else { 5.0 };
                Session::new(k, FeatureVector(vec![isp]), k * 50, 6, vec![tp; 8])
            })
            .collect();
        let d = Dataset::new(schema, sessions);
        let mut config = EngineConfig::default();
        config.cluster.min_cluster_size = 5;
        config.hmm.n_states = 2;
        config.hmm.max_iters = 10;
        let (engine, _) = PredictionEngine::train(&d, &config).unwrap();

        let bundle = ModelBundle::from_engine(&engine);
        let json = bundle.to_json().unwrap();
        let rebuilt = ModelBundle::from_json(&json).unwrap().into_engine();
        assert_eq!(engine, rebuilt);
    }

    #[test]
    fn corrupt_json_is_an_error_not_a_panic() {
        assert!(ClientModel::from_json("{not json").is_err());
        assert!(ModelBundle::from_json("42").is_err());
    }

    /// A bundle over `width` columns with one combo per given index.
    fn bundle(width: usize, combos: &[Option<usize>]) -> ModelBundle {
        let names: Vec<String> = (0..width).map(|i| format!("\"f{i}\"")).collect();
        let schema = format!("{{\"names\":[{}]}}", names.join(","));
        ModelBundle {
            schema: serde_json::from_str(&schema).unwrap(),
            models: vec![six_state_model()],
            global: six_state_model(),
            combos: combos
                .iter()
                .enumerate()
                .map(|(k, &model)| (FeatureVector(vec![k as u32; width]), model))
                .collect(),
        }
    }

    fn rejection(bundle: &ModelBundle) -> String {
        let json = bundle.to_json().unwrap();
        ModelBundle::from_json(&json).unwrap_err().to_string()
    }

    #[test]
    fn bundles_from_parts_cannot_rebuild_are_rejected_at_decode() {
        let good = bundle(3, &[Some(0), None]);
        assert_eq!(ModelBundle::from_json(&good.to_json().unwrap()), Ok(good));

        // Decoding rejects the width; nothing enumerates 2^32 subsets.
        for width in [0, MAX_FEATURES + 1, 32] {
            let wide = bundle(width, &[None]);
            assert!(rejection(&wide).contains("features, not 1..=16"), "{width}");
        }
        let mut narrow = bundle(3, &[None]);
        narrow.combos[0].0 .0.pop();
        assert!(rejection(&narrow).contains("is not 3 features wide"));
        assert!(rejection(&bundle(3, &[Some(1)])).contains("names model Some(1)"));
        let mut repeated = bundle(3, &[Some(0), None]);
        repeated.combos[1].0 = repeated.combos[0].0.clone();
        assert!(rejection(&repeated).contains("is repeated"));
    }
}
