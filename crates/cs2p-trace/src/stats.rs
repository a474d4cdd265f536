//! Dataset-level statistics: the numbers behind Table 2, Figure 3 and
//! Observation 1.

use cs2p_core::Dataset;
use cs2p_ml::stats::{self, Ecdf};

/// Summary statistics of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Number of sessions.
    pub n_sessions: usize,
    /// `(feature name, unique values)` — Table 2's right column.
    pub unique_values: Vec<(String, usize)>,
    /// ECDF of session durations in seconds (Figure 3a).
    pub duration_ecdf: Ecdf,
    /// ECDF of per-epoch throughput in Mbps (Figure 3b).
    pub throughput_ecdf: Ecdf,
    /// ECDF of per-session coefficient of variation (Observation 1),
    /// over sessions with at least `min_epochs_for_cov` epochs.
    pub cov_ecdf: Option<Ecdf>,
    /// Total number of epochs across all sessions.
    pub n_epochs: usize,
}

/// Sessions shorter than this are excluded from the CoV distribution
/// (a 2-epoch CoV is meaningless).
const MIN_EPOCHS_FOR_COV: usize = 10;

impl DatasetStats {
    /// Computes all statistics in one pass. Returns `None` for an empty
    /// dataset.
    pub fn compute(dataset: &Dataset) -> Option<Self> {
        if dataset.is_empty() {
            return None;
        }
        let durations: Vec<f64> = dataset
            .sessions()
            .iter()
            .map(|s| s.duration_seconds() as f64)
            .collect();
        let mut epochs = Vec::new();
        let mut covs = Vec::new();
        for s in dataset.sessions() {
            epochs.extend_from_slice(&s.throughput);
            if s.n_epochs() >= MIN_EPOCHS_FOR_COV {
                if let Some(c) = s.throughput_cov() {
                    covs.push(c);
                }
            }
        }
        Some(DatasetStats {
            n_sessions: dataset.len(),
            unique_values: dataset.unique_value_counts(),
            duration_ecdf: Ecdf::new(&durations)?,
            throughput_ecdf: Ecdf::new(&epochs)?,
            cov_ecdf: Ecdf::new(&covs),
            n_epochs: epochs.len(),
        })
    }

    /// Fraction of (long-enough) sessions whose normalized stddev exceeds
    /// `threshold` — the paper: "about half of the sessions have normalized
    /// stddev >= 30% and 20%+ of sessions have normalized stddev >= 50%".
    pub fn cov_exceeding(&self, threshold: f64) -> Option<f64> {
        let e = self.cov_ecdf.as_ref()?;
        Some(1.0 - e.eval(threshold))
    }

    /// Renders a Table-2-style summary.
    pub fn table2(&self) -> String {
        let mut out = String::from("Feature            | # of unique values\n");
        out.push_str("-------------------+-------------------\n");
        for (name, count) in &self.unique_values {
            out.push_str(&format!("{name:<19}| {count}\n"));
        }
        out.push_str(&format!("sessions           | {}\n", self.n_sessions));
        out.push_str(&format!("epochs             | {}\n", self.n_epochs));
        out
    }

    /// Median session duration in seconds.
    pub fn median_duration(&self) -> f64 {
        self.duration_ecdf.quantile(0.5)
    }

    /// Median per-epoch throughput in Mbps.
    pub fn median_throughput(&self) -> f64 {
        self.throughput_ecdf.quantile(0.5)
    }
}

/// Pairs of consecutive-epoch throughputs `(w_t, w_{t+1})` for one cluster
/// of sessions — Figure 4b's scatter data.
pub fn consecutive_epoch_pairs(dataset: &Dataset, session_indices: &[usize]) -> Vec<(f64, f64)> {
    let mut pairs = Vec::new();
    for &i in session_indices {
        let s = dataset.get(i);
        for w in s.throughput.windows(2) {
            pairs.push((w[0], w[1]));
        }
    }
    pairs
}

/// Inter-session throughput standard deviation of session-mean throughput,
/// for Figure 6's feature-combination comparison.
pub fn intersession_stddev(dataset: &Dataset, session_indices: &[usize]) -> Option<f64> {
    let means: Vec<f64> = session_indices
        .iter()
        .filter_map(|&i| dataset.get(i).mean_throughput())
        .collect();
    stats::stddev(&means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};
    use cs2p_core::features::{FeatureSchema, FeatureVector};
    use cs2p_core::Session;

    #[test]
    fn stats_on_empty_dataset() {
        let d = Dataset::new(FeatureSchema::new(vec!["f"]), vec![]);
        assert!(DatasetStats::compute(&d).is_none());
    }

    #[test]
    fn stats_fields_consistent() {
        let (d, _) = generate(&SynthConfig {
            n_sessions: 500,
            ..Default::default()
        });
        let st = DatasetStats::compute(&d).unwrap();
        assert_eq!(st.n_sessions, 500);
        assert_eq!(st.unique_values.len(), 6);
        assert!(st.n_epochs > 500);
        assert!(st.median_duration() > 0.0);
        assert!(st.median_throughput() > 0.0);
    }

    #[test]
    fn cov_exceeding_is_monotone() {
        let (d, _) = generate(&SynthConfig {
            n_sessions: 800,
            ..Default::default()
        });
        let st = DatasetStats::compute(&d).unwrap();
        let at_10 = st.cov_exceeding(0.10).unwrap();
        let at_30 = st.cov_exceeding(0.30).unwrap();
        let at_50 = st.cov_exceeding(0.50).unwrap();
        assert!(at_10 >= at_30 && at_30 >= at_50);
    }

    #[test]
    fn table2_mentions_every_feature() {
        let (d, _) = generate(&SynthConfig {
            n_sessions: 100,
            ..Default::default()
        });
        let st = DatasetStats::compute(&d).unwrap();
        let t = st.table2();
        for name in d.schema().names() {
            assert!(t.contains(name.as_str()), "missing {name} in:\n{t}");
        }
    }

    #[test]
    fn epoch_pairs_count() {
        let schema = FeatureSchema::new(vec!["f"]);
        let s1 = Session::new(1, FeatureVector(vec![0]), 0, 6, vec![1.0, 2.0, 3.0]);
        let s2 = Session::new(2, FeatureVector(vec![0]), 10, 6, vec![4.0]);
        let d = Dataset::new(schema, vec![s1, s2]);
        let pairs = consecutive_epoch_pairs(&d, &[0, 1]);
        assert_eq!(pairs, vec![(1.0, 2.0), (2.0, 3.0)]);
    }

    #[test]
    fn intersession_stddev_zero_for_identical_sessions() {
        let schema = FeatureSchema::new(vec!["f"]);
        let mk = |id, start| Session::new(id, FeatureVector(vec![0]), start, 6, vec![2.0, 2.0]);
        let d = Dataset::new(schema, vec![mk(1, 0), mk(2, 10)]);
        assert_eq!(intersession_stddev(&d, &[0, 1]), Some(0.0));
    }
}
