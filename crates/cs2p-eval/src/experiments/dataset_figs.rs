//! Dataset-characterization experiments: Table 2, Figure 3, Observation 1,
//! Figures 4, 5 and 6 (§3 of the paper).

use crate::context::Materials;
use crate::runner::{
    midstream_errors, per_session_medians, render_cdf_table, NamedCdf, REPORT_QUANTILES,
};
use cs2p_core::baselines::{AutoRegressive, HarmonicMean, LastSample};
use cs2p_ml::stats;
use cs2p_trace::stats::{consecutive_epoch_pairs, intersession_stddev, DatasetStats};
use std::collections::HashMap;
use std::fmt;

/// Table 2 + Figure 3: dataset summary.
pub struct DatasetReport {
    /// The computed statistics.
    pub stats: DatasetStats,
}

impl fmt::Display for DatasetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2 — dataset summary")?;
        writeln!(f, "{}", self.stats.table2())?;
        writeln!(f, "Figure 3a — session duration CDF (seconds)")?;
        for (x, q) in self.stats.duration_ecdf.curve(11) {
            writeln!(f, "  q={q:.1}: {x:.0} s")?;
        }
        writeln!(f, "Figure 3b — per-epoch throughput CDF (Mbps)")?;
        for (x, q) in self.stats.throughput_ecdf.curve(11) {
            writeln!(f, "  q={q:.1}: {x:.2} Mbps")?;
        }
        Ok(())
    }
}

/// Computes Table 2 / Figure 3 over the full dataset (train + test).
pub fn dataset_report(materials: &Materials) -> DatasetReport {
    // Stats are about the dataset as collected, so use both days.
    let mut sessions = materials.train.sessions().to_vec();
    sessions.extend_from_slice(materials.test.sessions());
    let combined = cs2p_core::Dataset::new(materials.train.schema().clone(), sessions);
    DatasetReport {
        stats: DatasetStats::compute(&combined).expect("empty dataset"),
    }
}

/// Observation 1: intra-session variability and the failure of simple
/// history predictors.
pub struct Obs1Report {
    /// Fraction of sessions with CoV >= 30% (paper: ~half).
    pub cov_ge_30: f64,
    /// Fraction of sessions with CoV >= 50% (paper: 20%+).
    pub cov_ge_50: f64,
    /// `(method, median error, p75 error)` for LS / HM / AR.
    pub baseline_errors: Vec<(String, f64, f64)>,
}

impl fmt::Display for Obs1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Observation 1 — intra-session throughput variability")?;
        writeln!(
            f,
            "  sessions with CoV >= 30%: {:.1}%",
            self.cov_ge_30 * 100.0
        )?;
        writeln!(
            f,
            "  sessions with CoV >= 50%: {:.1}%",
            self.cov_ge_50 * 100.0
        )?;
        writeln!(
            f,
            "  simple-predictor midstream error (median / p75 of per-session medians):"
        )?;
        for (name, med, p75) in &self.baseline_errors {
            writeln!(f, "    {name}: {med:.3} / {p75:.3}")?;
        }
        Ok(())
    }
}

/// Runs the Observation-1 analysis on the test day.
pub fn obs1(materials: &Materials) -> Obs1Report {
    let stats_all = dataset_report(materials).stats;
    let cov_ge_30 = stats_all.cov_exceeding(0.30).unwrap_or(0.0);
    let cov_ge_50 = stats_all.cov_exceeding(0.50).unwrap_or(0.0);

    let indices = materials.long_test_sessions(5);
    let test = &materials.test;
    let mut baseline_errors = Vec::new();
    let mut add = |name: &str, per_session: Vec<Vec<f64>>| {
        let meds = per_session_medians(&per_session);
        baseline_errors.push((
            name.to_string(),
            stats::median(&meds).unwrap_or(f64::NAN),
            stats::percentile(&meds, 75.0).unwrap_or(f64::NAN),
        ));
    };
    add(
        "LS",
        midstream_errors(test, &indices, |_| Box::new(LastSample::new())),
    );
    add(
        "HM",
        midstream_errors(test, &indices, |_| Box::new(HarmonicMean::new())),
    );
    add(
        "AR",
        midstream_errors(test, &indices, |_| {
            Box::new(AutoRegressive::new(super::prediction::AR_ORDER))
        }),
    );

    Obs1Report {
        cov_ge_30,
        cov_ge_50,
        baseline_errors,
    }
}

/// Figure 4: stateful behaviour — an example trace and the consecutive-
/// epoch scatter of one prefix's sessions.
pub struct Fig4Report {
    /// The example session's epoch series (4a).
    pub example_trace: Vec<f64>,
    /// `(w_t, w_{t+1})` pairs for one client-prefix cluster (4b).
    pub scatter: Vec<(f64, f64)>,
    /// Lag-1 autocorrelation of the example trace — the statistical
    /// signature of statefulness.
    pub example_lag1_autocorr: f64,
    /// Viterbi segmentation of the example trace under its cluster model:
    /// `(state, start epoch, length)` episodes — the paper's "we can split
    /// the timeseries into roughly segments".
    pub episodes: Vec<(usize, usize, usize)>,
    /// Per-state `(mean, sigma)` of the segmenting model, for labelling.
    pub model_states: Vec<(f64, f64)>,
}

impl Fig4Report {
    /// Mean episode length in epochs (persistence measure).
    fn mean_episode_epochs(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        self.episodes.iter().map(|e| e.2 as f64).sum::<f64>() / self.episodes.len() as f64
    }
}

impl fmt::Display for Fig4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4a — example session trace ({} epochs)",
            self.example_trace.len()
        )?;
        let show = self.example_trace.len().min(40);
        let cells: Vec<String> = self.example_trace[..show]
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect();
        writeln!(f, "  [{} ...] Mbps", cells.join(", "))?;
        writeln!(
            f,
            "  lag-1 autocorrelation: {:.3}",
            self.example_lag1_autocorr
        )?;
        writeln!(
            f,
            "  Viterbi segmentation: {} episodes, mean length {:.1} epochs",
            self.episodes.len(),
            self.mean_episode_epochs()
        )?;
        for &(state, start, len) in self.episodes.iter().take(12) {
            let (mu, _) = self.model_states[state];
            writeln!(
                f,
                "    epochs {start:>4}..{:<4} state {state} (~{mu:.2} Mbps)",
                start + len
            )?;
        }
        if self.episodes.len() > 12 {
            writeln!(f, "    ... {} more episodes", self.episodes.len() - 12)?;
        }
        writeln!(
            f,
            "Figure 4b — consecutive-epoch pairs for one /16 prefix: {} points",
            self.scatter.len()
        )?;
        Ok(())
    }
}

/// Extracts the Figure 4 data.
pub fn fig4(materials: &Materials) -> Fig4Report {
    let test = &materials.test;
    // Longest test session is the example.
    let example = test
        .sessions()
        .iter()
        .max_by_key(|s| s.n_epochs())
        .expect("empty test set");
    let example_trace = example.throughput.clone();

    // Scatter: all sessions sharing the example's prefix (feature 0).
    let prefix = example.features.get(0);
    let indices: Vec<usize> = (0..test.len())
        .filter(|&i| test.get(i).features.get(0) == prefix)
        .collect();
    let scatter = consecutive_epoch_pairs(test, &indices);

    // Segment the example with its cluster's trained HMM (Figure 4a's
    // state annotation).
    let model = materials.engine.lookup(&example.features);
    let path = cs2p_ml::hmm::viterbi(&model.hmm, &example_trace).expect("non-empty trace");
    let model_states = model
        .hmm
        .emissions
        .iter()
        .map(|e| match e {
            cs2p_ml::hmm::Emission::Gaussian(g) | cs2p_ml::hmm::Emission::LogNormal(g) => {
                (e.mean(), g.sigma)
            }
        })
        .collect();

    Fig4Report {
        example_lag1_autocorr: lag1_autocorr(&example_trace),
        example_trace,
        scatter,
        episodes: path.episodes(),
        model_states,
    }
}

fn lag1_autocorr(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return 0.0;
    }
    let mean = stats::mean(xs).unwrap();
    let var = stats::variance(xs).unwrap();
    if var == 0.0 {
        return 1.0;
    }
    let cov: f64 = xs
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum::<f64>()
        / (xs.len() - 1) as f64;
    cov / var
}

/// Figure 5: initial-throughput CDFs of distinct clusters.
pub struct Fig5Report {
    /// One CDF per cluster (labelled by the cluster key).
    pub cdfs: Vec<NamedCdf>,
}

impl fmt::Display for Fig5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5b — initial throughput CDFs of three clusters")?;
        write!(f, "{}", render_cdf_table(&self.cdfs, &REPORT_QUANTILES))
    }
}

/// Builds initial-throughput CDFs for the three largest (ISP, city,
/// server) clusters.
pub fn fig5(materials: &Materials) -> Fig5Report {
    let all = &materials.train;
    let mut groups: HashMap<(u32, u32, u32), Vec<f64>> = HashMap::new();
    for s in all.sessions() {
        if let Some(w0) = s.initial_throughput() {
            groups
                .entry((s.features.get(1), s.features.get(4), s.features.get(5)))
                .or_default()
                .push(w0);
        }
    }
    type Group<'a> = (&'a (u32, u32, u32), &'a Vec<f64>);
    let mut ordered: Vec<Group> = groups.iter().collect();
    ordered.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
    let cdfs = ordered
        .into_iter()
        .take(3)
        .filter_map(|(key, sample)| {
            NamedCdf::new(&format!("isp{}-c{}-s{}", key.0, key.1, key.2), sample)
        })
        .collect();
    Fig5Report { cdfs }
}

/// Figure 6: throughput spread under feature-combination matching.
pub struct Fig6Report {
    /// The reference triple `(ISP, City, Server)`.
    pub triple: (u32, u32, u32),
    /// `(label, inter-session stddev of mean throughput, n sessions)` for
    /// `[X]`, `[Y]`, `[Z]`, `[X,Y]`, `[X,Z]`, `[Y,Z]`, `[X,Y,Z]`.
    pub spreads: Vec<(String, f64, usize)>,
}

impl Fig6Report {
    /// Spread under the full triple vs the best single feature.
    #[cfg(test)]
    fn triple_vs_best_single(&self) -> (f64, f64) {
        let triple = self.spreads.last().map(|(_, s, _)| *s).unwrap_or(f64::NAN);
        let best_single = self.spreads[..3]
            .iter()
            .map(|(_, s, _)| *s)
            .fold(f64::INFINITY, f64::min);
        (triple, best_single)
    }
}

impl fmt::Display for Fig6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — throughput spread vs matched feature combination (X=ISP{}, Y=City{}, Z=Server{})",
            self.triple.0, self.triple.1, self.triple.2
        )?;
        for (label, spread, n) in &self.spreads {
            writeln!(
                f,
                "  {label:<10} stddev = {spread:.3} Mbps over {n} sessions"
            )?;
        }
        Ok(())
    }
}

/// Computes the Figure 6 comparison on the largest triple.
pub fn fig6(materials: &Materials) -> Fig6Report {
    let all = &materials.train;
    let mut counts: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for s in all.sessions() {
        *counts
            .entry((s.features.get(1), s.features.get(4), s.features.get(5)))
            .or_default() += 1;
    }
    let (&triple, _) = counts
        .iter()
        .max_by_key(|(_, &n)| n)
        .expect("empty dataset");
    let (x, y, z) = triple;

    let subsets: [(&str, [Option<u32>; 3]); 7] = [
        ("[X]", [Some(x), None, None]),
        ("[Y]", [None, Some(y), None]),
        ("[Z]", [None, None, Some(z)]),
        ("[X,Y]", [Some(x), Some(y), None]),
        ("[X,Z]", [Some(x), None, Some(z)]),
        ("[Y,Z]", [None, Some(y), Some(z)]),
        ("[X,Y,Z]", [Some(x), Some(y), Some(z)]),
    ];
    let spreads = subsets
        .iter()
        .map(|(label, [fx, fy, fz])| {
            let indices: Vec<usize> = (0..all.len())
                .filter(|&i| {
                    let s = all.get(i);
                    fx.is_none_or(|v| s.features.get(1) == v)
                        && fy.is_none_or(|v| s.features.get(4) == v)
                        && fz.is_none_or(|v| s.features.get(5) == v)
                })
                .collect();
            let spread = intersession_stddev(all, &indices).unwrap_or(f64::NAN);
            (label.to_string(), spread, indices.len())
        })
        .collect();

    Fig6Report { triple, spreads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalConfig;
    use std::sync::OnceLock;

    fn materials() -> &'static Materials {
        static CELL: OnceLock<Materials> = OnceLock::new();
        CELL.get_or_init(|| Materials::prepare(EvalConfig::small()))
    }

    #[test]
    fn dataset_report_has_six_features() {
        let r = dataset_report(materials());
        assert_eq!(r.stats.unique_values.len(), 6);
        assert!(format!("{r}").contains("Figure 3a"));
    }

    #[test]
    fn obs1_shows_real_variability_and_weak_baselines() {
        let r = obs1(materials());
        assert!(r.cov_ge_30 > 0.0, "no variable sessions at all");
        assert!(r.cov_ge_30 >= r.cov_ge_50);
        assert_eq!(r.baseline_errors.len(), 3);
        for (name, med, p75) in &r.baseline_errors {
            assert!(med.is_finite() && p75 >= med, "{name} summary broken");
            assert!(*med > 0.01, "{name} suspiciously perfect: {med}");
        }
    }

    #[test]
    fn fig4_shows_stateful_persistence() {
        let r = fig4(materials());
        assert!(r.example_trace.len() >= 50);
        assert!(
            r.example_lag1_autocorr > 0.3,
            "trace not persistent: autocorr {}",
            r.example_lag1_autocorr
        );
        assert!(!r.scatter.is_empty());
    }

    #[test]
    fn fig4_viterbi_segments_are_persistent() {
        let r = fig4(materials());
        // Episodes must tile the trace exactly...
        let total: usize = r.episodes.iter().map(|e| e.2).sum();
        assert_eq!(total, r.example_trace.len());
        // ...and be long on average (the paper's "segments", not flicker).
        assert!(
            r.mean_episode_epochs() > 3.0,
            "mean episode {:.1} epochs — segmentation is flickering",
            r.mean_episode_epochs()
        );
        // State ids must be valid for the labelling table.
        assert!(r.episodes.iter().all(|&(s, _, _)| s < r.model_states.len()));
    }

    #[test]
    fn fig5_clusters_differ() {
        let r = fig5(materials());
        assert_eq!(r.cdfs.len(), 3);
        let medians: Vec<f64> = r.cdfs.iter().map(NamedCdf::median).collect();
        // At least two clusters clearly apart.
        let spread = stats::max(&medians).unwrap() / stats::min(&medians).unwrap().max(1e-9);
        assert!(spread > 1.2, "cluster medians too close: {medians:?}");
    }

    #[test]
    fn fig6_triple_is_tighter_than_singles() {
        let r = fig6(materials());
        assert_eq!(r.spreads.len(), 7);
        let (triple, best_single) = r.triple_vs_best_single();
        assert!(
            triple < best_single,
            "triple spread {triple} !< best single {best_single}"
        );
    }
}
