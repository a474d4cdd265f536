//! Shared prediction-evaluation loops, text-report helpers and the one
//! timing helper.

use cs2p_core::{abs_normalized_error, Dataset, Session, ThroughputPredictor};
use cs2p_ml::stats::{self, Ecdf};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Walks one session through a predictor, collecting the absolute
/// normalized error (Eq. 1) of every one-step midstream prediction.
#[allow(clippy::needless_range_loop)] // t indexes actuals and predictions in lockstep
fn midstream_errors_for_session(
    predictor: &mut dyn ThroughputPredictor,
    session: &Session,
) -> Vec<f64> {
    let mut errors = Vec::new();
    let series = &session.throughput;
    if series.len() < 2 {
        return errors;
    }
    predictor.observe(series[0]);
    for t in 1..series.len() {
        if let Some(pred) = predictor.predict_next() {
            errors.push(abs_normalized_error(pred, series[t]));
        }
        predictor.observe(series[t]);
    }
    errors
}

/// `k`-step-ahead error of every prediction a session admits.
pub fn horizon_errors_for_session(
    predictor: &mut dyn ThroughputPredictor,
    session: &Session,
    k: usize,
) -> Vec<f64> {
    let mut errors = Vec::new();
    let series = &session.throughput;
    if series.len() < k + 1 {
        return errors;
    }
    predictor.observe(series[0]);
    for t in 1..=(series.len() - k) {
        if let Some(pred) = predictor.predict_ahead(k) {
            errors.push(abs_normalized_error(pred, series[t + k - 1]));
        }
        predictor.observe(series[t]);
    }
    errors
}

/// Runs a predictor factory over every indexed test session, returning the
/// per-session midstream error series.
pub fn midstream_errors<'a, F>(
    test: &'a Dataset,
    indices: &[usize],
    mut factory: F,
) -> Vec<Vec<f64>>
where
    F: FnMut(&'a Session) -> Box<dyn ThroughputPredictor + 'a>,
{
    let _span = cs2p_obs::span("predict.midstream");
    let per_session: Vec<Vec<f64>> = indices
        .iter()
        .map(|&i| {
            let session = test.get(i);
            let mut predictor = factory(session);
            midstream_errors_for_session(predictor.as_mut(), session)
        })
        .collect();
    if cs2p_obs::enabled() {
        cs2p_obs::counter_add("predict.midstream.sessions", per_session.len() as u64);
        let samples: u64 = per_session.iter().map(|v| v.len() as u64).sum();
        cs2p_obs::counter_add("predict.midstream.samples", samples);
    }
    per_session
}

/// Initial-epoch errors across sessions (methods that cannot predict the
/// initial epoch contribute nothing).
pub fn initial_errors<'a, F>(test: &'a Dataset, indices: &[usize], mut factory: F) -> Vec<f64>
where
    F: FnMut(&'a Session) -> Box<dyn ThroughputPredictor + 'a>,
{
    let _span = cs2p_obs::span("predict.initial");
    let mut errors = Vec::new();
    for &i in indices {
        let session = test.get(i);
        let Some(actual) = session.initial_throughput() else {
            continue;
        };
        let mut predictor = factory(session);
        if let Some(pred) = predictor.predict_initial() {
            errors.push(abs_normalized_error(pred, actual));
        }
    }
    cs2p_obs::counter_add("predict.initial.samples", errors.len() as u64);
    errors
}

/// Flattens per-session error series and reduces to the per-session-median
/// values (the unit the paper's CDFs are drawn over).
pub fn per_session_medians(per_session: &[Vec<f64>]) -> Vec<f64> {
    per_session
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v).unwrap())
        .collect()
}

/// A named empirical CDF, one line of a paper figure.
#[derive(Debug, Clone)]
pub struct NamedCdf {
    /// Legend label.
    pub name: String,
    /// The distribution.
    pub ecdf: Ecdf,
}

impl NamedCdf {
    /// Builds from a sample; `None` when the sample is empty.
    pub fn new(name: &str, sample: &[f64]) -> Option<Self> {
        Some(NamedCdf {
            name: name.to_string(),
            ecdf: Ecdf::new(sample)?,
        })
    }

    /// Median of the distribution.
    pub fn median(&self) -> f64 {
        self.ecdf.quantile(0.5)
    }
}

/// Renders a set of CDFs as a quantile table (rows = quantiles, columns =
/// series) — the textual equivalent of the paper's CDF figures.
pub fn render_cdf_table(cdfs: &[NamedCdf], quantiles: &[f64]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "q"));
    for c in cdfs {
        out.push_str(&format!(" | {:>12}", truncate(&c.name, 12)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(8 + cdfs.len() * 15));
    out.push('\n');
    for &q in quantiles {
        out.push_str(&format!("{q:>8.2}"));
        for c in cdfs {
            out.push_str(&format!(" | {:>12.4}", c.ecdf.quantile(q)));
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

/// Standard quantile grid for report tables.
pub const REPORT_QUANTILES: [f64; 9] = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];

/// Median wall time of one `routine` call: one warm-up call sizes the
/// batches to about 1 ms (1 to 10,000 calls each), then `samples`
/// batches are timed and each is divided by its call count. Every result
/// goes through `black_box`, so the work cannot be optimised away.
pub fn median_per_iter<T>(samples: usize, mut routine: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    black_box(routine());
    let once = start.elapsed().max(Duration::from_nanos(50));
    let iters = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed() / iters
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_core::baselines::LastSample;
    use cs2p_core::features::{FeatureSchema, FeatureVector};

    fn session(tp: Vec<f64>) -> Session {
        Session::new(1, FeatureVector(vec![0]), 0, 6, tp)
    }

    #[test]
    fn midstream_errors_last_sample() {
        let s = session(vec![1.0, 2.0, 1.0]);
        let mut ls = LastSample::new();
        let errs = midstream_errors_for_session(&mut ls, &s);
        // predict 1.0 vs 2.0 -> 0.5; predict 2.0 vs 1.0 -> 1.0.
        assert_eq!(errs.len(), 2);
        assert!((errs[0] - 0.5).abs() < 1e-12);
        assert!((errs[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizon_errors_reduce_sample_count() {
        let s = session(vec![1.0; 10]);
        let mut ls = LastSample::new();
        let e1 = horizon_errors_for_session(&mut ls, &s, 1);
        let mut ls = LastSample::new();
        let e3 = horizon_errors_for_session(&mut ls, &s, 3);
        assert_eq!(e1.len(), 9);
        assert_eq!(e3.len(), 7);
        assert!(e3.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn initial_errors_skip_incapable_predictors() {
        let schema = FeatureSchema::new(vec!["f"]);
        let d = Dataset::new(schema, vec![session(vec![2.0, 2.0])]);
        let errs = initial_errors(&d, &[0], |_| Box::new(LastSample::new()));
        assert!(errs.is_empty());
    }

    #[test]
    fn per_session_medians_skips_empty() {
        let m = per_session_medians(&[vec![0.1, 0.3], vec![], vec![0.5]]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn cdf_table_renders_all_series() {
        let a = NamedCdf::new("alpha", &[0.1, 0.2, 0.3]).unwrap();
        let b = NamedCdf::new("beta", &[1.0, 2.0]).unwrap();
        let t = render_cdf_table(&[a, b], &[0.5, 1.0]);
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.lines().count() >= 4);
    }
}
