//! The throughput-predictor interface, the CS2P predictor (Algorithm 1),
//! and the controlled-error oracle used to reproduce Figure 2.
//!
//! Every prediction method in the paper — CS2P itself, the history-based
//! baselines (LS, HM, AR), the learning baselines (SVR, GBR), the last-mile
//! heuristics, and the global HMM — implements [`ThroughputPredictor`] so
//! the simulator and the evaluation harness can treat them uniformly.

use crate::engine::ClusterModel;
use cs2p_ml::hmm::HmmFilter;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A per-session online throughput predictor.
///
/// The contract mirrors the player loop: ask for a prediction, pick a
/// bitrate, download the chunk, measure the actual throughput, call
/// [`observe`](ThroughputPredictor::observe), repeat.
pub trait ThroughputPredictor {
    /// Short name used in reports (e.g. `"CS2P"`, `"HM"`).
    fn name(&self) -> &str;

    /// Prediction for the very first epoch, before any measurement.
    ///
    /// History-only methods (LS, HM, AR) cannot produce one and return
    /// `None` — matching the paper's note that they "can not be used for
    /// the initial throughput prediction" (§7.2).
    fn predict_initial(&mut self) -> Option<f64>;

    /// Prediction `k >= 1` epochs ahead of the last observed epoch.
    /// Returns `None` when the method has no basis yet (e.g. no history).
    fn predict_ahead(&mut self, k: usize) -> Option<f64>;

    /// Prediction for the immediately next epoch.
    fn predict_next(&mut self) -> Option<f64> {
        self.predict_ahead(1)
    }

    /// The whole look-ahead window an MPC controller asks for before a
    /// decision: `out[k - 1]` is what [`predict_ahead(k)`] returns, for
    /// `k = 1..=out.len()` in that order. Model-based predictors override
    /// it to carry their state forward one step per entry instead of
    /// restarting from the last observation for each `k`.
    ///
    /// [`predict_ahead(k)`]: ThroughputPredictor::predict_ahead
    fn predict_horizon(&mut self, out: &mut [Option<f64>]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.predict_ahead(i + 1);
        }
    }

    /// Feeds the measured throughput of the epoch that just completed.
    fn observe(&mut self, throughput: f64);

    /// Clears per-session state (model state is retained).
    fn reset(&mut self);

    /// Informs the predictor of the current wall-clock position within the
    /// session, in epochs (fractional). Simulators call this before asking
    /// for predictions, because download time drifts from chunk count when
    /// stalls or buffer-full waits occur. Most predictors ignore it; the
    /// trace-indexed [`NoisyOracle`] uses it to stay aligned with the
    /// network it is an oracle *of*.
    fn sync_clock(&mut self, _epoch_position: f64) {}
}

/// EWMA weight of the per-session calibration factor.
const CALIBRATION_ALPHA: f64 = 0.15;
/// Per-observation clamp on the calibration ratio (state switches produce
/// transient outlier ratios that must not swing the scale).
const CALIBRATION_RATIO_CLAMP: (f64, f64) = (0.5, 2.0);
/// Overall clamp on the calibration factor.
const CALIBRATION_CLAMP: (f64, f64) = (0.4, 2.5);

/// The CS2P predictor: cluster-median initial prediction plus the
/// per-cluster HMM filter for midstream epochs — Algorithm 1 end to end.
///
/// ## Per-session calibration
///
/// The paper trains one HMM per cluster and reads predictions straight off
/// the state means. At iQiyi scale clusters are nearly homogeneous; at
/// reproduction scale a cluster's sessions sit at somewhat different
/// absolute levels (last-mile jitter, pooled paths), which turns into a
/// *persistent* per-session bias — and a persistently optimistic
/// prediction is exactly what an MPC controller converts into repeated
/// stalls. The predictor therefore keeps an EWMA of
/// `observed / predicted` and rescales the cluster model onto the session
/// (on by default; [`without_calibration`](Self::without_calibration)
/// disables it — `cs2p-eval ablations` quantifies the difference).
#[derive(Debug, Clone)]
pub struct Cs2pPredictor<'a> {
    model: &'a ClusterModel,
    filter: HmmFilter<'a>,
    calibrate: bool,
    calibration: f64,
}

impl<'a> Cs2pPredictor<'a> {
    /// Builds the predictor over a trained cluster model.
    pub fn new(model: &'a ClusterModel) -> Self {
        Cs2pPredictor {
            filter: model.hmm.filter(),
            model,
            calibrate: true,
            calibration: 1.0,
        }
    }

    /// The paper-literal variant: raw state-mean readout, no per-session
    /// calibration.
    pub fn without_calibration(model: &'a ClusterModel) -> Self {
        Cs2pPredictor {
            calibrate: false,
            ..Self::new(model)
        }
    }

    /// The cluster model in use.
    pub fn model(&self) -> &ClusterModel {
        self.model
    }

    /// Read access to the underlying filter (diagnostics).
    pub fn filter(&self) -> &HmmFilter<'a> {
        &self.filter
    }

    /// Current calibration factor (1.0 until observations arrive or when
    /// calibration is disabled).
    pub fn calibration(&self) -> f64 {
        self.calibration
    }
}

impl ThroughputPredictor for Cs2pPredictor<'_> {
    fn name(&self) -> &str {
        "CS2P"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        cs2p_obs::counter_add("predict.cs2p.initial", 1);
        Some(self.model.initial_median)
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        cs2p_obs::counter_add("predict.cs2p.midstream", 1);
        let raw = if self.filter.epoch() == 0 {
            // No measurement yet: Algorithm 1 line 5 — the cluster median.
            // (Horizons beyond the first epoch propagate pi_0.)
            if k == 1 {
                return Some(self.model.initial_median);
            }
            self.filter.predict_ahead(k)
        } else {
            self.filter.predict_ahead(k)
        };
        Some(raw * self.calibration)
    }

    fn predict_horizon(&mut self, out: &mut [Option<f64>]) {
        if out.is_empty() {
            return;
        }
        // One count per entry, as the per-`k` calls would have made.
        cs2p_obs::counter_add("predict.cs2p.midstream", out.len() as u64);
        let mut raw = vec![0.0; out.len()];
        self.filter.predict_horizon(&mut raw);
        for (slot, v) in out.iter_mut().zip(raw) {
            *slot = Some(v * self.calibration);
        }
        if self.filter.epoch() == 0 {
            out[0] = Some(self.model.initial_median);
        }
    }

    fn observe(&mut self, throughput: f64) {
        if self.calibrate && self.filter.epoch() > 0 {
            // Ratio against the uncalibrated state-mean forecast for this
            // epoch, so the EWMA estimates the model-to-session scale.
            let predicted = self.filter.predict_next();
            if predicted > 0.0 && throughput > 0.0 {
                let ratio = (throughput / predicted)
                    .clamp(CALIBRATION_RATIO_CLAMP.0, CALIBRATION_RATIO_CLAMP.1);
                self.calibration = ((1.0 - CALIBRATION_ALPHA) * self.calibration
                    + CALIBRATION_ALPHA * ratio)
                    .clamp(CALIBRATION_CLAMP.0, CALIBRATION_CLAMP.1);
            }
        }
        self.filter.observe(throughput);
    }

    fn reset(&mut self) {
        self.filter.reset();
        self.calibration = 1.0;
    }
}

/// An oracle that knows the session's future trace and corrupts it with a
/// controlled relative error — the instrument behind Figure 2 ("Midstream
/// QoE vs. prediction accuracy").
///
/// For error level `e`, each prediction is `actual * (1 + e * u)` with
/// `u ~ Uniform[-1, 1]`, seeded for reproducibility.
#[derive(Debug, Clone)]
pub struct NoisyOracle {
    trace: Vec<f64>,
    error: f64,
    position: usize,
    window: usize,
    rng: ChaCha8Rng,
    seed: u64,
}

impl NoisyOracle {
    /// Creates an oracle over the true per-epoch trace.
    pub fn new(trace: Vec<f64>, error: f64, seed: u64) -> Self {
        Self::with_window(trace, error, seed, 1)
    }

    /// Like [`new`](Self::new), but each prediction is the harmonic mean
    /// of the next `window` epochs instead of a single epoch's rate — the
    /// right notion of "the throughput the next chunk will see" when a
    /// chunk download spans epoch boundaries (as a 6-second chunk on a
    /// loaded link always does).
    pub fn with_window(trace: Vec<f64>, error: f64, seed: u64, window: usize) -> Self {
        assert!(error >= 0.0, "error level must be nonnegative");
        assert!(window >= 1);
        NoisyOracle {
            trace,
            error,
            position: 0,
            window,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// Epochs consumed so far.
    pub fn position(&self) -> usize {
        self.position
    }

    fn noisy(&mut self, actual: f64) -> f64 {
        let u: f64 = self.rng.gen_range(-1.0..=1.0);
        (actual * (1.0 + self.error * u)).max(0.0)
    }

    fn windowed(&self, start: usize) -> Option<f64> {
        if start >= self.trace.len() {
            return None;
        }
        let end = (start + self.window).min(self.trace.len());
        cs2p_ml::stats::harmonic_mean(&self.trace[start..end])
            .or_else(|| self.trace.get(start).copied())
    }
}

impl ThroughputPredictor for NoisyOracle {
    fn name(&self) -> &str {
        "NoisyOracle"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        let actual = self.windowed(0)?;
        Some(self.noisy(actual))
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        let actual = self.windowed(self.position + k - 1)?;
        Some(self.noisy(actual))
    }

    fn observe(&mut self, _throughput: f64) {
        self.position += 1;
    }

    fn reset(&mut self) {
        self.position = 0;
        self.rng = ChaCha8Rng::seed_from_u64(self.seed);
    }

    fn sync_clock(&mut self, epoch_position: f64) {
        self.position = epoch_position.max(0.0).floor() as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use cs2p_ml::gaussian::Gaussian;
    use cs2p_ml::hmm::{Emission, Hmm};
    use cs2p_ml::matrix::Matrix;

    fn toy_model() -> ClusterModel {
        let hmm = Hmm::new(
            vec![0.5, 0.5],
            Matrix::from_rows(&[vec![0.95, 0.05], vec![0.1, 0.9]]),
            vec![
                Emission::Gaussian(Gaussian::new(1.0, 0.1)),
                Emission::Gaussian(Gaussian::new(4.0, 0.2)),
            ],
        );
        ClusterModel {
            spec: ClusterSpec::GLOBAL,
            key: vec![],
            initial_median: 2.5,
            hmm,
            n_sessions: 10,
        }
    }

    #[test]
    fn cs2p_initial_is_cluster_median() {
        let model = toy_model();
        let mut p = Cs2pPredictor::new(&model);
        assert_eq!(p.predict_initial(), Some(2.5));
        // Before any observation, next-epoch prediction is also the median.
        assert_eq!(p.predict_next(), Some(2.5));
    }

    #[test]
    fn cs2p_midstream_uses_hmm() {
        let model = toy_model();
        // Paper-literal readout: exact state means.
        let mut p = Cs2pPredictor::without_calibration(&model);
        p.observe(4.0);
        assert!((p.predict_next().unwrap() - 4.0).abs() < 1e-9);
        p.observe(1.0);
        p.observe(1.0);
        assert!((p.predict_next().unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(p.calibration(), 1.0);
    }

    #[test]
    fn calibration_corrects_persistent_scale_mismatch() {
        // Session consistently runs 25% below the state mean; the
        // calibrated predictor converges toward the session's true level.
        let model = toy_model();
        let mut p = Cs2pPredictor::new(&model);
        for _ in 0..12 {
            p.observe(3.0); // state-1 mean is 4.0
        }
        let pred = p.predict_next().unwrap();
        assert!(
            (pred - 3.0).abs() < 0.25,
            "calibrated prediction {pred} should approach 3.0"
        );
        // Uncalibrated predicts the raw state mean.
        let mut q = Cs2pPredictor::without_calibration(&model);
        for _ in 0..12 {
            q.observe(3.0);
        }
        assert!((q.predict_next().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cs2p_reset_restores_initial_behaviour() {
        let model = toy_model();
        let mut p = Cs2pPredictor::new(&model);
        p.observe(4.0);
        p.reset();
        assert_eq!(p.predict_next(), Some(2.5));
    }

    #[test]
    fn cs2p_lookahead_is_defined_at_every_stage() {
        let model = toy_model();
        let mut p = Cs2pPredictor::new(&model);
        for k in 1..5 {
            assert!(p.predict_ahead(k).is_some());
        }
        p.observe(1.0);
        for k in 1..5 {
            assert!(p.predict_ahead(k).is_some());
        }
    }

    #[test]
    fn cs2p_horizon_is_the_per_step_window_bit_for_bit() {
        let model = toy_model();
        let mut p = Cs2pPredictor::new(&model);
        // Epoch 0 (cluster median first), then as calibration drifts off 1.
        for w in [None, Some(3.0), Some(3.1), Some(0.9), Some(4.4)] {
            if let Some(w) = w {
                p.observe(w);
            }
            for h in 0..=8 {
                let mut window = vec![None; h];
                p.predict_horizon(&mut window);
                let per_step: Vec<Option<f64>> = (1..=h).map(|k| p.predict_ahead(k)).collect();
                let bits =
                    |xs: &[Option<f64>]| xs.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
                assert_eq!(bits(&window), bits(&per_step), "after {w:?}, h={h}");
            }
        }
    }

    #[test]
    fn default_horizon_asks_each_step_in_order() {
        // The oracle has no override: the window is its per-step answers.
        let mut o = NoisyOracle::new(vec![1.0, 2.0, 3.0, 4.0], 0.0, 1);
        o.observe(1.0);
        let mut window = [None; 4];
        o.predict_horizon(&mut window);
        assert_eq!(window, [Some(2.0), Some(3.0), Some(4.0), None]);
    }

    #[test]
    fn oracle_with_zero_error_is_perfect() {
        let trace = vec![1.0, 2.0, 3.0, 4.0];
        let mut o = NoisyOracle::new(trace.clone(), 0.0, 1);
        assert_eq!(o.predict_initial(), Some(1.0));
        assert_eq!(o.predict_next(), Some(1.0));
        o.observe(1.0);
        assert_eq!(o.predict_next(), Some(2.0));
        assert_eq!(o.predict_ahead(2), Some(3.0));
        o.observe(2.0);
        o.observe(3.0);
        assert_eq!(o.predict_next(), Some(4.0));
        o.observe(4.0);
        assert_eq!(o.predict_next(), None); // past end of trace
    }

    #[test]
    fn oracle_error_bounded_by_level() {
        let trace = vec![10.0; 100];
        let mut o = NoisyOracle::new(trace, 0.2, 7);
        for _ in 0..100 {
            let p = o.predict_next().unwrap();
            assert!((p - 10.0).abs() <= 2.0 + 1e-9, "pred {p}");
            o.observe(10.0);
        }
    }

    #[test]
    fn oracle_reset_replays_the_same_noise() {
        let trace = vec![5.0; 10];
        let mut o = NoisyOracle::new(trace, 0.5, 3);
        let first: Vec<f64> = (0..5)
            .map(|_| {
                let p = o.predict_next().unwrap();
                o.observe(5.0);
                p
            })
            .collect();
        o.reset();
        let second: Vec<f64> = (0..5)
            .map(|_| {
                let p = o.predict_next().unwrap();
                o.observe(5.0);
                p
            })
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn oracle_never_predicts_negative() {
        let trace = vec![0.1; 50];
        let mut o = NoisyOracle::new(trace, 5.0, 11);
        for _ in 0..50 {
            assert!(o.predict_next().unwrap() >= 0.0);
            o.observe(0.1);
        }
    }
}
