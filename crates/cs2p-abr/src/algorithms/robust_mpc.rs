//! RobustMPC, after Yin et al. \[47\]: identical receding-horizon control to
//! [`Mpc`](super::Mpc), but every prediction is discounted by the maximum
//! relative prediction error observed over a recent window:
//!
//! ```text
//! W_robust = W_hat / (1 + max_{recent} err),   err = (W_hat - W) / W
//! ```
//!
//! Overestimation (the error mode MPC punishes hardest) inflates the
//! discount; a well-calibrated predictor converges to discount ≈ 1. This
//! is the paper authors' own robustness companion to FastMPC and serves
//! here as the extension ABR algorithm beyond the paper's §7 lineup.

use super::mpc::{Mpc, MpcConfig};
use super::{AbrAlgorithm, AbrContext};
use std::collections::VecDeque;

/// Chunks of error history the discount looks back over (Yin et al.: 5).
const ERROR_WINDOW: usize = 5;

/// The robust variant of MPC.
#[derive(Debug, Clone)]
pub struct RobustMpc {
    inner: Mpc,
    /// Prediction made for the chunk currently downloading.
    pending_prediction: Option<f64>,
    /// Recent positive relative errors (overestimates only).
    recent_errors: VecDeque<f64>,
}

impl RobustMpc {
    /// RobustMPC over the given MPC configuration.
    pub fn new(config: MpcConfig) -> Self {
        RobustMpc {
            inner: Mpc::new(config),
            pending_prediction: None,
            recent_errors: VecDeque::with_capacity(ERROR_WINDOW),
        }
    }

    /// Current discount divisor `1 + max recent error`.
    fn discount(&self) -> f64 {
        1.0 + self.recent_errors.iter().copied().fold(0.0f64, f64::max)
    }
}

impl Default for RobustMpc {
    fn default() -> Self {
        RobustMpc::new(MpcConfig::default())
    }
}

impl AbrAlgorithm for RobustMpc {
    fn name(&self) -> &str {
        "RobustMPC"
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }

    fn select_level(&mut self, ctx: &AbrContext) -> usize {
        // Account the realized error of the previous chunk's prediction.
        if let (Some(pred), Some(actual)) = (self.pending_prediction, ctx.last_actual_mbps) {
            if actual > 0.0 {
                let err = ((pred - actual) / actual).max(0.0);
                if self.recent_errors.len() == ERROR_WINDOW {
                    self.recent_errors.pop_front();
                }
                self.recent_errors.push_back(err);
            }
        }

        let discount = self.discount();
        let discounted: Vec<Option<f64>> = ctx
            .predictions_mbps
            .iter()
            .map(|p| p.map(|w| w / discount))
            .collect();
        self.pending_prediction = ctx.predictions_mbps.first().copied().flatten();

        let robust_ctx = AbrContext {
            chunk_index: ctx.chunk_index,
            buffer_seconds: ctx.buffer_seconds,
            last_level: ctx.last_level,
            predictions_mbps: &discounted,
            last_actual_mbps: ctx.last_actual_mbps,
            video: ctx.video,
        };
        self.inner.select_level(&robust_ctx)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.pending_prediction = None;
        self.recent_errors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_ctx;
    use super::*;
    use crate::video::VideoSpec;

    #[test]
    fn no_history_behaves_like_plain_mpc() {
        let video = VideoSpec::envivio();
        let preds = vec![Some(10.0); 5];
        let mut robust = RobustMpc::default();
        let mut plain = Mpc::default();
        let ctx = test_ctx(&video, &preds, 20.0, Some(4), 10);
        assert_eq!(robust.select_level(&ctx), plain.select_level(&ctx));
        assert!((robust.discount() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overestimation_builds_a_discount() {
        let video = VideoSpec::envivio();
        let preds = vec![Some(4.0); 5];
        let mut robust = RobustMpc::default();

        // First decision: predicted 4.0.
        let ctx = test_ctx(&video, &preds, 20.0, Some(2), 5);
        robust.select_level(&ctx);
        // Reality was 2.0: a 100% overestimate.
        let mut ctx = test_ctx(&video, &preds, 20.0, Some(2), 6);
        ctx.last_actual_mbps = Some(2.0);
        robust.select_level(&ctx);
        assert!(
            (robust.discount() - 2.0).abs() < 1e-9,
            "{}",
            robust.discount()
        );
    }

    #[test]
    fn discounted_predictions_pick_lower_levels() {
        let video = VideoSpec::envivio();
        // 3.2 Mbps sustains the top rung from an 8 s buffer; halved to
        // 1.6 Mbps it stalls immediately, so the discount must downshift.
        let preds = vec![Some(3.2); 5];
        let mut robust = RobustMpc::default();
        let ctx = test_ctx(&video, &preds, 8.0, Some(4), 5);
        let undiscounted = robust.select_level(&ctx);
        // Inject a 100% overestimate; effective prediction halves to 1.6.
        let mut ctx2 = test_ctx(&video, &preds, 8.0, Some(4), 6);
        ctx2.last_actual_mbps = Some(1.6);
        let discounted = robust.select_level(&ctx2);
        assert!(
            discounted < undiscounted,
            "discounted {discounted} !< undiscounted {undiscounted}"
        );
    }

    #[test]
    fn underestimation_does_not_inflate_discount() {
        let video = VideoSpec::envivio();
        let preds = vec![Some(2.0); 5];
        let mut robust = RobustMpc::default();
        let ctx = test_ctx(&video, &preds, 20.0, Some(2), 5);
        robust.select_level(&ctx);
        let mut ctx2 = test_ctx(&video, &preds, 20.0, Some(2), 6);
        ctx2.last_actual_mbps = Some(8.0); // big underestimate
        robust.select_level(&ctx2);
        assert!((robust.discount() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_window_forgets_old_mistakes() {
        let video = VideoSpec::envivio();
        let preds = vec![Some(2.0); 5];
        let mut robust = RobustMpc::default();
        let ctx = test_ctx(&video, &preds, 20.0, Some(2), 0);
        robust.select_level(&ctx);
        // One bad overestimate, then a long run of perfect predictions.
        let mut ctx2 = test_ctx(&video, &preds, 20.0, Some(2), 1);
        ctx2.last_actual_mbps = Some(1.0);
        robust.select_level(&ctx2);
        assert!(robust.discount() > 1.5);
        for k in 2..(2 + ERROR_WINDOW + 1) {
            let mut c = test_ctx(&video, &preds, 20.0, Some(2), k);
            c.last_actual_mbps = Some(2.0); // exactly as predicted
            robust.select_level(&c);
        }
        assert!((robust.discount() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_history() {
        let video = VideoSpec::envivio();
        let preds = vec![Some(4.0); 5];
        let mut robust = RobustMpc::default();
        let ctx = test_ctx(&video, &preds, 20.0, Some(2), 0);
        robust.select_level(&ctx);
        let mut ctx2 = test_ctx(&video, &preds, 20.0, Some(2), 1);
        ctx2.last_actual_mbps = Some(1.0);
        robust.select_level(&ctx2);
        robust.reset();
        assert!((robust.discount() - 1.0).abs() < 1e-12);
    }
}
