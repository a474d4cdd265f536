//! FastMPC: the table-driven variant of MPC the paper actually deploys
//! ("Specifically, we refer to FastMPC", §5.3 footnote).
//!
//! Yin et al. observe that solving the horizon problem online is needless:
//! the decision depends only on (buffer level, throughput prediction, last
//! bitrate), so the control law can be *precomputed* over a quantized grid
//! of states and served as a lookup table. This implementation quantizes
//! the buffer linearly and the prediction geometrically, solves each grid
//! cell with the exact enumeration of [`Mpc`](super::Mpc), and answers
//! online queries with one table read — `cs2p-eval ablations` puts a
//! number on the speedup.
//!
//! Quantization detail: each online state is *floored* onto the grid
//! (never rounded up), so the table never acts on a rosier state than
//! reality — the same conservative bias the paper's table uses.

use super::mpc::{Mpc, MpcConfig};
use super::{AbrAlgorithm, AbrContext};
use crate::video::VideoSpec;

/// Quantization of the FastMPC state space.
#[derive(Debug, Clone)]
pub struct FastMpcConfig {
    /// Underlying MPC horizon and QoE weights.
    pub mpc: MpcConfig,
    /// Buffer quantization step, seconds.
    pub buffer_step: f64,
    /// Number of geometric prediction bins.
    pub pred_bins: usize,
    /// Lowest prediction bin edge, Mbps.
    pub pred_min: f64,
    /// Highest prediction bin edge, Mbps.
    pub pred_max: f64,
}

impl Default for FastMpcConfig {
    fn default() -> Self {
        FastMpcConfig {
            mpc: MpcConfig::default(),
            buffer_step: 1.0,
            pred_bins: 32,
            pred_min: 0.05,
            pred_max: 40.0,
        }
    }
}

/// The precomputed controller.
#[derive(Debug, Clone)]
pub struct FastMpc {
    config: FastMpcConfig,
    video: VideoSpec,
    /// Prediction bin lower edges, ascending.
    pred_edges: Vec<f64>,
    /// Buffer bins (0..=capacity / step).
    n_buffer_bins: usize,
    /// `table[((last + 1) * n_buffer_bins + b) * pred_bins + p]` = level.
    table: Vec<u8>,
}

impl FastMpc {
    /// Precomputes the decision table for one video.
    ///
    /// Grid size is `(levels + 1) x buffer_bins x pred_bins`; each cell is
    /// solved with the exact MPC enumeration.
    pub fn precompute(video: &VideoSpec, config: FastMpcConfig) -> Self {
        video.validate().expect("invalid video spec");
        assert!(config.buffer_step > 0.0);
        assert!(config.pred_bins >= 2);
        assert!(config.pred_min > 0.0 && config.pred_max > config.pred_min);

        let ratio = (config.pred_max / config.pred_min).powf(1.0 / (config.pred_bins - 1) as f64);
        let pred_edges: Vec<f64> = (0..config.pred_bins)
            .map(|i| config.pred_min * ratio.powi(i as i32))
            .collect();
        let n_buffer_bins =
            (video.buffer_capacity_seconds / config.buffer_step).floor() as usize + 1;
        let n_levels = video.n_levels();

        let mut solver = Mpc::new(config.mpc.clone());
        let mut table = Vec::with_capacity((n_levels + 1) * n_buffer_bins * config.pred_bins);
        // last = None is encoded as slot 0, Some(l) as slot l + 1.
        for last_slot in 0..=n_levels {
            let last_level = last_slot.checked_sub(1);
            for b in 0..n_buffer_bins {
                let buffer = b as f64 * config.buffer_step;
                for &pred in &pred_edges {
                    let predictions = vec![Some(pred); config.mpc.horizon];
                    let ctx = AbrContext {
                        // Mid-video: the full horizon applies (end-of-video
                        // clipping is a second-order effect the paper's
                        // table also ignores).
                        chunk_index: 0,
                        buffer_seconds: buffer,
                        last_level,
                        predictions_mbps: &predictions,
                        last_actual_mbps: None,
                        video,
                    };
                    table.push(solver.select_level(&ctx) as u8);
                }
            }
        }

        FastMpc {
            config,
            video: video.clone(),
            pred_edges,
            n_buffer_bins,
            table,
        }
    }

    /// Number of table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Table size in bytes (one byte per cell).
    pub fn table_bytes(&self) -> usize {
        self.table.len()
    }

    fn buffer_bin(&self, buffer: f64) -> usize {
        ((buffer / self.config.buffer_step).floor() as usize).min(self.n_buffer_bins - 1)
    }

    fn pred_bin(&self, pred: f64) -> usize {
        // Floor to the highest edge <= pred (conservative).
        self.pred_edges
            .iter()
            .rposition(|&e| e <= pred)
            .unwrap_or_default()
    }

    /// Looks up the decision for a raw (buffer, prediction, last) state.
    pub fn lookup(&self, buffer: f64, pred: f64, last_level: Option<usize>) -> usize {
        let last_slot = last_level.map_or(0, |l| l + 1);
        let b = self.buffer_bin(buffer);
        let p = self.pred_bin(pred);
        let idx = (last_slot * self.n_buffer_bins + b) * self.config.pred_bins + p;
        self.table[idx] as usize
    }
}

impl AbrAlgorithm for FastMpc {
    fn name(&self) -> &str {
        "FastMPC"
    }

    fn horizon(&self) -> usize {
        1 // the table only consumes the one-step prediction
    }

    fn select_level(&mut self, ctx: &AbrContext) -> usize {
        debug_assert_eq!(
            ctx.video.bitrates_kbps, self.video.bitrates_kbps,
            "table was precomputed for a different ladder"
        );
        match ctx.next_prediction() {
            Some(pred) => self.lookup(ctx.buffer_seconds, pred, ctx.last_level),
            None => 0,
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::super::test_ctx;
    use super::*;

    fn fast() -> FastMpc {
        FastMpc::precompute(&VideoSpec::envivio(), FastMpcConfig::default())
    }

    #[test]
    fn table_dimensions() {
        let f = fast();
        // (5 levels + none) x 31 buffer bins x 32 pred bins.
        assert_eq!(f.table_len(), 6 * 31 * 32);
        assert!(
            f.table_bytes() < 8 * 1024,
            "table {} bytes",
            f.table_bytes()
        );
    }

    #[test]
    fn matches_exact_mpc_on_grid_points() {
        let video = VideoSpec::envivio();
        let cfg = FastMpcConfig::default();
        let mut f = FastMpc::precompute(&video, cfg.clone());
        let mut exact = Mpc::new(cfg.mpc.clone());
        for last in [None, Some(0), Some(2), Some(4)] {
            for b in [0.0, 6.0, 12.0, 24.0, 30.0] {
                for &p in &f.pred_edges.clone() {
                    let predictions = vec![Some(p); cfg.mpc.horizon];
                    let mut ctx = test_ctx(&video, &predictions, b, last, 0);
                    ctx.buffer_seconds = b;
                    let want = exact.select_level(&ctx);
                    let got = f.select_level(&ctx);
                    assert_eq!(got, want, "mismatch at last={last:?} b={b} p={p}");
                }
            }
        }
    }

    #[test]
    fn off_grid_states_floor_conservatively() {
        let f = fast();
        // A prediction between bins uses the lower bin.
        let lo = f.lookup(15.0, 2.0, Some(2));
        let slightly_more = f.lookup(15.0, 2.0001, Some(2));
        assert_eq!(lo, slightly_more);
        // Flooring means the choice never exceeds the exact solver's at the
        // same raw prediction.
        let mut exact = Mpc::default();
        let video = VideoSpec::envivio();
        let predictions = vec![Some(2.0001); 5];
        let ctx = test_ctx(&video, &predictions, 15.0, Some(2), 0);
        assert!(slightly_more <= exact.select_level(&ctx));
    }

    #[test]
    fn out_of_range_predictions_clamp() {
        let f = fast();
        assert_eq!(
            f.lookup(20.0, 0.0001, Some(0)),
            f.lookup(20.0, 0.05, Some(0))
        );
        assert_eq!(
            f.lookup(20.0, 1000.0, Some(4)),
            f.lookup(20.0, 40.0, Some(4))
        );
    }

    #[test]
    fn no_prediction_is_conservative() {
        let video = VideoSpec::envivio();
        let mut f = fast();
        let predictions = vec![None; 5];
        let ctx = test_ctx(&video, &predictions, 20.0, Some(3), 0);
        assert_eq!(f.select_level(&ctx), 0);
    }

    #[test]
    fn playback_quality_close_to_exact_mpc() {
        use crate::sim::{simulate, SimConfig};
        use cs2p_core::NoisyOracle;

        let trace: Vec<f64> = (0..120)
            .map(|i| if (i / 10) % 2 == 0 { 3.0 } else { 1.0 })
            .collect();
        let cfg = SimConfig {
            prediction_seeded_start: false,
            ..Default::default()
        };
        let qoe = crate::qoe::QoeParams::default();

        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 1);
        let mut exact = Mpc::default();
        let exact_qoe = simulate(&trace, 6.0, &mut oracle, &mut exact, &cfg).qoe(&qoe);

        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 1);
        let mut table = fast();
        let fast_qoe = simulate(&trace, 6.0, &mut oracle, &mut table, &cfg).qoe(&qoe);

        // Quantization costs a little; it must stay within a few percent.
        assert!(
            fast_qoe > exact_qoe - 0.1 * exact_qoe.abs() - 2_000.0,
            "fast {fast_qoe} vs exact {exact_qoe}"
        );
    }
}
