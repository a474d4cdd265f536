//! The QoE model of Yin et al. \[47\], adopted verbatim by the paper (§7.1).
//!
//! For a K-chunk session:
//!
//! ```text
//! QoE = sum_k q(R_k)                      (average quality)
//!     - lambda * sum_k |q(R_{k+1}) - q(R_k)|   (smoothness penalty)
//!     - mu    * sum_k rebuffer_k           (stall penalty)
//!     - mu_s  * startup_delay              (startup penalty)
//! ```
//!
//! with `q` the identity on bitrate (kbps) and, per the paper,
//! `lambda = 1`, `mu = mu_s = 3000` (kbps-equivalents per stall second).

use serde::{Deserialize, Serialize};

/// QoE weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeParams {
    /// Smoothness weight `lambda`.
    pub lambda: f64,
    /// Rebuffer penalty `mu` (per second).
    pub mu_rebuffer: f64,
    /// Startup-delay penalty `mu_s` (per second).
    pub mu_startup: f64,
}

impl Default for QoeParams {
    fn default() -> Self {
        QoeParams {
            lambda: 1.0,
            mu_rebuffer: 3000.0,
            mu_startup: 3000.0,
        }
    }
}

/// Per-chunk outcome of a simulated (or real) playback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Ladder index chosen.
    pub level: usize,
    /// Bitrate played, kbps.
    pub bitrate_kbps: f64,
    /// Wall-clock download time, seconds.
    pub download_seconds: f64,
    /// Stall incurred while this chunk downloaded, seconds.
    pub rebuffer_seconds: f64,
    /// Buffer level right after the chunk arrived, seconds.
    pub buffer_after_seconds: f64,
    /// Throughput the predictor forecast for this chunk, Mbps (if any).
    pub predicted_mbps: Option<f64>,
    /// Throughput actually measured over the download, Mbps.
    pub actual_mbps: f64,
}

/// A whole session's playback outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Per-chunk records, in playback order.
    pub chunks: Vec<ChunkRecord>,
    /// Startup delay (time to first frame), seconds.
    pub startup_delay_seconds: f64,
}

impl SessionOutcome {
    /// The QoE of this outcome under `params`.
    ///
    /// The startup chunk's download time *is* the startup delay and is not
    /// double-counted as rebuffering (its `rebuffer_seconds` is zero by
    /// construction in the simulator).
    pub fn qoe(&self, params: &QoeParams) -> f64 {
        let quality: f64 = self.chunks.iter().map(|c| c.bitrate_kbps).sum();
        let smoothness: f64 = self
            .chunks
            .windows(2)
            .map(|w| (w[1].bitrate_kbps - w[0].bitrate_kbps).abs())
            .sum();
        let rebuffer: f64 = self.chunks.iter().map(|c| c.rebuffer_seconds).sum();
        quality
            - params.lambda * smoothness
            - params.mu_rebuffer * rebuffer
            - params.mu_startup * self.startup_delay_seconds
    }

    /// Average bitrate over the session, kbps (the paper's AvgBitrate).
    pub fn avg_bitrate_kbps(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        self.chunks.iter().map(|c| c.bitrate_kbps).sum::<f64>() / self.chunks.len() as f64
    }

    /// Fraction of chunks that played without rebuffering (GoodRatio).
    pub fn good_ratio(&self) -> f64 {
        if self.chunks.is_empty() {
            return 1.0;
        }
        let good = self
            .chunks
            .iter()
            .filter(|c| c.rebuffer_seconds == 0.0)
            .count();
        good as f64 / self.chunks.len() as f64
    }

    /// Total stall time, excluding startup, seconds.
    pub fn total_rebuffer_seconds(&self) -> f64 {
        self.chunks.iter().map(|c| c.rebuffer_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(bitrate: f64, rebuf: f64) -> ChunkRecord {
        ChunkRecord {
            level: 0,
            bitrate_kbps: bitrate,
            download_seconds: 1.0,
            rebuffer_seconds: rebuf,
            buffer_after_seconds: 10.0,
            predicted_mbps: None,
            actual_mbps: 2.0,
        }
    }

    #[test]
    fn qoe_of_smooth_stall_free_session() {
        let outcome = SessionOutcome {
            chunks: vec![chunk(1000.0, 0.0); 4],
            startup_delay_seconds: 0.0,
        };
        assert_eq!(outcome.qoe(&QoeParams::default()), 4000.0);
    }

    #[test]
    fn smoothness_penalty_counts_both_directions() {
        let outcome = SessionOutcome {
            chunks: vec![chunk(1000.0, 0.0), chunk(2000.0, 0.0), chunk(1000.0, 0.0)],
            startup_delay_seconds: 0.0,
        };
        // quality 4000, switches |1000| + |-1000| = 2000.
        assert_eq!(outcome.qoe(&QoeParams::default()), 4000.0 - 2000.0);
    }

    #[test]
    fn rebuffer_and_startup_penalties() {
        let outcome = SessionOutcome {
            chunks: vec![chunk(1000.0, 0.5), chunk(1000.0, 0.0)],
            startup_delay_seconds: 2.0,
        };
        let q = outcome.qoe(&QoeParams::default());
        assert_eq!(q, 2000.0 - 3000.0 * 0.5 - 3000.0 * 2.0);
    }

    #[test]
    fn aggregate_metrics() {
        let outcome = SessionOutcome {
            chunks: vec![chunk(1000.0, 0.0), chunk(2000.0, 1.0), chunk(2000.0, 0.0)],
            startup_delay_seconds: 1.0,
        };
        assert!((outcome.avg_bitrate_kbps() - 5000.0 / 3.0).abs() < 1e-12);
        assert!((outcome.good_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(outcome.total_rebuffer_seconds(), 1.0);
    }

    #[test]
    fn empty_session_edge_cases() {
        let outcome = SessionOutcome {
            chunks: vec![],
            startup_delay_seconds: 0.0,
        };
        assert_eq!(outcome.qoe(&QoeParams::default()), 0.0);
        assert_eq!(outcome.avg_bitrate_kbps(), 0.0);
        assert_eq!(outcome.good_ratio(), 1.0);
    }
}
