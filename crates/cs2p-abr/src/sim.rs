//! The trace-driven playback simulator (§7.1's "custom simulator
//! simulating the video download and playback process and the buffer
//! dynamics").
//!
//! One call plays one video over one recorded throughput trace with one
//! (predictor, ABR algorithm) pair:
//!
//! 1. ask the predictor for a lookahead window of throughput forecasts;
//! 2. let the ABR algorithm (or, for the first chunk, the paper's
//!    highest-sustainable-below-prediction rule) pick the level;
//! 3. download the chunk over the [`TraceNetwork`], observe the measured
//!    throughput, account buffer/stall effects;
//! 4. feed the measurement back to the predictor; repeat.

use crate::algorithms::{AbrAlgorithm, AbrContext};
use crate::buffer::PlayerBuffer;
use crate::network::TraceNetwork;
use crate::qoe::{ChunkRecord, QoeParams, SessionOutcome};
use crate::video::VideoSpec;
use cs2p_core::ThroughputPredictor;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The video to play.
    pub video: VideoSpec,
    /// QoE weights (used by consumers; the simulator itself only records).
    pub qoe: QoeParams,
    /// Use the paper's initial rule (highest sustainable level below the
    /// predicted initial throughput) for chunk 0 when the predictor offers
    /// an initial prediction; otherwise ask the ABR algorithm.
    pub prediction_seeded_start: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            video: VideoSpec::envivio(),
            qoe: QoeParams::default(),
            prediction_seeded_start: true,
        }
    }
}

/// Plays the video over `trace_mbps` (per-epoch throughput, `epoch_seconds`
/// per sample) and returns the per-chunk outcome.
pub fn simulate(
    trace_mbps: &[f64],
    epoch_seconds: f64,
    predictor: &mut dyn ThroughputPredictor,
    abr: &mut dyn AbrAlgorithm,
    config: &SimConfig,
) -> SessionOutcome {
    let video = &config.video;
    video.validate().expect("invalid video spec");
    let mut network = TraceNetwork::new(trace_mbps, epoch_seconds);
    let mut buffer = PlayerBuffer::new(video.buffer_capacity_seconds);
    let horizon = abr.horizon().max(1);

    let mut chunks = Vec::with_capacity(video.n_chunks);
    let mut startup_delay = 0.0;
    let mut last_level: Option<usize> = None;
    let mut last_actual: Option<f64> = None;

    for chunk_index in 0..video.n_chunks {
        // Keep clock-aware predictors (the Figure-2 oracle) aligned with
        // the network: stalls and waits make chunk count drift from time.
        predictor.sync_clock(network.now() / epoch_seconds);

        // Collect the prediction window: one horizon call per decision.
        // Chunk 0 differs only in its first step, which is the initial
        // prediction (asked first, and `predict_ahead(1)` never).
        let mut predictions: Vec<Option<f64>> = vec![None; horizon];
        if chunk_index == 0 {
            predictions[0] = predictor.predict_initial();
            for k in 2..=horizon {
                predictions[k - 1] = predictor.predict_ahead(k);
            }
        } else {
            predictor.predict_horizon(&mut predictions);
        }

        // Choose the level.
        let level = if chunk_index == 0 && config.prediction_seeded_start {
            match predictions[0] {
                Some(pred) => video.highest_sustainable(pred),
                None => {
                    let ctx = AbrContext {
                        chunk_index,
                        buffer_seconds: buffer.level(),
                        last_level,
                        predictions_mbps: &predictions,
                        last_actual_mbps: last_actual,
                        video,
                    };
                    abr.select_level(&ctx)
                }
            }
        } else {
            let ctx = AbrContext {
                chunk_index,
                buffer_seconds: buffer.level(),
                last_level,
                predictions_mbps: &predictions,
                last_actual_mbps: last_actual,
                video,
            };
            abr.select_level(&ctx)
        };
        let level = level.min(video.n_levels() - 1);

        // Download.
        let size_kbits = video.chunk_kbits(level);
        let download = network.download(size_kbits);
        let measured_mbps = size_kbits / 1000.0 / download.max(1e-9);

        // Buffer accounting. The first chunk's download time is the startup
        // delay — playback hasn't begun, so it is not a stall.
        let update = if chunk_index == 0 {
            startup_delay = download;
            buffer.complete_download(0.0, video.chunk_seconds)
        } else {
            buffer.complete_download(download, video.chunk_seconds)
        };
        // Buffer-full backpressure: the player idles (and playback drains
        // the excess — already folded into the capped level).
        if update.wait_seconds > 0.0 {
            network.wait(update.wait_seconds);
        }

        predictor.observe(measured_mbps);
        last_actual = Some(measured_mbps);

        chunks.push(ChunkRecord {
            level,
            bitrate_kbps: video.bitrates_kbps[level],
            download_seconds: download,
            rebuffer_seconds: update.rebuffer_seconds,
            buffer_after_seconds: update.level_after_seconds,
            predicted_mbps: predictions[0],
            actual_mbps: measured_mbps,
        });
        last_level = Some(level);
    }

    if cs2p_obs::enabled() {
        cs2p_obs::counter_add("stream.sessions", 1);
        cs2p_obs::counter_add("stream.chunks", chunks.len() as u64);
        let rebuffer: f64 = chunks.iter().map(|c| c.rebuffer_seconds).sum();
        cs2p_obs::observe("stream.rebuffer_seconds", rebuffer);
        cs2p_obs::observe("stream.startup_delay_seconds", startup_delay);
        if rebuffer > 0.0 {
            cs2p_obs::counter_add("stream.sessions_with_rebuffer", 1);
        }
    }

    SessionOutcome {
        chunks,
        startup_delay_seconds: startup_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BufferBased, FixedBitrate, Mpc, RateBased};
    use cs2p_core::NoisyOracle;

    fn flat_trace(mbps: f64, epochs: usize) -> Vec<f64> {
        vec![mbps; epochs]
    }

    #[test]
    fn perfect_oracle_plus_rb_never_stalls_on_flat_trace() {
        let trace = flat_trace(2.5, 100);
        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut rb = RateBased::default();
        let outcome = simulate(&trace, 6.0, &mut oracle, &mut rb, &SimConfig::default());
        assert_eq!(outcome.chunks.len(), 43);
        assert_eq!(outcome.total_rebuffer_seconds(), 0.0);
        // 2.5 Mbps sustains the 2000 kbps rung exactly.
        assert!(outcome.chunks.iter().all(|c| c.bitrate_kbps == 2000.0));
        assert_eq!(outcome.good_ratio(), 1.0);
    }

    #[test]
    fn startup_delay_is_first_chunk_download() {
        let trace = flat_trace(1.0, 100);
        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut fixed = FixedBitrate::new(0);
        let cfg = SimConfig {
            prediction_seeded_start: false,
            ..Default::default()
        };
        let outcome = simulate(&trace, 6.0, &mut oracle, &mut fixed, &cfg);
        // 350 kbps * 6 s = 2100 kbits at 1 Mbps = 2.1 s.
        assert!((outcome.startup_delay_seconds - 2.1).abs() < 1e-9);
        assert_eq!(outcome.chunks[0].rebuffer_seconds, 0.0);
    }

    #[test]
    fn oversubscribed_fixed_bitrate_stalls() {
        // 3000 kbps video over a 1 Mbps link: every chunk takes 18 s
        // against 6 s of playback.
        let trace = flat_trace(1.0, 200);
        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut fixed = FixedBitrate::new(4);
        let cfg = SimConfig {
            prediction_seeded_start: false,
            ..Default::default()
        };
        let outcome = simulate(&trace, 6.0, &mut oracle, &mut fixed, &cfg);
        assert!(outcome.total_rebuffer_seconds() > 100.0);
        assert!(outcome.good_ratio() < 0.2);
    }

    #[test]
    fn buffer_never_exceeds_capacity() {
        let trace = flat_trace(50.0, 100);
        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut fixed = FixedBitrate::new(0);
        let outcome = simulate(&trace, 6.0, &mut oracle, &mut fixed, &SimConfig::default());
        for c in &outcome.chunks {
            assert!(c.buffer_after_seconds <= 30.0 + 1e-9);
        }
    }

    #[test]
    fn mpc_with_perfect_prediction_beats_bb_on_variable_trace() {
        // Square wave with long deep troughs (60 s at 0.4 Mbps): a full
        // buffer cannot ride them out, so BB's buffer-only signal walks
        // into stalls that a forewarned MPC avoids by downshifting early.
        let mut trace = Vec::new();
        for i in 0..120 {
            trace.push(if (i / 10) % 2 == 0 { 4.0 } else { 0.4 });
        }
        let cfg = SimConfig::default();

        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut mpc = Mpc::default();
        let qoe_mpc = simulate(&trace, 6.0, &mut oracle, &mut mpc, &cfg).qoe(&cfg.qoe);

        // BB gets no predictions (pure buffer signal).
        let mut no_pred = NoisyOracle::new(vec![], 0.0, 0); // empty: always None
        let mut bb = BufferBased::default();
        let cfg_bb = SimConfig {
            prediction_seeded_start: false,
            ..Default::default()
        };
        let qoe_bb = simulate(&trace, 6.0, &mut no_pred, &mut bb, &cfg_bb).qoe(&cfg.qoe);

        assert!(
            qoe_mpc > qoe_bb,
            "MPC+oracle ({qoe_mpc:.0}) should beat BB ({qoe_bb:.0})"
        );
    }

    #[test]
    fn prediction_seeded_start_beats_conservative_start() {
        // Rich link: seeding from the initial prediction starts at 3000 kbps
        // instead of ramping from 350.
        let trace = flat_trace(10.0, 100);
        let cfg_seeded = SimConfig::default();
        let cfg_plain = SimConfig {
            prediction_seeded_start: false,
            ..Default::default()
        };

        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut rb = RateBased::default();
        let seeded = simulate(&trace, 6.0, &mut oracle, &mut rb, &cfg_seeded);

        let mut no_init = crate::sim::tests::NoInitialOracle::new(trace.clone());
        let mut bb = BufferBased::default();
        let plain = simulate(&trace, 6.0, &mut no_init, &mut bb, &cfg_plain);

        assert!(seeded.chunks[0].bitrate_kbps > plain.chunks[0].bitrate_kbps);
        assert!(seeded.qoe(&cfg_seeded.qoe) > plain.qoe(&cfg_plain.qoe));
    }

    #[test]
    fn measured_throughput_matches_trace_on_flat_link() {
        let trace = flat_trace(3.3, 100);
        let mut oracle = NoisyOracle::new(trace.clone(), 0.0, 0);
        let mut fixed = FixedBitrate::new(2);
        let outcome = simulate(&trace, 6.0, &mut oracle, &mut fixed, &SimConfig::default());
        for c in &outcome.chunks {
            assert!((c.actual_mbps - 3.3).abs() < 1e-6);
        }
    }

    /// Oracle that refuses initial predictions (simulates history-based
    /// methods on chunk 0).
    pub(crate) struct NoInitialOracle {
        inner: NoisyOracle,
        observed: bool,
    }

    impl NoInitialOracle {
        pub(crate) fn new(trace: Vec<f64>) -> Self {
            NoInitialOracle {
                inner: NoisyOracle::new(trace, 0.0, 0),
                observed: false,
            }
        }
    }

    impl cs2p_core::ThroughputPredictor for NoInitialOracle {
        fn name(&self) -> &str {
            "NoInitialOracle"
        }
        fn predict_initial(&mut self) -> Option<f64> {
            None
        }
        fn predict_ahead(&mut self, k: usize) -> Option<f64> {
            if self.observed {
                self.inner.predict_ahead(k)
            } else {
                None
            }
        }
        fn observe(&mut self, w: f64) {
            self.observed = true;
            self.inner.observe(w);
        }
        fn reset(&mut self) {
            self.observed = false;
            self.inner.reset();
        }
    }
}
