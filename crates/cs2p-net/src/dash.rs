//! The DASH player (§6's Dash.js equivalent).
//!
//! Mirrors the paper's split: a *BufferController* decides when to request
//! (buffer dynamics, startup, backpressure) and an *AbrController* decides
//! what to request (the adaptation algorithm fed by throughput
//! predictions). Both sit on the playback engine in `cs2p-abr`; the data
//! path is the simulated bottleneck link ([`cs2p_abr::TraceNetwork`] —
//! we have no CDN), while the *prediction* path is real HTTP to the
//! prediction server, or a locally-downloaded cluster model (the paper's
//! client-side deployment, §5.3).

use crate::client::{HttpClient, RemotePredictor};
use crate::protocol::SessionLog;
use cs2p_abr::{
    simulate, AbrAlgorithm, BufferBased, Festive, FixedBitrate, Mpc, QoeParams, RateBased,
    SessionOutcome, SimConfig, VideoSpec,
};
use cs2p_core::{ClientModel, ThroughputPredictor};
use cs2p_ml::hmm::FilterState;
use serde::{Deserialize, Serialize};
use std::io;
use std::net::SocketAddr;

/// A DASH manifest: what the player is asked to play.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Human-readable title.
    pub title: String,
    /// The encoding ladder and chunking.
    pub video: VideoSpec,
}

impl Manifest {
    /// The evaluation video (§7.1).
    pub fn envivio() -> Self {
        Manifest {
            title: "Envivio (DASH-264 reference)".into(),
            video: VideoSpec::envivio(),
        }
    }

    /// Parses a manifest from JSON and validates it, so a player is never
    /// constructed from a spec it cannot play. Both syntactic garbage and
    /// semantically broken manifests come back as `Err`, never a panic.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let manifest: Manifest =
            serde_json::from_str(json).map_err(|e| format!("malformed manifest: {e}"))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// Checks the playability invariants the rest of the pipeline assumes:
    /// at least one chunk, a non-empty strictly-ascending ladder of
    /// positive finite bitrates, and positive finite chunk length and
    /// buffer capacity.
    pub fn validate(&self) -> Result<(), String> {
        let v = &self.video;
        if v.n_chunks == 0 {
            return Err("manifest has no chunks".into());
        }
        if v.bitrates_kbps.is_empty() {
            return Err("manifest has an empty bitrate ladder".into());
        }
        if !v.bitrates_kbps.iter().all(|b| b.is_finite() && *b > 0.0) {
            return Err("bitrate ladder entries must be positive and finite".into());
        }
        if !v.bitrates_kbps.windows(2).all(|w| w[0] < w[1]) {
            return Err("bitrate ladder must be strictly ascending".into());
        }
        if !v.chunk_seconds.is_finite() || v.chunk_seconds <= 0.0 {
            return Err("chunk length must be positive and finite".into());
        }
        if !v.buffer_capacity_seconds.is_finite() || v.buffer_capacity_seconds <= 0.0 {
            return Err("buffer capacity must be positive and finite".into());
        }
        Ok(())
    }
}

/// Which adaptation algorithm the AbrController runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AbrKind {
    /// Model Predictive Control (the paper's choice, §5.3).
    Mpc,
    /// FastMPC: MPC precomputed into a lookup table (the deployed variant).
    FastMpc,
    /// RobustMPC (error-discounted predictions, Yin et al.).
    RobustMpc,
    /// Rate-based.
    Rb,
    /// Buffer-based.
    Bb,
    /// FESTIVE.
    Festive,
    /// Fixed ladder index.
    Fixed(usize),
}

impl AbrKind {
    fn build(self) -> Box<dyn AbrAlgorithm> {
        match self {
            AbrKind::Mpc => Box::new(Mpc::default()),
            AbrKind::FastMpc => Box::new(cs2p_abr::FastMpc::precompute(
                &VideoSpec::envivio(),
                cs2p_abr::FastMpcConfig::default(),
            )),
            AbrKind::RobustMpc => Box::new(cs2p_abr::RobustMpc::default()),
            AbrKind::Rb => Box::new(RateBased::default()),
            AbrKind::Bb => Box::new(BufferBased::default()),
            AbrKind::Festive => Box::new(Festive::default()),
            AbrKind::Fixed(level) => Box::new(FixedBitrate::new(level)),
        }
    }

    /// Strategy label used in logs.
    pub fn label(self) -> String {
        match self {
            AbrKind::Mpc => "MPC".into(),
            AbrKind::FastMpc => "FastMPC".into(),
            AbrKind::RobustMpc => "RobustMPC".into(),
            AbrKind::Rb => "RB".into(),
            AbrKind::Bb => "BB".into(),
            AbrKind::Festive => "FESTIVE".into(),
            AbrKind::Fixed(l) => format!("Fixed({l})"),
        }
    }
}

/// Player configuration.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Adaptation algorithm.
    pub abr: AbrKind,
    /// QoE weights used for the final log entry.
    pub qoe: QoeParams,
    /// Seed the first chunk from the initial prediction (§5.3's rule).
    pub prediction_seeded_start: bool,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            abr: AbrKind::Mpc,
            qoe: QoeParams::default(),
            prediction_seeded_start: true,
        }
    }
}

/// The player.
#[derive(Debug, Clone)]
pub struct DashPlayer {
    manifest: Manifest,
    config: PlayerConfig,
}

impl DashPlayer {
    /// A player for one manifest. Trusts the caller; use [`try_new`]
    /// (or [`Manifest::from_json`]) for manifests from untrusted input.
    ///
    /// [`try_new`]: DashPlayer::try_new
    pub fn new(manifest: Manifest, config: PlayerConfig) -> Self {
        DashPlayer { manifest, config }
    }

    /// A player for one manifest, rejecting manifests that fail
    /// [`Manifest::validate`] instead of failing later mid-playback.
    pub fn try_new(manifest: Manifest, config: PlayerConfig) -> Result<Self, String> {
        manifest.validate()?;
        Ok(DashPlayer { manifest, config })
    }

    /// Plays the whole video over the simulated bottleneck `trace_mbps`,
    /// consulting `predictor` before every chunk, and returns the
    /// structured log the paper's player uploads at session end.
    pub fn play(
        &self,
        trace_mbps: &[f64],
        epoch_seconds: f64,
        predictor: &mut dyn ThroughputPredictor,
        session_id: u64,
        strategy: &str,
    ) -> SessionLog {
        let mut abr = self.config.abr.build();
        let sim_config = SimConfig {
            video: self.manifest.video.clone(),
            qoe: self.config.qoe,
            prediction_seeded_start: self.config.prediction_seeded_start,
        };
        let outcome = simulate(
            trace_mbps,
            epoch_seconds,
            predictor,
            abr.as_mut(),
            &sim_config,
        );
        outcome_to_log(&outcome, &self.config.qoe, session_id, strategy)
    }
}

/// Converts a playback outcome into the upload format.
pub fn outcome_to_log(
    outcome: &SessionOutcome,
    qoe: &QoeParams,
    session_id: u64,
    strategy: &str,
) -> SessionLog {
    SessionLog {
        session_id,
        strategy: strategy.to_string(),
        qoe: outcome.qoe(qoe),
        avg_bitrate_kbps: outcome.avg_bitrate_kbps(),
        good_ratio: outcome.good_ratio(),
        rebuffer_seconds: outcome.total_rebuffer_seconds(),
        startup_delay_seconds: outcome.startup_delay_seconds,
        throughput_pairs: outcome
            .chunks
            .iter()
            .map(|c| (c.predicted_mbps, c.actual_mbps))
            .collect(),
        bitrates_kbps: outcome.chunks.iter().map(|c| c.bitrate_kbps).collect(),
    }
}

/// Plays one session end-to-end against a prediction server: remote
/// predictions per chunk, then the log uploaded to `/log`.
pub fn play_remote_session(
    server: SocketAddr,
    player: &DashPlayer,
    trace_mbps: &[f64],
    epoch_seconds: f64,
    session_id: u64,
    features: Vec<u32>,
) -> io::Result<SessionLog> {
    let mut predictor = RemotePredictor::new(server, session_id, features);
    let strategy = format!("CS2P+{}", player.config.abr.label());
    let log = player.play(
        trace_mbps,
        epoch_seconds,
        &mut predictor,
        session_id,
        &strategy,
    );
    predictor.upload_log(&log)?;
    Ok(log)
}

/// The client-side deployment (§5.3): download the cluster model once via
/// `GET /model`, then predict locally — no per-chunk server round trips.
#[derive(Debug, Clone)]
pub struct LocalModelPredictor {
    model: ClientModel,
    state: FilterState,
}

impl LocalModelPredictor {
    /// Fetches the model for `features` from the server.
    pub fn download(server: SocketAddr, features: &[u32]) -> io::Result<Self> {
        let mut client = HttpClient::new(server);
        let query: Vec<String> = features.iter().map(u32::to_string).collect();
        let resp = client.get(&format!("/model?features={}", query.join(",")))?;
        let model = ClientModel::from_json(
            std::str::from_utf8(&resp.body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Self::from_model(model))
    }

    /// Wraps an already-obtained model.
    fn from_model(model: ClientModel) -> Self {
        let state = FilterState::new(&model.model.hmm);
        LocalModelPredictor { model, state }
    }
}

impl ThroughputPredictor for LocalModelPredictor {
    fn name(&self) -> &str {
        "CS2P-local"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        if self.state.epoch == 0 {
            Some(self.model.model.initial_median)
        } else {
            None
        }
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        let mut window = vec![None; k];
        self.predict_horizon(&mut window);
        window.pop().flatten()
    }

    fn predict_horizon(&mut self, out: &mut [Option<f64>]) {
        let mut raw = vec![0.0; out.len()];
        self.state.predict_horizon(&self.model.model.hmm, &mut raw);
        for (slot, v) in out.iter_mut().zip(raw) {
            *slot = Some(v);
        }
        if self.state.epoch == 0 {
            if let Some(first) = out.first_mut() {
                *first = Some(self.model.model.initial_median);
            }
        }
    }

    fn observe(&mut self, throughput: f64) {
        self.state.observe(&self.model.model.hmm, throughput);
    }

    fn reset(&mut self) {
        self.state = FilterState::new(&self.model.model.hmm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve;
    use cs2p_testkit::scenarios::tiny_engine;

    #[test]
    fn end_to_end_remote_session() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let player = DashPlayer::new(Manifest::envivio(), PlayerConfig::default());
        let trace = vec![5.0; 120];
        let log = play_remote_session(server.addr(), &player, &trace, 6.0, 77, vec![1]).unwrap();
        assert_eq!(log.strategy, "CS2P+MPC");
        assert_eq!(log.bitrates_kbps.len(), 43);
        // 5 Mbps link: mostly top-rung playback, no stalls.
        assert!(
            log.avg_bitrate_kbps > 2500.0,
            "avg {}",
            log.avg_bitrate_kbps
        );
        assert_eq!(log.rebuffer_seconds, 0.0);
        // Log arrived at the server.
        assert_eq!(server.logs().len(), 1);
        assert_eq!(server.logs()[0].session_id, 77);
        server.shutdown();
    }

    #[test]
    fn local_model_predictor_matches_engine_median() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut local = LocalModelPredictor::download(server.addr(), &[0]).unwrap();
        let init = local.predict_initial().unwrap();
        assert!((init - 1.0).abs() < 0.5);
        local.observe(1.0);
        assert!(local.predict_initial().is_none());
        let mid = local.predict_next().unwrap();
        assert!((mid - 1.0).abs() < 0.5);
        server.shutdown();
    }

    #[test]
    fn local_horizon_is_the_uncalibrated_filter_window() {
        let engine = tiny_engine();
        let client_model = ClientModel::for_client(&engine, &cs2p_core::FeatureVector(vec![1]));
        let mut reference = cs2p_core::Cs2pPredictor::without_calibration(&client_model.model);
        let mut local = LocalModelPredictor::from_model(client_model.clone());
        for w in [None, Some(5.1), Some(0.4), Some(4.9)] {
            if let Some(w) = w {
                local.observe(w);
                reference.observe(w);
            }
            let mut window = [None; 6];
            local.predict_horizon(&mut window);
            for (i, got) in window.iter().enumerate() {
                let want = reference.predict_ahead(i + 1);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "after {w:?}, k={}",
                    i + 1
                );
                assert_eq!(local.predict_ahead(i + 1), *got);
            }
        }
    }

    #[test]
    fn local_and_remote_predictions_agree() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut local = LocalModelPredictor::download(server.addr(), &[1]).unwrap();
        let mut remote = RemotePredictor::new(server.addr(), 5, vec![1]);
        assert!(
            (local.predict_initial().unwrap() - remote.predict_initial().unwrap()).abs() < 1e-9
        );
        for w in [5.1, 4.9, 5.0] {
            local.observe(w);
            remote.observe(w);
            let l = local.predict_next().unwrap();
            let r = remote.predict_next().unwrap();
            assert!((l - r).abs() < 1e-9, "local {l} vs remote {r}");
        }
        server.shutdown();
    }

    #[test]
    fn player_with_bb_ignores_predictions() {
        let player = DashPlayer::new(
            Manifest::envivio(),
            PlayerConfig {
                abr: AbrKind::Bb,
                prediction_seeded_start: false,
                ..Default::default()
            },
        );
        let trace = vec![3.0; 120];
        let mut none_pred = cs2p_core::NoisyOracle::new(vec![], 0.0, 0);
        let log = player.play(&trace, 6.0, &mut none_pred, 1, "BB");
        assert_eq!(log.strategy, "BB");
        assert_eq!(log.bitrates_kbps.len(), 43);
        // BB ramps from the bottom.
        assert_eq!(log.bitrates_kbps[0], 350.0);
    }

    #[test]
    fn abr_kind_labels() {
        assert_eq!(AbrKind::Mpc.label(), "MPC");
        assert_eq!(AbrKind::FastMpc.label(), "FastMPC");
        assert_eq!(AbrKind::RobustMpc.label(), "RobustMPC");
        assert_eq!(AbrKind::Fixed(2).label(), "Fixed(2)");
    }

    #[test]
    fn fast_mpc_player_plays_full_session_remotely() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let player = DashPlayer::new(
            Manifest::envivio(),
            PlayerConfig {
                abr: AbrKind::FastMpc,
                prediction_seeded_start: false,
                ..Default::default()
            },
        );
        let trace = vec![5.0; 120];
        let log = play_remote_session(server.addr(), &player, &trace, 6.0, 88, vec![1]).unwrap();
        assert_eq!(log.strategy, "CS2P+FastMPC");
        assert_eq!(log.bitrates_kbps.len(), 43);
        // On a steady 5 Mbps link, the table converges to the top rung.
        assert!(
            log.avg_bitrate_kbps > 2500.0,
            "avg {}",
            log.avg_bitrate_kbps
        );
        server.shutdown();
    }
}
