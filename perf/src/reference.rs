//! The in-process reference every response is checked against.
//!
//! A [`Replay`] is one session replayed through `Cs2pPredictor` (without
//! the per-session calibration, which the server does not apply): the
//! first call is the registration, each later call observes the next ring
//! measurement and predicts `horizon` epochs ahead — the sequence the
//! server runs for that session. Responses are compared two ways:
//! warm-up windows are decoded and every `predictions_mbps` compared bit
//! for bit; timed windows only [`fold`] the raw bytes, and the fold is
//! compared after the run with the fold of the reference's own encoding.

use crate::world::Source;
use cs2p_core::{Cs2pPredictor, FeatureVector, PredictionEngine, ThroughputPredictor};
use cs2p_ml::hmm::FilterState;
use cs2p_net::{BatchEntryResult, BatchPredictResponse, PredictResponse};

/// Model version of the engine a server was started with.
const FIRST_VERSION: u64 = 1;

pub const FOLD_START: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 8-byte little-endian words (the tail byte by byte), so
/// folding a 10 KB batch response costs a microsecond of the one CPU the
/// server shares with the generator, not ten. Every step is a bijection
/// of the running value, so any changed byte changes the fold.
pub fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    // Close the body, so moving a byte between two responses shows.
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

#[derive(Clone)]
pub struct Replay<'a> {
    predictor: Cs2pPredictor<'a>,
    cluster_sessions: usize,
    cluster_hit: bool,
    ring: &'a [f64],
    horizon: usize,
    /// Responses produced so far (0: not yet registered).
    steps: usize,
    /// Selfcheck: flip the lowest mantissa bit of the first prediction of
    /// this response index.
    pub flip_at: Option<usize>,
}

impl<'a> Replay<'a> {
    pub fn new(engine: &'a PredictionEngine, source: &'a Source, horizon: usize) -> Replay<'a> {
        let lookup = engine.lookup_detailed(&FeatureVector(source.features.clone()));
        Replay {
            predictor: Cs2pPredictor::without_calibration(lookup.model),
            cluster_sessions: lookup.model.n_sessions,
            cluster_hit: lookup.provenance.is_cluster_hit(),
            ring: &source.ring,
            horizon,
            steps: 0,
            flip_at: None,
        }
    }

    /// The measurement the session's `step`-th request carries (`None`
    /// for the registration, step 0).
    pub fn measurement(ring: &[f64], step: usize) -> Option<f64> {
        (step > 0).then(|| ring[(step - 1) % ring.len()])
    }

    /// The response the server owes this session's next request.
    pub fn answer(&mut self) -> PredictResponse {
        let initial = self.steps == 0;
        if let Some(w) = Replay::measurement(self.ring, self.steps) {
            self.predictor.observe(w);
        }
        let mut predictions_mbps: Vec<f64> = (1..=self.horizon)
            .map(|k| {
                self.predictor
                    .predict_ahead(k)
                    .expect("CS2P always predicts")
            })
            .collect();
        if self.flip_at == Some(self.steps) {
            predictions_mbps[0] = f64::from_bits(predictions_mbps[0].to_bits() ^ 1);
        }
        self.steps += 1;
        PredictResponse {
            predictions_mbps,
            initial,
            cluster_sessions: self.cluster_sessions,
            cluster_hit: self.cluster_hit,
            model_version: FIRST_VERSION,
            degradation: None,
        }
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The posterior the session's filter holds now — what the server
    /// stores for it.
    pub fn filter_state(&self) -> FilterState {
        self.predictor.filter().state()
    }
}

/// What `to_json_bytes` wraps around the response of a one-entry frame.
const FRAME_OPEN: &[u8] = b"{\"results\":[{\"status\":200,\"response\":";
const FRAME_CLOSE: &[u8] = b"}]}";

/// The next answers of `replays[from..from + n]`: one frame's worth.
pub fn answers(replays: &mut [Replay<'_>], from: usize, n: usize) -> Vec<PredictResponse> {
    replays[from..from + n]
        .iter_mut()
        .map(Replay::answer)
        .collect()
}

/// The bytes `POST /predict` answers with. The server renders them
/// through the `Value` tree; the direct batch writer renders the same
/// bytes several times faster (the repository tests hold the two writers
/// byte-identical, and so does `tests/reference.rs`), which matters when
/// the reference replays half a million responses after a run.
pub fn encode_single(resp: &PredictResponse) -> Vec<u8> {
    let framed = encode_frame(vec![resp.clone()]);
    framed[FRAME_OPEN.len()..framed.len() - FRAME_CLOSE.len()].to_vec()
}

/// The bytes `POST /predict_batch` answers with when every entry is 200.
pub fn encode_frame(responses: Vec<PredictResponse>) -> Vec<u8> {
    BatchPredictResponse {
        results: responses.into_iter().map(BatchEntryResult::ok).collect(),
    }
    .to_json_bytes()
}

/// Whether two prediction vectors are the same bits.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Decodes a received `/predict` body and compares it with the reference.
pub fn single_matches(body: &[u8], want: &PredictResponse) -> bool {
    serde_json::from_slice::<PredictResponse>(body)
        .is_ok_and(|got| same_bits(&got.predictions_mbps, &want.predictions_mbps) && got == *want)
}

/// Decodes a received `/predict_batch` body and counts the entries that
/// are not a 200 carrying exactly the reference prediction.
pub fn frame_mismatches(body: &[u8], want: &[PredictResponse]) -> usize {
    let Ok(got) = serde_json::from_slice::<BatchPredictResponse>(body) else {
        return want.len();
    };
    if got.results.len() != want.len() {
        return want.len();
    }
    got.results
        .iter()
        .zip(want)
        .filter(|(g, w)| {
            !(g.status == 200
                && g.response.as_ref().is_some_and(|r| {
                    same_bits(&r.predictions_mbps, &w.predictions_mbps) && r == *w
                }))
        })
        .count()
}
