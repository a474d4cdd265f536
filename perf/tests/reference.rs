//! The reference's own tools: the fold and the fast single encoder.

use cs2p_net::{Degradation, PredictResponse};
use cs2p_perf::reference::{encode_single, fold, FOLD_START};

fn response(predictions_mbps: Vec<f64>) -> PredictResponse {
    PredictResponse {
        predictions_mbps,
        initial: false,
        cluster_sessions: 37,
        cluster_hit: true,
        model_version: 1,
        degradation: None,
    }
}

#[test]
fn the_fast_single_encoder_writes_the_servers_bytes() {
    for resp in [
        response(vec![1.0, 2.5, 3.25e-7, 1e21, 0.1 + 0.2]),
        response(vec![]),
        PredictResponse {
            initial: true,
            cluster_hit: false,
            degradation: Some(Degradation::Fallback),
            ..response(vec![4.0])
        },
    ] {
        assert_eq!(encode_single(&resp), serde_json::to_vec(&resp).unwrap());
    }
}

#[test]
fn any_changed_byte_changes_the_fold() {
    let body: Vec<u8> = (0..37u8).collect();
    let base = fold(FOLD_START, &body);
    for i in 0..body.len() {
        let mut changed = body.clone();
        changed[i] ^= 1;
        assert_ne!(fold(FOLD_START, &changed), base, "byte {i}");
    }
    // Moving a byte from one response to the next shows too.
    let whole = fold(fold(FOLD_START, &body[..20]), &body[20..]);
    let moved = fold(fold(FOLD_START, &body[..21]), &body[21..]);
    assert_ne!(whole, moved);
    assert_ne!(fold(FOLD_START, &[]), FOLD_START);
}
