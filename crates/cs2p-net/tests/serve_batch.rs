//! Differential equivalence battery for `POST /predict_batch`.
//!
//! The batched endpoint's contract is that a frame is *semantically
//! identical* to sending its entries as sequential singleton `/predict`
//! POSTs — not "close", bit-identical. These tests prove it three ways:
//!
//! - a loadgen matrix over worker counts {1, 2, 8} × frame sizes
//!   {1, 7, 64}, where every batched run must reproduce the singleton
//!   baseline's per-session prediction sequences bit-for-bit
//!   (via [`assert_serving_concurrency_independence`]);
//! - a twin-server differential drive comparing, per entry, the exact
//!   `(status, response bytes, error)` triple — including per-entry 404s
//!   for unregistered sessions mid-frame — and afterwards the surviving
//!   session *states* (identical follow-up probes must answer
//!   identically) and the quality monitor's APE sketches via `GET /ops`;
//! - the same twin-server drive with the admission ladder pinned at each
//!   level (Full, Degraded, Fallback, Shed): the ladder level is one more
//!   input the equivalence must hold under, counters included;
//! - frame-order semantics for same-session entries inside one frame
//!   (register + several measurements in a single batch).
//!
//! It also pins what the served values can be: at Full and Degraded,
//! only the pinned model's emission means and its cluster median (Eq. 8).

use cs2p_core::FeatureVector;
use cs2p_net::http::Request;
use cs2p_net::protocol::{BatchPredictRequest, BatchPredictResponse, PredictRequest};
use cs2p_net::{serve_with, AdmissionLevel, ServeConfig, ServerHandle};
use cs2p_testkit::invariants::assert_serving_concurrency_independence;
use cs2p_testkit::loadgen::{ops, send, BatchSpec, LoadConfig};
use cs2p_testkit::scenarios::tiny_engine;
use std::collections::BTreeSet;
use std::net::SocketAddr;

fn server(n_workers: usize) -> ServerHandle {
    let config = ServeConfig {
        n_workers,
        n_shards: 4,
        queue_depth: 4096,
        max_sessions: 1 << 20,
        ..ServeConfig::default()
    };
    serve_with(tiny_engine(), "127.0.0.1:0", config).expect("server starts")
}

/// What one entry produced, normalized across both endpoints: the
/// singleton endpoint's `(HTTP status, body bytes | error text)` and a
/// batch entry's `(status, response bytes, error)` must map to the same
/// triple for the paths to count as equivalent. A 503 carries no error
/// text here: the singleton endpoint answers it at the HTTP level
/// (`Retry-After`, asserted where it is driven), a batch entry inline.
type EntryOutcome = (u16, Option<Vec<u8>>, Option<String>);

/// A deterministic mixed entry stream: `n_sessions` sessions walked
/// epoch-major (registration first, then measurements), so consecutive
/// entries belong to *different* sessions and a 7-entry frame spans
/// several shard groups. Session id `base + n_sessions` is a ghost: its
/// entries carry a measurement but no features and must answer 404 from
/// both endpoints without derailing neighbours.
fn entry_stream(base: u64, n_sessions: u64, epochs: usize) -> Vec<PredictRequest> {
    let mut entries = Vec::new();
    for epoch in 0..epochs {
        for sid in base..base + n_sessions {
            let measured = 1.0 + ((sid * 31 + epoch as u64 * 7) % 50) as f64 / 10.0;
            entries.push(PredictRequest {
                session_id: sid,
                features: (epoch == 0).then(|| vec![(sid % 2) as u32]),
                measured_mbps: (epoch > 0).then_some(measured),
                horizon: 2,
            });
        }
        // The ghost entry: never registered, so both paths answer 404.
        entries.push(PredictRequest {
            session_id: base + n_sessions,
            features: None,
            measured_mbps: Some(3.0),
            horizon: 1,
        });
    }
    entries
}

fn drive_singleton(addr: SocketAddr, entries: &[PredictRequest]) -> Vec<EntryOutcome> {
    entries
        .iter()
        .map(|preq| {
            let body = serde_json::to_vec(preq).unwrap();
            let resp = send(addr, &Request::new("POST", "/predict", body));
            match resp.status {
                200 => (200, Some(resp.body.to_vec()), None),
                503 => {
                    assert!(
                        resp.header("retry-after").is_some(),
                        "503 without Retry-After"
                    );
                    (503, None, None)
                }
                status => (
                    status,
                    None,
                    Some(String::from_utf8(resp.body.to_vec()).unwrap()),
                ),
            }
        })
        .collect()
}

fn drive_batched(
    addr: SocketAddr,
    entries: &[PredictRequest],
    frame_size: usize,
) -> Vec<EntryOutcome> {
    let mut outcomes = Vec::new();
    for frame in entries.chunks(frame_size) {
        let breq = BatchPredictRequest {
            entries: frame.to_vec(),
        };
        let resp = send(
            addr,
            &Request::new("POST", "/predict_batch", breq.to_json_bytes()),
        );
        assert_eq!(resp.status, 200, "batch frame failed: {:?}", resp.body);
        let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(bresp.results.len(), frame.len(), "frame length mismatch");
        // The parsed frame re-encodes to the wire bytes, so each entry's
        // re-encoded `response` is the exact byte run the frame carried.
        assert_eq!(bresp.to_json_bytes(), resp.body.to_vec());
        for r in bresp.results {
            let response = r.response.map(|p| serde_json::to_vec(&p).unwrap());
            let error = r.error.filter(|_| r.status != 503);
            outcomes.push((r.status, response, error));
        }
    }
    outcomes
}

/// Identical follow-up singleton probes against both servers: if any
/// session's filter state (posterior, epoch, pending prediction)
/// diverged, a horizon-3 probe with one more measurement exposes it.
/// Status and body must agree byte for byte — a session both servers
/// lack (nothing registers at Fallback) answers the same 404 on each.
fn probe_states(a: SocketAddr, b: SocketAddr, base: u64, n_sessions: u64, frame_size: usize) {
    for sid in base..base + n_sessions {
        let probe = PredictRequest {
            session_id: sid,
            features: None,
            measured_mbps: Some(2.5 + (sid % 3) as f64),
            horizon: 3,
        };
        let body = serde_json::to_vec(&probe).unwrap();
        let ra = send(a, &Request::new("POST", "/predict", body.clone()));
        let rb = send(b, &Request::new("POST", "/predict", body));
        assert_eq!(
            (ra.status, &ra.body),
            (rb.status, &rb.body),
            "session {sid} state diverged after frame_size={frame_size}"
        );
    }
}

/// Worker counts {1, 2, 8} × frame sizes {1, 7, 64}: every cell must
/// reproduce the singleton single-worker baseline's per-session
/// prediction sequences bit-identically, under 2 concurrent clients.
#[test]
fn batch_matrix_reproduces_singleton_predictions_across_worker_counts() {
    for &frame_size in &[1usize, 7, 64] {
        let workload = LoadConfig {
            n_clients: 2,
            n_sessions: 32,
            epochs_per_session: 4,
            horizon: 2,
            seed: 81,
            session_id_base: 40_000,
            batch: Some(BatchSpec::fixed(frame_size)),
            ..LoadConfig::default()
        };
        assert_serving_concurrency_independence(&[1, 2, 8], &workload);
    }
}

/// Mixed (not fixed) frame sizes must be equivalent too: the frame
/// boundaries are drawn from the seeded distribution, and wherever they
/// fall the predictions must match the singleton baseline.
#[test]
fn ragged_frame_sizes_reproduce_singleton_predictions() {
    let workload = LoadConfig {
        n_clients: 3,
        n_sessions: 12,
        epochs_per_session: 4,
        horizon: 2,
        seed: 82,
        session_id_base: 41_000,
        batch: Some(BatchSpec {
            min_entries: 1,
            max_entries: 9,
        }),
        ..LoadConfig::default()
    };
    assert_serving_concurrency_independence(&[2], &workload);
}

/// Twin-server differential: the same entry stream driven as singleton
/// POSTs against server A and as `/predict_batch` frames against server
/// B must produce identical per-entry outcomes (including mid-frame
/// 404s), identical surviving session states, and identical quality
/// sketches (`matched`/`unmatched` counts and every APE quantile row).
///
/// `level` pins both servers' admission ladder for the drive (`None`
/// leaves it alone). Probes run twice: still pinned — so a Fallback
/// side table or a Degraded-registered session that diverged shows —
/// and again at Full after unpinning.
fn assert_frames_match_singles(
    level: Option<AdmissionLevel>,
    entries: &[PredictRequest],
    base: u64,
    n_sessions: u64,
    frame_size: usize,
) -> Vec<EntryOutcome> {
    let a = server(2);
    let b = server(2);
    a.force_admission_level(level);
    b.force_admission_level(level);
    let singles = drive_singleton(a.addr(), entries);
    let batched = drive_batched(b.addr(), entries, frame_size);
    assert_eq!(
        singles.len(),
        batched.len(),
        "outcome count mismatch at {level:?}, frame_size={frame_size}"
    );
    for (i, (s, bt)) in singles.iter().zip(&batched).enumerate() {
        assert_eq!(
            s, bt,
            "entry {i} diverged at {level:?}, frame_size={frame_size} \
             (session {})",
            entries[i].session_id
        );
    }
    // Only answered entries count as served, on either path.
    let answered = singles.iter().filter(|o| o.0 == 200).count() as u64;
    assert_eq!(
        (a.predictions_served(), b.predictions_served()),
        (answered, answered),
        "served count at {level:?}, frame_size={frame_size}"
    );

    probe_states(a.addr(), b.addr(), base, n_sessions, frame_size);
    a.force_admission_level(None);
    b.force_admission_level(None);
    probe_states(a.addr(), b.addr(), base, n_sessions, frame_size);

    let (oa, ob) = (ops(a.addr()), ops(b.addr()));
    assert_eq!(
        oa.quality, ob.quality,
        "quality monitor diverged at {level:?}, frame_size={frame_size}"
    );
    assert_eq!(oa.predictions_served, ob.predictions_served);
    assert_eq!(oa.sessions_live, ob.sessions_live);
    assert_eq!(oa.sessions_evicted, ob.sessions_evicted);
    // Per-level serve counts, fallback misses and (zero) sheds move
    // identically; `transitions` counts the two force calls on each.
    let (sa, sb) = (a.shutdown(), b.shutdown());
    assert_eq!(
        sa.admission, sb.admission,
        "ladder counters diverged at {level:?}, frame_size={frame_size}"
    );
    assert_eq!(sa.predictions_served, sb.predictions_served);
    singles
}

#[test]
fn batch_frames_match_sequential_singles_end_to_end() {
    const BASE: u64 = 50_000;
    const N_SESSIONS: u64 = 6;
    let entries = entry_stream(BASE, N_SESSIONS, 5);
    for &frame_size in &[1usize, 7, 64] {
        assert_frames_match_singles(None, &entries, BASE, N_SESSIONS, frame_size);
    }
}

/// The ladder level as one more input: pinned at Full, Degraded and
/// Fallback a frame must still equal its sequential expansion. On top
/// of the mixed stream (registrations, measurements, the unregistered
/// ghost) the script carries an invalid-horizon entry, a registration
/// whose features do not fit the engine's schema, and an adjacent
/// same-session pair; at Fallback every registration entry is a session
/// with no measurement history (a 503 miss on both paths) and the ghost,
/// which does carry a measurement, is answered.
#[test]
fn batch_frames_match_sequential_singles_at_every_ladder_level() {
    const BASE: u64 = 51_000;
    const N_SESSIONS: u64 = 6;
    // Where the feature-width mismatch lands in the script.
    const MISMATCH: usize = 10;
    let mut entries = entry_stream(BASE, N_SESSIONS, 4);
    let measure = |sid: u64, mbps: f64| PredictRequest {
        session_id: sid,
        features: None,
        measured_mbps: Some(mbps),
        horizon: 2,
    };
    // Index 7 opens the second 7-entry frame, so the pair shares a frame
    // at sizes 7 and 64.
    entries.splice(
        7..7,
        [
            measure(BASE, 2.0),
            measure(BASE, 2.5),
            PredictRequest {
                horizon: 0,
                ..measure(BASE + 1, 3.0)
            },
            PredictRequest {
                session_id: BASE + N_SESSIONS + 1,
                features: Some(vec![0, 1, 2]),
                measured_mbps: None,
                horizon: 2,
            },
        ],
    );
    for level in [
        AdmissionLevel::Full,
        AdmissionLevel::Degraded,
        AdmissionLevel::Fallback,
    ] {
        for &frame_size in &[1usize, 7, 64] {
            let outcomes =
                assert_frames_match_singles(Some(level), &entries, BASE, N_SESSIONS, frame_size);
            // The script really exercised each per-entry status the level
            // can answer: no store at Fallback means no 404, only misses.
            let statuses: BTreeSet<u16> = outcomes.iter().map(|o| o.0).collect();
            let expect: &[u16] = match level {
                AdmissionLevel::Fallback => &[200, 400, 503],
                _ => &[200, 400, 404],
            };
            assert!(statuses.iter().eq(expect), "{level:?}: {statuses:?}");
            if level != AdmissionLevel::Fallback {
                assert_eq!(outcomes[MISMATCH].0, 400, "{level:?}: width mismatch");
            }
        }
    }
}

/// Eq. 8's bound, which the response writer's render cache rests on: at
/// Full and at Degraded every served prediction is bit-equal to one of
/// the pinned cluster model's emission means or to its initial median.
#[test]
fn served_predictions_are_emission_means_or_the_cluster_median() {
    const BASE: u64 = 53_000;
    let entries = entry_stream(BASE, 6, 6);
    for level in [AdmissionLevel::Full, AdmissionLevel::Degraded] {
        let s = server(2);
        s.force_admission_level(Some(level));
        let (_, engine) = s.model_snapshot();
        let mut served = 0;
        for frame in entries.chunks(7) {
            let breq = BatchPredictRequest {
                entries: frame.to_vec(),
            };
            let body = breq.to_json_bytes();
            let resp = send(s.addr(), &Request::new("POST", "/predict_batch", body));
            let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
            for (preq, result) in frame.iter().zip(bresp.results) {
                let Some(prediction) = result.response else {
                    continue;
                };
                // `entry_stream` registers session `sid` with `[sid % 2]`.
                let model = engine.lookup(&FeatureVector(vec![(preq.session_id % 2) as u32]));
                let mut allowed: Vec<u64> = model
                    .hmm
                    .emissions
                    .iter()
                    .map(|e| e.mean().to_bits())
                    .collect();
                allowed.push(model.initial_median.to_bits());
                for p in &prediction.predictions_mbps {
                    assert!(
                        allowed.contains(&p.to_bits()),
                        "{level:?}: session {} served {p}, outside {allowed:?}",
                        preq.session_id
                    );
                    served += 1;
                }
            }
        }
        // Every session at every epoch, two steps each.
        assert_eq!(served, 6 * 6 * 2, "{level:?}");
        s.shutdown();
    }
}

/// At Shed the two endpoints are deliberately *not* symmetric, and this
/// pins the asymmetry: the singleton path sheds (and counts) every
/// request, a batch frame is refused whole — one 503 with `Retry-After`
/// and one `shed` per frame, however many entries it carried. An
/// invalid singleton is still a 400, not a shed: validation needs no
/// capacity.
#[test]
fn shed_refuses_a_frame_whole_and_counts_it_once() {
    let entries = entry_stream(52_000, 6, 2);
    let shed_of = |s: &ServerHandle| s.stats().admission.shed;

    let a = server(2);
    a.force_admission_level(Some(AdmissionLevel::Shed));
    let singles = drive_singleton(a.addr(), &entries);
    assert!(singles.iter().all(|o| *o == (503, None, None)));
    assert_eq!(shed_of(&a), entries.len() as u64);
    let invalid = PredictRequest {
        horizon: 0,
        ..entries[0].clone()
    };
    assert_eq!(
        drive_singleton(a.addr(), std::slice::from_ref(&invalid))[0].0,
        400
    );
    assert_eq!(shed_of(&a), entries.len() as u64, "a 400 is not a shed");
    let sa = a.shutdown();

    let b = server(2);
    b.force_admission_level(Some(AdmissionLevel::Shed));
    let mut frames = 0;
    for frame in entries.chunks(7) {
        let breq = BatchPredictRequest {
            entries: frame.to_vec(),
        };
        let resp = send(
            b.addr(),
            &Request::new("POST", "/predict_batch", breq.to_json_bytes()),
        );
        assert_eq!(resp.status, 503);
        assert!(resp.header("retry-after").is_some());
        frames += 1;
    }
    assert_eq!(shed_of(&b), frames);
    // A frame with nothing valid in it has nothing to shed: it answers
    // its 400s inline, exactly as its sequential expansion does.
    let outcomes = drive_batched(b.addr(), &[invalid.clone(), invalid], 2);
    assert!(outcomes.iter().all(|o| o.0 == 400));
    assert_eq!(shed_of(&b), frames);
    let sb = b.shutdown();
    assert_eq!(sa.predictions_served, 0);
    assert_eq!(sb.predictions_served, 0);
    assert_eq!(sb.sessions_live, 0, "shed frames never reach the store");
}

/// Same-session entries inside one frame run in frame order: a single
/// frame carrying `[register s1, measure s1, register s2, measure s1]`
/// must behave exactly like its sequential expansion, interleaved
/// sessions and all.
#[test]
fn same_session_entries_in_one_frame_follow_frame_order() {
    let entries = vec![
        PredictRequest {
            session_id: 60_001,
            features: Some(vec![1]),
            measured_mbps: None,
            horizon: 2,
        },
        PredictRequest {
            session_id: 60_001,
            features: None,
            measured_mbps: Some(4.0),
            horizon: 2,
        },
        PredictRequest {
            session_id: 60_002,
            features: Some(vec![0]),
            measured_mbps: None,
            horizon: 1,
        },
        PredictRequest {
            session_id: 60_001,
            features: None,
            measured_mbps: Some(4.5),
            horizon: 2,
        },
        // Re-registration attempt mid-frame: features on an already
        // registered session are ignored, exactly like the singleton
        // endpoint.
        PredictRequest {
            session_id: 60_002,
            features: Some(vec![1]),
            measured_mbps: Some(1.5),
            horizon: 1,
        },
    ];
    let a = server(1);
    let b = server(1);
    let singles = drive_singleton(a.addr(), &entries);
    // The whole script in ONE frame.
    let batched = drive_batched(b.addr(), &entries, entries.len());
    assert_eq!(singles, batched);
    probe_states(a.addr(), b.addr(), 60_001, 2, entries.len());
    let (oa, ob) = (ops(a.addr()), ops(b.addr()));
    assert_eq!(oa.quality, ob.quality);
    a.shutdown();
    b.shutdown();
}
