//! Property tests for the wire protocol (`cs2p-net/src/protocol.rs`):
//! every message type round-trips through its JSON encoding, the direct
//! request decoder agrees with `serde_json::from_slice` wherever it
//! accepts, and a live server answers malformed, truncated, and oversized
//! frames with an error response or a clean close — never a panic or a
//! hung connection.

use cs2p_net::http::{read_response, Response, MAX_BODY_BYTES};
use cs2p_net::protocol::{
    BatchEntryResult, BatchPredictRequest, BatchPredictResponse, DecodeError, Degradation, Health,
    LogStats, PredictRequest, PredictResponse, SessionLog, StrategyStats, MAX_BATCH_ENTRIES,
};
use cs2p_net::{serve, ServerHandle};
use cs2p_testkit::scenarios::tiny_engine;
use proptest::prelude::*;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Serde round-trips under generated inputs
// ---------------------------------------------------------------------------

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), 0.0f64..1e9).prop_map(|(some, v)| some.then_some(v))
}

fn arb_features() -> impl Strategy<Value = Option<Vec<u32>>> {
    (any::<bool>(), prop::collection::vec(0u32..1000, 0..6)).prop_map(|(some, v)| some.then_some(v))
}

fn arb_session_log() -> impl Strategy<Value = SessionLog> {
    (
        any::<u64>(),
        "[A-Za-z0-9+_-]{0,16}",
        (-1e6f64..1e6, 0.0f64..1e5, 0.0f64..1.0),
        (0.0f64..1e3, 0.0f64..60.0),
        prop::collection::vec((arb_opt_f64(), 0.0f64..1e3), 0..8),
        prop::collection::vec(0.0f64..1e5, 0..8),
    )
        .prop_map(
            |(session_id, strategy, (qoe, avg, good), (rebuf, startup), pairs, bitrates)| {
                SessionLog {
                    session_id,
                    strategy,
                    qoe,
                    avg_bitrate_kbps: avg,
                    good_ratio: good,
                    rebuffer_seconds: rebuf,
                    startup_delay_seconds: startup,
                    throughput_pairs: pairs,
                    bitrates_kbps: bitrates,
                }
            },
        )
}

fn arb_predict_request() -> impl Strategy<Value = PredictRequest> {
    (any::<u64>(), arb_features(), arb_opt_f64(), 1usize..16).prop_map(
        |(session_id, features, measured_mbps, horizon)| PredictRequest {
            session_id,
            features,
            measured_mbps,
            horizon,
        },
    )
}

fn arb_degradation() -> impl Strategy<Value = Option<Degradation>> {
    (0usize..3).prop_map(|pick| match pick {
        0 => None,
        1 => Some(Degradation::Degraded),
        _ => Some(Degradation::Fallback),
    })
}

fn arb_batch_entry_result() -> impl Strategy<Value = BatchEntryResult> {
    (
        0usize..3,
        any::<bool>(),
        (any::<bool>(), "[ -~]{0,32}"),
        prop::collection::vec(0.0f64..1e9, 0..5),
        arb_degradation(),
    )
        .prop_map(
            |(status_pick, with_response, (with_error, error), predictions, degradation)| {
                BatchEntryResult {
                    status: [200u16, 400, 404][status_pick],
                    // Deliberately decoupled from `status`: the wire format
                    // must round-trip whatever combination it is handed.
                    response: with_response.then_some(PredictResponse {
                        predictions_mbps: predictions,
                        initial: false,
                        cluster_sessions: 1,
                        cluster_hit: true,
                        model_version: 1,
                        degradation,
                    }),
                    error: with_error.then_some(error),
                }
            },
        )
}

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let bytes = serde_json::to_vec(value).expect("serialize");
    serde_json::from_slice(&bytes).expect("deserialize")
}

proptest! {
    #[test]
    fn predict_request_roundtrips(
        session_id in any::<u64>(),
        features in arb_features(),
        measured in arb_opt_f64(),
        horizon in 1usize..64,
    ) {
        let req = PredictRequest { session_id, features, measured_mbps: measured, horizon };
        prop_assert_eq!(roundtrip(&req), req);
    }

    #[test]
    fn predict_response_roundtrips(
        predictions in prop::collection::vec(0.0f64..1e9, 0..33),
        initial in any::<bool>(),
        cluster_sessions in 0usize..1_000_000,
        cluster_hit in any::<bool>(),
        model_version in any::<u64>(),
        degradation in arb_degradation(),
    ) {
        let resp = PredictResponse {
            predictions_mbps: predictions,
            initial,
            cluster_sessions,
            cluster_hit,
            model_version,
            degradation,
        };
        prop_assert_eq!(roundtrip(&resp), resp);
    }

    #[test]
    fn session_log_roundtrips(log in arb_session_log()) {
        prop_assert_eq!(roundtrip(&log), log);
    }

    #[test]
    fn health_roundtrips(
        n_models in 0usize..1000,
        n_sessions in 0usize..1000,
        predictions_served in any::<u64>(),
        n_logs in 0usize..1000,
    ) {
        let health = Health {
            status: "ok".into(),
            n_models,
            n_sessions,
            predictions_served,
            n_logs,
        };
        prop_assert_eq!(roundtrip(&health), health);
    }

    #[test]
    fn log_stats_roundtrip_and_aggregation_is_stable(
        logs in prop::collection::vec(arb_session_log(), 0..6)
    ) {
        let stats = LogStats::from_logs(&logs);
        let back: LogStats = roundtrip(&stats);
        prop_assert_eq!(back, stats);
    }

    #[test]
    fn batch_request_roundtrips_and_fast_writer_matches(
        entries in prop::collection::vec(arb_predict_request(), 0..24)
    ) {
        let breq = BatchPredictRequest { entries };
        prop_assert_eq!(roundtrip(&breq), breq.clone());
        // The direct writer must emit byte-for-byte what the generic
        // serializer emits — same escaping, same float formatting, same
        // None-field omission.
        prop_assert_eq!(breq.to_json_bytes(), serde_json::to_vec(&breq).unwrap());
    }

    #[test]
    fn batch_response_roundtrips_and_fast_writer_matches(
        results in prop::collection::vec(arb_batch_entry_result(), 0..24)
    ) {
        let bresp = BatchPredictResponse { results };
        prop_assert_eq!(roundtrip(&bresp), bresp.clone());
        prop_assert_eq!(bresp.to_json_bytes(), serde_json::to_vec(&bresp).unwrap());
        // `POST /predict` ships the same writer's bytes for one response.
        for resp in bresp.results.iter().filter_map(|r| r.response.as_ref()) {
            prop_assert_eq!(resp.to_json_bytes(), serde_json::to_vec(resp).unwrap());
        }
    }

    #[test]
    fn strategy_stats_roundtrips(
        strategy in "[A-Za-z+]{1,12}",
        n_sessions in 0usize..1000,
        means in (0.0f64..1e3, 0.0f64..1e5, 0.0f64..1.0, 0.0f64..1e3, 0.0f64..60.0),
    ) {
        let s = StrategyStats {
            strategy,
            n_sessions,
            mean_qoe: means.0,
            mean_bitrate_kbps: means.1,
            mean_good_ratio: means.2,
            mean_rebuffer_seconds: means.3,
            mean_startup_seconds: means.4,
        };
        prop_assert_eq!(roundtrip(&s), s);
    }
}

// ---------------------------------------------------------------------------
// The direct writers against the serde reference, over every float class
// ---------------------------------------------------------------------------
//
// `serde_json::to_vec` is the only independent reference for the bytes
// the server ships: anything that encodes its expectation through
// `to_json_bytes` inherits a writer bug. The writers render floats
// through a per-thread cache of short renderings, so besides each float
// class the cases below run the cache's hit, replacement and
// uncacheable paths, and two threads' caches side by side.

/// A uniformly random bit pattern (every sign, class and NaN payload), one
/// of [`float_classes`], or a throughput-sized value, a third each.
fn arb_any_f64() -> impl Strategy<Value = f64> {
    let classes = float_classes();
    (0u8..3, any::<u64>(), 0.0f64..1e3).prop_map(move |(pick, bits, plain)| match pick {
        0 => f64::from_bits(bits),
        1 => classes[bits as usize % classes.len()],
        _ => plain,
    })
}

/// One value of every class the writer renders or caches differently:
/// non-finite values, signed zeros, subnormals and the extremes, the
/// powers of ten `Display` prints without an exponent, integral values
/// that take `.0`, and renderings too long for a cache slot.
fn float_classes() -> Vec<f64> {
    let mut values = vec![
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
        -3.0,
        42.0,
        1e15,
        9_007_199_254_740_993.0,
        1e300,
        -1e300,
        1e23,
        1e-300,
        -1.234_567_890_123_456_7e-7,
        0.1 + 0.2,
        f64::EPSILON,
    ];
    values.extend((-7..=22).map(|e| format!("1e{e}").parse::<f64>().unwrap()));
    values
}

/// A frame whose predictions walk `values` in order, `horizon` at a time,
/// with every kind of entry the server answers.
fn response_frame(values: &[f64], horizon: usize) -> BatchPredictResponse {
    let results = values
        .chunks(horizon)
        .enumerate()
        .map(|(i, chunk)| {
            if i % 11 == 10 {
                return BatchEntryResult::failed(
                    404,
                    "unknown session: send features to (re)register",
                );
            }
            BatchEntryResult::ok(PredictResponse {
                predictions_mbps: chunk.to_vec(),
                initial: i % 3 == 0,
                cluster_sessions: i * 37,
                cluster_hit: i % 2 == 0,
                model_version: i as u64,
                degradation: [
                    None,
                    Some(Degradation::Degraded),
                    Some(Degradation::Fallback),
                ][i % 3],
            })
        })
        .collect();
    BatchPredictResponse { results }
}

/// Both writers of a response frame, and the request writer over the same
/// values as measurements, equal the serde reference.
fn assert_writers_match_serde(frame: &BatchPredictResponse) {
    assert_eq!(frame.to_json_bytes(), serde_json::to_vec(frame).unwrap());
    for resp in frame.results.iter().filter_map(|r| r.response.as_ref()) {
        assert_eq!(resp.to_json_bytes(), serde_json::to_vec(resp).unwrap());
    }
    let requests = BatchPredictRequest {
        entries: frame
            .results
            .iter()
            .filter_map(|r| r.response.as_ref())
            .flat_map(|resp| &resp.predictions_mbps)
            .enumerate()
            .map(|(i, &m)| PredictRequest {
                session_id: u64::MAX - i as u64,
                features: (i % 4 == 0).then(|| vec![i as u32, u32::MAX]),
                measured_mbps: Some(m),
                horizon: i % 33,
            })
            .collect(),
    };
    assert_eq!(
        requests.to_json_bytes(),
        serde_json::to_vec(&requests).unwrap()
    );
}

#[test]
fn writers_match_serde_on_every_float_class() {
    let classes = float_classes();
    for horizon in [1, 5, classes.len()] {
        // The second pass reads back what the first cached.
        assert_writers_match_serde(&response_frame(&classes, horizon));
        assert_writers_match_serde(&response_frame(&classes, horizon));
    }
}

#[test]
fn writers_match_serde_on_cache_hits_and_slot_replacement() {
    // A small pool, repeated: nearly every write after the first few is a
    // cache hit, as it is for a server reading out Eq. 8.
    let pool = [
        2.413_793_103_448_276,
        0.731_058_578_630_004_9,
        1.5,
        12.0,
        0.2,
    ];
    let repeated: Vec<f64> = (0..320).map(|i| pool[i * 7 % pool.len()]).collect();
    assert_writers_match_serde(&response_frame(&repeated, 5));

    // Far more distinct values than the cache has slots (2^11), written in
    // the same order twice: values that share a slot replace each other
    // between their writes, so the second pass runs hits and refills.
    let distinct: Vec<f64> = (0..3 * 2048 + 1).map(|i| 0.5 + i as f64 / 97.0).collect();
    assert_writers_match_serde(&response_frame(&distinct, 64));
    assert_writers_match_serde(&response_frame(&distinct, 64));
}

#[test]
fn the_same_frame_encodes_identically_on_two_threads() {
    let mut values = float_classes();
    values.extend((0..500).map(|i| 1.0 + (i % 40) as f64 / 7.0));
    let frame = response_frame(&values, 5);
    let reference = serde_json::to_vec(&frame).unwrap();
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..50 {
                    assert_eq!(frame.to_json_bytes(), reference);
                }
            });
        }
    });
}

proptest! {
    #[test]
    fn writers_match_serde_on_arbitrary_floats(
        values in prop::collection::vec(arb_any_f64(), 1..80),
        horizon in 1usize..9,
    ) {
        assert_writers_match_serde(&response_frame(&values, horizon));
    }
}

// ---------------------------------------------------------------------------
// The direct request decoder against the serde reference
// ---------------------------------------------------------------------------

/// Re-renders a parsed JSON tree as another writer might: whitespace
/// between tokens, object keys rotated, and (with `nulls`) explicit
/// `null`s for a request's absent optional fields.
struct Perturb {
    ws: Vec<u8>,
    next: usize,
    rotate: usize,
    nulls: bool,
}

impl Perturb {
    fn space(&mut self, out: &mut String) {
        let pick = self.ws[self.next % self.ws.len()] as usize;
        self.next += 1;
        out.push_str(["", "", "", " ", "\n", "\t", "\r\n  "][pick % 7]);
    }

    fn write(&mut self, out: &mut String, value: &serde::Value) {
        self.space(out);
        match value {
            serde::Value::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    self.write(out, item);
                }
                self.space(out);
                out.push(']');
            }
            serde::Value::Object(fields) => {
                let mut fields = fields.clone();
                if self.nulls && fields.iter().any(|(k, _)| k == "session_id") {
                    for key in ["features", "measured_mbps"] {
                        if !fields.iter().any(|(k, _)| k == key) {
                            fields.push((key.to_string(), serde::Value::Null));
                        }
                    }
                }
                if !fields.is_empty() {
                    let n = fields.len();
                    fields.rotate_left((self.rotate + self.next) % n);
                }
                out.push('{');
                for (k, (key, item)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    self.space(out);
                    out.push_str(&serde_json::to_string(key).unwrap());
                    self.space(out);
                    out.push(':');
                    self.write(out, item);
                }
                self.space(out);
                out.push('}');
            }
            scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
        }
    }

    fn render(ws: Vec<u8>, rotate: usize, nulls: bool, json: &[u8]) -> Vec<u8> {
        let tree = serde_json::parse(std::str::from_utf8(json).unwrap()).unwrap();
        let mut out = String::new();
        Perturb {
            ws,
            next: 0,
            rotate,
            nulls,
        }
        .write(&mut out, &tree);
        out.into_bytes()
    }
}

/// Bytes the mutation test splices in: JSON's structural and number
/// characters, so a mutant is often still a valid request.
const SPLICE: &[u8] = b"0123456789-+.eE ,:{}[]\"nul\\x";

fn mutate(bytes: &mut Vec<u8>, edits: &[(usize, usize, usize)]) {
    for &(kind, at, pick) in edits {
        if bytes.is_empty() {
            return;
        }
        let at = at % bytes.len();
        let b = SPLICE[pick % SPLICE.len()];
        match kind % 4 {
            0 => bytes.truncate(at),
            1 => bytes[at] = b,
            2 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
}

/// Whenever the decoder accepts `bytes`, serde accepts them too and
/// decodes the same value.
fn decoder_is_sound_on(bytes: &[u8]) -> Result<(), String> {
    if let Ok(direct) = BatchPredictRequest::from_json_bytes(bytes) {
        prop_assert_eq!(serde_json::from_slice(bytes).ok(), Some(direct));
    }
    if let Ok(direct) = PredictRequest::from_json_bytes(bytes) {
        prop_assert_eq!(serde_json::from_slice(bytes).ok(), Some(direct));
    }
    Ok(())
}

proptest! {
    #[test]
    fn decoder_equals_serde_on_writer_output(
        entries in prop::collection::vec(arb_predict_request(), 0..12),
        ws in prop::collection::vec(0u8..7, 1..16),
        rotate in 0usize..4,
        nulls in any::<bool>(),
    ) {
        let breq = BatchPredictRequest { entries };
        let direct = breq.to_json_bytes();
        let generic = serde_json::to_vec(&breq).unwrap();
        let perturbed = Perturb::render(ws.clone(), rotate, nulls, &direct);
        for bytes in [direct, generic, perturbed] {
            let decoded = BatchPredictRequest::from_json_bytes(&bytes);
            prop_assert_eq!(&decoded, &Ok(breq.clone()), "{}", String::from_utf8_lossy(&bytes));
            prop_assert_eq!(decoded.ok(), serde_json::from_slice(&bytes).ok());
        }
        for entry in &breq.entries {
            let generic = serde_json::to_vec(entry).unwrap();
            let perturbed = Perturb::render(ws.clone(), rotate, nulls, &generic);
            for bytes in [generic, perturbed] {
                let decoded = PredictRequest::from_json_bytes(&bytes);
                prop_assert_eq!(&decoded, &Ok(entry.clone()), "{}", String::from_utf8_lossy(&bytes));
                prop_assert_eq!(decoded.ok(), serde_json::from_slice(&bytes).ok());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decoder_accepts_only_what_serde_decodes_alike(
        entries in prop::collection::vec(arb_predict_request(), 1..4),
        edits in prop::collection::vec((0usize..4, any::<usize>(), any::<usize>()), 1..4),
    ) {
        let first = entries[0].clone();
        let mut batch = BatchPredictRequest { entries }.to_json_bytes();
        mutate(&mut batch, &edits);
        decoder_is_sound_on(&batch)?;
        let mut single = serde_json::to_vec(&first).unwrap();
        mutate(&mut single, &edits);
        decoder_is_sound_on(&single)?;
    }
}

fn decode_one(body: &str) -> Result<PredictRequest, DecodeError> {
    PredictRequest::from_json_bytes(body.as_bytes())
}

#[test]
fn decoder_refuses_unknown_duplicate_and_escaped_keys_and_trailing_bytes() {
    let ok = r#"{"session_id":1,"horizon":2}"#;
    assert!(decode_one(ok).is_ok());
    // Stricter than serde, which ignores an unknown key, keeps the first
    // of two duplicates, and unescapes a key to `session_id`.
    for body in [
        r#"{"session_id":1,"horizon":2,"extra":0}"#,
        r#"{"session_id":1,"session_id":2,"horizon":2}"#,
        r#"{"session_id":1,"features":null,"features":[0],"horizon":2}"#,
        r#"{"session\u005fid":1,"horizon":2}"#,
    ] {
        assert!(
            serde_json::from_str::<PredictRequest>(body).is_ok(),
            "{body}"
        );
        assert_eq!(decode_one(body), Err(DecodeError::Malformed), "{body}");
    }
    for body in [
        r#"{"session_id":1,"horizon":2} x"#,
        r#"{"session_id":1,"horizon":2}{}"#,
        r#"{"session_id":1,"horizon":2"#,
        r#"{"session_id":1}"#,
        r#"{"session_id":1,"horizon":2,}"#,
        "",
    ] {
        assert_eq!(decode_one(body), Err(DecodeError::Malformed), "{body}");
    }
    for body in [
        r#"{"entries":[],"entries":[]}"#,
        r#"{"entries":[],"more":1}"#,
        r#"{"entries":[]} ]"#,
        r#"{"entries":null}"#,
        "{}",
    ] {
        assert_eq!(
            BatchPredictRequest::from_json_bytes(body.as_bytes()),
            Err(DecodeError::Malformed),
            "{body}"
        );
    }
    // Whitespace around every token is fine, as it is for serde.
    let spaced = " {\n\t\"entries\" : [ {\"horizon\" :1 , \"session_id\":3} ] }\r\n";
    assert_eq!(
        BatchPredictRequest::from_json_bytes(spaced.as_bytes()),
        serde_json::from_str(spaced).map_err(|_| DecodeError::Malformed)
    );
}

#[test]
fn decoder_stops_at_the_first_entry_past_the_cap() {
    let frame = |n: usize| {
        BatchPredictRequest {
            entries: (0..n as u64)
                .map(|i| PredictRequest {
                    session_id: i,
                    features: None,
                    measured_mbps: Some(1.0),
                    horizon: 1,
                })
                .collect(),
        }
        .to_json_bytes()
    };
    let at_cap = BatchPredictRequest::from_json_bytes(&frame(MAX_BATCH_ENTRIES)).unwrap();
    assert_eq!(at_cap.entries.len(), MAX_BATCH_ENTRIES);
    assert_eq!(
        BatchPredictRequest::from_json_bytes(&frame(MAX_BATCH_ENTRIES + 1)),
        Err(DecodeError::TooManyEntries)
    );
    // Stopped, not parsed whole: what follows the 1025th entry's start
    // is never looked at.
    let mut truncated = frame(MAX_BATCH_ENTRIES + 1);
    truncated.truncate(truncated.len() - 20);
    assert_eq!(
        BatchPredictRequest::from_json_bytes(&truncated),
        Err(DecodeError::TooManyEntries)
    );
}

#[test]
fn decoder_numbers_follow_the_vendored_parser() {
    let max = decode_one(&format!(r#"{{"session_id":{},"horizon":1}}"#, u64::MAX)).unwrap();
    assert_eq!(max.session_id, u64::MAX);
    let over = format!(r#"{{"session_id":{}0,"horizon":1}}"#, u64::MAX);
    assert_eq!(decode_one(&over), Err(DecodeError::Malformed));
    assert_eq!(
        decode_one(r#"{"session_id":-1,"horizon":1}"#),
        Err(DecodeError::Malformed)
    );

    // `-0` is an integer token: it decodes to +0.0, not -0.0.
    let body = r#"{"session_id":1,"measured_mbps":-0,"horizon":1}"#;
    let zero = decode_one(body).unwrap().measured_mbps.unwrap();
    assert_eq!(zero.to_bits(), 0.0f64.to_bits());
    let reference: PredictRequest = serde_json::from_str(body).unwrap();
    assert_eq!(reference.measured_mbps.unwrap().to_bits(), zero.to_bits());
    // A float token keeps its sign.
    let body = r#"{"session_id":1,"measured_mbps":-0.0,"horizon":1}"#;
    assert!(decode_one(body)
        .unwrap()
        .measured_mbps
        .unwrap()
        .is_sign_negative());

    let body = r#"{"session_id":1,"measured_mbps":3,"horizon":1}"#;
    assert_eq!(decode_one(body).unwrap().measured_mbps, Some(3.0));
    let body = r#"{"session_id":1,"measured_mbps":null,"horizon":1}"#;
    assert_eq!(decode_one(body).unwrap().measured_mbps, None);

    for horizon in ["5.0", "1e2", "-1", "+1", "\"5\"", "null"] {
        let body = format!(r#"{{"session_id":1,"horizon":{horizon}}}"#);
        assert_eq!(decode_one(&body), Err(DecodeError::Malformed), "{body}");
        assert!(
            serde_json::from_str::<PredictRequest>(&body).is_err(),
            "{body}"
        );
    }
    let body = r#"{"session_id":1,"features":[4294967296],"horizon":1}"#;
    assert_eq!(decode_one(body), Err(DecodeError::Malformed));
}

// ---------------------------------------------------------------------------
// Malformed frames against a live server
// ---------------------------------------------------------------------------

/// One shared server for every malformed-frame case: surviving hundreds
/// of hostile connections *on the same instance* is part of the point.
fn shared_server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| serve(tiny_engine(), "127.0.0.1:0").unwrap())
}

/// Writes raw bytes, optionally half-closes, and reads whatever comes
/// back. Returns the parsed response if the server sent one. The read
/// timeout turns a hung connection into a test failure, not a stuck CI.
fn raw_exchange(bytes: &[u8], half_close: bool) -> std::io::Result<Option<Response>> {
    let stream = TcpStream::connect(shared_server().addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    // The server may legitimately reject early and close while we are
    // still writing; a broken pipe is a clean refusal, not a failure.
    if let Err(e) = writer.write_all(bytes) {
        if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset {
            return Ok(None);
        }
        return Err(e);
    }
    let _ = writer.flush();
    if half_close {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut reader = BufReader::new(stream);
    match read_response(&mut reader) {
        Ok(resp) => Ok(Some(resp)),
        // A clean close (or reset while tearing down) is acceptable.
        Err(e)
            if e.kind() == ErrorKind::UnexpectedEof
                || e.kind() == ErrorKind::ConnectionReset
                || e.kind() == ErrorKind::InvalidData =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn assert_error_or_clean_close(bytes: &[u8], half_close: bool) {
    // `None` — a clean close — is also acceptable.
    if let Some(resp) =
        raw_exchange(bytes, half_close).expect("exchange must not hang or hard-fail")
    {
        assert!(
            resp.status >= 400,
            "malformed frame got a {} success",
            resp.status
        );
    }
}

proptest! {
    #[test]
    fn garbage_bytes_get_an_error_or_clean_close(
        garbage in prop::collection::vec(any::<u8>(), 0..1024)
    ) {
        assert_error_or_clean_close(&garbage, true);
    }

    #[test]
    fn truncated_predict_requests_never_hang(
        cut in 1usize..50,
        session_id in any::<u64>(),
    ) {
        let preq = PredictRequest {
            session_id,
            features: Some(vec![1]),
            measured_mbps: None,
            horizon: 4,
        };
        let body = serde_json::to_vec(&preq).unwrap();
        let frame = format!(
            "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = frame.into_bytes();
        bytes.extend_from_slice(&body);
        let keep = bytes.len().saturating_sub(cut.min(bytes.len() - 1));
        assert_error_or_clean_close(&bytes[..keep], true);
    }
}

/// Builds a complete `/predict_batch` HTTP frame around `body`.
fn batch_frame(body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /predict_batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #[test]
    fn garbage_batch_bodies_get_an_error_or_clean_close(
        garbage in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        assert_error_or_clean_close(&batch_frame(&garbage), true);
    }

    #[test]
    fn truncated_batch_frames_never_hang(
        cut in 1usize..80,
        entries in prop::collection::vec(arb_predict_request(), 1..8),
    ) {
        let body = BatchPredictRequest { entries }.to_json_bytes();
        let bytes = batch_frame(&body);
        let keep = bytes.len().saturating_sub(cut.min(bytes.len() - 1));
        assert_error_or_clean_close(&bytes[..keep], true);
    }

    /// Frames whose entries repeat the same session keys — including
    /// re-registrations and measurement-before-registration orders the
    /// generator is free to produce — must always get one well-formed
    /// 200 with per-entry statuses, never a panic, hang, or 5xx.
    #[test]
    fn duplicate_session_key_frames_answer_per_entry_statuses(
        sids in prop::collection::vec(7770u64..7773, 1..12),
        with_features in prop::collection::vec(any::<bool>(), 12),
    ) {
        let entries: Vec<PredictRequest> = sids
            .iter()
            .zip(&with_features)
            .map(|(&sid, &reg)| PredictRequest {
                session_id: sid,
                features: reg.then(|| vec![(sid % 2) as u32]),
                measured_mbps: (!reg).then_some(2.0),
                horizon: 1,
            })
            .collect();
        let n = entries.len();
        let body = BatchPredictRequest { entries }.to_json_bytes();
        let resp = raw_exchange(&batch_frame(&body), false)
            .expect("exchange must not hang")
            .expect("a valid batch frame must get a response");
        prop_assert_eq!(resp.status, 200);
        let bresp: BatchPredictResponse = serde_json::from_slice(&resp.body).unwrap();
        prop_assert_eq!(bresp.results.len(), n);
        for r in &bresp.results {
            prop_assert!(
                r.status == 200 || r.status == 404,
                "unexpected per-entry status {}", r.status
            );
            prop_assert_eq!(r.response.is_some(), r.status == 200);
        }
    }
}

/// An empty batch is a client error, not a server blowup: 400, not 5xx.
#[test]
fn empty_batch_is_a_400_not_a_500() {
    let resp = raw_exchange(&batch_frame(br#"{"entries":[]}"#), false)
        .expect("must not hang")
        .expect("server must answer");
    assert_eq!(resp.status, 400, "reason: {}", resp.reason);
}

/// A frame over [`MAX_BATCH_ENTRIES`] is rejected whole with a 400 —
/// none of its registrations reaches the store — and the server goes on
/// serving.
#[test]
fn over_cap_batch_is_rejected_whole() {
    const BASE: u64 = 7_000_000;
    let entries: Vec<PredictRequest> = (0..=MAX_BATCH_ENTRIES as u64)
        .map(|i| PredictRequest {
            session_id: BASE + i,
            features: Some(vec![0]),
            measured_mbps: None,
            horizon: 1,
        })
        .collect();
    assert!(entries.len() > MAX_BATCH_ENTRIES);
    let body = BatchPredictRequest { entries }.to_json_bytes();
    let resp = raw_exchange(&batch_frame(&body), false)
        .expect("must not hang")
        .expect("server must answer");
    assert_eq!(resp.status, 400, "reason: {}", resp.reason);

    let probe = PredictRequest {
        session_id: BASE,
        features: None,
        measured_mbps: Some(1.0),
        horizon: 1,
    };
    let body = serde_json::to_vec(&probe).unwrap();
    let mut frame = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(&body);
    let resp = raw_exchange(&frame, false)
        .expect("must not hang")
        .expect("server must answer");
    assert_eq!(resp.status, 404, "the refused frame registered a session");
}

#[test]
fn oversized_content_length_is_rejected_without_reading_the_body() {
    // Announce a body over the 4 MiB cap but never send it: the server
    // must refuse from the header alone.
    let frame = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    // Refusal by close (`None`) is also acceptable.
    if let Some(resp) = raw_exchange(frame.as_bytes(), false).expect("must not hang") {
        assert_eq!(resp.status, 400, "reason: {}", resp.reason);
    }
}

#[test]
fn huge_header_block_is_rejected() {
    let mut frame = String::from("GET /healthz HTTP/1.1\r\n");
    frame.push_str(&"x".repeat(20 * 1024));
    assert_error_or_clean_close(frame.as_bytes(), true);
}

#[test]
fn server_survives_the_hostile_suite_and_still_serves() {
    // Run after (or interleaved with) the hostile cases above — the
    // instance they all hammered must still answer real requests.
    let preq = PredictRequest {
        session_id: 424242,
        features: Some(vec![0]),
        measured_mbps: None,
        horizon: 2,
    };
    let body = serde_json::to_vec(&preq).unwrap();
    let frame = format!(
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = frame.into_bytes();
    bytes.extend_from_slice(&body);
    let stream = TcpStream::connect(shared_server().addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&bytes).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    let presp: PredictResponse = serde_json::from_slice(&resp.body).unwrap();
    assert_eq!(presp.predictions_mbps.len(), 2);
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
}
