//! The JSON wire protocol between players and the Prediction Engine.
//!
//! Mirrors §6 of the paper: before requesting each chunk the player POSTs
//! the measured throughput of the last epoch and gets back the throughput
//! prediction; on startup it can instead fetch its cluster's model and
//! predict locally (the client-side deployment of §5.3). Completed
//! sessions POST a QoE log.
//!
//! Endpoints:
//! - `POST /predict` — [`PredictRequest`] → [`PredictResponse`]
//! - `POST /predict_batch` — [`BatchPredictRequest`] → [`BatchPredictResponse`]
//! - `GET /model?features=a,b,c` — [`cs2p_core::ClientModel`] JSON
//! - `POST /log` — [`SessionLog`] (stored server-side)
//! - `GET /logs` — all stored [`SessionLog`]s
//! - `GET /healthz` — liveness + counters

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::Write;

/// Upper bound on entries per [`BatchPredictRequest`]. Frames above this
/// are rejected whole with a 400 — the cap keeps one peer from pinning a
/// worker (and several shard locks) for an unbounded stretch.
pub const MAX_BATCH_ENTRIES: usize = 1024;

/// Checks the value is a JSON object (for hand-written `Deserialize`).
fn expect_object(v: &serde::Value, ty: &str) -> Result<(), serde::DeError> {
    match v {
        serde::Value::Object(_) => Ok(()),
        other => Err(serde::DeError::expected(ty, other)),
    }
}

/// Fetches and parses a mandatory field (hand-written `Deserialize`).
fn required<T: Deserialize>(v: &serde::Value, key: &str, ty: &str) -> Result<T, serde::DeError> {
    T::from_value(
        v.get(key)
            .ok_or_else(|| serde::DeError(format!("missing field `{key}` in {ty}")))?,
    )
}

/// Fetches an optional field: missing or `null` parses as `None`.
fn optional<T: Deserialize>(v: &serde::Value, key: &str) -> Result<Option<T>, serde::DeError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => Option::<T>::from_value(x),
    }
}

/// A prediction request. The first request of a session carries
/// `features` and no measurement; subsequent ones carry the last epoch's
/// measured throughput.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) so the two
/// `Option` fields are omitted from the wire when `None` — batch frames
/// carry dozens of these, and `"features":null` per entry is pure hot-path
/// weight. A missing field parses back as `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen session identifier (unique per video session).
    pub session_id: u64,
    /// Session features, aligned with the engine's schema. Required on the
    /// first request; ignored afterwards.
    pub features: Option<Vec<u32>>,
    /// Measured throughput of the last epoch, Mbps. Absent on the first
    /// request (Algorithm 1's initial epoch).
    pub measured_mbps: Option<f64>,
    /// How many epochs ahead to predict (≥ 1).
    pub horizon: usize,
}

impl Serialize for PredictRequest {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(4);
        fields.push(("session_id".to_string(), self.session_id.to_value()));
        if self.features.is_some() {
            fields.push(("features".to_string(), self.features.to_value()));
        }
        if self.measured_mbps.is_some() {
            fields.push(("measured_mbps".to_string(), self.measured_mbps.to_value()));
        }
        fields.push(("horizon".to_string(), self.horizon.to_value()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for PredictRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "PredictRequest")?;
        Ok(PredictRequest {
            session_id: required(v, "session_id", "PredictRequest")?,
            features: optional(v, "features")?,
            measured_mbps: optional(v, "measured_mbps")?,
            horizon: required(v, "horizon", "PredictRequest")?,
        })
    }
}

/// Degraded-service provenance of a prediction (see the server's
/// admission ladder, `DESIGN.md` §3g). Absent from the wire at full
/// service, so Full-level responses are byte-identical to an unloaded
/// server's — the differential gate the overload suite holds the ladder
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Served from the session's cluster prior (initial median); the
    /// per-session filter was neither consulted nor updated.
    Degraded,
    /// Served from the harmonic mean of the session's own recent
    /// measurements — the paper's HM baseline — with no model access.
    Fallback,
}

impl Degradation {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Degradation::Degraded => "degraded",
            Degradation::Fallback => "fallback",
        }
    }
}

impl Serialize for Degradation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Degradation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match String::from_value(v)?.as_str() {
            "degraded" => Ok(Degradation::Degraded),
            "fallback" => Ok(Degradation::Fallback),
            other => Err(serde::DeError(format!(
                "unknown degradation level `{other}`"
            ))),
        }
    }
}

/// A prediction response.
///
/// Like [`PredictRequest`], serde impls are hand-written: the
/// `degradation` field must stay off the wire when absent so a
/// Full-level response serializes to exactly the bytes it did before the
/// admission ladder existed.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Predictions for the next `horizon` epochs, Mbps.
    pub predictions_mbps: Vec<f64>,
    /// True when this is the session's initial (cluster-median) prediction.
    pub initial: bool,
    /// Number of sessions in the cluster backing this prediction.
    pub cluster_sessions: usize,
    /// True when the session matched a cluster model at registration;
    /// false means it is served by the global fallback (§4.2's minimum
    /// cluster-size rule). Constant for the session's lifetime; the
    /// server's quality monitor keys its APE sketches on it.
    pub cluster_hit: bool,
    /// Version of the model that produced this prediction (see
    /// [`cs2p_core::ModelVersion`]). A session is pinned to the version it
    /// registered on, so this stays constant for the session's lifetime
    /// even while the server hot-swaps newer models underneath.
    pub model_version: u64,
    /// Present exactly when the server answered below full service (the
    /// admission ladder's Degraded or Fallback level). `None` — and off
    /// the wire — at full service.
    pub degradation: Option<Degradation>,
}

impl Serialize for PredictResponse {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(6);
        fields.push((
            "predictions_mbps".to_string(),
            self.predictions_mbps.to_value(),
        ));
        fields.push(("initial".to_string(), self.initial.to_value()));
        fields.push((
            "cluster_sessions".to_string(),
            self.cluster_sessions.to_value(),
        ));
        fields.push(("cluster_hit".to_string(), self.cluster_hit.to_value()));
        fields.push(("model_version".to_string(), self.model_version.to_value()));
        if self.degradation.is_some() {
            fields.push(("degradation".to_string(), self.degradation.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for PredictResponse {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "PredictResponse")?;
        Ok(PredictResponse {
            predictions_mbps: required(v, "predictions_mbps", "PredictResponse")?,
            initial: required(v, "initial", "PredictResponse")?,
            cluster_sessions: required(v, "cluster_sessions", "PredictResponse")?,
            cluster_hit: required(v, "cluster_hit", "PredictResponse")?,
            model_version: required(v, "model_version", "PredictResponse")?,
            degradation: optional(v, "degradation")?,
        })
    }
}

/// A batched prediction request: many independent `(session, measurement)`
/// entries in one HTTP frame. The server groups entries by session-store
/// shard, takes each shard lock once, and answers every entry with its own
/// status — one evicted session (per-entry 404) cannot fail the batch.
/// Entries for the same session are processed in frame order, so a batch
/// is semantically identical to sending its entries as sequential
/// `POST /predict` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPredictRequest {
    /// The per-session prediction requests, in arrival order. Must be
    /// non-empty and at most [`MAX_BATCH_ENTRIES`] long.
    pub entries: Vec<PredictRequest>,
}

/// One entry's outcome inside a [`BatchPredictResponse`].
///
/// Like [`PredictRequest`], serde impls are hand-written so `None` fields
/// stay off the wire: a 64-entry frame is serialized and parsed on the
/// hot path, and `"error":null` per successful entry is dead weight.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntryResult {
    /// Per-entry status, mirroring what the singleton `/predict` endpoint
    /// would have answered: 200 (prediction), 400 (invalid entry), or
    /// 404 (unknown/evicted session — re-register with features).
    pub status: u16,
    /// The prediction; present exactly when `status == 200`.
    pub response: Option<PredictResponse>,
    /// Error message; present exactly when `status != 200`.
    pub error: Option<String>,
}

impl Serialize for BatchEntryResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = Vec::with_capacity(3);
        fields.push(("status".to_string(), self.status.to_value()));
        if self.response.is_some() {
            fields.push(("response".to_string(), self.response.to_value()));
        }
        if self.error.is_some() {
            fields.push(("error".to_string(), self.error.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for BatchEntryResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        expect_object(v, "BatchEntryResult")?;
        Ok(BatchEntryResult {
            status: required(v, "status", "BatchEntryResult")?,
            response: optional(v, "response")?,
            error: optional(v, "error")?,
        })
    }
}

impl BatchEntryResult {
    /// A successful entry.
    pub fn ok(response: PredictResponse) -> Self {
        BatchEntryResult {
            status: 200,
            response: Some(response),
            error: None,
        }
    }

    /// A failed entry with the singleton endpoint's status and message.
    pub fn failed(status: u16, error: &str) -> Self {
        BatchEntryResult {
            status,
            response: None,
            error: Some(error.to_string()),
        }
    }
}

/// The response to a [`BatchPredictRequest`]: one [`BatchEntryResult`]
/// per entry, in the same order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPredictResponse {
    /// Per-entry outcomes, aligned with the request's `entries`.
    pub results: Vec<BatchEntryResult>,
}

// ---------------------------------------------------------------------------
// Direct JSON writers for the response hot path
// ---------------------------------------------------------------------------
//
// The vendored serde layer serializes through a `Value` tree: thousands
// of allocations for a 64-entry frame. These writers emit the bytes of
// `serde_json::to_vec` into one buffer. By Eq. 8 every midstream
// prediction is one of the pinned model's emission means and every first
// one its cluster median, so floats come from a per-thread render cache.

/// log2 of the slot count of each thread's float render cache.
const RENDER_SLOT_BITS: u32 = 11;
/// Longest rendering a slot holds (`1e300` renders as 301 digits).
const RENDER_SLOT_LEN: usize = 23;

/// A float's bit pattern and its JSON bytes; `len == 0` is empty.
#[derive(Clone, Copy, Default)]
struct RenderSlot {
    bits: u64,
    len: u8,
    bytes: [u8; RENDER_SLOT_LEN],
}

thread_local! {
    /// Direct-mapped by bit pattern: 2^11 slots of 32 bytes, 64 KB.
    static RENDER_CACHE: RefCell<Vec<RenderSlot>> =
        RefCell::new(vec![RenderSlot::default(); 1 << RENDER_SLOT_BITS]);
}

/// Writes `f` exactly as the vendored `serde_json` writer does: shortest
/// round-trip `Display`, `.0` appended to integral values, `null` for
/// non-finite floats. Finite values go through the render cache, keyed by
/// the full bit pattern (`-0.0` is not `0.0`). An unreachable cache
/// (thread teardown, re-entry) is skipped, never panicked on.
fn write_json_f64(out: &mut Vec<u8>, f: f64) {
    if !f.is_finite() {
        return out.extend_from_slice(b"null");
    }
    let (start, bits) = (out.len(), f.to_bits());
    // Fibonacci hashing: the product's top bits mix every input bit.
    let at = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RENDER_SLOT_BITS)) as usize;
    let _ = RENDER_CACHE.try_with(|cache| {
        let Ok(mut cache) = cache.try_borrow_mut() else {
            return;
        };
        let slot = &mut cache[at];
        if slot.len > 0 && slot.bits == bits {
            return out.extend_from_slice(&slot.bytes[..usize::from(slot.len)]);
        }
        render_json_f64(out, f);
        let rendered = &out[start..];
        if rendered.len() <= RENDER_SLOT_LEN {
            (slot.bits, slot.len) = (bits, rendered.len() as u8);
            slot.bytes[..rendered.len()].copy_from_slice(rendered);
        }
    });
    // No rendering is empty: nothing written means the cache was skipped.
    if out.len() == start {
        render_json_f64(out, f);
    }
}

/// `Display`, then `.0` when that reads as an integer.
fn render_json_f64(out: &mut Vec<u8>, f: f64) {
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// Writes `n` in decimal, as `Display` does, without the formatter.
fn write_json_uint(out: &mut Vec<u8>, n: u64) {
    if n >= 10 {
        write_json_uint(out, n / 10);
    }
    out.push(b'0' + (n % 10) as u8);
}

fn write_json_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Writes `items` comma-separated: the inside of a JSON array.
fn write_json_list<T>(out: &mut Vec<u8>, items: &[T], write: impl Fn(&T, &mut Vec<u8>)) {
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            out.push(b',');
        }
        write(item, out);
    }
}

/// Writes `s` as a JSON string with the vendored writer's escaping. Only
/// ASCII bytes are ever escaped, so UTF-8 passes through bytewise.
fn write_json_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

impl PredictRequest {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"session_id\":");
        write_json_uint(out, self.session_id);
        if let Some(features) = &self.features {
            out.extend_from_slice(b",\"features\":[");
            write_json_list(out, features, |f, out| write_json_uint(out, u64::from(*f)));
            out.push(b']');
        }
        if let Some(m) = self.measured_mbps {
            out.extend_from_slice(b",\"measured_mbps\":");
            write_json_f64(out, m);
        }
        out.extend_from_slice(b",\"horizon\":");
        write_json_uint(out, self.horizon as u64);
        out.push(b'}');
    }
}

impl BatchPredictRequest {
    /// Serializes the frame straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * 96);
        out.extend_from_slice(b"{\"entries\":[");
        write_json_list(&mut out, &self.entries, PredictRequest::write_json);
        out.extend_from_slice(b"]}");
        out
    }
}

impl PredictResponse {
    /// Serializes the response straight to bytes, bypassing the `Value`
    /// tree — what `POST /predict` ships. Byte-identical to
    /// `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.json_capacity());
        self.write_json(&mut out);
        out
    }

    /// Fixed fields with room to spare, then a slot's rendering and a
    /// comma per prediction.
    fn json_capacity(&self) -> usize {
        128 + (RENDER_SLOT_LEN + 1) * self.predictions_mbps.len()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"predictions_mbps\":[");
        write_json_list(out, &self.predictions_mbps, |p, out| {
            write_json_f64(out, *p)
        });
        out.extend_from_slice(b"],\"initial\":");
        write_json_bool(out, self.initial);
        out.extend_from_slice(b",\"cluster_sessions\":");
        write_json_uint(out, self.cluster_sessions as u64);
        out.extend_from_slice(b",\"cluster_hit\":");
        write_json_bool(out, self.cluster_hit);
        out.extend_from_slice(b",\"model_version\":");
        write_json_uint(out, self.model_version);
        if let Some(d) = self.degradation {
            out.extend_from_slice(b",\"degradation\":");
            write_json_str(out, d.as_str());
        }
        out.push(b'}');
    }
}

impl BatchEntryResult {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"status\":");
        write_json_uint(out, u64::from(self.status));
        if let Some(resp) = &self.response {
            out.extend_from_slice(b",\"response\":");
            resp.write_json(out);
        }
        if let Some(err) = &self.error {
            out.extend_from_slice(b",\"error\":");
            write_json_str(out, err);
        }
        out.push(b'}');
    }
}

impl BatchPredictResponse {
    /// Serializes the frame straight to bytes, bypassing the `Value`
    /// tree. Byte-identical to `serde_json::to_vec(self)`.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        // An error entry's message is one of the server's short constants.
        let capacity = self.results.iter().fold(16, |n, r| {
            let response = r.response.as_ref();
            n + 32 + response.map_or(64, PredictResponse::json_capacity)
        });
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(b"{\"results\":[");
        write_json_list(&mut out, &self.results, BatchEntryResult::write_json);
        out.extend_from_slice(b"]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Direct JSON decoder for the request hot path
// ---------------------------------------------------------------------------
//
// The server parses every `/predict` and `/predict_batch` body here, in
// one pass over the bytes with no `Value` tree: the only allocations are
// the entries `Vec` and each entry's `features`. The decoder accepts a
// subset of what `serde_json::from_slice` accepts and decodes it to the
// same value (held to that in `protocol_props`): anything the in-repo
// writers emit, plus whitespace, any key order and explicit `null`s for
// the optional fields. Unknown, duplicate and escaped keys are refused,
// where the serde impls above ignore, shadow or unescape them.

/// Why [`PredictRequest::from_json_bytes`] or
/// [`BatchPredictRequest::from_json_bytes`] refused a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a request body the decoder accepts.
    Malformed,
    /// A batch frame over [`MAX_BATCH_ENTRIES`]: decoding stopped at the
    /// first entry past the cap, so an oversized frame is never parsed
    /// whole.
    TooManyEntries,
}

type Decoded<T> = Result<T, DecodeError>;

/// A number token, typed as the vendored parser types it: a token with
/// none of `.eE+` and no `-` past its sign is an `i64` if it fits, else a
/// `u64` if it fits; everything else goes through `f64` parsing.
enum Number {
    Int(i64),
    UInt(u64),
    Float(f64),
}

/// A cursor over a request body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Fills a field slot; a second occurrence of the key is refused.
fn set_once<T>(slot: &mut Option<T>, value: T) -> Decoded<()> {
    if slot.is_some() {
        return Err(DecodeError::Malformed);
    }
    *slot = Some(value);
    Ok(())
}

impl<'a> Reader<'a> {
    /// Runs `value` over the whole of `bytes`: trailing non-whitespace is
    /// refused.
    fn document<T>(bytes: &'a [u8], value: fn(&mut Self) -> Decoded<T>) -> Decoded<T> {
        let mut reader = Reader { bytes, pos: 0 };
        let out = value(&mut reader)?;
        match reader.peek() {
            None => Ok(out),
            Some(_) => Err(DecodeError::Malformed),
        }
    }

    /// The next byte after JSON whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consumes `b` if it is the next byte after whitespace.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Decoded<()> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(DecodeError::Malformed)
        }
    }

    /// `{ "key": value, ... }`, handing each raw key to `field`, which
    /// must consume its value. Keys are compared as raw bytes, so an
    /// escaped key never matches.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &[u8]) -> Decoded<()>) -> Decoded<()> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.expect(b'"')?;
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let len = rest
                .iter()
                .position(|&b| b == b'"')
                .ok_or(DecodeError::Malformed)?;
            let key = &rest[..len];
            self.pos += len + 1;
            self.expect(b':')?;
            field(self, key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// `[ item, ... ]`, calling `item` once per element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Decoded<()>) -> Decoded<()> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }

    /// `null` as `None`, anything else through `value`.
    fn nullable<T>(&mut self, value: fn(&mut Self) -> Decoded<T>) -> Decoded<Option<T>> {
        if self.peek() != Some(b'n') {
            return value(self).map(Some);
        }
        if !self.bytes[self.pos..].starts_with(b"null") {
            return Err(DecodeError::Malformed);
        }
        self.pos += 4;
        Ok(None)
    }

    /// One number token, scanned and typed exactly as the vendored parser
    /// does (including its leniency: `01` is 1 and `-0` is the integer 0).
    fn number(&mut self) -> Decoded<Number> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(DecodeError::Malformed);
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DecodeError::Malformed)?;
        if !is_float {
            if let Ok(i) = text.parse() {
                return Ok(Number::Int(i));
            }
            if let Ok(u) = text.parse() {
                return Ok(Number::UInt(u));
            }
        }
        text.parse()
            .map(Number::Float)
            .map_err(|_| DecodeError::Malformed)
    }

    /// An integer in `T`'s range; a float token is refused.
    fn integer<T: TryFrom<i64> + TryFrom<u64>>(&mut self) -> Decoded<T> {
        match self.number()? {
            Number::Int(i) => T::try_from(i).ok(),
            Number::UInt(u) => T::try_from(u).ok(),
            Number::Float(_) => None,
        }
        .ok_or(DecodeError::Malformed)
    }

    fn float(&mut self) -> Decoded<f64> {
        Ok(match self.number()? {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        })
    }

    fn features(&mut self) -> Decoded<Vec<u32>> {
        let mut out = Vec::new();
        self.array(|r| {
            out.push(r.integer()?);
            Ok(())
        })?;
        Ok(out)
    }

    fn predict_request(&mut self) -> Decoded<PredictRequest> {
        let (mut session_id, mut features, mut measured_mbps, mut horizon) =
            (None, None, None, None);
        self.object(|r, key| match key {
            b"session_id" => set_once(&mut session_id, r.integer()?),
            b"features" => set_once(&mut features, r.nullable(Self::features)?),
            b"measured_mbps" => set_once(&mut measured_mbps, r.nullable(Self::float)?),
            b"horizon" => set_once(&mut horizon, r.integer()?),
            _ => Err(DecodeError::Malformed),
        })?;
        Ok(PredictRequest {
            session_id: session_id.ok_or(DecodeError::Malformed)?,
            features: features.flatten(),
            measured_mbps: measured_mbps.flatten(),
            horizon: horizon.ok_or(DecodeError::Malformed)?,
        })
    }

    fn batch_request(&mut self) -> Decoded<BatchPredictRequest> {
        let mut entries = None;
        self.object(|r, key| {
            if key != b"entries" {
                return Err(DecodeError::Malformed);
            }
            let mut list = Vec::new();
            r.array(|r| {
                if list.len() == MAX_BATCH_ENTRIES {
                    return Err(DecodeError::TooManyEntries);
                }
                list.push(r.predict_request()?);
                Ok(())
            })?;
            set_once(&mut entries, list)
        })?;
        Ok(BatchPredictRequest {
            entries: entries.ok_or(DecodeError::Malformed)?,
        })
    }
}

impl PredictRequest {
    /// Parses a `POST /predict` body in one pass, without the `Value`
    /// tree. Whatever it accepts, `serde_json::from_slice` decodes to the
    /// same request; it is stricter in refusing unknown, duplicate and
    /// escaped keys.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::document(bytes, Reader::predict_request)
    }
}

impl BatchPredictRequest {
    /// Parses a `POST /predict_batch` body like
    /// [`PredictRequest::from_json_bytes`], refusing a frame at its first
    /// entry past [`MAX_BATCH_ENTRIES`].
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Reader::document(bytes, Reader::batch_request)
    }
}

/// The per-session log a player uploads when playback ends (§6: "log
/// information including QoE, bitrates, rebuffer time, startup delay,
/// predicted/actual throughput and bitrate adaptation strategy").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionLog {
    /// Session identifier.
    pub session_id: u64,
    /// Adaptation strategy name (e.g. `"CS2P+MPC"`).
    pub strategy: String,
    /// Final QoE value.
    pub qoe: f64,
    /// Average bitrate, kbps.
    pub avg_bitrate_kbps: f64,
    /// Fraction of chunks without rebuffering.
    pub good_ratio: f64,
    /// Total rebuffer time, seconds.
    pub rebuffer_seconds: f64,
    /// Startup delay, seconds.
    pub startup_delay_seconds: f64,
    /// Per-chunk `(predicted, actual)` throughput, Mbps; `predicted` may
    /// be missing for methods without an initial prediction.
    pub throughput_pairs: Vec<(Option<f64>, f64)>,
    /// Bitrate chosen per chunk, kbps.
    pub bitrates_kbps: Vec<f64>,
}

/// Per-strategy aggregate over the uploaded session logs — what the
/// paper's operators read off their log server to compare CS2P+MPC
/// against HM+MPC in the §7.5 pilot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyStats {
    /// Strategy label the sessions reported.
    pub strategy: String,
    /// Number of sessions.
    pub n_sessions: usize,
    /// Mean QoE.
    pub mean_qoe: f64,
    /// Mean average bitrate, kbps.
    pub mean_bitrate_kbps: f64,
    /// Mean fraction of stall-free chunks.
    pub mean_good_ratio: f64,
    /// Mean total rebuffer time, seconds.
    pub mean_rebuffer_seconds: f64,
    /// Mean startup delay, seconds.
    pub mean_startup_seconds: f64,
}

/// `GET /stats` payload: one row per strategy seen in the logs, sorted by
/// strategy name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogStats {
    /// Aggregates per strategy.
    pub strategies: Vec<StrategyStats>,
}

impl LogStats {
    /// Computes the aggregates from raw logs.
    pub fn from_logs(logs: &[SessionLog]) -> Self {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<&str, Vec<&SessionLog>> = BTreeMap::new();
        for log in logs {
            groups.entry(log.strategy.as_str()).or_default().push(log);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let strategies = groups
            .into_iter()
            .map(|(strategy, logs)| StrategyStats {
                strategy: strategy.to_string(),
                n_sessions: logs.len(),
                mean_qoe: mean(&logs.iter().map(|l| l.qoe).collect::<Vec<_>>()),
                mean_bitrate_kbps: mean(
                    &logs.iter().map(|l| l.avg_bitrate_kbps).collect::<Vec<_>>(),
                ),
                mean_good_ratio: mean(&logs.iter().map(|l| l.good_ratio).collect::<Vec<_>>()),
                mean_rebuffer_seconds: mean(
                    &logs.iter().map(|l| l.rebuffer_seconds).collect::<Vec<_>>(),
                ),
                mean_startup_seconds: mean(
                    &logs
                        .iter()
                        .map(|l| l.startup_delay_seconds)
                        .collect::<Vec<_>>(),
                ),
            })
            .collect();
        LogStats { strategies }
    }
}

/// Health/counters payload for `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Health {
    /// Always `"ok"`.
    pub status: String,
    /// Cluster models loaded.
    pub n_models: usize,
    /// Live sessions in the server's table.
    pub n_sessions: usize,
    /// Predictions served since start.
    pub predictions_served: u64,
    /// Session logs stored.
    pub n_logs: usize,
}

/// Parses the `features=` query parameter of `GET /model`.
pub fn parse_features_query(path: &str) -> Option<Vec<u32>> {
    let query = path.split_once('?')?.1;
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("features=") {
            let mut out = Vec::new();
            for tok in value.split(',') {
                out.push(tok.parse().ok()?);
            }
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_roundtrip() {
        let req = PredictRequest {
            session_id: 7,
            features: Some(vec![1, 2, 3]),
            measured_mbps: None,
            horizon: 5,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn predict_response_roundtrip() {
        let mut resp = PredictResponse {
            predictions_mbps: vec![1.5, 1.4, 1.4],
            initial: false,
            cluster_sessions: 250,
            cluster_hit: true,
            model_version: 3,
            degradation: None,
        };
        let json = serde_json::to_string(&resp).unwrap();
        // Full service keeps the provenance field off the wire entirely:
        // the bytes are what a pre-ladder server produced.
        assert!(!json.contains("degradation"), "{json}");
        let back: PredictResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);

        for (d, name) in [
            (Degradation::Degraded, "\"degradation\":\"degraded\""),
            (Degradation::Fallback, "\"degradation\":\"fallback\""),
        ] {
            resp.degradation = Some(d);
            let json = serde_json::to_string(&resp).unwrap();
            assert!(json.contains(name), "{json}");
            let back: PredictResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(resp, back);
        }

        assert!(
            serde_json::from_str::<PredictResponse>(
                r#"{"predictions_mbps":[1.0],"initial":false,"cluster_sessions":1,
                    "cluster_hit":true,"model_version":1,"degradation":"bogus"}"#,
            )
            .is_err(),
            "unknown degradation levels must be rejected"
        );
    }

    #[test]
    fn batch_request_and_response_roundtrip() {
        let req = BatchPredictRequest {
            entries: vec![
                PredictRequest {
                    session_id: 1,
                    features: Some(vec![0]),
                    measured_mbps: None,
                    horizon: 2,
                },
                PredictRequest {
                    session_id: 2,
                    features: None,
                    measured_mbps: Some(4.5),
                    horizon: 1,
                },
            ],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: BatchPredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let resp = BatchPredictResponse {
            results: vec![
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![1.0, 1.1],
                    initial: true,
                    cluster_sessions: 20,
                    cluster_hit: true,
                    model_version: 1,
                    degradation: None,
                }),
                BatchEntryResult::failed(404, "unknown session"),
            ],
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: BatchPredictResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        assert_eq!(back.results[0].status, 200);
        assert!(back.results[1].response.is_none());
    }

    #[test]
    fn none_fields_stay_off_the_wire_and_parse_back() {
        let req = PredictRequest {
            session_id: 9,
            features: None,
            measured_mbps: Some(3.25),
            horizon: 1,
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(!json.contains("features"), "None field on the wire: {json}");
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        // Explicit nulls (the pre-batch wire format) still parse.
        let back: PredictRequest = serde_json::from_str(
            r#"{"session_id":9,"features":null,"measured_mbps":3.25,"horizon":1}"#,
        )
        .unwrap();
        assert_eq!(req, back);

        let ok = BatchEntryResult::ok(PredictResponse {
            predictions_mbps: vec![2.0],
            initial: false,
            cluster_sessions: 3,
            cluster_hit: false,
            model_version: 1,
            degradation: None,
        });
        let json = serde_json::to_string(&ok).unwrap();
        assert!(!json.contains("error"), "None field on the wire: {json}");
        assert!(
            !json.contains("degradation"),
            "None field on the wire: {json}"
        );
        assert_eq!(ok, serde_json::from_str::<BatchEntryResult>(&json).unwrap());
    }

    #[test]
    fn fast_writers_match_the_generic_serializer() {
        let req = BatchPredictRequest {
            entries: vec![
                PredictRequest {
                    session_id: 1,
                    features: Some(vec![0, 7, 2]),
                    measured_mbps: None,
                    horizon: 2,
                },
                PredictRequest {
                    session_id: u64::MAX,
                    features: None,
                    measured_mbps: Some(4.5),
                    horizon: 1,
                },
                PredictRequest {
                    session_id: 2,
                    features: Some(vec![]),
                    measured_mbps: Some(3.0),
                    horizon: 8,
                },
            ],
        };
        assert_eq!(req.to_json_bytes(), serde_json::to_vec(&req).unwrap());

        let resp = BatchPredictResponse {
            results: vec![
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![1.0, 1.25, f64::NAN, 0.1 + 0.2],
                    initial: true,
                    cluster_sessions: 20,
                    cluster_hit: true,
                    model_version: 3,
                    degradation: None,
                }),
                BatchEntryResult::ok(PredictResponse {
                    predictions_mbps: vec![2.5],
                    initial: false,
                    cluster_sessions: 0,
                    cluster_hit: false,
                    model_version: 0,
                    degradation: Some(Degradation::Fallback),
                }),
                BatchEntryResult::failed(404, "unknown session \"x\"\n\ttab\u{1}"),
                BatchEntryResult {
                    status: 200,
                    response: None,
                    error: None,
                },
            ],
        };
        assert_eq!(resp.to_json_bytes(), serde_json::to_vec(&resp).unwrap());
        // The singleton endpoint ships each of those responses on its own.
        for single in resp.results.iter().filter_map(|r| r.response.as_ref()) {
            assert_eq!(single.to_json_bytes(), serde_json::to_vec(single).unwrap());
        }
    }

    /// The slot of this thread's render cache that holds `f`, if any.
    fn slot_holding(f: f64) -> Option<usize> {
        RENDER_CACHE.with(|cache| {
            cache
                .borrow()
                .iter()
                .position(|slot| slot.len > 0 && slot.bits == f.to_bits())
        })
    }

    #[test]
    fn values_sharing_a_slot_replace_each_other_and_render_exactly() {
        let a = 2.413_793_103_448_276;
        write_json_f64(&mut Vec::new(), a);
        let slot = slot_holding(a).expect("a short rendering is cached");
        let b = (1..100_000)
            .map(|k| a + k as f64 / 1024.0)
            .find(|&b| {
                write_json_f64(&mut Vec::new(), b);
                slot_holding(b) == Some(slot)
            })
            .expect("some value lands in the same slot");
        for _ in 0..3 {
            for v in [a, b] {
                let mut out = Vec::new();
                write_json_f64(&mut out, v);
                assert_eq!(out, serde_json::to_vec(&v).unwrap());
                assert_eq!(slot_holding(v), Some(slot), "{v} took over its slot");
            }
        }
        // Too long for a slot: rendered each time, never cached.
        let mut out = Vec::new();
        write_json_f64(&mut out, 1e300);
        assert_eq!(out, serde_json::to_vec(&1e300).unwrap());
        assert_eq!(slot_holding(1e300), None);
    }

    #[test]
    fn a_borrowed_cache_is_skipped_not_panicked_on() {
        RENDER_CACHE.with(|cache| {
            let _held = cache.borrow_mut();
            let mut out = Vec::new();
            write_json_f64(&mut out, 1.5);
            assert_eq!(out, b"1.5");
        });
    }

    #[test]
    fn session_log_roundtrip() {
        let log = SessionLog {
            session_id: 1,
            strategy: "CS2P+MPC".into(),
            qoe: 1234.5,
            avg_bitrate_kbps: 2000.0,
            good_ratio: 0.98,
            rebuffer_seconds: 0.4,
            startup_delay_seconds: 1.1,
            throughput_pairs: vec![(Some(2.0), 2.1), (None, 1.9)],
            bitrates_kbps: vec![2000.0, 2000.0],
        };
        let json = serde_json::to_string(&log).unwrap();
        let back: SessionLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn log_stats_groups_by_strategy() {
        let mk = |strategy: &str, qoe: f64, bitrate: f64| SessionLog {
            session_id: 0,
            strategy: strategy.into(),
            qoe,
            avg_bitrate_kbps: bitrate,
            good_ratio: 1.0,
            rebuffer_seconds: 0.0,
            startup_delay_seconds: 1.0,
            throughput_pairs: vec![],
            bitrates_kbps: vec![],
        };
        let logs = vec![
            mk("CS2P+MPC", 100.0, 2000.0),
            mk("CS2P+MPC", 200.0, 3000.0),
            mk("HM+MPC", 50.0, 1000.0),
        ];
        let stats = LogStats::from_logs(&logs);
        assert_eq!(stats.strategies.len(), 2);
        let cs2p = &stats.strategies[0];
        assert_eq!(cs2p.strategy, "CS2P+MPC");
        assert_eq!(cs2p.n_sessions, 2);
        assert!((cs2p.mean_qoe - 150.0).abs() < 1e-12);
        assert!((cs2p.mean_bitrate_kbps - 2500.0).abs() < 1e-12);
        let hm = &stats.strategies[1];
        assert_eq!(hm.strategy, "HM+MPC");
        assert_eq!(hm.n_sessions, 1);
    }

    #[test]
    fn log_stats_of_empty_logs() {
        let stats = LogStats::from_logs(&[]);
        assert!(stats.strategies.is_empty());
        let json = serde_json::to_string(&stats).unwrap();
        let back: LogStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn features_query_parsing() {
        assert_eq!(
            parse_features_query("/model?features=1,2,3"),
            Some(vec![1, 2, 3])
        );
        assert_eq!(
            parse_features_query("/model?other=x&features=9"),
            Some(vec![9])
        );
        assert_eq!(parse_features_query("/model"), None);
        assert_eq!(parse_features_query("/model?features=1,bogus"), None);
    }
}
