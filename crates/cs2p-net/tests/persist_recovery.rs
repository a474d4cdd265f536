//! Torn-write recovery battery for the durability layer (see DESIGN.md
//! §3f and TESTING.md "Crash recovery").
//!
//! Four layers of attack, bottom-up:
//!
//! - **framing**: a WAL written through the real `Wal` is truncated at
//!   *every* byte offset and bit-flipped at seeded positions — decoding
//!   must never panic, must recover exactly the longest valid frame
//!   prefix, and must report `clean` only at true frame boundaries;
//! - **snapshot**: `store.snap` written by a real compaction is
//!   byte-flipped at *every* offset — recovery must never panic and every
//!   session must come back bit-identical to the uncorrupted recovery or
//!   not at all (the re-register path), never with different state;
//! - **registry**: random publish/GC programs against the on-disk model
//!   directory — the files present must always equal the retained set,
//!   the `CURRENT` pointer must follow the latest publish, and a corrupt
//!   bundle is skipped, never fatal;
//! - **end-to-end**: a server opened with `ServerHandle::open_or_recover`
//!   is killed (cleanly or with a torn final commit) at every commit
//!   point of a deterministic request stream, reopened, and compared —
//!   response-byte-identical — against a control server that was only
//!   ever fed the committed prefix. The same battery checks the graceful
//!   path: flush-on-shutdown makes the whole stream durable.
//!
//! Commit-point arithmetic: with `commit_every_records = 1` and a
//! single-threaded driver, every step of the stream appends exactly one
//! WAL record and therefore owns exactly one commit index, so
//! "crash at commit k" and "control fed the first k steps" describe the
//! same durable state. The stream is built to keep that invariant
//! (capacity far above the session count, `/log` only for live
//! sessions — nothing ever evicts or no-ops).

use cs2p_core::ModelBundle;
use cs2p_ml::hmm::FilterState;
use cs2p_net::http::{Request, Response};
use cs2p_net::persist::{decode_frames, recover, PersistedSession, RegistryDir, Wal, WalRecord};
use cs2p_net::protocol::{PredictRequest, SessionLog};
use cs2p_net::{HttpClient, PersistConfig, ServeConfig, ServerHandle};
use cs2p_obs::ManualClock;
use cs2p_testkit::crash::{copy_dir, CrashPlan, TempDir};
use cs2p_testkit::scenarios::tiny_engine;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// `tiny_engine()` trains from scratch; this battery spins ~100 servers,
/// so train once and clone.
fn cached_engine() -> cs2p_core::PredictionEngine {
    static ENGINE: OnceLock<cs2p_core::PredictionEngine> = OnceLock::new();
    ENGINE.get_or_init(tiny_engine).clone()
}

// ---------------------------------------------------------------------
// Framing layer
// ---------------------------------------------------------------------

const FRAME_HEADER: usize = 8;

/// Frames written through the real `Wal`, then truncated at every byte
/// offset: the decoder must return exactly the frames that fit whole,
/// flag every mid-frame cut as unclean, and never panic.
#[test]
fn truncation_at_every_byte_offset_yields_longest_valid_prefix() {
    let dir = TempDir::new("trunc");
    let path = dir.path().join("wal-000001.log");
    // Varied sizes, including empty, so cuts land in headers, payloads,
    // and exactly on boundaries.
    let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![0xA0 ^ i; (i as usize) * 3]).collect();
    {
        let wal = Wal::open(&path, Arc::new(ManualClock::new()), 1, None, false, None).unwrap();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.flush().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let boundaries: Vec<usize> = payloads
        .iter()
        .scan(0usize, |pos, p| {
            *pos += FRAME_HEADER + p.len();
            Some(*pos)
        })
        .collect();
    assert_eq!(*boundaries.last().unwrap(), bytes.len(), "Wal framing size");

    for cut in 0..=bytes.len() {
        let replay = decode_frames(&bytes[..cut]);
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            replay.records,
            &payloads[..whole],
            "cut at {cut}: wrong record prefix"
        );
        let on_boundary = cut == 0 || boundaries.contains(&cut);
        assert_eq!(replay.clean, on_boundary, "cut at {cut}: clean flag");
        let expected_valid = boundaries
            .iter()
            .rev()
            .find(|&&b| b <= cut)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            replay.valid_bytes, expected_valid as u64,
            "cut at {cut}: valid_bytes"
        );
    }
}

proptest! {
    /// A single flipped bit anywhere in a framed stream: every frame
    /// that ends before the flipped byte decodes intact, decoding stops
    /// at the corrupted frame (CRC32 catches any single-bit error), the
    /// log is flagged unclean, and nothing panics.
    #[test]
    fn single_bit_flip_never_panics_and_preserves_the_prefix(
        sizes in prop::collection::vec(0usize..48, 1..8),
        flip_pos in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let mut bytes = Vec::new();
        let mut boundaries = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&cs2p_net::persist::crc32(p).to_le_bytes());
            bytes.extend_from_slice(p);
            boundaries.push(bytes.len());
        }
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;

        let replay = decode_frames(&bytes);
        // Frames that end at or before the flipped byte are untouched;
        // the flip lands inside the next frame, which must fail its CRC
        // (or bounds check, if the flip grew the length field).
        let intact = boundaries.iter().filter(|&&b| b <= pos).count();
        prop_assert_eq!(&replay.records, &payloads[..intact]);
        prop_assert!(!replay.clean, "a flipped bit must mark the log unclean");
    }
}

// ---------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------

/// The size `recover` reads a file in, and keeps its buffer at unless
/// one frame is longer.
const READ_BUF: usize = 64 * 1024;

/// `MAX_RECORD_LEN`: the largest payload a frame header may claim.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// A `Register` of `id` with an `observed` history of `n` values: its
/// frame is `60 + 8n` bytes.
fn register(id: u64, n: usize) -> WalRecord {
    WalRecord::Register {
        id,
        tick: id,
        session: PersistedSession {
            version: 1,
            model: None,
            cluster_hit: false,
            filter: FilterState {
                posterior: vec![],
                epoch: 0,
            },
            features: vec![id as u32],
            observed: (0..n).map(|k| (id * 1000 + k as u64) as f64).collect(),
            pending: None,
        },
    }
}

/// Where `recover`'s reads of a file end, given where its frames end: it
/// reads a buffer's worth, refills from the start of the first frame the
/// buffer does not hold whole, and grows the buffer only to hold one
/// longer frame.
fn read_ends(frame_ends: &[usize]) -> Vec<usize> {
    let len = frame_ends.last().copied().unwrap_or(0);
    let (mut buf, mut start, mut held) = (READ_BUF, 0, READ_BUF.min(len));
    let mut ends = vec![held];
    for &end in frame_ends {
        if start + FRAME_HEADER > held {
            held = (start + buf).min(len);
            ends.push(held);
        }
        if end > held {
            buf = buf.max(end - start);
            held = (start + buf).min(len);
            ends.push(held);
        }
        start = end;
    }
    ends
}

/// What `recover` must return for a segment of `Register` frames: the
/// sessions `decode_frames` finds in the whole file, by id.
fn assert_recovers_what_decode_frames_finds(bytes: &[u8], case: &str) {
    let dir = TempDir::new("stream");
    std::fs::write(dir.path().join("wal-000001.log"), bytes).unwrap();
    let state = recover(dir.path(), usize::MAX).unwrap();
    let decoded = decode_frames(bytes);
    let mut want: Vec<(u64, u64, PersistedSession)> = decoded
        .records
        .iter()
        .map(|payload| match WalRecord::decode(payload) {
            Some(WalRecord::Register { id, tick, session }) => (id, tick, session),
            other => panic!("{case}: not a registration: {other:?}"),
        })
        .collect();
    want.sort_unstable_by_key(|&(id, _, _)| id);
    let tick = want.iter().map(|&(_, tick, _)| tick + 1).max().unwrap_or(0);
    assert_eq!(state.clean, decoded.clean, "{case}: clean flag");
    assert_eq!(state.wal_records, want.len() as u64, "{case}: records");
    assert_eq!(state.tick, tick, "{case}: tick");
    assert!(state.sessions == want, "{case}: recovered sessions differ");
}

/// A segment of several megabytes, recovered through the streaming
/// reader, against `decode_frames` over the whole file: clean, torn in a
/// header, with a CRC mismatch, and with an oversized length. Its
/// 516-byte frames put a read end 4 bytes into a frame header 127 frames
/// on from each refill, and one 72,244-byte frame (4 bytes more than 140
/// of them) is longer than the buffer, so the reads after it, at that
/// size, end 4 bytes into headers too.
#[test]
fn a_multi_megabyte_wal_streams_to_what_decode_frames_finds() {
    const HUGE_AT: usize = 3_000;
    let mut bytes = Vec::new();
    let mut frame_ends = Vec::new();
    for id in 0..8_000u64 {
        let n = if id as usize == HUGE_AT { 9_023 } else { 57 };
        let payload = register(id, n).encode();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&cs2p_net::persist::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        frame_ends.push(bytes.len());
    }
    let frame_start = |i: usize| if i == 0 { 0 } else { frame_ends[i - 1] };
    assert_eq!(frame_start(1), 516, "frame size");
    assert!(frame_ends[HUGE_AT] - frame_start(HUGE_AT) > READ_BUF);
    let ends = read_ends(&frame_ends);
    let reads = &ends[..ends.len() - 1];
    // Every read but the two that end in or at the long frame ends inside
    // a frame header, and no 64 KiB offset is a frame boundary.
    let into_frame = |at: usize| at - frame_start(frame_ends.partition_point(|&e| e <= at));
    let long = frame_start(HUGE_AT)..=frame_ends[HUGE_AT];
    let (in_long, elsewhere): (Vec<usize>, Vec<usize>) =
        reads.iter().partition(|&at| long.contains(at));
    assert_eq!(in_long.len(), 2, "reads ending in the long frame");
    assert!(elsewhere.len() >= 50, "{} reads", elsewhere.len());
    assert!(elsewhere
        .iter()
        .all(|&at| (1..FRAME_HEADER).contains(&into_frame(at))));
    assert!((READ_BUF..bytes.len())
        .step_by(READ_BUF)
        .all(|at| into_frame(at) != 0));

    assert_recovers_what_decode_frames_finds(&bytes, "clean");
    // Cut 4 bytes into a frame header, at a read end past the long frame.
    let torn_at = elsewhere[elsewhere.len() - 10];
    assert!(torn_at > frame_ends[HUGE_AT]);
    assert_recovers_what_decode_frames_finds(&bytes[..torn_at], "torn header");
    // The long frame as the last of the file: a clean end the reader
    // reaches only by refilling and growing the buffer.
    let long_end = frame_ends[HUGE_AT];
    assert_recovers_what_decode_frames_finds(&bytes[..long_end], "long frame last");
    // A flipped payload byte 3 MB in, many buffers after the first.
    let mut flipped = bytes.clone();
    flipped[3_000_000] ^= 0x10;
    assert!(into_frame(3_000_000) >= FRAME_HEADER, "a payload byte");
    assert_recovers_what_decode_frames_finds(&flipped, "CRC mismatch");
    // Three frames from the end, a length field just under the cap: far
    // more than the file has left (the allocation side of this is
    // `alloc_budget`'s).
    let mut oversized = bytes.clone();
    let at = frame_start(frame_ends.len() - 3);
    oversized[at..at + 4].copy_from_slice(&(MAX_RECORD_LEN - 1).to_le_bytes());
    assert_recovers_what_decode_frames_finds(&oversized, "length under the cap");
}

// ---------------------------------------------------------------------
// Registry layer
// ---------------------------------------------------------------------

proptest! {
    /// Random publish/GC programs against the model directory: after
    /// every program the files on disk are exactly the retained set,
    /// `CURRENT` names the latest publish, and reloading recovers every
    /// retained version (density: versions are the publish sequence).
    #[test]
    fn registry_dir_files_always_match_the_retained_set(
        n_published in 1u64..8,
        retain in 1u64..4,
        corrupt_one in any::<bool>(),
    ) {
        let tmp = TempDir::new("registry");
        let dir = tmp.path();
        let sink = RegistryDir::create(dir).unwrap();
        let engine = cached_engine();

        use cs2p_core::registry::RegistryPersistence;
        use cs2p_core::ModelVersion;
        let mut retained: Vec<u64> = Vec::new();
        for v in 1..=n_published {
            sink.publish_version(ModelVersion(v), &engine);
            retained.push(v);
            while retained.len() as u64 > retain {
                sink.collect_version(ModelVersion(retained.remove(0)));
            }
            // The invariant holds after *every* step, not just at the end.
            let (engines, current) = RegistryDir::load(dir).unwrap();
            let versions: Vec<u64> = engines.iter().map(|(ev, _)| *ev).collect();
            prop_assert_eq!(&versions, &retained, "publish {} files", v);
            prop_assert_eq!(current, Some(v), "publish {} pointer", v);
        }

        if corrupt_one {
            // Scribble over the *current* bundle: the loader must skip it
            // without panicking, and the dangling pointer must filter to
            // `None` rather than name a version that cannot be served.
            let current = *retained.last().unwrap();
            std::fs::write(dir.join(format!("v{current}.json")), b"{not json").unwrap();
            let (engines, loaded_current) = RegistryDir::load(dir).unwrap();
            let versions: Vec<u64> = engines.iter().map(|(ev, _)| *ev).collect();
            let survivors: Vec<u64> =
                retained.iter().copied().filter(|&v| v != current).collect();
            prop_assert_eq!(versions, survivors, "corrupt bundle must be skipped");
            prop_assert_eq!(loaded_current, None, "dangling pointer must filter out");
        }
    }
}

/// Rewrites the current bundle of a served directory with one defect
/// `PredictionEngine::from_parts` would panic on, then restarts: the
/// server must start, skip the bundle and bootstrap, and serve.
fn restart_over_a_defective_bundle(defect: impl Fn(&mut ModelBundle)) {
    let dir = TempDir::new("bundle-defect");
    let server = persist_server(dir.path(), strict_persist(None));
    let mut client = HttpClient::new(server.addr());
    for step in &request_stream()[..SESSIONS.len()] {
        drive(&mut client, step);
    }
    drop(client);
    server.shutdown();

    let path = dir.path().join("models").join("v1.json");
    let mut bundle = ModelBundle::read_atomic(&path).unwrap();
    defect(&mut bundle);
    std::fs::write(&path, bundle.to_json().unwrap()).unwrap();
    let err = ModelBundle::read_atomic(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let (engines, current) = RegistryDir::load(&dir.path().join("models")).unwrap();
    assert!(engines.is_empty() && current.is_none());

    let recovered = persist_server(dir.path(), strict_persist(None));
    assert_eq!(recovered.model_version().0, 1, "bootstrapped a fresh v1");
    let mut client = HttpClient::new(recovered.addr());
    drive(&mut client, &request_stream()[0]);
    drop(client);
    recovered.shutdown();
}

#[test]
fn a_bundle_repeating_a_combo_is_skipped_at_startup() {
    restart_over_a_defective_bundle(|b| {
        let first = b.combos[0].clone();
        b.combos.push(first);
    });
}

#[test]
fn a_bundle_naming_a_missing_model_is_skipped_at_startup() {
    restart_over_a_defective_bundle(|b| b.combos[0].1 = Some(b.models.len()));
}

#[test]
fn a_bundle_wider_than_the_schema_limit_is_skipped_at_startup() {
    restart_over_a_defective_bundle(|b| {
        let names: Vec<String> = (0..17).map(|i| format!("\"f{i}\"")).collect();
        let json = format!("{{\"names\":[{}]}}", names.join(","));
        b.schema = serde_json::from_str(&json).unwrap();
        for (features, _) in &mut b.combos {
            features.0.resize(17, 0);
        }
    });
}

// ---------------------------------------------------------------------
// End-to-end crash/recovery layer
// ---------------------------------------------------------------------

/// One step of the deterministic request stream. Every step appends
/// exactly one WAL record (see the module docs), so step index == commit
/// index at `commit_every_records = 1`.
#[derive(Clone)]
enum Step {
    Predict(PredictRequest),
    Log(u64),
}

const SESSIONS: [u64; 3] = [7, 8, 9];

/// The full stream: 3 sessions × 4 interleaved epochs, then a `/log`
/// departure (a `Remove` record), a re-registration of the departed
/// session (a second `Register` for the same id), and one more update.
fn request_stream() -> Vec<Step> {
    let mut steps = Vec::new();
    for epoch in 0..4u64 {
        for (i, &sid) in SESSIONS.iter().enumerate() {
            steps.push(Step::Predict(PredictRequest {
                session_id: sid,
                features: (epoch == 0).then(|| vec![i as u32 % 2]),
                measured_mbps: (epoch > 0).then_some(1.5 + 0.25 * epoch as f64 + 0.1 * i as f64),
                horizon: 2,
            }));
        }
    }
    steps.push(Step::Log(8));
    steps.push(Step::Predict(PredictRequest {
        session_id: 8,
        features: Some(vec![1]),
        measured_mbps: None,
        horizon: 2,
    }));
    steps.push(Step::Predict(PredictRequest {
        session_id: 7,
        features: None,
        measured_mbps: Some(3.25),
        horizon: 2,
    }));
    steps
}

fn drive(client: &mut HttpClient, step: &Step) -> Response {
    let resp = match step {
        Step::Predict(preq) => client
            .send(&Request::new(
                "POST",
                "/predict",
                serde_json::to_vec(preq).unwrap(),
            ))
            .unwrap(),
        Step::Log(id) => {
            let log = SessionLog {
                session_id: *id,
                strategy: "CS2P+MPC".to_string(),
                qoe: 1.0,
                avg_bitrate_kbps: 1200.0,
                good_ratio: 0.9,
                rebuffer_seconds: 0.4,
                startup_delay_seconds: 0.5,
                throughput_pairs: vec![],
                bitrates_kbps: vec![],
            };
            client
                .send(&Request::new(
                    "POST",
                    "/log",
                    serde_json::to_vec(&log).unwrap(),
                ))
                .unwrap()
        }
    };
    assert!(
        (200..300).contains(&resp.status),
        "every step of the stream must succeed, got {}: {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );
    resp
}

fn persist_server(dir: &Path, persist: PersistConfig) -> ServerHandle {
    let config = ServeConfig {
        n_shards: 2,
        n_workers: 1,
        max_sessions: 64,
        ..ServeConfig::default()
    };
    ServerHandle::open_or_recover(dir, cached_engine(), "127.0.0.1:0", config, persist).unwrap()
}

fn strict_persist(hook: Option<Arc<CrashPlan>>) -> PersistConfig {
    PersistConfig {
        commit_every_records: 1,
        snapshot_every_records: 0, // no periodic compaction: commit k == step k
        fsync_data: false,         // page-cache durability is enough for a test kill
        fault_hook: hook.map(|h| h as Arc<dyn cs2p_net::WalFaultHook>),
        ..PersistConfig::default()
    }
}

/// Probes a server with a post-recovery continuation: two rounds over
/// every session (features supplied so an unknown session re-registers
/// identically on both sides) plus an ops-surface read. Returns the raw
/// response bytes — the comparison is byte-exact, so prediction floats,
/// `initial` flags, cluster sizes, and pinned model versions all have to
/// match to the bit.
fn probe(addr: std::net::SocketAddr) -> Vec<(u16, Vec<u8>)> {
    let mut client = HttpClient::new(addr);
    let mut out = Vec::new();
    for round in 0..2u64 {
        for (i, &sid) in SESSIONS.iter().enumerate() {
            let preq = PredictRequest {
                session_id: sid,
                features: Some(vec![i as u32 % 2]),
                measured_mbps: Some(2.0 + 0.5 * round as f64 + 0.125 * i as f64),
                horizon: 2,
            };
            let resp = client
                .send(&Request::new(
                    "POST",
                    "/predict",
                    serde_json::to_vec(&preq).unwrap(),
                ))
                .unwrap();
            out.push((resp.status, resp.body.to_vec()));
        }
    }
    out
}

/// Runs the full stream into a durable server that crashes (via `plan`)
/// somewhere inside it, recovers from the directory, and asserts the
/// recovered server is response-byte-identical to a control server that
/// was only ever fed the first `committed` steps.
fn crash_and_compare(plan: Arc<CrashPlan>, committed: usize, label: &str) {
    let steps = request_stream();

    // Crashed run: the WAL dies mid-stream but the process keeps serving
    // from memory — every request must still succeed.
    let dir = TempDir::new("crash");
    let server = persist_server(dir.path(), strict_persist(Some(Arc::clone(&plan))));
    let mut client = HttpClient::new(server.addr());
    for step in &steps {
        drive(&mut client, step);
    }
    if committed < steps.len() {
        assert!(plan.killed(), "{label}: the crash plan never fired");
        assert!(
            server.persist_stats().unwrap().dead,
            "{label}: WAL must be dead after the crash"
        );
    }
    drop(client);
    server.shutdown();

    // Control: an identical server fed only the committed prefix.
    let control_dir = TempDir::new("control");
    let control = persist_server(control_dir.path(), strict_persist(None));
    let mut control_client = HttpClient::new(control.addr());
    for step in &steps[..committed] {
        drive(&mut control_client, step);
    }
    drop(control_client);

    // Recovery, then the byte-exact comparison.
    let recovered = persist_server(dir.path(), strict_persist(None));
    let got = probe(recovered.addr());
    let want = probe(control.addr());
    assert_eq!(
        got, want,
        "{label}: recovered server diverged from the committed-prefix control"
    );
    recovered.shutdown();
    control.shutdown();
}

/// Kill cleanly at *every* commit point of the stream (and one past the
/// end — a plan that never fires), plus a torn final commit at every
/// point: the acceptance bar for the durability layer.
#[test]
fn crash_at_every_commit_point_recovers_the_committed_prefix_exactly() {
    let total = request_stream().len();
    for k in 0..=total {
        crash_and_compare(
            CrashPlan::kill_at_commit(k as u64),
            k,
            &format!("kill at commit {k}"),
        );
    }
    for k in 0..total {
        // A torn commit k leaves a strict prefix of record k's frame on
        // disk: recovery truncates it, so the durable state is still
        // exactly k steps.
        crash_and_compare(
            CrashPlan::torn_at_commit(k as u64, 0x7EA5 + k as u64),
            k,
            &format!("torn at commit {k}"),
        );
    }
}

/// The graceful path: shutdown flushes, so reopening recovers the whole
/// stream — and a second reopen (recovery-of-a-recovery, now snapshot-
/// based after the startup compaction) is just as exact.
#[test]
fn graceful_shutdown_then_reopen_recovers_everything() {
    let steps = request_stream();
    let dir = TempDir::new("graceful");
    let server = persist_server(dir.path(), strict_persist(None));
    let mut client = HttpClient::new(server.addr());
    for step in &steps {
        drive(&mut client, step);
    }
    drop(client);
    server.shutdown();

    let control_dir = TempDir::new("graceful-control");
    let control = persist_server(control_dir.path(), strict_persist(None));
    let mut control_client = HttpClient::new(control.addr());
    for step in &steps {
        drive(&mut control_client, step);
    }
    drop(control_client);
    let want = probe(control.addr());
    control.shutdown();

    for reopen in 0..2 {
        let recovered = persist_server(dir.path(), strict_persist(None));
        // The probe mutates sessions, so only the first reopen can be
        // compared against the never-restarted control; the second
        // proves recovery-of-a-recovery still serves and stays live.
        if reopen == 0 {
            let got = probe(recovered.addr());
            assert_eq!(got, want, "reopen after graceful shutdown diverged");
        } else {
            let mut client = HttpClient::new(recovered.addr());
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        recovered.shutdown();
    }
}

// ---------------------------------------------------------------------
// Snapshot corruption sweep
// ---------------------------------------------------------------------

/// What `persist::recover` pulls out of `dir`, each session as its
/// `Register` encoding: byte equality there is bit identity (posterior
/// floats, LRU stamp, version pin), which `PartialEq` on `f64` is not.
fn recovered_sessions(dir: &Path) -> BTreeMap<u64, Vec<u8>> {
    let state = recover(dir, 1024).expect("a corrupt snapshot is not an I/O error");
    state
        .sessions
        .into_iter()
        .map(|(id, tick, session)| (id, WalRecord::Register { id, tick, session }.encode()))
        .collect()
}

/// A flipped byte anywhere in `store.snap` must cost sessions, never
/// change them. The directory under attack is half snapshot, half WAL
/// tail (the stream's `/log`, re-registration and final update land
/// after the compaction), so the sweep also covers what replays on top
/// of a snapshot that reads as absent.
#[test]
fn snapshot_byte_flip_at_every_offset_recovers_identical_state_or_none() {
    let steps = request_stream();
    let (in_snapshot, in_tail) = steps.split_at(SESSIONS.len() * 4);
    let dir = TempDir::new("snap-sweep");
    let server = persist_server(dir.path(), strict_persist(None));
    let mut client = HttpClient::new(server.addr());
    for step in in_snapshot {
        drive(&mut client, step);
    }
    server.compact();
    for step in in_tail {
        drive(&mut client, step);
    }
    drop(client);
    server.shutdown();

    let snap = std::fs::read(dir.path().join("store.snap")).unwrap();
    let baseline = recovered_sessions(dir.path());
    assert_eq!(
        baseline.keys().copied().collect::<Vec<_>>(),
        SESSIONS,
        "the uncorrupted directory recovers every session"
    );

    // `recover` only reads, so one working copy serves the whole sweep.
    // Mask 0x01 maps ASCII digits to digits (the corruption a text format
    // without a checksum cannot see); 0x80 leaves ASCII altogether.
    let scratch = TempDir::new("snap-sweep-copy");
    copy_dir(dir.path(), scratch.path());
    for offset in 0..snap.len() {
        for mask in [0x01u8, 0x80] {
            let mut bytes = snap.clone();
            bytes[offset] ^= mask;
            std::fs::write(scratch.path().join("store.snap"), &bytes).unwrap();
            for (id, got) in recovered_sessions(scratch.path()) {
                assert_eq!(
                    Some(&got),
                    baseline.get(&id),
                    "offset {offset} mask {mask:#04x}: session {id} recovered with different state"
                );
            }
        }
    }

    // The same through `open_or_recover`, at a handful of offsets. A
    // feature-less measurement goes first — 404 for a session recovery
    // dropped, so a survivor and a re-registration cannot answer alike —
    // then the battery's `probe`. Per session the answers must be the
    // bytes the intact directory serves (it survived) or the bytes a
    // snapshot-less directory serves (it re-registered), never a third.
    let serve_from = |prepare: &dyn Fn(&Path)| {
        let copy = TempDir::new("snap-sweep-probe");
        copy_dir(dir.path(), copy.path());
        prepare(&copy.path().join("store.snap"));
        let server = persist_server(copy.path(), strict_persist(None));
        let mut client = HttpClient::new(server.addr());
        let mut answers = Vec::new();
        for &sid in &SESSIONS {
            let preq = PredictRequest {
                session_id: sid,
                features: None,
                measured_mbps: Some(2.75),
                horizon: 2,
            };
            let body = serde_json::to_vec(&preq).unwrap();
            let resp = client
                .send(&Request::new("POST", "/predict", body))
                .unwrap();
            answers.push((resp.status, resp.body.to_vec()));
        }
        drop(client);
        answers.extend(probe(server.addr()));
        server.shutdown();
        answers
    };
    let intact = serve_from(&|_| {});
    let absent = serve_from(&|snap_path| std::fs::remove_file(snap_path).unwrap());
    assert_ne!(intact, absent, "the controls must be distinguishable");
    for offset in [
        0,
        snap.len() / 4,
        snap.len() / 2,
        3 * snap.len() / 4,
        snap.len() - 1,
    ] {
        let got = serve_from(&|snap_path| {
            let mut bytes = snap.clone();
            bytes[offset] ^= 0x01;
            std::fs::write(snap_path, &bytes).unwrap();
        });
        for (i, sid) in SESSIONS.iter().enumerate() {
            let of_session = |answers: &[(u16, Vec<u8>)]| {
                let mine = answers.iter().skip(i).step_by(SESSIONS.len());
                mine.cloned().collect::<Vec<_>>()
            };
            assert!(
                of_session(&got) == of_session(&intact) || of_session(&got) == of_session(&absent),
                "offset {offset}: session {sid} was served bytes neither control serves"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Startup compaction: only to repair
// ---------------------------------------------------------------------

/// `n` measurement steps over the live sessions, distinct per `round`;
/// features ride along so a session the stream retired re-registers.
/// Each appends one record.
fn traffic(round: u64, n: usize) -> Vec<Step> {
    (0..n)
        .map(|k| {
            let i = k % SESSIONS.len();
            Step::Predict(PredictRequest {
                session_id: SESSIONS[i],
                features: Some(vec![i as u32 % 2]),
                measured_mbps: Some(1.0 + 0.125 * round as f64 + 0.0625 * k as f64),
                horizon: 2,
            })
        })
        .collect()
}

fn feed(server: &ServerHandle, steps: &[Step]) {
    let mut client = HttpClient::new(server.addr());
    for step in steps {
        drive(&mut client, step);
    }
}

fn with_cadence(records: u64) -> PersistConfig {
    PersistConfig {
        snapshot_every_records: records,
        ..strict_persist(None)
    }
}

/// Every file under `dir` (`models/` included) with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    out
}

/// A clean restart rewrites nothing: `store.snap` and every segment keep
/// their bytes, and the one new file is the fresh, empty generation.
#[test]
fn a_clean_restart_writes_no_snapshot_and_unlinks_no_segment() {
    let steps = request_stream();
    let (in_snapshot, in_tail) = steps.split_at(SESSIONS.len() * 4);
    let dir = TempDir::new("clean-restart");
    let server = persist_server(dir.path(), strict_persist(None));
    assert!(
        !dir.path().join("store.snap").exists(),
        "a fresh start is not damage"
    );
    feed(&server, in_snapshot);
    server.compact();
    feed(&server, in_tail);
    server.shutdown();

    let before = files(dir.path());
    assert!(before.contains_key(&dir.path().join("store.snap")));
    let recovered = persist_server(dir.path(), strict_persist(None));
    let after = files(dir.path());
    for (path, bytes) in &before {
        assert_eq!(after.get(path), Some(bytes), "{} changed", path.display());
    }
    let new: Vec<_> = after.keys().filter(|p| !before.contains_key(*p)).collect();
    assert_eq!(new.len(), 1, "{new:?}");
    assert!(after[new[0]].is_empty() && new[0].extension().unwrap() == "log");
    recovered.shutdown();
}

/// The records a clean recovery replayed count toward the cadence: the
/// first snapshot comes on exactly the record that brings replayed plus
/// new to `snapshot_every_records`.
#[test]
fn the_first_compaction_after_a_clean_restart_comes_at_the_cadence() {
    const CADENCE: usize = 10;
    let dir = TempDir::new("cadence");
    let snap = dir.path().join("store.snap");
    for replayed in [0, 1, 7, CADENCE - 1] {
        let _ = std::fs::remove_dir_all(dir.path());
        let server = persist_server(dir.path(), with_cadence(CADENCE as u64));
        feed(&server, &traffic(0, replayed));
        server.shutdown();
        assert!(!snap.exists());

        let server = persist_server(dir.path(), with_cadence(CADENCE as u64));
        let mut client = HttpClient::new(server.addr());
        for (k, step) in traffic(1, CADENCE).iter().enumerate() {
            drive(&mut client, step);
            let due = replayed + k + 1 >= CADENCE;
            assert_eq!(snap.exists(), due, "{replayed} replayed, {} new", k + 1);
            if due {
                break;
            }
        }
        drop(client);
        server.shutdown();
    }
}

/// Records appended after a skipped compaction live in a segment behind
/// the old ones; a second restart, clean or torn at any commit, must
/// still recover exactly the committed prefix.
#[test]
fn records_after_a_skipped_compaction_survive_a_second_restart() {
    let steps = request_stream();
    let (first, second) = steps.split_at(SESSIONS.len() * 2 + 1);
    let run = |hook: Option<Arc<CrashPlan>>, committed: usize, label: &str| {
        let dir = TempDir::new("second-restart");
        let server = persist_server(dir.path(), strict_persist(None));
        feed(&server, first);
        server.shutdown();
        let server = persist_server(dir.path(), strict_persist(hook));
        assert!(!dir.path().join("store.snap").exists(), "{label}");
        feed(&server, second);
        server.shutdown();

        let control_dir = TempDir::new("second-restart-control");
        let control = persist_server(control_dir.path(), strict_persist(None));
        feed(&control, &steps[..first.len() + committed]);
        let recovered = persist_server(dir.path(), strict_persist(None));
        assert_eq!(probe(recovered.addr()), probe(control.addr()), "{label}");
        recovered.shutdown();
        control.shutdown();
    };
    run(None, second.len(), "clean");
    for k in 0..second.len() {
        let torn = CrashPlan::torn_at_commit(k as u64, 0x5EC0 + k as u64);
        run(Some(torn), k, &format!("torn at commit {k}"));
    }
}

/// Starts a server over `damaged`, which must compact at startup, and one
/// over `repaired` (the same state without the damage), which must not
/// until asked: both then hold the same `store.snap`, byte for byte —
/// the startup compaction writes what an explicit one over the recovered
/// store writes.
fn assert_repair_compacts(damaged: &Path, repaired: &Path) {
    let snap = |dir: &Path| std::fs::read(dir.join("store.snap")).ok();
    let (damaged_before, repaired_before) = (snap(damaged), snap(repaired));
    let server = persist_server(damaged, strict_persist(None));
    let written = snap(damaged).expect("a damaged recovery writes a snapshot");
    assert_ne!(Some(&written), damaged_before.as_ref());
    server.shutdown();
    let server = persist_server(repaired, strict_persist(None));
    assert_eq!(
        snap(repaired),
        repaired_before,
        "a clean recovery compacted"
    );
    server.compact();
    assert_eq!(snap(repaired), Some(written));
    server.shutdown();
}

#[test]
fn a_torn_tail_still_compacts_to_the_same_snapshot() {
    let steps = request_stream();
    let committed = steps.len() - 2;
    let damaged = TempDir::new("torn-compacts");
    let plan = CrashPlan::torn_at_commit(committed as u64, 0x7EA5);
    let server = persist_server(damaged.path(), strict_persist(Some(plan)));
    feed(&server, &steps);
    server.shutdown();

    let repaired = TempDir::new("torn-compacts-repaired");
    copy_dir(damaged.path(), repaired.path());
    let segment = repaired.path().join("wal-000001.log");
    let bytes = std::fs::read(&segment).unwrap();
    let replay = decode_frames(&bytes);
    assert!(!replay.clean && replay.records.len() == committed);
    std::fs::write(&segment, &bytes[..replay.valid_bytes as usize]).unwrap();
    assert_repair_compacts(damaged.path(), repaired.path());
}

#[test]
fn a_corrupt_snapshot_still_compacts_to_the_same_snapshot() {
    let steps = request_stream();
    let damaged = TempDir::new("corrupt-compacts");
    let server = persist_server(damaged.path(), strict_persist(None));
    feed(&server, &steps[..SESSIONS.len() * 4]);
    server.compact();
    feed(&server, &steps[SESSIONS.len() * 4..]);
    server.shutdown();

    let repaired = TempDir::new("corrupt-compacts-repaired");
    copy_dir(damaged.path(), repaired.path());
    std::fs::remove_file(repaired.path().join("store.snap")).unwrap();
    let snap = damaged.path().join("store.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x80;
    std::fs::write(&snap, bytes).unwrap();
    assert_repair_compacts(damaged.path(), repaired.path());
}

/// A restart into a smaller store drops sessions the disk still holds;
/// it compacts, so a later restart at full size does not bring them back.
#[test]
fn a_restore_that_drops_sessions_compacts() {
    let dir = TempDir::new("shrink");
    let server = persist_server(dir.path(), strict_persist(None));
    feed(&server, &request_stream()[..SESSIONS.len()]);
    server.shutdown();
    let small = ServeConfig {
        n_shards: 1,
        n_workers: 1,
        max_sessions: 1,
        ..ServeConfig::default()
    };
    let server = ServerHandle::open_or_recover(
        dir.path(),
        cached_engine(),
        "127.0.0.1:0",
        small,
        strict_persist(None),
    )
    .unwrap();
    assert_eq!(server.stats().sessions_live, 1);
    server.shutdown();
    let server = persist_server(dir.path(), strict_persist(None));
    assert_eq!(
        server.stats().sessions_live,
        1,
        "dropped sessions came back"
    );
    server.shutdown();
}

/// Ten clean restarts with traffic between them: every replay stays
/// below the cadence plus one frame, and the sessions predict what a
/// server that never restarted predicts.
#[test]
fn clean_restarts_keep_the_replay_within_the_cadence() {
    const CADENCE: u64 = 8;
    let dir = TempDir::new("ten-restarts");
    let control_dir = TempDir::new("ten-restarts-control");
    let control = persist_server(control_dir.path(), with_cadence(CADENCE));
    let mut replays = Vec::new();
    for round in 0..10u64 {
        replays.push(recover(dir.path(), 1024).unwrap().wal_records);
        let server = persist_server(dir.path(), with_cadence(CADENCE));
        let steps = traffic(round, 3 + (round as usize * 5) % 7);
        feed(&server, &steps);
        feed(&control, &steps);
        server.shutdown();
    }
    assert!(replays.iter().all(|&r| r < CADENCE + 1), "{replays:?}");
    assert!(replays.iter().any(|&r| r > 0), "{replays:?}");
    let recovered = persist_server(dir.path(), with_cadence(CADENCE));
    assert_eq!(probe(recovered.addr()), probe(control.addr()));
    recovered.shutdown();
    control.shutdown();
}
