//! Allocation budget of the per-entry request path, by exact count.
//!
//! The serving gain of scoring in O(1) and predicting the horizon in one
//! pass rests on two properties that a timing can only suggest: a
//! steady-state `record_ape` allocates nothing, and a horizon prediction
//! allocates the same whatever the horizon. The byte path around them
//! is held the same way: decoding a batch frame allocates only the
//! entries `Vec`, encoding a response once the render cache is warm
//! allocates only its output, and staging WAL records into a warmed batch
//! allocates nothing. Cold start is held the same way: a most-similar
//! lookup allocates nothing whether it hits on the full feature set or
//! misses on every subset, rebuilding an engine allocates the same
//! whatever the number of feature subsets it indexes, WAL replay
//! allocates the same whatever the number of measurement updates it
//! applies, and its largest allocation (the read buffer) is the same
//! whatever the size of the WAL. A counting global allocator states each
//! as a number. Counts are per thread (the test harness runs each test on
//! its own), so the tests cannot disturb one another.

use cs2p_core::{ClusterModel, ClusterSpec, FeatureSchema, FeatureVector, PredictionEngine};
use cs2p_ml::gaussian::Gaussian;
use cs2p_ml::hmm::{Emission, FilterState, Hmm};
use cs2p_ml::matrix::Matrix;
use cs2p_net::persist::{
    recover, PersistConfig, PersistedPending, PersistedSession, SessionPersist, WalBatch, WalRecord,
};
use cs2p_net::protocol::{
    BatchEntryResult, BatchPredictRequest, BatchPredictResponse, Degradation, PredictRequest,
    PredictResponse,
};
use cs2p_net::quality::{QualityConfig, QualityMonitor};
use cs2p_obs::ManualClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Counts one allocation of `size` bytes on this thread.
fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a bump of two const-initialised, destructor-free
// thread-local `Cell`s, which neither allocates nor re-enters the
// allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// The largest single allocation (or reallocation), in bytes, this
/// thread makes while `f` runs.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> usize {
    LARGEST.with(|n| n.set(0));
    let out = f();
    let largest = LARGEST.with(Cell::get);
    drop(out);
    largest
}

#[test]
fn steady_state_score_allocates_nothing() {
    assert!(!cs2p_obs::enabled(), "the registry is off by default");
    let monitor = QualityMonitor::new(QualityConfig::default(), Arc::new(ManualClock::new()));
    // Healthy APEs, a few below the default 0.75 threshold for every one
    // above it, so the window never comes within reach of an alarm.
    let apes = [0.02, 0.05, 0.9, 0.07, 0.11, 0.3, 0.04, 1.5, 0.06];
    let score = |i: usize| {
        let ape = apes[i % apes.len()];
        match i % 3 {
            0 => monitor.record_ape(1, true, false, ape),
            1 => monitor.record_ape(1, false, i % 4 == 1, ape),
            _ => monitor.record_log_ape(ape),
        }
    };
    // Warm-up: every sketch key and bucket appears, the drift window
    // fills to its 256 samples and starts evicting.
    for i in 0..1024 {
        assert!(!score(i));
    }
    let allocated = allocations_in(|| {
        for i in 1024..5120 {
            assert!(!score(i));
        }
    });
    assert_eq!(allocated, 0, "4096 steady-state scores allocated");
    assert_eq!(monitor.alarms(), 0);
    assert_eq!(monitor.windowed().0, 256);
}

#[test]
fn horizon_prediction_allocations_do_not_depend_on_the_horizon() {
    let hmm = Hmm::new(
        vec![0.5, 0.3, 0.2],
        Matrix::from_rows(&[
            vec![0.90, 0.06, 0.04],
            vec![0.05, 0.90, 0.05],
            vec![0.02, 0.08, 0.90],
        ]),
        vec![
            Emission::Gaussian(Gaussian::new(1.4, 0.2)),
            Emission::Gaussian(Gaussian::new(2.4, 0.5)),
            Emission::LogNormal(Gaussian::new(0.1, 0.3)),
        ],
    );
    let mut state = FilterState::new(&hmm);
    let mut out = [0.0; 32];
    for epoch in 0..4 {
        let per_horizon: Vec<u64> = (1..=32)
            .map(|h| allocations_in(|| state.predict_horizon(&hmm, &mut out[..h])))
            .collect();
        // One scratch block for the two propagation buffers, whether the
        // window is 1 step or 32.
        assert_eq!(per_horizon, vec![1; 32], "epoch {epoch}");
        // The in-place update: no scratch before the first observation
        // (the prediction is `pi_0` itself), one after.
        let observing = allocations_in(|| state.observe(&hmm, 1.5 + epoch as f64 * 0.3));
        assert_eq!(observing, u64::from(epoch > 0), "epoch {epoch}");
    }
}

#[test]
fn decoding_a_batch_frame_allocates_only_the_entries_vec() {
    let frame = BatchPredictRequest {
        entries: (0..64)
            .map(|i| PredictRequest {
                session_id: 1000 + i,
                features: None,
                measured_mbps: Some(1.5 + i as f64 / 7.0),
                horizon: 5,
            })
            .collect(),
    }
    .to_json_bytes();
    let decoded = BatchPredictRequest::from_json_bytes(&frame).expect("own writer's frame");
    assert_eq!(decoded.entries.len(), 64);
    // The entries `Vec` growing 4 → 8 → … → 64 is five; nothing else
    // allocates for a feature-less entry.
    let allocated = allocations_in(|| BatchPredictRequest::from_json_bytes(&frame));
    assert!(
        allocated <= 8,
        "a 64-entry frame decoded in {allocated} allocations"
    );
}

#[test]
fn a_warm_response_encodes_in_one_allocation() {
    // A server's predictions are a few emission means per model (Eq. 8).
    let means = [1.4, 2.413_793_103_448_276, 0.731_058_578_630_004_9, 5.0];
    let response = |i: usize| PredictResponse {
        predictions_mbps: (0..5).map(|k| means[(i + k) % means.len()]).collect(),
        initial: i.is_multiple_of(16),
        cluster_sessions: 1_250,
        cluster_hit: !i.is_multiple_of(5),
        model_version: 7,
        degradation: i.is_multiple_of(9).then_some(Degradation::Degraded),
    };
    let frame = BatchPredictResponse {
        results: (0..64).map(|i| BatchEntryResult::ok(response(i))).collect(),
    };
    let single = response(1);
    // Warm-up: this thread's render cache is built and holds every value.
    let _ = single.to_json_bytes();
    // The output buffer is reserved from the horizons and never regrows.
    assert_eq!(allocations_in(|| frame.to_json_bytes()), 1);
    assert_eq!(allocations_in(|| single.to_json_bytes()), 1);
}

#[test]
fn staging_into_a_warmed_wal_batch_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("cs2p-alloc-stage-{}", std::process::id()));
    let config = PersistConfig {
        fsync_data: false,
        ..PersistConfig::default()
    };
    let persist = SessionPersist::create(&dir, Arc::new(ManualClock::new()), &config).unwrap();
    let records: Vec<WalRecord> = (0..64)
        .map(|i| WalRecord::Update {
            id: i,
            tick: 100 + i,
            measured: Some(2.0 + i as f64),
            observed_len: 5,
            filter: FilterState {
                posterior: vec![0.2, 0.3, 0.5],
                epoch: 5,
            },
            pending: Some(PersistedPending {
                value: 2.5,
                initial: false,
            }),
        })
        .collect();
    let mut batch = WalBatch::default();
    // Warm-up: the buffer grows to a 64-record group once, and landing
    // the group keeps its capacity.
    for record in &records {
        persist.stage(record, &mut batch);
    }
    persist.log_staged(&mut batch);
    let allocated = allocations_in(|| {
        for record in &records {
            persist.stage(record, &mut batch);
        }
    });
    persist.log_staged(&mut batch);
    assert_eq!(allocated, 0, "64 staged records allocated");
    assert_eq!(persist.wal_stats().records, 128);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-state cluster model resting on `n_sessions` sessions.
fn model(n_sessions: usize) -> ClusterModel {
    ClusterModel {
        spec: ClusterSpec::GLOBAL,
        key: vec![],
        initial_median: 1.0,
        hmm: Hmm::new(
            vec![1.0],
            Matrix::from_rows(&[vec![1.0]]),
            vec![Emission::Gaussian(Gaussian::new(1.0, 0.5))],
        ),
        n_sessions,
    }
}

/// What `PredictionEngine::from_parts` takes.
type EngineParts = (
    FeatureSchema,
    Vec<ClusterModel>,
    ClusterModel,
    Vec<(FeatureVector, Option<usize>)>,
);

/// The parts of an engine over `width` features: 40 combos, told apart
/// by their last column and drawn from a small alphabet elsewhere (so
/// subsets share projections), spread over four cluster models and the
/// global one.
fn engine_parts(width: usize) -> EngineParts {
    let schema = FeatureSchema::new((0..width).map(|i| format!("f{i}")).collect());
    let combos = (0..40u32)
        .map(|c| {
            let values = (0..width as u32 - 1)
                .map(|i| (c >> i) % 3)
                .chain([c])
                .collect();
            (
                FeatureVector(values),
                (c % 5 < 4).then_some((c % 5) as usize),
            )
        })
        .collect();
    let models = (0..4).map(|i| model(10 + 5 * i)).collect();
    (schema, models, model(100), combos)
}

#[test]
fn most_similar_lookup_allocates_nothing() {
    let (schema, models, global, combos) = engine_parts(6);
    let trained = combos[7].0.clone();
    let engine = PredictionEngine::from_parts(schema, models, global, combos);
    let unmatched = FeatureVector(vec![u32::MAX; 6]);
    // A full-set hit resolves on the first probe; the unmatched vector
    // probes all 63 subsets before it falls back to the global model.
    assert!(engine.lookup_detailed(&trained).provenance.is_cluster_hit());
    assert!(!engine
        .lookup_detailed(&unmatched)
        .provenance
        .is_cluster_hit());
    assert_eq!(
        allocations_in(|| engine.lookup_detailed(&trained).model_index),
        0
    );
    assert_eq!(
        allocations_in(|| engine.lookup_detailed(&unmatched).model_index),
        0
    );
}

#[test]
fn rebuilding_an_engine_allocates_the_same_for_any_number_of_subsets() {
    // 3 to 1023 non-empty subsets, 40 combos each.
    let per_width: Vec<u64> = [2, 6, 10]
        .into_iter()
        .map(|width| {
            let (schema, models, global, combos) = engine_parts(width);
            allocations_in(move || PredictionEngine::from_parts(schema, models, global, combos))
        })
        .collect();
    // The subset order and the index table, each sized once.
    assert_eq!(per_width, vec![2; 3]);
}

/// A persistence directory whose WAL holds 8 registrations and then
/// `updates` measurement updates spread over them, unsnapshotted.
fn wal_dir(tag: &str, updates: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cs2p-alloc-{tag}-{}-{updates}", std::process::id()));
    let config = PersistConfig {
        fsync_data: false,
        snapshot_every_records: 0,
        commit_every_records: 4096,
        ..PersistConfig::default()
    };
    let persist = SessionPersist::create(&dir, Arc::new(ManualClock::new()), &config).unwrap();
    let filter = |epoch: usize| FilterState {
        posterior: vec![0.2, 0.3, 0.5],
        epoch,
    };
    for id in 0..8 {
        persist.log(&WalRecord::Register {
            id,
            tick: id,
            session: PersistedSession {
                version: 1,
                model: Some(0),
                cluster_hit: true,
                filter: filter(0),
                features: vec![1, 2, 3],
                observed: vec![],
                pending: None,
            },
        });
    }
    for k in 0..updates {
        persist.log(&WalRecord::Update {
            id: k % 8,
            tick: 8 + k,
            measured: Some(1.0 + k as f64),
            observed_len: k / 8 + 1,
            filter: filter(k as usize / 8 + 1),
            pending: Some(PersistedPending {
                value: 2.0,
                initial: false,
            }),
        });
    }
    persist.flush().unwrap();
    dir
}

/// The one WAL segment in `dir`.
fn segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut segments = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"));
    let path = segments.next().expect("a WAL segment");
    assert!(segments.next().is_none(), "one WAL segment");
    path
}

#[test]
fn replay_allocations_do_not_depend_on_the_number_of_updates() {
    let replay_of = |updates: u64| {
        let dir = wal_dir("replay", updates);
        // Histories stop at 4 measurements, so a session's buffers stop
        // growing after its fourth update.
        let allocated = allocations_in(|| {
            let state = recover(&dir, 4).unwrap();
            assert_eq!(state.wal_records, 8 + updates);
            assert!(state.sessions.iter().all(|(_, _, s)| s.observed.len() == 4));
        });
        let _ = std::fs::remove_dir_all(&dir);
        allocated
    };
    assert_eq!(replay_of(64), replay_of(1024));
}

#[test]
fn recovery_reads_a_wal_of_any_size_through_one_64_kib_buffer() {
    // `(WAL bytes, largest allocation of recover)`. With `torn_tail`, a
    // last frame header claims a payload just under the 16 MiB record
    // cap, far more than the file has left: recovery must stop there
    // without allocating for it.
    let largest_of = |updates: u64, torn_tail: bool| {
        let dir = wal_dir("largest", updates);
        let path = segment(&dir);
        if torn_tail {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&(16 * 1024 * 1024 - 1u32).to_le_bytes());
            bytes.extend_from_slice(&[0xA5; 4 + 100]);
            std::fs::write(&path, bytes).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let largest = largest_allocation_in(|| {
            let state = recover(&dir, 4).unwrap();
            assert_eq!(state.wal_records, 8 + updates);
            assert_eq!(state.clean, !torn_tail);
        });
        let _ = std::fs::remove_dir_all(&dir);
        (len, largest)
    };
    let (small_len, small) = largest_of(700, false);
    let (big_len, big) = largest_of(48_000, false);
    let (_, torn) = largest_of(48_000, true);
    assert!(
        (60_000..65_536).contains(&small_len) && big_len > 4_000_000,
        "WALs of {small_len} and {big_len} bytes"
    );
    assert_eq!(small, big, "largest allocation, 64 KB vs 4 MB WAL");
    assert_eq!(big, torn, "largest allocation, 4 MB WAL with a torn tail");
    assert_eq!(big, 64 * 1024, "the read buffer is the largest allocation");
}
