//! # cs2p-net — the player/server deployment substrate
//!
//! §6 of the paper implements CS2P as a Dash.js player talking to a
//! Node.js prediction server: before each chunk the player POSTs the last
//! epoch's measured throughput and receives the next prediction; trained
//! models are compact enough (<5 KB) to ship to clients instead. This
//! crate reproduces that loop over real sockets:
//!
//! - [`http`]: a minimal blocking HTTP/1.1 (Content-Length framing,
//!   keep-alive, strict limits);
//! - [`protocol`]: the JSON messages (`/predict`, `/model`, `/log`,
//!   `/healthz`);
//! - [`server`]: the prediction-engine server — a bounded worker pool
//!   over a sharded session store with 503 backpressure, LRU session
//!   eviction, and graceful drain (see `DESIGN.md`);
//! - [`store`] / [`pool`]: the sharded session store and the bounded
//!   request queue backing the server;
//! - [`admission`]: the overload degradation ladder — watermark-driven
//!   admission control that steps service down from the full HMM path
//!   through cluster priors and the paper's harmonic-mean baseline
//!   before ever shedding a request (see `DESIGN.md` §3g);
//! - [`recorder`]: the bounded completed-session accumulator feeding the
//!   online model refresh (`ServerHandle::refresh_models`), which
//!   retrains through a versioned `cs2p_core::ModelRegistry` and
//!   hot-swaps the new model while in-flight sessions stay pinned to
//!   the version they started on;
//! - [`quality`]: the online prediction-quality monitor — every
//!   measurement a player reports scores the previous prediction (APE),
//!   feeding per-model-version quantile sketches and a drift alarm that
//!   can trigger an online model refresh;
//! - [`ops`]: the read-only operations surface behind `GET /ops`
//!   (JSON) and `GET /ops/metrics` (Prometheus text);
//! - [`persist`]: crash-safe durability — a CRC-framed write-ahead log
//!   of store mutations with group commit and snapshot compaction,
//!   persisted model-registry bundles, and the recovery path behind
//!   `ServerHandle::open_or_recover`;
//! - [`transport`]: the byte-stream abstraction with an injectable
//!   per-connection wrapper hook (fault injection, future middleboxes)
//!   and the server's slow-peer deadline reader;
//! - [`client`]: the blocking client and [`client::RemotePredictor`],
//!   which exposes the server as a [`cs2p_core::ThroughputPredictor`]
//!   and transparently re-registers sessions the server evicted;
//! - [`dash`]: the player (BufferController/AbrController equivalents on
//!   top of `cs2p-abr`), the client-side local-model deployment, and the
//!   end-to-end pilot session helper.
//!
//! Only the *bottleneck link* is simulated (chunks are not actually
//! transferred — we have no CDN); every prediction and log crosses a real
//! TCP connection, matching what §7.5's pilot measures.

#![warn(missing_docs)]
// Library crates speak through `cs2p-obs` events, never raw prints
// (binaries are exempt; see OBSERVABILITY.md).
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]
// A serving process must not panic on an `Option` or `Result`: decode
// failures are typed, and an invariant that cannot fail is named where
// it is allowed.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod client;
pub mod dash;
pub mod http;
pub mod ops;
pub mod persist;
pub mod pool;
pub mod protocol;
pub mod quality;
pub mod recorder;
pub mod server;
pub mod store;
pub mod transport;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionLevel, AdmissionSnapshot, FallbackTracker,
};
pub use client::{BreakerConfig, BreakerState, HttpClient, RemotePredictor, RetryPolicy, Sleeper};
pub use dash::{
    play_remote_session, AbrKind, DashPlayer, LocalModelPredictor, Manifest, PlayerConfig,
};
pub use ops::{FaultRow, OpsAdmission, OpsQuality, OpsSnapshot, QualityRow};
pub use persist::{CommitOutcome, PersistConfig, RecoveredState, WalFaultHook, WalStats};
pub use protocol::{
    BatchEntryResult, BatchPredictRequest, BatchPredictResponse, DecodeError, Degradation, Health,
    LogStats, PredictRequest, PredictResponse, SessionLog, StrategyStats, MAX_BATCH_ENTRIES,
};
pub use quality::{QualityConfig, QualityMonitor};
pub use recorder::SessionRecorder;
pub use server::{serve, serve_with, RefreshConfig, ServeConfig, ServeStats, ServerHandle};
pub use store::{SessionStore, StorePressure};
pub use transport::{BoxTransport, Transport, TransportWrapper};
