//! `degradation-bench`: QoE under forced overload — the admission
//! ladder's Fallback brownout vs the pre-ladder pure-503 cliff — plus a
//! bit-exact Fallback ≡ harmonic-mean certification and a deterministic
//! telemetry walk of every ladder level.
//!
//! The QoE arms model the production question directly. A saturated
//! prediction service has two choices: shed everything with 503 (the
//! only overload response before the ladder existed), or brown out to
//! the paper's harmonic-mean baseline computed from each session's own
//! measurements (`AdmissionLevel::Fallback`). The player is identical
//! in both arms — MPC while the service answers, its built-in
//! buffer-based heuristic while the service is dark (the deployed
//! no-prediction default the paper compares against, §7.1) — so the
//! only variable is what the server says. On throughput traces with
//! deep troughs the buffer-based player walks into every trough at a
//! high rung and stalls; the harmonic-mean-fed MPC, conservative by
//! construction (the harmonic mean punishes low samples), downshifts
//! ahead of them. The bench asserts the ladder arm strictly wins on
//! both rebuffer ratio and mean QoE.
//!
//! Levels are *forced* (`ServerHandle::force_admission_level`), not
//! watermark-driven: which requests cross a real watermark depends on
//! thread timing, and this table — like every bench — must be exactly
//! reproducible. For the same reason the QoE arms run with telemetry
//! suspended and the telemetry walk runs sequential, single-client
//! traffic on a `ManualClock`, so a `--metrics` file diffs clean across
//! two runs (the CI determinism gate).

use cs2p_abr::{simulate, AbrAlgorithm, AbrContext, BufferBased, Mpc, QoeParams, SimConfig};
use cs2p_core::baselines::HarmonicMean;
use cs2p_core::ThroughputPredictor;
use cs2p_net::{
    serve_with, AdmissionLevel, BreakerConfig, HttpClient, RemotePredictor, ServeConfig, ServeStats,
};
use cs2p_obs::ManualClock;
use cs2p_testkit::scenarios::tiny_engine;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;

const EPOCH_SECONDS: f64 = 6.0;

/// The bench player: MPC whenever the prediction service offered
/// anything this chunk, the buffer-based heuristic when it was dark.
/// Both QoE arms run this exact composite, so ladder-vs-shed compares
/// server policies, never player implementations.
struct OverloadPlayer {
    mpc: Mpc,
    bb: BufferBased,
}

impl OverloadPlayer {
    fn new() -> Self {
        OverloadPlayer {
            mpc: Mpc::default(),
            bb: BufferBased::default(),
        }
    }
}

impl AbrAlgorithm for OverloadPlayer {
    fn name(&self) -> &str {
        "MPC|BB"
    }

    fn horizon(&self) -> usize {
        self.mpc.horizon()
    }

    fn select_level(&mut self, ctx: &AbrContext) -> usize {
        if ctx.predictions_mbps.iter().any(Option::is_some) {
            self.mpc.select_level(ctx)
        } else {
            self.bb.select_level(ctx)
        }
    }

    fn reset(&mut self) {
        self.mpc.reset();
        self.bb.reset();
    }
}

/// A client whose every source of nondeterminism is pinned: seeded
/// trace ids, a `ManualClock` (the breaker can open but never reaches
/// half-open, so its behaviour is a pure function of the response
/// sequence), and a no-op sleeper (backpressure charges the backoff
/// ledger without wall-clock waits).
fn pinned_client(addr: SocketAddr, seed: u64, breaker: BreakerConfig) -> HttpClient {
    HttpClient::new(addr)
        .with_trace_seed(0xDE64_BE1C ^ seed)
        .with_clock(Arc::new(ManualClock::new()))
        .with_sleeper(Arc::new(|_| {}))
        .with_breaker(breaker)
}

/// Breaker for the QoE arms. At Fallback a freshly registered session
/// legitimately eats one 503 per lookahead step on chunk 0 (no
/// measurement history — the harmonic-mean baseline has no initial
/// prediction either), which is five consecutive failures under MPC's
/// horizon; the threshold must sit above that so a browned-out server
/// is not mistaken for a dead one, while a genuinely shedding server
/// still trips the breaker within two chunks.
fn arm_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 8,
        ..BreakerConfig::default()
    }
}

/// Square-wave trace with deep troughs: a short warmup that shows the
/// session both regimes (so Fallback's harmonic mean seeds on real
/// history, not a lucky first sample), then alternating `high` phases
/// of `high_epochs` and `low` troughs of `low_epochs`. The asymmetry
/// is the point: bursts are short and troughs are long and deep, the
/// regime (cellular/congested-peering traces, §2) where a reactive
/// buffer signal is most wrong and a low-biased harmonic mean is most
/// right.
fn trough_trace(
    high: f64,
    low: f64,
    high_epochs: usize,
    low_epochs: usize,
    start_high: bool,
) -> Vec<f64> {
    let mut trace = vec![low, 1.5, low, 1.5];
    let mut in_high = start_high;
    while trace.len() < 400 {
        let (rate, epochs) = if in_high {
            (high, high_epochs)
        } else {
            (low, low_epochs)
        };
        trace.extend(std::iter::repeat_n(rate, epochs));
        in_high = !in_high;
    }
    trace
}

struct ArmRow {
    qoe: f64,
    rebuffer_seconds: f64,
    avg_kbps: f64,
    played_seconds: f64,
}

/// Plays every trace through one forced-level server, one sequential
/// session per trace, and returns the per-session rows plus the
/// server's final ledger.
fn run_arm(level: AdmissionLevel, traces: &[Vec<f64>], sid_base: u64) -> (Vec<ArmRow>, ServeStats) {
    let server = serve_with(tiny_engine(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind degradation-bench server");
    server.force_admission_level(Some(level));
    let qoe = QoeParams::default();
    let rows: Vec<ArmRow> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let sid = sid_base + i as u64;
            let client = pinned_client(server.addr(), sid, arm_breaker());
            let mut predictor = RemotePredictor::from_client(client, sid, vec![1]);
            let mut abr = OverloadPlayer::new();
            let config = SimConfig::default();
            let outcome = simulate(trace, EPOCH_SECONDS, &mut predictor, &mut abr, &config);
            ArmRow {
                qoe: outcome.qoe(&qoe),
                rebuffer_seconds: outcome.total_rebuffer_seconds(),
                avg_kbps: outcome.avg_bitrate_kbps(),
                played_seconds: outcome.chunks.len() as f64 * config.video.chunk_seconds,
            }
        })
        .collect();
    let stats = server.shutdown();
    (rows, stats)
}

/// Stall time over total session time — the rebuffer ratio the paper
/// reports (§7.2), aggregated across an arm's sessions.
fn rebuffer_ratio(rows: &[ArmRow]) -> f64 {
    let stall: f64 = rows.iter().map(|r| r.rebuffer_seconds).sum();
    let played: f64 = rows.iter().map(|r| r.played_seconds).sum();
    stall / (stall + played)
}

/// The headline table: identical players, identical traces, a server
/// browned out at Fallback vs one shedding everything. Telemetry is
/// suspended — which is *not* a determinism concession here (the sim
/// and the sequential drives are deterministic) but keeps the metrics
/// file to the telemetry walk's curated, exactly-reproducible records.
fn qoe_arms(out: &mut String) {
    let obs_was_enabled = cs2p_obs::enabled();
    cs2p_obs::set_enabled(false);
    let traces = [
        trough_trace(4.0, 0.15, 4, 8, true),
        trough_trace(4.0, 0.15, 4, 8, false),
        trough_trace(3.0, 0.2, 5, 8, true),
    ];
    let labels = [
        "burst(4.0) trough(0.15) hi-1st",
        "burst(4.0) trough(0.15) lo-1st",
        "burst(3.0) trough(0.20) hi-1st",
    ];
    let (ladder, ladder_stats) = run_arm(AdmissionLevel::Fallback, &traces, 700);
    let (shed, shed_stats) = run_arm(AdmissionLevel::Shed, &traces, 800);
    cs2p_obs::set_enabled(obs_was_enabled);

    assert!(
        ladder_stats.admission.served_fallback > 0,
        "ladder arm never exercised the Fallback predictor"
    );
    assert_eq!(ladder_stats.admission.shed, 0);
    assert!(
        shed_stats.admission.shed > 0 && shed_stats.predictions_served == 0,
        "pure-503 arm must shed everything: {:?}",
        shed_stats.admission
    );

    let _ = writeln!(
        out,
        "{:>28} {:>11} {:>11} {:>11} {:>11}",
        "trace", "ladder QoE", "rebuf s", "503 QoE", "rebuf s"
    );
    for ((label, l), s) in labels.iter().zip(&ladder).zip(&shed) {
        let _ = writeln!(
            out,
            "{:>28} {:>11.0} {:>11.1} {:>11.0} {:>11.1}",
            label, l.qoe, l.rebuffer_seconds, s.qoe, s.rebuffer_seconds
        );
    }
    let (lr, sr) = (rebuffer_ratio(&ladder), rebuffer_ratio(&shed));
    let lq = ladder.iter().map(|r| r.qoe).sum::<f64>() / ladder.len() as f64;
    let sq = shed.iter().map(|r| r.qoe).sum::<f64>() / shed.len() as f64;
    let lb = ladder.iter().map(|r| r.avg_kbps).sum::<f64>() / ladder.len() as f64;
    let sb = shed.iter().map(|r| r.avg_kbps).sum::<f64>() / shed.len() as f64;
    let _ = writeln!(
        out,
        "aggregate: rebuffer ratio {lr:.4} (ladder) vs {sr:.4} (pure 503); \
         mean QoE {lq:.0} vs {sq:.0}; mean bitrate {lb:.0} vs {sb:.0} kbps"
    );
    assert!(
        lr < sr,
        "ladder must strictly beat pure-503 on rebuffer ratio: {lr:.4} vs {sr:.4}"
    );
    assert!(
        lq > sq,
        "ladder must strictly beat pure-503 on mean QoE: {lq:.0} vs {sq:.0}"
    );
    let _ = writeln!(
        out,
        "certified: ladder strictly beats pure-503 shedding on rebuffer ratio and QoE"
    );
}

/// A sequential walk of the whole ladder on one server, with telemetry
/// live: every count below is a pure function of the request sequence,
/// so two `--metrics` runs of this bench produce identical files.
/// Doubles as the exact-equivalence certificate: at Fallback, every
/// answer is compared bit-for-bit against the paper's harmonic-mean
/// baseline fed the same observations in the same order.
fn ladder_walk(out: &mut String) {
    let server = serve_with(tiny_engine(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind ladder-walk server");

    // Full: register (the initial prediction comes from the cluster
    // prior) and one measured epoch through the HMM path.
    let client = pinned_client(server.addr(), 601, BreakerConfig::default());
    let mut predictor = RemotePredictor::from_client(client, 601, vec![1]);
    assert!(predictor.predict_initial().is_some());
    assert_eq!(predictor.last_degradation(), None);
    predictor.observe(5.0);
    assert!(predictor.predict_ahead(1).is_some());
    assert_eq!(predictor.last_degradation(), None);

    // Degraded: answers keep flowing (cluster prior), provenance says so.
    server.force_admission_level(Some(AdmissionLevel::Degraded));
    for m in [5.2, 4.9] {
        predictor.observe(m);
        assert!(predictor.predict_ahead(1).is_some());
        assert_eq!(
            predictor.last_degradation(),
            Some(cs2p_net::Degradation::Degraded)
        );
    }

    // Fallback: bit-exact against a freshly seeded HarmonicMean mirror.
    // (The session's Full/Degraded measurements do not pollute the side
    // table — with the ladder disabled in `ServeConfig::default()`,
    // only the Fallback path itself records.)
    server.force_admission_level(Some(AdmissionLevel::Fallback));
    let mut mirror = HarmonicMean::new();
    let mut exact = 0u32;
    for m in [5.1, 4.8, 5.3] {
        predictor.observe(m);
        let got = predictor.predict_ahead(1).expect("fallback answers");
        mirror.observe(m);
        let want = mirror.predict_ahead(1).expect("mirror answers");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "Fallback must equal the harmonic-mean baseline exactly: {got} vs {want}"
        );
        assert_eq!(
            predictor.last_degradation(),
            Some(cs2p_net::Degradation::Fallback)
        );
        exact += 1;
    }

    // Shed: a fresh client goes dark. Its breaker (threshold 5) opens
    // after the fifth 503 and, on a clock that never advances, stays
    // open — of 8 prediction attempts exactly 5 reach the server.
    server.force_admission_level(Some(AdmissionLevel::Shed));
    let dark_client = pinned_client(server.addr(), 602, BreakerConfig::default());
    let mut dark = RemotePredictor::from_client(dark_client, 602, vec![1]);
    for attempt in 0..8 {
        assert!(
            dark.predict_ahead(1).is_none(),
            "attempt {attempt} must fail at Shed"
        );
    }

    // Unpin: the disabled watermark machinery never left Full, so the
    // ladder lands back there and provenance disappears.
    server.force_admission_level(None);
    predictor.observe(5.0);
    assert!(predictor.predict_ahead(1).is_some());
    assert_eq!(predictor.last_degradation(), None);

    let stats = server.shutdown();
    let a = stats.admission;
    assert_eq!(
        (a.served_full, a.served_degraded, a.served_fallback),
        (3, 2, 3),
        "ladder walk served-ledger drifted"
    );
    assert_eq!(a.shed, 5, "breaker must cap dark attempts at the threshold");
    assert_eq!(a.fallback_misses, 0);
    assert_eq!(a.transitions, 4);
    assert_eq!(
        a.served_full + a.served_degraded + a.served_fallback,
        stats.predictions_served
    );
    let _ = writeln!(
        out,
        "ladder walk: served full={} degraded={} fallback={} | shed={} of 8 dark attempts \
         (breaker fast-failed the rest) | transitions={}",
        a.served_full, a.served_degraded, a.served_fallback, a.shed, a.transitions
    );
    let _ = writeln!(
        out,
        "fallback-vs-harmonic-mean: {exact}/3 predictions bit-exact"
    );
}

/// The `degradation-bench` table.
pub fn degradation_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "degradation-bench: forced overload, admission ladder vs pure-503 shedding"
    );
    let _ = writeln!(
        out,
        "player: MPC while predictions arrive, buffer-based while the service is dark"
    );
    qoe_arms(&mut out);
    ladder_walk(&mut out);
    out
}
