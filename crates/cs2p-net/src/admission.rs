//! Adaptive admission control: a leveled degradation ladder for overload.
//!
//! CS2P's HMM path is the most expensive thing the server does per
//! request, yet the paper's own evaluation (§7) shows the simple
//! predictors it beats — harmonic mean, last sample — still deliver
//! usable predictions at a tiny fraction of the cost. The
//! [`AdmissionController`] exploits exactly that: instead of answering
//! overload with a blanket 503 cliff (which translates directly into
//! rebuffers for players mid-stream), the server steps down a ladder of
//! progressively cheaper answers and climbs back up when pressure
//! subsides:
//!
//! | level | answer | cost |
//! |-------|--------|------|
//! | [`AdmissionLevel::Full`] | HMM lookup + per-session filter update | full |
//! | [`AdmissionLevel::Degraded`] | cluster-prior median, no filter update | shard read |
//! | [`AdmissionLevel::Fallback`] | harmonic mean of the session's own recent measurements | side-table only |
//! | [`AdmissionLevel::Shed`] | 503 + `Retry-After` | last resort |
//!
//! Level selection is watermark-driven: the controller folds the serve
//! queue's occupancy fraction and an EWMA of request-handling latency
//! (both sampled on the server's injectable [`Clock`]) into a single
//! pressure score in `[0, ∞)` and maps it through three thresholds.
//! Escalation is immediate — a saturated queue must brown out *now* —
//! but recovery is hysteretic: the controller steps down one level at a
//! time, and only after pressure has stayed below the current level's
//! threshold minus a recovery margin for a full dwell, so levels cannot
//! flap around a watermark. The watermarks are the constants below.
//!
//! The ladder is **opt-in**: `AdmissionConfig::default()` is disabled
//! and the server behaves exactly as before (queue-full connections are
//! rejected with 503, everything admitted is served at Full). Tests and
//! the `degradation-bench` enable it explicitly, or pin a level with
//! [`AdmissionController::force`] for deterministic ladder forcing.

use cs2p_obs::Clock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// One rung of the degradation ladder, ordered cheapest-answer last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AdmissionLevel {
    /// Full service: HMM lookup, per-session filter update, WAL append.
    Full = 0,
    /// Cluster-prior median for the session's pinned model; the filter
    /// is neither consulted nor updated (the measurement is dropped).
    Degraded = 1,
    /// Harmonic mean of the session's own recent measurements from the
    /// lock-free side table — no model and no shard-store access.
    Fallback = 2,
    /// 503 + `Retry-After`: the pre-ladder behaviour, last resort only.
    Shed = 3,
}

impl AdmissionLevel {
    /// All levels, ladder order (used by ladder-forcing harnesses).
    pub const ALL: [AdmissionLevel; 4] = [
        AdmissionLevel::Full,
        AdmissionLevel::Degraded,
        AdmissionLevel::Fallback,
        AdmissionLevel::Shed,
    ];

    /// Stable lowercase name (ops surface, logs, test assertions).
    pub fn as_str(self) -> &'static str {
        match self {
            AdmissionLevel::Full => "full",
            AdmissionLevel::Degraded => "degraded",
            AdmissionLevel::Fallback => "fallback",
            AdmissionLevel::Shed => "shed",
        }
    }

    fn from_u8(v: u8) -> AdmissionLevel {
        match v {
            0 => AdmissionLevel::Full,
            1 => AdmissionLevel::Degraded,
            2 => AdmissionLevel::Fallback,
            _ => AdmissionLevel::Shed,
        }
    }
}

impl std::fmt::Display for AdmissionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pressure at or above which service degrades to cluster priors.
const DEGRADED_AT: f64 = 0.70;
/// Pressure at or above which service falls back to harmonic mean.
const FALLBACK_AT: f64 = 0.85;
/// Pressure at or above which requests are shed with 503.
const SHED_AT: f64 = 0.95;
/// Recovery hysteresis: to step down a level, pressure must sit below
/// the current level's threshold minus this margin.
const RECOVER_MARGIN: f64 = 0.15;
/// Recovery dwell (µs on the injectable clock): pressure must stay
/// continuously below the recovery watermark this long before each
/// single-level step down.
const HOLD_US: u64 = 200_000;
/// Denominator for the latency signal: an EWMA of request-handling
/// latency equal to the budget contributes pressure 1.0.
const LATENCY_BUDGET_US: u64 = 250_000;
/// EWMA smoothing factor for the latency signal.
const LATENCY_ALPHA: f64 = 0.2;
/// Per-session history window for the Fallback side table. Bounded so
/// Fallback memory is O(sessions × window) regardless of session length;
/// within the window, Fallback reproduces the paper's harmonic-mean
/// baseline exactly.
const FALLBACK_WINDOW: usize = 64;
/// Hard cap on tracked sessions in the Fallback side table. A session
/// arriving past the cap is answered from its own in-flight measurement
/// only (deterministic: nothing is evicted).
const FALLBACK_MAX_SESSIONS: usize = 65_536;

/// Switch for the [`AdmissionController`]'s watermarks.
///
/// Pressure is `max(queue_frac, latency_ewma / LATENCY_BUDGET_US)`; the
/// three `*_AT` thresholds partition it into the four levels. The
/// default is disabled: the ladder is a deliberate operational opt-in,
/// because it changes the contract of a 503 (from "the server refused"
/// to "the server answered with a cheaper predictor").
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Master switch. When false the controller always reports
    /// [`AdmissionLevel::Full`] (unless a level is forced) and samples
    /// cost nothing but an atomic load.
    pub enabled: bool,
}

impl AdmissionConfig {
    /// An enabled configuration with the default watermarks — what a
    /// production deployment would run.
    pub fn watermarks() -> Self {
        AdmissionConfig { enabled: true }
    }
}

/// Point-in-time view of the controller (ops surface, `ServeStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Current ladder level.
    pub level: AdmissionLevel,
    /// Level transitions (watermark-driven and forced).
    pub transitions: u64,
    /// Predictions answered at Full level.
    pub served_full: u64,
    /// Predictions answered from cluster priors.
    pub served_degraded: u64,
    /// Predictions answered from the harmonic-mean side table.
    pub served_fallback: u64,
    /// Requests shed with 503 by the admission layer.
    pub shed: u64,
    /// Fallback-level requests with no measurement history at all
    /// (answered 503 — the harmonic-mean baseline has no initial
    /// prediction either; see `HarmonicMean::predict_initial`).
    pub fallback_misses: u64,
}

/// Watermark signal state, guarded by one short mutex.
#[derive(Debug, Default)]
struct Signals {
    /// Latest serve-queue occupancy fraction in `[0, 1]`.
    queue_frac: f64,
    /// EWMA of request-handling latency (µs, injectable clock).
    latency_ewma_us: f64,
    /// Since when (clock µs) pressure has sat below the recovery
    /// watermark of the current level; `None` while above it.
    below_since_us: Option<u64>,
}

/// The watermark-driven ladder state machine. One per server; all
/// methods are thread-safe and cheap enough for the request path.
pub struct AdmissionController {
    config: AdmissionConfig,
    clock: Arc<dyn Clock>,
    /// Current level (`AdmissionLevel as u8`).
    level: AtomicU8,
    /// Forced level + 1; 0 means "watermark-driven".
    forced: AtomicU8,
    transitions: AtomicU64,
    served_full: AtomicU64,
    served_degraded: AtomicU64,
    served_fallback: AtomicU64,
    shed: AtomicU64,
    fallback_misses: AtomicU64,
    signals: Mutex<Signals>,
    fallback: FallbackTracker,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .field("level", &self.level())
            .field("transitions", &self.transitions.load(Ordering::Relaxed))
            .finish()
    }
}

impl AdmissionController {
    /// Creates a controller on the server's injectable clock.
    pub fn new(config: AdmissionConfig, clock: Arc<dyn Clock>) -> Self {
        let fallback = FallbackTracker::new(FALLBACK_WINDOW, FALLBACK_MAX_SESSIONS);
        AdmissionController {
            config,
            clock,
            level: AtomicU8::new(AdmissionLevel::Full as u8),
            forced: AtomicU8::new(0),
            transitions: AtomicU64::new(0),
            served_full: AtomicU64::new(0),
            served_degraded: AtomicU64::new(0),
            served_fallback: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            fallback_misses: AtomicU64::new(0),
            signals: Mutex::new(Signals::default()),
            fallback,
        }
    }

    /// Whether the watermark machinery is active (forced levels work
    /// even when disabled — that is what deterministic tests use).
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The level requests are admitted at right now.
    pub fn level(&self) -> AdmissionLevel {
        match self.forced.load(Ordering::Acquire) {
            0 => AdmissionLevel::from_u8(self.level.load(Ordering::Acquire)),
            f => AdmissionLevel::from_u8(f - 1),
        }
    }

    /// Pins (or, with `None`, unpins) the ladder level. Counts as a
    /// transition when the effective level changes.
    pub fn force(&self, level: Option<AdmissionLevel>) {
        let before = self.level();
        self.forced
            .store(level.map_or(0, |l| l as u8 + 1), Ordering::Release);
        if level.is_none() && self.config.enabled {
            // Unpinning falls back to whatever the live signals demand
            // right now — the stored watermark level went stale while
            // samples were ignored under the pin.
            let mut sig = self.signals.lock();
            let target = self.target_level(self.pressure_of(&sig));
            sig.below_since_us = None;
            self.level.store(target as u8, Ordering::Release);
        }
        let after = self.level();
        if before != after {
            self.note_transition(after);
            // A forced recovery must not be immediately undone by a
            // stale high-pressure sample's dwell bookkeeping.
            self.signals.lock().below_since_us = None;
        }
    }

    /// Feeds a serve-queue occupancy sample (`depth` of `capacity`).
    pub fn note_queue(&self, depth: usize, capacity: usize) {
        if !self.config.enabled {
            return;
        }
        let frac = if capacity == 0 {
            0.0
        } else {
            (depth as f64 / capacity as f64).clamp(0.0, 1.0)
        };
        let mut sig = self.signals.lock();
        sig.queue_frac = frac;
        self.reevaluate(&mut sig);
    }

    /// Feeds one request-handling latency sample (µs on the clock).
    pub fn note_latency(&self, us: u64) {
        if !self.config.enabled {
            return;
        }
        let mut sig = self.signals.lock();
        sig.latency_ewma_us =
            LATENCY_ALPHA * us as f64 + (1.0 - LATENCY_ALPHA) * sig.latency_ewma_us;
        self.reevaluate(&mut sig);
    }

    /// Records a prediction answered at `level` (one per 200, singleton
    /// or batch entry).
    pub fn note_served(&self, level: AdmissionLevel) {
        match level {
            AdmissionLevel::Full => {
                self.served_full.fetch_add(1, Ordering::Relaxed);
                cs2p_obs::counter_add("serve.admission.full", 1);
            }
            AdmissionLevel::Degraded => {
                self.served_degraded.fetch_add(1, Ordering::Relaxed);
                cs2p_obs::counter_add("serve.admission.degraded", 1);
            }
            AdmissionLevel::Fallback => {
                self.served_fallback.fetch_add(1, Ordering::Relaxed);
                cs2p_obs::counter_add("serve.admission.fallback", 1);
            }
            AdmissionLevel::Shed => unreachable!("shed answers are not served"),
        }
    }

    /// Records a request shed with 503 by the admission layer.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.admission.shed", 1);
    }

    /// Records a Fallback-level request that had no measurement at all.
    pub fn note_fallback_miss(&self) {
        self.fallback_misses.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.admission.fallback_misses", 1);
    }

    /// The session-measurement side table the Fallback level answers
    /// from (and every measurement-carrying request feeds when the
    /// ladder is enabled).
    pub fn fallback_tracker(&self) -> &FallbackTracker {
        &self.fallback
    }

    /// Point-in-time counters for the ops surface and `ServeStats`.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            level: self.level(),
            transitions: self.transitions.load(Ordering::Relaxed),
            served_full: self.served_full.load(Ordering::Relaxed),
            served_degraded: self.served_degraded.load(Ordering::Relaxed),
            served_fallback: self.served_fallback.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            fallback_misses: self.fallback_misses.load(Ordering::Relaxed),
        }
    }

    /// Combined pressure score right now (ops surface).
    pub fn pressure(&self) -> f64 {
        let sig = self.signals.lock();
        self.pressure_of(&sig)
    }

    fn pressure_of(&self, sig: &Signals) -> f64 {
        let latency = sig.latency_ewma_us / LATENCY_BUDGET_US as f64;
        sig.queue_frac.max(latency)
    }

    /// Threshold that put the ladder at `level` (recovery reference).
    fn threshold_of(&self, level: AdmissionLevel) -> f64 {
        match level {
            AdmissionLevel::Full => 0.0,
            AdmissionLevel::Degraded => DEGRADED_AT,
            AdmissionLevel::Fallback => FALLBACK_AT,
            AdmissionLevel::Shed => SHED_AT,
        }
    }

    fn target_level(&self, pressure: f64) -> AdmissionLevel {
        if pressure >= SHED_AT {
            AdmissionLevel::Shed
        } else if pressure >= FALLBACK_AT {
            AdmissionLevel::Fallback
        } else if pressure >= DEGRADED_AT {
            AdmissionLevel::Degraded
        } else {
            AdmissionLevel::Full
        }
    }

    /// Re-derives the level from the signals. Escalation is immediate;
    /// recovery steps down one level per completed dwell below the
    /// current level's recovery watermark.
    fn reevaluate(&self, sig: &mut Signals) {
        if self.forced.load(Ordering::Acquire) != 0 {
            return;
        }
        let pressure = self.pressure_of(sig);
        let current = AdmissionLevel::from_u8(self.level.load(Ordering::Acquire));
        let target = self.target_level(pressure);
        if target > current {
            sig.below_since_us = None;
            self.level.store(target as u8, Ordering::Release);
            self.note_transition(target);
            return;
        }
        if current == AdmissionLevel::Full {
            sig.below_since_us = None;
            return;
        }
        let recover_below = (self.threshold_of(current) - RECOVER_MARGIN).max(0.0);
        if pressure >= recover_below {
            sig.below_since_us = None;
            return;
        }
        let now = self.clock.now_micros();
        match sig.below_since_us {
            None => sig.below_since_us = Some(now),
            Some(since) if now.saturating_sub(since) >= HOLD_US => {
                let next = AdmissionLevel::from_u8(current as u8 - 1);
                self.level.store(next as u8, Ordering::Release);
                self.note_transition(next);
                // Each step down re-arms its own dwell.
                sig.below_since_us = Some(now);
            }
            Some(_) => {}
        }
    }

    fn note_transition(&self, to: AdmissionLevel) {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.admission.transitions", 1);
        cs2p_obs::gauge_set("serve.admission.level", to as u8 as f64);
    }
}

/// Per-session recent-measurement side table for the Fallback level.
///
/// Deliberately *not* the shard store: no LRU, no TTL, no WAL, no model
/// pins — a plain sharded map of bounded measurement rings that the
/// request path feeds opportunistically. Within a session's window this
/// reproduces the paper's harmonic-mean baseline exactly:
/// `harmonic_mean(history)` falling back to the last sample when the
/// mean is undefined (any non-positive sample), and *no* answer at all
/// for a session that never measured anything.
pub struct FallbackTracker {
    shards: Vec<Mutex<HashMap<u64, Vec<f64>>>>,
    window: usize,
    max_per_shard: usize,
}

/// Shard count for the side table: collisions only cost lock sharing.
const FALLBACK_SHARDS: usize = 16;

impl std::fmt::Debug for FallbackTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallbackTracker")
            .field("window", &self.window)
            .field("sessions", &self.len())
            .finish()
    }
}

impl FallbackTracker {
    /// Creates a tracker holding at most `window` samples per session
    /// and `max_sessions` sessions overall.
    pub fn new(window: usize, max_sessions: usize) -> Self {
        let max_per_shard = max_sessions.div_ceil(FALLBACK_SHARDS).max(1);
        FallbackTracker {
            shards: (0..FALLBACK_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            window: window.max(1),
            max_per_shard,
        }
    }

    fn shard_of(&self, session_id: u64) -> usize {
        // Same splitmix-style spread the loadgen uses; sessions arrive
        // with dense ids, so a plain modulo would pile onto one shard.
        (session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Records one measurement for `session_id`, trimming to the
    /// window. Sessions past the capacity cap are silently not tracked
    /// (deterministic: nothing is evicted to make room).
    pub fn record(&self, session_id: u64, mbps: f64) {
        let mut shard = self.shards[self.shard_of(session_id)].lock();
        if !shard.contains_key(&session_id) && shard.len() >= self.max_per_shard {
            return;
        }
        let ring = shard.entry(session_id).or_default();
        ring.push(mbps);
        if ring.len() > self.window {
            let excess = ring.len() - self.window;
            ring.drain(..excess);
        }
    }

    /// The harmonic-mean prediction for `session_id`, exactly as the
    /// paper baseline computes it: `harmonic_mean(history)` or, when
    /// undefined, the last sample; `None` when nothing was measured.
    pub fn predict(&self, session_id: u64) -> Option<f64> {
        let shard = self.shards[self.shard_of(session_id)].lock();
        let ring = shard.get(&session_id)?;
        cs2p_ml::stats::harmonic_mean(ring).or_else(|| ring.last().copied())
    }

    /// Forgets a completed session.
    pub fn remove(&self, session_id: u64) {
        self.shards[self.shard_of(session_id)]
            .lock()
            .remove(&session_id);
    }

    /// Tracked-session count (ops and tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no session is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::ManualClock;

    fn controller(clock: &Arc<ManualClock>) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig::watermarks(),
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    #[test]
    fn disabled_controller_stays_full_under_any_signal() {
        let clock = Arc::new(ManualClock::new());
        let c = AdmissionController::new(AdmissionConfig::default(), clock);
        c.note_queue(100, 100);
        c.note_latency(10_000_000);
        assert_eq!(c.level(), AdmissionLevel::Full);
        assert_eq!(c.snapshot().transitions, 0);
    }

    #[test]
    fn escalation_is_immediate_and_maps_watermarks_to_levels() {
        let clock = Arc::new(ManualClock::new());
        let c = controller(&clock);
        c.note_queue(75, 100);
        assert_eq!(c.level(), AdmissionLevel::Degraded);
        c.note_queue(90, 100);
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        c.note_queue(100, 100);
        assert_eq!(c.level(), AdmissionLevel::Shed);
        assert_eq!(c.snapshot().transitions, 3);
    }

    #[test]
    fn recovery_requires_a_full_dwell_below_the_watermark() {
        let clock = Arc::new(ManualClock::new());
        let c = controller(&clock);
        c.note_queue(95, 100);
        assert_eq!(c.level(), AdmissionLevel::Shed);
        // Pressure drops, but the dwell has not elapsed: no recovery.
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Shed);
        clock.advance(HOLD_US - 1);
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Shed);
        // Dwell complete: exactly one step down per completed dwell.
        clock.advance(1);
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        clock.advance(HOLD_US);
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Degraded);
        clock.advance(HOLD_US);
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Full);
    }

    #[test]
    fn a_pressure_spike_mid_dwell_rearms_the_dwell() {
        let clock = Arc::new(ManualClock::new());
        let c = controller(&clock);
        c.note_queue(90, 100);
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        c.note_queue(0, 100);
        clock.advance(HOLD_US * 9 / 10);
        // A flap back above the recovery watermark clears the dwell…
        c.note_queue(80, 100);
        clock.advance(HOLD_US / 5);
        // …so 1.1 dwells after the first low sample the level still holds.
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        clock.advance(HOLD_US);
        c.note_queue(0, 100);
        assert_eq!(c.level(), AdmissionLevel::Degraded);
    }

    #[test]
    fn latency_ewma_is_a_second_pressure_source() {
        let clock = Arc::new(ManualClock::new());
        let c = controller(&clock);
        for _ in 0..50 {
            c.note_latency(LATENCY_BUDGET_US / 2);
        }
        assert_eq!(c.level(), AdmissionLevel::Full);
        // One slow request moves the EWMA a fifth of the way: 0.5 -> 0.8.
        c.note_latency(2 * LATENCY_BUDGET_US);
        assert_eq!(c.level(), AdmissionLevel::Degraded);
        for _ in 0..10 {
            c.note_latency(2 * LATENCY_BUDGET_US);
        }
        assert_eq!(c.level(), AdmissionLevel::Shed);
    }

    #[test]
    fn forcing_pins_the_level_and_counts_transitions() {
        let clock = Arc::new(ManualClock::new());
        let c = controller(&clock);
        c.force(Some(AdmissionLevel::Fallback));
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        // Watermark samples cannot move a forced level.
        c.note_queue(100, 100);
        assert_eq!(c.level(), AdmissionLevel::Fallback);
        c.force(Some(AdmissionLevel::Fallback));
        let t = c.snapshot().transitions;
        c.force(None);
        // Unpinning falls back to the watermark-driven level (Shed,
        // from the sample above), which is a transition.
        assert_eq!(c.level(), AdmissionLevel::Shed);
        assert_eq!(c.snapshot().transitions, t + 1);
    }

    #[test]
    fn fallback_tracker_matches_the_harmonic_mean_baseline_exactly() {
        use cs2p_core::baselines::HarmonicMean;
        use cs2p_core::ThroughputPredictor;
        let tracker = FallbackTracker::new(64, 1024);
        let mut hm = HarmonicMean::new();
        assert_eq!(tracker.predict(7), None);
        for (i, m) in [1.25, 3.5, 0.75, 2.0, 5.0].into_iter().enumerate() {
            tracker.record(7, m);
            hm.observe(m);
            let got = tracker.predict(7).unwrap();
            let want = hm.predict_ahead(1).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "sample {i}");
        }
        tracker.remove(7);
        assert_eq!(tracker.predict(7), None);
    }

    #[test]
    fn fallback_tracker_nonpositive_history_uses_last_sample() {
        let tracker = FallbackTracker::new(8, 8);
        tracker.record(1, 0.0);
        assert_eq!(tracker.predict(1), Some(0.0));
        tracker.record(1, 2.5);
        // A non-positive sample keeps the harmonic mean undefined, so
        // the baseline (and the tracker) answer the last sample.
        assert_eq!(tracker.predict(1), Some(2.5));
    }

    #[test]
    fn fallback_tracker_window_and_capacity_are_bounded() {
        let tracker = FallbackTracker::new(2, FALLBACK_SHARDS);
        for m in [1.0, 2.0, 3.0] {
            tracker.record(9, m);
        }
        // Window of 2: harmonic mean of [2, 3].
        let want = cs2p_ml::stats::harmonic_mean(&[2.0, 3.0]).unwrap();
        assert_eq!(tracker.predict(9), Some(want));
        // One session per shard fits; an overflowing shard stops
        // accepting new sessions rather than evicting old ones.
        for id in 0..10_000u64 {
            tracker.record(id, 1.0);
        }
        assert!(tracker.len() <= FALLBACK_SHARDS);
    }
}
