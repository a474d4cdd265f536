//! Online prediction-quality monitoring for the serving layer.
//!
//! The paper evaluates CS2P offline by the absolute percent error (APE)
//! of its throughput predictions (§7, Eq. 7). In production the same
//! signal is available *online* for free: the server predicted epoch
//! `t+1` and, one request later, the player reports what it actually
//! measured. [`QualityMonitor`] closes that loop — every `/predict`
//! carrying a measurement scores the previous prediction, feeds
//! per-`{model version, cluster-hit/global-fallback, initial/midstream}`
//! quantile sketches (`quality.ape.*` in the metrics snapshot), and
//! checks a sliding-window drift alarm.
//!
//! The drift alarm is the operational point of the whole exercise: when
//! the median APE over the last [`QualityConfig::window`] scored
//! predictions exceeds [`QualityConfig::threshold_ape`], the world has
//! drifted away from the training data and the model should be
//! refreshed. The alarm emits a `quality.drift.alarm` event, bumps
//! `quality.drift.alarms`, and (when
//! [`QualityConfig::trigger_refresh`] is set) lets the server kick an
//! online retrain — closing the observe → alarm → refresh → recover loop
//! end-to-end. Cooldown and alarm timing run on an injectable
//! [`Clock`], so tests drive the whole loop deterministically.
//!
//! The monitor keeps its own sketches in addition to feeding the global
//! `cs2p-obs` registry: the `/ops` surface must work even when the
//! registry is disabled (the default in production).

use cs2p_obs::{Clock, QuantileSketch, QuantileSnapshot};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the online quality monitor (see [`QualityMonitor`]).
///
/// The defaults are deliberately conservative: a median APE of 0.75
/// means predictions are off by 75% for half the window — far beyond
/// anything a healthy model produces (the paper reports ~7% median APE)
/// — so CI workloads and benchmarks never trip the alarm by accident.
/// Drift tests lower `threshold_ape` and `min_samples` explicitly.
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Sliding-window size (scored predictions) for the drift check.
    pub window: usize,
    /// Drift alarm fires when the window's median APE exceeds this.
    pub threshold_ape: f64,
    /// No alarm until the window holds at least this many samples.
    pub min_samples: usize,
    /// Minimum time between alarms, measured on the injectable clock.
    pub cooldown: Duration,
    /// When set, an alarm asks the server to refresh its models from
    /// the recorded-session window (same path as
    /// `ServerHandle::refresh_models`; a no-op if too few sessions are
    /// recorded).
    pub trigger_refresh: bool,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            window: 256,
            threshold_ape: 0.75,
            min_samples: 64,
            cooldown: Duration::from_secs(60),
            trigger_refresh: false,
        }
    }
}

/// Which APE sketch a scored prediction lands in. Kept typed on the
/// request path and formatted only when a snapshot (or the enabled
/// `cs2p-obs` registry) needs the name: `v{version}.{cluster|global}.
/// {initial|midstream}`, or `log` for pairs recovered from offline
/// session logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SketchKey {
    Log,
    Served {
        version: u64,
        cluster_hit: bool,
        initial: bool,
    },
}

impl fmt::Display for SketchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SketchKey::Log => f.write_str("log"),
            SketchKey::Served {
                version,
                cluster_hit,
                initial,
            } => write!(
                f,
                "v{}.{}.{}",
                version,
                if cluster_hit { "cluster" } else { "global" },
                if initial { "initial" } else { "midstream" },
            ),
        }
    }
}

/// The sliding drift window, with the one count that lets the healthy
/// steady state skip the median: how many samples exceed the threshold
/// (above it, or NaN).
///
/// Sorted by `f64::total_cmp`, those samples sit at the two ends (NaNs
/// with the sign bit set below everything, the rest on top), neither end
/// longer than `above`. So while `2 * above < len`, the middle element
/// (odd `len`) or both middle elements (even `len`) are real numbers
/// `<= threshold`, and so is their median — `0.5 * (x + y)` rounds
/// monotonically, and `2 * threshold` is exact for any threshold below
/// `f64::MAX / 2`. The exact median is needed only once at least half
/// the window is over the threshold.
#[derive(Debug)]
struct DriftWindow {
    /// Last `capacity` APE values, oldest first.
    samples: VecDeque<f64>,
    /// How many of `samples` [`exceeds`] the threshold.
    above: usize,
    capacity: usize,
    threshold: f64,
}

/// The alarm condition on a median, and the per-sample condition `above`
/// counts: the negation of `<=`, so a NaN exceeds every threshold.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn exceeds(ape: f64, threshold: f64) -> bool {
    !(ape <= threshold)
}

impl DriftWindow {
    fn new(config: &QualityConfig) -> Self {
        DriftWindow {
            samples: VecDeque::new(),
            above: 0,
            capacity: config.window.max(1),
            threshold: config.threshold_ape,
        }
    }

    fn push(&mut self, ape: f64) {
        self.samples.push_back(ape);
        self.above += usize::from(exceeds(ape, self.threshold));
        while self.samples.len() > self.capacity {
            if let Some(old) = self.samples.pop_front() {
                self.above -= usize::from(exceeds(old, self.threshold));
            }
        }
    }

    fn clear(&mut self) {
        self.samples.clear();
        self.above = 0;
    }

    /// `false` only when the median provably does not exceed the
    /// threshold (see the type's invariant).
    fn median_may_exceed_threshold(&self) -> bool {
        2 * self.above >= self.samples.len()
    }

    /// Exact median by sorting a copy; 0.0 when empty.
    fn median(&self) -> f64 {
        median_of(self.samples.iter().copied())
    }
}

/// Mutex-guarded state: the drift window and the quality sketches.
#[derive(Debug)]
struct MonitorInner {
    window: DriftWindow,
    /// When the last alarm fired (injectable-clock micros).
    last_alarm_us: Option<u64>,
    /// Per-provenance APE sketches.
    sketches: BTreeMap<SketchKey, QuantileSketch>,
    /// End-to-end request-handling latency (µs, on the injectable
    /// clock — zero-width under a `ManualClock`, which is what keeps
    /// deterministic runs deterministic).
    latency_us: QuantileSketch,
}

/// The online accuracy monitor. One per server; all methods are
/// thread-safe and cheap enough for the request path: an atomic or a
/// short mutex hold, and — with the `cs2p-obs` registry off, the
/// production default, and once the drift window has filled — no
/// allocation unless a new sketch key or sketch bucket appears or at
/// least half the window is over the threshold (`tests/alloc_budget.rs`
/// counts).
pub struct QualityMonitor {
    config: QualityConfig,
    clock: Arc<dyn Clock>,
    /// Predictions scored against a later measurement.
    matched: AtomicU64,
    /// Predictions that left the server unscored (session completed or
    /// was evicted before the next measurement arrived, or the actual
    /// was zero so APE is undefined).
    unmatched: AtomicU64,
    /// Drift alarms fired.
    alarms: AtomicU64,
    /// Guards alarm-triggered refreshes: one at a time.
    refresh_in_flight: AtomicBool,
    inner: Mutex<MonitorInner>,
}

impl std::fmt::Debug for QualityMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityMonitor")
            .field("config", &self.config)
            .field("matched", &self.matched.load(Ordering::Relaxed))
            .field("unmatched", &self.unmatched.load(Ordering::Relaxed))
            .field("alarms", &self.alarms.load(Ordering::Relaxed))
            .finish()
    }
}

impl QualityMonitor {
    /// Creates a monitor. `clock` is the server's injectable clock —
    /// alarm cooldown (and request-latency timing) follow it.
    pub fn new(config: QualityConfig, clock: Arc<dyn Clock>) -> Self {
        let window = DriftWindow::new(&config);
        QualityMonitor {
            config,
            clock,
            matched: AtomicU64::new(0),
            unmatched: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            refresh_in_flight: AtomicBool::new(false),
            inner: Mutex::new(MonitorInner {
                window,
                last_alarm_us: None,
                sketches: BTreeMap::new(),
                latency_us: QuantileSketch::new(),
            }),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &QualityConfig {
        &self.config
    }

    /// Scores one served prediction against the throughput the player
    /// later measured. Returns `true` when this sample tripped the
    /// drift alarm (the caller decides whether to act on it).
    pub fn record_ape(&self, version: u64, cluster_hit: bool, initial: bool, ape: f64) -> bool {
        self.record_keyed(
            SketchKey::Served {
                version,
                cluster_hit,
                initial,
            },
            ape,
        )
    }

    /// Scores a `(predicted, actual)` pair recovered from an uploaded
    /// [`crate::protocol::SessionLog`] whose session the server no
    /// longer holds — provenance and model version are unknown, so the
    /// sample lands in the dedicated `log` sketch.
    pub fn record_log_ape(&self, ape: f64) -> bool {
        self.record_keyed(SketchKey::Log, ape)
    }

    fn record_keyed(&self, key: SketchKey, ape: f64) -> bool {
        self.matched.fetch_add(1, Ordering::Relaxed);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("quality.coverage.matched", 1);
            cs2p_obs::quantile_observe(&format!("quality.ape.{key}"), ape);
        }
        let mut inner = self.inner.lock();
        inner.sketches.entry(key).or_default().observe(ape);
        inner.window.push(ape);
        self.check_alarm(&mut inner)
    }

    /// Drift check; called with the lock held, window freshly updated.
    /// O(1) — no clock read, no median — unless at least half the window
    /// is over the threshold.
    fn check_alarm(&self, inner: &mut MonitorInner) -> bool {
        if inner.window.samples.len() < self.config.min_samples.max(1)
            || !inner.window.median_may_exceed_threshold()
        {
            return false;
        }
        let now = self.clock.now_micros();
        let cooldown_us = self.config.cooldown.as_micros().min(u64::MAX as u128) as u64;
        if let Some(last) = inner.last_alarm_us {
            if now.saturating_sub(last) < cooldown_us {
                return false;
            }
        }
        let median = inner.window.median();
        if !exceeds(median, self.config.threshold_ape) {
            return false;
        }
        // Alarm. Clear the window so post-refresh samples are judged on
        // their own — that is what lets a test watch the windowed APE
        // recover after the hot-swap.
        inner.window.clear();
        inner.last_alarm_us = Some(now);
        let n = self.alarms.fetch_add(1, Ordering::Relaxed) + 1;
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("quality.drift.alarms", 1);
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "quality.drift.alarm",
                vec![
                    ("median_ape", median.into()),
                    ("threshold", self.config.threshold_ape.into()),
                    ("window", self.config.window.into()),
                    ("alarm_seq", n.into()),
                ],
            );
        }
        true
    }

    /// Counts a prediction that will never be scored (the session ended
    /// before the next measurement, or APE was undefined).
    pub fn note_unmatched(&self) {
        self.unmatched.fetch_add(1, Ordering::Relaxed);
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("quality.coverage.unmatched", 1);
        }
    }

    /// Records one request's end-to-end handling latency.
    pub fn record_latency_us(&self, us: f64) {
        self.inner.lock().latency_us.observe(us);
    }

    /// Predictions scored so far.
    pub fn matched(&self) -> u64 {
        self.matched.load(Ordering::Relaxed)
    }

    /// Predictions that left unscored.
    pub fn unmatched(&self) -> u64 {
        self.unmatched.load(Ordering::Relaxed)
    }

    /// Drift alarms fired so far.
    pub fn alarms(&self) -> u64 {
        self.alarms.load(Ordering::Relaxed)
    }

    /// `(samples, median)` of the current drift window; `(0, 0.0)` when
    /// empty (the window is cleared by each alarm).
    pub fn windowed(&self) -> (usize, f64) {
        let inner = self.inner.lock();
        (inner.window.samples.len(), inner.window.median())
    }

    /// Snapshots of every per-provenance APE sketch, sorted by key name.
    pub fn ape_snapshots(&self) -> Vec<(String, QuantileSnapshot)> {
        let mut snapshots: Vec<(String, QuantileSnapshot)> = self
            .inner
            .lock()
            .sketches
            .iter()
            .map(|(k, s)| (k.to_string(), s.snapshot()))
            .collect();
        // By name, not by typed key: `v10.*` sorts before `v2.*`, as it
        // did when the map was keyed by the string.
        snapshots.sort_by(|a, b| a.0.cmp(&b.0));
        snapshots
    }

    /// Snapshot of the request-latency sketch.
    pub fn latency_snapshot(&self) -> QuantileSnapshot {
        self.inner.lock().latency_us.snapshot()
    }

    /// Claims the alarm-refresh slot. The caller must pair a `true`
    /// return with [`end_refresh`](Self::end_refresh); `false` means a
    /// refresh is already running and the caller should skip.
    pub fn begin_refresh(&self) -> bool {
        self.refresh_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases the alarm-refresh slot.
    pub fn end_refresh(&self) {
        self.refresh_in_flight.store(false, Ordering::Release);
    }
}

/// Exact median by sorting a copy (0.0 when empty) — the window is small
/// (hundreds), and this runs per `/ops` read and per scored prediction
/// only while at least half the drift window is over the threshold.
/// `total_cmp` keeps the order total when a NaN reaches the public
/// `record_*` methods, so the sort cannot panic under the monitor lock.
fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Absolute percent error of a prediction against a measured actual;
/// `None` when the actual is nonpositive or either value is non-finite
/// (APE is undefined there — callers count those as unmatched).
pub fn ape(predicted: f64, actual: f64) -> Option<f64> {
    if !predicted.is_finite() || !actual.is_finite() || actual <= 0.0 {
        return None;
    }
    Some((predicted - actual).abs() / actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::ManualClock;

    fn monitor(config: QualityConfig) -> (QualityMonitor, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let m = QualityMonitor::new(config, Arc::clone(&clock) as Arc<dyn Clock>);
        (m, clock)
    }

    #[test]
    fn ape_is_undefined_for_zero_actual_and_nonfinite_inputs() {
        assert_eq!(ape(2.0, 4.0), Some(0.5));
        assert_eq!(ape(4.0, 4.0), Some(0.0));
        assert_eq!(ape(1.0, 0.0), None);
        assert_eq!(ape(1.0, -1.0), None);
        assert_eq!(ape(f64::NAN, 1.0), None);
        assert_eq!(ape(1.0, f64::INFINITY), None);
    }

    #[test]
    fn sketches_are_keyed_by_provenance() {
        let (m, _) = monitor(QualityConfig::default());
        m.record_ape(1, true, true, 0.1);
        m.record_ape(1, true, false, 0.2);
        m.record_ape(2, false, false, 0.3);
        m.record_log_ape(0.4);
        let keys: Vec<String> = m.ape_snapshots().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "log".to_string(),
                "v1.cluster.initial".to_string(),
                "v1.cluster.midstream".to_string(),
                "v2.global.midstream".to_string(),
            ]
        );
        assert_eq!(m.matched(), 4);
    }

    #[test]
    fn alarm_fires_on_drift_then_respects_cooldown() {
        let (m, clock) = monitor(QualityConfig {
            window: 8,
            threshold_ape: 0.5,
            min_samples: 4,
            cooldown: Duration::from_secs(10),
            trigger_refresh: false,
        });
        // Accurate predictions: no alarm however many samples arrive.
        for _ in 0..16 {
            assert!(!m.record_ape(1, true, false, 0.05));
        }
        // Drifted: the 4th bad sample satisfies min_samples… but the
        // window still holds old good samples; keep feeding until the
        // median crosses.
        let mut fired = false;
        for _ in 0..8 {
            fired |= m.record_ape(1, true, false, 1.0);
        }
        assert!(fired, "drift must raise the alarm");
        assert_eq!(m.alarms(), 1);
        // The alarm cleared the window and armed the cooldown: more bad
        // samples do not re-fire within it…
        for _ in 0..8 {
            assert!(!m.record_ape(1, true, false, 1.0));
        }
        assert_eq!(m.alarms(), 1);
        // …but do after the cooldown elapses on the injectable clock.
        clock.advance(11_000_000);
        let mut refired = false;
        for _ in 0..8 {
            refired |= m.record_ape(1, true, false, 1.0);
        }
        assert!(refired, "alarm must re-arm after cooldown");
        assert_eq!(m.alarms(), 2);
    }

    #[test]
    fn window_clears_on_alarm_so_recovery_is_visible() {
        let (m, _) = monitor(QualityConfig {
            window: 8,
            threshold_ape: 0.5,
            min_samples: 2,
            cooldown: Duration::from_secs(0),
            trigger_refresh: false,
        });
        m.record_ape(1, true, false, 1.0);
        assert!(m.record_ape(1, true, false, 1.0));
        assert_eq!(m.windowed(), (0, 0.0), "alarm must clear the window");
        // Good samples after the (hypothetical) refresh: window median
        // reflects only them.
        m.record_ape(2, true, false, 0.05);
        m.record_ape(2, true, false, 0.07);
        m.record_ape(2, true, false, 0.06);
        let (n, median) = m.windowed();
        assert_eq!(n, 3);
        assert!((median - 0.06).abs() < 1e-12);
        // 0-second cooldown: ManualClock has not advanced, and
        // now - last == 0 >= 0, so only the median gate holds it back.
        assert!(!m.record_ape(2, true, false, 0.05));
    }

    /// The monitor as it was before the above-threshold count and the
    /// typed keys: the name formatted per score, and the exact median
    /// sorted out of the whole window on every sample. The reference the
    /// O(1) check is held to.
    struct SortEverySample {
        config: QualityConfig,
        clock: Arc<ManualClock>,
        alarms: u64,
        window: VecDeque<f64>,
        last_alarm_us: Option<u64>,
        sketches: BTreeMap<String, QuantileSketch>,
    }

    impl SortEverySample {
        fn new(config: QualityConfig, clock: Arc<ManualClock>) -> Self {
            SortEverySample {
                config,
                clock,
                alarms: 0,
                window: VecDeque::new(),
                last_alarm_us: None,
                sketches: BTreeMap::new(),
            }
        }

        fn record_ape(&mut self, version: u64, cluster_hit: bool, initial: bool, ape: f64) -> bool {
            let key = format!(
                "v{}.{}.{}",
                version,
                if cluster_hit { "cluster" } else { "global" },
                if initial { "initial" } else { "midstream" },
            );
            self.record_keyed(&key, ape)
        }

        fn record_log_ape(&mut self, ape: f64) -> bool {
            self.record_keyed("log", ape)
        }

        fn record_keyed(&mut self, key: &str, ape: f64) -> bool {
            match self.sketches.get_mut(key) {
                Some(s) => s.observe(ape),
                None => {
                    let mut s = QuantileSketch::new();
                    s.observe(ape);
                    self.sketches.insert(key.to_string(), s);
                }
            }
            self.window.push_back(ape);
            while self.window.len() > self.config.window.max(1) {
                self.window.pop_front();
            }
            if self.window.len() < self.config.min_samples.max(1) {
                return false;
            }
            let now = self.clock.now_micros();
            let cooldown_us = self.config.cooldown.as_micros() as u64;
            if let Some(last) = self.last_alarm_us {
                if now.saturating_sub(last) < cooldown_us {
                    return false;
                }
            }
            let median = median_of(self.window.iter().copied());
            if median <= self.config.threshold_ape {
                return false;
            }
            self.window.clear();
            self.last_alarm_us = Some(now);
            self.alarms += 1;
            true
        }

        fn windowed(&self) -> (usize, f64) {
            (self.window.len(), median_of(self.window.iter().copied()))
        }

        fn ape_snapshots(&self) -> Vec<(String, QuantileSnapshot)> {
            self.sketches
                .iter()
                .map(|(k, s)| (k.clone(), s.snapshot()))
                .collect()
        }
    }

    /// The count the O(1) check rests on, against the window it counts.
    fn assert_above_matches_window(m: &QualityMonitor) {
        let inner = m.inner.lock();
        let recount = inner
            .window
            .samples
            .iter()
            .filter(|x| exceeds(**x, m.config.threshold_ape))
            .count();
        assert_eq!(
            inner.window.above, recount,
            "window {:?}",
            inner.window.samples
        );
    }

    #[test]
    fn o1_drift_check_matches_sort_every_sample_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x15);
        let mut alarms_seen = 0;
        let mut near_threshold_skips = 0;
        for case in 0..240 {
            // Windows 1..=64 (odd and even), `min_samples` from 0 to past
            // the window (never alarms), cooldowns the clock does and
            // does not get across.
            let window = 1 + case % 64;
            let threshold_ape = [0.1, 0.25, 0.5, 0.75][rng.gen_range(0..4usize)];
            let config = QualityConfig {
                window,
                threshold_ape,
                min_samples: rng.gen_range(0..=window + 2),
                cooldown: Duration::from_secs([0, 5, 60][rng.gen_range(0..3usize)]),
                trigger_refresh: false,
            };
            let (m, clock) = monitor(config.clone());
            let mut reference = SortEverySample::new(config, Arc::clone(&clock));
            // Alternating healthy and drifted phases, with samples exactly
            // at the threshold and the odd non-finite one mixed in.
            let mut drifted = false;
            for step in 0..320 {
                if rng.gen_bool(0.02) {
                    drifted = !drifted;
                }
                if rng.gen_bool(0.05) {
                    clock.advance(rng.gen_range(1..=70u64) * 1_000_000);
                }
                let ape = match rng.gen_range(0..40u32) {
                    0..=3 => threshold_ape,
                    4 => f64::INFINITY,
                    5 => f64::NEG_INFINITY,
                    6 => f64::NAN,
                    7 => -f64::NAN,
                    8..=11 => rng.gen_range(0.0..2.0 * threshold_ape),
                    _ if drifted => threshold_ape * rng.gen_range(1.0..3.0),
                    _ => threshold_ape * rng.gen_range(0.0..1.0),
                };
                let (got, want) = if rng.gen_bool(0.1) {
                    (m.record_log_ape(ape), reference.record_log_ape(ape))
                } else {
                    let version = [1u64, 2, 10][rng.gen_range(0..3usize)];
                    let (hit, initial) = (rng.gen_bool(0.7), rng.gen_bool(0.2));
                    (
                        m.record_ape(version, hit, initial, ape),
                        reference.record_ape(version, hit, initial, ape),
                    )
                };
                let at = format!("case {case} step {step} ape {ape}");
                assert_eq!(got, want, "{at}");
                assert_eq!(m.alarms(), reference.alarms, "{at}");
                let ((n, median), (want_n, want_median)) = (m.windowed(), reference.windowed());
                assert_eq!(
                    (n, median.to_bits()),
                    (want_n, want_median.to_bits()),
                    "{at}"
                );
                assert_eq!(m.ape_snapshots(), reference.ape_snapshots(), "{at}");
                assert_above_matches_window(&m);
                alarms_seen += u64::from(got);
                let inner = m.inner.lock();
                near_threshold_skips += u64::from(
                    !inner.window.median_may_exceed_threshold()
                        && inner.window.samples.len() >= m.config.min_samples.max(1)
                        && inner.window.above > 0,
                );
            }
        }
        // The battery reaches both sides of the shortcut.
        assert!(alarms_seen > 100, "only {alarms_seen} alarms");
        assert!(
            near_threshold_skips > 1000,
            "only {near_threshold_skips} skips"
        );
    }

    #[test]
    fn non_finite_apes_neither_panic_nor_skew_the_above_count() {
        let (m, _) = monitor(QualityConfig {
            window: 4,
            threshold_ape: 0.5,
            min_samples: 4,
            cooldown: Duration::from_secs(0),
            trigger_refresh: false,
        });
        // NaNs of both signs sort to opposite ends under `total_cmp`; an
        // order that is not total may panic inside `sort_by`.
        let stream = [
            f64::NAN,
            0.1,
            -f64::NAN,
            f64::INFINITY,
            0.2,
            0.1,
            0.3,
            f64::NEG_INFINITY,
            0.1,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut fired = Vec::new();
        for ape in stream {
            fired.push(m.record_log_ape(ape));
            assert_above_matches_window(&m);
            let _ = m.windowed();
        }
        // Evicted NaNs left the count; the last two samples put half the
        // window over the threshold again: median 0.5 * (0.1 + inf).
        let mut want = vec![false; stream.len()];
        want[3] = true; // [NaN, 0.1, -NaN, inf] sorts to -NaN 0.1 inf NaN
        want[10] = true;
        assert_eq!(fired, want);
        assert_eq!(m.windowed(), (0, 0.0));
    }

    #[test]
    fn snapshots_sort_by_name_so_v10_precedes_v2() {
        let (m, _) = monitor(QualityConfig::default());
        for version in [2, 10, 1] {
            m.record_ape(version, true, false, 0.1);
        }
        m.record_log_ape(0.1);
        let keys: Vec<String> = m.ape_snapshots().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "log",
                "v1.cluster.midstream",
                "v10.cluster.midstream",
                "v2.cluster.midstream"
            ]
        );
    }

    #[test]
    fn refresh_slot_is_exclusive() {
        let (m, _) = monitor(QualityConfig::default());
        assert!(m.begin_refresh());
        assert!(!m.begin_refresh(), "slot must be exclusive");
        m.end_refresh();
        assert!(m.begin_refresh());
        m.end_refresh();
    }

    #[test]
    fn latency_sketch_reports_quantiles() {
        let (m, _) = monitor(QualityConfig::default());
        for us in [100.0, 200.0, 300.0, 400.0] {
            m.record_latency_us(us);
        }
        let snap = m.latency_snapshot();
        assert_eq!(snap.count, 4);
        assert!(snap.min <= 100.0 * 1.05 && snap.max >= 400.0 * 0.95);
    }
}
