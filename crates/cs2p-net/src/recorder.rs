//! Bounded accumulator of completed sessions — the feedback seam that
//! turns served traffic back into training data.
//!
//! §5 of the paper assumes models are "updated periodically (e.g.,
//! daily)" from fresh session logs. This is the server-side half of that
//! loop: every session that *completes* (uploads its `/log`, or is
//! evicted from the session store) drains its registration features and
//! the throughputs it reported into a [`SessionRecorder`], which holds a
//! bounded sliding window of the most recent completed sessions. A model
//! refresh snapshots the window as a [`Dataset`] and retrains from it
//! (warm-starting from the live model — see `cs2p_core::ModelRegistry`).
//!
//! The window is a ring: when full, the oldest completed session is
//! dropped (and counted), so memory stays bounded no matter how long the
//! server runs. Sessions with fewer observed epochs than the configured
//! minimum are skipped — they carry no transition information for EM.

use cs2p_core::{Dataset, FeatureSchema, FeatureVector, Session};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// `min_epochs` of the server's recorder: one epoch carries no
/// transition for EM.
pub(crate) const SERVER_MIN_EPOCHS: usize = 2;

struct Inner {
    sessions: VecDeque<Session>,
    /// Next synthetic session id (also drives the synthetic start time).
    next_id: u64,
    recorded: u64,
    dropped: u64,
    skipped: u64,
}

/// A bounded sliding window of completed sessions, snapshot-able as a
/// [`Dataset`] for retraining. See the module docs.
pub struct SessionRecorder {
    schema: FeatureSchema,
    epoch_seconds: u32,
    capacity: usize,
    min_epochs: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SessionRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SessionRecorder")
            .field("len", &inner.sessions.len())
            .field("capacity", &self.capacity)
            .field("recorded", &inner.recorded)
            .field("dropped", &inner.dropped)
            .field("skipped", &inner.skipped)
            .finish()
    }
}

impl SessionRecorder {
    /// A recorder holding at most `capacity` completed sessions with the
    /// given feature `schema`; sessions with fewer than `min_epochs`
    /// observed epochs are skipped (`capacity` and `min_epochs` are
    /// clamped to at least 1).
    pub fn new(
        schema: FeatureSchema,
        epoch_seconds: u32,
        capacity: usize,
        min_epochs: usize,
    ) -> Self {
        SessionRecorder {
            schema,
            epoch_seconds,
            capacity: capacity.max(1),
            min_epochs: min_epochs.max(1),
            inner: Mutex::new(Inner {
                sessions: VecDeque::new(),
                next_id: 0,
                recorded: 0,
                dropped: 0,
                skipped: 0,
            }),
        }
    }

    /// Records one completed session. `throughput` is the sequence of
    /// measured epoch throughputs the session reported, in order. Short
    /// sessions (fewer than `min_epochs` observations) are skipped; when
    /// the window is full the oldest session is dropped to make room.
    pub fn record(&self, features: FeatureVector, throughput: Vec<f64>) {
        debug_assert_eq!(features.len(), self.schema.len(), "feature width");
        if throughput.len() < self.min_epochs {
            self.inner.lock().skipped += 1;
            return;
        }
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        // Synthetic, strictly increasing start times: completion order is
        // the only clock the server has for these sessions.
        let start_time = id * self.epoch_seconds as u64;
        inner.sessions.push_back(Session::new(
            id,
            features,
            start_time,
            self.epoch_seconds,
            throughput,
        ));
        inner.recorded += 1;
        if inner.sessions.len() > self.capacity {
            inner.sessions.pop_front();
            inner.dropped += 1;
        }
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("serve.recorder.sessions", 1);
            cs2p_obs::gauge_set("serve.recorder.len", inner.sessions.len() as f64);
        }
    }

    /// Completed sessions currently in the window.
    pub fn len(&self) -> usize {
        self.inner.lock().sessions.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions recorded since startup (including ones since dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Sessions dropped off the back of the full window.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Sessions skipped for having fewer than `min_epochs` observations.
    pub fn skipped(&self) -> u64 {
        self.inner.lock().skipped
    }

    /// Snapshots the current window as a training [`Dataset`] (the window
    /// itself is untouched — it keeps sliding for the next refresh).
    /// `None` when the window is empty.
    pub fn dataset(&self) -> Option<Dataset> {
        let inner = self.inner.lock();
        if inner.sessions.is_empty() {
            return None;
        }
        let sessions: Vec<Session> = inner.sessions.iter().cloned().collect();
        Some(Dataset::new(self.schema.clone(), sessions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize) -> SessionRecorder {
        SessionRecorder::new(FeatureSchema::new(vec!["isp"]), 6, capacity, 2)
    }

    #[test]
    fn records_and_snapshots_without_draining() {
        let rec = recorder(10);
        rec.record(FeatureVector(vec![0]), vec![1.0, 1.1, 0.9]);
        rec.record(FeatureVector(vec![1]), vec![5.0, 5.2]);
        assert_eq!(rec.len(), 2);
        let d = rec.dataset().expect("non-empty");
        assert_eq!(d.len(), 2);
        // Snapshot does not drain.
        assert_eq!(rec.len(), 2);
        assert_eq!(d.get(0).features.get(0), 0);
        assert_eq!(d.get(1).features.get(0), 1);
        assert!(d.get(1).start_time > d.get(0).start_time);
    }

    #[test]
    fn window_is_bounded_and_drops_oldest() {
        let rec = recorder(3);
        for k in 0..5u32 {
            rec.record(FeatureVector(vec![k]), vec![1.0, 2.0]);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let d = rec.dataset().unwrap();
        // Oldest two (features 0 and 1) were dropped.
        let feats: Vec<u32> = d.sessions().iter().map(|s| s.features.get(0)).collect();
        assert_eq!(feats, vec![2, 3, 4]);
    }

    #[test]
    fn short_sessions_are_skipped() {
        let rec = recorder(10);
        rec.record(FeatureVector(vec![0]), vec![]);
        rec.record(FeatureVector(vec![0]), vec![3.0]);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.skipped(), 2);
        assert!(rec.dataset().is_none());
    }
}
