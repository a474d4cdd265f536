//! Video sessions and their per-epoch throughput series.
//!
//! A session in the dataset (§3) is one client–server HTTP connection
//! downloading video chunks; the client records the average throughput of
//! every 6-second *epoch* and reports the series when the session ends.

use crate::features::FeatureVector;
use serde::{Deserialize, Serialize};

/// Default epoch length used by the paper's dataset, and the one the
/// prediction server stamps on the sessions it records.
pub const DEFAULT_EPOCH_SECONDS: u32 = 6;

/// One video session: features, start time, and the epoch throughput series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// Unique session id within its dataset.
    pub id: u64,
    /// Feature values aligned with the dataset's [`crate::features::FeatureSchema`].
    pub features: FeatureVector,
    /// Session start, in seconds relative to the dataset's time origin.
    pub start_time: u64,
    /// Epoch length in seconds (6 in the paper).
    pub epoch_seconds: u32,
    /// Average throughput per epoch, in Mbps.
    pub throughput: Vec<f64>,
}

impl Session {
    /// Builds a session; panics on a zero epoch length or non-finite /
    /// negative throughput samples (measurements are nonnegative by
    /// construction).
    pub fn new(
        id: u64,
        features: FeatureVector,
        start_time: u64,
        epoch_seconds: u32,
        throughput: Vec<f64>,
    ) -> Self {
        assert!(epoch_seconds > 0, "epoch length must be positive");
        assert!(
            throughput.iter().all(|w| w.is_finite() && *w >= 0.0),
            "throughput samples must be finite and nonnegative"
        );
        Session {
            id,
            features,
            start_time,
            epoch_seconds,
            throughput,
        }
    }

    /// Number of epochs observed.
    pub fn n_epochs(&self) -> usize {
        self.throughput.len()
    }

    /// Session duration in seconds.
    pub fn duration_seconds(&self) -> u64 {
        self.n_epochs() as u64 * self.epoch_seconds as u64
    }

    /// Session end time (start + duration).
    pub fn end_time(&self) -> u64 {
        self.start_time + self.duration_seconds()
    }

    /// Throughput of the first epoch — the target of initial prediction.
    pub fn initial_throughput(&self) -> Option<f64> {
        self.throughput.first().copied()
    }

    /// Arithmetic mean throughput over the session.
    pub fn mean_throughput(&self) -> Option<f64> {
        cs2p_ml::stats::mean(&self.throughput)
    }

    /// Coefficient of variation of the epoch series (Observation 1).
    pub fn throughput_cov(&self) -> Option<f64> {
        cs2p_ml::stats::coefficient_of_variation(&self.throughput)
    }

    /// Day index since the dataset origin.
    pub fn day(&self) -> u64 {
        self.start_time / 86_400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(start: u64, tp: Vec<f64>) -> Session {
        Session::new(1, FeatureVector(vec![0, 0]), start, 6, tp)
    }

    #[test]
    fn durations_and_ends() {
        let s = session(100, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.n_epochs(), 3);
        assert_eq!(s.duration_seconds(), 18);
        assert_eq!(s.end_time(), 118);
    }

    #[test]
    fn initial_and_mean() {
        let s = session(0, vec![2.0, 4.0]);
        assert_eq!(s.initial_throughput(), Some(2.0));
        assert_eq!(s.mean_throughput(), Some(3.0));
        let empty = session(0, vec![]);
        assert_eq!(empty.initial_throughput(), None);
        assert_eq!(empty.mean_throughput(), None);
    }

    #[test]
    fn time_helpers() {
        // Day 1, 02:00.
        let s = session(86_400 + 2 * 3600 + 30, vec![1.0]);
        assert_eq!(s.day(), 1);
    }

    #[test]
    fn cov_of_constant_series_is_zero() {
        let s = session(0, vec![5.0, 5.0, 5.0]);
        assert_eq!(s.throughput_cov(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn rejects_negative_throughput() {
        session(0, vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn rejects_zero_epoch() {
        Session::new(1, FeatureVector(vec![]), 0, 0, vec![]);
    }
}
