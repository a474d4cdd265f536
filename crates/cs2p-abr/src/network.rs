//! The trace-driven network model.
//!
//! The evaluation framework of §7.1: "the throughput changes according to
//! the previously recorded traces" — a chunk download at time `t` draws
//! capacity from the per-epoch trace, spilling across epoch boundaries
//! when a chunk takes longer than one epoch. When a trace runs out (the
//! video outlives the recorded session), the last epoch's rate holds.

/// Continuous-time downloader over a per-epoch throughput trace.
#[derive(Debug, Clone)]
pub struct TraceNetwork {
    trace_mbps: Vec<f64>,
    epoch_seconds: f64,
    now_seconds: f64,
}

impl TraceNetwork {
    /// Builds the network at time zero. Panics on an empty trace or
    /// non-positive epoch length; zero-rate epochs are clamped to a tiny
    /// positive rate so downloads always terminate.
    pub fn new(trace_mbps: &[f64], epoch_seconds: f64) -> Self {
        assert!(!trace_mbps.is_empty(), "empty throughput trace");
        assert!(epoch_seconds > 0.0);
        let trace_mbps = trace_mbps.iter().map(|&w| w.max(1e-6)).collect();
        TraceNetwork {
            trace_mbps,
            epoch_seconds,
            now_seconds: 0.0,
        }
    }

    /// Current wall-clock time, seconds.
    pub fn now(&self) -> f64 {
        self.now_seconds
    }

    /// Instantaneous rate at time `t`, Mbps.
    fn rate_at(&self, t: f64) -> f64 {
        let idx = (t / self.epoch_seconds).floor() as usize;
        let idx = idx.min(self.trace_mbps.len() - 1);
        self.trace_mbps[idx]
    }

    /// Advances the clock without transferring (player idle while the
    /// buffer is full).
    pub fn wait(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.now_seconds += seconds;
    }

    /// Downloads `size_kbits` starting now; returns the elapsed seconds and
    /// advances the clock to completion.
    pub fn download(&mut self, size_kbits: f64) -> f64 {
        assert!(size_kbits > 0.0, "zero-size download");
        let start = self.now_seconds;
        let mut remaining = size_kbits;
        let mut t = start;
        loop {
            let rate_kbps = self.rate_at(t) * 1000.0;
            let epoch_idx = (t / self.epoch_seconds).floor();
            let epoch_end = (epoch_idx + 1.0) * self.epoch_seconds;
            let span = epoch_end - t;
            let capacity = rate_kbps * span;
            if capacity >= remaining || epoch_idx as usize >= self.trace_mbps.len() - 1 {
                // Fits in this epoch, or we're on the held last rate.
                t += remaining / rate_kbps;
                break;
            }
            remaining -= capacity;
            t = epoch_end;
        }
        self.now_seconds = t;
        t - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_epoch_download() {
        // 2 Mbps for 6 s epochs; 6000 kbits takes 3 s.
        let mut n = TraceNetwork::new(&[2.0], 6.0);
        let d = n.download(6000.0);
        assert!((d - 3.0).abs() < 1e-9);
        assert!((n.now() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn download_spans_epochs() {
        // Epoch 0 at 1 Mbps (6000 kbits capacity), epoch 1 at 2 Mbps.
        // 9000 kbits: 6 s drains epoch 0 (6000), then 3000/2000 = 1.5 s.
        let mut n = TraceNetwork::new(&[1.0, 2.0], 6.0);
        let d = n.download(9000.0);
        assert!((d - 7.5).abs() < 1e-9);
    }

    #[test]
    fn last_rate_holds_past_trace_end() {
        let mut n = TraceNetwork::new(&[1.0], 6.0);
        let d = n.download(60_000.0); // 60 s at 1 Mbps
        assert!((d - 60.0).abs() < 1e-9);
    }

    #[test]
    fn wait_advances_clock_and_shifts_rates() {
        let mut n = TraceNetwork::new(&[1.0, 4.0], 6.0);
        n.wait(6.0);
        // Now in epoch 1 at 4 Mbps: 8000 kbits takes 2 s.
        let d = n.download(8000.0);
        assert!((d - 2.0).abs() < 1e-9);
        assert!((n.now() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn mid_epoch_start_uses_partial_capacity() {
        let mut n = TraceNetwork::new(&[1.0, 3.0], 6.0);
        n.wait(3.0);
        // 3 s left of epoch 0 at 1 Mbps = 3000 kbits, then epoch 1 at 3 Mbps.
        // 6000 kbits: 3 s + 3000/3000 = 1 s -> 4 s total.
        let d = n.download(6000.0);
        assert!((d - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_epochs_are_clamped() {
        let mut n = TraceNetwork::new(&[0.0, 5.0], 6.0);
        let d = n.download(1.0);
        assert!(d.is_finite());
    }

    #[test]
    fn measured_rate_matches_size_over_time() {
        let mut n = TraceNetwork::new(&[1.5, 0.5, 2.5], 6.0);
        let size = 10_000.0;
        let d = n.download(size);
        let measured_mbps = size / 1000.0 / d;
        assert!(measured_mbps > 0.5 && measured_mbps < 2.5);
    }

    #[test]
    #[should_panic(expected = "empty throughput trace")]
    fn empty_trace_panics() {
        TraceNetwork::new(&[], 6.0);
    }
}
