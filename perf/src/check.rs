//! Correctness bookkeeping: what was attempted, what failed, and why.
//!
//! An operation fails on a transport error, a status other than the one
//! it expects, a per-entry non-200, or a mismatch with the reference; a
//! run is correct only with zero failures.

use crate::load::{expected_status, PhaseOutcome};
use crate::reference::{fold, frame_mismatches, single_matches, FOLD_START};
use crate::traffic::{Expect, Kind, SetupFrame, Traffic};
use bytes::Bytes;
use cs2p_net::PredictResponse;

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per kind of failure (the first occurrence).
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }

    /// An exact count against its closed-form expectation.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempt(1);
        if got != want {
            self.fail(1, || format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Whether a kept response is exactly what the reference owes `kind`.
pub fn response_matches(kind: Kind, status: u16, body: &[u8], want: &[PredictResponse]) -> bool {
    status == expected_status(kind)
        && match kind {
            Kind::Predict => single_matches(body, &want[0]),
            Kind::Batch => frame_mismatches(body, want) == 0,
            Kind::Log => body.is_empty(),
        }
}

/// Checks the answers to `frames` (decoded, bit for bit) against
/// `expected(frame)`, the responses that frame's sessions owe next.
pub fn verify_frames(
    frames: &[SetupFrame],
    kept: &[(u16, Bytes)],
    mut expected: impl FnMut(&SetupFrame) -> Vec<PredictResponse>,
    tally: &mut Tally,
) {
    tally.attempt(frames.len() as u64);
    for (i, (frame, (status, body))) in frames.iter().zip(kept).enumerate() {
        let want = expected(frame);
        if !response_matches(Kind::Batch, *status, body, &want) {
            tally.fail(1, || {
                format!("set-up frame {i}: status {status} or entries differ")
            });
        }
    }
}

/// Walks every connection's script with the reference: warm-up responses
/// are decoded and compared bit for bit, timed responses by the fold of
/// their raw bytes per unit.
pub fn verify_phase(
    traffic: &Traffic,
    outcome: &PhaseOutcome,
    warmup: usize,
    expect: &mut dyn Expect,
    tally: &mut Tally,
) {
    tally.attempt(outcome.requests);
    tally.fail(outcome.bad_status, || {
        format!(
            "{} timed requests failed or had the wrong status",
            outcome.bad_status
        )
    });
    let mut want_folds = vec![FOLD_START; traffic.units];
    let mut timed_ops = vec![0u64; traffic.units];
    for (script, kept) in traffic.scripts.iter().zip(&outcome.kept) {
        let mut kept = kept.iter();
        for w in 0..script.windows() {
            for op in script.window(w) {
                let (body, decoded) = expect.next(op, w < warmup);
                if w < warmup {
                    let (status, got) = kept.next().expect("one kept response per warm-up op");
                    if !response_matches(op.kind, *status, got, &decoded) {
                        tally.fail(1, || {
                            format!(
                                "warm-up {:?} of unit {}: status {status} or body differs",
                                op.kind, op.unit
                            )
                        });
                    }
                } else {
                    let slot = &mut want_folds[op.unit as usize];
                    *slot = fold(*slot, &body);
                    timed_ops[op.unit as usize] += 1;
                }
            }
        }
    }
    for (unit, (want, got)) in want_folds.iter().zip(&outcome.folds).enumerate() {
        if want != got {
            tally.fail(timed_ops[unit], || {
                format!(
                    "unit {unit}: fold of {} timed responses differs from the reference",
                    timed_ops[unit]
                )
            });
        }
    }
}
