//! # cs2p-ml — machine-learning substrate for the CS2P reproduction
//!
//! CS2P (Sun et al., SIGCOMM 2016) needs a Hidden Markov Model with
//! Gaussian emissions (its midstream predictor), plus a bench of baseline
//! learners the paper compares against: autoregression, gradient-boosted
//! regression trees, and support vector regression. The Rust ML ecosystem
//! is thin in exactly these areas, so this crate implements them from
//! scratch, self-contained and deterministic:
//!
//! - [`stats`] — means, percentiles, ECDFs;
//! - [`gaussian`] — univariate normal pdf / fitting / sampling;
//! - [`matrix`] — small dense matrices, Gaussian-elimination solve, OLS;
//! - [`hmm`] — the Gaussian-emission HMM: scaled forward–backward,
//!   Baum–Welch EM, k-means init, the Algorithm-1 online filter, and
//!   cross-validated state-count selection;
//! - [`ar`] — AR(p) fitting and the adaptive AR baseline;
//! - [`tree`] / [`gbrt`] — CART regression trees and gradient boosting
//!   (the paper's GBR baseline);
//! - [`svr`] — epsilon-SVR trained by SMO (the paper's SVR baseline).
//!
//! Everything is deterministic given a seed; no global state, no threads.

#![warn(missing_docs)]
// Library crates speak through `cs2p-obs` events, never raw prints
// (binaries are exempt; see OBSERVABILITY.md).
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod ar;
pub mod gaussian;
pub mod gbrt;
pub mod hmm;
pub mod matrix;
pub mod stats;
pub mod svr;
pub mod tree;
