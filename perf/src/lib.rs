//! The repository's benchmark: what one core of a CS2P prediction server
//! delivers to players and operators.
//!
//! `perf-run` is the gated run (end-to-end metrics, no tracing);
//! `perf-layers` is the traced run (per-layer metrics, spans written to
//! `perf/out/trace_<workload>.jsonl`). `README.md` has the reasons.

pub mod check;
pub mod cli;
pub mod gated;
pub mod layers;
pub mod load;
pub mod phases;
pub mod pin;
pub mod reference;
pub mod report;
pub mod selfcheck;
pub mod spec;
pub mod traffic;
pub mod world;
