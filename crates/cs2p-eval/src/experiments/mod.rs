//! One module per group of paper experiments. See DESIGN.md's
//! per-experiment index for the id ↔ table/figure mapping.

pub mod ablations;
pub mod chaos_bench;
pub mod dataset_figs;
pub mod degradation_bench;
pub mod obs_overhead;
pub mod persist_bench;
pub mod pilot;
pub mod prediction;
pub mod qoe;
pub mod refresh_bench;
pub mod sens;
pub mod serve_bench;
pub mod trace_report;
