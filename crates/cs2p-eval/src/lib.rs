//! # cs2p-eval — the experiment harness
//!
//! One driver per table and figure of the paper's evaluation (§7), all
//! running over the synthetic world of `cs2p-trace` with the engine and
//! baselines of `cs2p-core`:
//!
//! | id | paper item | function |
//! |----|-----------|----------|
//! | `table1` | Table 1 | [`experiments::qoe::table1`] |
//! | `fig2` | Figure 2 | [`experiments::qoe::fig2`] |
//! | `fig3`/`table2` | Figure 3 / Table 2 | [`experiments::dataset_figs::dataset_report`] |
//! | `obs1` | Observation 1 | [`experiments::dataset_figs::obs1`] |
//! | `fig4` | Figure 4 | [`experiments::dataset_figs::fig4`] |
//! | `fig5` | Figure 5 | [`experiments::dataset_figs::fig5`] |
//! | `fig6` | Figure 6 | [`experiments::dataset_figs::fig6`] |
//! | `fig8` | Figure 8 | [`experiments::prediction::fig8`] |
//! | `fig9a` | Figure 9a | [`experiments::prediction::fig9a`] |
//! | `fig9b` | Figure 9b | [`experiments::prediction::fig9b`] |
//! | `fig9c` | Figure 9c | [`experiments::prediction::fig9c`] |
//! | `fcc` | §7.2 FCC | [`experiments::prediction::fcc`] |
//! | `qoe-mid` | §7.3 | [`experiments::qoe::qoe_mid`] |
//! | `qoe-init` | §7.3 | [`experiments::qoe::qoe_init`] |
//! | `sens` | §7.4 | [`experiments::sens::sens`] |
//! | `pilot` | §7.5 | [`experiments::pilot::pilot`] |
//! | `ablations` | DESIGN.md's design choices, §5.3 FastMPC | [`experiments::ablations::ablations`] |
//!
//! The `cs2p-eval` binary runs any of them by id.

#![warn(missing_docs)]
// Library crates speak through `cs2p-obs` events, never raw prints
// (binaries are exempt; see OBSERVABILITY.md).
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod context;
pub mod experiments;
pub mod runner;

pub use context::{EvalConfig, Materials};
