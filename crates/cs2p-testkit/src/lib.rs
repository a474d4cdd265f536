//! Test support shared by every crate in the workspace.
//!
//! Three pillars, mirroring how the test suite is organized (see
//! TESTING.md at the repository root):
//!
//! - [`scenarios`]: deterministic scenario builders — fixed-seed synthetic
//!   worlds, canned datasets with stable train/test splits, pre-trained
//!   reference models. Two calls with the same arguments produce
//!   identical values on every platform and every run.
//! - [`golden`]: a golden-fixture regression harness. Serialized models
//!   and prediction traces are compared against JSON files checked in
//!   under `crates/cs2p-testkit/fixtures/`; set `UPDATE_GOLDEN=1` to
//!   regenerate them.
//! - [`invariants`]: reusable assertions for properties that many crates
//!   care about — thread-count independence of training, model-bundle
//!   round-trips, simulator determinism, concurrency-transparency of the
//!   prediction server.
//! - [`loadgen`]: the one deterministic load driver — K client threads
//!   with seeded per-session workloads against a running `cs2p-net`
//!   server, in singleton or batch frames (see TESTING.md).
//! - [`faults`]: deterministic fault injection — a seeded [`faults::FaultPlan`]
//!   transport wrapper (resets, truncation, corruption, dribbling,
//!   injected delay), [`faults::run_chaos`], which runs the loadgen
//!   driver with fault plans, forced store evictions and resends as its
//!   input for the chaos soak suites, and [`faults::assert_recovered`],
//!   the recovery rules every chaos run is held to.
//! - [`crash`]: the durability crash harness — a seeded [`crash::CrashPlan`]
//!   killing (or tearing) the WAL at exact commit points, and the
//!   [`crash::TempDir`] scratch directory the recovery suites persist
//!   into (copied with [`crash::copy_dir`]).
//!
//! This crate is a dev-dependency of the library crates; production code
//! must never depend on it. Harness crates (`cs2p-eval`'s `chaos-bench`)
//! may use [`faults`] directly — it is test infrastructure either way.

pub mod crash;
pub mod faults;
pub mod golden;
pub mod invariants;
pub mod loadgen;
pub mod scenarios;

pub use golden::{check_golden, check_golden_value};
pub use scenarios::TrainedScenario;
