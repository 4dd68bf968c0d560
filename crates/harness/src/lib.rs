//! # iqpaths-harness — parallel deterministic experiment engine
//!
//! The reproduction's evaluation is a matrix: scenario × CDF backend ×
//! fault schedule × seed × workload. This crate turns that matrix into
//! data and runs it:
//!
//! * [`sweeps`] — declarative [`sweeps::SweepSpec`]s mirroring the
//!   paper's tables/figures, expanded into independent
//!   [`cell::CellSpec`]s.
//! * [`cell`] — the cell model: canonical identity, per-cell seeds
//!   derived by the same salted-splitmix64 discipline as
//!   `iqpaths_simnet::fault` (so a cell is bit-identical whether run
//!   serially, rayon-parallel, or alone), and the machine-readable
//!   [`cell::CellResult`].
//! * [`runner`] — spec → result execution, ported 1:1 from the
//!   `iqpaths-bench` binaries.
//! * [`engine`] — rayon-parallel execution with an on-disk result
//!   cache keyed by spec + code version: re-runs execute only changed
//!   cells.
//! * [`report`] — results → markdown tables, patched into
//!   `EXPERIMENTS.md` between `<!-- BEGIN GENERATED: … -->` markers
//!   (with a `--check` drift gate for CI) plus `target/experiments/`
//!   CSVs.
//! * [`cache`] / [`json`] — the persistence substrate (hand-rolled
//!   canonical JSON; the workspace has no serialization dependency).
//!
//! The `harness` binary is the user entry point:
//!
//! ```sh
//! cargo run --release -p iqpaths-harness --bin harness -- list
//! cargo run --release -p iqpaths-harness --bin harness -- sweep --sweep all
//! cargo run --release -p iqpaths-harness --bin harness -- report --check
//! ```
//!
//! Determinism rules (pinned by `tests/determinism.rs`):
//!
//! 1. A cell's behaviour is a pure function of its [`cell::CellSpec`].
//! 2. Cells never read ambient state (env, wall clock, global RNG).
//! 3. The executed seed is always the *derived* seed, never the raw
//!    axis seed — decorrelating cells that share an axis seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cell;
pub mod engine;
pub mod json;
pub mod report;
pub mod runner;
pub mod sched_bench;
pub mod sched_ref;
pub mod sweeps;

pub use cell::{CellKind, CellResult, CellSpec};
pub use engine::{run_sweep, EngineOpts, SweepOutcome};
pub use sweeps::{all_sweeps, sweep_by_name, SweepSpec};
