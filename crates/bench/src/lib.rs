//! Benchmark harness for the ColumnSGD reproduction.
//!
//! The [`experiments`] module contains one entry per table and figure of
//! the paper's evaluation (§V); the `repro` binary dispatches to them:
//!
//! ```text
//! cargo run --release -p columnsgd-bench --bin repro -- <experiment> [scale]
//! cargo run --release -p columnsgd-bench --bin repro -- all
//! ```
//!
//! Experiments run on synthetic datasets matching the Table II statistical
//! profiles at a configurable scale (see `columnsgd-data`'s `synth`
//! module and DESIGN.md §1 for the substitution rationale). Every report
//! prints an aligned text table — the same rows/series the paper reports —
//! and carries a JSON value for EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod experiments;
pub mod report;

pub use report::Report;
