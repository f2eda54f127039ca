//! Models, losses, and optimizers for the ColumnSGD reproduction.
//!
//! The paper trains four model families with SGD — logistic regression
//! (LR), support vector machines (SVM), multinomial logistic regression
//! (MLR), and degree-2 factorization machines (FM); its appendix §VIII
//! derives, for each, the *statistics* whose column-wise decomposition
//! makes the vertical-parallel strategy work. This crate implements both
//! computation paths for every model:
//!
//! * the **vertical path** (ColumnSGD): [`ModelSpec::compute_stats`] on a
//!   column partition, element-wise aggregation, and
//!   [`ModelSpec::update_from_stats`] from the aggregated statistics;
//! * the **horizontal path** (RowSGD): [`ModelSpec::row_gradient`] /
//!   [`ModelSpec::apply_gradient`] against a full model.
//!
//! A [`serial`] trainer provides the single-machine reference
//! implementation: tests across the workspace verify that both distributed
//! paths compute bit-compatible updates to it.
//!
//! Pluggable [`optimizer`]s (plain SGD, AdaGrad, Adam — the variants the
//! paper names in §III-A) and [`regularizer`]s complete the training
//! stack.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod fm;
pub mod glm;
pub mod metrics;
pub mod mlr;
pub mod optimizer;
pub mod params;
pub mod regularizer;
pub mod serial;
pub mod spec;

pub use optimizer::{OptimizerKind, OptimizerState};
pub use params::{ParamSet, SparseGrad, UpdateParams};
pub use regularizer::Regularizer;
pub use spec::{GradSink, ModelSpec, SparseAccum, UpdateScratch};
