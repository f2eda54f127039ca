//! Sparse and dense linear-algebra primitives for the ColumnSGD reproduction.
//!
//! ColumnSGD (Zhang et al., ICDE 2020) trains generalized linear models and
//! factorization machines over *sparse* high-dimensional data. Every higher
//! layer of this workspace — the data-transformation pipeline, the ML model
//! implementations, and both the row-oriented and column-oriented training
//! frameworks — is built on the types in this crate:
//!
//! * [`SparseVector`]: a sorted index/value representation of one data point
//!   (or one column-partition of a data point),
//! * [`DenseVector`]: the model representation,
//! * [`CsrMatrix`]: Compressed Sparse Row storage for data blocks and
//!   worksets (the paper compresses shuffled worksets with CSR, §IV-A),
//! * kernel functions in [`ops`] (dot products, axpy, norms) that implement
//!   the "statistics" computations at the heart of the vertical-parallel
//!   strategy, and [`ops::prefetch`], the workspace's one `unsafe` block,
//!   which the gather-bound kernels use to read memory ahead,
//! * deterministic RNG helpers in [`rng`] so every experiment in the
//!   reproduction is seed-stable.
//!
//! All floating-point math is `f64`, matching the paper's FP64 model-size
//! accounting ("2.8 billion parameters … 21GB in FP64", §V-B).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod csr;
pub mod dense;
pub mod ops;
pub mod rng;
pub mod sparse;

pub use csr::CsrMatrix;
pub use dense::DenseVector;
pub use sparse::SparseVector;

/// The index type used for feature dimensions.
///
/// The paper evaluates models up to 2.8 billion parameters (kdd12 FM with
/// F = 50), which overflows `u32`; we use `u64` end to end.
pub type FeatureIndex = u64;

/// The value type used throughout the workspace.
pub type Value = f64;
