//! Datasets, storage, and the row-to-column transformation of ColumnSGD.
//!
//! The paper's training data lives in HDFS as row-oriented LIBSVM text and
//! is transformed into column-partitioned worksets on load (§IV-A). This
//! crate provides every piece of that pipeline:
//!
//! * [`libsvm`]: a streaming LIBSVM text parser/writer,
//! * [`meta`]: the dataset statistics of Table II and named presets,
//! * [`synth`]: synthetic sparse dataset generators that stand in for
//!   avazu / kddb / kdd12 / criteo / WX (which we do not have; the
//!   generators match their instance/feature/sparsity profiles at a
//!   configurable scale),
//! * [`dataset`]: the in-memory row-oriented [`Dataset`],
//! * [`block`]: the master-side [`BlockQueue`] of row blocks (§IV-A, Fig 5),
//! * [`partition`]: column partitioners mapping feature → (worker, slot),
//! * [`workset`]: block → workset splitting, both the block-based CSR
//!   scheme and the naive row-at-a-time scheme it is compared against
//!   (Fig 7), plus the per-worker [`WorksetStore`],
//! * [`index`]: the two-phase (block, offset) sampling index (§IV-A2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod block;
pub mod dataset;
pub mod index;
pub mod libsvm;
pub mod meta;
pub mod partition;
pub mod synth;
pub mod workset;

pub use block::{Block, BlockId, BlockQueue};
pub use dataset::Dataset;
pub use index::TwoPhaseIndex;
pub use meta::{DatasetMeta, DatasetPreset};
pub use partition::ColumnPartitioner;
pub use synth::SynthConfig;
pub use workset::{Workset, WorksetStore};
