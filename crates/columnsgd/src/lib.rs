//! Facade crate: one `use columnsgd::prelude::*` for the whole
//! ColumnSGD reproduction.
//!
//! Re-exports every subsystem crate under a stable module name. See the
//! workspace README for the architecture overview.
//!
//! # Quickstart
//!
//! ```
//! use columnsgd::prelude::*;
//!
//! // A sparse synthetic dataset (use columnsgd::data::libsvm for files).
//! let dataset = SynthConfig {
//!     rows: 500,
//!     dim: 2_000,
//!     avg_nnz: 8.0,
//!     seed: 42,
//!     ..SynthConfig::default()
//! }
//! .generate();
//!
//! // Train LR on a simulated 2-worker cluster.
//! let config = ColumnSgdConfig::new(ModelSpec::Lr)
//!     .with_batch_size(64)
//!     .with_iterations(50)
//!     .with_learning_rate(0.5);
//! let mut engine = ColumnSgdEngine::new(
//!     &dataset, 2, config, NetworkModel::CLUSTER1, FailurePlan::none())
//!     .expect("valid failure plan");
//!
//! let outcome = engine.train().expect("no unrecoverable failures");
//! assert!(outcome.curve.final_loss().unwrap() < 0.75);
//!
//! // Communication was statistics-only: 2·K·B·8 payload bytes/iteration,
//! // independent of the 2000-dimensional model.
//! let model = engine.collect_model().expect("collect model");
//! assert_eq!(model.dim(), 2_000);
//! ```

#![warn(missing_docs)]

pub use columnsgd_cluster as cluster;
pub use columnsgd_core as core;
pub use columnsgd_costmodel as costmodel;
pub use columnsgd_data as data;
pub use columnsgd_linalg as linalg;
pub use columnsgd_ml as ml;
pub use columnsgd_rowsgd as rowsgd;

/// Commonly used items in one import: one ColumnSGD engine type
/// (`ColumnSgdEngine`, over a fixed worker set or elastic membership),
/// the RowSGD baselines (`RowSgdEngine`), and the one `TrainOutcome`
/// both return.
pub mod prelude {
    pub use columnsgd_cluster::{
        ChaosSpec, ClusterConfig, Diagnostics, FailurePlan, Monitor, MonitorConfig, NetworkModel,
        SimClock, TrafficStats, TransportKind,
    };
    pub use columnsgd_core::{
        ColumnSgdConfig, ColumnSgdEngine, DetectionMethod, ElasticAction, ElasticConfig,
        ElasticEvent, ElasticLedger, FaultKind, RecoveryEvent, ScalePolicy, TrainError,
        TrainOutcome,
    };
    pub use columnsgd_data::{ColumnPartitioner, Dataset, DatasetPreset, SynthConfig};
    pub use columnsgd_linalg::{CsrMatrix, DenseVector, SparseVector};
    pub use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer, UpdateParams};
    pub use columnsgd_rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};
}
