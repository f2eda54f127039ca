//! The ColumnSGD framework — the paper's primary contribution.
//!
//! ColumnSGD partitions **both the training data and the model by columns**
//! with the same partitioning scheme, collocating each model partition with
//! the data partition covering the same features (Figure 1b). Training then
//! follows Algorithm 3:
//!
//! 1. every worker computes *partial statistics* from its local data and
//!    model partitions (`computeStatistics`),
//! 2. the master aggregates them element-wise and broadcasts the result
//!    (`reduceStatistics`),
//! 3. every worker recovers the gradient for its own columns from the
//!    aggregated statistics and updates its local model partition
//!    (`updateModel`) — **no gradient or model ever crosses the network**.
//!
//! This crate implements the full framework on the message-passing runtime
//! of `columnsgd-cluster`:
//!
//! * [`config`]: training configuration ([`ColumnSgdConfig`]),
//! * [`msg`]: the wire protocol between master and workers,
//! * [`worker`]: the worker node — workset storage, two-phase-index batch
//!   sampling, statistics computation, local model updates, S-backup
//!   replica groups,
//! * [`engine`]: the master/driver, [`ColumnSgdEngine`] — block-based
//!   column dispatch (§IV-A), the BSP training loop, straggler recovery
//!   via backup computation (§IV-B), and detection-based recovery from
//!   the failures of §X, over a fixed worker set,
//! * [`elastic`]: the same engine over elastic membership — workers join,
//!   leave and crash mid-run, shards migrate, stragglers are raced,
//! * [`error`]: typed training errors ([`TrainError`]) and the
//!   recovery-event log ([`RecoveryEvent`]),
//! * [`runtime`]: the message-generic master runtime the engine and the
//!   RowSGD baselines share — worker host, mailbox, slot barrier,
//!   superstep tail.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
// Panic hygiene: master/worker message loops and recovery paths surface
// failures as typed errors, never panics (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod codec;
pub mod config;
pub mod elastic;
pub mod engine;
pub mod error;
pub mod host;
mod master;
pub mod msg;
pub mod pool;
pub mod runtime;
pub mod worker;

pub use config::{ColumnSgdConfig, PartitionScheme};
pub use elastic::{ElasticAction, ElasticConfig, ElasticEvent, ElasticLedger, ScalePolicy};
pub use engine::{ColumnSgdEngine, TrainOutcome};
pub use error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
pub use master::LoadReport;
pub use pool::WorkerPool;
