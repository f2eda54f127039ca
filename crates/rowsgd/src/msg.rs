//! The RowSGD wire protocol (all four variants share one message enum).

use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::{ParamSet, SparseGrad};

/// Messages exchanged between the RowSGD master/servers and workers.
#[derive(Debug, Clone)]
pub enum RowMsg {
    /// Master → worker: the worker's horizontal data partition
    /// (Algorithm 2 `loadData`; carrying the rows models the HDFS read).
    LoadRows(CsrMatrix),
    /// Worker → master: partition loaded.
    LoadAck {
        /// Reporting worker.
        worker: usize,
    },
    /// Master/servers → worker: the full dense model; compute a gradient
    /// (MLlib pull / Petuum dense pull + Algorithm 2 `computeGradients`).
    FullModelGrad {
        /// Iteration number.
        iteration: u64,
        /// The complete model.
        params: ParamSet,
    },
    /// Master → worker (PsSparse step 1): report the feature indices your
    /// batch needs.
    RequestIndices {
        /// Iteration number.
        iteration: u64,
    },
    /// Worker → servers (PsSparse): the distinct indices of the local
    /// batch.
    IndicesReply {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Sorted distinct feature indices.
        indices: Vec<u64>,
        /// Measured local compute seconds (sampling + index extraction).
        compute_s: f64,
    },
    /// Servers → worker (PsSparse step 2): the pulled model values, laid
    /// out like a sparse gradient (indices + per-block values).
    SparseModelGrad {
        /// Iteration number.
        iteration: u64,
        /// Pulled `(index, values…)` records.
        values: SparseGrad,
    },
    /// Worker → master/servers: a sparse gradient (PS push).
    GradReplySparse {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Summed (unaveraged) local-batch gradient.
        grad: SparseGrad,
        /// Local batch loss before the update.
        loss: f64,
        /// Measured local compute seconds.
        compute_s: f64,
    },
    /// Worker → master: a dense gradient (MLlib's `treeAggregate`
    /// materializes dense vectors).
    GradReplyDense {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Summed (unaveraged) local-batch gradient, dense layout.
        grad: ParamSet,
        /// Local batch loss before the update.
        loss: f64,
        /// Measured local compute seconds.
        compute_s: f64,
    },
    /// Master → worker (MLlib*): take one local SGD step, then
    /// ring-average the replicas.
    LocalStep {
        /// Iteration number.
        iteration: u64,
    },
    /// Worker ↔ worker (MLlib* ring AllReduce): one chunk exchange.
    RingChunk {
        /// 0 = reduce-scatter, 1 = all-gather.
        phase: u8,
        /// Ring step within the phase.
        step: u32,
        /// The chunk payload.
        data: Vec<f64>,
    },
    /// Worker → master (MLlib*): local step + averaging finished.
    StepDone {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Local batch loss before the update.
        loss: f64,
        /// Measured local compute seconds.
        compute_s: f64,
    },
    /// Master → worker: send back your model replica (MLlib* inspection).
    FetchModel,
    /// Worker → master: the model replica.
    ModelReply {
        /// Reporting worker.
        worker: usize,
        /// The replica.
        params: ParamSet,
    },
    /// Master → worker: shut down.
    Shutdown,
}

impl RowMsg {
    /// Short name of the message variant (telemetry `CommRecord` kind).
    pub fn name(&self) -> &'static str {
        match self {
            RowMsg::LoadRows(..) => "LoadRows",
            RowMsg::LoadAck { .. } => "LoadAck",
            RowMsg::FullModelGrad { .. } => "FullModelGrad",
            RowMsg::RequestIndices { .. } => "RequestIndices",
            RowMsg::IndicesReply { .. } => "IndicesReply",
            RowMsg::SparseModelGrad { .. } => "SparseModelGrad",
            RowMsg::GradReplySparse { .. } => "GradReplySparse",
            RowMsg::GradReplyDense { .. } => "GradReplyDense",
            RowMsg::LocalStep { .. } => "LocalStep",
            RowMsg::RingChunk { .. } => "RingChunk",
            RowMsg::StepDone { .. } => "StepDone",
            RowMsg::FetchModel => "FetchModel",
            RowMsg::ModelReply { .. } => "ModelReply",
            RowMsg::Shutdown => "Shutdown",
        }
    }
}
