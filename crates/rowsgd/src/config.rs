//! RowSGD configuration.

use columnsgd_ml::{ModelSpec, OptimizerKind, UpdateParams};

/// Which RowSGD system to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSgdVariant {
    /// Spark MLlib: single master, dense model broadcast + dense gradient
    /// aggregation (Algorithm 2).
    MLlib,
    /// MLlib* \[26\]: model averaging with ring AllReduce.
    MLlibStar,
    /// Petuum-style parameter server: dense pull, sparse push.
    PsDense,
    /// MXNet-style parameter server: sparse pull, sparse push.
    PsSparse,
}

impl RowSgdVariant {
    /// Human-readable label used in experiment output (paper naming).
    pub fn label(&self) -> &'static str {
        match self {
            RowSgdVariant::MLlib => "MLlib",
            RowSgdVariant::MLlibStar => "MLlib*",
            RowSgdVariant::PsDense => "Petuum",
            RowSgdVariant::PsSparse => "MXNet",
        }
    }
}

/// Full configuration of a RowSGD training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSgdConfig {
    /// The model to train.
    pub model: ModelSpec,
    /// Global mini-batch size B (each of the K workers samples B/K rows).
    pub batch_size: usize,
    /// Number of training iterations T.
    pub iterations: u64,
    /// Learning rate and regularization.
    pub update: UpdateParams,
    /// SGD variant.
    pub optimizer: OptimizerKind,
    /// Experiment seed.
    pub seed: u64,
    /// Which RowSGD system to emulate.
    pub variant: RowSgdVariant,
    /// Master receive deadline in wall-clock milliseconds. RowSGD is the
    /// baseline, not the subject of the fault-tolerance study, so it does
    /// not recover — but a silent worker must surface as a typed
    /// `TrainError` within this bound, never as a hang.
    pub deadline_ms: u64,
}

impl RowSgdConfig {
    /// Defaults mirroring `ColumnSgdConfig` (columnsgd-core): B = 1000,
    /// plain SGD, η = 0.1, 100 iterations.
    pub fn new(model: ModelSpec, variant: RowSgdVariant) -> Self {
        Self {
            model,
            batch_size: 1000,
            iterations: 100,
            update: UpdateParams::plain(0.1),
            optimizer: OptimizerKind::Sgd,
            seed: 42,
            variant,
            deadline_ms: 30_000,
        }
    }

    /// Builder-style master receive deadline (milliseconds).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Builder-style batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Builder-style iteration count.
    pub fn with_iterations(mut self, t: u64) -> Self {
        self.iterations = t;
        self
    }

    /// Builder-style learning rate.
    pub fn with_learning_rate(mut self, eta: f64) -> Self {
        self.update.learning_rate = eta;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A stable FNV-1a fingerprint of the full configuration — the
    /// baseline-side analogue of `ColumnSgdConfig::fingerprint`, stamped
    /// on telemetry traces.
    pub fn fingerprint(&self) -> u64 {
        columnsgd_cluster::telemetry::fnv::hash_bytes(format!("{self:?}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(RowSgdVariant::MLlib.label(), "MLlib");
        assert_eq!(RowSgdVariant::MLlibStar.label(), "MLlib*");
        assert_eq!(RowSgdVariant::PsDense.label(), "Petuum");
        assert_eq!(RowSgdVariant::PsSparse.label(), "MXNet");
    }
}
