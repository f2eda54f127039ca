//! Peak-memory estimation for the RowSGD variants at *paper scale*.
//!
//! The engines in this crate run at laptop-scaled dimensions; the Table V
//! "OOM" determination (MXNet failing on kdd12 FM with F = 50, a 2.8
//! billion-parameter / 21 GB model) is made analytically from these
//! closed forms evaluated at the paper's full-scale parameters against the
//! cluster's per-node memory (32 GB on Cluster 1).
//!
//! Assumptions (documented substitutions, see DESIGN.md):
//! * FP64 parameters (8 bytes/unit), matching the paper's accounting;
//! * masters/servers keep the model plus one aggregation buffer;
//! * dense-pull workers hold the pulled model plus a gradient buffer;
//! * PS engines (both variants) materialize the full parameter block
//!   worker-side during *initialization* (the standard MXNet pattern of
//!   initializing embeddings on a worker and pushing them), with a 2×
//!   peak (buffer + serialization copy) — this is what breaks MXNet at
//!   F=50 on kdd12 while ColumnSGD, which initializes each partition in
//!   place, survives.

use columnsgd_ml::ModelSpec;

use crate::config::RowSgdVariant;

/// Estimated peak bytes per node role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimate {
    /// Master peak bytes.
    pub master: u64,
    /// Per-server peak bytes (0 when the variant has no servers).
    pub server: u64,
    /// Per-worker peak bytes (excluding the data partition, which is
    /// identical across variants).
    pub worker: u64,
}

impl MemoryEstimate {
    /// Whether any node exceeds `node_limit` bytes.
    pub fn exceeds(&self, node_limit: u64) -> bool {
        self.master > node_limit || self.server > node_limit || self.worker > node_limit
    }
}

/// Model parameters in bytes for `spec` over `m` features.
pub fn model_bytes(spec: ModelSpec, m: u64) -> u64 {
    8 * spec.num_params(m)
}

/// Peak-memory estimate for a RowSGD variant at dimension `m` with `k`
/// workers and `p` servers.
pub fn estimate(
    variant: RowSgdVariant,
    spec: ModelSpec,
    m: u64,
    k: usize,
    p: usize,
) -> MemoryEstimate {
    let model = model_bytes(spec, m);
    let _ = k;
    match variant {
        RowSgdVariant::MLlib => MemoryEstimate {
            // Full model + dense gradient aggregation buffer.
            master: 2 * model,
            server: 0,
            // Pulled model + dense gradient.
            worker: 2 * model,
        },
        RowSgdVariant::MLlibStar => MemoryEstimate {
            master: 0,
            server: 0,
            // Local replica + flattened AllReduce buffer.
            worker: 2 * model,
        },
        RowSgdVariant::PsDense => MemoryEstimate {
            master: 0,
            server: model / p as u64 * 2,
            // Full dense pull + init materialization (2× peak).
            worker: 2 * model,
        },
        RowSgdVariant::PsSparse => MemoryEstimate {
            master: 0,
            server: model / p as u64 * 2,
            // Sparse pulls are small, but initialization materializes the
            // full parameter block before pushing (2× peak).
            worker: 2 * model,
        },
    }
}

/// Peak worker memory for ColumnSGD at the same scale: the worker holds
/// only its m/K model partition (initialized in place) plus statistics
/// buffers.
pub fn columnsgd_worker_bytes(spec: ModelSpec, m: u64, k: usize, batch: usize) -> u64 {
    model_bytes(spec, m) / k as u64 + 2 * 8 * (batch * spec.stats_width()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;
    /// Cluster 1 node memory (§V-A: 32 GB per machine).
    const CLUSTER1_NODE: u64 = 32 * GB;

    #[test]
    fn kdd12_fm50_ooms_mxnet_but_not_columnsgd() {
        // Table V, last row: kdd12, F = 50 ⇒ 2.8B parameters, 21 GB FP64.
        let spec = ModelSpec::Fm { factors: 50 };
        let m = 54_686_452u64;
        assert!(model_bytes(spec, m) > 21 * GB);

        let mxnet = estimate(RowSgdVariant::PsSparse, spec, m, 8, 8);
        assert!(
            mxnet.exceeds(CLUSTER1_NODE),
            "MXNet must OOM: worker peak {} GB",
            mxnet.worker / GB
        );

        let col = columnsgd_worker_bytes(spec, m, 8, 1000);
        assert!(col < CLUSTER1_NODE, "ColumnSGD must fit: {} GB", col / GB);
    }

    #[test]
    fn lr_workloads_fit_everywhere() {
        // Table IV workloads (LR) fit in 32 GB on every system.
        for preset_m in [1_000_000u64, 29_890_095, 54_686_452] {
            for v in [
                RowSgdVariant::MLlib,
                RowSgdVariant::MLlibStar,
                RowSgdVariant::PsDense,
                RowSgdVariant::PsSparse,
            ] {
                let e = estimate(v, ModelSpec::Lr, preset_m, 8, 8);
                assert!(!e.exceeds(CLUSTER1_NODE), "{v:?} m={preset_m}");
            }
        }
    }

    #[test]
    fn fm10_on_kdd12_fits_mxnet() {
        // Table V row 3: MXNet runs kdd12 F=10 (0.84 s/iter), so its
        // estimate must fit: 11 × 54.7M × 8 B ≈ 4.8 GB, 2× peak ≈ 9.6 GB.
        let e = estimate(
            RowSgdVariant::PsSparse,
            ModelSpec::Fm { factors: 10 },
            54_686_452,
            8,
            8,
        );
        assert!(!e.exceeds(CLUSTER1_NODE));
    }

    #[test]
    fn columnsgd_memory_shrinks_with_k() {
        let spec = ModelSpec::Fm { factors: 50 };
        let m = 54_686_452u64;
        let k8 = columnsgd_worker_bytes(spec, m, 8, 1000);
        let k40 = columnsgd_worker_bytes(spec, m, 40, 1000);
        assert!(k40 < k8 / 4);
    }
}
