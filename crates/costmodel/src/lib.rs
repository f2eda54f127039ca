//! The analytic cost model of §III-B (Table I of the paper).
//!
//! Closed-form memory and communication overheads of RowSGD and ColumnSGD
//! as functions of the workload parameters. Quantities are in *units*
//! (f64 model/statistics/data elements, as in the paper's table); multiply
//! by [`BYTES_PER_UNIT`] for bytes.
//!
//! | role              | RowSGD            | ColumnSGD            |
//! |-------------------|-------------------|----------------------|
//! | master memory     | `m + m·φ₂`        | `B`                  |
//! | worker memory     | `S/K + 2m·φ₁`     | `S/K + 2B + m/K`     |
//! | master comm       | `2K·m·φ₁`         | `2K·B`               |
//! | worker comm       | `2m·φ₁`           | `2B`                 |
//!
//! with `φ₁ = 1 − ρ^(B/K)` (expected fraction of dimensions that are
//! nonzero in a batch of B/K points) and `φ₂ = 1 − ρ^B`, `ρ` the data
//! sparsity, `S = N + N·m·(1−ρ)` the training-data size, per §III-B1.
//!
//! For fully connected layers (§III-C), [`fc_layer_sync_floats`] lists the
//! per-layer synchronisation rounds of one iteration: every layer's width
//! takes the place of the GLM's statistics width of 1, so the volume is
//! still free of m but grows with the hidden widths.
//!
//! These formulas are cross-validated against the *metered* traffic of the
//! actual engines in the integration tests of the core and rowsgd crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Bytes per unit (FP64, as the paper assumes: "2.8 billion parameters
/// (which is 21GB in FP64)").
pub const BYTES_PER_UNIT: f64 = 8.0;

/// Workload parameters of the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Model dimension m.
    pub m: f64,
    /// Batch size B.
    pub b: f64,
    /// Number of workers K.
    pub k: f64,
    /// Data sparsity ρ ∈ [0, 1) — fraction of zeros.
    pub rho: f64,
    /// Number of training points N.
    pub n: f64,
    /// Statistics width per data point (1 for GLMs, C for MLR, F+1 for FM).
    pub stats_width: f64,
}

impl Workload {
    /// A GLM workload (statistics width 1).
    pub fn glm(m: u64, b: usize, k: usize, rho: f64, n: u64) -> Self {
        Self {
            m: m as f64,
            b: b as f64,
            k: k as f64,
            rho,
            n: n as f64,
            stats_width: 1.0,
        }
    }

    /// An FM workload with F factors (statistics width F+1; model size
    /// m·(F+1)).
    pub fn fm(m: u64, b: usize, k: usize, rho: f64, n: u64, factors: usize) -> Self {
        Self {
            m: m as f64 * (factors as f64 + 1.0),
            b: b as f64,
            k: k as f64,
            rho,
            n: n as f64,
            stats_width: factors as f64 + 1.0,
        }
    }

    /// φ₁ = 1 − ρ^(B/K): expected nonzero fraction in one worker's batch.
    pub fn phi1(&self) -> f64 {
        1.0 - self.rho.powf(self.b / self.k)
    }

    /// φ₂ = 1 − ρ^B: expected nonzero fraction in the whole batch.
    pub fn phi2(&self) -> f64 {
        1.0 - self.rho.powf(self.b)
    }

    /// Training-data size S = N + N·m·(1−ρ) (labels + nonzeros, §III-B1).
    pub fn data_size(&self) -> f64 {
        self.n + self.n * self.m * (1.0 - self.rho)
    }
}

/// Memory and communication overheads of one system, in units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Master (or per-server aggregate) memory.
    pub master_memory: f64,
    /// Per-worker memory.
    pub worker_memory: f64,
    /// Master communication per iteration.
    pub master_comm: f64,
    /// Per-worker communication per iteration.
    pub worker_comm: f64,
}

/// Table I, RowSGD column.
pub fn rowsgd(w: &Workload) -> Overheads {
    let phi1 = w.phi1();
    let phi2 = w.phi2();
    Overheads {
        master_memory: w.m + w.m * phi2,
        worker_memory: w.data_size() / w.k + 2.0 * w.m * phi1,
        master_comm: 2.0 * w.k * w.m * phi1,
        worker_comm: 2.0 * w.m * phi1,
    }
}

/// Table I, ColumnSGD column (statistics width generalizes the GLM `B`
/// entries to `width·B`, per §III-C).
pub fn columnsgd(w: &Workload) -> Overheads {
    let stats = w.stats_width * w.b;
    Overheads {
        master_memory: stats,
        worker_memory: w.data_size() / w.k + 2.0 * stats + w.m / w.k,
        master_comm: 2.0 * w.k * stats,
        worker_comm: 2.0 * stats,
    }
}

/// RowSGD with *dense pull*, the behaviour of MLlib and Petuum: "in each
/// iteration MXNet only pulls the dimensions that are needed, whereas MLlib
/// and Petuum have to pull all dimensions" (§V-B2). Each worker pulls the
/// full m-dimensional model and pushes an mφ₁-sparse gradient.
///
/// Table I itself gives the sparse-pull idealization ([`rowsgd`]); this
/// variant is what the measured Table IV speedups (930× over MLlib, 63×
/// over Petuum) stem from.
pub fn rowsgd_dense_pull(w: &Workload) -> Overheads {
    let phi1 = w.phi1();
    let phi2 = w.phi2();
    Overheads {
        master_memory: w.m + w.m * phi2,
        worker_memory: w.data_size() / w.k + w.m + w.m * phi1,
        master_comm: w.k * (w.m + w.m * phi1),
        worker_comm: w.m + w.m * phi1,
    }
}

/// Floats of each per-layer synchronisation round of one iteration of an
/// MLP whose FC weight matrices are partitioned by input rows (§III-C),
/// in the order they run: forward aggregates `B·h₁ … B·h_L` and `B·1` for
/// the scalar output, then backward delta all-gathers `B·h_L … B·h₁`.
///
/// Each round is gathered at the master and broadcast back, so a worker
/// ships `2·Σ` of these floats per iteration — independent of the input
/// dimension m, proportional to the hidden widths: the paper's caveat that
/// ColumnSGD is "not very beneficial" for narrow layers.
pub fn fc_layer_sync_floats(batch: usize, hidden: &[usize]) -> Vec<u64> {
    let forward = hidden.iter().chain(&[1]);
    let backward = hidden.iter().rev();
    forward
        .chain(backward)
        .map(|&width| (batch * width) as u64)
        .collect()
}

/// The per-iteration communication ratio RowSGD/ColumnSGD at the master
/// under the Table I (sparse-pull) idealization.
pub fn master_comm_ratio(w: &Workload) -> f64 {
    rowsgd(w).master_comm / columnsgd(w).master_comm
}

/// The same ratio against dense-pull RowSGD (MLlib/Petuum) — the headline
/// speedup driver: its numerator grows with m while its denominator depends
/// only on B (and K).
pub fn dense_pull_comm_ratio(w: &Workload) -> f64 {
    rowsgd_dense_pull(w).master_comm / columnsgd(w).master_comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kdd12ish() -> Workload {
        // m = 54.7M, B = 1000, K = 8, ~11 nnz of 54.7M dims.
        let m = 54_686_452u64;
        let rho = 1.0 - 11.0 / m as f64;
        Workload::glm(m, 1000, 8, rho, 149_639_105)
    }

    #[test]
    fn phi_bounds() {
        let w = kdd12ish();
        assert!(w.phi1() > 0.0 && w.phi1() < 1.0);
        assert!(w.phi2() >= w.phi1());
        // Dense data: phi = 1.
        let dense = Workload::glm(100, 10, 2, 0.0, 1000);
        assert_eq!(dense.phi1(), 1.0);
        assert_eq!(dense.phi2(), 1.0);
    }

    #[test]
    fn columnsgd_comm_independent_of_model_size() {
        let mut w = kdd12ish();
        let c1 = columnsgd(&w);
        w.m *= 1000.0;
        let c2 = columnsgd(&w);
        assert_eq!(c1.master_comm, c2.master_comm);
        assert_eq!(c1.worker_comm, c2.worker_comm);
    }

    #[test]
    fn dense_pull_comm_grows_with_model_size() {
        let mut w = Workload::glm(1_000_000, 1000, 8, 0.9999, 1_000_000);
        let r1 = rowsgd_dense_pull(&w);
        w.m *= 10.0;
        // Keep per-point nnz comparable by raising sparsity accordingly.
        w.rho = 1.0 - (1.0 - 0.9999) / 10.0;
        let r2 = rowsgd_dense_pull(&w);
        assert!(r2.master_comm > r1.master_comm * 5.0);
    }

    #[test]
    fn sparse_pull_comm_tracks_batch_nnz_not_m() {
        // Table I's sparse-pull RowSGD: with fixed nnz/row, mφ₁ ≈ batch
        // nnz, so master comm barely moves when m grows 10×.
        let w1 = Workload::glm(1_000_000, 1000, 8, 0.9999, 1_000_000);
        let mut w2 = w1;
        w2.m *= 10.0;
        w2.rho = 1.0 - (1.0 - w1.rho) / 10.0;
        let (r1, r2) = (rowsgd(&w1), rowsgd(&w2));
        assert!((r2.master_comm / r1.master_comm - 1.0).abs() < 0.05);
    }

    #[test]
    fn columnsgd_wins_big_models_rowsgd_wins_tiny_ones() {
        // kdd12 scale vs the dense-pull systems: ColumnSGD ≫ cheaper —
        // the regime behind the 930×/63× Table IV speedups.
        assert!(dense_pull_comm_ratio(&kdd12ish()) > 1_000.0);
        // Even vs the sparse-pull idealization it still wins there.
        assert!(master_comm_ratio(&kdd12ish()) > 1.0);
        // Tiny model (criteo m=39, dense): RowSGD comm is smaller.
        let tiny = Workload::glm(39, 1000, 8, 0.0, 45_840_617);
        assert!(master_comm_ratio(&tiny) < 1.0);
        assert!(dense_pull_comm_ratio(&tiny) < 1.0);
    }

    #[test]
    fn master_memory_offloaded_in_columnsgd() {
        let w = kdd12ish();
        let r = rowsgd(&w);
        let c = columnsgd(&w);
        assert!(c.master_memory < r.master_memory / 1000.0);
        // Workers pay m/K for the model partition instead.
        assert!(c.worker_memory > w.data_size() / w.k);
    }

    #[test]
    fn fm_scales_stats_and_model() {
        let glm = Workload::glm(1_000_000, 1000, 8, 0.9999, 10_000_000);
        let fm = Workload::fm(1_000_000, 1000, 8, 0.9999, 10_000_000, 10);
        let c_glm = columnsgd(&glm);
        let c_fm = columnsgd(&fm);
        // FM ships (F+1)× more statistics…
        assert_eq!(c_fm.worker_comm, 11.0 * c_glm.worker_comm);
        // …but stays independent of the (11× larger) model.
        assert_eq!(c_fm.master_comm, 2.0 * 8.0 * 11.0 * 1000.0);
    }

    #[test]
    fn fm50_on_kdd12_exceeds_21gb_model() {
        // The paper: F=50 on kdd12 gives >2.8B parameters, 21 GB in FP64.
        let w = Workload::fm(54_686_452, 1000, 8, 0.999_999, 149_639_105, 50);
        let params_bytes = w.m * BYTES_PER_UNIT;
        assert!(params_bytes > 21e9, "model bytes {params_bytes}");
    }

    #[test]
    fn fc_layer_rounds_in_run_order() {
        // forward 64, 32, output 1; backward deltas 32, 64.
        assert_eq!(fc_layer_sync_floats(1, &[64, 32]), vec![64, 32, 1, 32, 64]);
        // Both directions of every round, per data point.
        let per_point = |hidden: &[usize]| 2 * fc_layer_sync_floats(1, hidden).iter().sum::<u64>();
        assert_eq!(per_point(&[16]), 66);
        assert_eq!(per_point(&[64, 32]), 2 * (97 + 96));
    }

    #[test]
    fn fc_layer_floats_grow_with_width() {
        let total = |h: usize| fc_layer_sync_floats(32, &[h]).iter().sum::<u64>();
        assert!(total(64) > 4 * total(8), "{} vs {}", total(8), total(64));
    }

    proptest! {
        #[test]
        fn fc_layer_floats_linear_in_batch_and_free_of_m(
            b in 1usize..4096,
            hidden in prop::collection::vec(1usize..2048, 1..5),
            m in 1u64..1 << 40,
            k in 1usize..64,
        ) {
            let unit = fc_layer_sync_floats(1, &hidden);
            let rounds = fc_layer_sync_floats(b, &hidden);
            let scaled: Vec<u64> = unit.iter().map(|f| f * b as u64).collect();
            prop_assert_eq!(&rounds, &scaled);
            // Table I with statistics width Σ widths: ColumnSGD's worker
            // comm is the same 2·Σ rounds for every model dimension m.
            let w = Workload {
                stats_width: unit.iter().sum::<u64>() as f64,
                ..Workload::glm(m, b, k, 0.5, 1_000)
            };
            let total = 2 * rounds.iter().sum::<u64>();
            prop_assert_eq!(columnsgd(&w).worker_comm, total as f64);
        }
    }

    #[test]
    fn worker_memory_includes_data_share() {
        let w = kdd12ish();
        // Both paradigms store S/K of data per worker.
        let share = w.data_size() / w.k;
        assert!(rowsgd(&w).worker_memory >= share);
        assert!(columnsgd(&w).worker_memory >= share);
    }
}
