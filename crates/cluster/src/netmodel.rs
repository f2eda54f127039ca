//! The network cost model: metered bytes → simulated seconds.
//!
//! §III-B2 of the paper observes exactly the two regimes this model
//! produces: "When the batch size is small, the communication cost per
//! iteration is dominated by the network latency. However, when the batch
//! size is large, the communication cost is more affected by network
//! bandwidth." A transfer of `n` bytes costs `latency + n / bandwidth`.

/// Latency/bandwidth model of one network link, plus the fixed per-round
/// scheduling overhead of the driver (Spark task launch, which the paper
/// cites to explain why MXNet beats ColumnSGD on avazu: "perhaps due to the
/// scheduling latency in Spark", §V-B2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-superstep scheduling overhead at the master, in seconds.
    pub scheduling_overhead_s: f64,
    /// CPU cores per worker machine — the default size of the worker-local
    /// kernel thread pool when `threads_per_worker` is left at auto.
    pub cores: usize,
}

impl NetworkModel {
    /// The paper's Cluster 1: 8 machines, 2 CPUs, 32 GB, 1 Gbps.
    /// Spark-era task scheduling costs a few tens of milliseconds.
    pub const CLUSTER1: NetworkModel = NetworkModel {
        latency_s: 0.000_5,
        bandwidth_bytes_per_s: 125_000_000.0, // 1 Gbps
        scheduling_overhead_s: 0.05,
        cores: 2,
    };

    /// The paper's Cluster 2: 40 machines, 8 CPUs, 50 GB, 10 Gbps.
    pub const CLUSTER2: NetworkModel = NetworkModel {
        latency_s: 0.000_1,
        bandwidth_bytes_per_s: 1_250_000_000.0, // 10 Gbps
        scheduling_overhead_s: 0.05,
        cores: 8,
    };

    /// An idealized instantaneous network (for correctness-only tests).
    pub const INSTANT: NetworkModel = NetworkModel {
        latency_s: 0.0,
        bandwidth_bytes_per_s: f64::INFINITY,
        scheduling_overhead_s: 0.0,
        cores: 1,
    };

    /// Time for one point-to-point transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// This model's per-link pricing, in telemetry's vocabulary (recorded
    /// on traces so modeled comm times can be re-derived offline).
    pub fn link_pricing(&self) -> columnsgd_telemetry::LinkPricing {
        columnsgd_telemetry::LinkPricing {
            latency_s: self.latency_s,
            bandwidth_bytes_per_s: self.bandwidth_bytes_per_s,
        }
    }

    /// Time for a gather at a single endpoint: `per_sender_bytes` arrive
    /// from distinct senders, serialized on the receiver's link (the
    /// single-master bottleneck of Figure 1). Latencies overlap; bytes
    /// do not.
    pub fn gather_time(&self, per_sender_bytes: &[u64]) -> f64 {
        if per_sender_bytes.is_empty() {
            return 0.0;
        }
        // Sum in f64: u64 addition would wrap for huge-model transfers.
        let total: f64 = per_sender_bytes.iter().map(|&b| b as f64).sum();
        self.latency_s + total / self.bandwidth_bytes_per_s
    }

    /// [`NetworkModel::gather_time`] when every sender ships the same
    /// `bytes` — the ColumnSGD statistics gather, where each of the K
    /// workers sends a B×width partial. Avoids materializing a per-sender
    /// vector on the per-iteration pricing path.
    pub fn gather_time_uniform(&self, bytes: u64, senders: usize) -> f64 {
        if senders == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 * senders as f64 / self.bandwidth_bytes_per_s
    }

    /// Time for a broadcast from a single endpoint of `bytes` to each of
    /// `receivers` nodes: the sender's uplink serializes `bytes × receivers`.
    pub fn broadcast_time(&self, bytes: u64, receivers: usize) -> f64 {
        if receivers == 0 {
            return 0.0;
        }
        // The product is formed in f64: `bytes * receivers as u64` wraps
        // for models past ~u64::MAX/K bytes and priced such broadcasts at
        // nearly zero.
        self.latency_s + bytes as f64 * receivers as f64 / self.bandwidth_bytes_per_s
    }

    /// Time for a ring all-reduce of an `bytes`-sized buffer over `k`
    /// participants: `2(k-1)` steps each moving `bytes/k`
    /// (Thakur et al., the optimization the paper cites for MLlib*).
    pub fn allreduce_time(&self, bytes: u64, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let steps = 2 * (k - 1);
        let chunk = bytes as f64 / k as f64;
        steps as f64 * (self.latency_s + chunk / self.bandwidth_bytes_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_transfers() {
        let m = NetworkModel::CLUSTER1;
        let t_small = m.transfer_time(1_000);
        // 1 KB at 1 Gbps is 8 µs ≪ 500 µs latency.
        assert!(t_small < 2.0 * m.latency_s);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let m = NetworkModel::CLUSTER1;
        let t_large = m.transfer_time(1_250_000_000); // 10 s of bytes
        assert!(t_large > 9.9 && t_large < 10.2);
    }

    #[test]
    fn per_iteration_flat_then_linear_in_batch() {
        // The Figure 4(b) shape: statistics messages of B*8 bytes cost the
        // same for B ∈ {100, 1k, 10k} (latency-bound) and grow linearly
        // after ~100k (bandwidth-bound).
        let m = NetworkModel::CLUSTER1;
        // A full iteration pays the fixed scheduling overhead plus the
        // statistics gather; the overhead hides small-batch differences.
        let t = |b: u64| m.scheduling_overhead_s + m.gather_time(&[8 * b; 8]);
        assert!((t(10_000) - t(100)) / t(100) < 0.5);
        assert!(t(10_000_000) > 5.0 * t(1_000_000) * 0.9);
    }

    #[test]
    fn gather_serializes_bytes_not_latency() {
        let m = NetworkModel::CLUSTER1;
        let one = m.gather_time(&[1_000_000]);
        let four = m.gather_time(&[1_000_000; 4]);
        assert!(four > 3.0 * (one - m.latency_s));
        assert!(four < 4.0 * one);
        assert_eq!(m.gather_time(&[]), 0.0);
    }

    #[test]
    fn broadcast_scales_with_receivers() {
        let m = NetworkModel::CLUSTER1;
        assert_eq!(m.broadcast_time(1_000, 0), 0.0);
        let b8 = m.broadcast_time(1_000_000, 8);
        let b16 = m.broadcast_time(1_000_000, 16);
        assert!(b16 > 1.9 * (b8 - m.latency_s));
    }

    #[test]
    fn allreduce_beats_gather_broadcast_for_big_buffers() {
        let m = NetworkModel::CLUSTER1;
        let bytes = 80_000_000u64; // a 10M-dim FP64 model
        let k = 8;
        let central = m.gather_time(&vec![bytes; k]) + m.broadcast_time(bytes, k);
        let ring = m.allreduce_time(bytes, k);
        assert!(ring < central, "ring {ring} vs central {central}");
        assert_eq!(m.allreduce_time(bytes, 1), 0.0);
    }

    #[test]
    fn instant_network_is_free() {
        let m = NetworkModel::INSTANT;
        assert_eq!(m.transfer_time(u64::MAX / 2), 0.0);
    }

    #[test]
    fn broadcast_of_huge_model_does_not_wrap() {
        // Regression: `bytes * receivers as u64` wrapped for huge models,
        // pricing the broadcast at ~0 s. With f64 arithmetic the cost stays
        // monotone in both bytes and receiver count.
        let m = NetworkModel::CLUSTER1;
        let huge = u64::MAX / 4; // 16 receivers would overflow u64
        let b8 = m.broadcast_time(huge, 8);
        let b16 = m.broadcast_time(huge, 16);
        assert!(b8 > 1e9, "huge broadcast must be expensive, got {b8}");
        assert!(
            b16 > 1.9 * b8,
            "more receivers must cost more: {b16} vs {b8}"
        );
        assert!(m.broadcast_time(huge, 16) > m.broadcast_time(huge / 2, 16));
    }

    #[test]
    fn gather_of_huge_partials_does_not_wrap() {
        let m = NetworkModel::CLUSTER1;
        let huge = u64::MAX / 4;
        let g8 = m.gather_time(&[huge; 8]); // u64 sum would overflow
        assert!(g8 > 1e9, "huge gather must be expensive, got {g8}");
        assert!(g8 > m.gather_time(&[huge; 4]));
    }

    #[test]
    fn uniform_gather_matches_per_sender_vector() {
        let m = NetworkModel::CLUSTER1;
        for senders in [0usize, 1, 3, 8] {
            let per: Vec<u64> = vec![123_456; senders];
            assert_eq!(m.gather_time_uniform(123_456, senders), m.gather_time(&per));
        }
        assert!(m.gather_time_uniform(u64::MAX / 4, 16).is_finite());
    }

    #[test]
    fn presets_carry_paper_core_counts() {
        assert_eq!(NetworkModel::CLUSTER1.cores, 2);
        assert_eq!(NetworkModel::CLUSTER2.cores, 8);
        assert_eq!(NetworkModel::INSTANT.cores, 1);
    }
}
