//! The network cost model: metered bytes → simulated seconds.
//!
//! §III-B2 of the paper observes exactly the two regimes this model
//! produces: "When the batch size is small, the communication cost per
//! iteration is dominated by the network latency. However, when the batch
//! size is large, the communication cost is more affected by network
//! bandwidth." A transfer of `n` bytes costs `latency + n / bandwidth`.

use columnsgd_telemetry::LinkPricing;

use crate::traffic::LinkStats;

/// Serialization cost per shipped object on a bulk lane (the Figure 7
/// effect: many small objects are expensive even at modest total bytes).
const PER_OBJECT_S: f64 = 20e-6;

/// Latency/bandwidth model of one network link, plus the fixed per-round
/// scheduling overhead of the driver (Spark task launch, which the paper
/// cites to explain why MXNet beats ColumnSGD on avazu: "perhaps due to the
/// scheduling latency in Spark", §V-B2). The only code that turns counts
/// into seconds: engines hand it counts and never read the link back out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    latency_s: f64,
    /// Link bandwidth in bytes per second.
    bandwidth_bytes_per_s: f64,
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
        self.link_pricing().transfer_time(bytes as f64)
    }

    /// This model's per-link pricing, in telemetry's vocabulary (recorded
    /// on traces so modeled comm times can be re-derived offline).
    pub fn link_pricing(&self) -> LinkPricing {
        LinkPricing {
            latency_s: self.latency_s,
            bandwidth_bytes_per_s: self.bandwidth_bytes_per_s,
        }
    }

    /// Time for the messages in `traffic`, serialized on one endpoint's
    /// link: a gather at its receiver or a broadcast from its sender (the
    /// single-master bottleneck of Figure 1). Latencies overlap, bytes do
    /// not (summed in f64, so no total can wrap); no messages cost nothing.
    pub fn serial_time(&self, traffic: impl IntoIterator<Item = LinkStats>) -> f64 {
        let add = |(n, b): (u64, f64), t: LinkStats| (n + t.messages, b + t.bytes as f64);
        match traffic.into_iter().fold((0, 0.0), add) {
            (0, _) => 0.0,
            (_, bytes) => self.link_pricing().transfer_time(bytes),
        }
    }

    /// Time for one node's lane of bulk traffic (loading, reload, restore,
    /// migration): `bytes` at link bandwidth, a serialization cost for each
    /// of `objects` shipped objects, and `hops` one-way latencies.
    pub fn lane_time(&self, bytes: u64, objects: u64, hops: u32) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + f64::from(hops) * self.latency_s
    }

    /// [`NetworkModel::lane_time`] of one hop for bulk traffic spread
    /// evenly over `lanes` parallel lanes.
    pub fn spread_lane_time(&self, bytes: u64, objects: u64, lanes: usize) -> f64 {
        self.lane_time(bytes, objects, 0) / lanes as f64 + self.latency_s
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
        steps as f64 * self.link_pricing().transfer_time(chunk)
    }
}

#[cfg(test)]
mod tests {
    use std::iter::repeat_n;

    use super::*;

    /// `n` messages of `bytes` each on one endpoint's link.
    fn fan(m: &NetworkModel, bytes: u64, n: usize) -> f64 {
        m.serial_time(repeat_n(LinkStats::message(bytes), n))
    }

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
        let t = |b: u64| m.scheduling_overhead_s + fan(&m, 8 * b, 8);
        assert!((t(10_000) - t(100)) / t(100) < 0.5);
        assert!(t(10_000_000) > 5.0 * t(1_000_000) * 0.9);
    }

    #[test]
    fn gather_serializes_bytes_not_latency() {
        let m = NetworkModel::CLUSTER1;
        let one = fan(&m, 1_000_000, 1);
        let four = fan(&m, 1_000_000, 4);
        assert!(four > 3.0 * (one - m.latency_s));
        assert!(four < 4.0 * one);
        assert_eq!(m.serial_time([]), 0.0);
        assert_eq!(fan(&m, 1_000, 0), 0.0);
        assert_eq!(m.serial_time([LinkStats::default()]), 0.0);
    }

    #[test]
    fn broadcast_scales_with_receivers() {
        let m = NetworkModel::CLUSTER1;
        let b8 = fan(&m, 1_000_000, 8);
        let b16 = fan(&m, 1_000_000, 16);
        assert!(b16 > 1.9 * (b8 - m.latency_s));
    }

    #[test]
    fn allreduce_beats_gather_broadcast_for_big_buffers() {
        let m = NetworkModel::CLUSTER1;
        let bytes = 80_000_000u64; // a 10M-dim FP64 model
        let k = 8;
        let central = 2.0 * fan(&m, bytes, k);
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
        let b8 = fan(&m, huge, 8);
        let b16 = fan(&m, huge, 16);
        assert!(b8 > 1e9, "huge broadcast must be expensive, got {b8}");
        assert!(
            b16 > 1.9 * b8,
            "more receivers must cost more: {b16} vs {b8}"
        );
        assert!(fan(&m, huge, 16) > fan(&m, huge / 2, 16));
    }

    #[test]
    fn gather_of_huge_partials_does_not_wrap() {
        let m = NetworkModel::CLUSTER1;
        let huge = u64::MAX / 4;
        let g8 = fan(&m, huge, 8); // u64 sum would overflow
        assert!(g8 > 1e9, "huge gather must be expensive, got {g8}");
        assert!(g8 > fan(&m, huge, 4));
    }

    #[test]
    fn metered_totals_price_like_their_messages() {
        // A meter window hands over one total per endpoint; below 2^53
        // bytes its price is bit-identical to the per-message sum.
        let m = NetworkModel::CLUSTER1;
        for n in [0u64, 1, 3, 8] {
            let total = LinkStats {
                messages: n,
                bytes: 123_456 * n,
            };
            assert_eq!(m.serial_time([total]), fan(&m, 123_456, n as usize));
        }
        let uneven = [LinkStats::message(10), LinkStats::message(1_000_003)];
        let window = LinkStats {
            messages: 2,
            bytes: 1_000_013,
        };
        assert_eq!(m.serial_time(uneven), m.serial_time([window]));
    }

    #[test]
    fn lanes_add_objects_and_hops() {
        let m = NetworkModel::CLUSTER1;
        let busy = m.lane_time(1_000_000, 10, 0);
        assert_eq!(busy, 1_000_000.0 / 125e6 + 10.0 * PER_OBJECT_S);
        assert_eq!(m.lane_time(1_000_000, 10, 2), busy + 2.0 * m.latency_s);
        assert_eq!(
            m.spread_lane_time(1_000_000, 10, 1),
            m.lane_time(1_000_000, 10, 1)
        );
        assert!(m.spread_lane_time(1_000_000, 10, 4) < m.lane_time(1_000_000, 10, 1));
    }

    #[test]
    fn presets_carry_paper_core_counts() {
        assert_eq!(NetworkModel::CLUSTER1.cores, 2);
        assert_eq!(NetworkModel::CLUSTER2.cores, 8);
        assert_eq!(NetworkModel::INSTANT.cores, 1);
    }
}
