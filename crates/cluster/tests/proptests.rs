//! Property-based tests for the cluster runtime: the traffic meter, the
//! network cost model, and seeded chaos.

use columnsgd_cluster::{LinkStats, NetworkModel, NodeId, TrafficStats};
use proptest::prelude::*;

proptest! {
    /// Traffic accounting is conservative: the grand total equals the sum
    /// over per-link snapshots, and sent+received partitions the total.
    #[test]
    fn traffic_totals_are_consistent(
        events in prop::collection::vec((0usize..4, 0usize..4, 1usize..10_000), 0..64),
    ) {
        let t = TrafficStats::new();
        for &(from, to, bytes) in &events {
            // Distinct node kinds so self-links never occur.
            t.record(NodeId::Worker(from), NodeId::Server(to), bytes);
        }
        let total = t.total();
        prop_assert_eq!(total.messages as usize, events.len());
        prop_assert_eq!(
            total.bytes as usize,
            events.iter().map(|&(_, _, b)| b).sum::<usize>()
        );
        let snap = t.snapshot();
        let snap_bytes: u64 = snap.iter().map(|(_, s)| s.bytes).sum();
        prop_assert_eq!(snap_bytes, total.bytes);
        let sent: u64 = (0..4).map(|w| t.sent_by(NodeId::Worker(w)).bytes).sum();
        let recv: u64 = (0..4).map(|p| t.received_by(NodeId::Server(p)).bytes).sum();
        prop_assert_eq!(sent, total.bytes);
        prop_assert_eq!(recv, total.bytes);
    }

    /// The network model is monotone: more bytes never transfer faster,
    /// and a gather is never faster than its largest single transfer.
    #[test]
    fn network_model_monotone(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let m = NetworkModel::CLUSTER1;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(m.transfer_time(lo) <= m.transfer_time(hi));
        let gather = m.serial_time([LinkStats::message(lo), LinkStats::message(hi)]);
        prop_assert!(gather + 1e-12 >= m.transfer_time(hi));
        prop_assert!(m.allreduce_time(hi, 4) >= 0.0);
        let broadcast = m.serial_time([LinkStats::message(hi); 3]);
        prop_assert!(broadcast >= m.transfer_time(hi));
    }
}

use columnsgd_cluster::{ChaosSpec, Router};

/// Replays `msgs` through a fresh chaos router and returns what each
/// endpoint actually received, in order.
fn chaos_delivery(spec: ChaosSpec, msgs: &[(usize, usize, u64)]) -> Vec<Vec<u64>> {
    let ids = [NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)];
    let (router, eps) = Router::<u64>::with_chaos(&ids, TrafficStats::new(), Some(spec));
    router.arm_chaos();
    for &(from, to, payload) in msgs {
        let _ = router.send(ids[from % 3], ids[to % 3], payload);
    }
    eps.iter()
        .map(|ep| {
            let mut got = Vec::new();
            while let Some(env) = ep.try_recv() {
                got.push(env.payload);
            }
            got
        })
        .collect()
}

proptest! {
    /// Chaos is a pure function of (seed, link, sequence): the same spec
    /// replayed over the same message sequence drops, duplicates, and
    /// delays *exactly* the same messages — run to run, bit for bit.
    #[test]
    fn chaos_same_seed_same_faults(
        seed in 0u64..10_000,
        msgs in prop::collection::vec((0usize..3, 0usize..3, 0u64..1000), 1..80),
    ) {
        let spec = ChaosSpec::uniform(seed, 0.15, 0.0);
        let a = chaos_delivery(spec, &msgs);
        let b = chaos_delivery(spec, &msgs);
        prop_assert_eq!(a, b);
    }

    /// A different seed over the same traffic produces a different fault
    /// pattern (almost surely, at these rates and lengths) — the seed is
    /// live, not decorative.
    #[test]
    fn chaos_seed_is_live(
        msgs in prop::collection::vec((0usize..3, 0usize..3, 0u64..1000), 40..80),
    ) {
        let clean: Vec<Vec<u64>> =
            chaos_delivery(ChaosSpec::uniform(1, 0.0, 0.0), &msgs);
        // With p=0.45 over 40+ messages, at least one fault fires for
        // some seed in a small set (probability of total silence across
        // all five seeds < 1e-40).
        let any_fault = (0u64..5).any(|s| {
            chaos_delivery(ChaosSpec::uniform(s, 0.15, 0.0), &msgs) != clean
        });
        prop_assert!(any_fault);
    }

    /// Crash decisions are deterministic per (worker, iteration, attempt)
    /// and honor p=0 / p=1 exactly.
    #[test]
    fn chaos_crash_decision_deterministic(
        seed in 0u64..10_000,
        worker in 0usize..64,
        iteration in 0u64..10_000,
        attempt in 0u64..8,
    ) {
        let spec = ChaosSpec { seed, drop_p: 0.0, dup_p: 0.0, delay_p: 0.0, crash_p: 0.5 };
        prop_assert_eq!(
            spec.crash_decision(worker, iteration, attempt),
            spec.crash_decision(worker, iteration, attempt)
        );
        let never = ChaosSpec { crash_p: 0.0, ..spec };
        let always = ChaosSpec { crash_p: 1.0, ..spec };
        prop_assert!(!never.crash_decision(worker, iteration, attempt));
        prop_assert!(always.crash_decision(worker, iteration, attempt));
    }
}
