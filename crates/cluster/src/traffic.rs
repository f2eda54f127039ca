//! Per-link traffic accounting.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::node::NodeId;

/// Byte/message counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages sent on this link.
    pub messages: u64,
    /// Payload + envelope bytes sent on this link.
    pub bytes: u64,
}

impl LinkStats {
    /// The counts of one message of `bytes`.
    pub const fn message(bytes: u64) -> Self {
        Self { messages: 1, bytes }
    }

    /// What was metered between the snapshot `earlier` and this one.
    pub fn since(self, earlier: LinkStats) -> LinkStats {
        LinkStats {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Thread-safe traffic meter shared by every router endpoint.
///
/// All sends in the runtime are recorded here; experiments read the
/// aggregate (or per-link) totals to report communication volumes, and the
/// cost-model tests cross-check them against Table I.
/// Links are keyed in a `BTreeMap` so iteration (snapshots, folds, and
/// anything exported downstream) is order-stable by construction — the
/// workspace `clippy.toml` disallows `HashMap` to keep it that way.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    inner: Arc<Mutex<BTreeMap<(NodeId, NodeId), LinkStats>>>,
    /// Dead letters: messages that were metered at send time but provably
    /// never delivered — drained from a dead node's mailbox when it is
    /// reregistered. Kept separate from `inner` (those bytes *did* cross
    /// the wire, so the send-side meter and telemetry stay reconciled);
    /// this ledger answers "of the metered bytes, which died in a lost
    /// mailbox?".
    dropped: Arc<Mutex<BTreeMap<(NodeId, NodeId), LinkStats>>>,
}

impl TrafficStats {
    /// A fresh meter with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `bytes` total (payload + envelope) from
    /// `from` to `to`.
    pub fn record(&self, from: NodeId, to: NodeId, bytes: usize) {
        let mut map = self.inner.lock();
        let entry = map.entry((from, to)).or_default();
        *entry = *entry + LinkStats::message(bytes as u64);
    }

    /// Counters for one directed link.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkStats {
        self.inner
            .lock()
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Total bytes sent by `node` (sum over outgoing links).
    pub fn sent_by(&self, node: NodeId) -> LinkStats {
        self.fold(|(f, _), s, acc| if *f == node { acc + *s } else { acc })
    }

    /// Total bytes received by `node` (sum over incoming links).
    pub fn received_by(&self, node: NodeId) -> LinkStats {
        self.fold(|(_, t), s, acc| if *t == node { acc + *s } else { acc })
    }

    /// Grand totals over every link.
    pub fn total(&self) -> LinkStats {
        self.fold(|_, s, acc| acc + *s)
    }

    /// Communication *touching* a node — sent plus received, the quantity
    /// the paper's Table I reports per role (e.g. master: `2KB`, i.e. KB
    /// received + KB broadcast).
    pub fn touching(&self, node: NodeId) -> LinkStats {
        self.sent_by(node) + self.received_by(node)
    }

    /// Per-worker cumulative sent bytes/messages for workers `0..k`, in a
    /// single pass under one lock — the gauge the online diagnostics
    /// monitor polls every superstep (K separate [`TrafficStats::sent_by`]
    /// calls would take and release the lock K times per iteration).
    pub fn per_worker_sent(&self, k: usize) -> Vec<LinkStats> {
        let mut out = vec![LinkStats::default(); k];
        let map = self.inner.lock();
        for ((from, _), s) in map.iter() {
            if let NodeId::Worker(w) = from {
                if *w < k {
                    out[*w] = out[*w] + *s;
                }
            }
        }
        out
    }

    /// Records one dead-lettered message: metered at send time, drained
    /// undelivered from a dead node's mailbox on reregistration.
    pub fn record_dropped(&self, from: NodeId, to: NodeId, bytes: usize) {
        let mut map = self.dropped.lock();
        let entry = map.entry((from, to)).or_default();
        *entry = *entry + LinkStats::message(bytes as u64);
    }

    /// Grand totals over the dead-letter ledger.
    pub fn dropped_total(&self) -> LinkStats {
        let map = self.dropped.lock();
        map.values().fold(LinkStats::default(), |acc, s| acc + *s)
    }

    /// Snapshot of the dead-letter ledger, in key order.
    pub fn dropped_snapshot(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        self.dropped.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Zeroes all counters (e.g. to meter a single iteration).
    pub fn reset(&self) {
        self.inner.lock().clear();
        self.dropped.lock().clear();
    }

    /// Snapshot of every link, in key order (the map is ordered, so no
    /// post-hoc sort is needed).
    pub fn snapshot(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        self.inner.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    fn fold<F>(&self, f: F) -> LinkStats
    where
        F: Fn(&(NodeId, NodeId), &LinkStats, LinkStats) -> LinkStats,
    {
        let map = self.inner.lock();
        let mut acc = LinkStats::default();
        for (k, s) in map.iter() {
            acc = f(k, s, acc);
        }
        acc
    }
}

impl std::ops::Add for LinkStats {
    type Output = LinkStats;

    fn add(self, other: LinkStats) -> LinkStats {
        LinkStats {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_link() {
        let t = TrafficStats::new();
        t.record(NodeId::Worker(0), NodeId::Master, 100);
        t.record(NodeId::Worker(0), NodeId::Master, 50);
        t.record(NodeId::Master, NodeId::Worker(0), 10);
        let up = t.link(NodeId::Worker(0), NodeId::Master);
        assert_eq!(up.messages, 2);
        assert_eq!(up.bytes, 150);
        assert_eq!(
            t.link(NodeId::Master, NodeId::Worker(1)),
            LinkStats::default()
        );
    }

    #[test]
    fn aggregates() {
        let t = TrafficStats::new();
        t.record(NodeId::Worker(0), NodeId::Master, 100);
        t.record(NodeId::Worker(1), NodeId::Master, 200);
        t.record(NodeId::Master, NodeId::Worker(0), 40);
        assert_eq!(t.received_by(NodeId::Master).bytes, 300);
        assert_eq!(t.sent_by(NodeId::Master).bytes, 40);
        assert_eq!(t.touching(NodeId::Master).bytes, 340);
        assert_eq!(t.total().messages, 3);
    }

    #[test]
    fn reset_zeroes() {
        let t = TrafficStats::new();
        t.record(NodeId::Worker(0), NodeId::Master, 1);
        t.reset();
        assert_eq!(t.total(), LinkStats::default());
    }

    #[test]
    fn per_worker_sent_gauges_in_one_pass() {
        let t = TrafficStats::new();
        t.record(NodeId::Worker(0), NodeId::Master, 100);
        t.record(NodeId::Worker(0), NodeId::Worker(1), 30);
        t.record(NodeId::Worker(1), NodeId::Master, 200);
        t.record(NodeId::Master, NodeId::Worker(0), 999); // not worker-sent
        t.record(NodeId::Worker(5), NodeId::Master, 7); // out of range: ignored
        let g = t.per_worker_sent(2);
        assert_eq!(g.len(), 2);
        assert_eq!(
            g[0],
            LinkStats {
                messages: 2,
                bytes: 130
            }
        );
        assert_eq!(
            g[1],
            LinkStats {
                messages: 1,
                bytes: 200
            }
        );
        // Must agree with the per-node fold.
        assert_eq!(g[0], t.sent_by(NodeId::Worker(0)));
        assert_eq!(g[1], t.sent_by(NodeId::Worker(1)));
    }

    #[test]
    fn dead_letters_are_a_separate_ledger() {
        let t = TrafficStats::new();
        t.record(NodeId::Master, NodeId::Worker(0), 100);
        t.record_dropped(NodeId::Master, NodeId::Worker(0), 100);
        // The send-side meter is untouched by dead-lettering…
        assert_eq!(t.total().bytes, 100);
        // …and the ledger accounts the undelivered share.
        assert_eq!(t.dropped_total().messages, 1);
        assert_eq!(t.dropped_total().bytes, 100);
        assert_eq!(t.dropped_snapshot().len(), 1);
        t.reset();
        assert_eq!(t.dropped_total(), LinkStats::default());
    }

    #[test]
    fn clones_share_state() {
        let t = TrafficStats::new();
        let t2 = t.clone();
        t2.record(NodeId::Worker(0), NodeId::Master, 5);
        assert_eq!(t.total().bytes, 5);
    }
}
