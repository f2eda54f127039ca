//! The transport abstraction behind [`Router`](crate::Router).
//!
//! The router owns everything the paper's byte accounting cares about —
//! metering, chaos injection, telemetry mirroring — and delegates the
//! *physical* movement of an envelope to a [`Transport`]. Two
//! implementations exist:
//!
//! * [`ChannelTransport`] — the original in-process backend: one
//!   unbounded crossbeam channel per node, all "nodes" are threads of one
//!   process, and time is priced by the analytic `NetworkModel`.
//! * [`TcpHub`](crate::tcp::TcpHub) / [`TcpClient`](crate::tcp::TcpClient)
//!   — the multi-process backend: each worker is an OS process holding
//!   one TCP connection to the master, envelopes travel as real
//!   length-prefixed frames (`codec`), and the master hub switches
//!   worker↔worker traffic. Each end keeps the mailboxes its own process
//!   hosts in a `ChannelTransport` and sends everything else to a socket.
//!
//! Because the router performs metering *before* calling
//! [`Transport::deliver`] (or [`Transport::deliver_all`] for a
//! broadcast), swapping the transport cannot change a single
//! metered byte — which is the refactor's whole point: the two backends
//! must agree bit-for-bit on everything except wall-clock time.
//!
//! # Liveness and generations
//!
//! A node slot carries a monotonically increasing *generation*. Each
//! [`Endpoint`](crate::Endpoint) remembers the generation it was created
//! under and reports `mark_dead(id, generation)` when dropped; the slot
//! ignores the call if it has since been reregistered (a stale endpoint
//! of a replaced worker must not kill its successor's mailbox).

#[expect(clippy::disallowed_types, reason = "looked up by NodeId, not iterated")]
use std::collections::HashMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::node::NodeId;
use crate::router::{Envelope, NetError};
use crate::telemetry::Plane;

/// Result of replacing a dead node's mailbox.
pub struct Reregistered<M> {
    /// The fresh mailbox receiver, if this transport hosts the node's
    /// mailbox locally (in-process backend). `None` for remote nodes
    /// whose mailbox lives in another process (TCP backend).
    pub rx: Option<Receiver<Envelope<M>>>,
    /// The new slot generation.
    pub generation: u64,
    /// Messages drained from the dead mailbox: metered at send time,
    /// provably never received. The router records these as drops.
    pub dead_letters: Vec<Envelope<M>>,
}

/// Physical envelope movement between nodes.
///
/// Implementations must be cheap to call concurrently: `deliver` runs on
/// every sender thread.
pub trait Transport<M>: Send + Sync {
    /// Moves one envelope to its destination node. The envelope's bytes
    /// are already metered by the router; `plane` tags control-plane
    /// traffic for backends that put it on the wire.
    fn deliver(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError>;

    /// Moves one payload from `from` to every node in `tos`, returning
    /// one result per destination in `tos` order; a failed destination
    /// does not stop the others. The bytes are already metered by the
    /// router. The default clones the payload once per destination; a
    /// backend that serializes overrides it to encode once.
    fn deliver_all(
        &self,
        from: NodeId,
        tos: &[NodeId],
        payload: &M,
        plane: Plane,
    ) -> Vec<Result<(), NetError>>
    where
        M: Clone,
    {
        tos.iter()
            .map(|&to| {
                let payload = payload.clone();
                self.deliver(Envelope { from, to, payload }, plane)
            })
            .collect()
    }

    /// Replaces `id`'s mailbox for a respawned node, draining whatever
    /// the dead incarnation never consumed.
    ///
    /// # Panics
    /// Panics if `id` was never registered.
    fn reregister(&self, id: NodeId) -> Reregistered<M>;

    /// Marks `id` dead if `generation` still matches its slot —
    /// subsequent delivery attempts fail with `NodeDown`, exactly like
    /// sending to a process that exited.
    fn mark_dead(&self, id: NodeId, generation: u64);

    /// Whether messages to another process leave as encoded frames, so
    /// [`Transport::deliver_all`] sends them from the borrowed payload.
    /// When not (the default), every destination needs an owned copy,
    /// and a sender that can give its message away should `deliver` it
    /// rather than pay a clone to keep it.
    fn serializes(&self) -> bool {
        false
    }
}

struct Slot<M> {
    /// `None` once the node is marked dead. Dropping the slot's sender
    /// lets the mailbox's receivers see it disconnected once it is empty
    /// and the last in-flight clone is gone.
    tx: Option<Sender<Envelope<M>>>,
    /// A cloned receiver retained so the mailbox can be drained on
    /// reregistration.
    drain: Receiver<Envelope<M>>,
    generation: u64,
}

/// The in-process backend: one unbounded channel per node.
#[expect(clippy::disallowed_types, reason = "looked up by NodeId, not iterated")]
pub struct ChannelTransport<M> {
    slots: RwLock<HashMap<NodeId, Slot<M>>>,
}

/// Each node's receiver and initial mailbox generation, in the order the
/// ids were registered.
pub type Mailboxes<M> = Vec<(NodeId, Receiver<Envelope<M>>, u64)>;

impl<M> ChannelTransport<M> {
    /// Builds a transport with one mailbox per id, returning each node's
    /// receiver and initial generation (in `ids` order).
    ///
    /// # Panics
    /// Panics if `ids` contains duplicates.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the metered Router's mailboxes, looked up by NodeId"
    )]
    pub fn new(ids: &[NodeId]) -> (Self, Mailboxes<M>) {
        let mut slots = HashMap::with_capacity(ids.len());
        let mut receivers = Vec::with_capacity(ids.len());
        for &id in ids {
            let (tx, rx) = unbounded();
            let slot = Slot {
                tx: Some(tx),
                drain: rx.clone(),
                generation: 0,
            };
            assert!(slots.insert(id, slot).is_none(), "duplicate node id {id}");
            receivers.push((id, rx, 0));
        }
        (
            Self {
                slots: RwLock::new(slots),
            },
            receivers,
        )
    }

    /// A sender into `id`'s mailbox: `UnknownNode` if this transport does
    /// not host `id`, `NodeDown` once it is marked dead. The slot map is
    /// released before the caller sends: a send while holding it would
    /// couple every deliver to the write path (`reregister`).
    pub(crate) fn sender(&self, id: NodeId) -> Result<Sender<Envelope<M>>, NetError> {
        let slots = self.slots.read();
        let slot = slots.get(&id).ok_or(NetError::UnknownNode(id))?;
        slot.tx.clone().ok_or(NetError::NodeDown(id))
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn deliver(&self, env: Envelope<M>, _plane: Plane) -> Result<(), NetError> {
        let to = env.to;
        self.sender(to)?
            .send(env)
            .map_err(|_| NetError::NodeDown(to))
    }

    #[expect(clippy::disallowed_methods, reason = "fresh mailbox behind the Router")]
    fn reregister(&self, id: NodeId) -> Reregistered<M> {
        let mut slots = self.slots.write();
        let slot = slots
            .get_mut(&id)
            .unwrap_or_else(|| panic!("cannot reregister unknown node {id}"));
        let mut dead_letters = Vec::new();
        while let Ok(env) = slot.drain.try_recv() {
            dead_letters.push(env);
        }
        let (tx, rx) = unbounded();
        let generation = slot.generation + 1;
        *slot = Slot {
            tx: Some(tx),
            drain: rx.clone(),
            generation,
        };
        Reregistered {
            rx: Some(rx),
            generation,
            dead_letters,
        }
    }

    fn mark_dead(&self, id: NodeId, generation: u64) {
        let mut slots = self.slots.write();
        if let Some(slot) = slots.get_mut(&id) {
            if slot.generation == generation {
                slot.tx = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_and_drain() {
        let (t, mut rxs) = ChannelTransport::<u64>::new(&[NodeId::Master, NodeId::Worker(0)]);
        let env = |p: u64| Envelope {
            from: NodeId::Master,
            to: NodeId::Worker(0),
            payload: p,
        };
        t.deliver(env(1), Plane::Data).unwrap();
        t.deliver(env(2), Plane::Data).unwrap();
        let (_, w0_rx, gen0) = rxs.pop().unwrap();
        assert_eq!(w0_rx.recv().unwrap().payload, 1);
        drop(w0_rx);
        // The worker died with message 2 still queued.
        t.mark_dead(NodeId::Worker(0), gen0);
        assert_eq!(
            t.deliver(env(3), Plane::Data),
            Err(NetError::NodeDown(NodeId::Worker(0)))
        );
        let r = t.reregister(NodeId::Worker(0));
        assert_eq!(r.dead_letters.len(), 1);
        assert_eq!(r.dead_letters[0].payload, 2);
        assert_eq!(r.generation, 1);
        // The respawned slot accepts deliveries again…
        t.deliver(env(4), Plane::Data).unwrap();
        assert_eq!(r.rx.unwrap().recv().unwrap().payload, 4);
        // …and a stale mark_dead from the old incarnation is ignored.
        t.mark_dead(NodeId::Worker(0), gen0);
        t.deliver(env(5), Plane::Data).unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot reregister unknown node")]
    fn reregister_unknown_panics() {
        let (t, _rxs) = ChannelTransport::<u64>::new(&[NodeId::Master]);
        let _ = t.reregister(NodeId::Worker(1));
    }

    #[test]
    fn unknown_node_is_reported() {
        let (t, _rxs) = ChannelTransport::<u64>::new(&[NodeId::Master]);
        let env = Envelope {
            from: NodeId::Master,
            to: NodeId::Worker(9),
            payload: 0,
        };
        assert_eq!(
            t.deliver(env, Plane::Data),
            Err(NetError::UnknownNode(NodeId::Worker(9)))
        );
    }
}
