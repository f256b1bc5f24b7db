//! Per-node message I/O surface.
//!
//! # The send contract
//!
//! [`Ctx::broadcast`] and [`Ctx::send`] are the *only* way a protocol can
//! emit messages, and both follow one eager-validation contract:
//!
//! * **Addressing is validated at call time, never at delivery time.**
//!   `send` panics immediately if the port does not name an incident link
//!   (`port >= degree`); there is no such neighbor, so the call is a
//!   protocol bug, not a droppable message.
//! * **`broadcast` is defined for every degree.** It stages exactly one
//!   copy per incident link — `degree` copies, each charged to the run
//!   metrics. On an isolated node that is zero copies: a well-defined
//!   no-op that stages nothing and charges nothing (not an error, and not
//!   a "silent drop" of anything addressable).
//! * **Accepted sends are staged immediately** through the engine's
//!   [`Sink`] into its flat per-round send arena. Sender-side metrics,
//!   wire checking, and traffic classification all happen at that moment;
//!   nothing is re-validated or re-walked later, and no growable buffer
//!   (`&mut Vec` or otherwise) is ever reachable from algorithm code.
//!
//! Delivery-time effects — receiver halting and fault drops — are link
//! properties, not addressing properties, and remain the engine's
//! business (see [`ChaosPlan`](crate::ChaosPlan)).

use rand::rngs::SmallRng;

use kw_graph::NodeId;

/// Outbound message staged by a node during a round.
///
/// A broadcast is materialized once in the send arena; the engine's flat
/// delivery plane clones it only into the arena slot of each edge it is
/// delivered on.
#[derive(Clone, Debug)]
pub(crate) enum Outbound<M> {
    /// Same payload to every neighbor (still counted as `degree` messages,
    /// matching the paper's per-edge accounting).
    Broadcast(M),
    /// Payload to the neighbor on one port.
    Unicast { port: u32, msg: M },
}

impl<M> Outbound<M> {
    /// The message payload, regardless of addressing mode.
    pub(crate) fn payload(&self) -> &M {
        match self {
            Outbound::Broadcast(m) => m,
            Outbound::Unicast { msg, .. } => msg,
        }
    }
}

/// Engine-side staging target for one node's sends during one round.
///
/// [`Ctx`] validates every call against the send contract (see the
/// `mailbox` module's source docs) and then writes through this trait, so the trait
/// is *opaque* to protocols: algorithm code can queue traffic but can
/// never observe, grow, or reorder the buffer behind it. The engine's
/// implementation appends straight into a per-node run of its flat,
/// per-round send arena and charges sender-side metrics at the same
/// moment — the old "fill per-node `Vec` outboxes, then re-walk them all"
/// two-pass is fused into the send itself.
///
/// Implementations may assume both invariants `Ctx` enforces:
///
/// * `stage_unicast` is only called with `port < degree`;
/// * `stage_broadcast` is never called on an isolated node (its `degree`
///   argument — the sender's degree, passed per call so the sink keeps no
///   per-node state — is always positive).
pub trait Sink<M> {
    /// Stages one copy of `msg` per incident link of the sending node
    /// (`degree` copies).
    fn stage_broadcast(&mut self, degree: u32, msg: M);

    /// Stages `msg` for the link on `port` (already validated).
    fn stage_unicast(&mut self, port: u32, msg: M);
}

/// Messages received by a node this round, tagged with the receiving port.
///
/// Port `p` of node `v` identifies `v`'s `p`-th neighbor (in ascending id
/// order, though protocols must not rely on the order meaning anything —
/// the LOCAL model only guarantees stable port numbering).
#[derive(Debug)]
pub struct Inbox<'a, M> {
    pub(crate) items: &'a [(u32, M)],
}

impl<'a, M> Inbox<'a, M> {
    /// Number of messages received.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no messages arrived.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(port, message)` pairs.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.items.iter(),
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (u32, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        InboxIter {
            inner: self.items.iter(),
        }
    }
}

/// Iterator over `(port, message)` pairs, created by [`Inbox::iter`].
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inner: std::slice::Iter<'a, (u32, M)>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (u32, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(p, m)| (*p, m))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// Everything a node may see and do during one round: its identity and
/// degree, the inbox, the send sink, and a private RNG.
///
/// This is the *entire* interface between a [`Protocol`](crate::Protocol)
/// and the world; node programs cannot observe the graph. Sends go
/// through the opaque [`Sink`] contract — the engine stages them directly
/// into per-node runs of its flat send arena, so no growable buffer
/// escapes to algorithm code. (`Ctx` holds the engine's sink as a
/// concrete private type and routes through the trait statically, so
/// staging inlines into the protocol's round instead of paying a virtual
/// call per send.)
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) degree: u32,
    pub(crate) round: usize,
    pub(crate) inbox: &'a [(u32, M)],
    pub(crate) sink: &'a mut crate::engine::StageSink<M>,
    pub(crate) rng: &'a mut SmallRng,
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("degree", &self.degree)
            .field("round", &self.round)
            .field("inbox_len", &self.inbox.len())
            .finish_non_exhaustive()
    }
}

impl<'a, M> Ctx<'a, M> {
    /// This node's identifier.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's degree; valid ports are `0..degree`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The current round index (0-based; round 0 has an empty inbox).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Messages delivered this round.
    pub fn inbox(&self) -> Inbox<'_, M> {
        Inbox { items: self.inbox }
    }

    /// The raw inbox slice, borrowed for the whole round rather than for
    /// this call — lets protocols that embed other protocols keep reading
    /// messages while queueing sends.
    pub fn inbox_slice(&self) -> &'a [(u32, M)] {
        self.inbox
    }

    /// Stages `msg` for delivery to every neighbor next round — one copy
    /// per incident link.
    ///
    /// Counts as `degree` individual messages in the run metrics, matching
    /// the paper's model in which a node "sends a message to each of its
    /// direct neighbors". On an isolated node this is a well-defined
    /// no-op: zero links, zero copies, zero charge (see the send contract
    /// in the `mailbox` module's source docs).
    pub fn broadcast(&mut self, msg: M)
    where
        M: crate::wire::WireEncode,
    {
        if self.degree > 0 {
            Sink::stage_broadcast(self.sink, self.degree, msg);
        }
    }

    /// Stages `msg` for delivery to the neighbor on `port` next round.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree` — addressing is validated at call time,
    /// per the send contract in the `mailbox` module's source docs. In particular an
    /// isolated node has no valid port at all, so any `send` from it
    /// panics (whereas its `broadcast` is a no-op).
    pub fn send(&mut self, port: u32, msg: M)
    where
        M: crate::wire::WireEncode,
    {
        assert!(
            port < self.degree,
            "port {port} out of range for degree {}",
            self.degree
        );
        Sink::stage_unicast(self.sink, port, msg);
    }

    /// Private per-node RNG, deterministically seeded from the run seed and
    /// the node id.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageSink;
    use rand::SeedableRng;

    fn ctx<'a>(
        degree: u32,
        inbox: &'a [(u32, u64)],
        sink: &'a mut StageSink<u64>,
        rng: &'a mut SmallRng,
    ) -> Ctx<'a, u64> {
        Ctx {
            node: NodeId::new(0),
            degree,
            round: 3,
            inbox,
            sink,
            rng,
        }
    }

    #[test]
    fn accessors() {
        let inbox = vec![(0u32, 7u64), (1, 9)];
        let mut sink = StageSink::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let c = ctx(2, &inbox, &mut sink, &mut rng);
        assert_eq!(c.node(), NodeId::new(0));
        assert_eq!(c.degree(), 2);
        assert_eq!(c.round(), 3);
        assert_eq!(c.inbox().len(), 2);
        assert!(!c.inbox().is_empty());
        let got: Vec<u64> = c.inbox().iter().map(|(_, &m)| m).collect();
        assert_eq!(got, vec![7, 9]);
    }

    #[test]
    fn send_and_broadcast_stage_in_call_order() {
        let inbox = vec![];
        let mut sink = StageSink::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(2, &inbox, &mut sink, &mut rng);
        c.broadcast(1);
        c.send(1, 2);
        assert_eq!(sink.arena.len(), 2);
        assert!(matches!(sink.arena[0], Outbound::Broadcast(1)));
        assert!(matches!(
            sink.arena[1],
            Outbound::Unicast { port: 1, msg: 2 }
        ));
        // Sender-side accounting is fused into the send itself: the
        // broadcast charged `degree` copies, the unicast one.
        assert_eq!(sink.messages, 3);
    }

    /// The unified send contract, isolated-node half: `broadcast` stages
    /// one copy per link, which on degree 0 is a defined no-op — the sink
    /// is never even called, and nothing is charged.
    #[test]
    fn broadcast_on_isolated_node_is_a_noop() {
        let inbox = vec![];
        let mut sink = StageSink::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(0, &inbox, &mut sink, &mut rng);
        c.broadcast(5);
        assert!(sink.arena.is_empty());
        assert_eq!(sink.messages, 0);
        assert_eq!(sink.bits, 0);
    }

    /// The unified send contract, addressing half: `send` validates its
    /// port eagerly and panics — it never reaches the sink.
    #[test]
    #[should_panic(expected = "out of range")]
    fn send_validates_port() {
        let inbox = vec![];
        let mut sink = StageSink::new();
        let mut rng = SmallRng::seed_from_u64(0);
        ctx(2, &inbox, &mut sink, &mut rng).send(2, 0);
    }

    /// On an isolated node every port is invalid, so `send` panics where
    /// `broadcast` no-ops — the two calls diverge only in whether the
    /// addressing they name can exist.
    #[test]
    #[should_panic(expected = "out of range")]
    fn send_from_isolated_node_panics() {
        let inbox = vec![];
        let mut sink = StageSink::new();
        let mut rng = SmallRng::seed_from_u64(0);
        ctx(0, &inbox, &mut sink, &mut rng).send(0, 0);
    }
}
