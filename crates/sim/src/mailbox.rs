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
use rand::SeedableRng;

use kw_graph::NodeId;

use crate::rng::node_seed;

/// Outbound message staged by a node during a round.
///
/// A broadcast is materialized once in the send arena. A node's round of
/// exactly one broadcast then moves into the engine's dense solo table;
/// every other send stays in the arena, where the next round's receivers
/// read it. After a lossless round that left nothing in the arenas,
/// receivers read the solo table in place; otherwise each receiver
/// gathers clones of what it was delivered.
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
/// the LOCAL model only guarantees stable port numbering). Iteration
/// yields messages in ascending port order, and a port's messages in the
/// sender's send order.
///
/// When the previous round sent only solo broadcasts (at most one
/// broadcast per sender) on a lossless plan, the inbox reads the engine's
/// solo table in place through this node's ports instead of a gathered
/// copy: iteration skips quiet ports as it goes, and [`len`](Self::len)
/// and [`is_empty`](Self::is_empty) count on demand in `O(degree)`.
/// Otherwise the engine gathered the inbox from the senders' solo
/// payloads and send runs, less the copies the plan dropped.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    pub(crate) src: InboxSrc<'a, M>,
}

/// Where an [`Inbox`] reads its messages.
#[derive(Debug)]
pub(crate) enum InboxSrc<'a, M> {
    /// `(port, message)` pairs gathered into a buffer, in `(port, slot)`
    /// order.
    Gathered(&'a [(u32, M)]),
    /// The previous round's solo table, read in place: port `q` carries
    /// `solo[ports[q]]` when that entry is `Some`, and nothing otherwise.
    InPlace {
        ports: &'a [u32],
        solo: &'a [Option<M>],
    },
}

// Manual impls: both variants hold only shared references, so copying
// needs no `M: Copy`.
impl<M> Clone for InboxSrc<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for InboxSrc<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// Number of messages received (`O(degree)` for an in-place inbox).
    pub fn len(&self) -> usize {
        match self.src {
            InboxSrc::Gathered(items) => items.len(),
            InboxSrc::InPlace { ports, solo } => ports
                .iter()
                .filter(|&&u| solo[u as usize].is_some())
                .count(),
        }
    }

    /// Whether no messages arrived (`O(degree)` for an in-place inbox).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates over `(port, message)` pairs.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: match self.src {
                InboxSrc::Gathered(items) => IterSrc::Gathered(items.iter()),
                InboxSrc::InPlace { ports, solo } => IterSrc::InPlace {
                    ports: ports.iter().enumerate(),
                    solo,
                },
            },
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (u32, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over `(port, message)` pairs, created by [`Inbox::iter`].
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inner: IterSrc<'a, M>,
}

#[derive(Debug)]
enum IterSrc<'a, M> {
    Gathered(std::slice::Iter<'a, (u32, M)>),
    InPlace {
        ports: std::iter::Enumerate<std::slice::Iter<'a, u32>>,
        solo: &'a [Option<M>],
    },
}

// Manual impl: cloning the slice iterators needs no `M: Clone`.
impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        InboxIter {
            inner: match &self.inner {
                IterSrc::Gathered(items) => IterSrc::Gathered(items.clone()),
                IterSrc::InPlace { ports, solo } => IterSrc::InPlace {
                    ports: ports.clone(),
                    solo,
                },
            },
        }
    }
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (u32, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IterSrc::Gathered(items) => items.next().map(|(p, m)| (*p, m)),
            IterSrc::InPlace { ports, solo } => {
                let solo: &'a [Option<M>] = solo;
                ports.find_map(|(q, &u)| solo[u as usize].as_ref().map(|m| (q as u32, m)))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IterSrc::Gathered(items) => items.size_hint(),
            IterSrc::InPlace { ports, .. } => (0, Some(ports.len())),
        }
    }
}

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
    pub(crate) inbox: InboxSrc<'a, M>,
    pub(crate) sink: &'a mut crate::engine::StageSink<M>,
    /// This node's RNG slot, `None` until the node's first [`Ctx::rng`].
    pub(crate) rng: &'a mut Option<SmallRng>,
    /// The run seed the slot is seeded from.
    pub(crate) run_seed: u64,
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("degree", &self.degree)
            .field("round", &self.round)
            .field("inbox_len", &self.inbox().len())
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

    /// Messages delivered this round. After a lossless round of only
    /// solo broadcasts the inbox reads the engine's solo table in place;
    /// otherwise the engine gathered it for this node just before the
    /// round (see [`Inbox`]).
    pub fn inbox(&self) -> Inbox<'_, M> {
        Inbox { src: self.inbox }
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
    /// the node id (the seed [`NodeInfo::seed`](crate::NodeInfo::seed)
    /// reports). It is seeded on the node's first call, so a protocol
    /// that never draws pays nothing for it; the stream is the same in
    /// whichever round that call comes.
    pub fn rng(&mut self) -> &mut SmallRng {
        let (run_seed, node) = (self.run_seed, self.node.raw());
        self.rng
            .get_or_insert_with(|| SmallRng::seed_from_u64(node_seed(run_seed, node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageSink;
    use rand::Rng;

    fn ctx<'a>(
        degree: u32,
        inbox: InboxSrc<'a, u64>,
        sink: &'a mut StageSink<u64>,
        rng: &'a mut Option<SmallRng>,
    ) -> Ctx<'a, u64> {
        Ctx {
            node: NodeId::new(0),
            degree,
            round: 3,
            inbox,
            sink,
            rng,
            run_seed: 9,
        }
    }

    #[test]
    fn accessors() {
        let inbox = vec![(0u32, 7u64), (1, 9)];
        let mut sink = StageSink::new();
        let mut rng = None;
        let c = ctx(2, InboxSrc::Gathered(&inbox), &mut sink, &mut rng);
        assert_eq!(c.node(), NodeId::new(0));
        assert_eq!(c.degree(), 2);
        assert_eq!(c.round(), 3);
        assert_eq!(c.inbox().len(), 2);
        assert!(!c.inbox().is_empty());
        let got: Vec<u64> = c.inbox().iter().map(|(_, &m)| m).collect();
        assert_eq!(got, vec![7, 9]);
    }

    /// An in-place inbox reads the solo table through the node's ports:
    /// ascending ports, quiet senders skipped, and `len`/`is_empty`
    /// agreeing with what `iter` yields.
    #[test]
    fn in_place_inbox_skips_quiet_ports_in_port_order() {
        let ports = [1u32, 2, 4, 7];
        let mut solo = vec![None; 8];
        solo[1] = Some(11u64);
        solo[4] = Some(44);
        solo[7] = Some(77);
        let mut sink = StageSink::new();
        let mut rng = None;
        let c = ctx(
            4,
            InboxSrc::InPlace {
                ports: &ports,
                solo: &solo,
            },
            &mut sink,
            &mut rng,
        );
        let got: Vec<(u32, u64)> = c.inbox().iter().map(|(q, &m)| (q, m)).collect();
        assert_eq!(got, vec![(0, 11), (2, 44), (3, 77)]);
        assert_eq!(c.inbox().len(), c.inbox().iter().count());
        assert!(!c.inbox().is_empty());
        // A clone taken mid-way resumes where the original stands.
        let mut it = c.inbox().iter();
        it.next();
        assert_eq!(it.clone().map(|(q, _)| q).collect::<Vec<_>>(), vec![2, 3]);

        let quiet = vec![None; 8];
        let c = ctx(
            4,
            InboxSrc::InPlace {
                ports: &ports,
                solo: &quiet,
            },
            &mut sink,
            &mut rng,
        );
        assert_eq!(c.inbox().iter().count(), 0);
        assert_eq!(c.inbox().len(), 0);
        assert!(c.inbox().is_empty());
    }

    /// The RNG slot stays empty until the node's first draw, which seeds
    /// it with the node's `node_seed` stream.
    #[test]
    fn rng_is_seeded_on_first_call() {
        let mut sink = StageSink::new();
        let mut rng = None;
        let mut c = ctx(0, InboxSrc::Gathered(&[]), &mut sink, &mut rng);
        let drawn: u64 = c.rng().gen();
        let mut expected = SmallRng::seed_from_u64(node_seed(9, 0));
        assert_eq!(drawn, expected.gen::<u64>());
        assert_eq!(c.rng().gen::<u64>(), expected.gen::<u64>());
        assert!(rng.is_some());
    }

    #[test]
    fn send_and_broadcast_stage_in_call_order() {
        let mut sink = StageSink::new();
        let mut rng = None;
        let mut c = ctx(2, InboxSrc::Gathered(&[]), &mut sink, &mut rng);
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
        let mut sink = StageSink::new();
        let mut rng = None;
        let mut c = ctx(0, InboxSrc::Gathered(&[]), &mut sink, &mut rng);
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
        let mut sink = StageSink::new();
        let mut rng = None;
        ctx(2, InboxSrc::Gathered(&[]), &mut sink, &mut rng).send(2, 0);
    }

    /// On an isolated node every port is invalid, so `send` panics where
    /// `broadcast` no-ops — the two calls diverge only in whether the
    /// addressing they name can exist.
    #[test]
    #[should_panic(expected = "out of range")]
    fn send_from_isolated_node_panics() {
        let mut sink = StageSink::new();
        let mut rng = None;
        ctx(0, InboxSrc::Gathered(&[]), &mut sink, &mut rng).send(0, 0);
    }
}
