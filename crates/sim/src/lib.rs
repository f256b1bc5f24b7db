//! Synchronous message-passing simulator for the LOCAL model.
//!
//! Kuhn & Wattenhofer's algorithms are stated in the "purely synchronous
//! model" (Section 3 of the paper): computation proceeds in global rounds,
//! and in every round each node may send one message to each neighbor. This
//! crate implements that model exactly:
//!
//! * a node program ([`Protocol`]) sees **only** its own id, its degree, its
//!   per-round inbox, and a private RNG seed — never the graph. The
//!   distributed-ness of an algorithm is therefore enforced by the type
//!   system rather than by convention;
//! * the [`Engine`] drives all nodes in lockstep, delivers messages between
//!   rounds, and is deterministic for a fixed seed regardless of the number
//!   of worker threads;
//! * every message is accounted at the **bit** level through its
//!   [`wire::WireEncode`] implementation, so the paper's `O(log Δ)`
//!   message-size claim can be validated literally ([`RunMetrics`]).
//!
//! # The flat message plane
//!
//! Both halves of a round run on flat arrays parallel to the graph's CSR
//! edge array rather than per-node `Vec`s. On the send side,
//! [`Ctx::broadcast`]/[`Ctx::send`] write through an opaque [`Sink`]
//! straight into per-node runs of a flat send arena owned by the engine —
//! no growable buffer is reachable from algorithm code, and sender-side
//! metrics, wire checking, and traffic classification are fused into the
//! send itself. On the delivery side, messages are copied straight into
//! one contiguous, double-buffered inbox arena — solo broadcasts through
//! a dense per-sender payload cache, unicast and mixed traffic through a
//! sender-major staging buffer addressed by a flat reverse-arc table. A
//! round costs `O(m + traffic)` with the `m`-term reduced to sequential
//! walks of dense arrays, message-proportional buffers keep their
//! capacity so steady-state rounds grow nothing, and results are
//! bit-identical for every thread count. See the [`engine` module
//! docs](Engine) for the full design and the [`mailbox` module
//! docs](Ctx) for the send contract.
//!
//! # Parallel execution
//!
//! At `threads > 1` the engine partitions nodes into contiguous,
//! **degree-weighted** chunks (cut points balance `arcs + 4·nodes` per
//! chunk, recomputed on every churn rebuild) and drives all three
//! parallel phases — compute, send staging, delivery placement —
//! through one persistent epoch-barrier [`pool::WorkerPool`] spawned
//! once per run, instead of a fresh `std::thread::scope` per phase per
//! round. Message-plane state (inbox arenas, staging buffers) is
//! per-chunk; the only cross-chunk traffic is read-only access to other
//! chunks' staged sends during placement. Outputs, metrics, and trace
//! structure stay bit-identical for every thread count.
//!
//! **Port numbering is an invariant of the model, not of the message
//! plane:** port `q` of node `v` is always `v`'s `q`-th neighbor in
//! ascending id order (CSR arc order). Protocols written against the old
//! receiver-driven engine observe identical ports, inbox ordering
//! (ascending port, then sender outbox slot), metrics, and fault
//! behavior.
//!
//! # Example: one round of "send your degree, output the max"
//!
//! ```
//! use kw_graph::generators;
//! use kw_sim::wire::{BitReader, BitWriter, WireEncode};
//! use kw_sim::{Ctx, Engine, EngineConfig, Protocol, Status};
//!
//! #[derive(Clone)]
//! struct Deg(u64);
//! impl WireEncode for Deg {
//!     fn encode(&self, w: &mut BitWriter) { w.write_gamma(self.0) }
//!     fn decode(r: &mut BitReader) -> Option<Self> { r.read_gamma().map(Deg) }
//! }
//!
//! struct MaxDegree { my_degree: u64, best: u64 }
//! impl Protocol for MaxDegree {
//!     type Msg = Deg;
//!     type Output = u64;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, Deg>) -> Status {
//!         if ctx.round() == 0 {
//!             ctx.broadcast(Deg(self.my_degree));
//!             Status::Running
//!         } else {
//!             for (_port, msg) in ctx.inbox() {
//!                 self.best = self.best.max(msg.0);
//!             }
//!             Status::Halted
//!         }
//!     }
//!     fn finish(self) -> u64 { self.best }
//! }
//!
//! let g = generators::star(5);
//! let report = Engine::new(&g, EngineConfig::default(), |info| MaxDegree {
//!     my_degree: info.degree as u64,
//!     best: info.degree as u64,
//! })
//! .run(&mut ())?;
//! assert!(report.outputs.iter().all(|&d| d == 4));
//! assert_eq!(report.metrics.rounds, 2);
//! # Ok::<(), kw_sim::SimError>(())
//! ```

// `deny`, not `forbid`: the one sanctioned exception is `pool`, whose
// lifetime-erased job pointer carries a module-local soundness argument.
// Everything else in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod engine;
mod error;
mod mailbox;
mod metrics;
pub mod pool;
pub mod rng;
pub mod wire;

pub use chaos::{Burst, ChaosParseError, ChaosPlan, CrashWindow};
pub use engine::{Engine, EngineConfig, EngineStats, NodeInfo, Observer, RunReport};
pub use error::SimError;
pub use mailbox::{Ctx, Inbox, InboxIter, Sink};
pub use metrics::{RoundMetrics, RunMetrics};

/// Whether a node keeps participating after the current round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// The node expects further rounds.
    Running,
    /// The node is done; it will not be scheduled again.
    Halted,
}

/// A distributed node program for the synchronous LOCAL model.
///
/// One instance runs per node. Implementations are state machines: the
/// engine calls [`on_round`](Protocol::on_round) once per synchronous round,
/// with the messages sent *to* this node in the previous round available via
/// [`Ctx::inbox`], and any messages queued through [`Ctx::send`] /
/// [`Ctx::broadcast`] delivered to neighbors at the start of the next round.
///
/// The only information available to a protocol is what the LOCAL model
/// grants a node: its identifier, its degree (ports `0..degree`), messages
/// received, and private randomness. Graph-global quantities (such as the
/// maximum degree `Δ` required by the paper's Algorithm 2) must be passed in
/// explicitly by the caller, which mirrors the paper's "all nodes know Δ"
/// assumption.
pub trait Protocol: Send {
    /// Message type exchanged with neighbors.
    type Msg: Clone + Send + Sync + wire::WireEncode;
    /// Per-node result extracted after the run.
    type Output: Send;

    /// Executes one synchronous round.
    ///
    /// Round 0 is the first compute step; its inbox is always empty.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Status;

    /// Consumes the node state, producing its output.
    fn finish(self) -> Self::Output;
}
