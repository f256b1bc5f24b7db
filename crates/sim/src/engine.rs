//! The synchronous round-driving engine.
//!
//! # The flat CSR message plane
//!
//! Both halves of a round — sending and receiving — run on flat arrays
//! parallel to the graph's CSR edge array; no per-node `Vec` exists
//! anywhere on the hot path. A round costs `O(m + traffic)` — the
//! `m`-term is each computing node walking its own ports once, while
//! every random-access and cloning cost scales with the traffic actually
//! delivered:
//!
//! 1. the **compute phase** first **gathers** each running node's inbox,
//!    just before its `on_round`, into one small buffer its worker reuses
//!    for every node: walking the node's ports in order, a neighbor that
//!    was a *solo* sender last round contributes its payload from the
//!    previous round's dense solo table, a *staged* sender contributes
//!    its delivered copies from the staging run of the reverse arc
//!    (`rev_edge`, a flat table built in `O(m)` by a counting pass the
//!    first time a round stages traffic), and a quiet one contributes
//!    nothing. Then the node's [`Ctx`] writes its sends through an opaque
//!    [`Sink`](crate::Sink) whose engine implementation appends straight
//!    into a per-node run of a flat send arena (one arena per worker
//!    chunk, reused every round). Sender-side metrics, wire checking,
//!    per-node message counters, run (`outbox`) length publication, and
//!    solo-broadcast detection — exactly one broadcast on a lossless
//!    plan, the dominant shape, whose payload is cached in the dense
//!    solo table — all happen at the moment of the send, while the
//!    message is hot;
//! 2. a **staging pass**, touching only *staged* senders (non-solo,
//!    non-quiet — none at all in broadcast-heavy rounds), counts per
//!    directed arc `u → v` how many copies will be delivered along it
//!    (receiver-side filters applied here: arcs into halted nodes count
//!    zero, and each copy's fate under a fault plan is decided by the
//!    same `(round, sender, receiver, slot)` key the old receiver-driven
//!    scan used), prefix-sums those counts into per-arc `[start, cursor)`
//!    ranges, and clones each staged sender's delivered payloads out of
//!    its arena run into one sender-major staging buffer, in
//!    port-then-slot order;
//! 3. a **swap** ends delivery: the double-buffered solo table hands this
//!    round's payloads to the next round's gathers, and a flag records
//!    whether staging holds traffic for them. No message is copied.
//!
//! Receiver-side filters need no pass of their own: a halted node never
//! computes again, a node that is down in a round does not compute in
//! it, so neither gathers; staged copies to either were already dropped
//! by the staging pass.
//!
//! All message-proportional buffers (send arenas, gather buffers,
//! staging, plan) are reused and keep their capacity, so steady-state
//! rounds perform no buffer growth — asserted by a debug counter
//! ([`EngineStats::buffer_growths`]); multi-threaded rounds still make
//! small `O(threads)` control-structure allocations (chunk tables, boxed
//! per-chunk jobs). Every phase preserves the engine's determinism
//! guarantee: outputs, metrics, and per-node message counts are
//! bit-identical for every thread count, including under fault plans.
//!
//! # Parallel execution: persistent pool + degree-weighted chunks
//!
//! At `threads > 1` the engine partitions nodes into contiguous,
//! **degree-weighted** chunks: cut points are chosen by binary search on
//! the prefix weight `arcs(0..v) + NODE_COST·v`, so each chunk carries
//! roughly equal gather and compute work even on skewed degree
//! distributions (uniform node-count chunks peaked at 1.6–1.7× max/mean
//! busy time on G(n,p); `kwperf` reports the residual as
//! `sim.imbalance`). Boundaries are recomputed on every churn rebuild
//! against the new CSR plane. Both parallel phases — compute (with its
//! gathers) and send staging — are driven by one persistent
//! [`WorkerPool`](crate::pool::WorkerPool) spawned per run: each phase
//! hands the pool one boxed job per chunk and the pool runs them behind a
//! lightweight epoch barrier, replacing the
//! spawn/join-per-phase-per-round `std::thread::scope` pattern whose
//! fork/join overhead was 26–35% of flood wall time.
//!
//! The **message plane is per-chunk**: each chunk owns its send arena,
//! its staging buffer, and its gather buffer, each in its own 128-byte
//! aligned `ChunkSlot` — every send updates a sink's tallies and every
//! gathered message a buffer length, so unpadded neighbors would put two
//! workers' writes on one cache line. The single cross-chunk interaction
//! is the *thin exchange* during the gather: a receiver's worker reads
//! (never writes) the previous round's solo table and the staging buffer
//! of the sender's chunk, located through the dense `node_chunk` table
//! and per-chunk staging bases. Everything downstream addresses sends
//! through the per-node run table, so the chunked layout stays invisible
//! to results.
//!
//! **Port-numbering invariant:** port `q` of node `v` is `v`'s `q`-th
//! neighbor in ascending id order — exactly CSR arc `offsets[v] + q`. The
//! flat plane indexes by arcs but never renumbers ports, so protocols and
//! recorded traffic are unaffected by the layout.
//!
//! Staged (non-solo) deliveries clone a message twice — once into the
//! staging buffer, once into the receiver's gathered inbox. Messages are
//! small wire-encoded values (the paper's are `O(log Δ)` bits), so the
//! extra copy is far cheaper than the outbox rescans it replaces.

use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use kw_graph::{apply_churn, CsrGraph, NodeId};
use kw_trace::{tick_us, RoundSample};

use crate::chaos::ChaosPlan;
use crate::mailbox::{Ctx, Outbound, Sink};
use crate::metrics::{RoundMetrics, RunMetrics};
use crate::pool::WorkerPool;
use crate::rng::node_seed;
use crate::wire::{BitReader, BitWriter, WireEncode};
use crate::{Protocol, SimError, Status};

/// Static facts about a node, passed to the protocol factory.
#[derive(Clone, Copy, Debug)]
pub struct NodeInfo {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's degree (number of incident edges / ports).
    pub degree: usize,
    /// Deterministic per-node RNG seed derived from the run seed.
    pub seed: u64,
}

/// Engine tuning knobs.
///
/// The defaults run sequentially with a generous round budget; callers
/// set `threads` for large graphs. Round-resolved traffic comes from a
/// [`kw_trace::Tracer`], whose per-round samples carry each round's
/// messages and bits.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Abort with [`SimError::MaxRoundsExceeded`] after this many rounds.
    pub max_rounds: usize,
    /// Run seed; per-node seeds are derived from it.
    pub seed: u64,
    /// Worker threads for the parallel phases — compute, which gathers
    /// each node's inbox, and send staging (`<= 1` means sequential).
    /// Results are identical for any thread count.
    pub threads: usize,
    /// Verify that every sent message decodes from its own wire encoding
    /// (a cheap safety net, off by default; conformance tests turn it on).
    pub check_wire: bool,
    /// Chaos model — iid drops, bursts, crashes, byzantine senders, and
    /// churn (defaults to fully reliable).
    pub faults: ChaosPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 1_000_000,
            seed: 0,
            threads: 1,
            check_wire: false,
            faults: ChaosPlan::reliable(),
        }
    }
}

impl EngineConfig {
    /// Config with a specific run seed, other fields default.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..Self::default()
        }
    }
}

/// Outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Aggregated communication metrics.
    pub metrics: RunMetrics,
    /// Total messages sent by each node (validates the paper's `O(k²Δ)`
    /// per-node bound).
    pub node_messages: Vec<u64>,
    /// Internal engine counters.
    pub stats: EngineStats,
}

/// Internal engine counters exposed for allocation-stability tests and
/// tuning, carried by every [`RunReport`].
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// How many rounds grew the capacity of any reusable message-plane
    /// buffer (send arenas, gather buffers, staging, plan). All growth
    /// happens during warm-up; steady-state rounds must not move this
    /// counter.
    pub buffer_growths: u64,
}

/// Hook invoked after every round with read access to all node states.
///
/// Observers power the invariant checkers (Lemmas 2–7) and the Figure-1
/// cascade trace in `kw-core` without widening the `Protocol` interface.
pub trait Observer<P: Protocol> {
    /// Called after round `round`'s compute phase, before delivery.
    fn after_round(&mut self, round: usize, nodes: &[P]);
}

impl<P: Protocol, F: FnMut(usize, &[P])> Observer<P> for F {
    fn after_round(&mut self, round: usize, nodes: &[P]) {
        self(round, nodes)
    }
}

/// The no-op observer: `engine.run(&mut ())` runs unobserved.
impl<P: Protocol> Observer<P> for () {
    fn after_round(&mut self, _round: usize, _nodes: &[P]) {}
}

/// Per-chunk result of the compute phase's fused send accounting.
struct ChunkOut {
    stats: RoundMetrics,
    max_message_bits: usize,
    wire_ok: bool,
    /// Staged (non-solo, non-quiet) senders in this chunk.
    staged: usize,
    /// Inbox entries this chunk's gathers handed to `on_round`.
    gathered: usize,
    /// Byzantine payloads whose corrupted encoding no longer decoded and
    /// were rejected (never delivered, never a panic).
    byz_rejected: u64,
}

impl ChunkOut {
    /// An empty tally (`wire_ok` starts true and is and-ed down).
    fn fresh() -> Self {
        ChunkOut {
            stats: RoundMetrics::default(),
            max_message_bits: 0,
            wire_ok: true,
            staged: 0,
            gathered: 0,
            byz_rejected: 0,
        }
    }
}

/// One worker chunk's element of a per-chunk `Vec`, alone on its own
/// 128-byte span. Every send updates its chunk's sink tallies and arena
/// length, and every gathered message its gather buffer's length, so
/// unpadded neighbors would make two workers write one cache line per
/// message.
#[repr(align(128))]
struct ChunkSlot<T>(T);

/// A gathered inbox: `(port, message)` pairs in `(port, slot)` order.
type InboxBuf<M> = Vec<(u32, M)>;

/// What the previous round left in flight, as this round's gathers read
/// it: the solo table always, the staging tables only when `staged` is
/// set (that round's delivery built staging).
struct Inflight<'a, M> {
    solo: &'a [Option<M>],
    staged: bool,
    rev_edge: &'a [u32],
    plan_ranges: &'a [(u32, u32)],
    node_plan_base: &'a [usize],
    node_chunk: &'a [u32],
    chunk_plan_base: &'a [usize],
    buffers: &'a [ChunkSlot<Vec<M>>],
}

impl<M: Clone> Inflight<'_, M> {
    /// Gathers the inbox of the node whose ports are CSR arcs
    /// `arc_lo..arc_lo + ports.len()` (`ports` holds their targets) into
    /// `buf`, ascending by port: a solo sender's payload, a staged
    /// sender's delivered copies in its send-slot order, nothing from a
    /// quiet one.
    fn gather(&self, arc_lo: usize, ports: &[u32], buf: &mut InboxBuf<M>) {
        buf.clear();
        for (q, &u) in ports.iter().enumerate() {
            let u = u as usize;
            if let Some(m) = &self.solo[u] {
                buf.push((q as u32, m.clone()));
            } else if self.staged && self.node_plan_base[u] < self.node_plan_base[u + 1] {
                let (start, end) = self.plan_ranges[self.rev_edge[arc_lo + q] as usize];
                // Thin cross-chunk exchange: the sender's staged payloads
                // live in its own chunk's buffer; rebase the global plan
                // indices into it.
                let c = self.node_chunk[u] as usize;
                let base = self.chunk_plan_base[c];
                for m in &self.buffers[c].0[start as usize - base..end as usize - base] {
                    buf.push((q as u32, m.clone()));
                }
            }
        }
    }
}

/// The engine's [`Sink`]: appends sends to the current node's run of its
/// flat send arena, charging sender-side metrics and (optionally)
/// verifying wire encodings at the same moment. One instance lives per
/// worker chunk and persists across rounds (so the arena keeps its
/// capacity); [`Ctx`] holds it as a concrete reference, so every staging
/// call — routed through the [`Sink`] trait — dispatches statically and
/// inlines into the protocol's round.
pub(crate) struct StageSink<M> {
    /// The chunk's flat send arena: per-node runs, append-only within a
    /// round, cleared (capacity kept) at the start of the next compute.
    pub(crate) arena: Vec<Outbound<M>>,
    pub(crate) check_wire: bool,
    /// Chunk tallies, reset each round; per-node shares are recovered by
    /// differencing around each `on_round` call.
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) max_message_bits: usize,
    pub(crate) wire_ok: bool,
}

impl<M> StageSink<M> {
    pub(crate) fn new() -> Self {
        StageSink {
            arena: Vec::new(),
            check_wire: false,
            messages: 0,
            bits: 0,
            max_message_bits: 0,
            wire_ok: true,
        }
    }

    /// Resets the per-round state (arena contents and tallies), keeping
    /// the arena's capacity.
    // kw-lint: hot
    fn reset_round(&mut self, check_wire: bool) {
        self.arena.clear();
        self.check_wire = check_wire;
        self.messages = 0;
        self.bits = 0;
        self.max_message_bits = 0;
        self.wire_ok = true;
    }
}

impl<M: WireEncode> StageSink<M> {
    /// Sender-side accounting for one staged send (faults and halted
    /// receivers never reduce what the sender is charged for).
    #[inline]
    // kw-lint: hot
    fn charge(&mut self, msg: &M, copies: u64) {
        let bits = msg.encoded_bits();
        if self.check_wire {
            let mut w = BitWriter::new();
            msg.encode(&mut w);
            // An `encoded_bits` override that disagrees with the real
            // encoding would corrupt the bit accounting.
            if w.bit_len() != bits {
                self.wire_ok = false;
            }
            let bytes = w.into_bytes();
            if M::decode(&mut BitReader::new(&bytes)).is_none() {
                self.wire_ok = false;
            }
        }
        self.messages += copies;
        self.bits += bits as u64 * copies;
        self.max_message_bits = self.max_message_bits.max(bits);
    }
}

impl<M: WireEncode> Sink<M> for StageSink<M> {
    #[inline]
    fn stage_broadcast(&mut self, degree: u32, msg: M) {
        self.charge(&msg, u64::from(degree));
        self.arena.push(Outbound::Broadcast(msg));
    }

    #[inline]
    fn stage_unicast(&mut self, port: u32, msg: M) {
        self.charge(&msg, 1);
        self.arena.push(Outbound::Unicast { port, msg });
    }
}

/// Drives one protocol instance per node of a graph through synchronous
/// rounds until every node halts.
///
/// See the [crate docs](crate) for a complete example and the `engine`
/// module's source docs for the flat-CSR message-plane design.
pub struct Engine<'g, P: Protocol> {
    graph: &'g CsrGraph,
    /// The current topology under a churn script: `None` until the first
    /// churn event applies, then the rebuilt graph. Every phase reads
    /// `churned.as_ref().unwrap_or(graph)`.
    churned: Option<CsrGraph>,
    config: EngineConfig,
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    halted: Vec<bool>,
    /// `rev_edge[e]` = the directed-arc index of the reverse of arc `e`:
    /// if arc `e` is port `q` of `v` pointing at `u`, then `rev_edge[e]` is
    /// the arc of `u` pointing back at `v`. Built in `O(m)` by a counting
    /// pass the first time a delivery builds staging, and again at the
    /// first staged round after a churn rebuild clears it; empty until
    /// then, because solo traffic never reads it. This is what lets a
    /// receiver's gather find the staging run a sender aimed at it
    /// without searching.
    rev_edge: Vec<u32>,
    /// The send half of the message plane: one [`StageSink`] per worker
    /// chunk (flat arena + metric tallies), written append-only during
    /// compute and read by staging during delivery. Arenas clear
    /// (capacity kept) every round.
    sinks: Vec<ChunkSlot<StageSink<P::Msg>>>,
    /// One reused inbox buffer per worker chunk: the gather fills it with
    /// a node's inbox just before that node's `on_round`.
    gather: Vec<ChunkSlot<InboxBuf<P::Msg>>>,
    /// Per node: `(start, len)` of this round's sends within its chunk's
    /// send arena — the send-time publication of what used to be
    /// `outbox_len`, plus the address staging needs to read the run.
    runs: Vec<(u32, u32)>,
    /// Per node: the payload of a sender whose round is exactly one
    /// broadcast on a reliable network — the dominant traffic shape,
    /// which receivers gather from this dense cache without staging.
    /// Detected at send time. The write half of a double buffer: the swap
    /// at the end of delivery hands it to the next round as `solo_prev`.
    solo: Vec<Option<P::Msg>>,
    /// The previous round's `solo`, read by this round's gathers. Emptied
    /// at the start of a drive and on every churn rebuild, which drop the
    /// messages in flight.
    solo_prev: Vec<Option<P::Msg>>,
    /// Staged (non-solo, non-quiet) senders this round; when zero, the
    /// entire staging half of delivery is skipped.
    staged_senders: usize,
    /// Whether the previous round's delivery built staging: only then do
    /// this round's gathers read `plan_ranges`, `node_plan_base` and
    /// `staged`, which otherwise hold an older round's tables.
    staged_prev: bool,
    /// Per directed arc of each *staged* sender: copies delivered along it
    /// this round.
    send_counts: Vec<u32>,
    /// Per directed arc of each staged sender: its `[start, cursor)` run in
    /// `plan`/`staged` (the cursor advances during the staging pass and
    /// ends at the run's end).
    plan_ranges: Vec<(u32, u32)>,
    /// Staging-buffer base index per node (`n + 1` entries; a sender's runs
    /// are contiguous, so these are also the parallel-chunk boundaries).
    node_plan_base: Vec<usize>,
    /// Send-run slot index of every staged delivery, in staging order
    /// (global indices across chunks).
    plan: Vec<u32>,
    /// Payload clones of every staged delivery, one buffer per sender
    /// chunk; `plan_ranges` indices are global and rebase through
    /// `chunk_plan_base`. The next round's gathers read other chunks'
    /// buffers read-only (the thin cross-chunk exchange).
    staged: Vec<ChunkSlot<Vec<P::Msg>>>,
    /// `chunk_plan_base[c]` = global staging index where chunk `c`'s
    /// buffer starts (`chunks + 1` entries); filled by `plan_staged`.
    chunk_plan_base: Vec<usize>,
    node_messages: Vec<u64>,
    /// Degree-weighted chunk boundaries (`chunks + 1` entries, `bounds[0]
    /// = 0`, `bounds[chunks] = n`): chunk `c` owns nodes
    /// `bounds[c]..bounds[c + 1]`. Identical for every phase, so a
    /// chunk's send arena is always read by the worker that owns the
    /// chunk's nodes; recomputed on every churn rebuild.
    bounds: Vec<usize>,
    /// Dense node → owning-chunk table, parallel to `bounds`; lets a
    /// gather locate a cross-chunk sender's staging buffer in O(1).
    node_chunk: Vec<u32>,
    chunks: usize,
    /// Per-chunk `(start, end)` tick pairs of the most recent parallel
    /// phase, microseconds from the tracer origin. Workers fill their
    /// slot by value; the driving thread flushes the slice into the
    /// tracer after the join ([`kw_trace::Tracer::end_parallel`]), so no
    /// worker ever touches the (thread-local) tracer. Fixed-size, only
    /// written when a tracer is installed; deliberately not part of
    /// [`plane_capacity`](Self::plane_capacity) — it is profiling state,
    /// not message-plane state.
    chunk_ticks: Vec<(u64, u64)>,
    /// Debug counter: how many rounds grew any reusable buffer's capacity.
    /// Steady-state rounds must not move this.
    buffer_growths: u64,
    /// How many times a churn event forced a CSR-plane rebuild.
    graph_rebuilds: u64,
    /// Total buffer capacity after the previous round, for the growth
    /// counter (capacities never shrink, so a sum increase means some
    /// buffer grew — whether during compute or delivery).
    last_plane_capacity: usize,
}

impl<'g, P: Protocol> Engine<'g, P> {
    /// Builds an engine, constructing one protocol instance per node via
    /// `factory`.
    ///
    /// # Panics
    ///
    /// Construction checks nothing. The first round that delivers staged
    /// traffic (anything but one broadcast per sender on a lossless plan:
    /// unicasts, several sends, any send under loss) builds the
    /// reverse-arc table, and [`Engine::run`] panics there if the graph's
    /// adjacency is asymmetric (some `v` lists `u` but `u` does not list
    /// `v`) — impossible for any [`CsrGraph`], whose builders enforce
    /// symmetry.
    pub fn new(
        graph: &'g CsrGraph,
        config: EngineConfig,
        mut factory: impl FnMut(NodeInfo) -> P,
    ) -> Self {
        let n = graph.len();
        let arcs = graph.num_arcs();
        let mut nodes = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        for v in 0..n {
            let seed = node_seed(config.seed, v as u32);
            let info = NodeInfo {
                id: NodeId::new(v),
                degree: graph.degree(NodeId::new(v)),
                seed,
            };
            nodes.push(factory(info));
            rngs.push(SmallRng::seed_from_u64(seed));
        }
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            config.threads
        };
        let chunks = if threads <= 1 || n < 2 * threads {
            1
        } else {
            threads
        };
        let bounds = chunk_bounds(graph.offsets(), chunks);
        let mut node_chunk = Vec::new();
        fill_node_chunk(&mut node_chunk, &bounds);
        let per_node = || (0..n).map(|_| None).collect::<Vec<_>>();
        Engine {
            graph,
            churned: None,
            config,
            nodes,
            rngs,
            halted: vec![false; n],
            rev_edge: Vec::new(),
            sinks: (0..chunks).map(|_| ChunkSlot(StageSink::new())).collect(),
            gather: (0..chunks).map(|_| ChunkSlot(Vec::new())).collect(),
            runs: vec![(0, 0); n],
            solo: per_node(),
            solo_prev: per_node(),
            staged_senders: 0,
            staged_prev: false,
            send_counts: vec![0; arcs],
            plan_ranges: vec![(0, 0); arcs],
            node_plan_base: vec![0; n + 1],
            plan: Vec::new(),
            staged: (0..chunks).map(|_| ChunkSlot(Vec::new())).collect(),
            chunk_plan_base: vec![0; chunks + 1],
            node_messages: vec![0; n],
            bounds,
            node_chunk,
            chunks,
            chunk_ticks: vec![(0, 0); chunks],
            buffer_growths: 0,
            graph_rebuilds: 0,
            last_plane_capacity: 0,
        }
    }

    /// Runs to completion, invoking `observer` after every round (pass
    /// `&mut ()` to run unobserved).
    ///
    /// # Errors
    ///
    /// [`SimError::MaxRoundsExceeded`] if any node is still running at the
    /// configured limit; [`SimError::WireMismatch`] if wire checking is on
    /// and a message fails to decode.
    pub fn run(mut self, observer: &mut dyn Observer<P>) -> Result<RunReport<P::Output>, SimError> {
        let metrics = self.drive(observer)?;
        Ok(RunReport {
            outputs: self.nodes.into_iter().map(P::finish).collect(),
            metrics,
            node_messages: self.node_messages,
            stats: EngineStats {
                buffer_growths: self.buffer_growths,
            },
        })
    }

    /// The round loop, separated from output extraction so tests can
    /// inspect engine state (e.g. the allocation counter) after a run.
    ///
    /// When a [`kw_trace::Tracer`] is installed on the driving thread,
    /// every round emits a `round` span with `compute`/`plan`/`send`/
    /// `deliver` phase children — the parallel `compute` and `send` with
    /// per-chunk worker-track spans and a synthetic `barrier` (fork/join
    /// overhead) span each — and one [`RoundSample`]; see the span
    /// taxonomy in the `kw_trace` crate docs. Untraced runs pay exactly
    /// one thread-local read, here.
    fn drive(&mut self, observer: &mut dyn Observer<P>) -> Result<RunMetrics, SimError> {
        // Round 0 must see empty inboxes even if this engine value was
        // driven before (a prior drive leaves its final sends in flight):
        // repeated drives reuse no stale plane state.
        self.drop_inflight();
        let mut metrics = RunMetrics::default();
        let has_down = self.config.faults.has_down();
        let has_churn = self.config.faults.has_churn();
        let origin = kw_trace::origin();
        let trace = origin.is_some();
        // One persistent pool for the whole run: the driving thread is
        // chunk 0's worker, so `chunks - 1` threads suffice. Dropped (and
        // joined) when `drive` returns — including during an unwind, so a
        // panicking protocol can never leak pool threads.
        let pool = (self.chunks > 1).then(|| WorkerPool::new(self.chunks - 1));
        let mut pool_seen = (0u64, 0u64);
        let mut round = 0usize;
        loop {
            if round >= self.config.max_rounds {
                return Err(SimError::MaxRoundsExceeded {
                    limit: self.config.max_rounds,
                });
            }
            if trace {
                kw_trace::with_active(|t| t.begin("round"));
            }
            if has_churn {
                if trace {
                    kw_trace::with_active(|t| t.begin("churn"));
                }
                self.apply_churn_at(round);
                if trace {
                    kw_trace::with_active(|t| t.end());
                }
            }
            if trace {
                kw_trace::with_active(|t| t.begin("compute"));
            }
            let out = self.compute_phase(round, origin, pool.as_ref());
            if trace {
                kw_trace::with_active(|t| {
                    t.end_parallel("compute", &self.chunk_ticks[..self.chunks])
                });
            }
            metrics.rounds = round + 1;
            observer.after_round(round, &self.nodes);
            if !out.wire_ok {
                return Err(SimError::WireMismatch { round });
            }
            metrics.messages += out.stats.messages;
            metrics.bits += out.stats.bits;
            metrics.byz_rejected += out.byz_rejected;
            metrics.max_message_bits = metrics.max_message_bits.max(out.max_message_bits);
            self.staged_senders = out.staged;
            if trace {
                let active = self.halted.iter().filter(|h| !**h).count() as u64;
                let arena_bytes = (out.gathered * std::mem::size_of::<(u32, P::Msg)>()) as u64;
                // Pool counters are cumulative; the sample carries the
                // delta since the previous sample (this round's compute
                // plus the previous round's delivery). Observability
                // only: excluded from structural equality and hashing,
                // which must stay thread-invariant.
                let (pw, pi) = pool.as_ref().map_or((0, 0), |p| p.counters());
                let (dw, di) = (pw - pool_seen.0, pi - pool_seen.1);
                pool_seen = (pw, pi);
                kw_trace::with_active(|t| {
                    t.sample(RoundSample {
                        round: round as u32,
                        messages: out.stats.messages,
                        bits: out.stats.bits,
                        active,
                        arena_bytes,
                        rebuilds: self.graph_rebuilds,
                        pool_wakeups: dw,
                        pool_idle: di,
                    })
                });
            }
            let finished = if has_down {
                // A node that is down for every remaining round can never
                // run again; treating it as terminated keeps crash-forever
                // and leave-without-rejoin schedules from spinning to the
                // round limit.
                let faults = &self.config.faults;
                self.halted
                    .iter()
                    .enumerate()
                    .all(|(v, &h)| h || faults.down_forever(v as u32, round + 1))
            } else {
                self.halted.iter().all(|&h| h)
            };
            if finished {
                // No delivery follows the final round, so sample buffer
                // capacities here: the last compute phase may still have
                // grown a send arena.
                self.note_plane_capacity();
                if trace {
                    kw_trace::with_active(|t| t.end());
                }
                break;
            }
            self.delivery_phase(round, origin, pool.as_ref());
            if trace {
                kw_trace::with_active(|t| t.end());
            }
            round += 1;
        }
        metrics.max_node_messages = self.node_messages.iter().copied().max().unwrap_or(0);
        metrics.graph_rebuilds = self.graph_rebuilds;
        Ok(metrics)
    }

    /// Applies the chaos plan's churn events scheduled for `round` (a
    /// no-op when none are): the topology is rebuilt from the original
    /// graph plus the full event prefix up to and including this round,
    /// the CSR-parallel planes (per-arc staging state now, reverse arcs at
    /// the next staged round) are rebuilt against the new arc layout, and
    /// in-flight messages are dropped — a message sent across a churn
    /// boundary never arrives, matching the view that the boundary is a
    /// topology reconfiguration.
    fn apply_churn_at(&mut self, round: usize) {
        if self.config.faults.churn_events_at(round).is_empty() {
            return;
        }
        let rebuilt = {
            let events = self.config.faults.churn();
            let applied = events.partition_point(|e| e.round <= round);
            apply_churn(self.graph, &events[..applied])
        };
        self.rev_edge.clear();
        let arcs = rebuilt.num_arcs();
        self.send_counts.clear();
        self.send_counts.resize(arcs, 0);
        self.plan_ranges.clear();
        self.plan_ranges.resize(arcs, (0, 0));
        // Re-balance the degree-weighted partition against the new CSR
        // plane (the chunk *count* is fixed for the run; only the cut
        // points move). Deterministic: a pure function of the rebuilt
        // offsets, so thread-invariance survives churn.
        self.bounds = chunk_bounds(rebuilt.offsets(), self.chunks);
        fill_node_chunk(&mut self.node_chunk, &self.bounds);
        // Drop in-flight messages: every inbox reads empty this round.
        self.drop_inflight();
        self.churned = Some(rebuilt);
        self.graph_rebuilds += 1;
    }

    /// Drops the messages in flight, so this round's gathers read empty
    /// inboxes.
    fn drop_inflight(&mut self) {
        self.solo_prev.fill(None);
        self.staged_prev = false;
    }

    /// Calls `on_round` on every running node, each with the inbox its
    /// worker just gathered from the previous round's send tables. Sends
    /// stage directly into the flat send arenas through [`StageSink`],
    /// which also performs the fused sender-side accounting — the
    /// per-chunk tallies come back in the returned [`ChunkOut`].
    fn compute_phase(
        &mut self,
        round: usize,
        origin: Option<Instant>,
        pool: Option<&WorkerPool>,
    ) -> ChunkOut {
        let graph = self.churned.as_ref().unwrap_or(self.graph);
        let faults = &self.config.faults;
        let check_wire = self.config.check_wire;
        let chunks = self.chunks;
        let inflight = Inflight {
            solo: &self.solo_prev,
            staged: self.staged_prev,
            rev_edge: &self.rev_edge,
            plan_ranges: &self.plan_ranges,
            node_plan_base: &self.node_plan_base,
            node_chunk: &self.node_chunk,
            chunk_plan_base: &self.chunk_plan_base,
            buffers: &self.staged,
        };
        if chunks == 1 {
            let start = origin.map(tick_us);
            let out = Self::compute_range(
                graph,
                round,
                0,
                &mut self.nodes,
                &mut self.rngs,
                &mut self.halted,
                &mut self.sinks[0].0,
                &mut self.gather[0].0,
                &mut self.runs,
                &mut self.solo,
                &mut self.node_messages,
                &inflight,
                faults,
                check_wire,
            );
            if let (Some(s0), Some(o)) = (start, origin) {
                self.chunk_ticks[0] = (s0, tick_us(o));
            }
            return out;
        }
        let pool = pool.expect("multi-chunk phases run on the worker pool");
        let bounds = &self.bounds;
        let nodes = split_at_bounds(&mut self.nodes, bounds);
        let rngs = split_at_bounds(&mut self.rngs, bounds);
        let halted = split_at_bounds(&mut self.halted, bounds);
        let runs = split_at_bounds(&mut self.runs, bounds);
        let solos = split_at_bounds(&mut self.solo, bounds);
        let messages = split_at_bounds(&mut self.node_messages, bounds);
        let sinks = self.sinks[..chunks].iter_mut();
        let gathers = self.gather[..chunks].iter_mut();
        let ticks = self.chunk_ticks[..chunks].iter_mut();
        let inflight = &inflight;
        let outs: Vec<Mutex<Option<ChunkOut>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks);
        for (i, (((((((nc, rc), hc), runc), sc), mc), sk), (gb, tick))) in nodes
            .into_iter()
            .zip(rngs)
            .zip(halted)
            .zip(runs)
            .zip(solos)
            .zip(messages)
            .zip(sinks)
            .zip(gathers.zip(ticks))
            .enumerate()
        {
            let lo = bounds[i];
            let out_slot = &outs[i];
            jobs.push(Box::new(move || {
                let start = origin.map(tick_us);
                let out = Self::compute_range(
                    graph, round, lo, nc, rc, hc, &mut sk.0, &mut gb.0, runc, sc, mc, inflight,
                    faults, check_wire,
                );
                if let (Some(s0), Some(o)) = (start, origin) {
                    *tick = (s0, tick_us(o));
                }
                *out_slot.lock().expect("chunk out slot") = Some(out);
            }));
        }
        run_jobs(pool, jobs);
        outs.into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("chunk out slot")
                    .expect("every chunk ran")
            })
            .fold(ChunkOut::fresh(), |mut a, o| {
                a.stats.accumulate(o.stats);
                a.max_message_bits = a.max_message_bits.max(o.max_message_bits);
                a.wire_ok &= o.wire_ok;
                a.staged += o.staged;
                a.gathered += o.gathered;
                a.byz_rejected += o.byz_rejected;
                a
            })
    }

    /// [`compute_phase`](Self::compute_phase) over one node chunk: gathers
    /// each running node's inbox into the chunk's reused `gather` buffer
    /// and stages its sends into the chunk's send arena.
    #[allow(clippy::too_many_arguments)]
    // kw-lint: hot
    fn compute_range(
        graph: &CsrGraph,
        round: usize,
        base: usize,
        nodes: &mut [P],
        rngs: &mut [SmallRng],
        halted: &mut [bool],
        sink: &mut StageSink<P::Msg>,
        gather: &mut InboxBuf<P::Msg>,
        runs: &mut [(u32, u32)],
        solo: &mut [Option<P::Msg>],
        node_messages: &mut [u64],
        inflight: &Inflight<'_, P::Msg>,
        faults: &ChaosPlan,
        check_wire: bool,
    ) -> ChunkOut {
        sink.reset_round(check_wire);
        let offsets = graph.offsets();
        let targets = graph.targets();
        let lossless = faults.lossless();
        let has_down = faults.has_down();
        let has_byz = faults.has_byzantine();
        let mut staged = 0usize;
        let mut gathered = 0usize;
        let mut byz_rejected = 0u64;
        for (j, node) in nodes.iter_mut().enumerate() {
            let v = base + j;
            if halted[j] || (has_down && faults.is_down(v as u32, round)) {
                // A halted node is done; a down (crashed or churned-out)
                // node neither computes nor sends, but keeps its protocol
                // state frozen until recovery.
                runs[j] = (0, 0);
                solo[j] = None;
                continue;
            }
            let arc_lo = offsets[v] as usize;
            let arc_hi = offsets[v + 1] as usize;
            inflight.gather(arc_lo, &targets[arc_lo..arc_hi], gather);
            gathered += gather.len();
            let run_start = sink.arena.len();
            let messages_before = sink.messages;
            let mut ctx = Ctx {
                node: NodeId::new(v),
                degree: (arc_hi - arc_lo) as u32,
                round,
                inbox: &gather[..],
                sink: &mut *sink,
                rng: &mut rngs[j],
            };
            if node.on_round(&mut ctx) == Status::Halted {
                halted[j] = true;
            }
            node_messages[j] += sink.messages - messages_before;
            let mut len = sink.arena.len() - run_start;
            if has_byz && len > 0 && faults.is_byzantine(v as u32) {
                byz_rejected += Self::garble_run(faults, sink, run_start, round, v as u32);
                len = sink.arena.len() - run_start;
            }
            runs[j] = (run_start as u32, len as u32);
            solo[j] = match sink.arena.get(run_start) {
                Some(Outbound::Broadcast(m)) if lossless && len == 1 => Some(m.clone()),
                _ => None,
            };
            if solo[j].is_none() && len > 0 {
                staged += 1;
            }
        }
        // Run starts/lengths were truncated to u32 above; one check of the
        // final arena length covers every prefix.
        assert!(
            u32::try_from(sink.arena.len()).is_ok(),
            "more than u32::MAX staged sends in one round chunk"
        );
        ChunkOut {
            stats: RoundMetrics {
                messages: sink.messages,
                bits: sink.bits,
            },
            max_message_bits: sink.max_message_bits,
            wire_ok: sink.wire_ok,
            staged,
            gathered,
            byz_rejected,
        }
    }

    /// Garbles the just-staged run of byzantine sender `sender` (the run
    /// is at the arena tail, so compaction is a truncate): each payload's
    /// wire encoding is corrupted by the chaos plan's deterministic
    /// bit-flip process and decoded back. Payloads that still decode are
    /// delivered in garbled form (addressing preserved); payloads whose
    /// corruption no longer decodes are compacted out of the run and
    /// counted — never delivered, never a panic. Sender-side metrics keep
    /// the original charge: the byzantine node did transmit, the garbling
    /// happens on the wire.
    // kw-lint: hot
    fn garble_run(
        faults: &ChaosPlan,
        sink: &mut StageSink<P::Msg>,
        run_start: usize,
        round: usize,
        sender: u32,
    ) -> u64 {
        let mut rejected = 0u64;
        let mut kept = run_start;
        for slot in 0..sink.arena.len() - run_start {
            let mut w = BitWriter::new();
            sink.arena[run_start + slot].payload().encode(&mut w);
            let mut bytes = w.into_bytes();
            faults.corrupt(&mut bytes, round, sender, slot as u32);
            match P::Msg::decode(&mut BitReader::new(&bytes)) {
                Some(msg) => {
                    let garbled = match &sink.arena[run_start + slot] {
                        Outbound::Broadcast(_) => Outbound::Broadcast(msg),
                        Outbound::Unicast { port, .. } => Outbound::Unicast { port: *port, msg },
                    };
                    sink.arena[kept] = garbled;
                    kept += 1;
                }
                None => rejected += 1,
            }
        }
        sink.arena.truncate(kept);
        rejected
    }

    /// Sender-indexed delivery: counts staged deliveries per arc,
    /// prefix-sums them, stages payload clones in sender-major order, then
    /// hands this round's tables to the next round's gathers. The entire
    /// staging half is skipped when the round had no staged senders (the
    /// broadcast-heavy common case), leaving only the swap.
    // kw-lint: hot
    fn delivery_phase(&mut self, round: usize, origin: Option<Instant>, pool: Option<&WorkerPool>) {
        let trace = origin.is_some();
        // `plan` (sequential count + prefix), `send` (parallel staging)
        // and `deliver` (sequential table swap) spans are emitted even
        // when the traffic shape skips a sub-phase: skips depend on
        // staged traffic, never on the thread count, so the span tree
        // stays structurally identical across 1/2/8 threads.
        if trace {
            kw_trace::with_active(|t| t.begin("plan"));
        }
        let plan_total = if self.staged_senders > 0 {
            self.plan_staged(round)
        } else {
            0
        };
        if trace {
            kw_trace::with_active(|t| t.end());
            kw_trace::with_active(|t| t.begin("send"));
        }
        let built = plan_total > 0;
        if built {
            if self.rev_edge.is_empty() {
                // First staged round since construction or the last churn
                // rebuild: the next round's gathers need the reverse arcs.
                self.rev_edge = build_rev_edge(self.churned.as_ref().unwrap_or(self.graph));
            }
            self.build_staging(round, plan_total, origin, pool);
        }
        if trace {
            let ticks = &self.chunk_ticks[..if built { self.chunks } else { 0 }];
            kw_trace::with_active(|t| t.end_parallel("send", ticks));
            kw_trace::with_active(|t| t.begin("deliver"));
        }
        // Nothing is copied per message: the next round's gathers read
        // this round's solo table and, when it was built, its staging.
        std::mem::swap(&mut self.solo, &mut self.solo_prev);
        self.staged_prev = built;
        if trace {
            kw_trace::with_active(|t| t.end());
        }
        self.note_plane_capacity();
    }

    /// Samples the total buffer capacity and bumps the growth counter if
    /// it rose since the last sample. Called at the end of every delivery
    /// phase and once more when the run ends (the final round's compute
    /// phase can grow send arenas even though no delivery follows it).
    fn note_plane_capacity(&mut self) {
        let cap = self.plane_capacity();
        if cap > self.last_plane_capacity {
            self.buffer_growths += 1;
        }
        self.last_plane_capacity = cap;
    }

    /// Total capacity of all reusable message-plane buffers, for the
    /// steady-state allocation check (capacities never shrink, so a sum
    /// increase means some buffer grew this round — during compute-phase
    /// staging or during delivery).
    fn plane_capacity(&self) -> usize {
        self.gather.iter().map(|g| g.0.capacity()).sum::<usize>()
            + self.plan.capacity()
            + self.staged.iter().map(|s| s.0.capacity()).sum::<usize>()
            + self
                .sinks
                .iter()
                .map(|s| s.0.arena.capacity())
                .sum::<usize>()
    }

    /// One sequential pass over staged senders that counts, per directed
    /// arc, how many copies will be delivered along it this round —
    /// receiver-side filters (halted receivers, fault drops keyed
    /// `(round, sender, receiver, slot)` with `slot` the index within the
    /// sender's run) are applied here — and immediately prefix-sums each
    /// sender's counts into `plan_ranges`/`node_plan_base`. Counting and
    /// prefixing are fused so a sender's run and arc counts are touched
    /// exactly once, while still L1-hot; quiet and solo senders cost one
    /// dense table read each. Returns the total number of staged
    /// deliveries.
    // kw-lint: hot
    fn plan_staged(&mut self, round: usize) -> usize {
        let n = self.nodes.len();
        let graph = self.churned.as_ref().unwrap_or(self.graph);
        let offsets = graph.offsets();
        let targets = graph.targets();
        let halted = &self.halted;
        let runs = &self.runs;
        let solo = &self.solo;
        let sinks = &self.sinks;
        let bounds = &self.bounds;
        let send_counts = &mut self.send_counts;
        let plan_ranges = &mut self.plan_ranges;
        let node_plan_base = &mut self.node_plan_base;
        let faults = &self.config.faults;
        let lossless = faults.lossless();
        let has_down = faults.has_down();
        // Messages delivered this round are read next round, so the
        // receiver-side liveness filter looks one round ahead.
        let next = round + 1;
        let mut plan_total = 0usize;
        // Chunk boundaries are irregular (degree-weighted), so walk the
        // owning chunk with a cursor instead of dividing by a fixed size.
        let mut c = 0usize;
        for (u, &(start, len)) in runs.iter().enumerate() {
            node_plan_base[u] = plan_total;
            while u >= bounds[c + 1] {
                c += 1;
            }
            if len == 0 || solo[u].is_some() {
                continue;
            }
            let arena = &sinks[c].0.arena;
            let run = &arena[start as usize..(start as usize + len as usize)];
            let arc_lo = offsets[u] as usize;
            let degree = offsets[u + 1] as usize - arc_lo;
            let counts = &mut send_counts[arc_lo..arc_lo + degree];
            counts.fill(0);
            if lossless {
                let mut broadcasts = 0u32;
                for out in run {
                    match out {
                        Outbound::Broadcast(_) => broadcasts += 1,
                        Outbound::Unicast { port, .. } => counts[*port as usize] += 1,
                    }
                }
                for (p, c) in counts.iter_mut().enumerate() {
                    let v = targets[arc_lo + p];
                    if halted[v as usize] || (has_down && faults.is_down(v, next)) {
                        *c = 0;
                    } else {
                        *c += broadcasts;
                    }
                }
            } else {
                for (slot, out) in run.iter().enumerate() {
                    match out {
                        Outbound::Broadcast(_) => {
                            for (p, c) in counts.iter_mut().enumerate() {
                                let v = targets[arc_lo + p];
                                if !(halted[v as usize]
                                    || (has_down && faults.is_down(v, next))
                                    || faults.drops(round, u as u32, v, slot as u32))
                                {
                                    *c += 1;
                                }
                            }
                        }
                        Outbound::Unicast { port, .. } => {
                            let p = *port as usize;
                            let v = targets[arc_lo + p];
                            if !(halted[v as usize]
                                || (has_down && faults.is_down(v, next))
                                || faults.drops(round, u as u32, v, slot as u32))
                            {
                                counts[p] += 1;
                            }
                        }
                    }
                }
            }
            for (p, &c) in counts.iter().enumerate() {
                plan_ranges[arc_lo + p] = (plan_total as u32, plan_total as u32);
                plan_total += c as usize;
            }
        }
        node_plan_base[n] = plan_total;
        // Publish where each chunk's staging buffer starts in the global
        // index space; gathers rebase cross-chunk reads through this.
        for (i, base) in self.chunk_plan_base.iter_mut().enumerate() {
            *base = node_plan_base[bounds[i]];
        }
        assert!(
            u32::try_from(plan_total).is_ok(),
            "more than u32::MAX staged deliveries in one round"
        );
        plan_total
    }

    /// Fills `plan` (send-run slot of every staged delivery, grouped by
    /// sender arc, slot-ascending within an arc) and the per-chunk
    /// `staged` buffers (the matching payload clones) for all staged
    /// senders, reading each sender's run from its chunk's send arena.
    /// The fault/halted filter re-evaluates the same `(round, sender,
    /// receiver, slot)` keys `plan_staged` used, so the cursors land
    /// exactly at each range's end.
    fn build_staging(
        &mut self,
        round: usize,
        plan_total: usize,
        origin: Option<Instant>,
        pool: Option<&WorkerPool>,
    ) {
        let n = self.nodes.len();
        let graph = self.churned.as_ref().unwrap_or(self.graph);
        let offsets = graph.offsets();
        let targets = graph.targets();
        let halted = &self.halted;
        let runs = &self.runs;
        let solo = &self.solo;
        let node_plan_base = &self.node_plan_base;
        let faults = &self.config.faults;
        let lossless = faults.lossless();
        let has_down = faults.has_down();
        let next = round + 1;
        let chunks = self.chunks;
        self.plan.resize(plan_total, 0);
        // Writes one sender's plan entries via the per-arc cursors, then
        // immediately stages that sender's payloads (its run is hot).
        let fill = |base: usize,
                    len: usize,
                    plan_base: usize,
                    arena: &[Outbound<P::Msg>],
                    plan_chunk: &mut [u32],
                    ranges: &mut [(u32, u32)],
                    sink: &mut Vec<P::Msg>| {
            let arc_base = offsets[base] as usize;
            for u in base..base + len {
                let (start, rlen) = runs[u];
                if rlen == 0 || solo[u].is_some() {
                    continue;
                }
                let run = &arena[start as usize..(start as usize + rlen as usize)];
                let arc_lo = offsets[u] as usize;
                let degree = offsets[u + 1] as usize - arc_lo;
                for (slot, out) in run.iter().enumerate() {
                    match out {
                        Outbound::Broadcast(_) => {
                            for p in 0..degree {
                                let v = targets[arc_lo + p];
                                if !(halted[v as usize]
                                    || (has_down && faults.is_down(v, next))
                                    || (!lossless && faults.drops(round, u as u32, v, slot as u32)))
                                {
                                    let cursor = &mut ranges[arc_lo + p - arc_base].1;
                                    plan_chunk[*cursor as usize - plan_base] = slot as u32;
                                    *cursor += 1;
                                }
                            }
                        }
                        Outbound::Unicast { port, .. } => {
                            let p = *port as usize;
                            let v = targets[arc_lo + p];
                            if !(halted[v as usize]
                                || (has_down && faults.is_down(v, next))
                                || (!lossless && faults.drops(round, u as u32, v, slot as u32)))
                            {
                                let cursor = &mut ranges[arc_lo + p - arc_base].1;
                                plan_chunk[*cursor as usize - plan_base] = slot as u32;
                                *cursor += 1;
                            }
                        }
                    }
                }
                for &slot in
                    &plan_chunk[node_plan_base[u] - plan_base..node_plan_base[u + 1] - plan_base]
                {
                    sink.push(run[slot as usize].payload().clone());
                }
            }
        };
        if chunks == 1 {
            let start = origin.map(tick_us);
            self.staged[0].0.clear();
            fill(
                0,
                n,
                0,
                &self.sinks[0].0.arena,
                &mut self.plan[..plan_total],
                &mut self.plan_ranges,
                &mut self.staged[0].0,
            );
            if let (Some(s0), Some(o)) = (start, origin) {
                self.chunk_ticks[0] = (s0, tick_us(o));
            }
            return;
        }
        let pool = pool.expect("multi-chunk phases run on the worker pool");
        let bounds = &self.bounds;
        // A sender chunk's plan entries are contiguous (staging bases are
        // monotone in node order), so the plan, the range table, the send
        // arenas, and the staging output all split at the same chunk
        // boundaries — each worker reads the arena its compute pass wrote
        // and fills its own chunk's staging buffer in place (no splice).
        let ranges = split_at_arcs(&mut self.plan_ranges, offsets, bounds);
        let chunk_plan_base = &self.chunk_plan_base;
        let mut plans = Vec::with_capacity(chunks);
        let mut rest = &mut self.plan[..plan_total];
        for i in 0..chunks {
            let (head, tail) = rest.split_at_mut(chunk_plan_base[i + 1] - chunk_plan_base[i]);
            plans.push(head);
            rest = tail;
        }
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks);
        for (i, ((((pc, rc), sink), sk), tick)) in plans
            .into_iter()
            .zip(ranges)
            .zip(self.staged[..chunks].iter_mut())
            .zip(&self.sinks[..chunks])
            .zip(self.chunk_ticks[..chunks].iter_mut())
            .enumerate()
        {
            let base = bounds[i];
            let len = bounds[i + 1] - base;
            let plan_base = chunk_plan_base[i];
            let fill = &fill;
            jobs.push(Box::new(move || {
                let start = origin.map(tick_us);
                sink.0.clear();
                fill(base, len, plan_base, &sk.0.arena, pc, rc, &mut sink.0);
                if let (Some(s0), Some(o)) = (start, origin) {
                    *tick = (s0, tick_us(o));
                }
            }));
        }
        run_jobs(pool, jobs);
    }
}

/// Builds the reverse-arc table of `graph` in one O(m) counting pass:
/// scanning all arcs in (sender, port) order visits the in-arcs of every
/// node `u` in ascending sender order, which is exactly `u`'s sorted
/// adjacency order — so the next free slot of `u` is the reverse arc.
/// Called by the first delivery that builds staging, and again by the
/// first one after every churn rebuild.
///
/// # Panics
///
/// Panics if the graph's adjacency is asymmetric — impossible for graphs
/// built through [`kw_graph::GraphBuilder`], which enforces symmetry.
fn build_rev_edge(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.len();
    let offsets = graph.offsets();
    let targets = graph.targets();
    let mut rev_edge = vec![0u32; graph.num_arcs()];
    let mut next_in: Vec<u32> = offsets[..n].to_vec();
    for v in 0..n {
        for e in offsets[v] as usize..offsets[v + 1] as usize {
            let u = targets[e] as usize;
            let r = next_in[u] as usize;
            assert!(
                r < offsets[u + 1] as usize && targets[r] as usize == v,
                "asymmetric adjacency: node {v} lists {u} as a neighbor, \
                 but {u} does not list {v} back"
            );
            next_in[u] = r as u32 + 1;
            rev_edge[e] = r as u32;
        }
    }
    rev_edge
}

/// Splits `slice` (one entry per directed arc) into per-node-chunk slices
/// whose boundaries follow the CSR offsets at the chunk `bounds`, so
/// arc-indexed state can be handed to the same worker that owns the node
/// chunk.
fn split_at_arcs<'a, T>(slice: &'a mut [T], offsets: &[u32], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let chunks = bounds.len() - 1;
    let mut out = Vec::with_capacity(chunks);
    let mut rest = slice;
    let mut consumed = 0usize;
    for &b in &bounds[1..] {
        let hi = offsets[b] as usize;
        let (head, tail) = rest.split_at_mut(hi - consumed);
        out.push(head);
        rest = tail;
        consumed = hi;
    }
    out
}

/// Splits `slice` (one entry per node) into per-chunk slices at the node
/// `bounds`. Entries past `bounds[last]` stay unsplit and unreturned.
fn split_at_bounds<'a, T>(slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let chunks = bounds.len() - 1;
    let mut out = Vec::with_capacity(chunks);
    let mut rest = slice;
    let mut consumed = 0usize;
    for &b in &bounds[1..] {
        let (head, tail) = rest.split_at_mut(b - consumed);
        out.push(head);
        rest = tail;
        consumed = b;
    }
    out
}

/// Per-node weight constant for the degree-weighted partition: models the
/// fixed per-node cost (RNG tick, halt check, inbox bookkeeping) relative
/// to the per-arc cost of scanning/copying one message. Chosen from PR 8's
/// profile, where per-node overhead on a degree-16 gnp graph was roughly a
/// quarter of the arc work.
const NODE_COST: usize = 4;

/// Computes a degree-weighted (arc-balanced) contiguous partition of the
/// nodes into `chunks` chunks. The cut points split cumulative
/// `arcs(v) + NODE_COST` weight as evenly as possible, so dense nodes do
/// not pile into one worker the way uniform node ranges let them
/// (PR 8 measured 1.6–1.7× max/mean busy-time imbalance at 4T).
///
/// Returns `chunks + 1` ascending bounds with `bounds[0] == 0` and
/// `bounds[chunks] == n`; every chunk is non-empty (requires
/// `n >= chunks`, which [`Engine::new`] guarantees by collapsing to one
/// chunk on small graphs). Pure function of `offsets`, so the partition —
/// and with it every downstream buffer layout — is deterministic across
/// runs and identical after identical churn rebuilds.
fn chunk_bounds(offsets: &[u32], chunks: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0usize);
    if chunks <= 1 {
        bounds.push(n);
        return bounds;
    }
    // weight(0..=v) = offsets[v] + NODE_COST * v, monotone in v.
    let weight = |v: usize| offsets[v] as usize + NODE_COST * v;
    let total = weight(n);
    for i in 1..chunks {
        let target = total * i / chunks;
        // Smallest cut with weight(cut) >= target.
        let mut lo = bounds[i - 1];
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if weight(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Clamp so every chunk (this one and all that follow) stays
        // non-empty; valid because n >= 2 * chunks here.
        let cut = lo.clamp(bounds[i - 1] + 1, n - (chunks - i));
        bounds.push(cut);
    }
    bounds.push(n);
    bounds
}

/// Rebuilds the dense node→chunk table from the partition bounds.
fn fill_node_chunk(node_chunk: &mut Vec<u32>, bounds: &[usize]) {
    let n = bounds[bounds.len() - 1];
    node_chunk.clear();
    node_chunk.resize(n, 0);
    for (c, w) in bounds.windows(2).enumerate() {
        for slot in &mut node_chunk[w[0]..w[1]] {
            *slot = c as u32;
        }
    }
}

/// A one-shot per-chunk job awaiting its worker: the `Mutex<Option<_>>`
/// exists only to hand each boxed `FnOnce` to exactly one worker through
/// the pool's `Fn(usize)` interface.
type JobSlot<'a> = Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>;

/// Drives one phase's per-chunk jobs through the pool: job `i` runs as
/// pool chunk `i` (job 0 inline on the caller). Each job is a one-shot
/// `FnOnce` capturing its chunk's `&mut` state.
fn run_jobs(pool: &WorkerPool, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    debug_assert_eq!(jobs.len(), pool.workers() + 1);
    let slots: Vec<JobSlot<'_>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    pool.run(&|i| {
        let job = slots[i]
            .lock()
            .expect("job slot poisoned")
            .take()
            .expect("each chunk index is dispatched exactly once per epoch");
        job();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BitReader, BitWriter};
    use kw_graph::generators;

    /// Each node floods the maximum id it has seen for `rounds` rounds.
    struct MaxFlood {
        best: u64,
        rounds_left: usize,
    }

    impl Protocol for MaxFlood {
        type Msg = u64;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            for (_, &m) in ctx.inbox().iter() {
                self.best = self.best.max(m);
            }
            if self.rounds_left == 0 {
                return Status::Halted;
            }
            self.rounds_left -= 1;
            ctx.broadcast(self.best);
            Status::Running
        }

        fn finish(self) -> u64 {
            self.best
        }
    }

    fn flood_report(g: &CsrGraph, rounds: usize, config: EngineConfig) -> RunReport<u64> {
        Engine::new(g, config, |info| MaxFlood {
            best: info.id.raw() as u64,
            rounds_left: rounds,
        })
        .run(&mut ())
        .expect("flood terminates")
    }

    #[test]
    fn flooding_converges_on_path_within_diameter_rounds() {
        let g = generators::path(6);
        let report = flood_report(&g, 5, EngineConfig::default());
        assert!(report.outputs.iter().all(|&b| b == 5));
        assert_eq!(report.metrics.rounds, 6);
    }

    #[test]
    fn flooding_does_not_converge_before_diameter() {
        let g = generators::path(6);
        let report = flood_report(&g, 2, EngineConfig::default());
        // Node 0 is 5 hops from node 5; after 2 rounds it cannot know 5.
        assert!(report.outputs[0] < 5);
    }

    #[test]
    fn message_counts_match_model() {
        // Star with center 0 of degree 4: one broadcast round.
        let g = generators::star(5);
        let report = flood_report(&g, 1, EngineConfig::default());
        // Every node broadcasts once: center sends 4, each leaf sends 1.
        assert_eq!(report.metrics.messages, 8);
        assert_eq!(report.node_messages, vec![4, 1, 1, 1, 1]);
        assert_eq!(report.metrics.max_node_messages, 4);
        assert!(report.metrics.bits > 0);
        assert!(report.metrics.max_message_bits > 0);
    }

    /// A traced run samples every round, and the samples' traffic sums
    /// to the run totals at any thread count.
    #[test]
    fn trace_samples_sum_to_run_metrics() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
        let g = generators::gnp(80, 0.08, &mut rng);
        for threads in [1usize, 4] {
            kw_trace::install(kw_trace::Tracer::new());
            let report = flood_report(
                &g,
                3,
                EngineConfig {
                    threads,
                    ..Default::default()
                },
            );
            let mut t = kw_trace::take().expect("tracer still installed");
            t.finish();
            let samples = t.samples();
            assert_eq!(samples.len(), report.metrics.rounds, "threads={threads}");
            let messages: u64 = samples.iter().map(|s| s.messages).sum();
            let bits: u64 = samples.iter().map(|s| s.bits).sum();
            assert_eq!(messages, report.metrics.messages, "threads={threads}");
            assert_eq!(bits, report.metrics.bits, "threads={threads}");
            assert!(messages > 0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(77);
        let g = generators::gnp(120, 0.06, &mut rng);
        let seq = flood_report(
            &g,
            8,
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let par = flood_report(
            &g,
            8,
            EngineConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.node_messages, par.node_messages);
    }

    #[test]
    fn max_rounds_enforced() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = bool;
            type Output = ();
            fn on_round(&mut self, _ctx: &mut Ctx<'_, bool>) -> Status {
                Status::Running
            }
            fn finish(self) {}
        }
        let g = generators::path(2);
        let err = Engine::new(
            &g,
            EngineConfig {
                max_rounds: 10,
                ..Default::default()
            },
            |_| Forever,
        )
        .run(&mut ())
        .unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 10 });
    }

    #[test]
    fn unicast_reaches_only_target() {
        /// Round 0: node 0 unicasts its id to port 0 only; everyone else
        /// silent. Round 1: output = received count.
        struct OnePing {
            me: u32,
            received: u64,
        }
        impl Protocol for OnePing {
            type Msg = u64;
            type Output = u64;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
                match ctx.round() {
                    0 => {
                        if self.me == 0 {
                            ctx.send(0, 42);
                        }
                        Status::Running
                    }
                    _ => {
                        self.received = ctx.inbox().len() as u64;
                        Status::Halted
                    }
                }
            }
            fn finish(self) -> u64 {
                self.received
            }
        }
        // Triangle: node 0's port 0 is its smallest neighbor, node 1.
        let g = generators::complete(3);
        let report = Engine::new(&g, EngineConfig::default(), |info| OnePing {
            me: info.id.raw(),
            received: 0,
        })
        .run(&mut ())
        .unwrap();
        assert_eq!(report.outputs, vec![0, 1, 0]);
        assert_eq!(report.metrics.messages, 1);
    }

    #[test]
    fn observer_sees_every_round() {
        let g = generators::cycle(5);
        let mut seen = Vec::new();
        let mut obs = |round: usize, nodes: &[MaxFlood]| {
            seen.push((round, nodes.len()));
        };
        Engine::new(&g, EngineConfig::default(), |info| MaxFlood {
            best: info.id.raw() as u64,
            rounds_left: 3,
        })
        .run(&mut obs)
        .unwrap();
        assert_eq!(seen, vec![(0, 5), (1, 5), (2, 5), (3, 5)]);
    }

    #[test]
    fn wire_check_catches_broken_encoding() {
        #[derive(Clone)]
        struct Broken;
        impl crate::wire::WireEncode for Broken {
            fn encode(&self, _w: &mut BitWriter) {}
            fn decode(_r: &mut BitReader<'_>) -> Option<Self> {
                None
            }
        }
        struct Sender;
        impl Protocol for Sender {
            type Msg = Broken;
            type Output = ();
            fn on_round(&mut self, ctx: &mut Ctx<'_, Broken>) -> Status {
                ctx.broadcast(Broken);
                Status::Halted
            }
            fn finish(self) {}
        }
        let g = generators::path(2);
        let err = Engine::new(
            &g,
            EngineConfig {
                check_wire: true,
                ..Default::default()
            },
            |_| Sender,
        )
        .run(&mut ())
        .unwrap_err();
        assert_eq!(err, SimError::WireMismatch { round: 0 });
    }

    /// The send-time wire check must accept the boundary payloads of the
    /// gamma code — `0` and `u64::MAX` — on both addressing modes, and
    /// charge their exact closed-form bit lengths.
    #[test]
    fn wire_check_passes_boundary_payloads() {
        struct Extremes {
            me: u32,
        }
        impl Protocol for Extremes {
            type Msg = u64;
            type Output = Vec<u64>;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
                match ctx.round() {
                    0 => {
                        ctx.broadcast(u64::MAX);
                        if self.me == 0 {
                            ctx.send(0, 0);
                        }
                        Status::Running
                    }
                    _ => Status::Halted,
                }
            }
            fn finish(self) -> Vec<u64> {
                Vec::new()
            }
        }
        let g = generators::path(2);
        let report = Engine::new(
            &g,
            EngineConfig {
                check_wire: true,
                ..Default::default()
            },
            |info| Extremes { me: info.id.raw() },
        )
        .run(&mut ())
        .expect("boundary payloads encode, decode, and measure consistently");
        // Two broadcasts of u64::MAX (129 bits each) + one unicast of 0
        // (1 bit).
        assert_eq!(report.metrics.messages, 3);
        assert_eq!(report.metrics.bits, 2 * 129 + 1);
        assert_eq!(report.metrics.max_message_bits, 129);
    }

    #[test]
    fn isolated_nodes_run_and_halt() {
        let g = CsrGraph::empty(3);
        let report = flood_report(&g, 2, EngineConfig::default());
        assert_eq!(report.outputs, vec![0, 1, 2]);
        assert_eq!(report.metrics.messages, 0);
    }

    #[test]
    fn fault_plan_drops_deliveries_but_not_accounting() {
        // Star, one broadcast round from every node; with heavy loss the
        // center receives fewer than its 4 messages, but sender-side
        // metrics still count every copy.
        let g = generators::star(5);
        let lossy = EngineConfig {
            faults: ChaosPlan::reliable().with_drop(0.8).with_fault_seed(7),
            ..Default::default()
        };
        let lossless = flood_report(&g, 1, EngineConfig::default());
        let report = flood_report(&g, 1, lossy.clone());
        assert_eq!(report.metrics.messages, lossless.metrics.messages);
        // Leaves learn the center's id only if its broadcast survived;
        // with p=0.8 over 4+4 deliveries, some leaf should miss out for
        // this seed. At minimum the run completes and stays deterministic.
        let again = flood_report(&g, 1, lossy);
        assert_eq!(report.outputs, again.outputs);
    }

    #[test]
    fn fault_determinism_across_thread_counts() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
        let g = generators::gnp(150, 0.05, &mut rng);
        let base = EngineConfig {
            faults: ChaosPlan::reliable().with_drop(0.3).with_fault_seed(11),
            ..Default::default()
        };
        let seq = flood_report(
            &g,
            6,
            EngineConfig {
                threads: 1,
                ..base.clone()
            },
        );
        let par = flood_report(&g, 6, EngineConfig { threads: 4, ..base });
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
    }

    #[test]
    fn deterministic_rng_streams() {
        use rand::Rng;
        struct Roll;
        impl Protocol for Roll {
            type Msg = bool;
            type Output = u64;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, bool>) -> Status {
                Status::Halted
            }
            fn finish(self) -> u64 {
                0
            }
        }
        // Two engines with the same seed must hand nodes identical seeds.
        let g = generators::path(4);
        let mut seeds1 = Vec::new();
        let _ = Engine::new(&g, EngineConfig::seeded(9), |info| {
            seeds1.push(info.seed);
            Roll
        });
        let mut seeds2 = Vec::new();
        let _ = Engine::new(&g, EngineConfig::seeded(9), |info| {
            seeds2.push(info.seed);
            Roll
        });
        assert_eq!(seeds1, seeds2);
        let mut rng = SmallRng::seed_from_u64(seeds1[0]);
        let _: u64 = rng.gen();
    }

    /// Asserts that `rev_edge` is `g`'s reverse-arc table: one entry per
    /// arc, each naming the neighbor's arc that points back.
    fn assert_rev_edge_inverts(g: &CsrGraph, rev_edge: &[u32]) {
        assert_eq!(rev_edge.len(), g.num_arcs());
        let offsets = g.offsets();
        let targets = g.targets();
        for v in 0..g.len() {
            for e in offsets[v] as usize..offsets[v + 1] as usize {
                let r = rev_edge[e] as usize;
                // The reverse arc belongs to the neighbor and points back.
                let u = targets[e] as usize;
                assert!((offsets[u] as usize..offsets[u + 1] as usize).contains(&r));
                assert_eq!(targets[r] as usize, v);
                assert_eq!(rev_edge[r] as usize, e);
            }
        }
    }

    #[test]
    fn rev_edge_table_inverts_itself() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(13);
        for g in [
            generators::petersen(),
            generators::star(7),
            generators::gnp(40, 0.2, &mut rng),
        ] {
            assert_rev_edge_inverts(&g, &build_rev_edge(&g));
        }
    }

    /// One round's compute and delivery as `drive` runs them, without the
    /// observer and tracer.
    fn step<P: Protocol>(engine: &mut Engine<'_, P>, round: usize, pool: Option<&WorkerPool>) {
        let out = engine.compute_phase(round, None, pool);
        engine.staged_senders = out.staged;
        engine.delivery_phase(round, None, pool);
    }

    /// The reverse-arc table costs `O(m)` to build and only staged
    /// traffic reads it, so it is built by the first staged round — once
    /// — and rebuilt against the new CSR plane after a churn rebuild.
    #[test]
    fn rev_edge_table_is_built_on_first_staged_round() {
        use kw_graph::{ChurnEvent, ChurnKind};
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(8);
        let g = generators::gnp(60, 0.15, &mut rng);
        // Broadcast-only traffic is all solo: nothing ever reads the table.
        let mut flood = Engine::new(&g, EngineConfig::default(), |info| MaxFlood {
            best: info.id.raw() as u64,
            rounds_left: 4,
        });
        flood.drive(&mut ()).expect("flood terminates");
        assert!(flood.rev_edge.is_empty(), "solo rounds built the table");

        // Mixed traffic stages every round: built at round 0, then reused.
        let u = g.neighbor_slice(NodeId::new(0))[0];
        let churn = ChaosPlan::reliable().with_churn_event(ChurnEvent {
            round: 3,
            kind: ChurnKind::RemoveEdge(0, u),
        });
        for threads in [1usize, 4] {
            let config = EngineConfig {
                threads,
                faults: churn.clone(),
                ..Default::default()
            };
            let mut mixed = Engine::new(&g, config, |_| Mixed { rounds_left: 6 });
            let pool = (mixed.chunks > 1).then(|| WorkerPool::new(mixed.chunks - 1));
            assert!(mixed.rev_edge.is_empty(), "construction built the table");
            step(&mut mixed, 0, pool.as_ref());
            assert_rev_edge_inverts(&g, &mixed.rev_edge);
            let built = mixed.rev_edge.as_ptr();
            step(&mut mixed, 1, pool.as_ref());
            step(&mut mixed, 2, pool.as_ref());
            assert_eq!(
                mixed.rev_edge.as_ptr(),
                built,
                "table rebuilt without churn"
            );

            // The churn rebuild clears it; the next staged round rebuilds
            // it against the churned CSR, which lost one edge.
            mixed.apply_churn_at(3);
            assert!(mixed.rev_edge.is_empty(), "churn kept a stale table");
            step(&mut mixed, 3, pool.as_ref());
            let churned = mixed.churned.as_ref().expect("churn applied at round 3");
            assert_eq!(churned.num_arcs(), g.num_arcs() - 2);
            assert_rev_edge_inverts(churned, &mixed.rev_edge);
        }
    }

    /// A protocol that exercises the staged path (mixed broadcast +
    /// unicast every round), for the steady-state allocation check.
    struct Mixed {
        rounds_left: usize,
    }

    impl Protocol for Mixed {
        type Msg = u64;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if self.rounds_left == 0 {
                return Status::Halted;
            }
            self.rounds_left -= 1;
            ctx.broadcast(7);
            if ctx.degree() > 0 {
                ctx.send(0, 9);
            }
            Status::Running
        }

        fn finish(self) -> u64 {
            0
        }
    }

    /// Steady-state rounds must be allocation-free: a run 25 times as
    /// long grows message-plane buffers exactly as often as a short one,
    /// because all growth (send arenas included) happens in the first
    /// rounds.
    #[test]
    fn steady_state_rounds_do_not_grow_buffers() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(21);
        let g = generators::gnp(80, 0.1, &mut rng);
        let growths = |rounds: usize, threads: usize| {
            let mut engine = Engine::new(
                &g,
                EngineConfig {
                    threads,
                    ..Default::default()
                },
                |_| Mixed {
                    rounds_left: rounds,
                },
            );
            engine.drive(&mut ()).unwrap();
            engine.buffer_growths
        };
        for threads in [1usize, 4] {
            let short = growths(4, threads);
            let long = growths(100, threads);
            assert_eq!(
                short, long,
                "message-plane buffers grew after warm-up (threads={threads})"
            );
        }
    }

    /// A traced run emits the documented span taxonomy (`round` →
    /// `compute`/`plan`/`send`/`deliver` + synthetic `barrier`s) plus one
    /// sample per round, and the structural fingerprint is identical
    /// across thread counts — only tick values may differ.
    #[test]
    fn tracer_records_round_structure_thread_invariantly() {
        let g = generators::cycle(64);
        let traced_run = |threads: usize| {
            kw_trace::install(kw_trace::Tracer::new());
            let report = flood_report(
                &g,
                4,
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            );
            let mut t = kw_trace::take().expect("tracer still installed");
            t.finish();
            (report.outputs, t)
        };
        let (out1, t1) = traced_run(1);
        let labels: Vec<&str> = t1.spans().iter().map(|s| s.label).collect();
        assert!(labels.contains(&"round"));
        assert!(labels.contains(&"compute"));
        assert!(labels.contains(&"plan"));
        assert!(labels.contains(&"deliver"));
        assert!(labels.contains(&"barrier"));
        let rounds = t1.spans().iter().filter(|s| s.label == "round").count();
        assert_eq!(t1.samples().len(), rounds);
        for (threads, expected_chunks) in [(2, 2), (8, 8)] {
            let (out, t) = traced_run(threads);
            assert_eq!(out, out1, "outputs invariant at {threads} threads");
            assert_eq!(
                t.structure(),
                t1.structure(),
                "span tree varies at {threads} threads"
            );
            assert_eq!(
                t.samples(),
                t1.samples(),
                "counter series varies at {threads} threads"
            );
            assert_eq!(t.structure_hash(), t1.structure_hash());
            assert_eq!(t.summarize().threads, expected_chunks);
        }
        // And with no tracer installed, nothing records and outputs match.
        assert!(!kw_trace::is_active());
        let plain = flood_report(&g, 4, EngineConfig::default());
        assert_eq!(plain.outputs, out1);
    }

    /// The dense per-node run table must describe exactly what each node
    /// staged, and solo classification must match the run contents.
    #[test]
    fn run_table_matches_staged_traffic() {
        let g = generators::star(6);
        let mut engine = Engine::new(&g, EngineConfig::default(), |_| Mixed { rounds_left: 3 });
        let out = engine.compute_phase(0, None, None);
        // Every node stages one broadcast + one unicast → all staged.
        assert_eq!(out.staged, g.len());
        for v in 0..g.len() {
            let (_, len) = engine.runs[v];
            assert_eq!(len, 2, "node {v} staged two sends");
            assert!(engine.solo[v].is_none(), "mixed traffic is never solo");
        }
        // Center degree 5 + unicast = 6; leaves 1 + 1 = 2.
        assert_eq!(out.stats.messages, 6 + 5 * 2);
    }

    #[test]
    fn burst_blackout_suppresses_deliveries_but_not_charges() {
        use crate::chaos::{Burst, ChaosPlan};
        let g = generators::path(6);
        // A total blackout covering every round: nobody ever hears anybody.
        let chaos = ChaosPlan::reliable().with_burst(Burst {
            from_round: 0,
            to_round: 100,
            drop_probability: 1.0,
            region: 1.0,
        });
        let report = flood_report(
            &g,
            5,
            EngineConfig {
                faults: chaos,
                ..Default::default()
            },
        );
        let clear = flood_report(&g, 5, EngineConfig::default());
        assert_eq!(
            report.outputs,
            (0..6).map(|v| v as u64).collect::<Vec<_>>(),
            "no delivery survives a full-window blackout"
        );
        // Senders are still charged for every transmitted copy.
        assert_eq!(report.metrics.messages, clear.metrics.messages);
        // A burst that opens only after the run ends changes nothing.
        let late = ChaosPlan::reliable().with_burst(Burst {
            from_round: 50,
            to_round: 60,
            drop_probability: 1.0,
            region: 1.0,
        });
        let unaffected = flood_report(
            &g,
            5,
            EngineConfig {
                faults: late,
                ..Default::default()
            },
        );
        assert_eq!(unaffected.outputs, clear.outputs);
    }

    #[test]
    fn crashed_node_freezes_then_recovers() {
        use crate::chaos::ChaosPlan;
        // Path 0-1-2; node 1 is down for rounds 0..=1, then recovers. The
        // ends can only learn of each other through node 1, so the flood
        // still converges — just later.
        let g = generators::path(3);
        let chaos = ChaosPlan::reliable().with_crash(1, 0, Some(1));
        let report = flood_report(
            &g,
            8,
            EngineConfig {
                faults: chaos,
                ..Default::default()
            },
        );
        assert_eq!(report.outputs, vec![2, 2, 2]);
    }

    #[test]
    fn crash_forever_terminates_without_round_limit() {
        use crate::chaos::ChaosPlan;
        // Node 1 crashes at round 0 and never recovers: it can never halt
        // on its own, so termination must treat it as done. With the relay
        // gone, each end only ever knows itself.
        let g = generators::path(3);
        let chaos = ChaosPlan::reliable().with_crash(1, 0, None);
        let report = flood_report(
            &g,
            4,
            EngineConfig {
                faults: chaos,
                max_rounds: 100,
                ..Default::default()
            },
        );
        assert_eq!(report.outputs, vec![0, 1, 2]);
    }

    #[test]
    fn byzantine_sender_is_deterministic_and_never_panics() {
        use crate::chaos::ChaosPlan;
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let g = generators::gnp(60, 0.1, &mut rng);
        let chaos = ChaosPlan::reliable()
            .with_fault_seed(17)
            .with_byzantine(0)
            .with_byzantine(5);
        let config = EngineConfig {
            faults: chaos,
            check_wire: true,
            ..Default::default()
        };
        let a = flood_report(&g, 6, config.clone());
        let b = flood_report(&g, 6, config.clone());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        let par = flood_report(
            &g,
            6,
            EngineConfig {
                threads: 4,
                ..config
            },
        );
        assert_eq!(a.outputs, par.outputs);
        assert_eq!(a.metrics, par.metrics);
        // Garbling happens on the wire: senders are charged exactly as in
        // a clean run.
        let clean = flood_report(&g, 6, EngineConfig::default());
        assert_eq!(a.metrics.messages, clean.metrics.messages);
    }

    #[test]
    fn churn_removes_edges_and_counts_rebuilds() {
        use crate::chaos::ChaosPlan;
        use kw_graph::{ChurnEvent, ChurnKind};
        // Path 0-1-2; at round 1 the 0-1 edge disappears and the message
        // in flight across the boundary is dropped, so node 0 never learns
        // anything while 1 and 2 keep talking.
        let g = generators::path(3);
        let chaos = ChaosPlan::reliable().with_churn_event(ChurnEvent {
            round: 1,
            kind: ChurnKind::RemoveEdge(0, 1),
        });
        let report = flood_report(
            &g,
            6,
            EngineConfig {
                faults: chaos,
                ..Default::default()
            },
        );
        assert_eq!(report.outputs, vec![0, 2, 2]);
        assert_eq!(report.metrics.graph_rebuilds, 1);
    }

    #[test]
    fn churn_leave_is_down_forever_and_join_restores() {
        use crate::chaos::ChaosPlan;
        use kw_graph::{ChurnEvent, ChurnKind};
        let g = generators::path(3);
        // Leave with no later Join: node 2 freezes, run still terminates.
        let leave = ChaosPlan::reliable().with_churn_event(ChurnEvent {
            round: 1,
            kind: ChurnKind::Leave(2),
        });
        let report = flood_report(
            &g,
            4,
            EngineConfig {
                faults: leave,
                max_rounds: 100,
                ..Default::default()
            },
        );
        // Node 2's broadcast at round 0 is in flight across the churn
        // boundary and dropped; afterwards only 0 and 1 talk.
        assert_eq!(report.outputs, vec![1, 1, 2]);
        // Leave then Join: a rejoining node comes back isolated (its old
        // edges left with it), so the script re-attaches it explicitly.
        let bounce = ChaosPlan::reliable()
            .with_churn_event(ChurnEvent {
                round: 1,
                kind: ChurnKind::Leave(2),
            })
            .with_churn_event(ChurnEvent {
                round: 3,
                kind: ChurnKind::Join(2),
            })
            .with_churn_event(ChurnEvent {
                round: 3,
                kind: ChurnKind::AddEdge(1, 2),
            });
        let report = flood_report(
            &g,
            8,
            EngineConfig {
                faults: bounce,
                max_rounds: 100,
                ..Default::default()
            },
        );
        assert_eq!(report.outputs, vec![2, 2, 2]);
        assert_eq!(report.metrics.graph_rebuilds, 2);
    }

    #[test]
    fn full_chaos_mix_is_thread_invariant() {
        use crate::chaos::ChaosPlan;
        // Every chaos ingredient at once on a cycle, where all scripted
        // node/edge references exist.
        let g = generators::cycle(150);
        let chaos = ChaosPlan::parse(
            "drop=0.1,seed=11,burst=r1-3@0.8/0.5,crash=7@r2-4,crash=33@r1,byz=3+90,\
             churn=r2re0-1+r3l5+r5j5",
        )
        .expect("valid spec");
        let base = EngineConfig {
            faults: chaos,
            max_rounds: 200,
            ..Default::default()
        };
        let seq = flood_report(
            &g,
            8,
            EngineConfig {
                threads: 1,
                ..base.clone()
            },
        );
        let par2 = flood_report(
            &g,
            8,
            EngineConfig {
                threads: 2,
                ..base.clone()
            },
        );
        let par8 = flood_report(&g, 8, EngineConfig { threads: 8, ..base });
        assert_eq!(seq.outputs, par2.outputs);
        assert_eq!(seq.metrics, par2.metrics);
        assert_eq!(seq.node_messages, par2.node_messages);
        assert_eq!(seq.outputs, par8.outputs);
        assert_eq!(seq.metrics, par8.metrics);
        assert_eq!(seq.node_messages, par8.node_messages);
    }

    #[test]
    fn chunk_bounds_cover_balance_and_determinism() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9);
        for (g, chunks) in [
            (generators::star(101), 4), // one dense hub
            (generators::cycle(64), 8), // perfectly uniform
            (generators::gnp(300, 0.05, &mut rng), 4),
            (generators::path(9), 4), // n barely above 2*chunks
        ] {
            let bounds = chunk_bounds(g.offsets(), chunks);
            // Coverage: ascending bounds from 0 to n, every chunk non-empty.
            assert_eq!(bounds.len(), chunks + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[chunks], g.len());
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
            // Determinism: a pure function of the offsets.
            assert_eq!(bounds, chunk_bounds(g.offsets(), chunks));
            // Balance: no chunk exceeds its fair weight share by more than
            // the largest single node (contiguity makes one node the
            // granularity limit — the star's hub chunk is exactly that).
            let w = |v: usize| g.offsets()[v] as usize + NODE_COST * v;
            let max_node = (0..g.len()).map(|v| w(v + 1) - w(v)).max().unwrap();
            let fair = w(g.len()) / chunks;
            for c in bounds.windows(2) {
                assert!(
                    w(c[1]) - w(c[0]) <= fair + max_node,
                    "chunk {c:?} overweight on n={}",
                    g.len()
                );
            }
            let mut node_chunk = Vec::new();
            fill_node_chunk(&mut node_chunk, &bounds);
            assert_eq!(node_chunk.len(), g.len());
            for (v, &c) in node_chunk.iter().enumerate() {
                let c = c as usize;
                assert!(bounds[c] <= v && v < bounds[c + 1]);
            }
        }
    }

    #[test]
    fn churn_rebuild_recomputes_identical_partition() {
        use crate::chaos::ChaosPlan;
        use kw_graph::{ChurnEvent, ChurnKind};
        // Two engines run the same churn script at 4 threads; the
        // partition is a pure function of the rebuilt CSR plane, so their
        // bounds must agree at every point — and differ from the pre-churn
        // bounds once edges moved.
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
        let g = generators::gnp(120, 0.06, &mut rng);
        let plan = || {
            ChaosPlan::reliable()
                .with_churn_event(ChurnEvent {
                    round: 2,
                    kind: ChurnKind::Leave(3),
                })
                .with_churn_event(ChurnEvent {
                    round: 2,
                    kind: ChurnKind::Leave(60),
                })
        };
        let config = || EngineConfig {
            threads: 4,
            faults: plan(),
            max_rounds: 50,
            ..Default::default()
        };
        let build = || {
            let mut e = Engine::new(&g, config(), |info| MaxFlood {
                best: info.id.raw() as u64,
                rounds_left: 6,
            });
            e.drive(&mut ()).expect("flood terminates");
            (e.bounds.clone(), e.node_chunk.clone())
        };
        let before = chunk_bounds(g.offsets(), 4);
        let (bounds_a, chunk_a) = build();
        let (bounds_b, chunk_b) = build();
        assert_eq!(bounds_a, bounds_b);
        assert_eq!(chunk_a, chunk_b);
        assert_ne!(bounds_a, before, "churn moved arcs, partition must follow");
        assert_eq!(bounds_a.len(), 5, "chunk count is fixed for the run");
    }

    /// A protocol that panics on one node mid-run, to exercise the pooled
    /// unwind path.
    struct PanicAt {
        node: usize,
        me: usize,
        round: usize,
    }

    impl Protocol for PanicAt {
        type Msg = u64;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
            if ctx.round() == self.round && self.me == self.node {
                panic!("node {} failed at round {}", self.me, self.round);
            }
            ctx.broadcast(1);
            if ctx.round() < 4 {
                Status::Running
            } else {
                Status::Halted
            }
        }

        fn finish(self) -> u64 {
            0
        }
    }

    #[test]
    fn pooled_phase_panic_propagates_without_hanging() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let g = generators::gnp(120, 0.06, &mut rng);
        let run = |node: usize| {
            let engine = Engine::new(
                &g,
                EngineConfig {
                    threads: 4,
                    ..Default::default()
                },
                move |info| PanicAt {
                    node,
                    me: info.id.raw() as usize,
                    round: 2,
                },
            );
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&mut ())))
        };
        // Panic on a caller-chunk node and on a worker-chunk node: both
        // must unwind out of `run` (pool joined on drop, barrier not
        // hung) with the protocol's payload intact.
        for node in [0, g.len() - 1] {
            let err = run(node).expect_err("protocol panicked");
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is the protocol's format string");
            assert!(
                msg.contains("failed at round 2"),
                "unexpected payload {msg}"
            );
        }
        // Pooled runs keep working on this thread afterwards: a fresh run
        // over the same graph completes and matches the 1T output.
        let ok = flood_report(
            &g,
            6,
            EngineConfig {
                threads: 4,
                ..Default::default()
            },
        );
        let seq = flood_report(&g, 6, EngineConfig::default());
        assert_eq!(ok.outputs, seq.outputs);
    }

    #[test]
    fn repeated_drives_reuse_no_stale_state() {
        // Drive the same engine value twice via the internal API (public
        // `run` consumes the engine, so stale state across `drive` calls
        // is the actual hazard): the second drive — with node programs,
        // RNGs, and halt flags re-armed — must reproduce the first run's
        // metrics exactly even though arenas, staging buffers, and plan
        // tables still hold the previous run's data.
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(13);
        let g = generators::gnp(90, 0.08, &mut rng);
        let config = EngineConfig {
            threads: 4,
            max_rounds: 50,
            ..Default::default()
        };
        let fresh = |rounds: usize| {
            Engine::new(&g, config.clone(), move |info| MaxFlood {
                best: info.id.raw() as u64,
                rounds_left: rounds,
            })
        };
        let mut once = fresh(5);
        let m1 = once.drive(&mut ()).expect("flood terminates");
        let mut twice = fresh(5);
        twice.drive(&mut ()).expect("flood terminates");
        for node in 0..g.len() {
            twice.halted[node] = false;
            twice.nodes[node] = MaxFlood {
                best: node as u64,
                rounds_left: 5,
            };
            let seed = crate::rng::node_seed(twice.config.seed, node as u32);
            twice.rngs[node] = SmallRng::seed_from_u64(seed);
        }
        let m2 = twice.drive(&mut ()).expect("flood terminates");
        assert_eq!(m1.rounds, m2.rounds);
        assert_eq!(m1.messages, m2.messages);
        assert_eq!(m1.bits, m2.bits);
    }
}
