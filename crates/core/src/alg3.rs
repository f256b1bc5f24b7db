//! Algorithm 3: distributed `LP_MDS` approximation **without** knowledge
//! of the global maximum degree `Δ`.
//!
//! Instead of thresholds `(Δ+1)^{ℓ/k}`, each node uses its *local* view:
//! `γ⁽²⁾(v)`, the maximum dynamic degree within distance 2 at the start of
//! the current outer iteration, and activity condition
//! `δ̃(v) ≥ γ⁽²⁾(v)^{ℓ/(ℓ+1)}`. Active nodes raise
//! `x := max(x, a⁽¹⁾(v)^{−m/(m+1)})` where `a⁽¹⁾(v)` is the largest
//! active-neighbor count in the closed neighborhood. The price of not
//! knowing `Δ` is a slightly worse ratio,
//! `k((Δ+1)^{1/k} + (Δ+1)^{2/k})` (Theorem 5), and twice the rounds:
//! 4 messages per inner iteration, `4k² + 2k` rounds in this
//! implementation (`4k² + O(k)` in the paper's statement).
//!
//! # Width in memory
//!
//! Every count a node sends — degrees, `δ⁽¹⁾`, `δ⁽²⁾`, `a(v)`, `δ̃`,
//! `γ⁽¹⁾` — and every `a⁽¹⁾` inside an x-value is held as a `u32`: a
//! [`CsrGraph`]'s offsets are `u32`, so no count exceeds it, and decoders
//! reject larger wire values instead of truncating them. The x-value's
//! inner-iteration index `m < k` is a `u16`, which bounds `k` by 65,536
//! (the runners reject a larger `k` before any round runs). The x-value
//! travels flat, as [`Alg3Msg::X`]`{ a, m }` with `a == 0` for x = 0, so
//! Rust stores the enum's tag in the variant's spare byte and an
//! [`Alg3Msg`] is 8 bytes; `X(Option<XCode>)` would need a second tag
//! and 12. The engine's per-round table of solo broadcasts (one
//! `Option<Alg3Msg>` per node, read in place at random by every
//! neighbor's inbox) is therefore 0.8 MB at `n = 100k`, well inside a
//! 2 MiB L2 cache. The receiver's `x = a^{−m/(m+1)}` comes from a
//! memoized table of the exact `powf` results (see [`XCode::value`])
//! rather than one `powf` per received value. None of this changes the
//! wire format or any answer.
//!
//! # What a node reads
//!
//! A node reads its inbox only when what it computes from it can change
//! its state. In the inner iteration three reads are skipped, and none
//! can change an output:
//!
//! * `IterStep1`: a gray node's `a(v)` is 0 by definition, whatever its
//!   neighbors announced, so it does not count their `Active` messages.
//! * `IterStep2`: only an active node uses `a⁽¹⁾(v)`, to raise its x, so
//!   an inactive node does not take the maximum of its neighbors' `a(v)`.
//! * `IterStep3`: gray is absorbing, so a gray node does not sum its
//!   neighbors' x-values; the sum could only re-confirm its color.
//!
//! After the first inner iteration almost every node is gray. On
//! `G(n, 16/n)` at `k = 2` the skips cover 47% of the neighbor slots an
//! in-place inbox would visit (37.5% of the messages delivered), and more
//! at larger `k`. Every other phase reads its whole inbox. An in-place
//! inbox that is never iterated costs nothing.
//!
//! # Example
//!
//! ```
//! use kw_graph::generators;
//! use kw_core::alg3::run_alg3;
//! use kw_sim::EngineConfig;
//!
//! let g = generators::grid(4, 4);
//! let run = run_alg3(&g, 2, EngineConfig::default())?;
//! assert!(run.x.is_feasible(&g));
//! assert_eq!(run.metrics.rounds, 4 * 4 + 2 * 2); // 4k² + 2k
//! # Ok::<(), kw_core::CoreError>(())
//! ```

use std::sync::OnceLock;

use kw_graph::{CsrGraph, FractionalAssignment, COVERAGE_TOLERANCE};
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::alg2::{validate_k, validate_schedule};
use crate::CoreError;

/// A nonzero Algorithm 3 x-value as its defining integer pair:
/// `x = a^{−m/(m+1)}`.
///
/// Sending the pair instead of a raw float keeps messages at
/// `O(log Δ + log k)` bits and makes the receiver's reconstruction
/// bit-identical to the sender's value. This is the decoded form that
/// [`value`](Self::value) reads; on the wire and in the engine's tables
/// the pair travels flat in [`Alg3Msg::X`], with `m` as a `u16`. `a` is
/// a closed-neighborhood count, which a [`CsrGraph`] bounds by `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XCode {
    /// The active-neighbor maximum `a⁽¹⁾ ≥ 1` at assignment time.
    pub a: u32,
    /// The inner-iteration index `m`.
    pub m: u32,
}

/// Bounds of the memoized x-value table: it holds every code with
/// `a < TABLE_A` and `m < TABLE_M` (64 KiB). `m < k`, so a run with
/// `k ≤ 8` on a graph with `Δ < 1023` never leaves it.
const TABLE_A: u32 = 1024;
const TABLE_M: u32 = 8;

impl XCode {
    /// The x-value this code denotes.
    ///
    /// Codes inside the table's bounds read a process-wide table built
    /// once from [`powf`](f64::powf) itself, so every value is
    /// bit-identical to the direct computation; codes outside fall back to
    /// `powf`. The table saves one `powf` per received x-value, up to
    /// `n · Δ` per `IterStep3` round. No closed form qualifies: `1/√a`
    /// already differs from `a^{−1/2}` in the last bit at `a = 2`.
    pub fn value(self) -> f64 {
        if self.a < TABLE_A && self.m < TABLE_M {
            x_table()[self.m as usize][self.a as usize]
        } else {
            self.powf()
        }
    }

    /// The defining expression, evaluated directly.
    fn powf(self) -> f64 {
        f64::from(self.a).powf(-f64::from(self.m) / (f64::from(self.m) + 1.0))
    }

    /// The x-value an [`Alg3Msg::X`] with these fields announces: the
    /// one place the flat wire pair becomes a code (`a == 0` is x = 0).
    fn wire_value(a: u32, m: u16) -> f64 {
        if a == 0 {
            0.0
        } else {
            XCode { a, m: u32::from(m) }.value()
        }
    }
}

/// `x_table()[m][a]` is `XCode { a, m }.powf()`, computed on first use.
fn x_table() -> &'static [[f64; TABLE_A as usize]; TABLE_M as usize] {
    static TABLE: OnceLock<[[f64; TABLE_A as usize]; TABLE_M as usize]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0.0; TABLE_A as usize]; TABLE_M as usize];
        for (m, row) in (0..).zip(table.iter_mut()) {
            for (a, x) in (0..).zip(row.iter_mut()) {
                *x = XCode { a, m }.powf();
            }
        }
        table
    })
}

/// Messages exchanged by Algorithm 3. The meaning of `Uint` depends on the
/// (globally synchronized) schedule position: degree, `δ⁽¹⁾`, `a(v)`,
/// `δ̃`, or `γ⁽¹⁾`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg3Msg {
    /// An unsigned quantity (see above).
    Uint(u32),
    /// Presence message: "I am active this iteration".
    Active,
    /// The sender's current x-value, flat: the [`XCode`] pair
    /// `a^{−m/(m+1)}`, or x = 0 when `a == 0` (then `m` is 0, so x = 0
    /// has one form, as on the wire, where it is `10`·γ(0)). Flat fields
    /// let the enum keep its tag in the variant's spare byte: 8 bytes.
    X {
        /// The active-neighbor maximum `a⁽¹⁾ ≥ 1`, or 0 for x = 0.
        a: u32,
        /// The inner-iteration index `m < k`.
        m: u16,
    },
    /// Whether the sender is gray.
    Color(bool),
}

impl WireEncode for Alg3Msg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Alg3Msg::Uint(v) => {
                w.write_bits(0b00, 2);
                w.write_gamma(u64::from(*v));
            }
            Alg3Msg::Active => w.write_bits(0b01, 2),
            Alg3Msg::X { a, m } => {
                w.write_bits(0b10, 2);
                w.write_gamma(u64::from(*a));
                if *a != 0 {
                    w.write_gamma(u64::from(*m));
                }
            }
            Alg3Msg::Color(gray) => {
                w.write_bits(0b11, 2);
                w.write_bit(*gray);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        // Values past u32 (an x-code's m: past u16) are rejected, never
        // truncated: no honest sender produces one.
        Some(match r.read_bits(2)? {
            0b00 => Alg3Msg::Uint(u32::try_from(r.read_gamma()?).ok()?),
            0b01 => Alg3Msg::Active,
            0b10 => match r.read_gamma()? {
                0 => Alg3Msg::X { a: 0, m: 0 },
                a => Alg3Msg::X {
                    a: u32::try_from(a).ok()?,
                    m: u16::try_from(r.read_gamma()?).ok()?,
                },
            },
            _ => Alg3Msg::Color(r.read_bit()?),
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            Alg3Msg::Uint(v) => 2 + wire::gamma_len(u64::from(*v)),
            Alg3Msg::Active => 2,
            Alg3Msg::X { a: 0, .. } => 2 + wire::gamma_len(0),
            Alg3Msg::X { a, m } => {
                2 + wire::gamma_len(u64::from(*a)) + wire::gamma_len(u64::from(*m))
            }
            Alg3Msg::Color(_) => 3,
        }
    }
}

/// Which message kind the next `IterStep0` expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entering {
    /// Setup: δ⁽¹⁾ values arriving; compute `γ⁽²⁾ = δ⁽²⁾ + 1`.
    FromSetup,
    /// Mid-outer-iteration: colors arriving; update `δ̃`.
    FromColor,
    /// New outer iteration: `γ⁽¹⁾` values arriving; compute `γ⁽²⁾`.
    FromGamma1,
}

/// Protocol phase (one per synchronous round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    SendDegree,
    SendDelta1,
    IterStep0 { l: u16, m: u16, entering: Entering },
    IterStep1 { l: u16, m: u16 },
    IterStep2 { l: u16, m: u16 },
    IterStep3 { l: u16, m: u16 },
    OuterA { l: u16 },
    OuterB { l: u16 },
    Done,
}

/// Read-only view of a node's Algorithm 3 state, for observers.
#[derive(Clone, Copy, Debug)]
pub struct Alg3State {
    /// Current fractional value.
    pub x: f64,
    /// Whether the node is covered.
    pub is_gray: bool,
    /// Current dynamic degree `δ̃`.
    pub delta_tilde: usize,
    /// `γ⁽²⁾` for the current outer iteration.
    pub gamma2: u64,
    /// `γ⁽¹⁾` computed at the most recent outer-iteration boundary (0 until
    /// the first boundary; the first outer iteration's effective γ⁽¹⁾ is
    /// `δ⁽¹⁾+1`).
    pub gamma1: u64,
    /// Whether the node is active in the current inner iteration.
    pub active: bool,
    /// Last computed active-neighbor count `a(v)`.
    pub a_count: u64,
    /// The maximum `a⁽¹⁾(v)` as of the node's last active inner
    /// iteration (0 before the first): only an active node reads it.
    pub a1: u64,
    /// Position `(ℓ, m, step)` if inside an inner iteration.
    pub position: Option<(u32, u32, u8)>,
}

/// Per-node output of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alg3Output {
    /// Final fractional value `x_i`.
    pub x: f64,
    /// Final color.
    pub is_gray: bool,
    /// The `δ⁽²⁾` computed during setup (reused by the pipeline's rounding
    /// stage, saving it two rounds).
    pub delta2: u64,
}

/// The Algorithm 3 node program. Uses only local information.
#[derive(Clone, Debug)]
pub struct Alg3Protocol {
    /// `k − 1`, the first outer and inner iteration index.
    last: u16,
    degree: u32,
    phase: Phase,
    /// The phase most recently executed (what observers should attribute
    /// the current state to).
    executed: Phase,
    delta1: u32,
    delta2: u32,
    gamma1: u32,
    gamma2: u32,
    delta_tilde: u32,
    x: f64,
    /// The `(a, m)` fields of [`Alg3Msg::X`] announcing `x` (`a == 0`
    /// while `x` is 0).
    x_wire: (u32, u16),
    is_gray: bool,
    active: bool,
    a_count: u32,
    a1: u32,
}

impl Alg3Protocol {
    /// Creates the program for one node of degree `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 65_536` (both validated centrally by
    /// [`run_alg3`]; an x-value's `m < k` travels as a `u16`), or if the
    /// closed neighborhood, `degree + 1`, does not fit in a `u32`, which
    /// no [`CsrGraph`] node's does.
    pub fn new(k: u32, degree: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        let last = u16::try_from(k - 1).expect("k <= 65536: m < k travels as a u16");
        let closed = u32::try_from(degree + 1).expect("closed neighborhoods fit in u32");
        let degree = closed - 1;
        Alg3Protocol {
            last,
            degree,
            phase: Phase::SendDegree,
            executed: Phase::SendDegree,
            delta1: degree,
            delta2: degree,
            gamma1: 0,
            gamma2: degree + 1,
            delta_tilde: degree + 1,
            x: 0.0,
            x_wire: (0, 0),
            is_gray: false,
            active: false,
            a_count: 0,
            a1: 0,
        }
    }

    /// Observer snapshot of the node's state. The `position` refers to the
    /// phase that *just executed* (set at the top of `on_round`).
    pub fn state(&self) -> Alg3State {
        let position = match self.executed {
            Phase::IterStep0 { l, m, .. } => Some((l, m, 0)),
            Phase::IterStep1 { l, m } => Some((l, m, 1)),
            Phase::IterStep2 { l, m } => Some((l, m, 2)),
            Phase::IterStep3 { l, m } => Some((l, m, 3)),
            _ => None,
        }
        .map(|(l, m, step)| (u32::from(l), u32::from(m), step));
        Alg3State {
            x: self.x,
            is_gray: self.is_gray,
            delta_tilde: self.delta_tilde as usize,
            gamma2: u64::from(self.gamma2),
            gamma1: u64::from(self.gamma1),
            active: self.active,
            a_count: u64::from(self.a_count),
            a1: u64::from(self.a1),
            position,
        }
    }

    /// The activity threshold `γ⁽²⁾(v)^{ℓ/(ℓ+1)}`.
    fn threshold(&self, l: u16) -> f64 {
        f64::from(self.gamma2).powf(f64::from(l) / (f64::from(l) + 1.0))
    }

    /// The node's `δ⁽²⁾` learned during setup (valid after the setup
    /// rounds; the composite protocol reuses it for the rounding stage).
    pub fn delta2(&self) -> u64 {
        u64::from(self.delta2)
    }

    fn max_uint<'m>(inbox: impl Iterator<Item = &'m Alg3Msg>, own: u32) -> u32 {
        let mut best = own;
        // Honest lock-step senders never mix variants; any other arm is
        // byzantine corruption that happened to decode — garbage, dropped.
        for msg in inbox {
            if let Alg3Msg::Uint(v) = msg {
                best = best.max(*v);
            }
        }
        best
    }

    fn count_white<'m>(&self, inbox: impl Iterator<Item = &'m Alg3Msg>) -> u32 {
        let mut white = u32::from(!self.is_gray);
        for msg in inbox {
            // Non-Color arms are byzantine garbage (see `max_uint`).
            if let Alg3Msg::Color(gray) = msg {
                white += u32::from(!gray);
            }
        }
        white
    }

    /// Executes one synchronous step of the state machine over a raw
    /// inbox, returning the next status and the (at most one) broadcast to
    /// send. This is the engine-independent core: the [`Protocol`] impl
    /// and the composite Theorem-6 protocol both delegate here.
    ///
    /// The inbox is iterated only when what the step computes from it can
    /// change the node's state: a gray node skips it in `IterStep1` and
    /// `IterStep3`, and an inactive node in `IterStep2` (see the module
    /// docs' "What a node reads").
    pub fn step<'m>(
        &mut self,
        inbox: impl Iterator<Item = &'m Alg3Msg> + Clone,
    ) -> (Status, Option<Alg3Msg>) {
        self.executed = self.phase;
        match self.phase {
            Phase::SendDegree => {
                self.phase = Phase::SendDelta1;
                (Status::Running, Some(Alg3Msg::Uint(self.degree)))
            }
            Phase::SendDelta1 => {
                self.delta1 = Self::max_uint(inbox, self.degree);
                self.phase = Phase::IterStep0 {
                    l: self.last,
                    m: self.last,
                    entering: Entering::FromSetup,
                };
                (Status::Running, Some(Alg3Msg::Uint(self.delta1)))
            }
            Phase::IterStep0 { l, m, entering } => {
                match entering {
                    Entering::FromSetup => {
                        self.delta2 = Self::max_uint(inbox, self.delta1);
                        // A forged `Uint(u32::MAX)` must not overflow.
                        self.gamma2 = self.delta2.saturating_add(1);
                    }
                    Entering::FromColor => {
                        self.delta_tilde = self.count_white(inbox);
                    }
                    Entering::FromGamma1 => {
                        self.gamma2 = Self::max_uint(inbox, self.gamma1);
                    }
                }
                // δ̃ ≥ 1 guards the degenerate γ⁽²⁾ = 0 case (everything
                // within distance 2 covered ⇒ threshold 0): a node with no
                // white closed neighbor must not activate — the paper
                // implicitly assumes this (a gray active node needs a white
                // neighbor for its weight to be distributable).
                self.active =
                    self.delta_tilde >= 1 && f64::from(self.delta_tilde) >= self.threshold(l);
                self.phase = Phase::IterStep1 { l, m };
                (Status::Running, self.active.then_some(Alg3Msg::Active))
            }
            Phase::IterStep1 { l, m } => {
                // A gray node's a(v) is 0 whatever its inbox holds.
                self.a_count = if self.is_gray {
                    0
                } else {
                    let mut count = u32::from(self.active);
                    for msg in inbox {
                        // Non-Active arms are byzantine garbage (see
                        // `max_uint`).
                        if msg == &Alg3Msg::Active {
                            count += 1;
                        }
                    }
                    count
                };
                self.phase = Phase::IterStep2 { l, m };
                (Status::Running, Some(Alg3Msg::Uint(self.a_count)))
            }
            Phase::IterStep2 { l, m } => {
                // Only an active node uses a¹ to raise its x.
                if self.active {
                    self.a1 = Self::max_uint(inbox, self.a_count);
                    // On reliable links a¹ ≥ 1 (the node's own Active is
                    // counted by some neighbor); lost or corrupted
                    // messages can starve it to 0, which the max(1)
                    // below degrades gracefully.
                    let a = self.a1.max(1);
                    let candidate = XCode::wire_value(a, m);
                    if candidate > self.x {
                        self.x = candidate;
                        self.x_wire = (a, m);
                    }
                }
                self.phase = Phase::IterStep3 { l, m };
                let (a, m) = self.x_wire;
                (Status::Running, Some(Alg3Msg::X { a, m }))
            }
            Phase::IterStep3 { l, m } => {
                // Gray is absorbing: a gray node's sum could only
                // re-confirm its color.
                if !self.is_gray {
                    let mut cover = self.x;
                    for msg in inbox {
                        // Non-X arms are byzantine garbage (see `max_uint`).
                        if let Alg3Msg::X { a, m } = *msg {
                            cover += XCode::wire_value(a, m);
                        }
                    }
                    if cover >= 1.0 - COVERAGE_TOLERANCE {
                        self.is_gray = true;
                    }
                }
                if l == 0 && m == 0 {
                    self.phase = Phase::Done;
                    return (Status::Halted, None);
                }
                self.phase = if m > 0 {
                    Phase::IterStep0 {
                        l,
                        m: m - 1,
                        entering: Entering::FromColor,
                    }
                } else {
                    Phase::OuterA { l }
                };
                (Status::Running, Some(Alg3Msg::Color(self.is_gray)))
            }
            Phase::OuterA { l } => {
                self.delta_tilde = self.count_white(inbox);
                self.phase = Phase::OuterB { l };
                (Status::Running, Some(Alg3Msg::Uint(self.delta_tilde)))
            }
            Phase::OuterB { l } => {
                self.gamma1 = Self::max_uint(inbox, self.delta_tilde);
                self.phase = Phase::IterStep0 {
                    l: l - 1,
                    m: self.last,
                    entering: Entering::FromGamma1,
                };
                (Status::Running, Some(Alg3Msg::Uint(self.gamma1)))
            }
            Phase::Done => (Status::Halted, None),
        }
    }
}

/// Broadcast-only: [`Alg3Protocol::step`] emits at most one message per
/// round, staged via `Ctx::broadcast` into the engine's arena send plane
/// (the solo fast path; no send buffer is ever handed to this code).
impl Protocol for Alg3Protocol {
    type Msg = Alg3Msg;
    type Output = Alg3Output;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Alg3Msg>) -> Status {
        let (status, send) = self.step(ctx.inbox().iter().map(|(_, m)| m));
        if let Some(msg) = send {
            ctx.broadcast(msg);
        }
        status
    }

    fn finish(self) -> Alg3Output {
        Alg3Output {
            x: self.x,
            is_gray: self.is_gray,
            delta2: u64::from(self.delta2),
        }
    }
}

/// Result of a distributed Algorithm 3 run.
#[derive(Clone, Debug)]
pub struct Alg3Run {
    /// The computed feasible `LP_MDS` solution.
    pub x: FractionalAssignment,
    /// Final colors (all gray on a correct run).
    pub gray: Vec<bool>,
    /// Each node's `δ⁽²⁾` from the setup rounds.
    pub delta2: Vec<u64>,
    /// Communication metrics (`rounds == 4k² + 2k`).
    pub metrics: RunMetrics,
    /// Messages sent per node.
    pub node_messages: Vec<u64>,
}

/// The largest `k` Algorithm 3 runs with: an x-value's `m < k` travels as
/// a `u16`.
const MAX_K: u32 = 1 << 16;

/// Rejects a `k` an Algorithm 3 program cannot run with: zero, past
/// [`MAX_K`], or a schedule of `rounds` rounds (Algorithm 3's own, plus
/// whatever follows it in the same engine) longer than
/// `engine.max_rounds`. Checked before any engine is built.
pub(crate) fn validate_alg3(k: u32, rounds: usize, engine: &EngineConfig) -> Result<(), CoreError> {
    if k > MAX_K {
        return Err(CoreError::InvalidConfig {
            reason: format!("k = {k} exceeds {MAX_K}, the largest k Algorithm 3 runs with"),
        });
    }
    validate_schedule(k, rounds, engine)
}

/// Runs Algorithm 3 on `g` with parameter `k`. No global knowledge is
/// passed to the nodes.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`, `k > 65_536`, or the
/// `4k² + 2k` rounds exceed `engine.max_rounds` (all checked before any
/// round runs); simulation errors are propagated.
pub fn run_alg3(g: &CsrGraph, k: u32, engine: EngineConfig) -> Result<Alg3Run, CoreError> {
    validate_alg3(k, crate::math::alg3_rounds(k), &engine)?;
    let report = Engine::new(g, engine, |info| Alg3Protocol::new(k, info.degree))
        .run(&mut ())
        .map_err(CoreError::Sim)?;
    let mut xs = Vec::with_capacity(g.len());
    let mut gray = Vec::with_capacity(g.len());
    let mut delta2 = Vec::with_capacity(g.len());
    for out in &report.outputs {
        xs.push(out.x);
        gray.push(out.is_gray);
        delta2.push(out.delta2);
    }
    Ok(Alg3Run {
        x: FractionalAssignment::from_values(xs),
        gray,
        delta2,
        metrics: report.metrics,
        node_messages: report.node_messages,
    })
}

/// Centralized lockstep reference implementation of Algorithm 3 (same
/// schedule, same floating-point operations; see
/// [`reference_alg2`](crate::alg2::reference_alg2) for the rationale).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`.
pub fn reference_alg3(g: &CsrGraph, k: u32) -> Result<FractionalAssignment, CoreError> {
    validate_k(k)?;
    let n = g.len();
    let mut x = vec![0.0f64; n];
    let mut x_code: Vec<Option<XCode>> = vec![None; n];
    let mut gray = vec![false; n];
    let mut delta_tilde: Vec<usize> = g.node_ids().map(|v| g.degree(v) + 1).collect();
    let mut gamma2: Vec<u64> = g.node_ids().map(|v| g.delta2(v) as u64 + 1).collect();
    for l in (0..k).rev() {
        for m in (0..k).rev() {
            let active: Vec<bool> = g
                .node_ids()
                .map(|v| {
                    let i = v.index();
                    let thr = (gamma2[i] as f64).powf(l as f64 / (l as f64 + 1.0));
                    delta_tilde[i] >= 1 && delta_tilde[i] as f64 >= thr
                })
                .collect();
            let a: Vec<u32> = g
                .node_ids()
                .map(|v| {
                    if gray[v.index()] {
                        0
                    } else {
                        let count = g.closed_neighbors(v).filter(|u| active[u.index()]).count();
                        u32::try_from(count).expect("closed neighborhoods fit in u32")
                    }
                })
                .collect();
            let a1: Vec<u32> = g
                .node_ids()
                .map(|v| {
                    g.closed_neighbors(v)
                        .map(|u| a[u.index()])
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            for v in g.node_ids() {
                let i = v.index();
                if active[i] {
                    let code = XCode { a: a1[i].max(1), m };
                    let candidate = code.value();
                    if candidate > x[i] {
                        x[i] = candidate;
                        x_code[i] = Some(code);
                    }
                }
            }
            let mut newly_gray = Vec::new();
            for v in g.node_ids() {
                if gray[v.index()] {
                    continue;
                }
                let cover: f64 = g.closed_neighbors(v).map(|u| x[u.index()]).sum();
                if cover >= 1.0 - COVERAGE_TOLERANCE {
                    newly_gray.push(v.index());
                }
            }
            for i in newly_gray {
                gray[i] = true;
            }
            for v in g.node_ids() {
                delta_tilde[v.index()] = g.closed_neighbors(v).filter(|u| !gray[u.index()]).count();
            }
        }
        if l > 0 {
            let gamma1: Vec<u64> = g
                .node_ids()
                .map(|v| {
                    g.closed_neighbors(v)
                        .map(|u| delta_tilde[u.index()] as u64)
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            for v in g.node_ids() {
                gamma2[v.index()] = g
                    .closed_neighbors(v)
                    .map(|u| gamma1[u.index()])
                    .max()
                    .unwrap_or(0);
            }
        }
    }
    Ok(FractionalAssignment::from_values(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math;
    use kw_graph::generators;
    use kw_sim::wire::roundtrip;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_graph(g: &CsrGraph, k: u32) -> Alg3Run {
        let run = run_alg3(g, k, EngineConfig::default()).unwrap();
        assert!(run.x.is_feasible(g), "infeasible x for k={k} on {g:?}");
        assert!(run.gray.iter().all(|&c| c), "all nodes must end gray");
        assert_eq!(
            run.metrics.rounds,
            math::alg3_rounds(k),
            "round count (Theorem 5)"
        );
        run
    }

    #[test]
    fn message_roundtrip() {
        for msg in [
            Alg3Msg::Uint(0),
            Alg3Msg::Uint(12345),
            Alg3Msg::Uint(u32::MAX),
            Alg3Msg::Active,
            Alg3Msg::X { a: 0, m: 0 },
            Alg3Msg::X { a: 17, m: 3 },
            Alg3Msg::X { a: u32::MAX, m: 3 },
            Alg3Msg::X { a: 1, m: u16::MAX },
            Alg3Msg::Color(true),
            Alg3Msg::Color(false),
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
        assert_eq!(Alg3Msg::Active.encoded_bits(), 2);
        assert_eq!(Alg3Msg::Color(false).encoded_bits(), 3);
        // x = 0 is the 2-bit tag and γ(0), with no m.
        let zero = Alg3Msg::X { a: 0, m: 0 };
        assert_eq!(zero.encoded_bits(), 3);
        let mut w = BitWriter::new();
        zero.encode(&mut w);
        let mut expected = BitWriter::new();
        expected.write_bits(0b10, 2);
        expected.write_gamma(0);
        assert_eq!(w.into_bytes(), expected.into_bytes());
    }

    #[test]
    fn messages_stay_narrow() {
        assert_eq!(std::mem::size_of::<Alg3Msg>(), 8);
        // The engine's solo table holds `Option<Msg>`: the niche keeps it
        // free.
        assert_eq!(std::mem::size_of::<Option<Alg3Msg>>(), 8);
    }

    #[test]
    fn values_past_u32_are_rejected() {
        // A `Uint` and an x-code `a` of 2³² decode to nothing.
        for (tag, tail) in [(0b00, None), (0b10, Some(3))] {
            let mut w = BitWriter::new();
            w.write_bits(tag, 2);
            w.write_gamma(1 << 32);
            if let Some(m) = tail {
                w.write_gamma(m);
            }
            let bytes = w.into_bytes();
            assert_eq!(Alg3Msg::decode(&mut BitReader::new(&bytes)), None);
        }
    }

    #[test]
    fn x_m_past_u16_is_rejected() {
        // An x-code's m travels as a u16; m = 2¹⁶ decodes to nothing.
        for (m, expected) in [
            (u64::from(u16::MAX), Some(Alg3Msg::X { a: 3, m: u16::MAX })),
            (1 << 16, None),
        ] {
            let mut w = BitWriter::new();
            w.write_bits(0b10, 2);
            w.write_gamma(3);
            w.write_gamma(m);
            let bytes = w.into_bytes();
            assert_eq!(Alg3Msg::decode(&mut BitReader::new(&bytes)), expected);
        }
    }

    /// An inbox that counts the messages `step` pulls from it.
    #[derive(Clone)]
    struct Counted<'a> {
        msgs: std::slice::Iter<'a, Alg3Msg>,
        reads: &'a std::cell::Cell<usize>,
    }

    impl<'a> Iterator for Counted<'a> {
        type Item = &'a Alg3Msg;

        fn next(&mut self) -> Option<&'a Alg3Msg> {
            self.reads.set(self.reads.get() + 1);
            self.msgs.next()
        }
    }

    #[test]
    fn gray_and_inactive_nodes_skip_the_reads_they_cannot_use() {
        // One node of degree 3 at k = 2, driven round by round. Each row is
        // the phase the step executes, its inbox, and whether the step may
        // read it: `false` rows must pull nothing, `true` rows all of it.
        let uint = |v| vec![Alg3Msg::Uint(v); 3];
        let x_one = vec![Alg3Msg::X { a: 1, m: 0 }];
        let rounds: Vec<(&str, Vec<Alg3Msg>, bool)> = vec![
            ("SendDelta1", uint(3), true),
            // δ⁽²⁾ = 3, so γ⁽²⁾ = 4 and the threshold at ℓ = 1 is 2 ≤ δ̃ = 4.
            ("IterStep0: white, active", uint(3), true),
            ("IterStep1: white", vec![Alg3Msg::Active; 3], true),
            ("IterStep2: active", uint(4), true),
            // x = 4^{-1/2} plus a neighbor's x = 1 covers the node.
            ("IterStep3: white", x_one.clone(), true),
            // Every neighbor gray too: δ̃ = 0, so the node is inactive.
            (
                "IterStep0: gray, inactive",
                vec![Alg3Msg::Color(true); 3],
                true,
            ),
            ("IterStep1: gray", vec![Alg3Msg::Active; 3], false),
            ("IterStep2: inactive", uint(4), false),
            ("IterStep3: gray", x_one.clone(), false),
            ("OuterA", vec![Alg3Msg::Color(false); 3], true),
            ("OuterB", uint(4), true),
            // γ⁽²⁾ = 4 and ℓ = 0: a gray node with a white neighbor is
            // active, and an active node reads its a¹ inbox.
            ("IterStep0: gray, active", uint(4), true),
            ("IterStep1: gray", vec![Alg3Msg::Active; 3], false),
            ("IterStep2: gray, active", uint(4), true),
            ("IterStep3: gray", x_one, false),
        ];
        let mut p = Alg3Protocol::new(2, 3);
        p.step([].iter()); // SendDegree
        let reads = std::cell::Cell::new(0);
        for (phase, inbox, reads_inbox) in rounds {
            reads.set(0);
            p.step(Counted {
                msgs: inbox.iter(),
                reads: &reads,
            });
            let expected = if reads_inbox { inbox.len() + 1 } else { 0 };
            assert_eq!(reads.get(), expected, "{phase}");
        }
        let state = p.state();
        assert!(state.is_gray);
        assert_eq!(state.a_count, 0);
        assert!((state.x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unrunnable_k_is_rejected_before_any_round() {
        let g = generators::path(3);
        let budget = |max_rounds| EngineConfig {
            max_rounds,
            ..EngineConfig::default()
        };
        // k = 2 takes 4k² + 2k = 20 rounds.
        assert!(matches!(
            run_alg3(&g, 2, budget(19)),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert_eq!(run_alg3(&g, 2, budget(20)).unwrap().metrics.rounds, 20);
        for k in [65_537, u32::MAX] {
            assert!(matches!(
                run_alg3(&g, k, budget(usize::MAX)),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn forged_u32_max_delta_saturates_gamma2() {
        let mut p = Alg3Protocol::new(2, 3);
        p.step([].iter());
        p.step([].iter());
        p.step([Alg3Msg::Uint(u32::MAX)].iter());
        assert_eq!(p.state().gamma2, u64::from(u32::MAX));
    }

    #[test]
    fn xcode_values() {
        assert_eq!(XCode { a: 5, m: 0 }.value(), 1.0);
        let v = XCode { a: 4, m: 1 }.value(); // 4^(-1/2) = 0.5
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feasible_on_fixed_families() {
        for k in [1u32, 2, 3] {
            check_graph(&generators::star(10), k);
            check_graph(&generators::cycle(12), k);
            check_graph(&generators::petersen(), k);
            check_graph(&generators::grid(4, 5), k);
            check_graph(&generators::star_of_cliques(3, 5), k);
        }
    }

    #[test]
    fn isolated_and_empty() {
        let g = CsrGraph::empty(3);
        let run = check_graph(&g, 2);
        assert!(run.x.values().iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let g0 = CsrGraph::empty(0);
        assert_eq!(
            run_alg3(&g0, 1, EngineConfig::default()).unwrap().x.len(),
            0
        );
    }

    #[test]
    fn k0_rejected() {
        let g = generators::path(2);
        assert!(run_alg3(&g, 0, EngineConfig::default()).is_err());
        assert!(reference_alg3(&g, 0).is_err());
    }

    #[test]
    fn distributed_matches_reference_exactly() {
        let mut rng = SmallRng::seed_from_u64(15);
        for k in [1u32, 2, 3, 4] {
            for g in [
                generators::gnp(50, 0.1, &mut rng),
                generators::unit_disk(50, 0.22, &mut rng),
                generators::barabasi_albert(50, 2, &mut rng),
                generators::star_of_cliques(4, 5),
                generators::caterpillar(6, 3),
            ] {
                let dist = run_alg3(&g, k, EngineConfig::default()).unwrap();
                let reference = reference_alg3(&g, k).unwrap();
                assert_eq!(
                    dist.x.values(),
                    reference.values(),
                    "k={k} mismatch on {g:?}"
                );
            }
        }
    }

    #[test]
    fn objective_respects_theorem5_bound_against_lp() {
        let mut rng = SmallRng::seed_from_u64(16);
        for k in [1u32, 2, 3] {
            for g in [
                generators::gnp(36, 0.12, &mut rng),
                generators::cycle(21),
                generators::star_of_cliques(3, 4),
            ] {
                let lp = kw_lp::domset::solve_lp_mds(&g).unwrap();
                let val = reference_alg3(&g, k).unwrap().objective();
                let bound = math::alg3_lp_bound(k, g.max_degree());
                assert!(
                    val <= bound * lp.value + 1e-6,
                    "k={k}: {val} > {bound} × {} on {g:?}",
                    lp.value
                );
            }
        }
    }

    #[test]
    fn delta2_output_matches_graph() {
        let g = generators::star_of_cliques(3, 4);
        let run = check_graph(&g, 2);
        for v in g.node_ids() {
            assert_eq!(run.delta2[v.index()], g.delta2(v) as u64);
        }
    }

    #[test]
    fn alg3_never_beats_alg2_by_definition_gap_only() {
        // Algorithm 3's x-values dominate Algorithm 2's in the worst case;
        // sanity: both feasible, alg3 objective within its (larger) bound.
        let g = generators::gnp(40, 0.15, &mut SmallRng::seed_from_u64(17));
        let a2 = crate::alg2::reference_alg2(&g, 3).unwrap().objective();
        let a3 = reference_alg3(&g, 3).unwrap().objective();
        let lp = kw_lp::domset::solve_lp_mds(&g).unwrap().value;
        assert!(a2 <= math::alg2_lp_bound(3, g.max_degree()) * lp + 1e-6);
        assert!(a3 <= math::alg3_lp_bound(3, g.max_degree()) * lp + 1e-6);
    }

    #[test]
    fn parallel_engine_identical() {
        let g = generators::gnp(70, 0.1, &mut SmallRng::seed_from_u64(18));
        let seq = run_alg3(
            &g,
            2,
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = run_alg3(
            &g,
            2,
            EngineConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.x.values(), par.x.values());
        assert_eq!(seq.metrics, par.metrics);
    }

    #[test]
    fn message_size_is_logarithmic() {
        let g = generators::star(200); // Δ = 199
        let run = check_graph(&g, 3);
        // Largest message: Uint(γ-scale value ≤ 200) ≈ 2 + 2·8+1 bits.
        assert!(
            run.metrics.max_message_bits <= 2 + 2 * 9 + 1,
            "max bits {}",
            run.metrics.max_message_bits
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn always_feasible(
                n in 1usize..32,
                p in 0.0f64..1.0,
                k in 1u32..5,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let x = reference_alg3(&g, k).unwrap();
                prop_assert!(x.is_feasible(&g));
                prop_assert!(x.values().iter().all(|&v| v <= 1.0 + 1e-12));
            }
        }
    }
}
