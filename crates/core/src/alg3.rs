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

use kw_graph::{CsrGraph, FractionalAssignment, COVERAGE_TOLERANCE};
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::alg2::validate_k;
use crate::CoreError;

/// Wire form of an Algorithm 3 x-value: `x = a^{−m/(m+1)}`.
///
/// Sending the defining integer pair instead of a raw float keeps messages
/// at `O(log Δ + log k)` bits and makes the receiver's reconstruction
/// bit-identical to the sender's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XCode {
    /// The active-neighbor maximum `a⁽¹⁾ ≥ 1` at assignment time.
    pub a: u64,
    /// The inner-iteration index `m`.
    pub m: u32,
}

impl XCode {
    /// The x-value this code denotes.
    pub fn value(self) -> f64 {
        (self.a as f64).powf(-(self.m as f64) / (self.m as f64 + 1.0))
    }
}

/// Messages exchanged by Algorithm 3. The meaning of `Uint` depends on the
/// (globally synchronized) schedule position: degree, `δ⁽¹⁾`, `a(v)`,
/// `δ̃`, or `γ⁽¹⁾`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg3Msg {
    /// An unsigned quantity (see above).
    Uint(u64),
    /// Presence message: "I am active this iteration".
    Active,
    /// The sender's current x-value (`None` = 0).
    X(Option<XCode>),
    /// Whether the sender is gray.
    Color(bool),
}

impl WireEncode for Alg3Msg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Alg3Msg::Uint(v) => {
                w.write_bits(0b00, 2);
                w.write_gamma(*v);
            }
            Alg3Msg::Active => w.write_bits(0b01, 2),
            Alg3Msg::X(code) => {
                w.write_bits(0b10, 2);
                match code {
                    None => w.write_gamma(0),
                    Some(XCode { a, m }) => {
                        w.write_gamma(*a);
                        w.write_gamma(u64::from(*m));
                    }
                }
            }
            Alg3Msg::Color(gray) => {
                w.write_bits(0b11, 2);
                w.write_bit(*gray);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(match r.read_bits(2)? {
            0b00 => Alg3Msg::Uint(r.read_gamma()?),
            0b01 => Alg3Msg::Active,
            0b10 => match r.read_gamma()? {
                0 => Alg3Msg::X(None),
                a => {
                    let m = u32::try_from(r.read_gamma()?).ok()?;
                    Alg3Msg::X(Some(XCode { a, m }))
                }
            },
            _ => Alg3Msg::Color(r.read_bit()?),
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            Alg3Msg::Uint(v) => 2 + wire::gamma_len(*v),
            Alg3Msg::Active => 2,
            Alg3Msg::X(None) => 2 + wire::gamma_len(0),
            Alg3Msg::X(Some(XCode { a, m })) => {
                2 + wire::gamma_len(*a) + wire::gamma_len(u64::from(*m))
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
    IterStep0 { l: u32, m: u32, entering: Entering },
    IterStep1 { l: u32, m: u32 },
    IterStep2 { l: u32, m: u32 },
    IterStep3 { l: u32, m: u32 },
    OuterA { l: u32 },
    OuterB { l: u32 },
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
    /// Last computed maximum `a⁽¹⁾(v)`.
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
    k: u32,
    degree: u64,
    phase: Phase,
    /// The phase most recently executed (what observers should attribute
    /// the current state to).
    executed: Phase,
    delta1: u64,
    delta2: u64,
    gamma1: u64,
    gamma2: u64,
    delta_tilde: usize,
    x: f64,
    x_code: Option<XCode>,
    is_gray: bool,
    active: bool,
    a_count: u64,
    a1: u64,
}

impl Alg3Protocol {
    /// Creates the program for one node of degree `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (validated centrally by [`run_alg3`]).
    pub fn new(k: u32, degree: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        Alg3Protocol {
            k,
            degree: degree as u64,
            phase: Phase::SendDegree,
            executed: Phase::SendDegree,
            delta1: degree as u64,
            delta2: degree as u64,
            gamma1: 0,
            gamma2: degree as u64 + 1,
            delta_tilde: degree + 1,
            x: 0.0,
            x_code: None,
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
        };
        Alg3State {
            x: self.x,
            is_gray: self.is_gray,
            delta_tilde: self.delta_tilde,
            gamma2: self.gamma2,
            gamma1: self.gamma1,
            active: self.active,
            a_count: self.a_count,
            a1: self.a1,
            position,
        }
    }

    /// The activity threshold `γ⁽²⁾(v)^{ℓ/(ℓ+1)}`.
    fn threshold(&self, l: u32) -> f64 {
        (self.gamma2 as f64).powf(l as f64 / (l as f64 + 1.0))
    }

    /// The node's `δ⁽²⁾` learned during setup (valid after the setup
    /// rounds; the composite protocol reuses it for the rounding stage).
    pub fn delta2(&self) -> u64 {
        self.delta2
    }

    fn max_uint<'m>(inbox: impl Iterator<Item = &'m Alg3Msg>, own: u64) -> u64 {
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

    fn count_white<'m>(&self, inbox: impl Iterator<Item = &'m Alg3Msg>) -> usize {
        let mut white = usize::from(!self.is_gray);
        for msg in inbox {
            // Non-Color arms are byzantine garbage (see `max_uint`).
            if let Alg3Msg::Color(gray) = msg {
                white += usize::from(!gray);
            }
        }
        white
    }

    /// Executes one synchronous step of the state machine over a raw
    /// inbox, returning the next status and the (at most one) broadcast to
    /// send. This is the engine-independent core: the [`Protocol`] impl
    /// and the composite Theorem-6 protocol both delegate here.
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
                    l: self.k - 1,
                    m: self.k - 1,
                    entering: Entering::FromSetup,
                };
                (Status::Running, Some(Alg3Msg::Uint(self.delta1)))
            }
            Phase::IterStep0 { l, m, entering } => {
                match entering {
                    Entering::FromSetup => {
                        self.delta2 = Self::max_uint(inbox, self.delta1);
                        self.gamma2 = self.delta2 + 1;
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
                self.active = self.delta_tilde >= 1 && self.delta_tilde as f64 >= self.threshold(l);
                self.phase = Phase::IterStep1 { l, m };
                (Status::Running, self.active.then_some(Alg3Msg::Active))
            }
            Phase::IterStep1 { l, m } => {
                let mut count = u64::from(self.active);
                for msg in inbox {
                    // Non-Active arms are byzantine garbage (see `max_uint`).
                    if msg == &Alg3Msg::Active {
                        count += 1;
                    }
                }
                self.a_count = if self.is_gray { 0 } else { count };
                self.phase = Phase::IterStep2 { l, m };
                (Status::Running, Some(Alg3Msg::Uint(self.a_count)))
            }
            Phase::IterStep2 { l, m } => {
                self.a1 = Self::max_uint(inbox, self.a_count);
                if self.active {
                    // On reliable links a¹ ≥ 1 (the node's own Active is
                    // counted by some neighbor); lost or corrupted
                    // messages can starve it to 0, which the max(1)
                    // below degrades gracefully.
                    let code = XCode {
                        a: self.a1.max(1),
                        m,
                    };
                    let candidate = code.value();
                    if candidate > self.x {
                        self.x = candidate;
                        self.x_code = Some(code);
                    }
                }
                self.phase = Phase::IterStep3 { l, m };
                (Status::Running, Some(Alg3Msg::X(self.x_code)))
            }
            Phase::IterStep3 { l, m } => {
                let mut cover = self.x;
                for msg in inbox {
                    // Non-X arms are byzantine garbage (see `max_uint`).
                    if let Alg3Msg::X(code) = msg {
                        cover += code.map_or(0.0, XCode::value);
                    }
                }
                if cover >= 1.0 - COVERAGE_TOLERANCE {
                    self.is_gray = true;
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
                (
                    Status::Running,
                    Some(Alg3Msg::Uint(self.delta_tilde as u64)),
                )
            }
            Phase::OuterB { l } => {
                self.gamma1 = Self::max_uint(inbox, self.delta_tilde as u64);
                self.phase = Phase::IterStep0 {
                    l: l - 1,
                    m: self.k - 1,
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
        let inbox = ctx.inbox_slice();
        let (status, send) = self.step(inbox.iter().map(|(_, m)| m));
        if let Some(msg) = send {
            ctx.broadcast(msg);
        }
        status
    }

    fn finish(self) -> Alg3Output {
        Alg3Output {
            x: self.x,
            is_gray: self.is_gray,
            delta2: self.delta2,
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

/// Runs Algorithm 3 on `g` with parameter `k`. No global knowledge is
/// passed to the nodes.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`; simulation errors are
/// propagated.
pub fn run_alg3(g: &CsrGraph, k: u32, engine: EngineConfig) -> Result<Alg3Run, CoreError> {
    validate_k(k)?;
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
            let a: Vec<u64> = g
                .node_ids()
                .map(|v| {
                    if gray[v.index()] {
                        0
                    } else {
                        g.closed_neighbors(v).filter(|u| active[u.index()]).count() as u64
                    }
                })
                .collect();
            let a1: Vec<u64> = g
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
            Alg3Msg::Active,
            Alg3Msg::X(None),
            Alg3Msg::X(Some(XCode { a: 17, m: 3 })),
            Alg3Msg::Color(true),
            Alg3Msg::Color(false),
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
        assert_eq!(Alg3Msg::Active.encoded_bits(), 2);
        assert_eq!(Alg3Msg::Color(false).encoded_bits(), 3);
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
