//! Algorithm 2: distributed `LP_MDS` approximation when `Δ` is known.
//!
//! Every node runs `k` outer iterations (indexed `ℓ = k−1 … 0`) of `k`
//! inner iterations (indexed `m = k−1 … 0`). A node is *active* in an inner
//! iteration when its dynamic degree `δ̃` (the number of still-uncovered
//! nodes in its closed neighborhood) is at least `(Δ+1)^{ℓ/k}`; active
//! nodes raise their fractional value to `x := max(x, (Δ+1)^{−m/k})`. Each
//! inner iteration exchanges two messages — the x-values and then the
//! colors — for exactly `2k²` rounds (Theorem 4).
//!
//! ## Message-order note (listing vs. proofs)
//!
//! The journal listing sends the *color* message before the *x* message
//! inside each inner iteration. Taken literally, the dynamic degree a node
//! uses in its activity check would lag the true covering state by one full
//! iteration, and the Lemma 2 invariant (`δ̃ ≤ (Δ+1)^{(ℓ+1)/k}` at the
//! start of outer iteration `ℓ`) would not hold on e.g. star graphs. We
//! implement the order the proofs (and the paper's own Algorithm 3 listing)
//! require: x-exchange, recolor, color-exchange, δ̃-update. The runtime
//! invariant checkers in [`crate::invariants`] verify Lemmas 2–4 on every
//! run.
//!
//! # Example
//!
//! ```
//! use kw_graph::generators;
//! use kw_core::alg2::run_alg2;
//! use kw_sim::EngineConfig;
//!
//! let g = generators::petersen();
//! let run = run_alg2(&g, 2, EngineConfig::default())?;
//! assert!(run.x.is_feasible(&g));
//! assert_eq!(run.metrics.rounds, 8); // 2k²
//! # Ok::<(), kw_core::CoreError>(())
//! ```

use kw_graph::{CsrGraph, FractionalAssignment, COVERAGE_TOLERANCE};
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::math::frac_pow;
use crate::CoreError;

/// Messages exchanged by Algorithm 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg2Msg {
    /// The sender's current x-value, encoded as the exponent `m` of
    /// `x = (Δ+1)^{−m/k}` (`None` means `x = 0`). `O(log k)` bits.
    X(Option<u32>),
    /// Whether the sender is gray (covered). 2 bits.
    Color(bool),
}

impl WireEncode for Alg2Msg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            Alg2Msg::X(m) => {
                w.write_bit(false);
                w.write_gamma(m.map_or(0, |m| u64::from(m) + 1));
            }
            Alg2Msg::Color(gray) => {
                w.write_bit(true);
                w.write_bit(*gray);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(if r.read_bit()? {
            Alg2Msg::Color(r.read_bit()?)
        } else {
            match r.read_gamma()? {
                0 => Alg2Msg::X(None),
                m => Alg2Msg::X(Some(u32::try_from(m - 1).ok()?)),
            }
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            Alg2Msg::X(m) => 1 + wire::gamma_len(m.map_or(0, |m| u64::from(m) + 1)),
            Alg2Msg::Color(_) => 2,
        }
    }
}

/// Read-only view of a node's Algorithm 2 state, for observers.
#[derive(Clone, Copy, Debug)]
pub struct Alg2State {
    /// Current fractional value.
    pub x: f64,
    /// Whether the node is covered (gray).
    pub is_gray: bool,
    /// Current dynamic degree `δ̃` (white nodes in the closed
    /// neighborhood, as known to the node).
    pub delta_tilde: usize,
    /// Whether the node was active in the current inner iteration.
    pub active: bool,
    /// Completed-or-current inner iteration index `t = (k−1−ℓ)·k + (k−1−m)`.
    pub iteration: u32,
}

/// Per-node output of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alg2Output {
    /// Final fractional value `x_i`.
    pub x: f64,
    /// Final color.
    pub is_gray: bool,
}

/// The Algorithm 2 node program.
///
/// Requires global knowledge of the maximum degree `Δ`, exactly as the
/// paper assumes ("all nodes know ∆"); [`run_alg2`] supplies it from the
/// graph.
#[derive(Clone, Debug)]
pub struct Alg2Protocol {
    k: u32,
    delta_plus_1: f64,
    m_best: Option<u32>,
    x: f64,
    is_gray: bool,
    delta_tilde: usize,
    active: bool,
    t: u32,
}

impl Alg2Protocol {
    /// Creates the program for one node.
    ///
    /// `degree` is the node's own degree; `delta` the global maximum
    /// degree; `k` the trade-off parameter.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (validated centrally by [`run_alg2`]).
    pub fn new(k: u32, delta: usize, degree: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        Alg2Protocol {
            k,
            delta_plus_1: delta as f64 + 1.0,
            m_best: None,
            x: 0.0,
            is_gray: false,
            delta_tilde: degree + 1,
            active: false,
            t: 0,
        }
    }

    /// Observer snapshot of the node's state.
    pub fn state(&self) -> Alg2State {
        Alg2State {
            x: self.x,
            is_gray: self.is_gray,
            delta_tilde: self.delta_tilde,
            active: self.active,
            iteration: self.t,
        }
    }

    fn decode_x(&self, m: Option<u32>) -> f64 {
        match m {
            None => 0.0,
            Some(m) => frac_pow(self.delta_plus_1, -i64::from(m), self.k),
        }
    }
}

/// Broadcast-only: each round stages at most one `Ctx::broadcast`, the
/// shape the engine's arena send plane serves through its solo fast path
/// (metrics are charged and the payload cached at the moment of the
/// send; delivery never re-walks a send buffer).
impl Protocol for Alg2Protocol {
    type Msg = Alg2Msg;
    type Output = Alg2Output;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Alg2Msg>) -> Status {
        let round = ctx.round();
        let t = (round / 2) as u32;
        if round % 2 == 0 {
            // Step 0 of iteration t: ingest colors from the previous
            // iteration, run the activity check, raise x, send x.
            self.t = t;
            if t > 0 {
                let mut white = usize::from(!self.is_gray);
                for (_, msg) in ctx.inbox() {
                    match msg {
                        Alg2Msg::Color(gray) => white += usize::from(!gray),
                        // Honest lock-step senders never mix variants;
                        // a wrong-variant payload is byzantine corruption
                        // that happened to decode — garbage, dropped.
                        Alg2Msg::X(_) => {}
                    }
                }
                self.delta_tilde = white;
            }
            let l = self.k - 1 - t / self.k;
            let m = self.k - 1 - t % self.k;
            let threshold = frac_pow(self.delta_plus_1, i64::from(l), self.k);
            self.active = self.delta_tilde as f64 >= threshold;
            if self.active && self.m_best.is_none_or(|mb| m < mb) {
                self.m_best = Some(m);
                self.x = self.decode_x(Some(m));
            }
            ctx.broadcast(Alg2Msg::X(self.m_best));
            Status::Running
        } else {
            // Step 1 of iteration t: ingest x-values, recolor, send color.
            let mut cover = self.x;
            for (_, msg) in ctx.inbox() {
                match msg {
                    Alg2Msg::X(m) => cover += self.decode_x(*m),
                    Alg2Msg::Color(_) => {} // byzantine garbage (see step 0)
                }
            }
            if cover >= 1.0 - COVERAGE_TOLERANCE {
                self.is_gray = true;
            }
            if t + 1 == self.k * self.k {
                Status::Halted
            } else {
                ctx.broadcast(Alg2Msg::Color(self.is_gray));
                Status::Running
            }
        }
    }

    fn finish(self) -> Alg2Output {
        Alg2Output {
            x: self.x,
            is_gray: self.is_gray,
        }
    }
}

/// Result of a distributed Algorithm 2 run.
#[derive(Clone, Debug)]
pub struct Alg2Run {
    /// The computed feasible `LP_MDS` solution.
    pub x: FractionalAssignment,
    /// Final colors (all gray on a correct run).
    pub gray: Vec<bool>,
    /// Communication metrics (`rounds == 2k²`).
    pub metrics: RunMetrics,
    /// Messages sent per node.
    pub node_messages: Vec<u64>,
}

/// Runs Algorithm 2 on `g` with parameter `k`.
///
/// `Δ` is taken from the graph, mirroring the paper's assumption that all
/// nodes know the maximum degree.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`; simulation errors are
/// propagated (they indicate bugs, not expected outcomes).
pub fn run_alg2(g: &CsrGraph, k: u32, engine: EngineConfig) -> Result<Alg2Run, CoreError> {
    validate_k(k)?;
    let delta = g.max_degree();
    let report = Engine::new(g, engine, |info| Alg2Protocol::new(k, delta, info.degree))
        .run(&mut ())
        .map_err(CoreError::Sim)?;
    let mut xs = Vec::with_capacity(g.len());
    let mut gray = Vec::with_capacity(g.len());
    for out in &report.outputs {
        xs.push(out.x);
        gray.push(out.is_gray);
    }
    Ok(Alg2Run {
        x: FractionalAssignment::from_values(xs),
        gray,
        metrics: report.metrics,
        node_messages: report.node_messages,
    })
}

pub(crate) fn validate_k(k: u32) -> Result<(), CoreError> {
    if k == 0 {
        Err(CoreError::InvalidConfig {
            reason: "k must be at least 1".to_string(),
        })
    } else {
        Ok(())
    }
}

/// Centralized lockstep reference implementation of Algorithm 2.
///
/// Executes the identical schedule and floating-point operations as the
/// distributed protocol; tests assert bit-identical outputs. This is the
/// implementation to read when studying the algorithm, and the oracle that
/// catches engine-level bugs.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`.
pub fn reference_alg2(g: &CsrGraph, k: u32) -> Result<FractionalAssignment, CoreError> {
    validate_k(k)?;
    let n = g.len();
    let d1 = g.max_degree() as f64 + 1.0;
    let mut x = vec![0.0f64; n];
    let mut gray = vec![false; n];
    let mut delta_tilde: Vec<usize> = g.node_ids().map(|v| g.degree(v) + 1).collect();
    for l in (0..k).rev() {
        for m in (0..k).rev() {
            let threshold = frac_pow(d1, i64::from(l), k);
            // Activity check + x raise (step 0).
            let active: Vec<bool> = (0..n).map(|i| delta_tilde[i] as f64 >= threshold).collect();
            for i in 0..n {
                if active[i] {
                    x[i] = x[i].max(frac_pow(d1, -i64::from(m), k));
                }
            }
            // Recolor from x sums (step 1), summing in closed-neighbor
            // order to match the distributed message order exactly.
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
            // δ̃ update from fresh colors (start of next step 0).
            for v in g.node_ids() {
                delta_tilde[v.index()] = g.closed_neighbors(v).filter(|u| !gray[u.index()]).count();
            }
        }
    }
    Ok(FractionalAssignment::from_values(x))
}

/// Convenience: the objective value Algorithm 2 would report for `g`
/// without running the simulator (reference implementation).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`.
pub fn reference_alg2_value(g: &CsrGraph, k: u32) -> Result<f64, CoreError> {
    Ok(reference_alg2(g, k)?.objective())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::{generators, NodeId};
    use kw_sim::wire::roundtrip;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_graph(g: &CsrGraph, k: u32) -> Alg2Run {
        let run = run_alg2(g, k, EngineConfig::default()).unwrap();
        assert!(run.x.is_feasible(g), "infeasible x for k={k} on {g:?}");
        assert!(run.gray.iter().all(|&c| c), "all nodes must end gray");
        assert_eq!(
            run.metrics.rounds,
            crate::math::alg2_rounds(k),
            "round count (Theorem 4)"
        );
        run
    }

    #[test]
    fn message_roundtrip() {
        for msg in [
            Alg2Msg::X(None),
            Alg2Msg::X(Some(0)),
            Alg2Msg::X(Some(7)),
            Alg2Msg::Color(true),
            Alg2Msg::Color(false),
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
        // O(log k)-bit claim: exponent 7 costs 1 tag + gamma(8) = 8 bits.
        assert_eq!(Alg2Msg::X(Some(7)).encoded_bits(), 8);
        assert_eq!(Alg2Msg::Color(true).encoded_bits(), 2);
    }

    #[test]
    fn feasible_on_fixed_families() {
        for k in [1u32, 2, 3] {
            check_graph(&generators::star(10), k);
            check_graph(&generators::cycle(12), k);
            check_graph(&generators::petersen(), k);
            check_graph(&generators::grid(4, 5), k);
            check_graph(&generators::star_of_cliques(3, 5), k);
            check_graph(&generators::complete(8), k);
        }
    }

    #[test]
    fn isolated_and_empty() {
        let g = CsrGraph::empty(3);
        let run = check_graph(&g, 2);
        // Isolated nodes must self-cover with x = 1.
        assert!(run.x.values().iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let g0 = CsrGraph::empty(0);
        let run = run_alg2(&g0, 2, EngineConfig::default()).unwrap();
        assert_eq!(run.x.len(), 0);
    }

    #[test]
    fn k1_sets_everything_to_one() {
        let g = generators::cycle(6);
        let run = check_graph(&g, 1);
        assert!(run.x.values().iter().all(|&x| x == 1.0));
        assert_eq!(run.metrics.rounds, 2);
    }

    #[test]
    fn k0_rejected() {
        let g = generators::path(2);
        assert!(matches!(
            run_alg2(&g, 0, EngineConfig::default()),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(reference_alg2(&g, 0).is_err());
    }

    #[test]
    fn distributed_matches_reference_exactly() {
        let mut rng = SmallRng::seed_from_u64(5);
        for k in [1u32, 2, 3, 4] {
            for g in [
                generators::gnp(60, 0.08, &mut rng),
                generators::unit_disk(60, 0.2, &mut rng),
                generators::barabasi_albert(60, 2, &mut rng),
                generators::star_of_cliques(4, 6),
            ] {
                let dist = run_alg2(&g, k, EngineConfig::default()).unwrap();
                let reference = reference_alg2(&g, k).unwrap();
                assert_eq!(
                    dist.x.values(),
                    reference.values(),
                    "k={k} mismatch on {g:?}"
                );
            }
        }
    }

    #[test]
    fn objective_respects_theorem4_bound_against_lp() {
        let mut rng = SmallRng::seed_from_u64(6);
        for k in [1u32, 2, 3] {
            for g in [
                generators::gnp(40, 0.1, &mut rng),
                generators::cycle(24),
                generators::star_of_cliques(3, 5),
            ] {
                let lp = kw_lp::domset::solve_lp_mds(&g).unwrap();
                let val = reference_alg2_value(&g, k).unwrap();
                let bound = crate::math::alg2_lp_bound(k, g.max_degree());
                assert!(
                    val <= bound * lp.value + 1e-6,
                    "k={k}: {val} > {bound} × {} on {g:?}",
                    lp.value
                );
            }
        }
    }

    #[test]
    fn message_complexity_per_node() {
        let g = generators::gnp(50, 0.15, &mut SmallRng::seed_from_u64(7));
        let k = 3u32;
        let run = check_graph(&g, k);
        let k2 = (k * k) as u64;
        for v in g.node_ids() {
            let deg = g.degree(v) as u64;
            // k² x-broadcasts + (k²−1) color-broadcasts.
            assert_eq!(run.node_messages[v.index()], (2 * k2 - 1) * deg);
        }
        // O(log Δ) message size: tag + gamma(m+1) with m < k.
        assert!(run.metrics.max_message_bits <= 2 * (64 - (k as u64).leading_zeros() as usize) + 3);
    }

    #[test]
    fn star_assigns_center_high_value() {
        // On a star with k=2 the center is the only high-degree node; it
        // must end with substantial x while leaves stay low.
        let g = generators::star(26); // Δ = 25
        let run = check_graph(&g, 2);
        let center = run.x.get(NodeId::new(0));
        assert!(center > 0.0);
        let leaf = run.x.get(NodeId::new(1));
        assert!(center >= leaf);
        // Objective far below n (the k=1 trivial outcome).
        assert!(run.x.objective() < 13.0, "objective {}", run.x.objective());
    }

    #[test]
    fn parallel_engine_identical() {
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(8));
        let seq = run_alg2(
            &g,
            3,
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = run_alg2(
            &g,
            3,
            EngineConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.x.values(), par.x.values());
        assert_eq!(seq.metrics, par.metrics);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn always_feasible_and_bounded(
                n in 1usize..40,
                p in 0.0f64..1.0,
                k in 1u32..5,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let x = reference_alg2(&g, k).unwrap();
                prop_assert!(x.is_feasible(&g));
                // Σx ≤ k(Δ+1)^{2/k} · LP_OPT ≤ k(Δ+1)^{2/k} · n, and each
                // x_i ≤ 1.
                prop_assert!(x.values().iter().all(|&v| v <= 1.0 + 1e-12));
            }
        }
    }
}
