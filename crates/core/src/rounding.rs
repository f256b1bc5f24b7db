//! Algorithm 1: distributed randomized rounding `LP_MDS → IP_MDS`.
//!
//! Given any feasible fractional solution `x^(α)`, every node computes
//! `δ⁽²⁾` (two rounds), joins the dominating set with probability
//! `p_i = min(1, x_i · ln(δ⁽²⁾_i + 1))`, announces its decision (one
//! round), and finally joins anyway if nobody in its closed neighborhood
//! did (the deterministic fallback of lines 5–6, which makes the output a
//! dominating set with probability 1). Four rounds total.
//!
//! Theorem 3: if `x^(α)` is an `α`-approximation of `LP_MDS`, the expected
//! size is at most `(1 + α·ln(Δ+1))·|DS_OPT|`. The remark after Theorem 3
//! offers the multiplier `ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1)` instead, for an
//! expected `2α(ln(Δ+1) − ln ln(Δ+1))` ratio; both are implemented
//! ([`Multiplier`]), as is disabling the fallback for the failure-rate
//! ablation (experiment A1).
//!
//! # Example
//!
//! ```
//! use kw_graph::{generators, FractionalAssignment};
//! use kw_core::rounding::{run_rounding, RoundingConfig};
//! use kw_sim::EngineConfig;
//!
//! let g = generators::cycle(9);
//! // The LP optimum on C9 assigns 1/3 everywhere.
//! let x = FractionalAssignment::uniform(&g, 1.0 / 3.0);
//! let run = run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::seeded(1))?;
//! assert!(run.set.is_dominating(&g));
//! assert_eq!(run.metrics.rounds, 4);
//! # Ok::<(), kw_core::CoreError>(())
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use kw_graph::{CsrGraph, DominatingSet, FractionalAssignment};
use kw_sim::rng::node_seed;
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::CoreError;

/// The probability multiplier applied to `x_i` (line 2 of Algorithm 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Multiplier {
    /// `ln(δ⁽²⁾ + 1)` — the paper's main choice (Theorem 3).
    #[default]
    Ln,
    /// `ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1)` — the remark's variant; falls back to
    /// plain `ln` when `ln(δ⁽²⁾+1) ≤ 1` (degenerate tiny degrees where the
    /// correction is meaningless).
    LnMinusLnLn,
}

impl Multiplier {
    /// Evaluates the multiplier for a given `δ⁽²⁾`.
    pub fn eval(self, delta2: u64) -> f64 {
        let l = (delta2 as f64 + 1.0).ln();
        match self {
            Multiplier::Ln => l,
            Multiplier::LnMinusLnLn => {
                if l > 1.0 {
                    l - l.ln()
                } else {
                    l
                }
            }
        }
    }
}

/// Configuration of the rounding stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundingConfig {
    /// Probability multiplier (line 2).
    pub multiplier: Multiplier,
    /// Whether to run the deterministic fallback (lines 5–6). Disabling it
    /// exists only for the coverage-failure ablation; real deployments must
    /// keep it on.
    pub skip_fallback: bool,
}

/// Messages of Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundingMsg {
    /// A degree or `δ⁽¹⁾` value (setup rounds).
    Degree(u64),
    /// The sender's membership decision.
    InSet(bool),
}

impl WireEncode for RoundingMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            RoundingMsg::Degree(d) => {
                w.write_bit(false);
                w.write_gamma(*d);
            }
            RoundingMsg::InSet(b) => {
                w.write_bit(true);
                w.write_bit(*b);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(if r.read_bit()? {
            RoundingMsg::InSet(r.read_bit()?)
        } else {
            RoundingMsg::Degree(r.read_gamma()?)
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            RoundingMsg::Degree(d) => 1 + wire::gamma_len(*d),
            RoundingMsg::InSet(_) => 2,
        }
    }
}

/// Per-node output of the rounding stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundingOutput {
    /// Whether the node joined the dominating set.
    pub in_set: bool,
    /// Whether membership came from the fallback (lines 5–6) rather than
    /// the random draw.
    pub via_fallback: bool,
    /// The sampling probability `p_i` the node used.
    pub probability: f64,
}

/// The Algorithm 1 node program.
#[derive(Clone, Debug)]
pub struct Alg1Protocol {
    config: RoundingConfig,
    x: f64,
    degree: u64,
    delta1: u64,
    delta2: u64,
    /// When set, skip the setup rounds and use this as `δ⁽²⁾` (the
    /// pipeline reuses Algorithm 3's setup).
    preset_delta2: Option<u64>,
    probability: f64,
    in_set: bool,
    via_fallback: bool,
}

impl Alg1Protocol {
    /// Creates the program for a node with fractional value `x` and degree
    /// `degree`.
    pub fn new(config: RoundingConfig, x: f64, degree: usize) -> Self {
        Alg1Protocol {
            config,
            x,
            degree: degree as u64,
            delta1: degree as u64,
            delta2: degree as u64,
            preset_delta2: None,
            probability: 0.0,
            in_set: false,
            via_fallback: false,
        }
    }

    /// Like [`new`](Self::new), but `δ⁽²⁾` is already known (e.g. computed
    /// by Algorithm 3's setup rounds), skipping the two degree-exchange
    /// rounds.
    pub fn with_known_delta2(config: RoundingConfig, x: f64, degree: usize, delta2: u64) -> Self {
        let mut p = Self::new(config, x, degree);
        p.preset_delta2 = Some(delta2);
        p
    }

    fn draw_and_announce(&mut self, ctx: &mut Ctx<'_, RoundingMsg>) {
        self.probability = (self.x * self.config.multiplier.eval(self.delta2)).min(1.0);
        self.in_set = ctx.rng().gen::<f64>() < self.probability;
        ctx.broadcast(RoundingMsg::InSet(self.in_set));
    }
}

/// Broadcast-only: every round stages at most one `Ctx::broadcast`
/// (membership or degree announcements), so the engine's arena send
/// plane serves this protocol through its solo-broadcast fast path.
impl Protocol for Alg1Protocol {
    type Msg = RoundingMsg;
    type Output = RoundingOutput;

    fn on_round(&mut self, ctx: &mut Ctx<'_, RoundingMsg>) -> Status {
        let offset = if self.preset_delta2.is_some() { 2 } else { 0 };
        match ctx.round() + offset {
            0 => {
                ctx.broadcast(RoundingMsg::Degree(self.degree));
                Status::Running
            }
            1 => {
                let mut best = self.degree;
                for (_, msg) in ctx.inbox() {
                    if let RoundingMsg::Degree(d) = msg {
                        best = best.max(*d);
                    }
                }
                self.delta1 = best;
                ctx.broadcast(RoundingMsg::Degree(self.delta1));
                Status::Running
            }
            2 => {
                if let Some(d2) = self.preset_delta2 {
                    self.delta2 = d2;
                } else {
                    let mut best = self.delta1;
                    for (_, msg) in ctx.inbox() {
                        if let RoundingMsg::Degree(d) = msg {
                            best = best.max(*d);
                        }
                    }
                    self.delta2 = best;
                }
                self.draw_and_announce(ctx);
                Status::Running
            }
            _ => {
                let neighbor_in_set = ctx
                    .inbox()
                    .iter()
                    .any(|(_, msg)| matches!(msg, RoundingMsg::InSet(true)));
                if !self.in_set && !neighbor_in_set && !self.config.skip_fallback {
                    self.in_set = true;
                    self.via_fallback = true;
                }
                Status::Halted
            }
        }
    }

    fn finish(self) -> RoundingOutput {
        RoundingOutput {
            in_set: self.in_set,
            via_fallback: self.via_fallback,
            probability: self.probability,
        }
    }
}

/// Result of a distributed rounding run.
#[derive(Clone, Debug)]
pub struct RoundingRun {
    /// The rounded set (a dominating set unless the fallback was skipped).
    pub set: DominatingSet,
    /// Which members joined via the fallback.
    pub fallback_members: Vec<bool>,
    /// Sampling probabilities used by each node.
    pub probabilities: Vec<f64>,
    /// Communication metrics (4 rounds).
    pub metrics: RunMetrics,
}

/// Runs Algorithm 1 on `g` with fractional input `x`.
///
/// Randomness comes from the engine seed (`engine.seed`), so runs are fully
/// reproducible.
///
/// # Errors
///
/// [`CoreError::InputMismatch`] if `x` does not match `g`; simulation
/// errors are propagated.
pub fn run_rounding(
    g: &CsrGraph,
    x: &FractionalAssignment,
    config: RoundingConfig,
    engine: EngineConfig,
) -> Result<RoundingRun, CoreError> {
    if x.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: x.len(),
        });
    }
    let report = Engine::new(g, engine, |info| {
        Alg1Protocol::new(config, x.get(info.id), info.degree)
    })
    .run(&mut ())
    .map_err(CoreError::Sim)?;
    Ok(collect(g, report))
}

/// Runs the rounding stage with per-node `δ⁽²⁾` already known (two rounds
/// instead of four); used by the pipeline.
///
/// # Errors
///
/// [`CoreError::InputMismatch`] if `x` or `delta2` do not match `g`.
pub fn run_rounding_with_delta2(
    g: &CsrGraph,
    x: &FractionalAssignment,
    delta2: &[u64],
    config: RoundingConfig,
    engine: EngineConfig,
) -> Result<RoundingRun, CoreError> {
    if x.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: x.len(),
        });
    }
    if delta2.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: delta2.len(),
        });
    }
    let report = Engine::new(g, engine, |info| {
        Alg1Protocol::with_known_delta2(
            config,
            x.get(info.id),
            info.degree,
            delta2[info.id.index()],
        )
    })
    .run(&mut ())
    .map_err(CoreError::Sim)?;
    Ok(collect(g, report))
}

fn collect(g: &CsrGraph, report: kw_sim::RunReport<RoundingOutput>) -> RoundingRun {
    let mut set = DominatingSet::new(g);
    let mut fallback_members = Vec::with_capacity(g.len());
    let mut probabilities = Vec::with_capacity(g.len());
    for (i, out) in report.outputs.iter().enumerate() {
        if out.in_set {
            set.add(kw_graph::NodeId::new(i));
        }
        fallback_members.push(out.via_fallback);
        probabilities.push(out.probability);
    }
    RoundingRun {
        set,
        fallback_members,
        probabilities,
        metrics: report.metrics,
    }
}

/// Centralized reference implementation, reproducing the distributed run
/// bit-for-bit for the same seed (it derives the identical per-node RNG
/// streams).
///
/// # Errors
///
/// [`CoreError::InputMismatch`] if `x` does not match `g`.
pub fn reference_rounding(
    g: &CsrGraph,
    x: &FractionalAssignment,
    config: RoundingConfig,
    seed: u64,
) -> Result<DominatingSet, CoreError> {
    if x.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: x.len(),
        });
    }
    let mut set = DominatingSet::new(g);
    for v in g.node_ids() {
        let d2 = g.delta2(v) as u64;
        let p = (x.get(v) * config.multiplier.eval(d2)).min(1.0);
        let mut rng = SmallRng::seed_from_u64(node_seed(seed, v.raw()));
        if rng.gen::<f64>() < p {
            set.add(v);
        }
    }
    if !config.skip_fallback {
        let drawn = set.clone();
        for v in g.node_ids() {
            if !drawn.dominates(g, v) {
                set.add(v);
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;
    use kw_sim::wire::roundtrip;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn message_roundtrip() {
        for msg in [
            RoundingMsg::Degree(0),
            RoundingMsg::Degree(255),
            RoundingMsg::InSet(true),
            RoundingMsg::InSet(false),
        ] {
            assert_eq!(roundtrip(&msg), Some(msg.clone()));
        }
        assert_eq!(RoundingMsg::InSet(true).encoded_bits(), 2);
    }

    #[test]
    fn multiplier_values() {
        assert_eq!(Multiplier::Ln.eval(0), 0.0);
        assert!((Multiplier::Ln.eval(9) - 10f64.ln()).abs() < 1e-12);
        // Alternative is smaller for large degrees, equal for tiny ones.
        assert!(Multiplier::LnMinusLnLn.eval(1000) < Multiplier::Ln.eval(1000));
        assert_eq!(Multiplier::LnMinusLnLn.eval(0), Multiplier::Ln.eval(0));
        assert_eq!(Multiplier::LnMinusLnLn.eval(1), Multiplier::Ln.eval(1));
    }

    #[test]
    fn always_dominating_with_fallback() {
        let mut rng = SmallRng::seed_from_u64(0);
        for seed in 0..20u64 {
            let g = generators::gnp(40, 0.08, &mut rng);
            // Even the all-zeros "solution" (infeasible!) must produce a
            // dominating set thanks to the fallback.
            let x = FractionalAssignment::zeros(&g);
            let run = run_rounding(
                &g,
                &x,
                RoundingConfig::default(),
                EngineConfig::seeded(seed),
            )
            .unwrap();
            assert!(run.set.is_dominating(&g));
            assert_eq!(run.metrics.rounds, 4);
        }
    }

    #[test]
    fn zero_input_uses_only_fallback() {
        let g = generators::cycle(9);
        let x = FractionalAssignment::zeros(&g);
        let run = run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::seeded(3)).unwrap();
        assert!(run.probabilities.iter().all(|&p| p == 0.0));
        assert!(run.set.iter().all(|v| run.fallback_members[v.index()]));
    }

    #[test]
    fn skip_fallback_can_fail_coverage() {
        // With x = 0 and no fallback, nothing is selected.
        let g = generators::cycle(6);
        let x = FractionalAssignment::zeros(&g);
        let config = RoundingConfig {
            skip_fallback: true,
            ..Default::default()
        };
        let run = run_rounding(&g, &x, config, EngineConfig::seeded(1)).unwrap();
        assert!(run.set.is_empty());
        assert!(!run.set.is_dominating(&g));
    }

    #[test]
    fn input_validation() {
        let g = generators::path(3);
        let x = FractionalAssignment::from_values(vec![0.5; 2]);
        assert!(matches!(
            run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::default()),
            Err(CoreError::InputMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(reference_rounding(&g, &x, RoundingConfig::default(), 0).is_err());
    }

    #[test]
    fn distributed_matches_reference_for_same_seed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::gnp(50, 0.12, &mut rng);
        let x = FractionalAssignment::uniform(&g, 0.3);
        for seed in [0u64, 7, 123] {
            let dist = run_rounding(
                &g,
                &x,
                RoundingConfig::default(),
                EngineConfig::seeded(seed),
            )
            .unwrap();
            let refr = reference_rounding(&g, &x, RoundingConfig::default(), seed).unwrap();
            let dist_vec: Vec<bool> = g.node_ids().map(|v| dist.set.contains(v)).collect();
            let ref_vec: Vec<bool> = g.node_ids().map(|v| refr.contains(v)).collect();
            assert_eq!(dist_vec, ref_vec, "seed {seed}");
        }
    }

    #[test]
    fn probability_saturates_at_one() {
        let g = generators::star(50);
        let x = FractionalAssignment::uniform(&g, 1.0);
        let run = run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::seeded(9)).unwrap();
        assert!(run.probabilities.iter().all(|&p| p == 1.0));
        // Everyone joins deterministically.
        assert_eq!(run.set.len(), 50);
    }

    #[test]
    fn expected_size_respects_theorem3() {
        // C12: DS_OPT = 4, LP optimum = 4 (x = 1/3). α = 1. Theorem 3:
        // E|DS| ≤ (1 + ln(Δ+1))·4 = (1 + ln 3)·4 ≈ 8.39.
        let g = generators::cycle(12);
        let x = FractionalAssignment::uniform(&g, 1.0 / 3.0);
        let trials = 400;
        let mut total = 0usize;
        for seed in 0..trials {
            let ds = reference_rounding(&g, &x, RoundingConfig::default(), seed).unwrap();
            assert!(ds.is_dominating(&g));
            total += ds.len();
        }
        let mean = total as f64 / trials as f64;
        let bound = crate::math::rounding_bound(1.0, g.max_degree()) * 4.0;
        // Allow 3σ-ish statistical slack; the mean is typically well below.
        assert!(
            mean <= bound * 1.15,
            "mean {mean} exceeds Theorem 3 bound {bound}"
        );
    }

    #[test]
    fn isolated_nodes_join_via_fallback() {
        let g = CsrGraph::empty(3);
        let x = FractionalAssignment::uniform(&g, 0.0);
        let run = run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::seeded(2)).unwrap();
        assert_eq!(run.set.len(), 3);
        assert!(run.set.is_dominating(&g));
    }

    #[test]
    fn preset_delta2_skips_setup_rounds() {
        let g = generators::petersen();
        let x = FractionalAssignment::uniform(&g, 0.25);
        let d2: Vec<u64> = g.node_ids().map(|v| g.delta2(v) as u64).collect();
        let fast = run_rounding_with_delta2(
            &g,
            &x,
            &d2,
            RoundingConfig::default(),
            EngineConfig::seeded(5),
        )
        .unwrap();
        assert_eq!(fast.metrics.rounds, 2);
        let slow =
            run_rounding(&g, &x, RoundingConfig::default(), EngineConfig::seeded(5)).unwrap();
        // Same seed, same δ², same draws → same set.
        let a: Vec<bool> = g.node_ids().map(|v| fast.set.contains(v)).collect();
        let b: Vec<bool> = g.node_ids().map(|v| slow.set.contains(v)).collect();
        assert_eq!(a, b);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn rounding_always_dominates(
                n in 1usize..30,
                p in 0.0f64..1.0,
                seed in any::<u64>(),
                xval in 0.0f64..1.0,
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let x = FractionalAssignment::uniform(&g, xval);
                let ds = reference_rounding(&g, &x, RoundingConfig::default(), seed).unwrap();
                prop_assert!(ds.is_dominating(&g));
            }
        }
    }
}
