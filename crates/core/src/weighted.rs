//! The weighted fractional dominating set variant (remark after
//! Theorem 4).
//!
//! Nodes carry costs `c_i ∈ [1, c_max]` and the objective becomes
//! `min Σ c_i·x_i`. Following the paper's sketch, the *effective* dynamic
//! degree is `γ̃(v) = (c_max/c_v)·δ̃(v)` — cheap nodes look "bigger" and
//! activate earlier — and a node is active when
//! `γ̃(v) ≥ [c_max·(Δ+1)]^{ℓ/k}`. The x-update and the message schedule are
//! those of Algorithm 2, so the round count stays `2k²`. The stated
//! approximation ratio is `k·(Δ+1)^{1/k}·[c_max·(Δ+1)]^{1/k}`.
//!
//! The paper only sketches this variant ("change lines 6 and 10 in the
//! appropriate way"); the interpretation implemented here is spelled out in
//! DESIGN.md and validated empirically against the stated ratio in
//! experiment T6.

use kw_graph::{CsrGraph, FractionalAssignment, VertexWeights, COVERAGE_TOLERANCE};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::alg2::{validate_k, validate_schedule, Alg2Msg};
use crate::math::frac_pow;
use crate::CoreError;

/// Per-node output of the weighted algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedOutput {
    /// Final fractional value `x_i`.
    pub x: f64,
    /// Final color.
    pub is_gray: bool,
}

/// The weighted-variant node program (reuses [`Alg2Msg`] on the wire).
#[derive(Clone, Debug)]
pub struct WeightedAlg2Protocol {
    k: u32,
    delta_plus_1: f64,
    cost: f64,
    c_max: f64,
    m_best: Option<u32>,
    x: f64,
    is_gray: bool,
    delta_tilde: usize,
    t: u32,
}

impl WeightedAlg2Protocol {
    /// Creates the program for one node.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `cost < 1`, or `cost > c_max` (validated
    /// centrally by [`run_weighted_alg2`]).
    pub fn new(k: u32, delta: usize, degree: usize, cost: f64, c_max: f64) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(
            (1.0..=c_max).contains(&cost),
            "cost {cost} outside [1, c_max={c_max}]"
        );
        WeightedAlg2Protocol {
            k,
            delta_plus_1: delta as f64 + 1.0,
            cost,
            c_max,
            m_best: None,
            x: 0.0,
            is_gray: false,
            delta_tilde: degree + 1,
            t: 0,
        }
    }

    fn decode_x(&self, m: Option<u32>) -> f64 {
        match m {
            None => 0.0,
            Some(m) => frac_pow(self.delta_plus_1, -i64::from(m), self.k),
        }
    }
}

/// Broadcast-only, like the unweighted Algorithm 2: at most one
/// `Ctx::broadcast` per round, served by the engine's solo fast path.
impl Protocol for WeightedAlg2Protocol {
    type Msg = Alg2Msg;
    type Output = WeightedOutput;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Alg2Msg>) -> Status {
        let round = ctx.round();
        let t = (round / 2) as u32;
        if round % 2 == 0 {
            self.t = t;
            if t > 0 {
                let mut white = usize::from(!self.is_gray);
                for (_, msg) in ctx.inbox() {
                    if let Alg2Msg::Color(gray) = msg {
                        white += usize::from(!gray);
                    }
                }
                self.delta_tilde = white;
            }
            let l = self.k - 1 - t / self.k;
            let m = self.k - 1 - t % self.k;
            // γ̃ = (c_max/c)·δ̃ against [c_max(Δ+1)]^{ℓ/k}.
            let gamma_tilde = self.c_max / self.cost * self.delta_tilde as f64;
            let threshold = (self.c_max * self.delta_plus_1).powf(l as f64 / self.k as f64);
            if gamma_tilde >= threshold && self.m_best.is_none_or(|mb| m < mb) {
                self.m_best = Some(m);
                self.x = self.decode_x(Some(m));
            }
            ctx.broadcast(Alg2Msg::X(self.m_best));
            Status::Running
        } else {
            // Gray is absorbing, so a gray node reads nothing.
            if !self.is_gray {
                let mut cover = self.x;
                for (_, msg) in ctx.inbox() {
                    if let Alg2Msg::X(m) = msg {
                        cover += self.decode_x(*m);
                    }
                }
                if cover >= 1.0 - COVERAGE_TOLERANCE {
                    self.is_gray = true;
                }
            }
            if u64::from(t) + 1 == u64::from(self.k) * u64::from(self.k) {
                Status::Halted
            } else {
                ctx.broadcast(Alg2Msg::Color(self.is_gray));
                Status::Running
            }
        }
    }

    fn finish(self) -> WeightedOutput {
        WeightedOutput {
            x: self.x,
            is_gray: self.is_gray,
        }
    }
}

/// Result of a weighted run.
#[derive(Clone, Debug)]
pub struct WeightedRun {
    /// The computed feasible fractional solution.
    pub x: FractionalAssignment,
    /// Weighted objective `Σ c_i·x_i`.
    pub cost: f64,
    /// Communication metrics (`rounds == 2k²`).
    pub metrics: RunMetrics,
}

/// Runs the weighted variant on `g` with costs `weights`.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0` or the `2k²` rounds exceed
/// `engine.max_rounds` (checked before any round runs);
/// [`CoreError::InputMismatch`] if `weights` does not match `g`.
pub fn run_weighted_alg2(
    g: &CsrGraph,
    weights: &VertexWeights,
    k: u32,
    engine: EngineConfig,
) -> Result<WeightedRun, CoreError> {
    validate_schedule(k, crate::math::alg2_rounds(k), &engine)?;
    if weights.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: weights.len(),
        });
    }
    let delta = g.max_degree();
    let c_max = weights.c_max();
    let report = Engine::new(g, engine, |info| {
        WeightedAlg2Protocol::new(k, delta, info.degree, weights.get(info.id), c_max)
    })
    .run(&mut ())
    .map_err(CoreError::Sim)?;
    let xs: Vec<f64> = report.outputs.iter().map(|o| o.x).collect();
    let x = FractionalAssignment::from_values(xs);
    let cost = x.weighted_objective(weights);
    Ok(WeightedRun {
        x,
        cost,
        metrics: report.metrics,
    })
}

/// Centralized lockstep reference implementation of the weighted variant.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`;
/// [`CoreError::InputMismatch`] if `weights` does not match `g`.
pub fn reference_weighted_alg2(
    g: &CsrGraph,
    weights: &VertexWeights,
    k: u32,
) -> Result<FractionalAssignment, CoreError> {
    validate_k(k)?;
    if weights.len() != g.len() {
        return Err(CoreError::InputMismatch {
            expected: g.len(),
            got: weights.len(),
        });
    }
    let n = g.len();
    let d1 = g.max_degree() as f64 + 1.0;
    let c_max = weights.c_max();
    let mut x = vec![0.0f64; n];
    let mut gray = vec![false; n];
    let mut delta_tilde: Vec<usize> = g.node_ids().map(|v| g.degree(v) + 1).collect();
    for l in (0..k).rev() {
        for m in (0..k).rev() {
            let threshold = (c_max * d1).powf(l as f64 / k as f64);
            for v in g.node_ids() {
                let i = v.index();
                let gamma_tilde = c_max / weights.get(v) * delta_tilde[i] as f64;
                if gamma_tilde >= threshold {
                    x[i] = x[i].max(frac_pow(d1, -i64::from(m), k));
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
    }
    Ok(FractionalAssignment::from_values(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_weights(n: usize, c_max: f64, seed: u64) -> VertexWeights {
        let mut rng = SmallRng::seed_from_u64(seed);
        VertexWeights::from_values(
            (0..n)
                .map(|_| 1.0 + rng.gen::<f64>() * (c_max - 1.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn uniform_weights_reduce_to_alg2() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = generators::gnp(40, 0.12, &mut rng);
        let w = VertexWeights::uniform(&g);
        for k in [1u32, 2, 3] {
            let weighted = reference_weighted_alg2(&g, &w, k).unwrap();
            let plain = crate::alg2::reference_alg2(&g, k).unwrap();
            assert_eq!(weighted.values(), plain.values(), "k={k}");
        }
    }

    #[test]
    fn feasible_with_random_costs() {
        let mut rng = SmallRng::seed_from_u64(22);
        for k in [1u32, 2, 3] {
            for c_max in [2.0, 8.0, 32.0] {
                let g = generators::gnp(36, 0.12, &mut rng);
                let w = random_weights(36, c_max, 77);
                let run = run_weighted_alg2(&g, &w, k, EngineConfig::default()).unwrap();
                assert!(run.x.is_feasible(&g), "k={k} c_max={c_max}");
                assert_eq!(run.metrics.rounds, crate::math::alg2_rounds(k));
            }
        }
    }

    #[test]
    fn distributed_matches_reference() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::unit_disk(40, 0.25, &mut rng);
        let w = random_weights(40, 10.0, 3);
        for k in [1u32, 2, 3] {
            let dist = run_weighted_alg2(&g, &w, k, EngineConfig::default()).unwrap();
            let refr = reference_weighted_alg2(&g, &w, k).unwrap();
            assert_eq!(dist.x.values(), refr.values(), "k={k}");
        }
    }

    #[test]
    fn respects_stated_ratio_against_weighted_lp() {
        let mut rng = SmallRng::seed_from_u64(24);
        for k in [1u32, 2, 3] {
            let g = generators::gnp(30, 0.15, &mut rng);
            let w = random_weights(30, 6.0, 5);
            let lp = kw_lp::domset::solve_weighted_lp_mds(&g, &w).unwrap();
            let run = run_weighted_alg2(&g, &w, k, EngineConfig::default()).unwrap();
            let bound = crate::math::weighted_lp_bound(k, g.max_degree(), w.c_max());
            assert!(
                run.cost <= bound * lp.value + 1e-6,
                "k={k}: cost {} > bound {bound} × LP {}",
                run.cost,
                lp.value
            );
        }
    }

    #[test]
    fn cheap_nodes_activate_earlier() {
        // Two adjacent hubs with identical degree; one cheap, one pricey.
        // The cheap hub's effective degree is scaled up by c_max/1, so it
        // reaches the activity threshold at least as early.
        let g = generators::complete_bipartite(2, 8);
        let mut costs = vec![1.0; 10];
        costs[1] = 16.0; // hub 1 expensive, hub 0 cheap
        let w = VertexWeights::from_values(costs).unwrap();
        let x = reference_weighted_alg2(&g, &w, 3).unwrap();
        assert!(x.is_feasible(&g));
        assert!(
            x.get(kw_graph::NodeId::new(0)) >= x.get(kw_graph::NodeId::new(1)),
            "cheap hub should carry at least as much weight"
        );
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(3);
        let w = VertexWeights::uniform(&g);
        assert!(run_weighted_alg2(&g, &w, 0, EngineConfig::default()).is_err());
        let short = VertexWeights::from_values(vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            run_weighted_alg2(&g, &short, 2, EngineConfig::default()),
            Err(CoreError::InputMismatch { .. })
        ));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn weighted_always_feasible(
                n in 1usize..28,
                p in 0.0f64..1.0,
                k in 1u32..4,
                c_max in 1.0f64..20.0,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let w = random_weights(n, c_max, seed ^ 1);
                let x = reference_weighted_alg2(&g, &w, k).unwrap();
                prop_assert!(x.is_feasible(&g));
            }
        }
    }
}
