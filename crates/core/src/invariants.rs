//! Runtime verification of the paper's loop invariants, and the Figure-1
//! covering cascade trace.
//!
//! The correctness and approximation proofs of Algorithms 2 and 3 rest on
//! loop invariants (Lemmas 2–7). Rather than trusting the implementation,
//! this module attaches an [`Observer`] to a run and checks each invariant
//! at the program point where the paper asserts it:
//!
//! | Lemma | Claim | Checked |
//! |-------|-------|---------|
//! | 2 / 5 | `δ̃(v) ≤ (Δ+1)^{(ℓ+1)/k}` at the start of outer iteration ℓ | first inner iteration of each outer iteration |
//! | 3 / 6 | `a(v) ≤ (Δ+1)^{(m+1)/k}` before the x-assignment | every inner iteration |
//! | 4     | `z_i ≤ (Δ+1)^{−(ℓ−1)/k}` at the end of outer iteration ℓ | every outer iteration (Algorithm 2) |
//! | 7     | `z_i ≤ (1+(Δ+1)^{1/k})/γ⁽¹⁾(v)^{ℓ/(ℓ+1)}` at line 23 | every outer iteration (Algorithm 3) |
//!
//! The `z_i` are the proof's bookkeeping variables: every x-increase is
//! distributed equally over the currently-white closed neighbors. The
//! observer maintains them exactly as the proofs prescribe.
//!
//! The same observer records the **covering cascade** of Figure 1: per
//! inner iteration, the largest active-neighbor count `a(v)` among white
//! nodes against the staircase bound `(Δ+1)^{(m+1)/k}`, plus how many nodes
//! were covered in that step.

use std::fmt;

use kw_graph::{CsrGraph, NodeId};
use kw_sim::{Engine, EngineConfig, Observer};

use crate::alg2::{Alg2Protocol, Alg2Run, Alg2State};
use crate::alg3::{Alg3Protocol, Alg3Run, Alg3State};
use crate::math::frac_pow;
use crate::CoreError;

/// Numerical slack for invariant comparisons (the quantities involved are
/// integers compared against `powf` results).
const TOL: f64 = 1e-6;

/// One inner-iteration record of the covering cascade (Figure 1).
#[derive(Clone, Copy, Debug)]
pub struct CascadeStep {
    /// Outer iteration index ℓ.
    pub l: u32,
    /// Inner iteration index m.
    pub m: u32,
    /// The staircase bound `(Δ+1)^{(m+1)/k}` of Lemma 3 / Lemma 6.
    pub a_bound: f64,
    /// Largest `a(v)` over white nodes this iteration.
    pub max_a: u64,
    /// Number of active nodes.
    pub active_nodes: usize,
    /// White (uncovered) nodes at the start of the iteration.
    pub white_nodes: usize,
    /// Nodes covered during the iteration.
    pub newly_gray: usize,
    /// `Σ x` after the iteration's assignments.
    pub x_total: f64,
}

/// The full cascade of a run, in schedule order.
#[derive(Clone, Debug, Default)]
pub struct CascadeTrace {
    /// One entry per inner iteration.
    pub steps: Vec<CascadeStep>,
}

impl fmt::Display for CascadeTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  ℓ  m   a-bound    max a(v)  active   white  newly-gray      Σx"
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "{:>3} {:>2} {:>9.2} {:>11} {:>7} {:>7} {:>11} {:>7.3}",
                s.l,
                s.m,
                s.a_bound,
                s.max_a,
                s.active_nodes,
                s.white_nodes,
                s.newly_gray,
                s.x_total
            )?;
        }
        Ok(())
    }
}

/// Result of an invariant-checked run.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    /// Human-readable descriptions of every violated invariant (empty on a
    /// correct run).
    pub violations: Vec<String>,
    /// The Figure-1 covering cascade.
    pub cascade: CascadeTrace,
}

impl InvariantReport {
    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Observer checking Lemmas 2–4 on an Algorithm 2 run.
pub struct Alg2Checker<'g> {
    g: &'g CsrGraph,
    k: u32,
    d1: f64,
    z: Vec<f64>,
    prev_x: Vec<f64>,
    prev_gray: Vec<bool>,
    report: InvariantReport,
}

impl<'g> Alg2Checker<'g> {
    /// Creates a checker for a `k`-parameterized run on `g`.
    pub fn new(g: &'g CsrGraph, k: u32) -> Self {
        Alg2Checker {
            g,
            k,
            d1: g.max_degree() as f64 + 1.0,
            z: vec![0.0; g.len()],
            prev_x: vec![0.0; g.len()],
            prev_gray: vec![false; g.len()],
            report: InvariantReport::default(),
        }
    }

    /// Consumes the checker, returning its report.
    pub fn into_report(self) -> InvariantReport {
        self.report
    }

    /// Processes the post-round state of every node (round structure:
    /// even = x-step, odd = color-step).
    pub fn ingest(&mut self, round: usize, states: &[Alg2State]) {
        let t = (round / 2) as u32;
        let l = self.k - 1 - t / self.k;
        let m = self.k - 1 - t % self.k;
        if round.is_multiple_of(2) {
            if t.is_multiple_of(self.k) {
                if t > 0 {
                    // Outer iteration l+1 just completed: Lemma 4.
                    self.check_lemma4(l + 1);
                    self.z.iter_mut().for_each(|z| *z = 0.0);
                }
                // Lemma 2 at the start of outer iteration l.
                let bound = frac_pow(self.d1, i64::from(l) + 1, self.k);
                for (i, s) in states.iter().enumerate() {
                    if s.delta_tilde as f64 > bound + TOL {
                        self.report.violations.push(format!(
                            "lemma 2: δ̃(v{i}) = {} > (Δ+1)^({}+1)/{} = {bound:.4} at ℓ={l}",
                            s.delta_tilde, l, self.k
                        ));
                    }
                }
            }
            // a(v) for white nodes; Lemma 3.
            let a_bound = frac_pow(self.d1, i64::from(m) + 1, self.k);
            let mut max_a = 0u64;
            for v in self.g.node_ids() {
                let i = v.index();
                if states[i].is_gray {
                    continue;
                }
                let a = self
                    .g
                    .closed_neighbors(v)
                    .filter(|u| states[u.index()].active)
                    .count() as u64;
                max_a = max_a.max(a);
                if a as f64 > a_bound + TOL {
                    self.report.violations.push(format!(
                        "lemma 3: a(v{i}) = {a} > (Δ+1)^({m}+1)/{} = {a_bound:.4} at ℓ={l}, m={m}",
                        self.k
                    ));
                }
            }
            // z-accounting: distribute x-increases over white closed
            // neighbors (the proof's bookkeeping).
            for v in self.g.node_ids() {
                let i = v.index();
                let inc = states[i].x - self.prev_x[i];
                if inc <= 0.0 {
                    continue;
                }
                let whites: Vec<NodeId> = self
                    .g
                    .closed_neighbors(v)
                    .filter(|u| !states[u.index()].is_gray)
                    .collect();
                if whites.is_empty() {
                    self.report.violations.push(format!(
                        "z-accounting: v{i} increased x by {inc:.6} with no white neighbors \
                         at ℓ={l}, m={m}"
                    ));
                    continue;
                }
                let share = inc / whites.len() as f64;
                for u in whites {
                    self.z[u.index()] += share;
                }
                self.prev_x[i] = states[i].x;
            }
            let white_nodes = states.iter().filter(|s| !s.is_gray).count();
            self.report.cascade.steps.push(CascadeStep {
                l,
                m,
                a_bound,
                max_a,
                active_nodes: states.iter().filter(|s| s.active).count(),
                white_nodes,
                newly_gray: 0,
                x_total: states.iter().map(|s| s.x).sum(),
            });
        } else {
            // Color step: attribute fresh coverings to the cascade.
            let newly: usize = states
                .iter()
                .zip(&self.prev_gray)
                .filter(|(s, &was)| s.is_gray && !was)
                .count();
            if let Some(step) = self.report.cascade.steps.last_mut() {
                step.newly_gray = newly;
            }
            for (i, s) in states.iter().enumerate() {
                self.prev_gray[i] = s.is_gray;
            }
            if u64::from(t) + 1 == u64::from(self.k) * u64::from(self.k) {
                // Final outer iteration (ℓ = 0) completed: Lemma 4.
                self.check_lemma4(0);
            }
        }
    }

    fn check_lemma4(&mut self, l: u32) {
        // z_i ≤ (Δ+1)^{−(ℓ−1)/k}.
        let bound = frac_pow(self.d1, 1 - i64::from(l), self.k);
        for (i, &z) in self.z.iter().enumerate() {
            if z > bound + TOL {
                self.report.violations.push(format!(
                    "lemma 4: z(v{i}) = {z:.6} > (Δ+1)^-({l}-1)/{} = {bound:.6} at end of ℓ={l}",
                    self.k
                ));
            }
        }
    }
}

impl Observer<Alg2Protocol> for Alg2Checker<'_> {
    fn after_round(&mut self, round: usize, nodes: &[Alg2Protocol]) {
        let states: Vec<Alg2State> = nodes.iter().map(Alg2Protocol::state).collect();
        self.ingest(round, &states);
    }
}

/// Runs Algorithm 2 with the Lemma 2–4 checker attached.
///
/// # Errors
///
/// Same as [`run_alg2`](crate::alg2::run_alg2).
pub fn run_alg2_checked(
    g: &CsrGraph,
    k: u32,
    engine: EngineConfig,
) -> Result<(Alg2Run, InvariantReport), CoreError> {
    crate::alg2::validate_schedule(k, crate::math::alg2_rounds(k), &engine)?;
    let delta = g.max_degree();
    let mut checker = Alg2Checker::new(g, k);
    let report = Engine::new(g, engine, |info| Alg2Protocol::new(k, delta, info.degree))
        .run(&mut checker)
        .map_err(CoreError::Sim)?;
    let mut xs = Vec::with_capacity(g.len());
    let mut gray = Vec::with_capacity(g.len());
    for out in &report.outputs {
        xs.push(out.x);
        gray.push(out.is_gray);
    }
    let run = Alg2Run {
        x: kw_graph::FractionalAssignment::from_values(xs),
        gray,
        metrics: report.metrics,
        node_messages: report.node_messages,
    };
    Ok((run, checker.into_report()))
}

/// Observer checking Lemmas 5–7 on an Algorithm 3 run.
pub struct Alg3Checker<'g> {
    g: &'g CsrGraph,
    k: u32,
    d1: f64,
    /// Effective `γ⁽¹⁾` for the current outer iteration (`δ⁽¹⁾+1` for the
    /// first, the protocol's exchanged value afterwards).
    gamma1: Vec<u64>,
    z: Vec<f64>,
    prev_x: Vec<f64>,
    prev_gray: Vec<bool>,
    report: InvariantReport,
}

impl<'g> Alg3Checker<'g> {
    /// Creates a checker for a `k`-parameterized run on `g`.
    pub fn new(g: &'g CsrGraph, k: u32) -> Self {
        Alg3Checker {
            g,
            k,
            d1: g.max_degree() as f64 + 1.0,
            gamma1: g.node_ids().map(|v| g.delta1(v) as u64 + 1).collect(),
            z: vec![0.0; g.len()],
            prev_x: vec![0.0; g.len()],
            prev_gray: vec![false; g.len()],
            report: InvariantReport::default(),
        }
    }

    /// Consumes the checker, returning its report.
    pub fn into_report(self) -> InvariantReport {
        self.report
    }

    /// Processes the post-round state of every node.
    pub fn ingest(&mut self, states: &[Alg3State]) {
        let Some(&(l, m, step)) = states.iter().find_map(|s| s.position.as_ref()) else {
            return; // setup rounds
        };
        match step {
            0 => {
                if m == self.k - 1 {
                    // Start of outer iteration ℓ: Lemma 5, refresh γ⁽¹⁾,
                    // close out Lemma 7 for the previous iteration is done
                    // in step 3 below.
                    if l < self.k - 1 {
                        for (i, s) in states.iter().enumerate() {
                            self.gamma1[i] = s.gamma1;
                        }
                    }
                    let bound = frac_pow(self.d1, i64::from(l) + 1, self.k);
                    for (i, s) in states.iter().enumerate() {
                        if s.delta_tilde as f64 > bound + TOL {
                            self.report.violations.push(format!(
                                "lemma 5: δ̃(v{i}) = {} > (Δ+1)^({l}+1)/{} = {bound:.4}",
                                s.delta_tilde, self.k
                            ));
                        }
                    }
                }
            }
            1 => {
                // a-values computed: Lemma 6 + cascade record.
                let a_bound = frac_pow(self.d1, i64::from(m) + 1, self.k);
                let mut max_a = 0u64;
                for (i, s) in states.iter().enumerate() {
                    max_a = max_a.max(s.a_count);
                    if s.a_count as f64 > a_bound + TOL {
                        self.report.violations.push(format!(
                            "lemma 6: a(v{i}) = {} > (Δ+1)^({m}+1)/{} = {a_bound:.4} at ℓ={l}",
                            s.a_count, self.k
                        ));
                    }
                }
                self.report.cascade.steps.push(CascadeStep {
                    l,
                    m,
                    a_bound,
                    max_a,
                    active_nodes: states.iter().filter(|s| s.active).count(),
                    white_nodes: states.iter().filter(|s| !s.is_gray).count(),
                    newly_gray: 0,
                    x_total: states.iter().map(|s| s.x).sum(),
                });
            }
            2 => {
                // x raised: z-accounting (colors are still pre-recolor).
                for v in self.g.node_ids() {
                    let i = v.index();
                    let inc = states[i].x - self.prev_x[i];
                    if inc <= 0.0 {
                        continue;
                    }
                    let whites: Vec<usize> = self
                        .g
                        .closed_neighbors(v)
                        .map(NodeId::index)
                        .filter(|&u| !states[u].is_gray)
                        .collect();
                    if whites.is_empty() {
                        self.report.violations.push(format!(
                            "z-accounting: v{i} increased x by {inc:.6} with no white \
                             neighbors at ℓ={l}, m={m}"
                        ));
                        continue;
                    }
                    let share = inc / whites.len() as f64;
                    for u in whites {
                        self.z[u] += share;
                    }
                    self.prev_x[i] = states[i].x;
                }
                if let Some(step_rec) = self.report.cascade.steps.last_mut() {
                    step_rec.x_total = states.iter().map(|s| s.x).sum();
                }
            }
            _ => {
                // Colors updated: cascade bookkeeping; end-of-outer-round
                // Lemma 7 check.
                let newly: usize = states
                    .iter()
                    .zip(&self.prev_gray)
                    .filter(|(s, &was)| s.is_gray && !was)
                    .count();
                if let Some(step_rec) = self.report.cascade.steps.last_mut() {
                    step_rec.newly_gray = newly;
                }
                for (i, s) in states.iter().enumerate() {
                    self.prev_gray[i] = s.is_gray;
                }
                if m == 0 {
                    self.check_lemma7(l);
                    self.z.iter_mut().for_each(|z| *z = 0.0);
                }
            }
        }
    }

    fn check_lemma7(&mut self, l: u32) {
        let num = 1.0 + frac_pow(self.d1, 1, self.k);
        for (i, &z) in self.z.iter().enumerate() {
            let g1 = self.gamma1[i] as f64;
            let bound = num / g1.powf(l as f64 / (l as f64 + 1.0));
            if z > bound + TOL {
                self.report.violations.push(format!(
                    "lemma 7: z(v{i}) = {z:.6} > (1+(Δ+1)^(1/{}))/γ¹^({l}/{}) = {bound:.6}",
                    self.k,
                    l + 1
                ));
            }
        }
    }
}

impl Observer<Alg3Protocol> for Alg3Checker<'_> {
    fn after_round(&mut self, _round: usize, nodes: &[Alg3Protocol]) {
        let states: Vec<Alg3State> = nodes.iter().map(Alg3Protocol::state).collect();
        self.ingest(&states);
    }
}

/// Runs Algorithm 3 with the Lemma 5–7 checker attached.
///
/// # Errors
///
/// Same as [`run_alg3`](crate::alg3::run_alg3).
pub fn run_alg3_checked(
    g: &CsrGraph,
    k: u32,
    engine: EngineConfig,
) -> Result<(Alg3Run, InvariantReport), CoreError> {
    crate::alg3::validate_alg3(k, crate::math::alg3_rounds(k), &engine)?;
    let mut checker = Alg3Checker::new(g, k);
    let report = Engine::new(g, engine, |info| Alg3Protocol::new(k, info.degree))
        .run(&mut checker)
        .map_err(CoreError::Sim)?;
    let mut xs = Vec::with_capacity(g.len());
    let mut gray = Vec::with_capacity(g.len());
    let mut delta2 = Vec::with_capacity(g.len());
    for out in &report.outputs {
        xs.push(out.x);
        gray.push(out.is_gray);
        delta2.push(out.delta2);
    }
    let run = Alg3Run {
        x: kw_graph::FractionalAssignment::from_values(xs),
        gray,
        delta2,
        metrics: report.metrics,
        node_messages: report.node_messages,
    };
    Ok((run, checker.into_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_clean_alg2(g: &CsrGraph, k: u32) -> InvariantReport {
        let (run, report) = run_alg2_checked(g, k, EngineConfig::default()).unwrap();
        assert!(run.x.is_feasible(g));
        assert!(
            report.is_clean(),
            "alg2 k={k} violations on {g:?}:\n{}",
            report.violations.join("\n")
        );
        report
    }

    fn assert_clean_alg3(g: &CsrGraph, k: u32) -> InvariantReport {
        let (run, report) = run_alg3_checked(g, k, EngineConfig::default()).unwrap();
        assert!(run.x.is_feasible(g));
        assert!(
            report.is_clean(),
            "alg3 k={k} violations on {g:?}:\n{}",
            report.violations.join("\n")
        );
        report
    }

    #[test]
    fn alg2_invariants_hold_on_fixed_families() {
        for k in [1u32, 2, 3, 4] {
            assert_clean_alg2(&generators::star(12), k);
            assert_clean_alg2(&generators::cycle(15), k);
            assert_clean_alg2(&generators::petersen(), k);
            assert_clean_alg2(&generators::star_of_cliques(3, 6), k);
            assert_clean_alg2(&generators::grid(4, 5), k);
        }
    }

    #[test]
    fn alg3_invariants_hold_on_fixed_families() {
        for k in [1u32, 2, 3, 4] {
            assert_clean_alg3(&generators::star(12), k);
            assert_clean_alg3(&generators::cycle(15), k);
            assert_clean_alg3(&generators::petersen(), k);
            assert_clean_alg3(&generators::star_of_cliques(3, 6), k);
            assert_clean_alg3(&generators::grid(4, 5), k);
        }
    }

    #[test]
    fn invariants_hold_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(40);
        for k in [2u32, 3] {
            for _ in 0..5 {
                let g = generators::gnp(50, 0.1, &mut rng);
                assert_clean_alg2(&g, k);
                assert_clean_alg3(&g, k);
            }
        }
    }

    #[test]
    fn cascade_has_one_step_per_inner_iteration() {
        let k = 3;
        let report = assert_clean_alg2(&generators::grid(5, 5), k);
        assert_eq!(report.cascade.steps.len(), (k * k) as usize);
        let report3 = assert_clean_alg3(&generators::grid(5, 5), k);
        assert_eq!(report3.cascade.steps.len(), (k * k) as usize);
    }

    #[test]
    fn cascade_max_a_respects_staircase() {
        // This IS Figure 1: max a(v) never exceeds (Δ+1)^{(m+1)/k}.
        let report = assert_clean_alg2(&generators::star_of_cliques(4, 8), 4);
        for step in &report.cascade.steps {
            assert!(step.max_a as f64 <= step.a_bound + TOL);
        }
        // And the display renders a table.
        let shown = report.cascade.to_string();
        assert!(shown.contains("a-bound"));
    }

    #[test]
    fn cascade_x_total_is_monotone() {
        let report = assert_clean_alg3(&generators::grid(6, 6), 3);
        let mut last = 0.0;
        for s in &report.cascade.steps {
            assert!(s.x_total >= last - 1e-12);
            last = s.x_total;
        }
    }

    #[test]
    fn checker_detects_fabricated_lemma3_violation() {
        // Feed the Alg2 checker a state where far too many nodes are
        // active in the last inner iteration (m = 0, bound (Δ+1)^{1/k}).
        let g = generators::complete(9); // Δ+1 = 9
        let k = 2;
        let mut checker = Alg2Checker::new(&g, k);
        let states: Vec<Alg2State> = (0..9)
            .map(|_| Alg2State {
                x: 0.0,
                is_gray: false,
                delta_tilde: 9,
                active: true, // all 9 active: a(v) = 9 > 9^{1/2} = 3
                iteration: 0,
            })
            .collect();
        // Round 2·(k·(k−1)) corresponds to ℓ=0, m=k−1... use the last
        // iteration t = k²−1 (ℓ=0, m=0) at even round 2t.
        let t = k * k - 1;
        checker.ingest(2 * t as usize, &states);
        let report = checker.into_report();
        assert!(
            report.violations.iter().any(|v| v.contains("lemma 3")),
            "expected a lemma 3 violation, got {:?}",
            report.violations
        );
    }

    #[test]
    fn checker_detects_fabricated_lemma2_violation() {
        let g = generators::complete(9);
        let k = 3;
        let mut checker = Alg2Checker::new(&g, k);
        // At the start of outer iteration ℓ=1 (t = k·(k−1−1) = 3... the
        // first even round with t % k == 0 and t > 0 is t = k), the bound
        // is (Δ+1)^{(1+1)/3} = 9^{2/3} ≈ 4.33; fabricate δ̃ = 9.
        let states: Vec<Alg2State> = (0..9)
            .map(|_| Alg2State {
                x: 0.0,
                is_gray: false,
                delta_tilde: 9,
                active: false,
                iteration: k,
            })
            .collect();
        checker.ingest(2 * k as usize, &states);
        let report = checker.into_report();
        assert!(report.violations.iter().any(|v| v.contains("lemma 2")));
    }
}
