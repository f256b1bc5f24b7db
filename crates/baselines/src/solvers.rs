//! [`DsSolver`] implementations for the five baselines, and the full
//! default registry.
//!
//! Registry names added by [`register_baselines`]:
//!
//! | name | algorithm | parameters |
//! |------|-----------|------------|
//! | `greedy` | sequential greedy (`ln Δ` approximation) | none |
//! | `jrs` | Jia–Rajaraman–Suel LRG | none |
//! | `luby-mis` | Luby-style MIS (any MIS dominates) | none |
//! | `trivial` | all nodes (`Δ+1` approximation) | none |
//! | `connected(inner)` | CDS stitch around any other solver | inner spec |
//!
//! [`registry`] returns these plus the paper's solvers from
//! `kw_core::solver` — the registry every experiment driver starts from.

use kw_core::solver::{
    DsSolver, ReportBuilder, SolveContext, SolveError, SolveReport, SolverRegistry,
};
use kw_graph::CsrGraph;
use kw_sim::{EngineConfig, RunMetrics};

use crate::{cds, greedy, jrs, luby_mis, trivial};

/// The full registry: the paper's solvers (`kw`, `alg2`, `composite`)
/// plus all five baselines.
pub fn registry() -> SolverRegistry {
    let mut registry = SolverRegistry::with_core_solvers();
    register_baselines(&mut registry);
    registry
}

/// Registers the baseline solvers into an existing registry.
pub fn register_baselines(registry: &mut SolverRegistry) {
    registry.register("greedy", |spec, _| {
        spec.expect_params(&[])?;
        Ok(Box::new(GreedySolver))
    });
    registry.register("jrs", |spec, _| {
        spec.expect_params(&[])?;
        Ok(Box::new(JrsSolver))
    });
    registry.register("luby-mis", |spec, _| {
        spec.expect_params(&[])?;
        Ok(Box::new(LubyMisSolver))
    });
    registry.register("trivial", |spec, _| {
        spec.expect_params(&[])?;
        Ok(Box::new(TrivialSolver))
    });
    registry.register("connected", |spec, registry| {
        spec.expect_params(&[])?;
        let inner = registry.build_spec(spec.require_inner()?)?;
        Ok(Box::new(ConnectedSolver::new(inner)))
    });
}

/// The sequential greedy algorithm (`ln Δ` approximation) as a solver.
///
/// Centralized: its stage metrics are all-zero and `ctx.seed` is ignored.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedySolver;

impl DsSolver for GreedySolver {
    fn spec(&self) -> String {
        "greedy".to_string()
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        let set = greedy::greedy_mds(g);
        Ok(ReportBuilder::new(self.spec(), set)
            .stage("greedy", RunMetrics::default())
            .finish(g, ctx))
    }

    fn randomized(&self) -> bool {
        false
    }
}

/// The engine configuration a solve context asks for: its seed, thread
/// count and chaos plan.
fn engine(ctx: &SolveContext) -> EngineConfig {
    EngineConfig {
        seed: ctx.seed,
        threads: ctx.threads,
        faults: ctx.faults.clone(),
        ..EngineConfig::default()
    }
}

/// The Jia–Rajaraman–Suel LRG distributed baseline as a solver.
///
/// Runs under the context's seed, threads and chaos plan. LRG assumes
/// reliable delivery: under message loss (`drop=…` or a burst) a run
/// usually stalls until LRG's round budget runs out, and the solve fails
/// with [`SimError::MaxRoundsExceeded`](kw_sim::SimError::MaxRoundsExceeded)
/// (`kw-serve` answers 422) instead of returning an answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct JrsSolver;

impl DsSolver for JrsSolver {
    fn spec(&self) -> String {
        "jrs".to_string()
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        let run = jrs::run_jrs(g, engine(ctx))?;
        Ok(ReportBuilder::new(self.spec(), run.set)
            .stage("lrg", run.metrics)
            .finish(g, ctx))
    }
}

/// The Luby-style MIS distributed baseline as a solver, run under the
/// context's seed, threads and chaos plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct LubyMisSolver;

impl DsSolver for LubyMisSolver {
    fn spec(&self) -> String {
        "luby-mis".to_string()
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        let run = luby_mis::run_luby_mis(g, engine(ctx))?;
        Ok(ReportBuilder::new(self.spec(), run.set)
            .stage("mis", run.metrics)
            .finish(g, ctx))
    }
}

/// The all-nodes baseline as a solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialSolver;

impl DsSolver for TrivialSolver {
    fn spec(&self) -> String {
        "trivial".to_string()
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        Ok(ReportBuilder::new(self.spec(), trivial::all_nodes(g))
            .stage("trivial", RunMetrics::default())
            .finish(g, ctx))
    }

    fn randomized(&self) -> bool {
        false
    }
}

/// The CDS combinator: runs any inner solver, then stitches its output
/// into a connected dominating set (≤ 3× cost per component).
///
/// The stitch is a centralized post-pass, so it adds a zero-metrics
/// stage; rounds and messages come from the inner solver. If the inner
/// output fails to dominate (possible under message loss), the stitch is
/// skipped and the inner set is reported as-is — the certificate records
/// the failure.
pub struct ConnectedSolver {
    inner: Box<dyn DsSolver>,
}

impl ConnectedSolver {
    /// Wraps `inner` with the CDS stitch.
    pub fn new(inner: Box<dyn DsSolver>) -> Self {
        ConnectedSolver { inner }
    }
}

impl DsSolver for ConnectedSolver {
    fn spec(&self) -> String {
        format!("connected({})", self.inner.spec())
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        // The stitch needs a dominating input; always verify, whatever the
        // caller's certificate preference.
        let inner_ctx = SolveContext {
            check_certificates: true,
            ..ctx.clone()
        };
        let inner_report = self.inner.solve(g, &inner_ctx)?;
        let dominates = inner_report
            .certificate
            .as_ref()
            .is_some_and(|c| c.dominates);
        let set = if dominates {
            cds::connect(g, &inner_report.dominating_set)
        } else {
            inner_report.dominating_set
        };
        let mut builder = ReportBuilder::new(self.spec(), set);
        if let Some(x) = inner_report.fractional {
            builder = builder.fractional(x);
        }
        for stage in inner_report.stages {
            builder = builder.stage(stage.stage, stage.metrics);
        }
        Ok(builder
            .stage("stitch", RunMetrics::default())
            .finish(g, ctx))
    }

    fn randomized(&self) -> bool {
        self.inner.randomized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_names_registered() {
        let registry = registry();
        let names: Vec<&str> = registry.names().collect();
        for name in [
            "kw",
            "alg2",
            "composite",
            "greedy",
            "jrs",
            "luby-mis",
            "trivial",
            "connected",
        ] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }

    #[test]
    fn every_baseline_dominates_via_trait() {
        let registry = registry();
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::gnp(60, 0.08, &mut rng);
        for spec in ["greedy", "jrs", "luby-mis", "trivial"] {
            let report = registry
                .build(spec)
                .unwrap()
                .solve(&g, &SolveContext::seeded(3))
                .unwrap();
            assert!(report.certificate.unwrap().dominates, "{spec}");
            assert_eq!(report.solver, spec);
        }
    }

    #[test]
    fn deterministic_solvers_ignore_seed() {
        let g = generators::grid(5, 6);
        for spec in ["greedy", "trivial"] {
            let solver = registry().build(spec).unwrap();
            assert!(!solver.randomized());
            let a = solver.solve(&g, &SolveContext::seeded(1)).unwrap();
            let b = solver.solve(&g, &SolveContext::seeded(2)).unwrap();
            assert_eq!(
                a.dominating_set.to_bool_vec(&g),
                b.dominating_set.to_bool_vec(&g),
                "{spec}"
            );
        }
    }

    #[test]
    fn distributed_baselines_report_rounds_and_messages() {
        let g = generators::grid(6, 6);
        for spec in ["jrs", "luby-mis"] {
            let report = registry()
                .build(spec)
                .unwrap()
                .solve(&g, &SolveContext::seeded(5))
                .unwrap();
            assert!(report.rounds() > 0, "{spec}");
            assert!(report.messages() > 0, "{spec}");
        }
        for spec in ["greedy", "trivial"] {
            let report = registry()
                .build(spec)
                .unwrap()
                .solve(&g, &SolveContext::seeded(5))
                .unwrap();
            assert_eq!(report.rounds(), 0, "{spec} is centralized");
        }
    }

    #[test]
    fn connected_combinator_stitches_any_inner() {
        let g = generators::grid(7, 7);
        for spec in [
            "connected(greedy)",
            "connected(kw:k=2)",
            "connected(trivial)",
        ] {
            let solver = registry().build(spec).unwrap();
            assert_eq!(solver.spec(), spec);
            let report = solver.solve(&g, &SolveContext::seeded(11)).unwrap();
            assert!(report.certificate.unwrap().dominates, "{spec}");
            assert!(
                cds::is_connected_within(&g, &report.dominating_set),
                "{spec} output not connected"
            );
        }
    }

    #[test]
    fn connected_preserves_inner_metrics_and_bounds_cost() {
        let g = generators::grid(6, 8);
        let registry = registry();
        let plain = registry
            .build("kw:k=2")
            .unwrap()
            .solve(&g, &SolveContext::seeded(4))
            .unwrap();
        let wrapped = registry
            .build("connected(kw:k=2)")
            .unwrap()
            .solve(&g, &SolveContext::seeded(4))
            .unwrap();
        assert_eq!(wrapped.rounds(), plain.rounds());
        assert_eq!(wrapped.messages(), plain.messages());
        assert!(wrapped.size() <= 3 * plain.size());
        assert!(wrapped.size() >= plain.size());
        assert_eq!(wrapped.stages.len(), plain.stages.len() + 1);
    }

    #[test]
    fn connected_requires_inner_spec() {
        assert!(registry().build("connected").is_err());
        assert!(registry().build("connected(nope)").is_err());
    }

    #[test]
    fn baselines_reject_parameters() {
        for spec in ["greedy:k=2", "trivial:x=1", "jrs:seed=3", "luby-mis:k=1"] {
            assert!(registry().build(spec).is_err(), "{spec} should be rejected");
        }
    }
}
