//! Conformance suite for the unified solver API: every registered solver,
//! over a shared workload matrix, must (a) dominate, (b) be deterministic
//! in the seed, and (c) produce internally consistent reports.
//!
//! New solver backends get these guarantees for free by registering; a
//! backend that cannot pass them does not belong behind `DsSolver`.

use kw_domset::prelude::*;
use kw_graph::{generators, CsrGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every spec the default registry documents, including parameterized and
/// combinator forms.
fn all_specs() -> Vec<&'static str> {
    vec![
        "kw:k=1",
        "kw:k=2",
        "kw:k=3,multiplier=ln-lnln",
        "alg2:k=2",
        "composite:k=2",
        "greedy",
        "jrs",
        "luby-mis",
        "trivial",
        "connected(greedy)",
        "connected(kw:k=2)",
    ]
}

/// The shared workload matrix: every graph family the algorithms must
/// handle, including edge cases (empty graph, isolated nodes).
fn workload_matrix() -> Vec<(String, CsrGraph)> {
    let mut rng = SmallRng::seed_from_u64(77);
    vec![
        ("empty0".into(), CsrGraph::empty(0)),
        ("isolated5".into(), CsrGraph::empty(5)),
        ("path9".into(), generators::path(9)),
        ("star16".into(), generators::star(16)),
        ("grid6x6".into(), generators::grid(6, 6)),
        ("petersen".into(), generators::petersen()),
        ("cliques4x6".into(), generators::star_of_cliques(4, 6)),
        ("gnp60".into(), generators::gnp(60, 0.08, &mut rng)),
        ("udg60".into(), generators::unit_disk(60, 0.2, &mut rng)),
        ("ba60".into(), generators::barabasi_albert(60, 2, &mut rng)),
    ]
}

fn membership(g: &CsrGraph, report: &SolveReport) -> Vec<bool> {
    report.dominating_set.to_bool_vec(g)
}

#[test]
fn every_solver_dominates_every_workload() {
    let registry = kw_domset::default_registry();
    for spec in all_specs() {
        let solver = registry.build(spec).unwrap();
        for (label, g) in workload_matrix() {
            let report = solver.solve(&g, &SolveContext::seeded(5)).unwrap();
            let cert = report
                .certificate
                .as_ref()
                .expect("certificates default on");
            assert!(cert.dominates, "{spec} on {label}: output not dominating");
            assert!(
                report.dominating_set.is_dominating(&g),
                "{spec} on {label}: certificate lied"
            );
        }
    }
}

#[test]
fn same_seed_means_identical_output() {
    let registry = kw_domset::default_registry();
    for spec in all_specs() {
        let solver = registry.build(spec).unwrap();
        for (label, g) in workload_matrix() {
            let a = solver.solve(&g, &SolveContext::seeded(31)).unwrap();
            let b = solver.solve(&g, &SolveContext::seeded(31)).unwrap();
            assert_eq!(
                membership(&g, &a),
                membership(&g, &b),
                "{spec} on {label}: same seed produced different sets"
            );
            assert_eq!(a.metrics, b.metrics, "{spec} on {label}: metrics differ");
        }
    }
}

#[test]
fn deterministic_solvers_ignore_the_seed() {
    let registry = kw_domset::default_registry();
    for spec in ["greedy", "trivial", "connected(greedy)"] {
        let solver = registry.build(spec).unwrap();
        assert!(!solver.randomized(), "{spec} should be deterministic");
        let g = generators::grid(5, 7);
        let a = solver.solve(&g, &SolveContext::seeded(1)).unwrap();
        let b = solver.solve(&g, &SolveContext::seeded(999)).unwrap();
        assert_eq!(
            membership(&g, &a),
            membership(&g, &b),
            "{spec} depends on the seed"
        );
    }
}

#[test]
fn thread_count_never_changes_solver_output() {
    let registry = kw_domset::default_registry();
    let mut rng = SmallRng::seed_from_u64(12);
    let g = generators::gnp(90, 0.07, &mut rng);
    for spec in ["kw:k=2", "alg2:k=2", "composite:k=2"] {
        let solver = registry.build(spec).unwrap();
        let seq = solver.solve(&g, &SolveContext::seeded(8)).unwrap();
        let par_ctx = SolveContext {
            threads: 4,
            ..SolveContext::seeded(8)
        };
        let par = solver.solve(&g, &par_ctx).unwrap();
        assert_eq!(
            membership(&g, &seq),
            membership(&g, &par),
            "{spec}: threads changed output"
        );
        assert_eq!(seq.metrics, par.metrics, "{spec}: threads changed metrics");
    }
}

#[test]
fn reports_are_internally_consistent() {
    let registry = kw_domset::default_registry();
    for spec in all_specs() {
        let solver = registry.build(spec).unwrap();
        assert_eq!(solver.spec(), spec, "canonical spec differs from input");
        for (label, g) in workload_matrix() {
            let report = solver.solve(&g, &SolveContext::seeded(17)).unwrap();
            let tag = format!("{spec} on {label}");
            // The solver field echoes the canonical spec.
            assert_eq!(report.solver, spec, "{tag}");
            // Merged metrics equal the fold of the stage metrics.
            let rounds: usize = report.stages.iter().map(|s| s.metrics.rounds).sum();
            let messages: u64 = report.stages.iter().map(|s| s.metrics.messages).sum();
            let bits: u64 = report.stages.iter().map(|s| s.metrics.bits).sum();
            assert_eq!(report.rounds(), rounds, "{tag}: rounds don't sum");
            assert_eq!(report.messages(), messages, "{tag}: messages don't sum");
            assert_eq!(report.metrics.bits, bits, "{tag}: bits don't sum");
            assert_eq!(
                report.metrics.max_message_bits,
                report
                    .stages
                    .iter()
                    .map(|s| s.metrics.max_message_bits)
                    .max()
                    .unwrap_or(0),
                "{tag}: max message bits isn't the stage max"
            );
            // Accessors agree with the underlying set.
            assert_eq!(report.size(), report.dominating_set.len(), "{tag}");
            // Certificate agrees with direct verification.
            let cert = report.certificate.as_ref().unwrap();
            assert_eq!(cert.lemma1_bound, kw_lp::bounds::lemma1_bound(&g), "{tag}");
            if cert.lemma1_bound > 0.0 {
                assert!(
                    (cert.ratio_vs_lemma1 - report.size() as f64 / cert.lemma1_bound).abs() < 1e-12,
                    "{tag}: ratio inconsistent"
                );
            }
            match &report.fractional {
                Some(x) => {
                    assert_eq!(x.len(), g.len(), "{tag}: fractional length");
                    assert_eq!(cert.fractional_feasible, Some(x.is_feasible(&g)), "{tag}");
                    assert_eq!(cert.fractional_objective, Some(x.objective()), "{tag}");
                }
                None => {
                    assert_eq!(cert.fractional_feasible, None, "{tag}");
                    assert_eq!(cert.fractional_objective, None, "{tag}");
                }
            }
        }
    }
}

#[test]
fn experiment_runner_matches_individual_solves() {
    // The matrix runner must report exactly what per-seed solves produce.
    let registry = kw_domset::default_registry();
    let solvers = registry.build_all(["kw:k=2", "greedy"]).unwrap();
    let workloads = vec![("grid5x5".to_string(), generators::grid(5, 5))];
    let seeds: Vec<u64> = (0..4).collect();
    let records = ExperimentRunner::new()
        .run_matrix(&solvers, &workloads, seeds.iter().copied())
        .unwrap();
    let summary = Summary::from_records(&records);
    for solver in &solvers {
        let cell = summary
            .cell_under(&solver.spec(), &workloads[0].0, "")
            .expect("every cell ran");
        let sizes: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                solver
                    .solve(&workloads[0].1, &SolveContext::seeded(s))
                    .unwrap()
                    .size() as f64
            })
            .collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert_eq!(cell.runs, seeds.len());
        assert_eq!(cell.failures, 0);
        assert!((cell.size.mean - mean).abs() < 1e-12, "{}", solver.spec());
    }
}

#[test]
fn unknown_and_malformed_specs_fail_cleanly() {
    let registry = kw_domset::default_registry();
    for bad in [
        "nope",
        "kw:k=zero",
        "kw:zz=1",
        "connected()",
        "connected(nope)",
        "greedy:k=2",
    ] {
        assert!(registry.build(bad).is_err(), "{bad:?} should fail to build");
    }
}
