//! External graphs as first-class sweep citizens: bundled DIMACS
//! instances flow through spec parsing, the experiment cache, the
//! persistent run store, and session resume exactly like generated
//! workloads.

use std::path::PathBuf;

use kw_bench::instances;
use kw_bench::workloads::{parse_suite, Workload};
use kw_core::solver::{ExperimentRunner, SolveError};
use kw_graph::CsrGraph;
use kw_results::pipeline::{PipelineError, SweepSession};
use kw_results::summary::Summary;

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "kw_instance_workloads_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// Materializes workloads the way the experiment drivers do. Instance
/// workloads are seed-invariant, so one build per workload suffices.
fn materialize(suite: &[Workload]) -> Vec<(String, CsrGraph)> {
    suite.iter().map(|w| (w.label(), w.build(0))).collect()
}

#[test]
fn bundled_instances_reach_solvers_through_the_spec_grammar() {
    // CLI-shaped specs → workloads → validated graphs → a solve.
    let suite = parse_suite([
        "dimacs:instances/myciel3.col",
        "dimacs:instances/queen5_5.col",
        "dimacs:instances/adhoc25.col",
    ])
    .expect("bundled instance specs parse");
    assert_eq!(suite.len(), instances::BUNDLED.len());
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["kw:k=2", "greedy"]).unwrap();
    let records = ExperimentRunner::new()
        .run_matrix(&solvers, &materialize(&suite), 0..2)
        .expect("instance matrix runs");
    let summary = Summary::from_records(&records);
    assert_eq!(summary.cells.len(), 2 * suite.len());
    for w in &suite {
        for solver in ["kw:k=2", "greedy"] {
            let cell = summary
                .cell_under(solver, &w.label(), "")
                .expect("every cell ran");
            assert_eq!(cell.runs, 2);
            assert_eq!(cell.failures, 0, "{}/{}", cell.solver, cell.workload);
            assert!(cell.ratio_vs_lemma1.mean >= 1.0 - 1e-9);
        }
    }
}

/// The acceptance criterion of ROADMAP item (g): a bundled instance
/// completes a cached, persistent sweep, and a fresh session over the
/// same store resumes to 100% cache hits with identical summaries.
#[test]
fn instance_sweep_persists_and_resumes_to_full_cache_hits() {
    let path = temp_store("resume");
    let _ = std::fs::remove_file(&path);
    let suite = instances::suite();
    let workloads = materialize(&suite);
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["kw:k=2", "trivial"]).unwrap();
    let runner = ExperimentRunner::new().workers(2);
    let total = (solvers.len() * workloads.len() * 3) as u64;

    let mut session = SweepSession::open(&path).expect("open fresh store");
    let first = session
        .run(&runner, &solvers, &workloads, 0..3, |_| {})
        .expect("first sweep");
    assert_eq!((first.solved, first.cached), (total, 0));
    assert!(first.store_error.is_none());
    drop(session); // release the writer lock for the resume session

    let mut resumed = SweepSession::open(&path).expect("reopen store");
    assert_eq!(resumed.replayed() as u64, total);
    let second = resumed
        .run(&runner, &solvers, &workloads, 0..3, |_| {})
        .expect("resumed sweep");
    assert_eq!(
        (second.solved, second.cached),
        (0, total),
        "resume must re-solve nothing"
    );
    // A cache hit replays the original record, wall time included.
    assert_eq!(first.records, second.records);
    std::fs::remove_file(&path).unwrap();
}

/// A label reused for a different graph must be refused on replay (the
/// store-level guard) — instance labels are store keys like any other.
#[test]
fn instance_label_reuse_with_different_graph_is_rejected_on_resume() {
    let path = temp_store("stale");
    let _ = std::fs::remove_file(&path);
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["trivial"]).unwrap();
    let runner = ExperimentRunner::new();
    let real = materialize(&instances::suite()[..1]);
    let mut session = SweepSession::open(&path).expect("open store");
    session
        .run(&runner, &solvers, &real, 0..2, |_| {})
        .expect("first sweep");
    drop(session); // release the writer lock for the reopened session
                   // Same label, different graph: the session must refuse to replay.
    let imposter = vec![(real[0].0.clone(), kw_graph::generators::grid(3, 3))];
    let mut reopened = SweepSession::open(&path).expect("reopen store");
    match reopened.run(&runner, &solvers, &imposter, 0..2, |_| {}) {
        Err(PipelineError::StaleWorkload { workload, .. }) => {
            assert_eq!(workload, real[0].0);
        }
        other => panic!("expected StaleWorkload, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Duplicate labels fail fast through the whole stack, not just the
/// bare runner: a session sweep refuses before solving anything.
#[test]
fn duplicate_labels_fail_fast_through_the_session() {
    let path = temp_store("dup");
    let _ = std::fs::remove_file(&path);
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["trivial"]).unwrap();
    let w = instances::suite().remove(0);
    // The same instance twice: identical labels, identical graphs — the
    // aliasing is still refused because cached cells would be
    // indistinguishable from solved ones.
    let dup = vec![(w.label(), w.build(0)), (w.label(), w.build(0))];
    let mut session = SweepSession::open(&path).expect("open store");
    match session.run(&ExperimentRunner::new(), &solvers, &dup, 0..2, |_| {}) {
        Err(PipelineError::Solve(SolveError::DuplicateWorkload { label })) => {
            assert_eq!(label, w.label());
        }
        other => panic!("expected DuplicateWorkload, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Mixed matrices — generated and instance workloads side by side —
/// share one cache and one store without label collisions.
#[test]
fn mixed_generated_and_instance_matrices_sweep_together() {
    let suite = parse_suite(["gnp:n=32,p=0.2", "dimacs:instances/myciel3.col"]).unwrap();
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["greedy"]).unwrap();
    let records = ExperimentRunner::new()
        .run_matrix(&solvers, &materialize(&suite), 0..2)
        .expect("mixed matrix runs");
    let labels: Vec<&str> = records.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(
        labels,
        [
            "gnp(n=32,p=0.2)",
            "gnp(n=32,p=0.2)",
            "dimacs(myciel3)",
            "dimacs(myciel3)"
        ]
    );
}
