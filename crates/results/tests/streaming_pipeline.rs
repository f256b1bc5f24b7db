//! End-to-end acceptance of the streaming results pipeline: a
//! killed-then-resumed sweep re-executes only its missing cells (with
//! hit/miss counts reported via `RunEvent`s), stale stores are refused,
//! and stores holding retired line kinds still replay and validate.

use std::path::PathBuf;
use std::process::Command;

use kw_core::solver::{ExperimentRunner, RunEvent, SolverRegistry};
use kw_graph::generators;
use kw_results::pipeline::{PipelineError, SweepSession};
use kw_results::store::RunStore;
use kw_results::summary::Summary;
use kw_results::RunRecord;

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "kw_pipeline_test_{}_{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn workloads() -> Vec<(String, kw_graph::CsrGraph)> {
    vec![
        ("grid4".to_string(), generators::grid(4, 4)),
        ("petersen".to_string(), generators::petersen()),
    ]
}

#[test]
fn killed_then_resumed_sweep_reexecutes_only_missing_cells() {
    let path = temp_store("resume");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2", "composite:k=2"]).unwrap();
    let runner = ExperimentRunner::new().workers(2);
    let total = 2 * 2 * 3; // solvers × workloads × seeds

    // Full sweep into the store.
    let mut session = SweepSession::open(&path).unwrap();
    let full = session
        .run(&runner, &solvers, &workloads(), 0..3, |_| {})
        .unwrap();
    assert_eq!((full.solved, full.cached), (total as u64, 0));
    // Release the writer lock before the "killed" process resumes.
    drop(session);

    // "Kill" the sweep: keep the manifest and the first 5 records, plus
    // a torn half-line exactly as a crash mid-append would leave it.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(1 + 5).collect();
    let mut truncated = keep.join("\n");
    truncated.push('\n');
    truncated.push_str("{\"v\":1,\"kind\":\"record\",\"solver\":\"kw:k=2\",\"work");
    std::fs::write(&path, &truncated).unwrap();
    let survivors = kw_results::store::load_path(&path).unwrap().records;

    // Resume: only the 7 missing cells may solve.
    let mut resumed = SweepSession::open(&path).unwrap();
    assert_eq!(resumed.replayed(), 5, "five surviving records replay");
    let (mut cached_events, mut finished_events) = (0u64, 0u64);
    let out = resumed
        .run(&runner, &solvers, &workloads(), 0..3, |ev| match ev {
            RunEvent::CellCached { .. } => cached_events += 1,
            RunEvent::CellFinished { .. } => finished_events += 1,
            _ => {}
        })
        .unwrap();
    // Hit/miss counts arrive via the events (and the outcome totals).
    assert_eq!((cached_events, finished_events), (5, 7));
    assert_eq!((out.cached, out.solved, out.failed), (5, 7, 0));
    assert_eq!(resumed.cache().hits(), 5);
    assert_eq!(resumed.cache().misses(), 7);

    // The resumed sweep's results are bit-identical to the uninterrupted
    // run's — replayed cells carry the original outcomes, wall time
    // included, and re-solved cells differ at most in wall time.
    let answer = |r: &RunRecord| {
        let mut r = r.clone();
        r.outcome.wall_ms = 0.0;
        r
    };
    assert_eq!(full.records.len(), out.records.len());
    for (a, b) in full.records.iter().zip(&out.records) {
        assert_eq!(answer(a), answer(b));
    }
    assert!(survivors.iter().all(|r| out.records.contains(r)));

    // The store is whole again: 12 records, no torn tail, and a third
    // session replays all of them (nothing left to solve).
    drop(resumed);
    let contents = RunStore::open(&path).unwrap().load().unwrap();
    assert_eq!(contents.records.len(), total);
    assert_eq!(contents.manifests.len(), 2, "one manifest per launch");
    assert!(!contents.truncated_tail, "open repaired the torn tail");
    let mut third = SweepSession::open(&path).unwrap();
    assert_eq!(third.replayed(), total);
    let replay = third
        .run(&runner, &solvers, &workloads(), 0..3, |_| {})
        .unwrap();
    assert_eq!((replay.solved, replay.cached), (0, total as u64));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stale_store_is_rejected_not_silently_replayed() {
    let path = temp_store("stale");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2"]).unwrap();
    let runner = ExperimentRunner::new();
    // Record runs for "grid4" on the 4×4 grid.
    let mut session = SweepSession::open(&path).unwrap();
    session
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    drop(session);
    // A later launch reuses the label for a *different* graph (the shape
    // a changed generator would produce): replaying must refuse loudly.
    let mut resumed = SweepSession::open(&path).unwrap();
    let changed = vec![("grid4".to_string(), generators::grid(5, 5))];
    match resumed.run(&runner, &solvers, &changed, 0..2, |_| {}) {
        Err(PipelineError::StaleWorkload {
            workload,
            stored,
            live,
        }) => {
            assert_eq!(workload, "grid4");
            assert_eq!(stored, (16, 4));
            assert_eq!(live, (25, 4));
        }
        other => panic!("expected StaleWorkload, got {other:?}"),
    }
    // The unchanged graph still resumes fine.
    let out = resumed
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    assert_eq!(out.solved, 0);
    assert!(out.store_error.is_none());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summary_of_a_loaded_store_renders_and_rolls_up() {
    let path = temp_store("summary");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2", "kw:k=3"]).unwrap();
    let mut session = SweepSession::open(&path).unwrap();
    session
        .run(
            &ExperimentRunner::new(),
            &solvers,
            &workloads(),
            0..5,
            |_| {},
        )
        .unwrap();
    drop(session);
    let contents = RunStore::open(&path).unwrap().load().unwrap();
    let summary = Summary::from_records(&contents.records);
    assert_eq!(summary.cells.len(), 4);
    assert_eq!(summary.solvers.len(), 2);
    for cell in &summary.cells {
        assert_eq!(cell.runs, 5);
        assert_eq!(cell.failures, 0);
        assert_eq!(cell.size.count, 5);
        assert!(cell.size.p50 >= cell.size.min && cell.size.p95 <= cell.size.max);
        assert!(cell.ratio_vs_lemma1.mean >= 1.0 - 1e-9);
    }
    let md = summary.to_markdown();
    assert!(md.contains("| grid4 | 16 | 4 | kw:k=2 |"));
    assert_eq!(md.lines().count(), 2 + 4);
    let csv = summary.to_csv();
    assert_eq!(csv.lines().count(), 1 + 4);
    std::fs::remove_file(&path).unwrap();
}

/// Stores written while `bench` lines existed still load: those lines
/// are skipped and counted as unknown kinds, every record replays, and
/// `regress --validate` accepts the store and reports the skipped count.
#[test]
fn stores_with_legacy_bench_lines_replay_and_validate() {
    let path = temp_store("legacy_bench");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2"]).unwrap();
    let runner = ExperimentRunner::new();
    let mut session = SweepSession::open(&path).unwrap();
    let out = session
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    drop(session);

    // A v4 `bench` line after every record line.
    let bench = "{\"v\":4,\"kind\":\"bench\",\"bench\":\"serve_load\",\
                 \"id\":\"smoke/c4/p50\",\"best_ms\":1.5}";
    let mut mixed = String::new();
    for line in std::fs::read_to_string(&path).unwrap().lines() {
        mixed.push_str(line);
        mixed.push('\n');
        if line.contains("\"kind\":\"record\"") {
            mixed.push_str(bench);
            mixed.push('\n');
        }
    }
    std::fs::write(&path, mixed).unwrap();

    let mut resumed = SweepSession::open(&path).unwrap();
    assert_eq!(resumed.replayed(), out.records.len());
    let again = resumed
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    assert_eq!(again.solved, 0);
    assert_eq!(again.records, out.records, "hits replay the originals");
    drop(resumed);

    let validate = Command::new(env!("CARGO_BIN_EXE_regress"))
        .arg("--validate")
        .arg(&path)
        .output()
        .expect("regress runs");
    let stdout = String::from_utf8_lossy(&validate.stdout);
    assert_eq!(validate.status.code(), Some(0), "{stdout}");
    let skipped = format!("{} unknown-kind lines", out.records.len());
    assert!(stdout.contains(&skipped), "{stdout}");
    std::fs::remove_file(&path).unwrap();
}
