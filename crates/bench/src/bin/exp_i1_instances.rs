//! Experiment I1 (ROADMAP item (g)): real-world DIMACS instances as
//! first-class workloads.
//!
//! Parses every bundled instance under `instances/` in lenient mode
//! (reporting what the parser cleaned up), validates each against its
//! registry checksum and shape, then runs the small solver suite over
//! all of them through a persistent [`SweepSession`]
//! (`target/exp_i1_runs.jsonl`, or `KW_RUN_STORE`). A second session
//! over the same store must resume to 100% cache hits with bit-identical
//! summaries — the acceptance check that instance cells cache, persist,
//! and resume exactly like generated cells. CI runs this binary and then
//! `regress --validate`s the store it wrote.
//!
//! Pass workload specs as CLI arguments to sweep other instances (or mix
//! instance and generated workloads):
//!
//! ```text
//! exp_i1_instances dimacs:instances/queen5_5.col gnp:n=128,p=0.05
//! ```

use kw_bench::workloads::{parse_suite, Workload};
use kw_core::solver::ExperimentRunner;
use kw_graph::CsrGraph;
use kw_results::pipeline::SweepSession;
use kw_results::render::Table;
use kw_results::summary::Summary;

fn main() {
    println!("I1 — real DIMACS instances through the sweep pipeline\n");

    // 1. Parse + validate every bundled instance, reporting the lenient
    //    parser's cleanup counters.
    let mut table = Table::new([
        "instance", "n", "m", "Δ", "e-lines", "dups", "loops", "skipped",
    ]);
    for meta in kw_bench::instances::BUNDLED {
        let (graph, stats) =
            kw_bench::instances::load(meta).unwrap_or_else(|reason| panic!("{reason}"));
        table.row([
            meta.name.to_string(),
            graph.len().to_string(),
            graph.num_edges().to_string(),
            graph.max_degree().to_string(),
            stats.edge_lines.to_string(),
            stats.duplicate_edges.to_string(),
            stats.self_loops.to_string(),
            stats.skipped_lines.to_string(),
        ]);
    }
    println!("{table}");

    // 2. Sweep the small solver suite over the instances through the
    //    persistent store. Workload specs on the CLI override the
    //    bundled suite.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite: Vec<Workload> = if args.is_empty() {
        kw_bench::instances::suite()
    } else {
        parse_suite(&args).unwrap_or_else(|e| panic!("{e}"))
    };
    let specs = ["kw:k=2", "kw:k=3", "greedy", "jrs", "trivial"];
    let seeds: Vec<u64> = (0..5).collect();
    let store_path =
        std::env::var("KW_RUN_STORE").unwrap_or_else(|_| "target/exp_i1_runs.jsonl".to_string());
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(specs).expect("suite specs registered");
    let runner = ExperimentRunner::new().workers(0);

    // Instance workloads are seed-invariant, so one build per workload
    // is the honest materialization (no per-seed copies).
    let workloads: Vec<(String, CsrGraph)> =
        suite.iter().map(|w| (w.label(), w.build(0))).collect();

    let mut session = SweepSession::open(&store_path).expect("open run store");
    if session.replayed() > 0 {
        println!(
            "resuming: {} records replayed from {store_path}\n",
            session.replayed()
        );
    }
    let out = session
        .run(&runner, &solvers, &workloads, seeds.iter().copied(), |_| {})
        .expect("instance sweep runs");
    if let Some(e) = &out.store_error {
        eprintln!("warning: run store append failed ({e})");
    }
    let summary = Summary::from_records(&out.records);
    for cell in &summary.cells {
        assert_eq!(cell.failures, 0, "reliable network never fails to dominate");
    }
    println!("{}", summary.to_markdown());
    println!(
        "sweep: {} solved, {} cached, store {store_path}",
        out.solved, out.cached
    );

    // 3. Resume in a fresh session: every cell must be served from the
    //    store — instance cells replay exactly like generated cells.
    //    (The first session must drop before the second can take the
    //    store's writer lock.)
    drop(session);
    let total = (solvers.len() * workloads.len() * seeds.len()) as u64;
    let mut resumed = SweepSession::open(&store_path).expect("reopen run store");
    assert!(
        resumed.replayed() as u64 >= total,
        "store must hold all {total} cells"
    );
    let again = resumed
        .run(&runner, &solvers, &workloads, seeds, |_| {})
        .expect("resumed sweep runs");
    assert_eq!(
        (again.solved, again.cached),
        (0, total),
        "resume must be 100% cache hits"
    );
    // A cache hit replays the original record, wall time included.
    assert_eq!(out.records, again.records, "resumed records differ");
    println!(
        "resume: {}/{total} cache hits, summaries identical — PASS",
        again.cached
    );
}
