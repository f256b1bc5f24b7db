//! Experiment T5 (Theorem 6, headline): the full pipeline against every
//! baseline — set size, rounds, and messages.
//!
//! Reproduction target (shape, not absolute numbers): KW is the only
//! algorithm whose round count is **independent of n**; its set size lands
//! between greedy/JRS (better quality, more rounds as n grows) and the
//! trivial baseline, within the Theorem-6 factor of the lower bound.
//!
//! Every algorithm runs through the **streaming results pipeline**: two
//! overlapping sweeps (a KW-only k-trend pilot, then the full matrix)
//! share one [`SweepSession`], which streams per-cell progress while the
//! matrix executes, persists every solved cell to a JSONL run store
//! (`target/exp_t5_runs.jsonl`, or `KW_RUN_STORE`), and on re-launch
//! replays the store so only missing cells solve — kill this binary
//! mid-sweep and restart it to watch the resume. The final table is the
//! store summary (mean/p50/p95 over seeds; ratio is vs the Lemma-1
//! bound), rendered as markdown.

use std::io::Write as _;

use kw_bench::workloads::Workload;
use kw_core::solver::{DsSolver, ExperimentRunner, RunEvent};
use kw_graph::CsrGraph;
use kw_results::pipeline::SweepSession;
use kw_results::summary::Summary;

/// A `\r`-rewriting progress meter: cell-by-cell feedback on stderr
/// without scrolling the table off the screen.
fn progress_meter(tag: &'static str) -> impl FnMut(&RunEvent) + Send {
    let (mut done, mut cached, mut total) = (0usize, 0usize, 0usize);
    move |ev| {
        match ev {
            RunEvent::SweepStarted { runs, .. } => total = *runs,
            RunEvent::CellCached { .. } => {
                done += 1;
                cached += 1;
            }
            _ if ev.is_terminal() => done += 1,
            _ => return,
        }
        eprint!("\r[{tag}] {done}/{total} cells ({cached} cached)");
        if done == total {
            eprintln!();
        }
        let _ = std::io::stderr().flush();
    }
}

fn main() {
    println!("T5 — Theorem 6: end-to-end comparison (10 seeds per randomized algorithm)\n");
    // Workload specs on the CLI override the default suite (the spec
    // grammar is documented in kw_bench::workloads), so instance files
    // sweep through the same pipeline:
    //   exp_t5_endtoend dimacs:instances/queen5_5.col gnp:n=128,p=0.05
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite: Vec<Workload> = if args.is_empty() {
        vec![
            Workload::Gnp { n: 128, p: 0.05 },
            Workload::Gnp { n: 512, p: 0.015 },
            Workload::Gnp { n: 2048, p: 0.004 },
            Workload::UnitDisk {
                n: 512,
                radius: 0.07,
            },
            Workload::BarabasiAlbert { n: 512, m: 3 },
            Workload::Grid { side: 23 },
        ]
    } else {
        kw_bench::workloads::parse_suite(&args).unwrap_or_else(|e| panic!("{e}"))
    };
    let store_path =
        std::env::var("KW_RUN_STORE").unwrap_or_else(|_| "target/exp_t5_runs.jsonl".to_string());
    let mut session = SweepSession::open(&store_path).expect("open run store");
    if session.replayed() > 0 {
        println!(
            "resuming: {} records replayed from {store_path}\n",
            session.replayed()
        );
    }
    // Graphs come from the session cache's (workload, seed) memo — built
    // once, shared by both sweeps.
    let cache = session.cache();
    let workloads: Vec<(String, CsrGraph)> = suite
        .iter()
        .map(|w| {
            let g = cache.graph(&w.label(), 2, || w.build(2));
            (w.label(), (*g).clone())
        })
        .collect();
    let registry = kw_baselines::registry();
    let runner = ExperimentRunner::new().workers(0); // results are scheduling-independent

    // Sweep 1 — KW k-trend pilot (Theorem 6: quality improves with k).
    let kw_solvers = registry
        .build_all(["kw:k=2", "kw:k=3", "kw:k=4"])
        .expect("kw specs registered");
    let pilot = session
        .run(
            &runner,
            &kw_solvers,
            &workloads,
            0..10,
            progress_meter("pilot"),
        )
        .expect("pilot runs");
    println!("k-trend (mean |DS| per workload; must shrink as k grows):");
    let pilot_summary = Summary::from_records(&pilot.records);
    for (label, _) in &workloads {
        let sizes: Vec<String> = kw_solvers
            .iter()
            .map(|s| {
                let cell = pilot_summary
                    .cell_under(&s.spec(), label, "")
                    .expect("pilot cell ran");
                format!("{}={:.1}", cell.solver, cell.size.mean)
            })
            .collect();
        println!("  {label}: {}", sizes.join("  "));
    }
    println!();

    // Sweep 2 — the full matrix. Overlaps sweep 1 on every KW cell; only
    // the baselines are actually solved (on a resumed store, nothing is).
    let solvers = registry
        .build_all([
            "kw:k=2", "kw:k=3", "kw:k=4", "jrs", "luby-mis", "greedy", "trivial",
        ])
        .expect("all specs registered");
    let full = session
        .run(
            &runner,
            &solvers,
            &workloads,
            0..10,
            progress_meter("matrix"),
        )
        .expect("matrix runs");
    if let Some(e) = &full.store_error {
        eprintln!(
            "warning: run store append failed ({e}); results below are complete but not all persisted"
        );
    }
    // The table is the store summary of exactly this sweep's records
    // (ratio = E|DS| / Lemma-1 bound, an upper bound on the true ratio).
    let summary = Summary::from_records(&full.records);
    for cell in &summary.cells {
        assert_eq!(cell.failures, 0, "reliable network never fails to dominate");
    }
    println!("{}", summary.to_markdown());

    let kw_cells_total = (kw_solvers.len() * workloads.len() * 10) as u64;
    assert!(
        full.cached >= kw_cells_total,
        "full matrix must reuse every pilot KW cell ({} cached < {kw_cells_total})",
        full.cached,
    );
    println!(
        "cell cache: {} solved, {} served from cache this sweep (≥ all {} KW pilot cells)",
        full.solved, full.cached, kw_cells_total,
    );
    println!("run store: {store_path} (re-run this binary for a 100% cache-hit replay)");
    println!("Shape checks: KW rounds are constant per k while JRS/MIS rounds grow with n;");
    println!("KW ratio sits between greedy and trivial and shrinks as k grows (Theorem 6).");
}
