//! Ablation A2 (Section 6 discussion): the LP-relaxation route (KW)
//! versus direct greedy parallelization (JRS) at an **equal round
//! budget**.
//!
//! The paper argues LP relaxation "allows to postpone symmetry breaking to
//! the end". This experiment grants KW the same number of rounds JRS
//! consumed on each instance (choosing the largest k that fits) and
//! compares set sizes: as n grows, JRS's round bill grows while KW's
//! fixed-k quality is unchanged — the crossover the paper's motivation
//! predicts for large, fast-changing networks.
//!
//! Both contenders run through the `DsSolver` trait, and every
//! per-instance sweep goes through a persistent [`SweepSession`]
//! (`target/exp_a2_runs.jsonl`, or `KW_RUN_STORE`): a re-run — or a run
//! killed between instances and restarted — replays the store and only
//! solves cells it never recorded.

use kw_bench::denominators::best_denominator;
use kw_bench::workloads::Workload;
use kw_core::math;
use kw_core::solver::{ExperimentRunner, SolverRegistry};
use kw_results::pipeline::SweepSession;
use kw_results::render::Table;
use kw_results::summary::Summary;

fn main() {
    println!("A2 — LP-relaxation (KW) vs greedy parallelization (JRS) at equal rounds\n");
    let registry = {
        let mut r = SolverRegistry::with_core_solvers();
        kw_baselines::register_baselines(&mut r);
        r
    };
    let store_path =
        std::env::var("KW_RUN_STORE").unwrap_or_else(|_| "target/exp_a2_runs.jsonl".to_string());
    let mut session = SweepSession::open(&store_path).expect("open run store");
    if session.replayed() > 0 {
        println!(
            "resuming: {} records replayed from {store_path}\n",
            session.replayed()
        );
    }
    let suite = [
        Workload::Gnp { n: 128, p: 0.06 },
        Workload::Gnp { n: 512, p: 0.02 },
        Workload::Gnp { n: 2048, p: 0.006 },
        Workload::Gnp { n: 8192, p: 0.0017 },
        Workload::UnitDisk {
            n: 1024,
            radius: 0.05,
        },
    ];
    let seeds = 6u64;
    let runner = ExperimentRunner::new();
    let mut table = Table::new([
        "workload",
        "n",
        "JRS rounds",
        "JRS E|DS|",
        "k fitting budget",
        "KW rounds",
        "KW E|DS|",
        "KW/JRS size",
        "denom kind",
    ]);
    let (mut solved, mut cached) = (0u64, 0u64);
    for w in suite {
        let g = w.build(9);
        let denom = best_denominator(&g, 0, 256);
        let workloads = vec![(w.label(), g)];
        let jrs = registry.build("jrs").expect("jrs registered");
        let jrs_out = session
            .run(
                &runner,
                std::slice::from_ref(&jrs),
                &workloads,
                0..seeds,
                |_| {},
            )
            .expect("jrs sweep");
        let jrs_summary = Summary::from_records(&jrs_out.records);
        let jrs_cell = jrs_summary
            .cell_under(&jrs.spec(), &w.label(), "")
            .expect("jrs cell ran");
        assert_eq!(jrs_cell.failures, 0);
        let budget = jrs_cell.rounds.mean as usize;
        // Largest k whose pipeline (4k² + 2k + 2 rounds) fits the budget.
        let k = (1u32..=32)
            .take_while(|&k| math::alg3_rounds(k) + 2 <= budget)
            .last()
            .unwrap_or(1);
        let kw = registry.build(&format!("kw:k={k}")).expect("kw registered");
        let kw_out = session
            .run(
                &runner,
                std::slice::from_ref(&kw),
                &workloads,
                0..seeds,
                |_| {},
            )
            .expect("kw sweep");
        let kw_summary = Summary::from_records(&kw_out.records);
        let kw_cell = kw_summary
            .cell_under(&kw.spec(), &w.label(), "")
            .expect("kw cell ran");
        assert_eq!(kw_cell.failures, 0);
        solved += jrs_out.solved + kw_out.solved;
        cached += jrs_out.cached + kw_out.cached;
        table.row([
            w.label(),
            kw_cell.n.to_string(),
            format!("{budget}"),
            format!("{:.1}", jrs_cell.size.mean),
            k.to_string(),
            format!("{:.0}", kw_cell.rounds.max),
            format!("{:.1}", kw_cell.size.mean),
            format!("{:.2}", kw_cell.size.mean / jrs_cell.size.mean),
            denom.kind.label().to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "run store: {store_path} — {solved} cells solved, {cached} served from the store/cache"
    );
    println!("Shape: the KW/JRS size ratio shrinks as n grows — a fixed round budget buys");
    println!("JRS fewer greedy phases on larger graphs, while KW's k (and quality) rises.");
}
