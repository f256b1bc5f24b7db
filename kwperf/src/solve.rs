//! `solve-gnp100k`: one closed-loop caller of `DsSolver::solve` at two
//! engine threads on G(n, p) graphs with 100k nodes.

use std::collections::BTreeMap;
use std::time::Instant;

use kw_bench::workloads::Workload;
use kw_domset::core::solver::{DsSolver, SolveContext, SolveReport};
use kw_domset::graph::CsrGraph;

use crate::check::{Answer, Checks};
use crate::layers::{self, Cell, Probe};
use crate::{err, median, ms_since, timed_setup, Report, RunCfg, TempDir};

/// G(n, p) with n = 100k and average degree 16.
pub const GNP_SPEC: &str = "gnp:n=100000,p=0.00016";
/// Graph seeds the runs draw from; `pins.txt` holds every one.
const GNP_POOL: u64 = 16;
/// Graphs one run builds and cycles through.
const GNP_PER_RUN: u64 = 3;
/// Engine threads of every `solve-gnp100k` solve (the host's `nproc`).
const GNP_THREADS: usize = 2;
const GNP_SOLVER: &str = "kw:k=2";

fn gnp_seeds(seed: u64) -> Vec<u64> {
    (0..GNP_PER_RUN)
        .map(|i| (seed % GNP_POOL * GNP_PER_RUN + i) % GNP_POOL)
        .collect()
}

fn gnp_context(seed: u64) -> SolveContext {
    SolveContext {
        threads: GNP_THREADS,
        ..SolveContext::seeded(seed)
    }
}

/// Solves must not depend on the engine thread count: the graph solved at
/// one thread must reproduce the multi-thread answer bit for bit.
fn thread_invariance(
    solver: &dyn DsSolver,
    g: &CsrGraph,
    seed: u64,
    reference: &SolveReport,
) -> Result<(), String> {
    let one = SolveContext::seeded(seed);
    let again = solver.solve(g, &one).map_err(err)?;
    if again.dominating_set != reference.dominating_set || again.metrics != reference.metrics {
        return Err(format!(
            "{GNP_SOLVER} (seed {seed}): answer differs between {GNP_THREADS} threads and 1"
        ));
    }
    Ok(())
}

/// `solve-gnp100k`.
pub fn gnp(
    cfg: RunCfg,
    checks: &mut Checks,
    report: &mut Report,
    tmp: &TempDir,
) -> Result<(), String> {
    let workload = Workload::parse(GNP_SPEC).map_err(err)?;
    let label = workload.label();
    let seeds = gnp_seeds(cfg.seed);
    let (graphs, setup) = timed_setup(|_| {
        seeds
            .iter()
            .map(|&s| Ok((s, workload.try_build(s).map_err(err)?)))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let solver = kw_domset::default_registry()
        .build(GNP_SOLVER)
        .map_err(err)?;
    if cfg.trace {
        let probe = Probe {
            builds: seeds.iter().map(|&s| (workload.clone(), s)).collect(),
            graphs: graphs.iter().map(|(_, g)| (label.clone(), g)).collect(),
            seed: seeds[0],
            threads: GNP_THREADS,
            cells: seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| Cell::reliable(GNP_SOLVER, i, s))
                .collect(),
            requests: vec![layers::solve_body(
                GNP_SPEC,
                GNP_SOLVER,
                seeds[0],
                "",
                GNP_THREADS,
            )],
            live: None,
        };
        return layers::run(&probe, cfg.budget, checks, report, tmp);
    }
    report.setup(&setup);
    // One untimed solve first, so the timed loop starts with the
    // allocator and page tables warm; a one-thread solve must reproduce it.
    let (seed, g) = &graphs[0];
    let reference = solver.solve(g, &gnp_context(*seed)).map_err(err)?;
    checks.op(thread_invariance(&*solver, g, *seed, &reference));

    let mut reps = Vec::new();
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < graphs.len() || start.elapsed() < cfg.budget {
        let (seed, g) = &graphs[i % graphs.len()];
        let ctx = gnp_context(*seed);
        let requested = Instant::now();
        let solved = solver.solve(g, &ctx);
        let solve_ms = ms_since(requested);
        match solved {
            Ok(r) => {
                checks.answer(&Answer {
                    pinned: true,
                    ..Answer::from_report(&label, *seed, g, &r)
                });
                reps.push(Rep {
                    input: i % graphs.len(),
                    pass: i / graphs.len(),
                    solve_ms,
                    req_ms: ms_since(requested),
                    messages: r.messages() as f64,
                });
                ratios.extend(r.ratio_vs_lemma1());
            }
            Err(e) => checks.failed_op(format!("{GNP_SOLVER} on {label} (seed {seed}): {e}")),
        }
        i += 1;
    }
    put_closed_loop(report, &reps, graphs.len(), &ratios)?;
    report.note("graph_seeds", format!("{seeds:?}"));
    Ok(())
}

/// One solve call of the closed loop.
struct Rep {
    /// Which graph it solved.
    input: usize,
    /// Which pass over all inputs it belongs to.
    pass: usize,
    solve_ms: f64,
    req_ms: f64,
    messages: f64,
}

/// The timing metrics of a closed loop, each built from best-of-N times.
/// On a shared host, compute medians drift by up to a quarter from run to
/// run while the fastest of many repetitions holds within a few percent
/// (METRICS.md has the measurements). Latencies are the median and the
/// maximum over inputs of each input's fastest time; rates come from the
/// fastest complete pass over all `inputs`.
fn put_closed_loop(
    report: &mut Report,
    reps: &[Rep],
    inputs: usize,
    ratios: &[f64],
) -> Result<(), String> {
    let mut best: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut passes: BTreeMap<usize, (usize, f64, f64)> = BTreeMap::new();
    for r in reps {
        let b = best
            .entry(r.input)
            .or_insert((f64::INFINITY, f64::INFINITY));
        *b = (b.0.min(r.solve_ms), b.1.min(r.req_ms));
        let p = passes.entry(r.pass).or_insert((0, 0.0, 0.0));
        *p = (p.0 + 1, p.1 + r.req_ms, p.2 + r.messages);
    }
    let (_, pass_ms, pass_messages) = passes
        .into_values()
        .filter(|p| p.0 == inputs)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or("no complete pass over the inputs")?;
    let solves: Vec<f64> = best.values().map(|b| b.0).collect();
    let requests: Vec<f64> = best.values().map(|b| b.1).collect();
    let per_s = inputs as f64 / (pass_ms / 1e3);
    let n = reps.len();
    report.put("solve_ms", median(&solves), n);
    report.put("solves_per_s", per_s, n);
    report.put("sim_msgs_per_s", pass_messages / (pass_ms / 1e3), n);
    report.put("req_ms", median(&requests), n);
    report.put(
        "req_ms_tail",
        requests.iter().copied().fold(f64::NAN, f64::max),
        n,
    );
    report.put("req_per_s", per_s, n);
    report.put(
        "ratio_vs_lemma1_mean",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        ratios.len(),
    );
    Ok(())
}

/// Solves every graph of the `solve-gnp100k` pool once (`--pin`).
pub fn pin_gnp(checks: &mut Checks) -> Result<(), String> {
    let workload = Workload::parse(GNP_SPEC).map_err(err)?;
    let label = workload.label();
    let solver = kw_domset::default_registry()
        .build(GNP_SOLVER)
        .map_err(err)?;
    for seed in 0..GNP_POOL {
        let g = workload.try_build(seed).map_err(err)?;
        let r = solver.solve(&g, &gnp_context(seed)).map_err(err)?;
        checks.answer(&Answer {
            pinned: true,
            ..Answer::from_report(&label, seed, &g, &r)
        });
    }
    Ok(())
}
