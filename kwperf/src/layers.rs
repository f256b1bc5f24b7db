//! The traced pass: per-layer metrics, each measured from outside by
//! timing calls into one module's public functions on the workload's own
//! inputs. The engine is the one layer read from inside, through the
//! `kw_trace` rollup that `traced_solve` attaches to a report.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kw_bench::workloads::Workload;
use kw_domset::core::alg3::run_alg3;
use kw_domset::core::composite::run_composite;
use kw_domset::core::rounding::{run_rounding_with_delta2, RoundingConfig};
use kw_domset::core::solver::{
    traced_solve, DsSolver, ExperimentCache, RunOutcome, RunRecord, SolveContext, SolveReport,
    SolverRegistry,
};
use kw_domset::graph::CsrGraph;
use kw_domset::lp::bounds::lemma1_bound;
use kw_domset::results::store::RunStore;
use kw_domset::serve::{http_request, parse_request, Request, ServeConfig, Server, SolveService};
use kw_domset::sim::{ChaosPlan, EngineConfig};
use kw_domset::trace::{TraceSummary, PHASES};

use crate::check::{Answer, Checks};
use crate::serve::DAEMON_WORKERS;
use crate::{err, json_str, median, ms_since, Report, TempDir, CLIENT_TIMEOUT};

/// Repetitions of each stage, solve and baseline timing.
const REPS: usize = 3;
/// Repetitions of the certificate timing.
const CERT_REPS: usize = 5;
/// `k` of every `kw` and `composite` solver the workloads run.
const K: u32 = 2;
/// Cache lookups timed.
const LOOKUPS: usize = 20_000;
/// Records appended to (and replayed from) the probe store.
const STORE_RECORDS: usize = 2_000;
/// Parse, hit and render calls timed.
const HTTP_ITERS: usize = 2_000;
/// Sequential cached requests sent over loopback.
const LOOPBACK_ITERS: usize = 300;

/// One solve cell of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Solver spec.
    pub solver: String,
    /// Index into [`Probe::graphs`].
    pub graph: usize,
    /// Solve seed.
    pub seed: u64,
    /// Chaos plan of the solve.
    pub faults: ChaosPlan,
}

impl Cell {
    /// A cell on the reliable network.
    pub fn reliable(solver: &str, graph: usize, seed: u64) -> Self {
        Cell {
            solver: solver.to_string(),
            graph,
            seed,
            faults: ChaosPlan::reliable(),
        }
    }
}

/// What the serve workload measured on its live daemon; replaces the
/// probe daemon's counters.
#[derive(Clone, Copy, Debug)]
pub struct LiveServe {
    /// Cache hits over lookups on the live daemon.
    pub hit_share: f64,
    /// Shed connections over all connections on the live daemon.
    pub shed_share: f64,
    /// Requests the live daemon counted.
    pub requests: usize,
}

/// A workload's inputs, as the layer probes use them.
pub struct Probe<'a> {
    /// The workload's graphs as specs, to time their builds.
    pub builds: Vec<(Workload, u64)>,
    /// The built graphs with their labels; the single-graph probes use
    /// the first.
    pub graphs: Vec<(String, &'a CsrGraph)>,
    /// Solve seed on the first graph.
    pub seed: u64,
    /// Engine threads of the workload's solves.
    pub threads: usize,
    /// The workload's solve cells, solved traced and untraced.
    pub cells: Vec<Cell>,
    /// `POST /solve` bodies of the workload's requests.
    pub requests: Vec<String>,
    /// Live daemon counters, on the serve workload.
    pub live: Option<LiveServe>,
}

/// A `POST /solve` body.
pub fn solve_body(workload: &str, solver: &str, seed: u64, chaos: &str, threads: usize) -> String {
    let mut body = format!(
        "{{\"workload\": {}, \"solver\": {}, \"seed\": {seed}",
        json_str(workload),
        json_str(solver)
    );
    if !chaos.is_empty() {
        body.push_str(&format!(", \"chaos\": {}", json_str(chaos)));
    }
    if threads != 1 {
        body.push_str(&format!(", \"threads\": {threads}"));
    }
    body.push('}');
    body
}

/// Runs every layer probe on `p`, with `budget` for the traced/untraced
/// solve alternation.
pub fn run(
    p: &Probe,
    budget: Duration,
    checks: &mut Checks,
    out: &mut Report,
    tmp: &TempDir,
) -> Result<(), String> {
    let registry = kw_domset::default_registry();
    graph_layer(p, out)?;
    let kw = core_layer(p, &registry, checks, out)?;
    engine_layer(p, &registry, budget, checks, out)?;
    baseline_layer(p, &registry, checks, out)?;
    cache_layer(p, out);
    store_layer(p, &kw, tmp, out)?;
    http_layer(p, checks, out)
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `kw_graph` via `Workload::try_build`: build time of the workload's
/// graph set, and CSR bytes per node from the offset and target arrays.
fn graph_layer(p: &Probe, out: &mut Report) -> Result<(), String> {
    let mut build_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for (w, seed) in &p.builds {
            black_box(w.try_build(*seed).map_err(err)?);
        }
        build_ms.push(ms_since(start));
    }
    let bytes: usize = p
        .graphs
        .iter()
        .map(|(_, g)| std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.targets()))
        .sum();
    let nodes: usize = p.graphs.iter().map(|(_, g)| g.len()).sum();
    out.put("graph.build_ms", median(&build_ms), REPS);
    out.put(
        "graph.csr_bytes_per_node",
        bytes as f64 / nodes.max(1) as f64,
        1,
    );
    Ok(())
}

/// The paper's stages called directly, then the whole `kw` solve and its
/// certificate. Returns the last `kw` report.
fn core_layer(
    p: &Probe,
    registry: &SolverRegistry,
    checks: &mut Checks,
    out: &mut Report,
) -> Result<SolveReport, String> {
    let (label, g) = (&p.graphs[0].0, p.graphs[0].1);
    let engine = EngineConfig {
        seed: p.seed,
        threads: p.threads,
        ..EngineConfig::default()
    };
    let (mut fractional, mut rounding, mut composite) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        let alg3 = run_alg3(g, K, engine.clone()).map_err(err)?;
        fractional.push(ms_since(start));
        let start = Instant::now();
        let rounded = run_rounding_with_delta2(
            g,
            &alg3.x,
            &alg3.delta2,
            RoundingConfig::default(),
            engine.clone(),
        )
        .map_err(err)?;
        rounding.push(ms_since(start));
        let start = Instant::now();
        let fused = run_composite(g, K, RoundingConfig::default(), engine.clone()).map_err(err)?;
        composite.push(ms_since(start));
        let sound =
            alg3.x.is_feasible(g) && rounded.set.is_dominating(g) && fused.set.is_dominating(g);
        checks.op(if sound {
            Ok(())
        } else {
            Err(format!(
                "stage outputs on {label} are infeasible or do not dominate"
            ))
        });
    }
    out.put("core.fractional_ms", median(&fractional), REPS);
    out.put("core.rounding_ms", median(&rounding), REPS);
    out.put("core.composite_ms", median(&composite), REPS);

    let solver = registry.build(&format!("kw:k={K}")).map_err(err)?;
    let ctx = SolveContext {
        threads: p.threads,
        ..SolveContext::seeded(p.seed)
    };
    let mut solve_ms = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let report = solver.solve(g, &ctx).map_err(err)?;
        solve_ms.push(ms_since(start));
        checks.answer(&Answer::from_report(label, p.seed, g, &report));
        last = Some(report);
    }
    let kw = last.expect("REPS > 0");
    let n = g.len().max(1) as f64;
    out.put("core.rounds", kw.rounds() as f64, 1);
    out.put("core.msgs_per_node", kw.messages() as f64 / n, 1);
    out.put("core.bits_per_node", kw.metrics.bits as f64 / n, 1);

    let mut cert_ms = Vec::with_capacity(CERT_REPS);
    for _ in 0..CERT_REPS {
        let start = Instant::now();
        let bound = lemma1_bound(g);
        let dominates = kw.dominating_set.is_dominating(g);
        let feasible = kw.fractional.as_ref().map(|x| x.is_feasible(g));
        cert_ms.push(ms_since(start));
        black_box((bound, dominates, feasible));
    }
    out.put("cert.ms", median(&cert_ms), CERT_REPS);
    out.put(
        "cert.share_of_solve",
        median(&cert_ms) / median(&solve_ms),
        CERT_REPS,
    );
    Ok(kw)
}

/// The engine's own rollup: the workload's cells solved untraced and
/// traced in alternating order until `budget` is spent (every cell at
/// least once). Tracing must not change any answer.
fn engine_layer(
    p: &Probe,
    registry: &SolverRegistry,
    budget: Duration,
    checks: &mut Checks,
    out: &mut Report,
) -> Result<(), String> {
    let solvers = p
        .cells
        .iter()
        .map(|c| registry.build(&c.solver).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let mut overhead = Vec::new();
    let mut traces: Vec<(TraceSummary, usize)> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < p.cells.len() || start.elapsed() < budget {
        let cell = &p.cells[i % p.cells.len()];
        let solver: &dyn DsSolver = &*solvers[i % p.cells.len()];
        let (label, g) = (&p.graphs[cell.graph].0, p.graphs[cell.graph].1);
        let plain = SolveContext {
            threads: p.threads,
            faults: cell.faults.clone(),
            ..SolveContext::seeded(cell.seed)
        };
        let traced = SolveContext {
            trace: true,
            ..plain.clone()
        };
        let timed = |ctx: &SolveContext| -> Result<(SolveReport, f64), String> {
            let start = Instant::now();
            let report = traced_solve(solver, g, ctx).map_err(err)?;
            Ok((report, ms_since(start)))
        };
        let ((a, a_ms), (b, b_ms)) = if i % 2 == 0 {
            let a = timed(&plain)?;
            (a, timed(&traced)?)
        } else {
            let b = timed(&traced)?;
            (timed(&plain)?, b)
        };
        checks.op(
            if a.dominating_set == b.dominating_set && a.metrics == b.metrics {
                Ok(())
            } else {
                Err(format!(
                    "{} on {label}: tracing changed the answer",
                    cell.solver
                ))
            },
        );
        overhead.push(b_ms / a_ms - 1.0);
        traces.extend(b.trace.map(|t| (t, g.len())));
        i += 1;
    }

    let engine: Vec<&(TraceSummary, usize)> = traces.iter().filter(|(t, _)| t.rounds > 0).collect();
    if engine.is_empty() {
        return Err("no traced solve ran an engine round".into());
    }
    let total = |label: &str| {
        engine
            .iter()
            .map(|(t, _)| t.phase_total(label))
            .sum::<u64>() as f64
    };
    let phases: f64 = PHASES.iter().map(|l| total(l)).sum();
    let rounds = engine.iter().map(|(t, _)| t.rounds).sum::<u64>() as f64;
    let solves = engine.len();
    out.put(
        "sim.ms_per_round",
        total("round") / 1e3 / rounds,
        rounds as usize,
    );
    for (metric, phase) in [
        ("sim.deliver_share", "deliver"),
        ("sim.compute_share", "compute"),
        ("sim.plan_share", "plan"),
        ("sim.send_share", "send"),
        ("sim.barrier_share", "barrier"),
    ] {
        out.put(metric, total(phase) / phases, solves);
    }
    let imbalance = engine.iter().map(|(t, _)| t.imbalance).sum::<f64>() / solves as f64;
    out.put("sim.imbalance", imbalance, solves);
    let idle = engine.iter().map(|(t, _)| t.pool_idle).sum::<u64>() as f64;
    out.put("sim.pool_idle", idle / rounds, rounds as usize);
    let arena = engine
        .iter()
        .map(|(t, n)| {
            let peak = t.samples.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
            peak as f64 / (*n).max(1) as f64
        })
        .fold(0.0, f64::max);
    out.put("sim.arena_bytes_per_node", arena, solves);
    // Stage spans bracket each stage call; what they hold beyond their
    // round spans is engine construction, pool spawn and output collection.
    let outside: Vec<f64> = engine
        .iter()
        .filter_map(|(t, _)| {
            let stages: u64 = t
                .phase_us
                .iter()
                .filter(|(label, _)| label.starts_with("stage:"))
                .map(|(_, us)| us)
                .sum();
            (stages > 0).then(|| (stages as f64 - t.phase_total("round") as f64) / 1e3)
        })
        .collect();
    out.put("sim.outside_rounds_ms", median(&outside), outside.len());
    out.put("trace.overhead_share", median(&overhead), overhead.len());
    Ok(())
}

/// `kw_baselines` through `DsSolver::solve` on the first graph.
fn baseline_layer(
    p: &Probe,
    registry: &SolverRegistry,
    checks: &mut Checks,
    out: &mut Report,
) -> Result<(), String> {
    let (label, g) = (&p.graphs[0].0, p.graphs[0].1);
    let ctx = SolveContext {
        threads: p.threads,
        ..SolveContext::seeded(p.seed)
    };
    for (metric, spec) in [
        ("cell_ms.greedy", "greedy"),
        ("cell_ms.jrs", "jrs"),
        ("cell_ms.luby-mis", "luby-mis"),
    ] {
        let solver = registry.build(spec).map_err(err)?;
        let mut ms = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let start = Instant::now();
            let report = solver.solve(g, &ctx).map_err(err)?;
            ms.push(ms_since(start));
            checks.answer(&Answer::from_report(label, p.seed, g, &report));
        }
        out.put(metric, median(&ms), REPS);
    }
    Ok(())
}

/// `ExperimentCache::outcome` over the workload's cell keys.
fn cache_layer(p: &Probe, out: &mut Report) {
    let cache = ExperimentCache::new();
    let keys: Vec<(&str, &str, u64, SolveContext)> = p
        .cells
        .iter()
        .map(|c| {
            let ctx = SolveContext {
                threads: p.threads,
                faults: c.faults.clone(),
                ..SolveContext::seeded(c.seed)
            };
            (c.solver.as_str(), p.graphs[c.graph].0.as_str(), c.seed, ctx)
        })
        .collect();
    let outcome = RunOutcome {
        dominates: true,
        size: 1.0,
        rounds: 1.0,
        messages: 1.0,
        bits: 1.0,
        ratio_vs_lemma1: 1.0,
        wall_ms: 1.0,
    };
    for (solver, label, seed, ctx) in &keys {
        cache.insert_outcome(
            solver,
            label,
            *seed,
            &ctx.faults.spec(),
            ctx.threads,
            outcome,
        );
    }
    let mut us = Vec::with_capacity(LOOKUPS);
    for i in 0..LOOKUPS {
        let (solver, label, seed, ctx) = &keys[i % keys.len()];
        let start = Instant::now();
        black_box(cache.outcome(solver, label, *seed, ctx));
        us.push(us_since(start));
    }
    out.put("cache.lookup_us", median(&us), LOOKUPS);
}

/// `RunStore::append_record`, then the warm start of a daemon over the
/// same store (`SolveService::new`, which opens, loads and replays it).
fn store_layer(p: &Probe, kw: &SolveReport, tmp: &TempDir, out: &mut Report) -> Result<(), String> {
    let path = tmp.file("layer-store.jsonl");
    let (label, g) = (&p.graphs[0].0, p.graphs[0].1);
    let cert = kw
        .certificate
        .as_ref()
        .ok_or("kw report without certificate")?;
    let store = RunStore::open(&path).map_err(err)?;
    let mut append_us = Vec::with_capacity(STORE_RECORDS);
    for i in 0..STORE_RECORDS {
        let cell = &p.cells[i % p.cells.len()];
        let record = RunRecord {
            solver: cell.solver.clone(),
            workload: label.clone(),
            n: g.len(),
            max_degree: g.max_degree(),
            seed: 1_000_000 + i as u64,
            chaos: cell.faults.spec(),
            threads: p.threads,
            outcome: RunOutcome {
                dominates: cert.dominates,
                size: kw.size() as f64,
                rounds: kw.rounds() as f64,
                messages: kw.messages() as f64,
                bits: kw.metrics.bits as f64,
                ratio_vs_lemma1: cert.ratio_vs_lemma1,
                wall_ms: 1.0 + i as f64 / 7.0,
            },
        };
        let start = Instant::now();
        store.append_record(&record).map_err(err)?;
        append_us.push(us_since(start));
    }
    drop(store);
    let bytes = std::fs::metadata(&path).map_err(err)?.len();
    let start = Instant::now();
    let service = SolveService::new(Some(&path)).map_err(err)?;
    let replay_us = us_since(start);
    if service.warmed() != STORE_RECORDS {
        return Err(format!(
            "store replay warmed {} answers, expected {STORE_RECORDS}",
            service.warmed()
        ));
    }
    out.put("store.append_us", median(&append_us), STORE_RECORDS);
    out.put(
        "store.replay_us_per_record",
        replay_us / STORE_RECORDS as f64,
        STORE_RECORDS,
    );
    out.put(
        "store.bytes_per_record",
        bytes as f64 / STORE_RECORDS as f64,
        STORE_RECORDS,
    );
    Ok(())
}

fn post_solve(body: &str) -> Vec<u8> {
    format!(
        "POST /solve HTTP/1.1\r\nHost: kwperf\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The value of one unlabelled Prometheus sample.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `kw_serve`: the parser, the service's hit and miss paths, response
/// rendering, and a probe daemon over loopback with a `/metrics` scrape.
fn http_layer(p: &Probe, checks: &mut Checks, out: &mut Report) -> Result<(), String> {
    let raw: Vec<Vec<u8>> = p.requests.iter().map(|b| post_solve(b)).collect();
    let mut parse_us = Vec::with_capacity(HTTP_ITERS);
    for i in 0..HTTP_ITERS {
        let start = Instant::now();
        black_box(parse_request(&raw[i % raw.len()]).ok());
        parse_us.push(us_since(start));
    }
    let requests = raw
        .iter()
        .map(|r| match parse_request(r) {
            Ok(Some((req, _))) => Ok(req),
            _ => Err("probe request does not parse".to_string()),
        })
        .collect::<Result<Vec<Request>, _>>()?;

    let service = SolveService::new(None).map_err(err)?;
    let mut miss_ms = Vec::with_capacity(requests.len());
    for req in &requests {
        let start = Instant::now();
        let resp = service.handle(req);
        miss_ms.push(ms_since(start));
        checks.op(status_ok(resp.status));
    }
    let mut hit_us = Vec::with_capacity(HTTP_ITERS);
    for i in 0..HTTP_ITERS {
        let start = Instant::now();
        let resp = service.handle(&requests[i % requests.len()]);
        hit_us.push(us_since(start));
        black_box(&resp);
    }
    let hit = service.handle(&requests[0]);
    checks.op(status_ok(hit.status));
    let mut render_us = Vec::with_capacity(HTTP_ITERS);
    for _ in 0..HTTP_ITERS {
        let start = Instant::now();
        black_box(hit.render());
        render_us.push(us_since(start));
    }
    let (hits, misses) = (
        service.cache().hits() as f64,
        service.cache().misses() as f64,
    );
    let service_hit_us = median(&hit_us);

    let server = Server::start(ServeConfig {
        workers: DAEMON_WORKERS,
        ..ServeConfig::default()
    })
    .map_err(err)?;
    let addr = server.addr();
    for body in &p.requests {
        let resp = http_request(addr, "POST", "/solve", body.as_bytes(), CLIENT_TIMEOUT);
        checks.op(resp.map_err(err).and_then(|r| status_ok(r.status)));
    }
    let mut loopback_us = Vec::with_capacity(LOOPBACK_ITERS);
    for i in 0..LOOPBACK_ITERS {
        let body = &p.requests[i % p.requests.len()];
        let start = Instant::now();
        let resp = http_request(addr, "POST", "/solve", body.as_bytes(), CLIENT_TIMEOUT);
        loopback_us.push(us_since(start));
        checks.op(resp.map_err(err).and_then(|r| status_ok(r.status)));
    }
    let scrape = http_request(addr, "GET", "/metrics", b"", CLIENT_TIMEOUT).map_err(err)?;
    server.shutdown();
    let daemon = live_counters(&String::from_utf8_lossy(&scrape.body));
    // Off the serve workload, the cache share is the in-process service's
    // and the shed share the probe daemon's.
    let live = p.live.unwrap_or(LiveServe {
        hit_share: hits / (hits + misses).max(1.0),
        requests: (hits + misses) as usize,
        ..daemon
    });

    out.put("http.parse_us", median(&parse_us), HTTP_ITERS);
    out.put("http.render_us", median(&render_us), HTTP_ITERS);
    out.put("service.hit_us", service_hit_us, HTTP_ITERS);
    out.put("service.miss_ms", median(&miss_ms), miss_ms.len());
    out.put(
        "server.loopback_overhead_us",
        median(&loopback_us) - service_hit_us,
        LOOPBACK_ITERS,
    );
    out.put("cache.hit_share", live.hit_share, live.requests);
    out.put("server.shed_share", live.shed_share, live.requests);
    Ok(())
}

fn status_ok(status: u16) -> Result<(), String> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("probe request answered {status}"))
    }
}

/// Cache hit share and shed share from a daemon's `/metrics` text.
pub fn live_counters(metrics: &str) -> LiveServe {
    let hits = prom_value(metrics, "kw_serve_cache_hits_total");
    let misses = prom_value(metrics, "kw_serve_cache_misses_total");
    let shed = prom_value(metrics, "kw_serve_shed_total");
    let served = prom_value(metrics, "kw_serve_requests_total");
    LiveServe {
        hit_share: hits / (hits + misses).max(1.0),
        shed_share: shed / (served + shed).max(1.0),
        requests: (served + shed) as usize,
    }
}
