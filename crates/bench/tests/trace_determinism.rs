//! Satellite contract of the trace plane: span *structure* and round
//! samples are functions of the workload alone, never of the worker
//! count. Only tick values may differ between runs.
//!
//! Covered here at both layers:
//!
//! * engine level — a raw [`kw_sim::Engine`] run with a tracer
//!   installed, on a generated G(n, p) graph and on a bundled DIMACS
//!   instance, at 1/2/8 workers; each run's Chrome export must also
//!   parse as JSON and hold exactly one event per track and span;
//! * solver level — [`kw_core::solver::traced_solve`] over the full
//!   composite pipeline, including under a chaos plan, at 1/2/8
//!   solver threads.

mod traffic;

use kw_bench::instances;
use kw_core::solver::{SolveContext, SolverRegistry};
use kw_graph::{generators, CsrGraph};
use kw_results::json::Json;
use kw_sim::rng::split_mix64;
use kw_sim::{ChaosPlan, Ctx, Engine, EngineConfig, Protocol, Status};
use kw_trace::{RoundSample, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use traffic::Word;

/// Mixed traffic: one broadcast plus one hashed unicast per node per
/// round, so both send paths contribute to the sampled counters.
struct Mixed {
    me: u64,
    acc: u64,
    rounds_left: u32,
}

impl Protocol for Mixed {
    type Msg = Word;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Word>) -> Status {
        for (_, m) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(m.0);
        }
        if self.rounds_left == 0 {
            return Status::Halted;
        }
        self.rounds_left -= 1;
        ctx.broadcast(Word(self.acc | 1));
        let degree = ctx.degree();
        if degree > 0 {
            let port =
                (split_mix64(self.me ^ u64::from(self.rounds_left)) % u64::from(degree)) as u32;
            ctx.send(port, Word(self.me | 1));
        }
        Status::Running
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

/// Runs the engine once with a tracer installed and returns the
/// thread-invariant parts: span structure, structure hash, samples,
/// and summed outputs.
fn engine_fingerprint(
    g: &CsrGraph,
    threads: usize,
) -> (Vec<(u16, &'static str)>, u64, Vec<RoundSample>, u64) {
    let cfg = EngineConfig {
        threads,
        ..Default::default()
    };
    kw_trace::install(Tracer::new());
    kw_trace::with_active(|t| t.begin("solve"));
    let report = Engine::new(g, cfg, |info| Mixed {
        me: u64::from(info.id.raw()),
        acc: u64::from(info.id.raw()),
        rounds_left: 5,
    })
    .run(&mut ())
    .expect("reliable run");
    let mut tracer = kw_trace::take().expect("tracer installed");
    tracer.finish();
    assert_chrome_export_complete(&tracer);
    let out = report.outputs.iter().fold(0u64, |a, &x| a.wrapping_add(x));
    (
        tracer.structure(),
        tracer.structure_hash(),
        tracer.samples().to_vec(),
        out,
    )
}

/// Parses the tracer's Chrome export with a real JSON parser and checks
/// that `traceEvents` holds one `thread_name` metadata row per track,
/// one complete event per main-track span (in begin order), one per
/// worker-track span, and nothing else.
fn assert_chrome_export_complete(tracer: &Tracer) {
    let export = Json::parse(&tracer.chrome_json()).expect("Chrome export parses as JSON");
    let events = export
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_string);
    let (metadata, spans): (Vec<&Json>, Vec<&Json>) =
        events.iter().partition(|e| ph(e).as_deref() == Some("M"));
    let workers = tracer.summarize().threads;
    assert_eq!(metadata.len(), 1 + workers, "one thread_name row per track");
    let mut main = Vec::new();
    let mut worker_spans = 0;
    for e in spans {
        assert_eq!(ph(e).as_deref(), Some("X"), "only metadata and span events");
        for key in ["ts", "dur"] {
            assert!(e.get(key).and_then(Json::as_u64).is_some(), "no {key}");
        }
        match e.get("tid").and_then(Json::as_u64) {
            Some(0) => main.push(e.get("name").and_then(Json::as_str).expect("span name")),
            Some(_) => worker_spans += 1,
            None => panic!("span event without a tid"),
        }
    }
    let labels: Vec<&str> = tracer.spans().iter().map(|s| s.label).collect();
    assert_eq!(
        main, labels,
        "one main-track event per span, in begin order"
    );
    // Every parallel phase closes with one synthetic `barrier` span on
    // the main track and one chunk span on each worker track: `Mixed`
    // stages traffic in every delivered round, so no phase is skipped.
    let parallel_phases = labels.iter().filter(|&&l| l == "barrier").count();
    assert_eq!(
        worker_spans,
        parallel_phases * workers,
        "one event per worker-track span"
    );
}

fn assert_engine_invariant(g: &CsrGraph, what: &str) {
    let (structure, hash, samples, out) = engine_fingerprint(g, 1);
    assert!(!structure.is_empty(), "{what}: no spans recorded");
    assert!(!samples.is_empty(), "{what}: no round samples recorded");
    for threads in [2usize, 8] {
        let (s, h, r, o) = engine_fingerprint(g, threads);
        assert_eq!(
            structure, s,
            "{what}: span structure differs at {threads} threads"
        );
        assert_eq!(
            hash, h,
            "{what}: structure hash differs at {threads} threads"
        );
        assert_eq!(
            samples, r,
            "{what}: round samples differ at {threads} threads"
        );
        assert_eq!(out, o, "{what}: outputs differ at {threads} threads");
    }
}

#[test]
fn engine_trace_structure_is_thread_invariant_on_gnp() {
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::gnp(400, 0.03, &mut rng);
    assert_engine_invariant(&g, "gnp(400, 0.03)");
}

#[test]
fn engine_trace_structure_is_thread_invariant_on_bundled_dimacs() {
    let meta = instances::find("queen5_5").expect("bundled instance");
    let (g, _) = instances::load(meta).expect("parse bundled DIMACS");
    assert_engine_invariant(&g, "queen5_5");
}

/// Solver-level fingerprint: the serialized thread-invariant parts of
/// the [`kw_trace::TraceSummary`] a traced solve attaches.
fn solver_fingerprint(
    g: &CsrGraph,
    ctx: &SolveContext,
) -> (Vec<String>, u64, u64, Vec<RoundSample>, usize) {
    let registry = SolverRegistry::with_core_solvers();
    let solver = registry.build("kw:k=2").expect("build kw solver");
    let report = kw_core::solver::traced_solve(&*solver, g, ctx).expect("traced solve succeeds");
    let summary = report.trace.expect("trace requested");
    (
        summary.phase_us.iter().map(|(l, _)| l.clone()).collect(),
        summary.rounds,
        summary.structure_hash,
        summary.samples.clone(),
        report.dominating_set.len(),
    )
}

fn assert_solver_invariant(g: &CsrGraph, base: &SolveContext, what: &str) {
    let one = solver_fingerprint(
        g,
        &SolveContext {
            threads: 1,
            ..base.clone()
        },
    );
    assert!(one.1 > 0, "{what}: no rounds traced");
    for threads in [2usize, 8] {
        let ctx = SolveContext {
            threads,
            ..base.clone()
        };
        let other = solver_fingerprint(g, &ctx);
        assert_eq!(
            one, other,
            "{what}: trace fingerprint differs at {threads} threads"
        );
    }
}

#[test]
fn solver_trace_structure_is_thread_invariant() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = generators::gnp(300, 0.04, &mut rng);
    let ctx = SolveContext {
        seed: 9,
        trace: true,
        ..Default::default()
    };
    assert_solver_invariant(&g, &ctx, "kw:k=2 on gnp(300)");
}

#[test]
fn solver_trace_structure_is_thread_invariant_under_chaos() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = generators::gnp(300, 0.04, &mut rng);
    let ctx = SolveContext {
        seed: 9,
        trace: true,
        faults: ChaosPlan::parse("drop=0.05,seed=7").expect("valid chaos clause"),
        ..Default::default()
    };
    assert_solver_invariant(&g, &ctx, "kw:k=2 on gnp(300) under drop=0.05");
}
