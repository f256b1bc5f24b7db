//! Request routing and the solve path: specs in, memoized answers out.
//!
//! A [`SolveService`] owns everything a request needs — the solver
//! registry (core + baselines, the same table every sweep uses), the
//! [`ExperimentCache`] answers memoize into, an optional [`RunStore`]
//! that persists every fresh answer, and the [`Telemetry`] counters.
//! Handlers are pure `&self` functions so one service instance is shared
//! across all worker threads.
//!
//! The persistence contract mirrors `SweepSession`: on startup the store
//! replays into the cache (`warmed` answers), so a restarted daemon
//! re-serves everything it ever solved without re-solving; every cache
//! miss appends one `record` line. A failed append degrades to
//! metrics-only (the answer is still served) — a full disk must not turn
//! a compute service into an outage.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use kw_bench::workloads::Workload;
use kw_core::solver::{
    solve_cell, ExperimentCache, RunOutcome, RunRecord, SolveContext, SolveError, SolverRegistry,
};
use kw_results::json::Json;
use kw_results::store::{RunStore, StoreError, TraceRecord};
use kw_sim::ChaosPlan;
use kw_trace::TraceSummary;

use crate::http::{Request, Response};
use crate::telemetry::Telemetry;

/// Errors starting a service (never per-request; requests map to 4xx/5xx
/// responses instead).
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The run store could not be opened (including another writer
    /// holding its lock).
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O failed: {e}"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Upper bound on the per-request `"threads"` knob: one request must not
/// conscript an unbounded worker pool out of a shared daemon.
pub const MAX_THREADS: usize = 64;

/// The daemon's request handler: registry + cache + store + telemetry.
pub struct SolveService {
    registry: SolverRegistry,
    cache: Arc<ExperimentCache>,
    store: Option<Mutex<RunStore>>,
    /// `(workload label, seed) → (n, Δ)`, learned from store replay and
    /// live solves. Lets cached answers report graph shape without
    /// rebuilding (or even holding) the graph.
    shapes: Mutex<HashMap<(String, u64), (usize, usize)>>,
    warmed: usize,
    shutdown_requested: AtomicBool,
    /// Request counters and latency histogram.
    pub telemetry: Telemetry,
}

impl std::fmt::Debug for SolveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveService")
            .field("warmed", &self.warmed)
            .field("persistent", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl SolveService {
    /// Creates a service, opening (and replaying) the store at
    /// `store_path` if given. With `None` the daemon is memory-only:
    /// still cached, nothing survives a restart.
    pub fn new(store_path: Option<&Path>) -> Result<Self, ServeError> {
        let registry = kw_baselines::registry();
        let cache = ExperimentCache::new();
        let mut shapes = HashMap::new();
        let (store, warmed) = match store_path {
            Some(path) => {
                let store = RunStore::open(path)?;
                let contents = store.load()?;
                for r in &contents.records {
                    cache.insert_record(r);
                    shapes.insert((r.workload.clone(), r.seed), (r.n, r.max_degree));
                }
                // Count *distinct* warmed answers: a store written under
                // racing clients may carry duplicate lines for one cell.
                (Some(Mutex::new(store)), cache.outcome_count())
            }
            None => (None, 0),
        };
        Ok(SolveService {
            registry,
            cache,
            store,
            shapes: Mutex::new(shapes),
            warmed,
            shutdown_requested: AtomicBool::new(false),
            telemetry: Telemetry::default(),
        })
    }

    /// Answers replayed from the store at startup.
    pub fn warmed(&self) -> usize {
        self.warmed
    }

    /// The shared answer cache (hit/miss counters feed `/metrics`).
    pub fn cache(&self) -> &ExperimentCache {
        &self.cache
    }

    /// Whether `POST /shutdown` has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Routes one parsed request.
    pub fn handle(&self, req: &Request) -> Response {
        match req.path() {
            "/healthz" => match req.method.as_str() {
                "GET" | "HEAD" => Response::text(200, "ok\n"),
                _ => Response::error(405, "use GET /healthz"),
            },
            "/metrics" => match req.method.as_str() {
                "GET" => {
                    let mut resp = Response::text(
                        200,
                        self.telemetry.render_prometheus(
                            self.cache.hits(),
                            self.cache.misses(),
                            self.warmed as u64,
                        ),
                    );
                    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
                    resp
                }
                _ => Response::error(405, "use GET /metrics"),
            },
            "/solve" => match req.method.as_str() {
                "POST" => self.solve(&req.body),
                _ => Response::error(405, "use POST /solve"),
            },
            "/shutdown" => match req.method.as_str() {
                "POST" => {
                    self.shutdown_requested.store(true, Ordering::SeqCst);
                    Response::text(200, "draining\n")
                }
                _ => Response::error(405, "use POST /shutdown"),
            },
            other => Response::error(
                404,
                format!(
                    "unknown path {other:?}; endpoints: POST /solve, GET /healthz, \
                     GET /metrics, POST /shutdown"
                ),
            ),
        }
    }

    /// `POST /solve`: body `{"workload": spec, "solver": spec, "seed"?: n,
    /// "chaos"?: clause, "threads"?: k, "trace"?: bool}`. The chaos
    /// clause uses the sweep grammar (an optional `chaos:` prefix is
    /// accepted), e.g. `"drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3"`;
    /// answers are cached and persisted under the canonical spec, so a
    /// daemon and a sweep sharing a store key chaos cells identically.
    /// `"threads"` picks the engine worker count (default 1, capped at
    /// [`MAX_THREADS`]); outcomes are bit-identical across thread counts
    /// but wall times are not, so the normalized count is part of the
    /// cache and store key exactly as in sweep cells.
    fn solve(&self, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let json = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::error(400, format!("body is not JSON: {e}")),
        };
        let Some(workload_spec) = json.get("workload").and_then(Json::as_str) else {
            return Response::error(400, "missing string field \"workload\"");
        };
        let Some(solver_spec) = json.get("solver").and_then(Json::as_str) else {
            return Response::error(400, "missing string field \"solver\"");
        };
        let seed = match json.get("seed") {
            None => 0,
            Some(v) => match v.as_u64() {
                Some(s) => s,
                None => return Response::error(400, "\"seed\" must be an unsigned integer"),
            },
        };
        let faults = match json.get("chaos") {
            None => ChaosPlan::reliable(),
            Some(v) => match v.as_str() {
                Some(clause) => match ChaosPlan::parse(clause) {
                    Ok(plan) => plan,
                    Err(e) => return Response::error(400, format!("bad \"chaos\" clause: {e}")),
                },
                None => return Response::error(400, "\"chaos\" must be a string clause"),
            },
        };
        if !faults.is_reliable() {
            self.telemetry.count_chaos_request();
        }
        // Normalize before anything keys on it: absent and `1` are the
        // same sequential run and must share one cache/store cell.
        let threads = match json.get("threads") {
            None => 1,
            Some(v) => match v.as_u64() {
                Some(t @ 1..) if t <= MAX_THREADS as u64 => t as usize,
                Some(_) => {
                    return Response::error(
                        400,
                        format!("\"threads\" must be in 1..={MAX_THREADS}"),
                    )
                }
                None => return Response::error(400, "\"threads\" must be an unsigned integer"),
            },
        };
        // `"trace": true` profiles the solve with the span plane and
        // returns the rollup inline. A traced request always computes —
        // a cached outcome has no trace to attach — so it doubles as a
        // "measure this cell right now" escape hatch.
        let want_trace = match json.get("trace") {
            None => false,
            Some(v) => match v.as_bool() {
                Some(b) => b,
                None => return Response::error(400, "\"trace\" must be a boolean"),
            },
        };

        // Untrusted spec strings go through the same grammars as CLI
        // sweeps; parse failures are the client's problem, not a 500.
        let workload = match Workload::parse(workload_spec) {
            Ok(w) => w,
            Err(e) => return Response::error(400, e.to_string()),
        };
        let solver = match self.registry.build(solver_spec) {
            Ok(s) => s,
            Err(e) => return Response::error(400, e.to_string()),
        };
        let spec = solver.spec();
        let label = workload.label();
        let ctx = SolveContext {
            faults,
            trace: want_trace,
            threads,
            ..SolveContext::seeded(seed)
        };
        let chaos = ctx.faults.spec();

        let was_cached = self.cache.outcome(&spec, &label, seed, &ctx);
        if let Some(outcome) = was_cached {
            if !want_trace {
                let shape = self
                    .shapes
                    .lock()
                    // The map is written with plain inserts that cannot
                    // panic mid-update, so a poisoned lock still guards
                    // consistent data: recover instead of unwrapping.
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&(label.clone(), seed))
                    .copied();
                return self
                    .render_outcome(&spec, &label, seed, threads, shape, outcome, true, None);
            }
        }

        // Miss: materialize the graph (memoized per (label, seed)) and
        // solve. The fallible build runs *outside* the cache so a bad
        // instance path cannot poison the graph memo.
        let graph = match self.cache.cached_graph(&label, seed) {
            Some(g) => g,
            None => match workload.try_build(seed) {
                Ok(g) => self.cache.graph(&label, seed, || g),
                Err(e) => return Response::error(400, e.to_string()),
            },
        };
        let (report, outcome) = match solve_cell(&*solver, &label, &graph, &ctx) {
            Ok(solved) => solved,
            Err(e @ SolveError::Panicked { .. }) => {
                self.telemetry.count_panic();
                return Response::error(500, e.to_string());
            }
            Err(e) => return Response::error(422, e.to_string()),
        };
        if let Some(summary) = &report.trace {
            self.telemetry.observe_trace(summary);
        }
        let shape = (graph.len(), graph.max_degree());
        self.cache
            .insert_outcome(&spec, &label, seed, &chaos, threads, outcome);
        self.shapes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((label.clone(), seed), shape);
        if let Some(store) = &self.store {
            // A traced re-solve of an already-cached cell appends only
            // its trace line — duplicating the record would double-weight
            // the cell in summaries built from this store.
            if was_cached.is_none() {
                let record = RunRecord {
                    solver: spec.clone(),
                    workload: label.clone(),
                    n: shape.0,
                    max_degree: shape.1,
                    seed,
                    chaos: chaos.clone(),
                    threads,
                    outcome,
                };
                let store = store.lock().unwrap_or_else(PoisonError::into_inner);
                if store.append_record(&record).is_err() {
                    self.telemetry.count_store_error();
                }
            }
            if let Some(summary) = &report.trace {
                let trace = TraceRecord {
                    solver: spec.clone(),
                    workload: label.clone(),
                    seed,
                    chaos: chaos.clone(),
                    summary: summary.clone(),
                };
                let store = store.lock().unwrap_or_else(PoisonError::into_inner);
                if store.append_trace(&trace).is_err() {
                    self.telemetry.count_store_error();
                }
            }
        }
        self.render_outcome(
            &spec,
            &label,
            seed,
            threads,
            Some(shape),
            outcome,
            false,
            report.trace.as_ref(),
        )
    }

    /// The inline `"trace"` object of a traced solve's response: the
    /// rollup without the per-round sample series (which can run to
    /// thousands of rounds — it lives in the store's trace line, not in
    /// every HTTP response).
    fn trace_json(summary: &TraceSummary) -> Json {
        Json::obj([
            ("threads", Json::UInt(summary.threads as u64)),
            ("rounds", Json::UInt(summary.rounds)),
            ("total_us", Json::UInt(summary.total_us)),
            ("barrier_us", Json::UInt(summary.barrier_us)),
            ("imbalance", Json::num(summary.imbalance)),
            ("structure_hash", Json::UInt(summary.structure_hash)),
            (
                "phase_us",
                Json::Obj(
                    summary
                        .phase_us
                        .iter()
                        .map(|(label, us)| (label.clone(), Json::UInt(*us)))
                        .collect(),
                ),
            ),
            ("samples", Json::UInt(summary.samples.len() as u64)),
        ])
    }

    #[allow(clippy::too_many_arguments)]
    fn render_outcome(
        &self,
        solver: &str,
        workload: &str,
        seed: u64,
        threads: usize,
        shape: Option<(usize, usize)>,
        outcome: RunOutcome,
        cached: bool,
        trace: Option<&TraceSummary>,
    ) -> Response {
        let (n, max_degree) = shape.unwrap_or((0, 0));
        let mut fields = vec![
            ("solver".to_string(), Json::Str(solver.to_string())),
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("seed".to_string(), Json::UInt(seed)),
            ("threads".to_string(), Json::UInt(threads as u64)),
            ("n".to_string(), Json::UInt(n as u64)),
            ("max_degree".to_string(), Json::UInt(max_degree as u64)),
            ("cached".to_string(), Json::Bool(cached)),
            ("dominates".to_string(), Json::Bool(outcome.dominates)),
            ("size".to_string(), Json::num(outcome.size)),
            ("rounds".to_string(), Json::num(outcome.rounds)),
            ("messages".to_string(), Json::num(outcome.messages)),
            ("bits".to_string(), Json::num(outcome.bits)),
            (
                "ratio_vs_lemma1".to_string(),
                Json::num(outcome.ratio_vs_lemma1),
            ),
            ("wall_ms".to_string(), Json::num(outcome.wall_ms)),
        ];
        if let Some(summary) = trace {
            fields.push(("trace".to_string(), Self::trace_json(summary)));
        }
        Response::json(200, &Json::Obj(fields))
    }
}
