//! Batched experiment execution over a solver × workload × seed matrix,
//! with an optional `(workload, seed)`-keyed cell cache and a streaming
//! mode that reports progress cell-by-cell over a bounded channel.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kw_graph::CsrGraph;

use crate::solver::events::{RunEvent, RunRecord};
use crate::solver::{traced_solve, DsSolver, SolveContext, SolveError, SolveReport};

/// The numbers one `(solver, workload, seed)` run produced — everything
/// the runner (and the `kw_results` run store) needs to report a run
/// without re-solving it.
///
/// `wall_ms` is measurement metadata, not part of the deterministic
/// outcome: a cache hit or store replay reports the *original* solve's
/// wall time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOutcome {
    /// Whether the output set dominated the graph (can be false only
    /// under message loss).
    pub dominates: bool,
    /// Dominating-set size.
    pub size: f64,
    /// Synchronous rounds.
    pub rounds: f64,
    /// Total messages.
    pub messages: f64,
    /// Total payload bits.
    pub bits: f64,
    /// Set size over the Lemma-1 lower bound.
    pub ratio_vs_lemma1: f64,
    /// Wall-clock solve time in milliseconds (of the original solve).
    pub wall_ms: f64,
}

/// Cache key of one run outcome: `(solver spec, workload label, seed,
/// canonical chaos spec, engine threads)`. Deterministic outcomes are
/// thread-invariant, but `wall_ms` is a measurement of one thread count —
/// keying by threads keeps a 4T sweep from reporting 1T wall times (and
/// vice versa).
type OutcomeKey = (String, String, u64, String, usize);

/// Memoization shared across [`ExperimentRunner`] sweeps (ROADMAP item
/// (b)): generated workload graphs keyed by `(workload, seed)`, and run
/// outcomes keyed by `(solver spec, workload, seed)`.
///
/// Experiment binaries routinely sweep overlapping matrices (the same
/// workloads against growing solver lists, or the same cells with more
/// seeds); attaching one cache makes every repeated cell free. Workloads
/// are keyed by *label*, so two different graphs must not share a
/// workload label within one cache — [`ExperimentRunner`] enforces this
/// per matrix ([`SolveError::DuplicateWorkload`]), and sweeps sharing a
/// cache across matrices must keep labels unique themselves (the
/// `kw_results` sweep session additionally shape-checks labels against
/// its store). Outcomes are additionally keyed by the context's fault
/// plan (the only context knob besides the seed that changes results)
/// and its engine thread count (which changes only `wall_ms`, but that
/// is exactly what scaling comparisons read), so runners with different
/// loss models or thread counts can share one cache safely.
///
/// Cloning the handle is cheap and shares the underlying cache; it is
/// thread-safe and deterministic (a hit returns exactly what the original
/// run produced).
///
/// # Example
///
/// ```
/// use kw_core::solver::{ExperimentCache, ExperimentRunner, SolverRegistry};
/// use kw_graph::generators;
///
/// let registry = SolverRegistry::with_core_solvers();
/// let solvers = registry.build_all(["kw:k=2"])?;
/// let cache = ExperimentCache::new();
/// let runner = ExperimentRunner::new().cache(cache.clone());
/// let workloads = vec![("grid4".to_string(), generators::grid(4, 4))];
/// let first = runner.run_matrix(&solvers, &workloads, 0..3)?;
/// let again = runner.run_matrix(&solvers, &workloads, 0..3)?;
/// assert_eq!(first, again); // a hit replays the original record
/// assert_eq!(cache.hits(), 3); // the second sweep re-solved nothing
/// # Ok::<(), kw_core::solver::SolveError>(())
/// ```
#[derive(Debug, Default)]
pub struct ExperimentCache {
    graphs: Mutex<HashMap<(String, u64), Arc<CsrGraph>>>,
    /// Keyed by `(solver spec, workload, seed, canonical chaos spec,
    /// engine threads)` — the chaos plan is the one piece of
    /// [`SolveContext`] besides the seed that changes results, and the
    /// thread count is the one knob that changes the `wall_ms`
    /// measurement, so runners with different loss/chaos models or
    /// thread counts can safely share one cache.
    outcomes: Mutex<HashMap<OutcomeKey, RunOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ExperimentCache {
    /// Creates an empty shared cache.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Returns the graph for `(workload, seed)`, generating it with
    /// `build` on first use and reusing the stored copy afterwards.
    pub fn graph(
        &self,
        workload: &str,
        seed: u64,
        build: impl FnOnce() -> CsrGraph,
    ) -> Arc<CsrGraph> {
        let mut graphs = self.graphs.lock().unwrap();
        graphs
            .entry((workload.to_string(), seed))
            .or_insert_with(|| Arc::new(build()))
            .clone()
    }

    /// Number of run outcomes served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of run outcomes that had to be solved and were then stored.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Seeds the cache with an already-known outcome, keyed exactly like
    /// a live run under the chaos plan whose canonical spec is `chaos`
    /// (`""` = reliable).
    ///
    /// Replayed entries count as neither hits nor misses until a sweep
    /// looks them up. Non-canonical specs (e.g. a raw `"chaos:..."`
    /// clause) should be normalized via [`kw_sim::ChaosPlan::parse`]
    /// before insertion, or the live sweep will miss them.
    pub fn insert_outcome(
        &self,
        solver: &str,
        workload: &str,
        seed: u64,
        chaos: &str,
        threads: usize,
        outcome: RunOutcome,
    ) {
        let key = (
            solver.to_string(),
            workload.to_string(),
            seed,
            chaos.to_string(),
            threads,
        );
        self.outcomes.lock().unwrap().insert(key, outcome);
    }

    /// Replays one persisted record into the cache, keyed exactly like
    /// the live cell that produced it. This is the resume hook of the
    /// `kw_results` sweep session and of `kw-serve`: replaying a run
    /// store makes a re-launched sweep solve only missing cells and a
    /// restarted daemon serve every stored answer warm.
    pub fn insert_record(&self, r: &RunRecord) {
        self.insert_outcome(
            &r.solver,
            &r.workload,
            r.seed,
            &r.chaos,
            r.threads,
            r.outcome,
        );
    }

    /// Looks up the outcome of one `(solver, workload, seed)` cell under
    /// `ctx`'s chaos plan (its canonical spec) and thread count, counting
    /// a hit or a miss. Sweep cells and single serving requests both
    /// look up through here and solve only on `None`.
    pub fn outcome(
        &self,
        solver: &str,
        workload: &str,
        seed: u64,
        ctx: &SolveContext,
    ) -> Option<RunOutcome> {
        let key = (
            solver.to_string(),
            workload.to_string(),
            seed,
            ctx.faults.spec(),
            ctx.threads,
        );
        let found = self.outcomes.lock().unwrap().get(&key).copied();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Number of memoized outcomes — e.g. how many answers a restarted
    /// daemon warmed from its run store before serving traffic.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.lock().unwrap().len()
    }

    /// Returns the already-memoized graph for `(workload, seed)` without
    /// building anything. Lets callers with *fallible* graph builders
    /// (e.g. a workload naming an instance file) run the build outside
    /// the cache lock — a panicking builder inside [`Self::graph`] would
    /// poison the graph memo for every later caller.
    pub fn cached_graph(&self, workload: &str, seed: u64) -> Option<Arc<CsrGraph>> {
        self.graphs
            .lock()
            .unwrap()
            .get(&(workload.to_string(), seed))
            .cloned()
    }
}

/// The human-readable identity of one cell, prefixed onto failure
/// messages so a panic deep in a parallel sweep names the exact run to
/// replay (chaos only when active).
fn cell_id(solver: &str, label: &str, seed: u64, chaos: &str) -> String {
    if chaos.is_empty() {
        format!("{solver} on {label} (seed {seed})")
    } else {
        format!("{solver} on {label} (seed {seed}, chaos {chaos})")
    }
}

/// Solves one cell — `solver` on the workload labelled `label` under
/// `ctx` — the way every sweep cell and every `kw-serve` cache miss
/// does: certificates forced on (they carry the outcome's `dominates`
/// and ratio, and keep answers interchangeable between sweeps and the
/// daemon), a panicking solver caught, and the [`RunOutcome`] read off
/// the certificate with the solve's wall time.
///
/// # Errors
///
/// The solver's own [`SolveError`]. A panic, or a report without a
/// certificate, becomes [`SolveError::Panicked`] whose reason starts
/// with the cell id, `"{solver} on {label} (seed {seed})"` (plus
/// `", chaos {spec}"` inside the parentheses under a chaos plan).
pub fn solve_cell(
    solver: &dyn DsSolver,
    label: &str,
    graph: &CsrGraph,
    ctx: &SolveContext,
) -> Result<(SolveReport, RunOutcome), SolveError> {
    let ctx = SolveContext {
        check_certificates: true,
        ..ctx.clone()
    };
    let panicked = |reason: String| SolveError::Panicked {
        reason: format!(
            "{}: {reason}",
            cell_id(&solver.spec(), label, ctx.seed, &ctx.faults.spec())
        ),
    };
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| traced_solve(solver, graph, &ctx)))
        .map_err(|panic| panicked(panic_message(panic)))??;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let Some(cert) = report.certificate.as_ref() else {
        return Err(panicked("solver returned no certificate".to_string()));
    };
    let outcome = RunOutcome {
        dominates: cert.dominates,
        size: report.size() as f64,
        rounds: report.rounds() as f64,
        messages: report.messages() as f64,
        bits: report.metrics.bits as f64,
        ratio_vs_lemma1: cert.ratio_vs_lemma1,
        wall_ms,
    };
    Ok((report, outcome))
}

/// Runs solver × workload × seed matrices, optionally spreading cells
/// over worker threads.
///
/// Results are deterministic and thread-count-independent: each cell's
/// seeds run in order, and records are returned solver-major, then by
/// workload, then by seed (`solvers[0]` over all workloads first)
/// regardless of scheduling.
///
/// # Example
///
/// ```
/// use kw_core::solver::{ExperimentRunner, SolveContext, SolverRegistry};
/// use kw_graph::generators;
///
/// let registry = SolverRegistry::with_core_solvers();
/// let solvers = registry.build_all(["kw:k=2", "alg2:k=2"])?;
/// let workloads = vec![("grid5".to_string(), generators::grid(5, 5))];
/// let records = ExperimentRunner::new()
///     .run_matrix(&solvers, &workloads, 0..4)?;
/// assert_eq!(records.len(), 2 * 4);
/// assert_eq!(records[0].solver, "kw:k=2");
/// assert!(records.iter().all(|r| r.outcome.dominates));
/// # Ok::<(), kw_core::solver::SolveError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExperimentRunner {
    base: SolveContext,
    workers: usize,
    cache: Option<Arc<ExperimentCache>>,
}

impl ExperimentRunner {
    /// A sequential runner with the default context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the base context (per-run seeds override its `seed`).
    pub fn context(mut self, ctx: SolveContext) -> Self {
        self.base = ctx;
        self
    }

    /// Sets the number of worker threads over cells (`<= 1` sequential,
    /// `0` = all available cores). Does not affect results.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a shared [`ExperimentCache`]: `(solver, workload, seed)`
    /// runs already in the cache are served from it instead of re-solved.
    /// Does not affect results.
    pub fn cache(mut self, cache: Arc<ExperimentCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The base context cells run under (per-run seeds override its
    /// `seed`). Run stores persist its chaos plan in sweep manifests.
    pub fn base_context(&self) -> SolveContext {
        self.base.clone()
    }

    /// Runs every solver on every workload for every seed, returning one
    /// [`RunRecord`] per run: solver-major, then by workload, then by
    /// seed.
    ///
    /// # Errors
    ///
    /// The first [`SolveError`] aborts the sweep. Outputs that fail to
    /// dominate are *not* errors; their records carry
    /// `outcome.dominates == false`.
    pub fn run_matrix<S: DsSolver>(
        &self,
        solvers: &[S],
        workloads: &[(String, CsrGraph)],
        seeds: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<RunRecord>, SolveError> {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        self.run_matrix_inner(solvers, workloads, &seeds, None, &SweepCounters::default())
    }

    /// Like [`run_matrix`](Self::run_matrix), but reports progress while
    /// the matrix executes: every `(solver, workload, seed)` cell emits a
    /// [`RunEvent::CellStarted`] and exactly one terminal event
    /// (`CellFinished` for fresh solves, `CellCached` for cache hits,
    /// `CellFailed` for errors or panicking workers), bracketed by one
    /// `SweepStarted`/`SweepFinished` pair. See [`events`](super::events)
    /// for the ordering guarantees.
    ///
    /// `events` should come from a **bounded** channel
    /// ([`std::sync::mpsc::sync_channel`]); a full channel backpressures
    /// the workers, so drain it from another thread (the `kw_results`
    /// crate's `stream_sweep`/`SweepSession` helpers do this). A closed
    /// channel never fails the sweep — events are simply discarded.
    ///
    /// A worker that panics mid-solve surfaces as a `CellFailed` event
    /// and a [`SolveError::Panicked`] result rather than a hang or an
    /// unwinding scope.
    pub fn run_matrix_streaming<S: DsSolver>(
        &self,
        solvers: &[S],
        workloads: &[(String, CsrGraph)],
        seeds: impl IntoIterator<Item = u64>,
        events: SyncSender<RunEvent>,
    ) -> Result<Vec<RunRecord>, SolveError> {
        let seeds: Vec<u64> = seeds.into_iter().collect();
        let _ = events.send(RunEvent::SweepStarted {
            solvers: solvers.len(),
            workloads: workloads.len(),
            seeds: seeds.len(),
            runs: solvers.len() * workloads.len() * seeds.len(),
        });
        let counters = SweepCounters::default();
        let result = self.run_matrix_inner(solvers, workloads, &seeds, Some(&events), &counters);
        let _ = events.send(RunEvent::SweepFinished {
            solved: counters.solved.load(Ordering::Relaxed),
            cached: counters.cached.load(Ordering::Relaxed),
            failed: counters.failed.load(Ordering::Relaxed),
        });
        result
    }

    fn run_matrix_inner<S: DsSolver>(
        &self,
        solvers: &[S],
        workloads: &[(String, CsrGraph)],
        seeds: &[u64],
        events: Option<&SyncSender<RunEvent>>,
        counters: &SweepCounters,
    ) -> Result<Vec<RunRecord>, SolveError> {
        // Labels key the cell cache and the run store; a duplicate label
        // would silently serve one workload the other's cached results,
        // so the matrix fails fast before any cell runs.
        let mut labels = HashSet::with_capacity(workloads.len());
        for (label, _) in workloads {
            if !labels.insert(label.as_str()) {
                return Err(SolveError::DuplicateWorkload {
                    label: label.clone(),
                });
            }
        }
        let cells: Vec<(usize, usize)> = (0..solvers.len())
            .flat_map(|s| (0..workloads.len()).map(move |w| (s, w)))
            .collect();
        let results = Mutex::new(vec![None; cells.len()]);
        let first_error = Mutex::new(None::<SolveError>);
        let next = AtomicUsize::new(0);
        let workers = match self.workers {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            w => w,
        }
        .min(cells.len().max(1));
        let work = |worker: usize, events: Option<SyncSender<RunEvent>>| {
            let mut emitter = events.map(|tx| Emitter { tx, worker, seq: 0 });
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() || first_error.lock().unwrap().is_some() {
                    break;
                }
                let (s, w) = cells[i];
                let (label, graph) = &workloads[w];
                match self.run_cell(&solvers[s], label, graph, seeds, emitter.as_mut(), counters) {
                    Ok(records) => results.lock().unwrap()[i] = Some(records),
                    Err(e) => {
                        first_error.lock().unwrap().get_or_insert(e);
                        break;
                    }
                }
            }
        };
        if workers <= 1 {
            work(0, events.cloned());
        } else {
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let tx = events.cloned();
                    scope.spawn(move || work(worker, tx));
                }
            });
        }
        if let Some(e) = first_error.into_inner().unwrap() {
            return Err(e);
        }
        Ok(results
            .into_inner()
            .unwrap()
            .into_iter()
            .flat_map(|c| c.expect("all cells completed"))
            .collect())
    }

    fn run_cell<S: DsSolver>(
        &self,
        solver: &S,
        label: &str,
        graph: &CsrGraph,
        seeds: &[u64],
        mut emitter: Option<&mut Emitter>,
        counters: &SweepCounters,
    ) -> Result<Vec<RunRecord>, SolveError> {
        let ctx = &self.base;
        let chaos = ctx.faults.spec();
        let spec = solver.spec();
        let max_degree = graph.max_degree();
        let mut records = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            if let Some(e) = emitter.as_deref_mut() {
                e.emit(|worker, seq| RunEvent::CellStarted {
                    worker,
                    seq,
                    solver: spec.clone(),
                    workload: label.to_string(),
                    seed,
                });
            }
            let cached = self
                .cache
                .as_deref()
                .and_then(|c| c.outcome(&spec, label, seed, ctx));
            let was_cached = cached.is_some();
            let outcome = match cached {
                Some(outcome) => {
                    counters.cached.fetch_add(1, Ordering::Relaxed);
                    outcome
                }
                None => match solve_cell(solver, label, graph, &ctx.with_seed(seed)) {
                    Ok((_, outcome)) => {
                        if let Some(cache) = self.cache.as_deref() {
                            cache.insert_outcome(&spec, label, seed, &chaos, ctx.threads, outcome);
                        }
                        counters.solved.fetch_add(1, Ordering::Relaxed);
                        outcome
                    }
                    Err(e) => {
                        counters.failed.fetch_add(1, Ordering::Relaxed);
                        if let Some(em) = emitter.as_deref_mut() {
                            let error = match &e {
                                SolveError::Panicked { reason } => {
                                    format!("worker panicked: {reason}")
                                }
                                e => format!("{}: {e}", cell_id(&spec, label, seed, &chaos)),
                            };
                            em.emit(|worker, seq| RunEvent::CellFailed {
                                worker,
                                seq,
                                solver: spec.clone(),
                                workload: label.to_string(),
                                seed,
                                error,
                            });
                        }
                        return Err(e);
                    }
                },
            };
            let record = RunRecord {
                solver: spec.clone(),
                workload: label.to_string(),
                n: graph.len(),
                max_degree,
                seed,
                chaos: chaos.clone(),
                threads: ctx.threads,
                outcome,
            };
            if let Some(e) = emitter.as_deref_mut() {
                let record = record.clone();
                e.emit(|worker, seq| {
                    if was_cached {
                        RunEvent::CellCached {
                            worker,
                            seq,
                            record,
                        }
                    } else {
                        RunEvent::CellFinished {
                            worker,
                            seq,
                            record,
                        }
                    }
                });
            }
            records.push(record);
        }
        Ok(records)
    }
}

/// Per-sweep tallies backing [`RunEvent::SweepFinished`].
#[derive(Debug, Default)]
struct SweepCounters {
    solved: AtomicU64,
    cached: AtomicU64,
    failed: AtomicU64,
}

/// One worker's event-sending state: the per-worker sequence number that
/// makes its event stream monotonic.
struct Emitter {
    tx: SyncSender<RunEvent>,
    worker: usize,
    seq: u64,
}

impl Emitter {
    fn emit(&mut self, make: impl FnOnce(usize, u64) -> RunEvent) {
        let ev = make(self.worker, self.seq);
        self.seq += 1;
        // A closed channel means the consumer is gone; the sweep's own
        // result still reaches the caller, so events are best-effort.
        let _ = self.tx.send(ev);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverRegistry;
    use kw_graph::generators;
    use kw_sim::ChaosPlan;

    fn workloads() -> Vec<(String, CsrGraph)> {
        vec![
            ("grid4".to_string(), generators::grid(4, 4)),
            ("petersen".to_string(), generators::petersen()),
        ]
    }

    /// A record with its wall time zeroed: everything about a run that
    /// is deterministic.
    fn answer(r: &RunRecord) -> RunRecord {
        let mut r = r.clone();
        r.outcome.wall_ms = 0.0;
        r
    }

    fn answers(records: &[RunRecord]) -> Vec<RunRecord> {
        records.iter().map(answer).collect()
    }

    #[test]
    fn matrix_covers_all_cells_in_solver_major_order() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2", "composite:k=2"]).unwrap();
        let records = ExperimentRunner::new()
            .run_matrix(&solvers, &workloads(), 0..3)
            .unwrap();
        let mut expected = Vec::new();
        for solver in ["kw:k=2", "composite:k=2"] {
            for workload in ["grid4", "petersen"] {
                for seed in 0..3 {
                    expected.push((solver, workload, seed));
                }
            }
        }
        assert_eq!(
            records
                .iter()
                .map(|r| (r.solver.as_str(), r.workload.as_str(), r.seed))
                .collect::<Vec<_>>(),
            expected
        );
        for cell in records.chunks(3) {
            for r in cell {
                assert!(r.outcome.dominates);
                assert!(r.outcome.size >= 1.0);
                assert!(r.outcome.ratio_vs_lemma1 >= 1.0 - 1e-9);
                // Constant-round algorithms: identical rounds across seeds.
                assert_eq!(r.outcome.rounds, cell[0].outcome.rounds);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry
            .build_all(["kw:k=2", "alg2:k=2", "composite:k=3"])
            .unwrap();
        let seq = ExperimentRunner::new()
            .run_matrix(&solvers, &workloads(), 0..2)
            .unwrap();
        let par = ExperimentRunner::new()
            .workers(4)
            .run_matrix(&solvers, &workloads(), 0..2)
            .unwrap();
        assert_eq!(seq.len(), 3 * workloads().len() * 2);
        assert_eq!(answers(&seq), answers(&par));
    }

    #[test]
    fn solve_errors_abort_the_sweep() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=0"]).unwrap();
        let err = ExperimentRunner::new().run_matrix(&solvers, &workloads(), 0..2);
        assert!(matches!(err, Err(SolveError::Core(_))));
    }

    /// Two workloads sharing a label would silently alias each other's
    /// cache and store cells; the matrix must refuse to start.
    #[test]
    fn duplicate_workload_labels_fail_fast() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let dup = vec![
            ("grid".to_string(), generators::grid(4, 4)),
            ("petersen".to_string(), generators::petersen()),
            ("grid".to_string(), generators::grid(5, 5)),
        ];
        match ExperimentRunner::new().run_matrix(&solvers, &dup, 0..2) {
            Err(SolveError::DuplicateWorkload { label }) => assert_eq!(label, "grid"),
            other => panic!("expected DuplicateWorkload, got {other:?}"),
        }
        // The streaming API refuses identically (and still brackets the
        // sweep with started/finished events).
        use std::sync::mpsc::sync_channel;
        let (tx, rx) = sync_channel(64);
        let (result, events) = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
            let result = ExperimentRunner::new().run_matrix_streaming(&solvers, &dup, 0..2, tx);
            (result, consumer.join().unwrap())
        });
        assert!(matches!(result, Err(SolveError::DuplicateWorkload { .. })));
        assert!(
            !events.iter().any(|e| e.cell().is_some()),
            "no cell may run on a duplicate-label matrix"
        );
    }

    #[test]
    fn empty_matrix_is_empty() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw"]).unwrap();
        let records = ExperimentRunner::new()
            .run_matrix(&solvers, &[], 0..2)
            .unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn cache_serves_repeated_cells_without_resolving() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2", "composite:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let runner = ExperimentRunner::new().cache(cache.clone());
        let first = runner.run_matrix(&solvers, &workloads(), 0..3).unwrap();
        let triples = solvers.len() * workloads().len() * 3;
        assert_eq!(cache.misses(), triples as u64);
        assert_eq!(cache.hits(), 0);
        let second = runner.run_matrix(&solvers, &workloads(), 0..3).unwrap();
        assert_eq!(
            cache.hits(),
            triples as u64,
            "second sweep must be all hits"
        );
        assert_eq!(
            cache.misses(),
            triples as u64,
            "second sweep must not solve"
        );
        // A hit replays the original record, wall time included.
        assert_eq!(first, second);
    }

    #[test]
    fn cache_extends_to_new_seeds_incrementally() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let runner = ExperimentRunner::new().cache(cache.clone());
        let narrow = runner.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        // Widening the seed range re-solves only the new seeds.
        let wide = runner.run_matrix(&solvers, &workloads(), 0..4).unwrap();
        assert_eq!(cache.hits(), (solvers.len() * workloads().len() * 2) as u64);
        assert_eq!(
            cache.misses(),
            (solvers.len() * workloads().len() * 4) as u64
        );
        assert_eq!(wide.len(), workloads().len() * 4);
        assert!(narrow.iter().all(|r| wide.contains(r)), "hits replay");
        // And matches an uncached run bit for bit.
        let uncached = ExperimentRunner::new()
            .run_matrix(&solvers, &workloads(), 0..4)
            .unwrap();
        assert_eq!(answers(&wide), answers(&uncached));
    }

    #[test]
    fn cached_and_uncached_parallel_sweeps_agree() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2", "alg2:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let cached_runner = ExperimentRunner::new().workers(4).cache(cache);
        let warm = cached_runner
            .run_matrix(&solvers, &workloads(), 0..2)
            .unwrap();
        let replay = cached_runner
            .run_matrix(&solvers, &workloads(), 0..2)
            .unwrap();
        assert_eq!(warm, replay);
    }

    #[test]
    fn cache_distinguishes_fault_plans() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let reliable = ExperimentRunner::new().cache(cache.clone());
        let lossy = ExperimentRunner::new()
            .context(SolveContext {
                faults: ChaosPlan::reliable().with_drop(0.4).with_fault_seed(5),
                ..Default::default()
            })
            .cache(cache.clone());
        let clean = reliable.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        let noisy = lossy.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        // The lossy sweep must not be served the reliable outcomes.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), (2 * workloads().len() * 2) as u64);
        // And a lossy re-run hits only the lossy entries.
        let noisy_again = lossy.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        assert_eq!(cache.hits(), (workloads().len() * 2) as u64);
        assert_eq!(noisy, noisy_again);
        // Each record names the plan it ran under.
        assert!(clean.iter().all(|r| r.chaos.is_empty()));
        assert!(noisy.iter().all(|r| r.chaos == "drop=0.4,seed=5"));
    }

    /// Satellite coverage for outcome keying: two *lossy* plans that
    /// differ only in their fault seed must not share cached outcomes
    /// (the fingerprint covers both the probability and the seed).
    #[test]
    fn cache_distinguishes_fault_seeds_of_equal_drop_rates() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let lossy = |fault_seed: u64| {
            ExperimentRunner::new()
                .context(SolveContext {
                    faults: ChaosPlan::reliable()
                        .with_drop(0.3)
                        .with_fault_seed(fault_seed),
                    ..Default::default()
                })
                .cache(cache.clone())
        };
        let a = lossy(1).run_matrix(&solvers, &workloads(), 0..3).unwrap();
        let misses_after_a = cache.misses();
        let b = lossy(2).run_matrix(&solvers, &workloads(), 0..3).unwrap();
        // Same drop probability, different loss process: nothing shared.
        assert_eq!(cache.hits(), 0, "distinct fault seeds must not share");
        assert_eq!(cache.misses(), 2 * misses_after_a);
        // Each plan still hits its own entries on replay.
        let a2 = lossy(1).run_matrix(&solvers, &workloads(), 0..3).unwrap();
        assert_eq!(cache.hits(), misses_after_a);
        assert_eq!(a, a2);
        let _ = b;
    }

    #[test]
    fn streaming_emits_each_cell_exactly_once_with_monotonic_worker_seqs() {
        use std::collections::HashMap as Map;
        use std::sync::mpsc::sync_channel;
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2", "composite:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let runner = ExperimentRunner::new().workers(4).cache(cache.clone());
        let run = |runner: &ExperimentRunner| {
            let (tx, rx) = sync_channel(4); // deliberately tight: exercises backpressure
            let (cells, events) = std::thread::scope(|scope| {
                let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
                let cells = runner
                    .run_matrix_streaming(&solvers, &workloads(), 0..3, tx)
                    .unwrap();
                (cells, consumer.join().unwrap())
            });
            (cells, events)
        };
        let (records, events) = run(&runner);
        // The streamed records equal the batch API's.
        let batch = ExperimentRunner::new()
            .run_matrix(&solvers, &workloads(), 0..3)
            .unwrap();
        assert_eq!(answers(&records), answers(&batch));
        // Each terminal event carries exactly the record the sweep returns.
        let streamed: Vec<&RunRecord> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::CellFinished { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        assert_eq!(streamed.len(), records.len());
        assert!(streamed.iter().all(|r| records.contains(r)));
        // Bracketing events frame the sweep.
        assert!(matches!(
            events.first(),
            Some(RunEvent::SweepStarted { runs: 12, .. })
        ));
        match events.last() {
            Some(RunEvent::SweepFinished {
                solved,
                cached,
                failed,
            }) => {
                assert_eq!((*solved, *cached, *failed), (12, 0, 0));
            }
            other => panic!("expected SweepFinished, got {other:?}"),
        }
        // Every cell: exactly one CellStarted and one terminal event.
        let mut started: Map<(String, String, u64), usize> = Map::new();
        let mut finished: Map<(String, String, u64), usize> = Map::new();
        for ev in &events {
            if let Some((s, w, seed)) = ev.cell() {
                let key = (s.to_string(), w.to_string(), seed);
                if ev.is_terminal() {
                    *finished.entry(key).or_default() += 1;
                } else {
                    *started.entry(key).or_default() += 1;
                }
            }
        }
        assert_eq!(started.len(), 12);
        assert_eq!(finished.len(), 12);
        assert!(started.values().all(|&c| c == 1));
        assert!(finished.values().all(|&c| c == 1));
        // Per-worker sequence numbers are strictly increasing in arrival
        // order (the channel preserves per-sender order).
        let mut last_seq: Map<usize, u64> = Map::new();
        for ev in &events {
            if let Some((worker, seq)) = ev.worker_seq() {
                if let Some(&prev) = last_seq.get(&worker) {
                    assert!(seq > prev, "worker {worker}: seq {seq} after {prev}");
                }
                last_seq.insert(worker, seq);
            }
        }
        // A second streaming sweep over the same matrix is all cache hits,
        // reported as CellCached events carrying the original outcomes.
        let (_, replay_events) = run(&runner);
        let cached_count = replay_events
            .iter()
            .filter(|e| matches!(e, RunEvent::CellCached { .. }))
            .count();
        assert_eq!(cached_count, 12);
        match replay_events.last() {
            Some(RunEvent::SweepFinished { solved, cached, .. }) => {
                assert_eq!((*solved, *cached), (0, 12));
            }
            other => panic!("expected SweepFinished, got {other:?}"),
        }
    }

    #[test]
    fn streaming_surfaces_solve_errors_as_failed_events() {
        use std::sync::mpsc::sync_channel;
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=0"]).unwrap();
        let runner = ExperimentRunner::new().workers(2);
        let (tx, rx) = sync_channel(64);
        let (result, events) = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
            let result = runner.run_matrix_streaming(&solvers, &workloads(), 0..2, tx);
            (result, consumer.join().unwrap())
        });
        assert!(matches!(result, Err(SolveError::Core(_))));
        let mut failed = 0;
        for e in &events {
            if let RunEvent::CellFailed {
                solver,
                workload,
                seed,
                error,
                ..
            } = e
            {
                failed += 1;
                let id = format!("{solver} on {workload} (seed {seed}): ");
                assert!(error.starts_with(&id), "{error:?} must start with {id:?}");
            }
        }
        assert!(
            failed >= 1,
            "a solve error must surface as a CellFailed event"
        );
        match events.last() {
            Some(RunEvent::SweepFinished { failed, .. }) => assert!(*failed >= 1),
            other => panic!("expected SweepFinished, got {other:?}"),
        }
    }

    #[test]
    fn streaming_converts_worker_panics_into_failed_events_not_hangs() {
        use std::sync::mpsc::sync_channel;

        /// A solver that panics on one specific seed.
        struct Poisoned;
        impl DsSolver for Poisoned {
            fn spec(&self) -> String {
                "poisoned".to_string()
            }
            fn solve(
                &self,
                g: &CsrGraph,
                ctx: &SolveContext,
            ) -> Result<crate::solver::SolveReport, SolveError> {
                if ctx.seed == 1 {
                    panic!("poisoned at seed 1");
                }
                let ds = kw_graph::DominatingSet::all(g);
                Ok(crate::solver::ReportBuilder::new("poisoned", ds).finish(g, ctx))
            }
        }

        // Sequential: exactly one cell reaches the poisoned seed before
        // the abort (parallel workers may each fail their own cell).
        let runner = ExperimentRunner::new().workers(1);
        let (tx, rx) = sync_channel(64);
        let (result, events) = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
            let result = runner.run_matrix_streaming(&[Poisoned], &workloads(), 0..3, tx);
            (result, consumer.join().unwrap())
        });
        match result {
            Err(SolveError::Panicked { reason }) => assert!(reason.contains("poisoned")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        let failed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::CellFailed { seed, error, .. } => Some((*seed, error.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 1);
        assert!(failed[0].1.contains("panicked"));
    }

    /// A panic raised by a *pool worker thread* inside the engine (not
    /// the solver's own thread) must still surface as a `CellFailed`
    /// event naming the exact run — not a hung barrier or leaked pool.
    #[test]
    fn pooled_engine_panic_surfaces_as_cell_failed_with_run_id() {
        use std::sync::mpsc::sync_channel;

        struct Bomb {
            me: usize,
        }
        impl kw_sim::Protocol for Bomb {
            type Msg = u64;
            type Output = u64;
            fn on_round(&mut self, ctx: &mut kw_sim::Ctx<'_, u64>) -> kw_sim::Status {
                // The highest node id lands in the last chunk, which a
                // pool worker (not the driving thread) executes at 4T.
                if ctx.round() == 1 && self.me == 15 {
                    panic!("pooled phase exploded");
                }
                ctx.broadcast(1);
                kw_sim::Status::Running
            }
            fn finish(self) -> u64 {
                0
            }
        }

        struct PoolBomb;
        impl DsSolver for PoolBomb {
            fn spec(&self) -> String {
                "poolbomb".to_string()
            }
            fn solve(
                &self,
                g: &CsrGraph,
                ctx: &SolveContext,
            ) -> Result<crate::solver::SolveReport, SolveError> {
                let report = kw_sim::Engine::new(
                    g,
                    kw_sim::EngineConfig {
                        threads: ctx.threads,
                        ..Default::default()
                    },
                    |info| Bomb {
                        me: info.id.raw() as usize,
                    },
                )
                .run(&mut ());
                unreachable!("the engine panics before returning: {report:?}")
            }
        }

        let runner = ExperimentRunner::new().context(SolveContext {
            threads: 4,
            ..Default::default()
        });
        let grid = vec![("grid4".to_string(), generators::grid(4, 4))];
        let (tx, rx) = sync_channel(64);
        let (result, events) = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
            let result = runner.run_matrix_streaming(&[PoolBomb], &grid, 0..1, tx);
            (result, consumer.join().unwrap())
        });
        match result {
            Err(SolveError::Panicked { reason }) => {
                assert!(
                    reason.starts_with("poolbomb on grid4 (seed 0): "),
                    "{reason}"
                );
                assert!(reason.contains("pooled phase exploded"), "{reason}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let failed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::CellFailed { error, .. } => Some(error.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].contains("poolbomb on grid4 (seed 0"),
            "{}",
            failed[0]
        );
    }

    /// A report without a certificate breaks the solver contract; the
    /// sweep names the cell and fails it like a panic instead of
    /// unwinding out of the matrix.
    #[test]
    fn missing_certificate_fails_the_cell_not_the_sweep() {
        use std::sync::mpsc::sync_channel;

        struct Uncertified;
        impl DsSolver for Uncertified {
            fn spec(&self) -> String {
                "uncertified".to_string()
            }
            fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
                let ctx = SolveContext {
                    check_certificates: false,
                    ..ctx.clone()
                };
                let ds = kw_graph::DominatingSet::all(g);
                Ok(crate::solver::ReportBuilder::new("uncertified", ds).finish(g, &ctx))
            }
        }

        // Sequential, so exactly one cell fails before the abort.
        let (tx, rx) = sync_channel(64);
        let (result, events) = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || rx.iter().collect::<Vec<RunEvent>>());
            let result = ExperimentRunner::new().workers(1).run_matrix_streaming(
                &[Uncertified],
                &workloads(),
                0..2,
                tx,
            );
            (result, consumer.join().unwrap())
        });
        match result {
            Err(SolveError::Panicked { reason }) => assert_eq!(
                reason,
                "uncertified on grid4 (seed 0): solver returned no certificate"
            ),
            other => panic!("expected Panicked, got {other:?}"),
        }
        let failed = events
            .iter()
            .filter(|e| matches!(e, RunEvent::CellFailed { .. }))
            .count();
        assert_eq!(failed, 1);
    }

    #[test]
    fn insert_outcome_replays_like_a_live_run() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        // Solve once to learn the true outcomes.
        let warm_cache = ExperimentCache::new();
        let runner = ExperimentRunner::new().cache(warm_cache.clone());
        let live = runner.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        // Replay them into a *fresh* cache through the resume hook.
        let replayed = ExperimentCache::new();
        {
            let outcomes = warm_cache.outcomes.lock().unwrap();
            for ((solver, workload, seed, chaos, threads), outcome) in outcomes.iter() {
                replayed.insert_outcome(solver, workload, *seed, chaos, *threads, *outcome);
            }
        }
        let resumed = ExperimentRunner::new()
            .cache(replayed.clone())
            .run_matrix(&solvers, &workloads(), 0..2)
            .unwrap();
        assert_eq!(replayed.misses(), 0, "resume must re-solve nothing");
        assert_eq!(
            replayed.hits(),
            (solvers.len() * workloads().len() * 2) as u64
        );
        assert_eq!(live, resumed);
    }

    #[test]
    fn graph_cache_builds_each_workload_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ExperimentCache::new();
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::Relaxed);
            generators::grid(3, 3)
        };
        let a = cache.graph("grid3", 7, build);
        let b = cache.graph("grid3", 7, || unreachable!("must reuse the stored graph"));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(*a, *b);
        // A different seed is a different cell.
        let _ = cache.graph("grid3", 8, || generators::grid(3, 3));
        assert_eq!(cache.graph("grid3", 8, || unreachable!()).len(), 9);
        // Peeking never builds: a present cell is returned, an absent
        // one is just `None`.
        assert_eq!(cache.cached_graph("grid3", 7).unwrap().len(), 9);
        assert!(cache.cached_graph("grid3", 99).is_none());
        assert!(cache.cached_graph("other", 7).is_none());
    }

    /// The serving path: `outcome()` observes exactly what a sweep
    /// stored, counts hits/misses like a sweep lookup, and
    /// `outcome_count()` reports the memo size (what a daemon logs after
    /// warming from its store).
    #[test]
    fn direct_outcome_lookup_serves_sweep_results() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let cache = ExperimentCache::new();
        let runner = ExperimentRunner::new().cache(cache.clone());
        let ctx = runner.base_context();
        assert_eq!(cache.outcome_count(), 0);
        assert!(cache.outcome("kw:k=2", "grid4", 0, &ctx).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        runner.run_matrix(&solvers, &workloads(), 0..2).unwrap();
        assert_eq!(cache.outcome_count(), 2 * workloads().len());
        let hits_before = cache.hits();
        let outcome = cache
            .outcome("kw:k=2", "grid4", 0, &ctx)
            .expect("solved cell is served");
        assert!(outcome.dominates);
        assert_eq!(cache.hits(), hits_before + 1);
        // A different fault plan is a different cell.
        let faulty = SolveContext {
            faults: ChaosPlan::reliable().with_drop(0.5).with_fault_seed(7),
            ..ctx.clone()
        };
        assert!(cache.outcome("kw:k=2", "grid4", 0, &faulty).is_none());
    }
}
