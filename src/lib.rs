//! # kw-domset
//!
//! A full reproduction of **Kuhn & Wattenhofer, "Constant-time distributed
//! dominating set approximation"** (PODC 2003; journal version *Distributed
//! Computing* 17:303–310, 2005).
//!
//! The paper gives the first distributed algorithm that computes a
//! non-trivial approximation of a minimum dominating set in a **constant**
//! number of communication rounds: for any parameter `k`, an expected
//! `O(k·Δ^{2/k}·log Δ)` approximation in `O(k²)` rounds, with messages of
//! `O(log Δ)` bits.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] ([`kw_graph`]) — CSR graphs, topology generators,
//!   dominating-set verification;
//! * [`sim`] ([`kw_sim`]) — the synchronous LOCAL-model simulator;
//! * [`lp`] ([`kw_lp`]) — simplex, `LP_MDS`/`DLP_MDS`, exact MDS, Lemma-1
//!   bounds;
//! * [`core`] ([`kw_core`]) — the paper's Algorithms 1–3, the weighted
//!   variant, the end-to-end pipeline, invariant instrumentation, and the
//!   unified solver API ([`kw_core::solver`]);
//! * [`baselines`] ([`kw_baselines`]) — greedy, Jia–Rajaraman–Suel LRG,
//!   Luby-style MIS, trivial, and CDS baselines;
//! * [`results`] ([`kw_results`]) — the streaming results pipeline:
//!   per-cell run events, the persistent JSONL run store, rollup
//!   summaries, and regression gating;
//! * [`trace`] ([`kw_trace`]) — the span/profiling plane: hierarchical
//!   spans, per-round counter series, Chrome-trace export;
//! * [`serve`] ([`kw_serve`]) — solve-as-a-service: the `kw-serve`
//!   daemon with a persistent answer cache and Prometheus telemetry,
//!   plus the `kw-load` load generator.
//!
//! # Quickstart: the solver API
//!
//! Every algorithm — the paper's pipeline and all baselines — sits behind
//! the [`DsSolver`](kw_core::solver::DsSolver) trait and is constructible
//! by name from [`default_registry`]:
//!
//! ```
//! use kw_domset::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // A random ad-hoc-style network.
//! let mut rng = SmallRng::seed_from_u64(42);
//! let g = kw_graph::generators::unit_disk(150, 0.15, &mut rng);
//!
//! // The paper's pipeline (Algorithm 3 + Algorithm 1) with k = 2.
//! let registry = kw_domset::default_registry();
//! let solver = registry.build("kw:k=2")?;
//! let report = solver.solve(&g, &SolveContext::seeded(42))?;
//! assert!(report.dominating_set.is_dominating(&g));
//!
//! // The report certifies quality against the Lemma-1 lower bound.
//! let cert = report.certificate.as_ref().unwrap();
//! assert!(cert.dominates);
//! assert!(cert.ratio_vs_lemma1 >= 1.0 - 1e-9);
//!
//! // Any other algorithm is one spec string away.
//! for spec in ["greedy", "jrs", "luby-mis", "trivial", "connected(kw:k=2)"] {
//!     let report = registry.build(spec)?.solve(&g, &SolveContext::seeded(42))?;
//!     assert!(report.certificate.as_ref().unwrap().dominates, "{spec}");
//! }
//! # Ok::<(), kw_core::solver::SolveError>(())
//! ```
//!
//! # Registered solver names
//!
//! | spec | algorithm | parameters |
//! |------|-----------|------------|
//! | `kw` | Algorithm 3 + Algorithm 1 rounding (Theorem 6, headline) | `k=<u32≥1>` (default 2), `multiplier=ln\|ln-lnln` |
//! | `alg2` | Algorithm 2 (known `Δ`) + Algorithm 1 rounding | `k`, `multiplier` as above |
//! | `composite` | Theorem-6 algorithm fused into one protocol run | `k`, `multiplier` as above |
//! | `greedy` | sequential greedy (`ln Δ` approximation) | none |
//! | `jrs` | Jia–Rajaraman–Suel LRG (PODC 2001) | none |
//! | `luby-mis` | Luby-style maximal independent set | none |
//! | `trivial` | all nodes (`Δ+1` approximation) | none |
//! | `connected(inner)` | CDS stitch around any other spec | inner spec |
//!
//! Spec grammar: `name`, `name:key=value,key=value`, or `name(inner)` —
//! see [`kw_core::solver::SolverSpec`].
//!
//! # Experiment matrices
//!
//! [`ExperimentRunner`](kw_core::solver::ExperimentRunner) fans a
//! solver × workload × seed matrix into (optionally multi-threaded) runs,
//! one [`RunRecord`](kw_core::solver::RunRecord) per run, and
//! [`Summary`](kw_results::summary::Summary) rolls the records up per
//! cell:
//!
//! ```
//! use kw_domset::prelude::*;
//! use kw_graph::generators;
//!
//! let registry = kw_domset::default_registry();
//! let solvers = registry.build_all(["kw:k=2", "greedy", "trivial"])?;
//! let workloads = vec![("grid8".to_string(), generators::grid(8, 8))];
//! let records = ExperimentRunner::new().run_matrix(&solvers, &workloads, 0..5)?;
//! assert_eq!(records.len(), 3 * 5);
//! let summary = Summary::from_records(&records);
//! assert_eq!(summary.cells.len(), 3);
//! assert!(summary.cells.iter().all(|c| c.failures == 0));
//! # Ok::<(), kw_core::solver::SolveError>(())
//! ```
//!
//! # Workloads: generated families and real instances
//!
//! The `kw-bench` crate's `Workload` enum names every topology the
//! experiment drivers sweep — the paper's ad-hoc/unit-disk motivation
//! plus degree-structured families — and, since the instance registry
//! landed, **externally loaded graphs**: `Workload::Dimacs` wraps a
//! real DIMACS-challenge file and flows through the cache, the run
//! store, and session resume exactly like a generated workload.
//!
//! Workloads are CLI-drivable through a spec grammar mirroring the
//! solver one (`exp_t5_endtoend dimacs:instances/queen5_5.col
//! gnp:n=128,p=0.05`):
//!
//! | spec | family |
//! |------|--------|
//! | `gnp:n=1024,p=0.01` | Erdős–Rényi `G(n, p)` |
//! | `udg:n=100,r=0.18` | unit-disk, radius `r` |
//! | `ba:n=100,m=2` | Barabási–Albert |
//! | `grid:side=10` | `side × side` grid |
//! | `tree:b=3,d=4` | complete `b`-ary tree of depth `d` |
//! | `cliques:c=5,size=8` | hub-and-cliques (Figure 1) |
//! | `dimacs:instances/foo.col` | externally loaded DIMACS file |
//!
//! Three contracts keep external graphs trustworthy:
//!
//! * **Strict vs lenient DIMACS** ([`kw_graph::io`]). `parse_dimacs` is
//!   strict — exactly what `write_dimacs` emits; any deviation
//!   (duplicate edges, self-loops, unknown lines, edge-count mismatch)
//!   is an error, which is the right contract for round-trips.
//!   `parse_dimacs_lenient` accepts real challenge downloads: it
//!   deduplicates repeated `e` lines (including the both-orientations
//!   convention), drops self-loops, skips unknown line kinds (`n <id>
//!   <value>` node lines), and reports every cleanup in `DimacsStats`.
//!   Truncation — fewer `e` lines than declared — stays an error in
//!   both modes.
//! * **The instance registry** (`kw_bench::instances`). Bundled files
//!   under `instances/` are pinned by FNV-1a checksum and `(n, m, Δ)`
//!   shape; every load validates both, so an edited or truncated
//!   fixture fails loudly instead of skewing a sweep. Instance
//!   workloads are **seed-invariant**: `build` returns the identical
//!   graph for every seed and says so via `Workload::is_seeded`.
//! * **Labels are cache/store keys.** `Workload::label` keys the
//!   experiment cache and the run store, so labels must be unique
//!   within a sweep — the runner fails fast on duplicates
//!   ([`SolveError::DuplicateWorkload`](kw_core::solver::SolveError)) —
//!   and stable across sites and releases: float parameters render
//!   through one canonical formatter, and every suite label is pinned
//!   by a test.
//!
//! # Persisting and comparing runs
//!
//! Long sweeps should not die with their process. The streaming results
//! pipeline ([`kw_results`]) makes experiment output event-driven and
//! durable:
//!
//! * [`ExperimentRunner::run_matrix_streaming`](kw_core::solver::ExperimentRunner::run_matrix_streaming)
//!   reports every `(solver, workload, seed)` cell over a bounded
//!   channel as it finishes ([`RunEvent`](kw_core::solver::RunEvent)s),
//!   instead of staying silent until the final barrier;
//! * [`SweepSession`](kw_results::pipeline::SweepSession) persists each
//!   solved cell to an append-only JSONL
//!   [`RunStore`](kw_results::store::RunStore) (versioned schema, sweep
//!   manifests with git provenance, crash-safe appends) and replays the
//!   store on re-launch, so a killed sweep resumes by solving only its
//!   missing cells;
//! * [`Summary`](kw_results::summary::Summary) rolls stored records up
//!   per cell and per solver (mean/p50/p95) and renders markdown or CSV;
//! * the `regress` binary diffs a candidate store's answers against a
//!   baseline and exits non-zero on missing cells, new non-dominating
//!   runs or set-size growth. It does not gate wall time.
//!
//! Performance itself is measured in one place: the `kwperf` package at
//! the repository root times the solve and serve paths end to end and
//! layer by layer (`BENCHMARK.json` names the workloads and metrics,
//! `kwperf/METRICS.md` maps each metric to its layer).
//!
//! ```no_run
//! use kw_domset::prelude::*;
//! use kw_graph::generators;
//!
//! let registry = kw_domset::default_registry();
//! let solvers = registry.build_all(["kw:k=2", "greedy"])?;
//! let workloads = vec![("grid8".to_string(), generators::grid(8, 8))];
//! let mut session = SweepSession::open("target/runs.jsonl").expect("store opens");
//! let out = session.run(&ExperimentRunner::new(), &solvers, &workloads, 0..20, |event| {
//!     if event.is_terminal() {
//!         eprint!("."); // cell-by-cell progress, not a final barrier
//!     }
//! }).expect("sweep runs");
//! println!("{}", Summary::from_records(&out.records).to_markdown());
//! // Re-running replays the store: out.solved == 0, out.cached == 40.
//! # Ok::<(), kw_core::solver::SolveError>(())
//! ```
//!
//! # The simulator's send contract (`Sink`/`Ctx`)
//!
//! Node programs talk to the world only through
//! [`Ctx`](kw_sim::Ctx), and since the arena send plane landed its two
//! send calls follow one eagerly-validated contract (see the
//! [`kw_sim` mailbox docs](kw_sim::Ctx) for the normative statement):
//!
//! * [`Ctx::send`](kw_sim::Ctx::send) **panics at call time** on a port
//!   `>= degree` — an invalid port names a link that does not exist, so
//!   it is a protocol bug, never a silently dropped message. On an
//!   isolated node every `send` panics.
//! * [`Ctx::broadcast`](kw_sim::Ctx::broadcast) is **defined for every
//!   degree**: it stages one copy per incident link and charges
//!   `degree` messages to the run metrics, which on an isolated node is
//!   zero copies and zero charge — a lawful no-op, not an error.
//! * Accepted sends are staged immediately through the opaque
//!   [`Sink`](kw_sim::Sink) trait into per-node runs of a flat send
//!   arena owned by the engine. Sender-side metrics, optional wire
//!   verification, and traffic classification happen at the moment of
//!   the send; no growable send buffer (`&mut Vec` or otherwise) is
//!   ever reachable from algorithm code.
//!
//! **Migration notes (PR 4).** Protocol code needs no changes —
//! `broadcast`/`send`/`inbox`/`rng` keep their signatures and exact
//! semantics (ports, inbox ordering, metrics, and fault keys are
//! bit-identical, for every thread count). Code that *constructed* a
//! `Ctx` by hand (only possible inside `kw-sim`) now supplies the
//! engine's staging sink instead of a `&mut Vec<Outbound>`; test
//! harnesses observe staged traffic through the sink's arena. Every
//! [`RunReport`](kw_sim::RunReport) carries
//! [`EngineStats`](kw_sim::EngineStats) (the buffer-growth counter) so
//! allocation-stability tests can assert that steady-state rounds are
//! growth-free.
//!
//! # Parallel execution: the persistent worker pool
//!
//! The engine runs its parallel compute phase on a **persistent worker
//! pool** ([`kw_sim::pool`]) instead of spawning scoped threads per
//! phase: `Engine::run` spawns `threads − 1` workers once, and every
//! round's compute phase is dispatched as an *epoch* on that pool — the
//! caller publishes the phase's jobs, runs chunk 0 itself, and waits on
//! the workers' done-count. The trace plane's synthetic *barrier* span
//! measures exactly this epoch-publish lead plus done-wait tail (it
//! used to measure thread spawn + join, which dominated small
//! workloads); per-round pool wakeups and idle ticks ride along as
//! diagnostics in [`RoundSample`](kw_trace::RoundSample).
//!
//! Work is split by **degree-weighted (arc-balanced) chunking**: node
//! ranges are cut so every chunk carries an approximately equal share
//! of arcs rather than an equal node count, so one hub-heavy chunk
//! cannot stall a phase (the trace plane's `imbalance` measures the
//! residual spread). Chunk bounds are a pure function of the CSR plane
//! and are recomputed on every churn rebuild. Message delivery is
//! **per-chunk**: each chunk gathers its own nodes' inboxes and reads
//! other chunks' send runs in place, so no serial cross-thread splice
//! runs between rounds.
//!
//! The contract stays what it always was: outputs, metrics, inbox
//! ordering, trace structure, and chaos behavior are **bit-identical
//! across 1/2/8 threads** (`crates/bench/tests/scaling_invariance.rs`
//! pins this on generated graphs, a bundled DIMACS instance, and a
//! full chaos mix), and a worker panic propagates as the cell's
//! [`SolveError::Panicked`](kw_core::solver::SolveError) with no hung
//! barrier or leaked threads. `threads` is a first-class knob at every
//! layer: [`SolveContext::threads`](kw_core::solver::SolveContext),
//! the run store (schema v4 keys records by it — outcomes are
//! thread-invariant but wall times are not), `POST /solve` bodies, and
//! the `scaling` request mix. The `kwperf` benchmark's `solve-gnp100k`
//! workload solves at 2 threads and checks every answer against the
//! 1-thread one.
//!
//! # Chaos, churn, and adversaries
//!
//! The paper's model is synchronous and reliable; the chaos plane
//! ([`ChaosPlan`](kw_sim::ChaosPlan)) measures what happens when it
//! isn't. One spec grammar drives every failure mode, and the same
//! clause string works in [`SolveContext::faults`](kw_core::solver::SolveContext)
//! (via [`ChaosPlan::parse`](kw_sim::ChaosPlan::parse)), in `POST
//! /solve` bodies, and in the run store:
//!
//! ```text
//! chaos:drop=0.1,seed=7,burst=r3-5@0.9/0.5,crash=7@r2-4,byz=3+9,churn=r2re0-1+r4l6
//! ```
//!
//! * `drop=<p>` — iid per-delivery loss with probability `p ∈ [0, 1]`
//!   (`seed=<s>` keys all chaotic randomness).
//! * `burst=r<a>-<b>@<p>[/<f>]` — correlated loss storm: during rounds
//!   `a..=b`, deliveries drop with probability `p`, optionally scoped
//!   to a seeded region holding fraction `f` of the nodes.
//! * `crash=<v>@r<a>[-<b>]` — node `v` is down from round `a` (to `b`,
//!   or forever): it computes nothing, sends nothing, receives nothing.
//!   A node down forever stops gating termination.
//! * `byz=<v>[+<v>…]` — byzantine senders: every outgoing payload is
//!   garbled by seeded bit flips *on the wire encoding*. Receivers
//!   decode-or-reject — a rejected payload counts in
//!   [`RunMetrics::byz_rejected`](kw_sim::RunMetrics::byz_rejected) and
//!   is dropped, a decodable one is delivered as ordinary garbage — and
//!   the engine never panics either way (every registered decoder is
//!   fuzzed to return errors, not panic, on arbitrary bytes).
//! * `churn=<event>[+<event>…]` — scripted topology changes applied
//!   between rounds against the CSR planes (`r2re0-1` = remove edge
//!   {0,1} before round 2; `ae` adds an edge, `j`/`l` are node
//!   join/leave). The engine rebuilds its message plane per event
//!   ([`RunMetrics::graph_rebuilds`](kw_sim::RunMetrics::graph_rebuilds)),
//!   which is the "continue in place" cost that `exp_c1_chaos` compares
//!   against re-solving the final topology; certificates grade against
//!   the churned graph.
//!
//! **Reproducibility contract.** A chaos run is a pure function of
//! `(graph, solver spec, run seed, chaos spec)`: bit-identical across
//! 1/2/8 engine threads, across process restarts, and across the
//! cache/store/serve boundary. The canonical spec string
//! ([`ChaosPlan::spec`](kw_sim::ChaosPlan::spec)) *is* the fault
//! fingerprint: [`ExperimentCache`](kw_core::solver::ExperimentCache)
//! keys outcomes by it, run-store records persist it (schema v2; v1
//! `fault_drop`/`fault_seed` records are synthesized into iid-only
//! specs on read), sweeps resume chaos cells as cache hits, and
//! `regress` compares cells chaos-aware — a chaotic cell never gates
//! against its clean twin. `exp_c1_chaos` sweeps the chaos ladder and
//! the churn comparison through exactly this pipeline; CI's
//! `chaos_smoke` step re-runs it and schema-validates the store.
//!
//! # Observability: the trace plane (`kw-trace`)
//!
//! Where the chaos plane measures *what* the stack computes under
//! failure, the trace plane ([`kw_trace`]) measures *where the time
//! goes* — and costs nothing when off. A [`Tracer`](kw_trace::Tracer)
//! installed in a thread-local slot records:
//!
//! * **hierarchical spans** — `solve → stage:{fractional,rounding,
//!   composite} → round → {deliver,compute,barrier}`
//!   ([`kw_trace::PHASES`]), plus one chunk span per worker per
//!   compute phase on worker tracks, so pool synchronization overhead
//!   and chunk imbalance are first-class measurements rather than
//!   inferred gaps;
//! * **per-round counter series** — [`RoundSample`](kw_trace::RoundSample)
//!   carries messages, bits, active nodes, inbox bytes handed to
//!   `on_round` (gathered or read in place), and graph rebuilds per
//!   round, a time series the scalar `RunMetrics` totals cannot express.
//!
//! **Migration note.** `Ctx::inbox_slice` is gone: after a round of only
//! solo broadcasts, an inbox reads the engine's solo table in place and
//! no gathered slice exists. Replace `ctx.inbox_slice()` with
//! `ctx.inbox()` and finish reading it before calling `ctx.broadcast` or
//! `ctx.send`. `InboxIter` is no longer `ExactSizeIterator`;
//! `Inbox::len` counts an in-place inbox in `O(degree)`.
//!
//! Instrumentation sites use [`kw_trace::with_active`], which is a
//! single thread-local check when no tracer is installed — a paired A/B
//! against the uninstrumented engine measured the disabled path within
//! machine noise (`docs/BENCH_HISTORY.md`), so the spans stay compiled
//! in unconditionally.
//!
//! **Determinism contract.** Trace *structure* — the span tree, its
//! labels and nesting, the round samples, and the FNV structure hash
//! over both — is a function of the workload alone and is bit-identical
//! across 1/2/8 engine threads; only tick values vary
//! (`crates/bench/tests/trace_determinism.rs` pins this at engine and
//! solver level, chaos included).
//!
//! **Entry points.** [`traced_solve`](kw_core::solver::traced_solve)
//! wraps any [`DsSolver`](kw_core::solver::DsSolver) and attaches a
//! [`TraceSummary`](kw_trace::TraceSummary) (per-phase totals and
//! shares, barrier time, imbalance, structure hash, round series) to
//! the report when [`SolveContext::trace`](kw_core::solver::SolveContext)
//! is set. Summaries persist as `trace` lines in the run store (schema
//! v3, [`TraceRecord`](kw_results::store::TraceRecord)). `POST /solve` takes
//! `"trace": true` and answers with the rollup inline; `GET /metrics`
//! exports cumulative per-phase counters
//! (`kw_serve_solve_phase_us_total{phase="..."}`).
//!
//! **Flame views.** [`Tracer::chrome_json`](kw_trace::Tracer::chrome_json)
//! renders the span tree as Chrome trace-event JSON — load the file in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing` (main
//! track plus one track per worker);
//! `crates/bench/tests/trace_determinism.rs` parses engine exports at
//! 1/2/8 workers and checks they hold one event per track and span. For
//! the benchmark workloads, `kwperf --trace 1` reports the same per-phase
//! attribution as its `sim.*_share` metrics.
//!
//! # Serving solves (`kw-serve` / `kw-load`)
//!
//! The serving layer ([`kw_serve`]) wraps the same solver stack in a
//! long-running daemon, built on nothing but `std` (a hand-rolled,
//! strictly-limited HTTP/1.1 implementation over `TcpListener`):
//!
//! ```text
//! cargo run --release -p kw-serve --bin kw-serve -- \
//!     --addr 127.0.0.1:7341 --store target/serve_runs.jsonl
//! curl -d '{"workload": "gnp:n=128,p=0.05", "solver": "kw:k=2", "seed": 7}' \
//!     http://127.0.0.1:7341/solve
//! ```
//!
//! **Endpoints.** `POST /solve` takes `{"workload", "solver",
//! "seed"?, "chaos"?, "threads"?, "trace"?}` — the exact same spec
//! grammars as the sweep CLIs, chaos clause included; `threads` picks
//! the engine worker count and is normalized into the cache/store key
//! — and answers the run outcome as JSON (`dominates`, `size`,
//! `rounds`, `messages`, `bits`, `ratio_vs_lemma1`, `wall_ms`, plus
//! `threads` and a `cached` flag). Non-reliable
//! chaos requests tick the `kw_serve_chaos_requests_total` counter. `GET /healthz` answers `ok`. `GET /metrics` renders
//! Prometheus text: request/response-class/shed/panic counters, an
//! in-flight gauge, cache hit/miss/warmed counters, and nearest-rank
//! p50/p95/p99 latency from a fixed-bucket histogram —
//! [`kw_results::nearest_rank`] is the *single* percentile definition
//! shared between the daemon and the sweep summaries. `POST /shutdown`
//! starts a graceful drain (the std-only stand-in for SIGTERM).
//!
//! **Caching and persistence.** Answers memoize into the same
//! [`ExperimentCache`](kw_core::solver::ExperimentCache) the sweep
//! runner uses — keyed by `(solver spec, workload label, seed, fault
//! plan)` — and every fresh answer is appended to a
//! [`RunStore`](kw_results::store::RunStore). A restarted daemon
//! replays its store into the cache before accepting traffic, so every
//! answer it ever computed is served as a cache hit across restarts.
//! The store's writer lock means a daemon and a sweep can never corrupt
//! one store by sharing it: the second writer fails fast with a
//! `Locked` error.
//!
//! **Backpressure and robustness.** A bounded worker pool serves
//! connections; when the accept queue is full the daemon sheds load
//! with `503` + `Retry-After` instead of queueing unboundedly. Requests
//! carry a wall-clock deadline, oversized or malformed requests map to
//! 4xx (never a panic — solver panics are caught and answered as 500
//! and counted), and `kw-load` replays named request mixes
//! (`kw_bench::mix`) at a target concurrency and reports throughput
//! and latency percentiles.
//!
//! # Static analysis (`kw-lint`)
//!
//! The workspace carries its own linter ([`kw_lint`], binary
//! `kw-lint`) — a std-only lexer and lightweight parser over every
//! crate's source that enforces the codebase's *semantic* invariants,
//! the ones `rustc` and clippy cannot see:
//!
//! * **panic-path** — no `unwrap`/`expect`/`panic!`/unchecked indexing
//!   in wire-decode impls or `kw-serve` request paths (a malformed
//!   request must map to a 4xx/5xx, never a panic);
//! * **hot-alloc** — no allocation in engine functions marked
//!   `// kw-lint: hot` (the per-round paths reuse arenas);
//! * **unsafe-audit** — `unsafe` only in the worker pool, each block
//!   under a `// SAFETY:` comment, every other crate gated by
//!   `forbid(unsafe_code)`/`deny(unsafe_code)`;
//! * **schema-drift** — the `RunStore` writers' field sets are
//!   fingerprinted into the checked-in `lint.schema`; changing a line
//!   format without bumping `SCHEMA_VERSION` fails the build;
//! * **spec-roundtrip** — every spec grammar (`SolverSpec`,
//!   `Workload`, `ChaosPlan`) must ship a `spec()` canonicalizer and a
//!   parse → spec → parse round-trip test.
//!
//! Findings are deny-by-default: `kw-lint` exits non-zero unless every
//! diagnostic is either fixed or covered by a justified entry in the
//! checked-in `lint.allow`. `cargo run -p kw-lint` lints the
//! workspace; CI's `lint_smoke` step and the `workspace_is_lint_clean`
//! test both gate on a clean run. `docs/LINTS.md` documents each rule,
//! the allowlist format, and the `--bless-schema` workflow.
//!
//! The lower-level per-algorithm entry points (`run_alg2`, `run_alg3`,
//! `run_rounding`, the invariant checkers, …) remain available from
//! [`kw_core`] for experiments that dissect a single stage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kw_baselines as baselines;
pub use kw_core as core;
pub use kw_graph as graph;
pub use kw_lint as lint;
pub use kw_lp as lp;
pub use kw_results as results;
pub use kw_serve as serve;
pub use kw_sim as sim;
pub use kw_trace as trace;

/// The full solver registry: the paper's solvers (`kw`, `alg2`,
/// `composite`) plus all five baselines and the `connected` combinator.
pub fn default_registry() -> kw_core::solver::SolverRegistry {
    kw_baselines::registry()
}

/// The most common imports, for `use kw_domset::prelude::*`.
pub mod prelude {
    pub use kw_core::solver::{
        DsSolver, ExperimentRunner, SolveContext, SolveError, SolveReport, SolverRegistry,
        SolverSpec,
    };
    pub use kw_core::solver::{RunEvent, RunRecord};
    pub use kw_graph::{
        CsrGraph, DominatingSet, FractionalAssignment, GraphBuilder, NodeId, VertexWeights,
    };
    pub use kw_results::{RunStore, Summary, SweepSession};
    pub use kw_sim::{Engine, EngineConfig, EngineStats, RunMetrics, Sink};
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_registry_has_all_documented_names() {
        let registry = super::default_registry();
        for name in [
            "kw",
            "alg2",
            "composite",
            "greedy",
            "jrs",
            "luby-mis",
            "trivial",
            "connected",
        ] {
            assert!(registry.contains(name), "{name} missing");
        }
    }
}
