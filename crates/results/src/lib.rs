//! # kw-results — the streaming results pipeline
//!
//! Experiment output used to be barrier-shaped: a binary ran its whole
//! solver × workload × seed matrix, then pretty-printed a table that
//! died with the process. This crate is the layer that makes results
//! *stream* and *persist* (ROADMAP item (c)):
//!
//! * **Events** — [`ExperimentRunner::run_matrix_streaming`] emits a
//!   [`RunEvent`] per `(solver, workload, seed)` cell over a bounded
//!   MPSC channel; [`pipeline::stream_sweep`] pairs it with a consumer
//!   thread so one caller can run and observe simultaneously.
//! * **Store** — [`store::RunStore`] is an append-only JSONL file with a
//!   versioned schema ([`store::SCHEMA_VERSION`]) holding sweep
//!   manifests (solver specs, workloads, seeds, fault plan, git
//!   describe), per-cell run records, and profiled-solve traces.
//!   Appends are crash-safe (one flushed write per line; torn tails are
//!   repaired on open) and stores replay into an [`ExperimentCache`], so
//!   a killed sweep resumes by solving only its missing cells.
//! * **Summaries** — [`summary::Summary`] is the one rollup of run
//!   records, per cell and per solver with mean/p50/p95 (quality stats
//!   exclude non-dominating runs), rendering to markdown or CSV.
//! * **Regression gating** — [`regress::compare`] diffs a fresh summary
//!   against a stored baseline and flags missing cells, new failures,
//!   and set-size growth. It gates answers only: speed is judged by the
//!   `kwperf` benchmark. The `regress` binary exits non-zero on
//!   findings, and `store_smoke` is the CI end-to-end check (sweep →
//!   validate → resume → 100% cache hits).
//! * **Traces** — profiled solves ([`kw_trace`] spans through
//!   `SolveContext::trace`) persist as `trace` store lines
//!   ([`store::TraceRecord`]).
//!
//! [`ExperimentRunner::run_matrix_streaming`]:
//!     kw_core::solver::ExperimentRunner::run_matrix_streaming
//! [`ExperimentCache`]: kw_core::solver::ExperimentCache
//! [`RunEvent`]: kw_core::solver::RunEvent

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pipeline;
pub mod regress;
pub mod render;
pub mod store;
pub mod summary;

pub use pipeline::{stream_sweep, PipelineError, SweepOutcome, SweepSession};
pub use regress::{compare, RegressPolicy, Regression};
pub use render::Table;
pub use store::{load_path, RunManifest, RunStore, StoreError, TraceRecord, SCHEMA_VERSION};
pub use summary::{nearest_rank, CellRollup, Percentiles, SolverRollup, Summary};

// The event types are defined next to the runner that emits them; this
// crate is their natural home from a consumer's point of view.
pub use kw_core::solver::{RunEvent, RunRecord};
