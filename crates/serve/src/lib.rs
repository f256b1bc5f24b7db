//! Solve-as-a-service for the Kuhn–Wattenhofer reproduction.
//!
//! This crate turns the workspace's solver stack into a long-running
//! daemon (`kw-serve`) plus a load generator (`kw-load`), built on
//! nothing but `std`:
//!
//! * [`http`] — a strict, incremental HTTP/1.1 parser and renderer with
//!   hard limits on untrusted input;
//! * [`service`] — request routing and the solve path: specs are parsed
//!   with the same grammars as CLI sweeps, answers are memoized in an
//!   [`kw_core::solver::ExperimentCache`] and persisted to a
//!   [`kw_results::store::RunStore`], so a restarted daemon re-serves
//!   every previous answer without re-solving;
//! * [`server`] — the bounded worker pool with backpressure (503 +
//!   `Retry-After`), per-request deadlines, and graceful drain;
//! * [`telemetry`] — Prometheus-text counters and a fixed-bucket
//!   latency histogram whose percentiles share
//!   [`kw_results::nearest_rank`] with the sweep summaries;
//! * [`load`] — the blocking client and the load generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod load;
pub mod server;
pub mod service;
pub mod telemetry;

pub use http::{parse_request, HttpViolation, Request, Response};
pub use load::{http_request, run_load, ClientResponse, LoadReport};
pub use server::{ServeConfig, Server};
pub use service::{ServeError, SolveService};
pub use telemetry::{LatencyHistogram, Telemetry};
