//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! Each experiment (T1–T8, F1, A1–A3, C1, I1) has a binary
//! (`src/bin/exp_*.rs`) that prints a paper-style table and asserts its
//! theorem bounds. Wall-clock performance is not measured here but in
//! one place, the `kwperf` package at the repository root (see
//! `BENCHMARK.json` and `kwperf/METRICS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod denominators;
pub mod instances;
pub mod mix;
pub mod workloads;
