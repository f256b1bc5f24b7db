//! The paper's algorithms: constant-time distributed dominating set
//! approximation (Kuhn & Wattenhofer, PODC 2003).
//!
//! This crate implements the paper's entire algorithmic content as node
//! programs for the [`kw_sim`] LOCAL-model simulator, plus centralized
//! lockstep reference implementations used as test oracles:
//!
//! * [`alg2`] — `LP_MDS` approximation with known `Δ`:
//!   `k(Δ+1)^{2/k}`-approximation in `2k²` rounds (Theorem 4);
//! * [`alg3`] — `LP_MDS` approximation with **no global knowledge**:
//!   `k((Δ+1)^{1/k}+(Δ+1)^{2/k})`-approximation in `4k²+2k` rounds
//!   (Theorem 5);
//! * [`rounding`] — distributed randomized rounding with deterministic
//!   fallback: expected `(1+α·ln(Δ+1))`-factor blowup (Theorem 3), plus
//!   the remark's alternative multiplier;
//! * [`weighted`] — the weighted fractional dominating set variant
//!   (remark after Theorem 4);
//! * [`PipelineSolver`] — the composed algorithm of Theorem 6 (registry
//!   name `kw`): expected `O(k·Δ^{2/k}·log Δ)`-approximate dominating
//!   sets in `O(k²)` rounds;
//! * [`composite`] — the same algorithm as a *single* node program on a
//!   single engine run (`4k² + 2k + 2` rounds), for uninterrupted
//!   end-to-end metrics;
//! * [`invariants`] — runtime checkers for the proofs' loop invariants
//!   (Lemmas 2–7) and the Figure-1 covering cascade;
//! * [`math`] — the bound formulas, one function per theorem;
//! * [`solver`] — the unified [`DsSolver`], [`SolverRegistry`], and
//!   [`ExperimentRunner`] every algorithm (and every baseline in
//!   `kw_baselines`) is reachable through.
//!
//! # Example
//!
//! ```
//! use kw_graph::generators;
//! use kw_core::{math, SolveContext, SolverRegistry};
//!
//! let g = generators::star_of_cliques(5, 6);
//! let solver = SolverRegistry::with_core_solvers().build("kw:k=2")?;
//! let report = solver.solve(&g, &SolveContext::seeded(1))?;
//! assert!(report.dominating_set.is_dominating(&g));
//! // O(k²) rounds: 4k² + 2k for Algorithm 3, plus 2 for the rounding.
//! assert_eq!(report.rounds(), math::alg3_rounds(2) + 2);
//! # Ok::<(), kw_core::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg2;
pub mod alg3;
pub mod composite;
mod error;
pub mod invariants;
pub mod math;
pub mod rounding;
pub mod solver;
pub mod weighted;

pub use error::CoreError;
pub use solver::{
    DsSolver, ExperimentRunner, FractionalSolver, PipelineSolver, SolveContext, SolveError,
    SolveReport, SolverRegistry,
};
