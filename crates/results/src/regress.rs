//! Regression gating: diff a fresh [`Summary`] against a stored
//! baseline and flag answers that got worse — missing cells, new
//! non-dominating runs, or grown set sizes.
//!
//! Set sizes are deterministic given seeds, so any growth beyond a
//! tight relative tolerance is a real algorithmic change. Wall time is
//! not gated here: it is a measurement of one host, and the `kwperf`
//! benchmark at the repository root is where speed is judged.

use std::fmt;

use crate::summary::Summary;

/// Thresholds for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct RegressPolicy {
    /// A cell's mean set size may grow to at most
    /// `baseline × max_quality_ratio` (default 1.02).
    pub max_quality_ratio: f64,
}

impl Default for RegressPolicy {
    fn default() -> Self {
        RegressPolicy {
            max_quality_ratio: 1.02,
        }
    }
}

/// One detected regression.
#[derive(Clone, Debug, PartialEq)]
pub enum Regression {
    /// Mean set size grew beyond the quality tolerance.
    Quality {
        /// Solver spec of the regressing cell.
        solver: String,
        /// Workload label of the regressing cell.
        workload: String,
        /// Baseline mean size.
        baseline: f64,
        /// Fresh mean size.
        fresh: f64,
    },
    /// More non-dominating runs than the baseline.
    MoreFailures {
        /// Solver spec of the regressing cell.
        solver: String,
        /// Workload label of the regressing cell.
        workload: String,
        /// Baseline failure count.
        baseline: usize,
        /// Fresh failure count.
        fresh: usize,
    },
    /// A baseline cell is absent from the fresh summary.
    MissingCell {
        /// Solver spec of the absent cell.
        solver: String,
        /// Workload label of the absent cell.
        workload: String,
    },
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regression::Quality {
                solver,
                workload,
                baseline,
                fresh,
            } => write!(
                f,
                "QUALITY  {solver} on {workload}: mean |DS| {baseline:.2} -> {fresh:.2} ({:+.1}%)",
                100.0 * (fresh / baseline - 1.0)
            ),
            Regression::MoreFailures {
                solver,
                workload,
                baseline,
                fresh,
            } => write!(
                f,
                "FAILURES {solver} on {workload}: non-dominating runs {baseline} -> {fresh}"
            ),
            Regression::MissingCell { solver, workload } => {
                write!(
                    f,
                    "MISSING  {solver} on {workload}: cell absent from fresh run"
                )
            }
        }
    }
}

/// Diffs `fresh` against `baseline` cell by cell, matching on
/// `(solver, workload, chaos)` — a chaotic cell is only ever compared
/// against the same chaos plan, never against the clean baseline of the
/// same workload. Cells only in `fresh` are ignored (new coverage is not
/// a regression); cells only in `baseline` are reported as
/// [`Regression::MissingCell`]. In findings, a non-reliable chaos spec
/// is folded into the workload display as `workload (chaos:spec)`.
pub fn compare(baseline: &Summary, fresh: &Summary, policy: &RegressPolicy) -> Vec<Regression> {
    let mut findings = Vec::new();
    for base in &baseline.cells {
        let workload = if base.chaos.is_empty() {
            base.workload.clone()
        } else {
            format!("{} (chaos:{})", base.workload, base.chaos)
        };
        let Some(new) = fresh.cell_under(&base.solver, &base.workload, &base.chaos) else {
            findings.push(Regression::MissingCell {
                solver: base.solver.clone(),
                workload,
            });
            continue;
        };
        if new.failures > base.failures {
            findings.push(Regression::MoreFailures {
                solver: base.solver.clone(),
                workload: workload.clone(),
                baseline: base.failures,
                fresh: new.failures,
            });
        }
        if base.size.count > 0
            && new.size.count > 0
            && new.size.mean > base.size.mean * policy.max_quality_ratio + 1e-9
        {
            findings.push(Regression::Quality {
                solver: base.solver.clone(),
                workload: workload.clone(),
                baseline: base.size.mean,
                fresh: new.size.mean,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::solver::{RunOutcome, RunRecord};

    fn record(solver: &str, workload: &str, seed: u64, size: f64, wall_ms: f64) -> RunRecord {
        RunRecord {
            solver: solver.into(),
            workload: workload.into(),
            n: 64,
            max_degree: 8,
            seed,
            chaos: String::new(),
            threads: 1,
            outcome: RunOutcome {
                dominates: true,
                size,
                rounds: 18.0,
                messages: 500.0,
                bits: 4000.0,
                ratio_vs_lemma1: size / 7.0,
                wall_ms,
            },
        }
    }

    fn summary(scale_size: f64, scale_time: f64) -> Summary {
        Summary::from_records(&[
            record("kw:k=2", "grid", 0, 10.0 * scale_size, 2.0 * scale_time),
            record("kw:k=2", "grid", 1, 12.0 * scale_size, 2.2 * scale_time),
            record("greedy", "grid", 0, 8.0 * scale_size, 0.5 * scale_time),
        ])
    }

    #[test]
    fn identical_summaries_pass() {
        let base = summary(1.0, 1.0);
        assert!(compare(&base, &base, &RegressPolicy::default()).is_empty());
        // Wall time is a measurement, not an answer: it never gates.
        let slow = summary(1.0, 10.0);
        assert!(compare(&base, &slow, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn quality_growth_fails_the_quality_gate() {
        let base = summary(1.0, 1.0);
        let worse = summary(1.10, 1.0);
        let findings = compare(&base, &worse, &RegressPolicy::default());
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::Quality { .. })));
        // 1% growth is within the default 2% tolerance.
        let ok = summary(1.01, 1.0);
        assert!(compare(&base, &ok, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn new_failures_and_missing_cells_are_flagged() {
        let base = summary(1.0, 1.0);
        let mut bad_records = vec![
            record("kw:k=2", "grid", 0, 10.0, 2.0),
            record("kw:k=2", "grid", 1, 12.0, 2.2),
        ];
        bad_records[1].outcome.dominates = false;
        let fresh = Summary::from_records(&bad_records); // greedy cell gone too
        let findings = compare(&base, &fresh, &RegressPolicy::default());
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::MoreFailures { .. })));
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::MissingCell { solver, .. } if solver == "greedy")));
    }

    #[test]
    fn chaos_cells_gate_independently_of_clean_cells() {
        let chaotic = |size: f64| {
            let mut r = record("kw:k=2", "grid", 0, size, 2.0);
            r.chaos = "drop=0.2,seed=7".into();
            r
        };
        let base = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(14.0)]);
        // The chaotic cell degrades; the clean cell is unchanged. Only
        // the chaotic cell may be flagged — and under its chaos label.
        let fresh = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(16.0)]);
        let findings = compare(&base, &fresh, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::Quality { workload, .. } if workload == "grid (chaos:drop=0.2,seed=7)"
        ));
        // A fresh run that dropped the chaotic cell but kept the clean
        // one reports exactly the chaotic cell missing, not the clean.
        let clean_only = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0)]);
        let findings = compare(&base, &clean_only, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::MissingCell { workload, .. } if workload == "grid (chaos:drop=0.2,seed=7)"
        ));
    }
}
