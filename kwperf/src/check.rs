//! Answer checks: every operation a workload attempts is counted here, and
//! every answer is checked against the paper's guarantees and the pinned
//! values in `pins.txt`.

use std::collections::{BTreeMap, HashMap};

use kw_domset::core::math::alg3_rounds;
use kw_domset::core::solver::{RunRecord, SolveReport};
use kw_domset::graph::CsrGraph;

/// Pinned `|DS|` and message count per `(workload label, solver, chaos,
/// seed)`, one tab-separated line each. Regenerate with `kwperf --pin`.
const PINS: &str = include_str!("../pins.txt");

/// Most failure messages kept for the report; the count is kept in full.
const MAX_ERRORS: usize = 20;

/// One answer as the checks see it, whichever layer produced it.
#[derive(Clone, Debug)]
pub struct Answer<'a> {
    /// Workload label (the cache and store key of the graph).
    pub label: &'a str,
    /// Canonical solver spec.
    pub solver: &'a str,
    /// Canonical chaos spec (`""` = reliable).
    pub chaos: &'a str,
    /// Solve seed.
    pub seed: u64,
    /// Node count of the graph.
    pub n: usize,
    /// Maximum degree of the graph.
    pub max_degree: usize,
    /// Whether the answer carried a quality certificate.
    pub certified: bool,
    /// Whether the certificate says the set dominates.
    pub dominates: bool,
    /// Dominating-set size.
    pub size: u64,
    /// Synchronous rounds.
    pub rounds: u64,
    /// Simulated messages.
    pub messages: u64,
    /// Whether `pins.txt` must hold this cell.
    pub pinned: bool,
}

impl<'a> Answer<'a> {
    /// The answer a solver report carries for `(label, seed)` on `g`.
    pub fn from_report(label: &'a str, seed: u64, g: &CsrGraph, report: &'a SolveReport) -> Self {
        Answer {
            label,
            solver: &report.solver,
            chaos: "",
            seed,
            n: g.len(),
            max_degree: g.max_degree(),
            certified: report.certificate.is_some(),
            dominates: report.certificate.as_ref().is_some_and(|c| c.dominates),
            size: report.size() as u64,
            rounds: report.rounds() as u64,
            messages: report.messages(),
            pinned: false,
        }
    }

    /// The answer a run record carries; every record comes from a
    /// certified solve of a pinned cell.
    pub fn from_record(r: &'a RunRecord) -> Self {
        Answer {
            label: &r.workload,
            solver: &r.solver,
            chaos: &r.chaos,
            seed: r.seed,
            n: r.n,
            max_degree: r.max_degree,
            certified: true,
            dominates: r.outcome.dominates,
            size: r.outcome.size as u64,
            rounds: r.outcome.rounds as u64,
            messages: r.outcome.messages as u64,
            pinned: true,
        }
    }
}

/// Operation and failure counts of one run, plus the pin table.
#[derive(Debug)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    pins: HashMap<String, (u64, u64)>,
    /// Pins observed in `--pin` mode (checks against the table are off).
    recorded: Option<BTreeMap<String, (u64, u64)>>,
}

impl Checks {
    /// Checks against the compiled-in pin table.
    pub fn new() -> Result<Self, String> {
        let mut pins = HashMap::new();
        for (i, line) in PINS.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [label, solver, chaos, seed, size, messages] = fields.as_slice() else {
                return Err(format!(
                    "pins.txt line {}: expected 6 tab-separated fields",
                    i + 1
                ));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("pins.txt line {}: bad number {s:?}", i + 1))
            };
            let chaos = if *chaos == "-" { "" } else { chaos };
            let key = pin_key(label, solver, chaos, num(seed)?);
            pins.insert(key, (num(size)?, num(messages)?));
        }
        Ok(Checks {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            pins,
            recorded: None,
        })
    }

    /// Records every pinned cell instead of checking it (`--pin`).
    pub fn recording() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            pins: HashMap::new(),
            recorded: Some(BTreeMap::new()),
        }
    }

    /// Counts one operation and its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Counts one operation that failed outright.
    pub fn failed_op(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.fail(reason.into());
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(reason);
        }
    }

    /// Counts one answer and checks it.
    pub fn answer(&mut self, a: &Answer) {
        let outcome = self.verify(a);
        self.op(outcome);
    }

    fn verify(&mut self, a: &Answer) -> Result<(), String> {
        let cell = format!(
            "{} on {} (seed {}, chaos {:?})",
            a.solver, a.label, a.seed, a.chaos
        );
        if !a.certified {
            return Err(format!("{cell}: answer carries no certificate"));
        }
        if a.chaos.is_empty() && !a.dominates {
            return Err(format!("{cell}: reliable answer does not dominate"));
        }
        // Cost model (Theorem 5 plus the two rounding rounds): the
        // constant-round solvers take exactly 4k² + 2k + 2 rounds, and no
        // node sends more than Δ messages in one round.
        if let Some(k) = paper_k(a.solver) {
            let expected = alg3_rounds(k) as u64 + 2;
            if a.rounds != expected {
                return Err(format!(
                    "{cell}: {} rounds, cost model says alg3_rounds({k}) + 2 = {expected}",
                    a.rounds
                ));
            }
            if a.messages as f64 / a.n.max(1) as f64 > (a.rounds * a.max_degree as u64) as f64 {
                return Err(format!(
                    "{cell}: {} messages exceed rounds × Δ per node",
                    a.messages
                ));
            }
        }
        if !a.pinned {
            return Ok(());
        }
        let key = pin_key(a.label, a.solver, a.chaos, a.seed);
        let seen = (a.size, a.messages);
        if let Some(recorded) = &mut self.recorded {
            return match recorded.insert(key, seen) {
                Some(prev) if prev != seen => Err(format!(
                    "{cell}: nondeterministic answer {seen:?} vs {prev:?}"
                )),
                _ => Ok(()),
            };
        }
        match self.pins.get(&key) {
            Some(&pinned) if pinned == seen => Ok(()),
            Some(&(size, messages)) => Err(format!(
                "{cell}: |DS| = {}, messages = {}; pinned {size}, {messages}",
                a.size, a.messages
            )),
            None => Err(format!("{cell}: no pinned value in pins.txt")),
        }
    }

    /// The `pins.txt` lines recorded in `--pin` mode.
    pub fn pin_lines(&self) -> Vec<String> {
        self.recorded
            .iter()
            .flatten()
            .map(|(key, (size, messages))| format!("{key}\t{size}\t{messages}"))
            .collect()
    }
}

fn pin_key(label: &str, solver: &str, chaos: &str, seed: u64) -> String {
    let chaos = if chaos.is_empty() { "-" } else { chaos };
    format!("{label}\t{solver}\t{chaos}\t{seed}")
}

/// `k` of the paper's constant-round solvers (`kw`, `composite`), whose
/// round count the cost model fixes.
fn paper_k(solver: &str) -> Option<u32> {
    let rest = solver
        .strip_prefix("kw:k=")
        .or_else(|| solver.strip_prefix("composite:k="))?;
    rest.split(',').next()?.parse().ok()
}
