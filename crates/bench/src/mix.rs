//! Named request mixes for the serving layer.
//!
//! A *mix* is a list of `(solver spec, workload spec, seed, chaos)`
//! cells that a load generator replays against a `kw-serve` daemon. Mixes deliberately
//! contain few distinct cells: replaying more requests than cells is what
//! exercises the answer cache, which is the serving story's whole point
//! (a constant-round solve is computed once and then served from memory).
//!
//! Every entry uses the same spec grammars as the rest of the workspace
//! ([`Workload::parse`](crate::workloads::Workload::parse) and
//! `SolverSpec::parse`), so anything servable in a sweep is servable
//! under load, and vice versa.

/// One request of a serving mix: which solver on which workload with
/// which seed, under which chaos plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixEntry {
    /// Solver spec string (e.g. `"kw:k=2"`).
    pub solver: String,
    /// Workload spec string (e.g. `"grid:side=6"`).
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Chaos clause in the sweep grammar (`""` = reliable network); the
    /// daemon normalizes it through `ChaosPlan::parse`, so two clauses
    /// spelling the same plan share one cache cell.
    pub chaos: String,
    /// Engine worker threads for the solve (`1` = sequential). Part of
    /// the daemon's cache key — outcomes are bit-identical across thread
    /// counts, but wall times are not — so two entries differing only
    /// here are distinct cells.
    pub threads: usize,
}

impl MixEntry {
    fn new(solver: &str, workload: &str, seed: u64) -> Self {
        MixEntry {
            solver: solver.to_string(),
            workload: workload.to_string(),
            seed,
            chaos: String::new(),
            threads: 1,
        }
    }

    fn chaotic(solver: &str, workload: &str, seed: u64, chaos: &str) -> Self {
        MixEntry {
            chaos: chaos.to_string(),
            ..MixEntry::new(solver, workload, seed)
        }
    }

    fn threaded(solver: &str, workload: &str, seed: u64, threads: usize) -> Self {
        MixEntry {
            threads,
            ..MixEntry::new(solver, workload, seed)
        }
    }
}

/// The CI smoke mix: 8 distinct cells over two solvers, two small
/// generated workloads, and two seeds. Small enough that a burst
/// completes in seconds; any burst longer than 8 requests is guaranteed
/// to produce cache hits.
pub fn smoke_mix() -> Vec<MixEntry> {
    let mut mix = Vec::new();
    for solver in ["kw:k=2", "greedy"] {
        for workload in ["grid:side=6", "gnp:n=64,p=0.1"] {
            for seed in [0, 1] {
                mix.push(MixEntry::new(solver, workload, seed));
            }
        }
    }
    mix
}

/// A broader (still laptop-sized) mix: the small solver suite over
/// mixed-topology workloads and three seeds — 45 distinct cells. The
/// default for interactive `kw-load` runs.
pub fn small_mix() -> Vec<MixEntry> {
    let mut mix = Vec::new();
    for solver in ["kw:k=2", "kw:k=3", "greedy", "jrs", "trivial"] {
        for workload in ["grid:side=8", "gnp:n=128,p=0.05", "ba:n=128,m=3"] {
            for seed in 0..3 {
                mix.push(MixEntry::new(solver, workload, seed));
            }
        }
    }
    mix
}

/// The chaotic mix: one solver on one small grid, seed pinned, with the
/// chaos clause as the *only* axis — a clean control plus iid drops,
/// burst loss, a crash, a byzantine sender, and the full ISSUE-grammar
/// combination. Every entry is a distinct cache cell purely by chaos
/// spec, so replaying this mix exercises chaos-keyed caching end to end.
pub fn chaos_mix() -> Vec<MixEntry> {
    let cell = |chaos| MixEntry::chaotic("kw:k=2", "grid:side=5", 0, chaos);
    vec![
        cell(""),
        cell("drop=0.1,seed=5"),
        cell("burst=r1-3@0.9"),
        cell("crash=3@r2"),
        cell("byz=2"),
        cell("chaos:drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3"),
    ]
}

/// The scaling mix: one solver on one mid-size gnp workload, seed
/// pinned, with the engine thread count as the *only* axis. Every entry
/// is a distinct cache cell purely by thread count, so replaying this mix
/// exercises threads-keyed caching end to end; on a multi-core host it
/// also surfaces the wall-time spread across worker counts.
pub fn scaling_mix() -> Vec<MixEntry> {
    [1, 2, 4, 8]
        .into_iter()
        .map(|threads| MixEntry::threaded("kw:k=2", "gnp:n=512,p=0.02", 0, threads))
        .collect()
}

/// Resolves a mix by name (`"smoke"`, `"small"`, `"chaos"`, or
/// `"scaling"`).
pub fn by_name(name: &str) -> Option<Vec<MixEntry>> {
    match name {
        "smoke" => Some(smoke_mix()),
        "small" => Some(small_mix()),
        "chaos" => Some(chaos_mix()),
        "scaling" => Some(scaling_mix()),
        _ => None,
    }
}

/// The names [`by_name`] accepts, for usage messages.
pub const MIX_NAMES: &[&str] = &["smoke", "small", "chaos", "scaling"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use kw_core::solver::SolverSpec;
    use kw_sim::ChaosPlan;

    #[test]
    fn every_mix_entry_parses_under_the_shared_grammars() {
        for name in MIX_NAMES {
            let mix = by_name(name).unwrap();
            assert!(!mix.is_empty());
            for entry in &mix {
                Workload::parse(&entry.workload)
                    .unwrap_or_else(|e| panic!("{name}: workload {:?}: {e}", entry.workload));
                SolverSpec::parse(&entry.solver)
                    .unwrap_or_else(|e| panic!("{name}: solver {:?}: {e}", entry.solver));
                ChaosPlan::parse(&entry.chaos)
                    .unwrap_or_else(|e| panic!("{name}: chaos {:?}: {e}", entry.chaos));
            }
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn chaos_mix_cells_are_distinct_by_canonical_chaos_spec() {
        let mix = chaos_mix();
        let mut specs: Vec<String> = mix
            .iter()
            .map(|e| ChaosPlan::parse(&e.chaos).unwrap().spec())
            .collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), mix.len(), "each entry must be its own cell");
        assert!(
            mix.iter().any(|e| !e.chaos.is_empty()),
            "the chaos mix must actually carry chaos"
        );
        // Every entry shares (solver, workload, seed): the chaos clause
        // really is the only axis distinguishing the cells.
        assert!(mix
            .iter()
            .all(|e| (e.solver.as_str(), e.workload.as_str(), e.seed)
                == (
                    mix[0].solver.as_str(),
                    mix[0].workload.as_str(),
                    mix[0].seed
                )));
        // The full-combination entry keeps byzantine corruption in play.
        let full = ChaosPlan::parse(&mix[5].chaos).unwrap();
        assert!(full.has_byzantine() && full.has_down() && !full.lossless());
    }

    #[test]
    fn scaling_mix_varies_only_the_thread_count() {
        let mix = scaling_mix();
        let mut threads: Vec<usize> = mix.iter().map(|e| e.threads).collect();
        assert!(threads.contains(&1), "a 1-thread anchor cell is required");
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), mix.len(), "each entry must be its own cell");
        assert!(mix.iter().all(|e| (
            e.solver.as_str(),
            e.workload.as_str(),
            e.seed,
            e.chaos.as_str()
        ) == (
            mix[0].solver.as_str(),
            mix[0].workload.as_str(),
            mix[0].seed,
            mix[0].chaos.as_str()
        )));
    }

    #[test]
    fn smoke_mix_is_small_and_distinct() {
        let mix = smoke_mix();
        assert_eq!(mix.len(), 8);
        let mut unique = mix.clone();
        unique.dedup();
        unique.sort_by(|a, b| {
            (&a.solver, &a.workload, a.seed).cmp(&(&b.solver, &b.workload, b.seed))
        });
        unique.dedup();
        assert_eq!(unique.len(), mix.len(), "cells must be distinct");
        // Every workload in the smoke mix is generated (never an
        // instance file), so the daemon can serve it from any cwd.
        for entry in &mix {
            assert!(!entry.workload.starts_with("dimacs:"));
        }
    }
}
