//! The `regress` binary's one budget flag, `--quality-ratio`: the gate
//! tests `fresh > base * ratio`, which is never true against NaN or
//! infinity, so a non-finite ratio would wave through any candidate.
//! Such ratios (and negative and zero ones) must be usage errors
//! (exit 2), while finite ratios keep gating.

use std::path::{Path, PathBuf};
use std::process::Command;

use kw_core::solver::RunOutcome;
use kw_results::store::RunStore;
use kw_results::RunRecord;

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "kw_regress_budget_test_{}_{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Writes a store of two cells × three seeds whose set sizes are scaled
/// by `size_scale`.
fn write_store(path: &Path, size_scale: f64) {
    let store = RunStore::open(path).expect("store opens");
    for solver in ["kw:k=2", "greedy"] {
        for seed in 0..3 {
            let size = (10 + seed) as f64 * size_scale;
            store
                .append_record(&RunRecord {
                    solver: solver.into(),
                    workload: "grid8".into(),
                    n: 64,
                    max_degree: 4,
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
                        wall_ms: 2.0,
                    },
                })
                .expect("record appends");
        }
    }
}

/// Runs `regress <base> <candidate> <flags…>` and returns its exit code.
fn regress(base: &Path, candidate: &Path, flags: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_regress"))
        .arg(base)
        .arg(candidate)
        .args(flags)
        .output()
        .expect("regress runs")
        .status
        .code()
        .expect("regress exits with a code")
}

#[test]
fn only_finite_non_negative_budgets_and_positive_ratios_are_accepted() {
    let base = temp_store("base");
    let worse = temp_store("worse");
    write_store(&base, 1.0);
    // 3x the set sizes: the quality gate should fire.
    write_store(&worse, 3.0);
    assert_eq!(regress(&base, &worse, &[]), 1, "default budget fails it");
    for flags in [
        &["--quality-ratio", "nan"][..],
        &["--quality-ratio", "infinity"],
        &["--quality-ratio", "-inf"],
        &["--quality-ratio", "-2"],
        &["--quality-ratio", "0"],
        &["--quality-ratio"],
        // Time is not gated here, so the retired time flags are unknown.
        &["--time-ratio", "20"],
        &["--min-wall-ms", "0"],
    ] {
        assert_eq!(
            regress(&base, &worse, flags),
            2,
            "{flags:?} must be a usage error"
        );
    }
    // Finite ratios keep gating: wide enough for 3x sizes passes the
    // candidate, and a narrower one still trips the quality gate.
    assert_eq!(regress(&base, &worse, &["--quality-ratio", "5"]), 0);
    assert_eq!(regress(&base, &worse, &["--quality-ratio", "2"]), 1);
    assert_eq!(regress(&base, &base, &[]), 0);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&worse);
}
