//! The `regress` binary's budget flags: every gate tests
//! `fresh > base * budget` or `drift > budget`, which is never true
//! against NaN or infinity, so a non-finite budget would wave through any
//! candidate. Such budgets (and negative ones, and zero ratios) must be
//! usage errors (exit 2), while finite budgets keep gating.

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

/// Writes a store of two cells × three seeds whose set sizes and wall
/// times are scaled by `size_scale` and `time_scale`.
fn write_store(path: &Path, size_scale: f64, time_scale: f64) {
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
                        wall_ms: 2.0 * time_scale,
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
    write_store(&base, 1.0, 1.0);
    // 3x the set sizes and 10x the wall times: every gate should fire.
    write_store(&worse, 3.0, 10.0);
    assert_eq!(regress(&base, &worse, &[]), 1, "default budgets fail it");
    for flags in [
        &["--time-ratio", "nan", "--quality-ratio", "nan"][..],
        &["--time-ratio", "inf"],
        &["--quality-ratio", "infinity"],
        &["--time-ratio", "-inf"],
        &["--min-wall-ms", "inf"],
        &["--min-wall-ms", "NaN"],
        &["--phase-share-drift", "nan"],
        &["--phase-share-drift", "-0.1"],
        &["--time-ratio", "-2"],
        &["--time-ratio", "0"],
        &["--quality-ratio", "0"],
    ] {
        assert_eq!(
            regress(&base, &worse, flags),
            2,
            "{flags:?} must be a usage error"
        );
    }
    // Finite budgets keep gating: wide enough for 3x sizes and 10x times
    // passes the candidate, loosening only the time budget still trips
    // the quality gate, and a zero absolute budget is a legal setting.
    let wide = ["--time-ratio", "20", "--quality-ratio", "5"];
    assert_eq!(regress(&base, &worse, &wide), 0);
    assert_eq!(regress(&base, &worse, &["--time-ratio", "20"]), 1);
    assert_eq!(regress(&base, &base, &["--min-wall-ms", "0"]), 0);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&worse);
}
