//! Regression gate over run stores.
//!
//! ```text
//! regress <baseline.jsonl> <candidate.jsonl> [--time-ratio R]
//!         [--quality-ratio R] [--min-wall-ms X] [--phase-share-drift D]
//! regress --validate <store.jsonl>
//! ```
//!
//! Compares the candidate store's summary (plus bench lines and trace
//! phase shares) against the baseline's; prints every finding and exits
//! 1 if any, 0 when clean, 2 on usage or load errors. Every budget must
//! be a finite number ≥ 0, and the two ratios must also be > 0:
//! anything else is a usage error. `--validate` just schema-checks one
//! store (CI uses it on the stores its smoke steps write, whose absolute
//! timings are machine-dependent and therefore not gated).

use kw_results::regress::{compare, compare_benches, compare_traces, RegressPolicy};
use kw_results::store::{load_path, StoreContents};
use kw_results::summary::Summary;

fn usage() -> ! {
    eprintln!(
        "usage: regress <baseline.jsonl> <candidate.jsonl> \
         [--time-ratio R] [--quality-ratio R] [--min-wall-ms X] \
         [--phase-share-drift D]\n\
         \x20      regress --validate <store.jsonl>"
    );
    std::process::exit(2);
}

fn load(path: &str) -> StoreContents {
    // Strictly read-only: a gate must never conjure a missing baseline
    // into existence and call it a pass, repair tails, or contend for
    // the writer lock a live daemon or sweep is holding.
    if !std::path::Path::new(path).exists() {
        eprintln!("regress: store {path} does not exist");
        std::process::exit(2);
    }
    match load_path(path) {
        Ok(contents) => contents,
        Err(e) => {
            eprintln!("regress: cannot load {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses a budget flag's value: a finite number ≥ 0, and > 0 for the
/// two ratios. Every gate has the form `fresh > base * budget` or
/// `drift > budget`, which is never true against NaN or infinity, so a
/// non-finite budget would pass any candidate.
fn budget(text: &str, ratio: bool) -> Option<f64> {
    let v: f64 = text.parse().ok()?;
    (v.is_finite() && v >= 0.0 && !(ratio && v == 0.0)).then_some(v)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--validate") {
        let [_, path] = args.as_slice() else { usage() };
        let contents = load(path);
        println!(
            "{path}: valid ({} manifests, {} records, {} bench lines, {} trace lines{})",
            contents.manifests.len(),
            contents.records.len(),
            contents.benches.len(),
            contents.traces.len(),
            if contents.truncated_tail {
                ", torn tail skipped"
            } else {
                ""
            }
        );
        return;
    }
    let mut policy = RegressPolicy::default();
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (target, ratio) = match arg.as_str() {
            "--time-ratio" => (&mut policy.max_time_ratio, true),
            "--quality-ratio" => (&mut policy.max_quality_ratio, true),
            "--min-wall-ms" => (&mut policy.min_wall_ms, false),
            "--phase-share-drift" => (&mut policy.max_phase_share_drift, false),
            _ if arg.starts_with("--") => usage(),
            _ => {
                paths.push(arg.clone());
                continue;
            }
        };
        match it.next().and_then(|v| budget(v, ratio)) {
            Some(v) => *target = v,
            None => usage(),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        usage()
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    let mut findings = compare(
        &Summary::from_records(&baseline.records),
        &Summary::from_records(&candidate.records),
        &policy,
    );
    findings.extend(compare_benches(
        &baseline.benches,
        &candidate.benches,
        &policy,
    ));
    findings.extend(compare_traces(&baseline.traces, &candidate.traces, &policy));
    if findings.is_empty() {
        println!(
            "regress: OK — {candidate_path} holds the line against {baseline_path} \
             (time budget {:.0}%, quality budget {:.0}%, phase-share budget {:.0}pp)",
            (policy.max_time_ratio - 1.0) * 100.0,
            (policy.max_quality_ratio - 1.0) * 100.0,
            policy.max_phase_share_drift * 100.0,
        );
        return;
    }
    eprintln!(
        "regress: {} regression(s) in {candidate_path} vs {baseline_path}:",
        findings.len()
    );
    for finding in &findings {
        eprintln!("  {finding}");
    }
    std::process::exit(1);
}
