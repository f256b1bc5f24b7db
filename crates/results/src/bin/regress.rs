//! Regression gate over run stores.
//!
//! ```text
//! regress <baseline.jsonl> <candidate.jsonl> [--quality-ratio R]
//! regress --validate <store.jsonl>
//! ```
//!
//! Compares the candidate store's summary against the baseline's:
//! missing cells, new non-dominating runs, and mean set sizes grown
//! beyond `R` × the baseline (default 1.02). Prints every finding and
//! exits 1 if any, 0 when clean, 2 on usage or load errors. `R` must be
//! a finite number > 0: anything else is a usage error. Wall time is
//! not gated; the `kwperf` benchmark judges speed. `--validate` just
//! schema-checks one store (CI uses it on the stores its smoke steps
//! write).

use kw_results::regress::{compare, RegressPolicy};
use kw_results::store::{load_path, StoreContents};
use kw_results::summary::Summary;

fn usage() -> ! {
    eprintln!(
        "usage: regress <baseline.jsonl> <candidate.jsonl> [--quality-ratio R]\n\
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

/// Parses the quality ratio: a finite number > 0. The gate has the form
/// `fresh > base * ratio`, which is never true against NaN or infinity,
/// so a non-finite ratio would pass any candidate.
fn ratio(text: &str) -> Option<f64> {
    let v: f64 = text.parse().ok()?;
    (v.is_finite() && v > 0.0).then_some(v)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--validate") {
        let [_, path] = args.as_slice() else { usage() };
        let contents = load(path);
        println!(
            "{path}: valid ({} manifests, {} records, {} trace lines, {} unknown-kind lines{})",
            contents.manifests.len(),
            contents.records.len(),
            contents.traces.len(),
            contents.unknown_kinds,
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
        match arg.as_str() {
            "--quality-ratio" => match it.next().and_then(|v| ratio(v)) {
                Some(v) => policy.max_quality_ratio = v,
                None => usage(),
            },
            _ if arg.starts_with("--") => usage(),
            _ => paths.push(arg.clone()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        usage()
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    let findings = compare(
        &Summary::from_records(&baseline.records),
        &Summary::from_records(&candidate.records),
        &policy,
    );
    if findings.is_empty() {
        println!(
            "regress: OK — {candidate_path} holds the line against {baseline_path} \
             (quality budget {:.0}%)",
            (policy.max_quality_ratio - 1.0) * 100.0,
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
