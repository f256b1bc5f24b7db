//! Watch the paper's proofs hold at runtime: executes Algorithm 2 with the
//! Lemma 2–4 checker attached and prints the Figure-1 covering cascade.
//!
//! Figure 1 of the paper illustrates how, with `k = 4`, nodes with
//! `a(v) ≥ (Δ+1)^{3/4}` active neighbors are covered first, then those
//! with `a(v) ≥ (Δ+1)^{2/4}`, and so on — a staircase of thresholds. The
//! cascade table below reproduces that staircase on a two-scale graph.
//! The example exits with an error if either checker reports a violation.
//!
//! ```text
//! cargo run --example invariants_trace
//! ```

use kw_core::invariants::{run_alg2_checked, run_alg3_checked};
use kw_domset::prelude::*;
use kw_graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::star_of_cliques(6, 16);
    let k = 4;
    println!(
        "graph: hub + 6 cliques of 16 (n = {}, Δ = {}), k = {k}\n",
        g.len(),
        g.max_degree()
    );

    let (run, report) = run_alg2_checked(&g, k, EngineConfig::default())?;
    assert!(run.x.is_feasible(&g));
    println!("Algorithm 2 — covering cascade (the content of the paper's Figure 1):");
    println!("{}", report.cascade);
    match report.violations.len() {
        0 => println!("invariants: Lemmas 2, 3, 4 held at every checkpoint ✓"),
        n => {
            println!("invariants: {n} violations!");
            for v in &report.violations {
                println!("  {v}");
            }
        }
    }

    let (run3, report3) = run_alg3_checked(&g, k, EngineConfig::default())?;
    assert!(run3.x.is_feasible(&g));
    println!("\nAlgorithm 3 — same cascade without Δ-knowledge:");
    println!("{}", report3.cascade);
    match report3.violations.len() {
        0 => println!("invariants: Lemmas 5, 6, 7 held at every checkpoint ✓"),
        n => {
            println!("invariants: {n} violations!");
            for v in &report3.violations {
                println!("  {v}");
            }
        }
    }
    println!(
        "\nΣx: alg2 = {:.2}, alg3 = {:.2}; bounds {:.1} / {:.1} × LP_OPT",
        run.x.objective(),
        run3.x.objective(),
        kw_core::math::alg2_lp_bound(k, g.max_degree()),
        kw_core::math::alg3_lp_bound(k, g.max_degree()),
    );
    if !(report.is_clean() && report3.is_clean()) {
        return Err("an invariant checker reported violations".into());
    }
    Ok(())
}
