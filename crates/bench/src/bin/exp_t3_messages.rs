//! Experiment T3 (Theorem 6, complexity): message counts and message
//! sizes.
//!
//! Claims: each node sends `O(k²Δ)` messages of `O(log Δ + log k)` bits
//! (the x-value message carries the inner-iteration index `m < k` next to
//! a count of at most `Δ + 1`). Every row asserts both exact bounds:
//!
//! * `max msgs/node ≤ (4k² + 2k − 1)·Δ`: a node sends at most one
//!   broadcast (`Δ` copies at most) per round, and none in its last;
//! * `max bits ≤ 2 + γ(Δ+1) + γ(k−1)`, with γ the Elias-gamma length
//!   ([`kw_sim::wire::gamma_len`]): a 2-bit tag, then at most a count
//!   `≤ Δ + 1` and an index `≤ k − 1`.
//!
//! Runs the `kw:k=K` solver through the `DsSolver` trait and reads the
//! fractional (Algorithm 3) stage's metrics from its report.

use kw_bench::workloads::Workload;
use kw_core::math;
use kw_core::solver::{SolveContext, SolverRegistry};
use kw_results::render::Table;
use kw_sim::wire::gamma_len;

fn main() {
    println!("T3 — Theorem 6: per-node message count O(k²Δ), message size O(log Δ + log k)\n");
    let registry = SolverRegistry::with_core_solvers();
    let sweeps = [
        Workload::Gnp { n: 256, p: 0.02 },
        Workload::Gnp { n: 256, p: 0.08 },
        Workload::Gnp { n: 256, p: 0.3 },
        Workload::BarabasiAlbert { n: 256, m: 4 },
        Workload::UnitDisk {
            n: 256,
            radius: 0.12,
        },
    ];
    let mut table = Table::new([
        "workload",
        "Δ",
        "k",
        "rounds",
        "max msgs/node",
        "msgs/node/(k²Δ)",
        "max bits",
        "bit bound",
        "bits/log₂(Δ+1)",
    ]);
    for w in sweeps {
        let g = w.build(3);
        let delta = g.max_degree();
        for k in [1u32, 2, 4, 8] {
            let solver = registry.build(&format!("kw:k={k}")).expect("kw registered");
            let report = solver
                .solve(&g, &SolveContext::seeded(0))
                .expect("alg3 runs");
            let frac = &report.stages[0].metrics;
            let msg_bound = (math::alg3_rounds(k) - 1) as u64 * delta as u64;
            assert!(
                frac.max_node_messages <= msg_bound,
                "{} k={k}: {} messages from one node > (4k²+2k−1)·Δ = {msg_bound}",
                w.label(),
                frac.max_node_messages
            );
            let bit_bound = 2 + gamma_len(delta as u64 + 1) + gamma_len(u64::from(k - 1));
            assert!(
                frac.max_message_bits <= bit_bound,
                "{} k={k}: a {}-bit message > 2 + γ(Δ+1) + γ(k−1) = {bit_bound}",
                w.label(),
                frac.max_message_bits
            );
            let max_node = frac.max_node_messages as f64;
            let norm = max_node / ((k * k) as f64 * delta as f64);
            let log_delta = ((delta + 1) as f64).log2();
            table.row([
                w.label(),
                delta.to_string(),
                k.to_string(),
                frac.rounds.to_string(),
                format!("{max_node:.0}"),
                format!("{norm:.2}"),
                frac.max_message_bits.to_string(),
                bit_bound.to_string(),
                format!("{:.2}", frac.max_message_bits as f64 / log_delta),
            ]);
        }
    }
    println!("{table}");
    println!("PASS (asserted on every row): max msgs/node ≤ (4k²+2k−1)·Δ, one broadcast");
    println!("per round and none in the last, so msgs/node/(k²Δ) stays ≤ ~5; and");
    println!("max bits ≤ 2 + γ(Δ+1) + γ(k−1), the tag plus Elias-gamma codes of a count");
    println!("≤ Δ+1 and an index ≤ k−1: O(log Δ + log k), so bits/log₂(Δ+1) grows with k.");
}
