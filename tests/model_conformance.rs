//! LOCAL-model conformance: determinism across thread counts, wire-format
//! integrity for every protocol, and the complexity claims (rounds,
//! per-node messages, message bits) measured exactly.

use kw_domset::prelude::*;
use kw_graph::generators;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(seed: u64) -> kw_graph::CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::gnp(90, 0.08, &mut rng)
}

#[test]
fn thread_count_never_changes_results() {
    let g = test_graph(1);
    for threads in [1usize, 2, 4, 8] {
        let cfg = EngineConfig {
            threads,
            seed: 5,
            ..Default::default()
        };
        let a2 = kw_core::alg2::run_alg2(&g, 3, cfg.clone()).unwrap();
        let a3 = kw_core::alg3::run_alg3(&g, 3, cfg).unwrap();
        let base2 = kw_core::alg2::run_alg2(&g, 3, EngineConfig::seeded(5)).unwrap();
        let base3 = kw_core::alg3::run_alg3(&g, 3, EngineConfig::seeded(5)).unwrap();
        assert_eq!(a2.x.values(), base2.x.values(), "alg2 threads={threads}");
        assert_eq!(a3.x.values(), base3.x.values(), "alg3 threads={threads}");
        assert_eq!(a2.metrics, base2.metrics);
        assert_eq!(a3.metrics, base3.metrics);
    }
}

#[test]
fn wire_checking_passes_for_all_protocols() {
    // check_wire makes the engine decode every message it accounts; any
    // encode/decode drift fails the run.
    let g = test_graph(2);
    let cfg = EngineConfig {
        check_wire: true,
        seed: 1,
        ..Default::default()
    };
    kw_core::alg2::run_alg2(&g, 2, cfg.clone()).unwrap();
    kw_core::alg3::run_alg3(&g, 2, cfg.clone()).unwrap();
    let x = kw_graph::FractionalAssignment::uniform(&g, 0.2);
    kw_core::rounding::run_rounding(&g, &x, Default::default(), cfg.clone()).unwrap();
    let w = VertexWeights::uniform(&g);
    kw_core::weighted::run_weighted_alg2(&g, &w, 2, cfg).unwrap();
}

#[test]
fn round_counts_are_exactly_the_theorem_values() {
    let g = test_graph(3);
    for k in 1..=5u32 {
        let a2 = kw_core::alg2::run_alg2(&g, k, EngineConfig::default()).unwrap();
        assert_eq!(
            a2.metrics.rounds,
            2 * (k * k) as usize,
            "Theorem 4: 2k² rounds"
        );
        let a3 = kw_core::alg3::run_alg3(&g, k, EngineConfig::default()).unwrap();
        assert_eq!(
            a3.metrics.rounds,
            (4 * k * k + 2 * k) as usize,
            "Theorem 5: 4k²+O(k)"
        );
    }
    let x = kw_graph::FractionalAssignment::uniform(&g, 0.5);
    let r = kw_core::rounding::run_rounding(&g, &x, Default::default(), EngineConfig::default())
        .unwrap();
    assert_eq!(r.metrics.rounds, 4, "Algorithm 1 is constant-round");
}

#[test]
fn per_node_message_complexity_is_o_k2_delta() {
    let g = test_graph(4);
    for k in [2u32, 4] {
        let run = kw_core::alg3::run_alg3(&g, k, EngineConfig::default()).unwrap();
        let k2 = (k * k) as u64;
        for v in g.node_ids() {
            let deg = g.degree(v) as u64;
            // ≤ (4 messages per inner iteration + O(k) boundary messages
            // + 2 setup) broadcasts, each of `deg` copies.
            let cap = (4 * k2 + 2 * u64::from(k) + 2) * deg;
            assert!(
                run.node_messages[v.index()] <= cap,
                "node {v}: {} messages > cap {cap} (k={k})",
                run.node_messages[v.index()]
            );
        }
    }
}

#[test]
fn message_sizes_grow_logarithmically_with_delta() {
    // Double Δ several times; max message bits must grow by O(1) per
    // doubling (gamma code: ~2 bits per doubling).
    let mut prev_bits = 0usize;
    for exp in 3..8u32 {
        let leaves = 1usize << exp;
        let g = generators::star(leaves + 1);
        let run = kw_core::alg3::run_alg3(&g, 2, EngineConfig::default()).unwrap();
        let bits = run.metrics.max_message_bits;
        if prev_bits > 0 {
            assert!(
                bits <= prev_bits + 4,
                "message bits jumped {prev_bits} -> {bits} on Δ doubling"
            );
        }
        prev_bits = bits;
    }
}

#[test]
fn rounding_uses_constant_bits_per_message() {
    let g = generators::star(512);
    let x = kw_graph::FractionalAssignment::uniform(&g, 0.1);
    let run = kw_core::rounding::run_rounding(&g, &x, Default::default(), EngineConfig::seeded(0))
        .unwrap();
    // Largest message is a Degree(511): 1 tag + gamma(511) = 1 + 19 bits.
    assert!(
        run.metrics.max_message_bits <= 20,
        "{}",
        run.metrics.max_message_bits
    );
}

#[test]
fn engine_seed_controls_all_randomness() {
    let g = test_graph(5);
    let p = kw_domset::default_registry().build("kw:k=2").unwrap();
    let run = |seed| {
        p.solve(&g, &SolveContext::seeded(seed))
            .unwrap()
            .dominating_set
    };
    let (a, b, a2) = (run(1), run(2), run(1));
    let av: Vec<bool> = g.node_ids().map(|v| a.contains(v)).collect();
    let bv: Vec<bool> = g.node_ids().map(|v| b.contains(v)).collect();
    let av2: Vec<bool> = g.node_ids().map(|v| a2.contains(v)).collect();
    assert_eq!(av, av2, "same seed must reproduce");
    assert_ne!(
        av, bv,
        "different seeds should explore different rounding draws"
    );
}

#[test]
fn invariant_checkers_are_clean_across_families() {
    let mut rng = SmallRng::seed_from_u64(6);
    for g in [
        generators::gnp(70, 0.1, &mut rng),
        generators::barabasi_albert(70, 3, &mut rng),
        generators::star_of_cliques(4, 8),
        generators::caterpillar(10, 3),
    ] {
        for k in [2u32, 4] {
            let (_, rep2) =
                kw_core::invariants::run_alg2_checked(&g, k, EngineConfig::default()).unwrap();
            assert!(rep2.is_clean(), "alg2 k={k}: {:?}", rep2.violations);
            let (_, rep3) =
                kw_core::invariants::run_alg3_checked(&g, k, EngineConfig::default()).unwrap();
            assert!(rep3.is_clean(), "alg3 k={k}: {:?}", rep3.violations);
        }
    }
}
