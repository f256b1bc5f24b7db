//! Cross-crate graph plumbing: text I/O round-trips feeding algorithms,
//! component extraction feeding workloads, and property-based checks that
//! the whole chain (generate → serialize → parse → solve) is lossless.

use kw_domset::prelude::*;
use kw_graph::{generators, io, props};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn serialize_parse_solve_is_identical() {
    let mut rng = SmallRng::seed_from_u64(10);
    let g = generators::gnp(80, 0.07, &mut rng);
    let text = io::to_edge_list(&g);
    let parsed = io::parse_edge_list(&text).unwrap();
    assert_eq!(g, parsed);
    // Identical graphs → identical (deterministic) algorithm outputs.
    let a = kw_core::alg3::reference_alg3(&g, 3).unwrap();
    let b = kw_core::alg3::reference_alg3(&parsed, 3).unwrap();
    assert_eq!(a.values(), b.values());
}

#[test]
fn largest_component_workflow() {
    // Sparse UDG is disconnected; the usual workload is its giant
    // component.
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::unit_disk(300, 0.05, &mut rng);
    let (giant, mapping) = props::largest_component(&g);
    assert!(props::is_connected(&giant));
    assert_eq!(giant.len(), mapping.len());
    // Solve on the component and verify through the mapping.
    let out = kw_domset::default_registry()
        .build("kw:k=2")
        .unwrap()
        .solve(&giant, &SolveContext::seeded(1))
        .unwrap();
    assert!(out.dominating_set.is_dominating(&giant));
    // Mapped-back heads only contain original node ids.
    for v in out.dominating_set.iter() {
        assert!(mapping[v.index()].index() < g.len());
    }
}

#[test]
fn degree_structure_reaches_algorithms() {
    // δ⁽¹⁾/δ⁽²⁾ as computed centrally equal what Algorithm 3 computes
    // distributively (its output exposes δ²).
    let g = generators::star_of_cliques(3, 9);
    let run = kw_core::alg3::run_alg3(&g, 2, EngineConfig::default()).unwrap();
    for v in g.node_ids() {
        assert_eq!(run.delta2[v.index()] as usize, g.delta2(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn io_roundtrip_any_gnp(n in 0usize..60, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let back = io::parse_edge_list(&io::to_edge_list(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn dimacs_roundtrip_any_gnp(n in 0usize..60, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let back = io::parse_dimacs(&io::write_dimacs(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn dimacs_roundtrip_any_unit_disk(n in 1usize..80, seed in any::<u64>()) {
        // Unit-disk graphs are the paper's motivating topology and the
        // shape real DIMACS-format files would feed into workloads.
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::unit_disk(n, 0.2, &mut rng);
        let back = io::parse_dimacs(&io::write_dimacs(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn lenient_dimacs_agrees_with_strict_on_clean_files(
        n in 0usize..60,
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // On anything write_dimacs emits, the lenient parser must
        // produce the identical graph with nothing to clean up.
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let text = io::write_dimacs(&g);
        let (lenient, stats) = io::parse_dimacs_lenient(&text).unwrap();
        prop_assert_eq!(&lenient, &io::parse_dimacs(&text).unwrap());
        prop_assert_eq!(lenient, g);
        prop_assert_eq!(stats.duplicate_edges, 0);
        prop_assert_eq!(stats.self_loops, 0);
        prop_assert_eq!(stats.skipped_lines, 0);
    }

    #[test]
    fn lenient_dimacs_cleans_adversarial_duplication(
        n in 2usize..40,
        p in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        // Re-list every edge in both orientations plus a self-loop and a
        // node line — the real-download quirks — and require the lenient
        // parse to recover exactly the original graph.
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let m = g.num_edges();
        let mut text = format!("p edge {} {}\nn 1 42\ne 1 1\n", n, 2 * m + 1);
        for (u, v) in g.edges() {
            text.push_str(&format!("e {} {}\n", u.index() + 1, v.index() + 1));
            text.push_str(&format!("e {} {}\n", v.index() + 1, u.index() + 1));
        }
        let (back, stats) = io::parse_dimacs_lenient(&text).unwrap();
        prop_assert_eq!(back, g);
        prop_assert_eq!(stats.duplicate_edges, m);
        prop_assert_eq!(stats.self_loops, 1);
        prop_assert_eq!(stats.skipped_lines, 1);
        // Strict mode refuses the same text whenever it has an edge (the
        // node line alone already kills it).
        prop_assert!(io::parse_dimacs(&text).is_err());
    }

    #[test]
    fn components_partition_nodes(n in 1usize..60, p in 0.0f64..0.1, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let comp = props::connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        let k = props::num_components(&g);
        prop_assert!(comp.iter().all(|&c| c < k));
        // Every edge stays within its component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u.index()], comp[v.index()]);
        }
    }

    #[test]
    fn pipeline_dominates_arbitrary_random_graphs(
        n in 1usize..50,
        p in 0.0f64..0.5,
        k in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let out = kw_domset::default_registry()
            .build(&format!("kw:k={k}"))
            .unwrap()
            .solve(&g, &SolveContext::seeded(seed))
            .unwrap();
        prop_assert!(out.dominating_set.is_dominating(&g));
    }
}
