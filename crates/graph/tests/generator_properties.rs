//! Property-based validation of every generator: structural invariants
//! the rest of the workspace silently relies on.

use std::collections::BTreeSet;

use kw_graph::{generators, props, CsrGraph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Invariants every graph in the workspace must satisfy: symmetry, sorted
/// neighbor lists, no loops, no duplicates, consistent counts.
fn assert_well_formed(g: &CsrGraph) {
    let mut arcs = 0usize;
    for v in g.node_ids() {
        let ns: Vec<NodeId> = g.neighbors(v).collect();
        arcs += ns.len();
        let mut sorted = ns.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ns, sorted, "neighbors of {v} not sorted/deduped");
        assert!(!ns.contains(&v), "self loop at {v}");
        for u in ns {
            assert!(g.has_edge(u, v), "asymmetric edge ({v},{u})");
        }
    }
    assert_eq!(arcs, g.num_arcs());
    assert_eq!(arcs, 2 * g.num_edges());
    assert_eq!(g.edges().count(), g.num_edges());
}

#[test]
fn fixed_generators_well_formed() {
    assert_well_formed(&generators::empty(7));
    assert_well_formed(&generators::path(9));
    assert_well_formed(&generators::cycle(9));
    assert_well_formed(&generators::star(9));
    assert_well_formed(&generators::complete(9));
    assert_well_formed(&generators::complete_bipartite(4, 5));
    assert_well_formed(&generators::grid(4, 6));
    assert_well_formed(&generators::torus(4, 6));
    assert_well_formed(&generators::balanced_tree(3, 3));
    assert_well_formed(&generators::caterpillar(5, 3));
    assert_well_formed(&generators::petersen());
    assert_well_formed(&generators::star_of_cliques(4, 5));
}

#[test]
fn known_structure_facts() {
    // Grid diameter = (r-1)+(c-1).
    assert_eq!(props::diameter(&generators::grid(4, 7)), Some(9));
    // Torus cuts it roughly in half.
    assert_eq!(props::diameter(&generators::torus(4, 4)), Some(4));
    // Balanced binary tree of depth d has diameter 2d.
    assert_eq!(props::diameter(&generators::balanced_tree(2, 4)), Some(8));
    // Caterpillar spine + two legs.
    assert_eq!(props::diameter(&generators::caterpillar(5, 2)), Some(6));
    // Complete bipartite diameter 2.
    assert_eq!(
        props::diameter(&generators::complete_bipartite(3, 4)),
        Some(2)
    );
}

#[test]
fn unit_disk_monotone_in_radius() {
    let mut rng = SmallRng::seed_from_u64(5);
    let pts: Vec<(f64, f64)> = (0..120)
        .map(|_| {
            (
                rand::Rng::gen::<f64>(&mut rng),
                rand::Rng::gen::<f64>(&mut rng),
            )
        })
        .collect();
    let small = generators::unit_disk_from_points(&pts, 0.1);
    let large = generators::unit_disk_from_points(&pts, 0.2);
    assert!(small.num_edges() <= large.num_edges());
    for (u, v) in small.edges() {
        assert!(large.has_edge(u, v), "edge ({u},{v}) lost when radius grew");
    }
}

/// Builds `edges` through the unchecked path, which merges repeats.
fn build_unchecked(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge_unchecked_duplicate(u, v).expect("edge in range");
    }
    b.build()
}

/// The CSR arrays of the simple graph on `n` nodes with edge set `set`
/// (pairs `(min, max)`): every list sorted ascending.
fn reference_csr(n: usize, set: &BTreeSet<(usize, usize)>) -> (Vec<u32>, Vec<u32>) {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in set {
        adj[a].push(b as u32);
        adj[b].push(a as u32);
    }
    let mut offsets = vec![0u32];
    let mut targets = Vec::new();
    for mut list in adj {
        list.sort_unstable();
        targets.extend(list);
        offsets.push(targets.len() as u32);
    }
    (offsets, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// `build` writes the same sorted CSR however an edge list arrives:
    /// shuffled, in `(max, min)` order (which it takes without sorting) or
    /// in `(min, max)` order, with repeats in both orientations merged.
    /// `from_edges` rejects the list exactly when it has a repeat.
    #[test]
    fn build_matches_reference_in_every_order(
        n in 1usize..60,
        m in 0usize..150,
        repeats in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = BTreeSet::new();
        let mut edges = Vec::new();
        for _ in 0..m {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && set.insert((u.min(v), u.max(v))) {
                edges.push((u, v));
            }
        }
        let distinct = edges.len();
        if distinct > 0 {
            for i in 0..repeats {
                let (u, v) = edges[rng.gen_range(0..distinct)];
                edges.push(if i % 2 == 0 { (v, u) } else { (u, v) });
            }
        }
        let has_repeat = edges.len() > distinct;
        let (offsets, targets) = reference_csr(n, &set);

        let mut shuffled = edges.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let mut max_min = edges.clone();
        max_min.sort_by_key(|&(u, v)| (u.max(v), u.min(v)));
        let mut min_max = edges.clone();
        min_max.sort_by_key(|&(u, v)| (u.min(v), u.max(v)));
        let orders = [
            ("shuffled", &shuffled),
            ("(max, min)", &max_min),
            ("(min, max)", &min_max),
        ];
        for (order, list) in orders {
            let g = build_unchecked(n, list);
            prop_assert_eq!(g.offsets(), &offsets[..], "{} offsets", order);
            prop_assert_eq!(g.targets(), &targets[..], "{} targets", order);
        }

        match CsrGraph::from_edges(n, shuffled.iter().copied()) {
            Ok(g) => {
                prop_assert!(!has_repeat, "a repeat was accepted");
                prop_assert_eq!(g.targets(), &targets[..]);
            }
            Err(e) => prop_assert!(
                has_repeat && matches!(e, GraphError::DuplicateEdge { .. }),
                "unexpected error {e}"
            ),
        }
    }

    #[test]
    fn gnp_well_formed(n in 0usize..80, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_well_formed(&generators::gnp(n, p, &mut rng));
    }

    #[test]
    fn gnm_well_formed_and_exact(n in 2usize..40, frac in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let m = (frac * max_m as f64) as usize;
        let g = generators::gnm(n, m, &mut rng);
        assert_well_formed(&g);
        prop_assert_eq!(g.num_edges(), m);
    }

    #[test]
    fn unit_disk_well_formed(n in 0usize..60, r in 0.0f64..1.5, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        assert_well_formed(&generators::unit_disk(n, r, &mut rng));
    }

    #[test]
    fn barabasi_albert_well_formed(n in 6usize..80, m in 1usize..5, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, &mut rng);
        assert_well_formed(&g);
        // Connected by construction (every new node attaches to the core).
        prop_assert!(props::is_connected(&g));
        // Minimum degree ≥ m.
        prop_assert!(g.node_ids().all(|v| g.degree(v) >= m));
    }

    #[test]
    fn grids_and_tori(r in 1usize..8, c in 1usize..8) {
        let g = generators::grid(r, c);
        assert_well_formed(&g);
        prop_assert_eq!(g.len(), r * c);
        prop_assert!(props::is_connected(&g));
        let t = generators::torus(r, c);
        assert_well_formed(&t);
        // A torus has at least as many edges as its grid.
        prop_assert!(t.num_edges() >= g.num_edges());
    }

    #[test]
    fn trees_have_n_minus_one_edges(arity in 1usize..4, depth in 0usize..5) {
        let g = generators::balanced_tree(arity, depth);
        assert_well_formed(&g);
        prop_assert_eq!(g.num_edges() + 1, g.len());
        prop_assert!(props::is_connected(&g));
        prop_assert_eq!(props::num_components(&g), 1);
    }

    #[test]
    fn delta1_delta2_are_monotone_views(n in 1usize..40, p in 0.0f64..0.5, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        for v in g.node_ids() {
            let d = g.degree(v);
            let d1 = g.delta1(v);
            let d2 = g.delta2(v);
            prop_assert!(d <= d1 && d1 <= d2 && d2 <= g.max_degree());
        }
    }
}
