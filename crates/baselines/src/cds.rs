//! Connected dominating set construction on top of a dominating set.
//!
//! The paper's introduction motivates dominating sets as routing
//! backbones, and its related-work section discusses the *connected*
//! variant (refs [1, 6, 10, 22]): for a backbone, cluster heads must be
//! able to route among themselves without leaving the set. Any dominating
//! set can be stitched into a connected one at a constant-factor cost:
//! in a connected graph, contracting each dominator's cluster leaves
//! dominators pairwise within 3 hops, so connecting them through at most
//! 2 intermediate nodes per link costs ≤ 2 extra nodes per tree edge
//! (`|CDS| ≤ 3|DS|` on connected graphs).
//!
//! [`connect`] implements that stitch with a BFS over the "dominator
//! adjacency" structure; on disconnected graphs each component is stitched
//! independently.

use std::collections::VecDeque;

use kw_graph::{CsrGraph, DominatingSet, NodeId};

/// Whether `set` is connected *within* each connected component of `g`
/// (i.e. the subgraph induced by `set` has exactly one piece per
/// `set`-containing component of `g`).
pub fn is_connected_within(g: &CsrGraph, set: &DominatingSet) -> bool {
    let n = g.len();
    let mut seen = vec![false; n];
    // For each graph component, BFS inside the induced subgraph from the
    // first member; all members of that component must be reached.
    let comp = kw_graph::props::connected_components(g);
    let mut handled: Vec<bool> = vec![false; n];
    for start in g.node_ids() {
        if !set.contains(start) || handled[start.index()] {
            continue;
        }
        // BFS within the induced subgraph.
        let mut queue = VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(v) = queue.pop_front() {
            handled[v.index()] = true;
            for u in g.neighbors(v) {
                if set.contains(u) && !seen[u.index()] {
                    seen[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
        // Any unvisited member in the same graph component breaks
        // connectivity.
        for v in g.node_ids() {
            if set.contains(v) && comp[v.index()] == comp[start.index()] && !seen[v.index()] {
                return false;
            }
        }
    }
    true
}

/// Extends `ds` into a connected dominating set (per graph component).
///
/// Grows a BFS forest over the dominators: starting from one dominator per
/// component, repeatedly absorbs the nearest unconnected dominator
/// together with the ≤ 2 connector nodes on a shortest path (dominators
/// are pairwise within 3 hops through their clusters, so the growth step
/// always finds one).
///
/// The result contains `ds`, is dominating whenever `ds` is, and its size
/// is at most `3·|ds|` per component.
///
/// # Panics
///
/// Panics if `ds` is not a dominating set of `g` (the 3-hop growth
/// argument needs domination).
///
/// # Example
///
/// ```
/// use kw_graph::{generators, DominatingSet};
/// use kw_baselines::{cds, greedy};
///
/// let g = generators::grid(6, 6);
/// let ds = greedy::greedy_mds(&g);
/// let backbone = cds::connect(&g, &ds);
/// assert!(backbone.is_dominating(&g));
/// assert!(cds::is_connected_within(&g, &backbone));
/// assert!(backbone.len() <= 3 * ds.len());
/// ```
pub fn connect(g: &CsrGraph, ds: &DominatingSet) -> DominatingSet {
    assert!(ds.is_dominating(g), "connect requires a dominating set");
    let n = g.len();
    let mut out = ds.clone();
    if n == 0 {
        return out;
    }
    let comp = kw_graph::props::connected_components(g);
    // Process each component independently.
    let num_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
    for c in 0..num_comp {
        let Some(root) = g
            .node_ids()
            .find(|v| comp[v.index()] == c && out.contains(*v))
        else {
            continue; // component without members (empty component impossible: ds dominates)
        };
        // `connected[v]`: dominator already attached to the backbone.
        let mut connected = vec![false; n];
        connected[root.index()] = true;
        loop {
            // Multi-source BFS from all connected backbone nodes, looking
            // for the nearest unconnected dominator (≤ 3 hops away).
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut dist = vec![u32::MAX; n];
            let mut queue = VecDeque::new();
            for v in g.node_ids() {
                if comp[v.index()] == c && out.contains(v) && connected[v.index()] {
                    dist[v.index()] = 0;
                    queue.push_back(v);
                }
            }
            let mut found: Option<NodeId> = None;
            'bfs: while let Some(v) = queue.pop_front() {
                for u in g.neighbors(v) {
                    if dist[u.index()] != u32::MAX {
                        continue;
                    }
                    dist[u.index()] = dist[v.index()] + 1;
                    parent[u.index()] = Some(v);
                    if out.contains(u) && !connected[u.index()] {
                        found = Some(u);
                        break 'bfs;
                    }
                    queue.push_back(u);
                }
            }
            let Some(target) = found else { break };
            // Absorb the path (≤ 2 connectors) and the target.
            connected[target.index()] = true;
            let mut cur = parent[target.index()];
            while let Some(v) = cur {
                if dist[v.index()] == 0 {
                    break;
                }
                out.add(v);
                connected[v.index()] = true;
                cur = parent[v.index()];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_mds;
    use kw_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check(g: &CsrGraph) {
        let ds = greedy_mds(g);
        let cds = connect(g, &ds);
        assert!(cds.is_dominating(g), "stitched set lost domination");
        assert!(is_connected_within(g, &cds), "stitched set not connected");
        for v in ds.iter() {
            assert!(cds.contains(v), "stitch must be a superset");
        }
        // Component-wise 3x bound implies the global one.
        assert!(
            cds.len() <= 3 * ds.len().max(1),
            "{} > 3·{}",
            cds.len(),
            ds.len()
        );
    }

    #[test]
    fn stitches_fixed_families() {
        check(&generators::path(17));
        check(&generators::cycle(20));
        check(&generators::grid(6, 7));
        check(&generators::star(12));
        check(&generators::petersen());
        check(&generators::star_of_cliques(4, 6));
        check(&generators::balanced_tree(3, 4));
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two separate paths.
        let g = CsrGraph::from_edges(10, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8)]).unwrap();
        check(&g);
        // Isolated nodes only.
        check(&CsrGraph::empty(5));
        check(&CsrGraph::empty(0));
    }

    #[test]
    fn already_connected_sets_unchanged() {
        let g = generators::star(9);
        let ds = DominatingSet::from_indices(&g, [0]);
        let cds = connect(&g, &ds);
        assert_eq!(cds.len(), 1);
    }

    #[test]
    fn pipeline_output_stitches() {
        use kw_core::{DsSolver, FractionalSolver, PipelineSolver, SolveContext};
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::unit_disk(120, 0.18, &mut rng);
        let out = PipelineSolver::new(2, FractionalSolver::Alg3)
            .solve(&g, &SolveContext::seeded(3))
            .unwrap();
        let cds = connect(&g, &out.dominating_set);
        assert!(cds.is_dominating(&g));
        assert!(is_connected_within(&g, &cds));
    }

    #[test]
    #[should_panic(expected = "requires a dominating set")]
    fn rejects_non_dominating_input() {
        let g = generators::path(5);
        let ds = DominatingSet::from_indices(&g, [0]);
        let _ = connect(&g, &ds);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn stitching_random_graphs(n in 1usize..40, p in 0.0f64..0.6, seed in any::<u64>()) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let ds = greedy_mds(&g);
                let cds = connect(&g, &ds);
                prop_assert!(cds.is_dominating(&g));
                prop_assert!(is_connected_within(&g, &cds));
                prop_assert!(cds.len() <= 3 * ds.len().max(1));
            }
        }
    }
}
