//! Inter-round churn scripts: edge/node add/remove events against a
//! [`CsrGraph`].
//!
//! A churn script is a list of [`ChurnEvent`]s, each stamped with the
//! round *before* which it applies. The graph substrate keeps a fixed
//! node universe (`n` never changes): a leaving node stays addressable
//! but loses every incident edge, and a joining node merely becomes
//! live again (edges return via explicit [`ChurnKind::AddEdge`]
//! events). Liveness itself — who may send and receive — is the
//! simulator's concern (`kw_sim`'s chaos plane); this module only
//! rewrites edges.
//!
//! Out-of-range endpoints, self loops, already-present additions, and
//! already-absent removals are **no-ops**, never errors: a chaos script
//! is a hostile-environment description, and a hostile environment does
//! not validate itself against the topology. Applying the same script
//! twice is therefore idempotent.

use std::collections::BTreeSet;

use crate::{CsrGraph, GraphBuilder};

/// One churn mutation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChurnKind {
    /// Insert the undirected edge `{u, v}` (no-op if present, out of
    /// range, or a self loop).
    AddEdge(u32, u32),
    /// Delete the undirected edge `{u, v}` (no-op if absent).
    RemoveEdge(u32, u32),
    /// Node `v` joins (comes up). No edge effect; the simulator flips
    /// the node live.
    Join(u32),
    /// Node `v` leaves (goes down). Every edge incident to `v` is
    /// deleted; the simulator flips the node down.
    Leave(u32),
}

/// One scripted churn mutation, applied *before* round `round`'s
/// compute phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChurnEvent {
    /// Round before which the event applies (events at round 0 apply
    /// before the protocol's first compute).
    pub round: usize,
    /// What happens.
    pub kind: ChurnKind,
}

/// Applies `events` (in the order given, rounds ignored) to `g` and
/// rebuilds the CSR planes. The caller filters by round; see
/// [`churn_rounds`] for the schedule. Applying a script's rounds one at a
/// time, each to the previous result, builds the same graph as applying
/// the whole prefix at once.
///
/// Each event costs `O(log Δ)`, a `Leave` `O(deg · log Δ)` plus one scan
/// of the edges this call added. The rebuild is `O(n + m)`, plus the
/// build's sort of the edge list when the call added edges.
///
/// Node count is preserved. All invalid mutations are no-ops (module
/// docs), so this never fails.
pub fn apply_churn(g: &CsrGraph, events: &[ChurnEvent]) -> CsrGraph {
    let n = g.len();
    let (offsets, targets) = (g.offsets(), g.targets());
    let valid = |u: u32, v: u32| u != v && (u as usize) < n && (v as usize) < n;
    // The arc holding edge `{u, v}` of `g` at its smaller endpoint, if
    // `g` has the edge.
    let arc = |u: u32, v: u32| {
        let (a, b) = (u.min(v), u.max(v));
        let lo = offsets[a as usize] as usize;
        let hi = offsets[a as usize + 1] as usize;
        targets[lo..hi].binary_search(&b).ok().map(|q| lo + q)
    };
    // Edges of `g` the events removed, by arc, and edges absent from `g`
    // that they added.
    let mut gone = vec![false; g.num_arcs()];
    let mut added: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in events {
        match ev.kind {
            ChurnKind::AddEdge(u, v) if valid(u, v) => match arc(u, v) {
                Some(e) => gone[e] = false,
                None => {
                    added.insert((u.min(v), u.max(v)));
                }
            },
            ChurnKind::RemoveEdge(u, v) if valid(u, v) => match arc(u, v) {
                Some(e) => gone[e] = true,
                None => {
                    added.remove(&(u.min(v), u.max(v)));
                }
            },
            ChurnKind::Leave(v) if (v as usize) < n => {
                let lo = offsets[v as usize] as usize;
                for &w in &targets[lo..offsets[v as usize + 1] as usize] {
                    if let Some(e) = arc(v, w) {
                        gone[e] = true;
                    }
                }
                added.retain(|&(a, b)| a != v && b != v);
            }
            _ => {}
        }
    }
    // Both sources are duplicate-free and disjoint, so no duplicate probe
    // is needed. The surviving edges of `g` arrive in (min, max) order, on
    // which the build's sort is linear; added edges follow them.
    let mut b = GraphBuilder::new(n);
    let mut add = |u: usize, v: usize| {
        b.add_edge_unchecked_duplicate(u, v)
            .expect("churned edges are in range and loop-free");
    };
    for u in 0..n {
        for e in offsets[u] as usize..offsets[u + 1] as usize {
            if targets[e] as usize > u && !gone[e] {
                add(u, targets[e] as usize);
            }
        }
    }
    for &(u, v) in &added {
        add(u as usize, v as usize);
    }
    b.build()
}

/// The sorted, deduplicated set of rounds at which `events` fire — the
/// schedule a simulator checks each round against.
pub fn churn_rounds(events: &[ChurnEvent]) -> Vec<usize> {
    let mut rounds: Vec<usize> = events.iter().map(|e| e.round).collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn ev(round: usize, kind: ChurnKind) -> ChurnEvent {
        ChurnEvent { round, kind }
    }

    #[test]
    fn add_and_remove_edges() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let g2 = apply_churn(
            &g,
            &[
                ev(0, ChurnKind::AddEdge(2, 3)),
                ev(1, ChurnKind::RemoveEdge(0, 1)),
            ],
        );
        assert_eq!(g2.len(), 4);
        assert!(g2.has_edge(NodeId::new(2), NodeId::new(3)));
        assert!(!g2.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g2.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn leave_strips_incident_edges_and_join_adds_none() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let g2 = apply_churn(&g, &[ev(2, ChurnKind::Leave(1))]);
        assert_eq!(g2.num_edges(), 0);
        let g3 = apply_churn(&g2, &[ev(3, ChurnKind::Join(1))]);
        assert_eq!(g3.num_edges(), 0);
        assert_eq!(g3.len(), 4);
    }

    #[test]
    fn invalid_mutations_are_noops() {
        let g = CsrGraph::from_edges(3, [(0, 1)]).unwrap();
        let g2 = apply_churn(
            &g,
            &[
                ev(0, ChurnKind::AddEdge(0, 1)),    // already present
                ev(0, ChurnKind::AddEdge(2, 2)),    // self loop
                ev(0, ChurnKind::AddEdge(0, 99)),   // out of range
                ev(0, ChurnKind::RemoveEdge(1, 2)), // absent
                ev(0, ChurnKind::Leave(50)),        // out of range
            ],
        );
        assert_eq!(g2, g);
    }

    #[test]
    fn applying_twice_is_idempotent() {
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let script = [
            ev(1, ChurnKind::RemoveEdge(1, 2)),
            ev(1, ChurnKind::AddEdge(0, 4)),
            ev(2, ChurnKind::Leave(3)),
        ];
        let once = apply_churn(&g, &script);
        let twice = apply_churn(&once, &script);
        assert_eq!(once, twice);
    }

    #[test]
    fn churn_rounds_sorted_dedup() {
        let script = [
            ev(5, ChurnKind::Join(0)),
            ev(1, ChurnKind::Leave(0)),
            ev(5, ChurnKind::AddEdge(0, 1)),
        ];
        assert_eq!(churn_rounds(&script), vec![1, 5]);
    }

    mod proptests {
        use super::*;
        use crate::generators;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Applying a script one churn round at a time, each round's
            /// events to the previous round's graph, builds every round's
            /// graph exactly as rebuilding the original with the whole
            /// prefix does. Endpoints reach past `n`, so invalid events mix
            /// in.
            #[test]
            fn round_by_round_equals_prefix_rebuild(
                n in 1usize..40,
                events in 0usize..60,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, 0.2, &mut rng);
                let node = |rng: &mut SmallRng| rng.gen_range(0..n as u32 + 2);
                let mut script: Vec<ChurnEvent> = (0..events)
                    .map(|i| {
                        let (u, v) = (node(&mut rng), node(&mut rng));
                        let kind = match rng.gen_range(0u32..4) {
                            0 => ChurnKind::AddEdge(u, v),
                            1 => ChurnKind::RemoveEdge(u, v),
                            2 => ChurnKind::Join(u),
                            _ => ChurnKind::Leave(u),
                        };
                        ev(i % 7, kind)
                    })
                    .collect();
                // Stable: events of one round keep their script order.
                script.sort_by_key(|e| e.round);
                let mut current = g.clone();
                for round in churn_rounds(&script) {
                    let lo = script.partition_point(|e| e.round < round);
                    let hi = script.partition_point(|e| e.round <= round);
                    current = apply_churn(&current, &script[lo..hi]);
                    prop_assert_eq!(&current, &apply_churn(&g, &script[..hi]));
                }
            }
        }
    }

    #[test]
    fn edge_order_of_events_matters_last_wins() {
        let g = CsrGraph::empty(2);
        let g2 = apply_churn(
            &g,
            &[
                ev(0, ChurnKind::AddEdge(0, 1)),
                ev(0, ChurnKind::RemoveEdge(0, 1)),
            ],
        );
        assert_eq!(g2.num_edges(), 0);
    }
}
