use std::collections::HashSet;

use crate::{CsrGraph, GraphError};

/// Incremental, validating constructor for [`CsrGraph`].
///
/// Collects undirected edges, rejecting out-of-range endpoints and self
/// loops eagerly; [`add_edge`](Self::add_edge) also rejects duplicates
/// eagerly. [`build`](Self::build) sorts the edges only when they arrive
/// out of order, merges repeats, and writes every adjacency list already
/// sorted.
///
/// # Example
///
/// ```
/// use kw_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 1)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), kw_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Edges normalized to `(min, max)`, in insertion order.
    edges: Vec<(u32, u32)>,
    /// The edges [`add_edge`](Self::add_edge) accepted, for its duplicate
    /// check; empty while only unchecked adds are used.
    accepted: HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            ..Self::default()
        }
    }

    /// Number of nodes of the graph under construction.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph under construction has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`, rejecting it if an earlier
    /// `add_edge` call accepted the same edge in either orientation.
    ///
    /// The duplicate check is a hash-set probe, expected `O(1)`. It sees
    /// only edges this method accepted: an edge added through
    /// [`add_edge_unchecked_duplicate`] and again here is kept twice and
    /// merged by [`build`](Self::build), like any unchecked repeat.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`]; a rejected edge is not added.
    ///
    /// [`add_edge_unchecked_duplicate`]: Self::add_edge_unchecked_duplicate
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.validate_endpoints(u, v)?;
        let key = Self::normalize(u, v);
        if !self.accepted.insert(key) {
            return Err(GraphError::DuplicateEdge {
                a: key.0 as usize,
                b: key.1 as usize,
            });
        }
        self.edges.push(key);
        Ok(())
    }

    /// Adds the undirected edge `{u, v}` without checking for duplicates.
    ///
    /// Generators that are duplicate-free by construction (grids, trees,
    /// G(n,p) lower-triangle sweeps) and callers that deduplicate
    /// themselves use this to skip [`add_edge`](Self::add_edge)'s hash-set
    /// probe. `build` merges repeats, so a violated promise degrades to a
    /// slightly smaller graph, never a corrupt one.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge_unchecked_duplicate(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.validate_endpoints(u, v)?;
        self.edges.push(Self::normalize(u, v));
        Ok(())
    }

    fn validate_endpoints(&self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                len: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                len: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        Ok(())
    }

    #[inline]
    fn normalize(u: usize, v: usize) -> (u32, u32) {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        (a as u32, b as u32)
    }

    /// Finalizes the builder into an immutable [`CsrGraph`] in `O(n + m)`
    /// when the edges arrive in `(max, min)` or `(min, max)` order, and in
    /// `O(m log m)` otherwise.
    ///
    /// Edges already in `(max, min)` order (a lower-triangle sweep such as
    /// [`gnp`](crate::generators::gnp)'s) are kept as they are; anything
    /// else is sorted into `(min, max)` order, a linear pass when it is
    /// already in that order. Repeats are merged, then each list is filled
    /// with its lower neighbors before its higher ones: under either order
    /// both halves arrive ascending, so no list needs sorting.
    pub fn build(mut self) -> CsrGraph {
        if !self.edges.is_sorted_by_key(|&(a, b)| (b, a)) {
            self.edges.sort_unstable();
        }
        self.edges.dedup();
        let n = self.n;
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        // Lower neighbors first, then higher ones.
        for &(a, b) in &self.edges {
            targets[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        for &(a, b) in &self.edges {
            targets[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
        }
        CsrGraph::from_parts(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn build_sorts_and_symmetrizes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build();
        let ns: Vec<_> = g.neighbors(NodeId::new(0)).map(NodeId::index).collect();
        assert_eq!(ns, vec![1, 2, 3]);
        for v in 1..4 {
            assert!(g.has_edge(NodeId::new(v), NodeId::new(0)));
        }
    }

    #[test]
    fn duplicate_rejected_eagerly_in_either_orientation() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert!(b.add_edge(1, 0).is_err());
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn unchecked_duplicates_are_deduped_at_build() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_unchecked_duplicate(0, 1).unwrap();
        b.add_edge_unchecked_duplicate(1, 0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new(0);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn len_reports_node_count() {
        let b = GraphBuilder::new(5);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }
}
