//! Network-topology generators used by the reproduction experiments.
//!
//! The paper's motivation is mobile ad-hoc networks, whose standard model is
//! the unit-disk graph ([`unit_disk`]); the bound experiments additionally
//! sweep Erdős–Rényi graphs ([`gnp`], [`gnm`]), preferential-attachment
//! graphs ([`barabasi_albert`]), and structured families (grids, trees,
//! stars, cliques) that stress the `Δ`-dependent bounds from both ends.
//!
//! All randomized generators take a caller-provided [`rand::Rng`] so that
//! every experiment in the workspace is reproducible from a single seed.
//!
//! # Example
//!
//! ```
//! use kw_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = generators::gnp(100, 0.05, &mut rng);
//! assert_eq!(g.len(), 100);
//! ```

use rand::Rng;

use crate::{CsrGraph, GraphBuilder};

/// The graph with `n` nodes and no edges.
pub fn empty(n: usize) -> CsrGraph {
    CsrGraph::empty(n)
}

/// The path `v_0 — v_1 — … — v_{n-1}`.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge_unchecked_duplicate(v - 1, v)
            .expect("path edges are in range");
    }
    b.build()
}

/// The cycle on `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (smaller cycles would need self loops or multi-edges).
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle requires n >= 3, got {n}");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge_unchecked_duplicate(v - 1, v)
            .expect("cycle edges are in range");
    }
    b.add_edge_unchecked_duplicate(n - 1, 0)
        .expect("cycle closing edge");
    b.build()
}

/// The star with center `0` and `n − 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 1, "star requires at least the center node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge_unchecked_duplicate(0, v)
            .expect("star edges are in range");
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge_unchecked_duplicate(u, v)
                .expect("complete edges are in range");
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            builder
                .add_edge_unchecked_duplicate(u, v)
                .expect("bipartite edges are in range");
        }
    }
    builder.build()
}

/// A `rows × cols` grid; node `(r, c)` has index `r·cols + c`.
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(rows * cols);
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(r, c + 1))
                    .expect("grid edge");
            }
            if r + 1 < rows {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(r + 1, c))
                    .expect("grid edge");
            }
        }
    }
    b.build()
}

/// A `rows × cols` torus (grid with wraparound in both dimensions).
///
/// Wrap edges are only added along dimensions of length ≥ 3; for length-2
/// dimensions the wrap edge would duplicate the interior edge, and for
/// length-1 dimensions it would be a self loop.
pub fn torus(rows: usize, cols: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(rows * cols);
    let idx = |r: usize, c: usize| (r % rows) * cols + (c % cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(r, c + 1))
                    .expect("torus edge");
            } else if cols >= 3 {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(r, 0))
                    .expect("torus wrap edge");
            }
            if r + 1 < rows {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(r + 1, c))
                    .expect("torus edge");
            } else if rows >= 3 {
                b.add_edge_unchecked_duplicate(idx(r, c), idx(0, c))
                    .expect("torus wrap edge");
            }
        }
    }
    b.build()
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = single root).
///
/// Node 0 is the root; children of node `v` are appended in breadth-first
/// order.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: usize) -> CsrGraph {
    assert!(arity >= 1, "tree arity must be positive");
    let mut parents: Vec<usize> = vec![0]; // current frontier
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut next_id = 1usize;
    for _ in 0..depth {
        let mut frontier = Vec::with_capacity(parents.len() * arity);
        for &p in &parents {
            for _ in 0..arity {
                edges.push((p, next_id));
                frontier.push(next_id);
                next_id += 1;
            }
        }
        parents = frontier;
    }
    let mut b = GraphBuilder::new(next_id);
    for (u, v) in edges {
        b.add_edge_unchecked_duplicate(u, v).expect("tree edge");
    }
    b.build()
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Spine nodes are `0..spine`; leaves follow in spine order.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> CsrGraph {
    assert!(spine >= 1, "caterpillar requires a nonempty spine");
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge_unchecked_duplicate(v - 1, v)
            .expect("spine edge");
    }
    let mut leaf = spine;
    for s in 0..spine {
        for _ in 0..legs {
            b.add_edge_unchecked_duplicate(s, leaf).expect("leg edge");
            leaf += 1;
        }
    }
    b.build()
}

/// The Petersen graph (10 nodes, 3-regular) — a fixed fixture for tests.
pub fn petersen() -> CsrGraph {
    // Outer 5-cycle 0..5, inner 5-star-polygon 5..10, spokes i — i+5.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (5, 7),
        (7, 9),
        (9, 6),
        (6, 8),
        (8, 5),
        (0, 5),
        (1, 6),
        (2, 7),
        (3, 8),
        (4, 9),
    ];
    CsrGraph::from_edges(10, edges).expect("petersen edges are valid")
}

/// A hub node `0` joined to one "gateway" node of each of `cliques` cliques
/// of size `clique_size`.
///
/// This family has the two-scale degree structure that drives the paper's
/// Figure 1 cascade: gateway nodes and the hub see very different
/// active-neighbor counts `a(v)` than clique-interior nodes.
///
/// # Panics
///
/// Panics if `clique_size == 0`.
pub fn star_of_cliques(cliques: usize, clique_size: usize) -> CsrGraph {
    assert!(clique_size >= 1, "cliques must be nonempty");
    let n = 1 + cliques * clique_size;
    let mut b = GraphBuilder::new(n);
    for c in 0..cliques {
        let base = 1 + c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                b.add_edge_unchecked_duplicate(base + i, base + j)
                    .expect("clique edge");
            }
        }
        b.add_edge_unchecked_duplicate(0, base).expect("spoke edge");
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` (`2^d` nodes, `d`-regular): node
/// indices are bit strings, edges connect Hamming-distance-1 pairs.
///
/// A useful stress case for the bounds: vertex-transitive with
/// logarithmic degree, so `LP_OPT = 2^d/(d+1)` exactly.
///
/// # Panics
///
/// Panics if `d > 20` (guards accidental 2²⁰⁺-node allocations).
pub fn hypercube(d: u32) -> CsrGraph {
    assert!(d <= 20, "hypercube dimension {d} too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge_unchecked_duplicate(v, u)
                    .expect("hypercube edge");
            }
        }
    }
    b.build()
}

/// A random `d`-regular graph via the configuration model with retries
/// (pairs half-edges uniformly; resamples on self loops or duplicates).
///
/// # Panics
///
/// Panics if `n·d` is odd or `d ≥ n` (no simple `d`-regular graph
/// exists), or if pairing repeatedly fails (astronomically unlikely for
/// `d ≪ n`).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> CsrGraph {
    assert!(
        (n * d).is_multiple_of(2),
        "n·d must be even for a {d}-regular graph on {n} nodes"
    );
    assert!(d < n, "degree {d} must be below n = {n}");
    if d == 0 {
        return CsrGraph::empty(n);
    }
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        // Fisher–Yates pairing.
        let mut edges = Vec::with_capacity(n * d / 2);
        let mut seen = std::collections::HashSet::with_capacity(n * d);
        while stubs.len() > 1 {
            let last = stubs.len() - 1;
            let j = rng.gen_range(0..last);
            let (u, v) = (stubs[last], stubs[j]);
            stubs.truncate(last);
            stubs.swap_remove(j);
            if u == v {
                continue 'attempt;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                continue 'attempt;
            }
            edges.push(key);
        }
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge_unchecked_duplicate(u, v)
                .expect("regular edge in range");
        }
        return b.build();
    }
    panic!("configuration model failed to produce a simple {d}-regular graph on {n} nodes");
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n−1)/2` possible edges is present
/// independently with probability `p`.
///
/// Uses geometric gap-skipping, so the cost is `O(n + m)` rather than
/// `O(n²)` for sparse graphs: the sweep emits edges in the `(max, min)`
/// order that [`GraphBuilder::build`] takes without sorting.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> CsrGraph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability {p} outside [0, 1]"
    );
    if p <= 0.0 || n < 2 {
        return CsrGraph::empty(n);
    }
    if p >= 1.0 {
        return complete(n);
    }
    let mut b = GraphBuilder::new(n);
    // Batagelj–Brandes skip sampling over the lower triangle: row v, column
    // w < v, advancing by geometrically distributed gaps.
    let log_q = (1.0 - p).ln();
    let mut v = 1usize;
    let mut w = -1i64;
    while v < n {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge_unchecked_duplicate(w as usize, v)
                .expect("gnp edge in range");
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly.
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges `n(n−1)/2`.
pub fn gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_m,
        "requested {m} edges but only {max_m} are possible"
    );
    let mut b = GraphBuilder::new(n);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    while chosen.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.add_edge_unchecked_duplicate(key.0, key.1)
                .expect("gnm edge in range");
        }
    }
    b.build()
}

/// Random geometric / unit-disk graph: `n` points uniform in the unit
/// square, an edge whenever two points are within Euclidean distance
/// `radius`.
///
/// This is the standard connectivity model for the wireless ad-hoc networks
/// that motivate the paper (Section 1). Spatial hashing finds the edges in
/// `O(n + m)` expected time; they arrive in hash-bucket order, so the CSR
/// build sorts them in `O(m log m)`.
///
/// # Panics
///
/// Panics if `radius` is negative or non-finite.
pub fn unit_disk<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> CsrGraph {
    assert!(
        radius.is_finite() && radius >= 0.0,
        "radius {radius} must be finite and non-negative"
    );
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    unit_disk_from_points(&pts, radius)
}

/// Unit-disk graph over caller-supplied points (exposed so examples can keep
/// the geometry for visualization).
///
/// # Panics
///
/// Panics if `radius` is negative or non-finite.
pub fn unit_disk_from_points(pts: &[(f64, f64)], radius: f64) -> CsrGraph {
    assert!(
        radius.is_finite() && radius >= 0.0,
        "radius {radius} must be finite and non-negative"
    );
    let n = pts.len();
    let mut b = GraphBuilder::new(n);
    if radius == 0.0 || n < 2 {
        return b.build();
    }
    let cell = radius;
    let cells_per_axis = (1.0 / cell).ceil().max(1.0) as i64;
    let key = |x: f64, y: f64| -> (i64, i64) {
        (
            ((x / cell) as i64).min(cells_per_axis - 1),
            ((y / cell) as i64).min(cells_per_axis - 1),
        )
    };
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets.entry(key(x, y)).or_default().push(i);
    }
    let r2 = radius * radius;
    for (&(cx, cy), members) in &buckets {
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                let Some(other) = buckets.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &i in members {
                    for &j in other {
                        if i < j {
                            let (xi, yi) = pts[i];
                            let (xj, yj) = pts[j];
                            let d2 = (xi - xj).powi(2) + (yi - yj).powi(2);
                            if d2 <= r2 {
                                b.add_edge_unchecked_duplicate(i, j)
                                    .expect("udg edge in range");
                            }
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m_attach + 1` nodes, then each new node attaches to `m_attach` distinct
/// existing nodes with probability proportional to degree.
///
/// Produces the heavy-tailed degree distributions under which the paper's
/// `Δ^{2/k}` factors are most visible.
///
/// # Panics
///
/// Panics if `m_attach == 0` or `n < m_attach + 1`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m_attach: usize, rng: &mut R) -> CsrGraph {
    assert!(m_attach >= 1, "attachment count must be positive");
    assert!(
        n > m_attach,
        "need at least m_attach + 1 = {} nodes",
        m_attach + 1
    );
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling an index uniformly is preferential
    // attachment by degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * m_attach);
    for u in 0..=m_attach {
        for v in (u + 1)..=m_attach {
            b.add_edge_unchecked_duplicate(u, v)
                .expect("seed clique edge");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    // Insertion-ordered (not hashed) so the construction is deterministic
    // in the RNG: the order targets enter `endpoints` affects later draws.
    let mut targets: Vec<usize> = Vec::with_capacity(m_attach);
    for v in (m_attach + 1)..n {
        targets.clear();
        while targets.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge_unchecked_duplicate(t, v)
                .expect("ba edge in range");
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_degrees() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(NodeId::new(0)), 1);
        assert_eq!(p.degree(NodeId::new(2)), 2);
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c.node_ids().all(|v| c.degree(v) == 2));
    }

    #[test]
    fn single_node_path() {
        let p = path(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn star_shape() {
        let s = star(6);
        assert_eq!(s.degree(NodeId::new(0)), 5);
        for v in 1..6 {
            assert_eq!(s.degree(NodeId::new(v)), 1);
        }
    }

    #[test]
    fn complete_graphs() {
        let k = complete(6);
        assert_eq!(k.num_edges(), 15);
        assert!(k.node_ids().all(|v| k.degree(v) == 5));
        let kb = complete_bipartite(2, 3);
        assert_eq!(kb.num_edges(), 6);
        assert_eq!(kb.degree(NodeId::new(0)), 3);
        assert_eq!(kb.degree(NodeId::new(4)), 2);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.max_degree(), 4);
        let t = torus(3, 4);
        assert!(t.node_ids().all(|v| t.degree(v) == 4));
        assert_eq!(t.num_edges(), 2 * 12);
    }

    #[test]
    fn degenerate_torus_has_no_duplicate_edges() {
        let t = torus(2, 2); // wraps suppressed, reduces to a 4-cycle
        assert_eq!(t.num_edges(), 4);
        let t = torus(1, 5); // single row: a cycle
        assert_eq!(t.num_edges(), 5);
        let t = torus(1, 2); // single edge
        assert_eq!(t.num_edges(), 1);
    }

    #[test]
    fn balanced_tree_sizes() {
        let t = balanced_tree(2, 3);
        assert_eq!(t.len(), 15);
        assert_eq!(t.num_edges(), 14);
        assert_eq!(t.degree(NodeId::new(0)), 2);
        let unary = balanced_tree(1, 4); // a path
        assert_eq!(unary.len(), 5);
        let root_only = balanced_tree(3, 0);
        assert_eq!(root_only.len(), 1);
    }

    #[test]
    fn caterpillar_shape() {
        let c = caterpillar(3, 2);
        assert_eq!(c.len(), 9);
        assert_eq!(c.num_edges(), 2 + 6);
        assert_eq!(c.degree(NodeId::new(1)), 4); // middle spine: 2 spine + 2 legs
    }

    #[test]
    fn petersen_is_three_regular() {
        let p = petersen();
        assert_eq!(p.len(), 10);
        assert_eq!(p.num_edges(), 15);
        assert!(p.node_ids().all(|v| p.degree(v) == 3));
        // Girth 5: no triangles through node 0.
        for u in p.neighbors(NodeId::new(0)) {
            for v in p.neighbors(NodeId::new(0)) {
                if u < v {
                    assert!(!p.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn star_of_cliques_structure() {
        let g = star_of_cliques(3, 4);
        assert_eq!(g.len(), 13);
        assert_eq!(g.degree(NodeId::new(0)), 3);
        // Gateways have clique_size-1 + 1 neighbors.
        assert_eq!(g.degree(NodeId::new(1)), 4);
        // Interior clique nodes have clique_size-1 neighbors.
        assert_eq!(g.degree(NodeId::new(2)), 3);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).num_edges(), 45);
        assert_eq!(gnp(0, 0.5, &mut rng).len(), 0);
        assert_eq!(gnp(1, 0.5, &mut rng).len(), 1);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, &mut rng);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        // 5 sigma tolerance.
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (m - expected).abs() < 5.0 * sigma,
            "m = {m}, expected {expected} ± {}",
            5.0 * sigma
        );
    }

    #[test]
    fn gnp_deterministic_for_seed() {
        let g1 = gnp(50, 0.2, &mut SmallRng::seed_from_u64(9));
        let g2 = gnp(50, 0.2, &mut SmallRng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gnm(30, 100, &mut rng);
        assert_eq!(g.num_edges(), 100);
        let g = gnm(5, 10, &mut rng); // the complete graph
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn unit_disk_radius_extremes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = unit_disk(50, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 0);
        let g = unit_disk(50, 2.0, &mut rng); // diameter of unit square < 2
        assert_eq!(g.num_edges(), 50 * 49 / 2);
    }

    #[test]
    fn unit_disk_matches_naive_check() {
        let mut rng = SmallRng::seed_from_u64(11);
        let pts: Vec<(f64, f64)> = (0..80).map(|_| (rng.gen(), rng.gen())).collect();
        let r = 0.17;
        let g = unit_disk_from_points(&pts, r);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                assert_eq!(
                    g.has_edge(NodeId::new(i), NodeId::new(j)),
                    d2 <= r * r,
                    "pair ({i},{j}) disagreement"
                );
            }
        }
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let mut rng = SmallRng::seed_from_u64(8);
        let n = 200;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng);
        assert_eq!(g.len(), n);
        // Seed clique + m per subsequent node.
        assert_eq!(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
        // Hubs exist: max degree well above m.
        assert!(g.max_degree() > 2 * m);
    }

    #[test]
    fn hypercube_structure() {
        let q3 = hypercube(3);
        assert_eq!(q3.len(), 8);
        assert_eq!(q3.num_edges(), 12);
        assert!(q3.node_ids().all(|v| q3.degree(v) == 3));
        // Bipartite: no odd cycles through 0 at distance 1 (no triangles).
        for u in q3.neighbors(NodeId::new(0)) {
            for v in q3.neighbors(NodeId::new(0)) {
                if u < v {
                    assert!(!q3.has_edge(u, v));
                }
            }
        }
        let q0 = hypercube(0);
        assert_eq!(q0.len(), 1);
        assert_eq!(q0.num_edges(), 0);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = SmallRng::seed_from_u64(14);
        for (n, d) in [(20usize, 3usize), (30, 4), (16, 2), (10, 0)] {
            let g = random_regular(n, d, &mut rng);
            assert_eq!(g.len(), n);
            assert!(g.node_ids().all(|v| g.degree(v) == d), "not {d}-regular");
        }
    }

    #[test]
    fn random_regular_deterministic() {
        let a = random_regular(24, 3, &mut SmallRng::seed_from_u64(4));
        let b = random_regular(24, 3, &mut SmallRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_product() {
        random_regular(5, 3, &mut SmallRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn gnp_rejects_bad_probability() {
        gnp(5, 1.5, &mut SmallRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "only")]
    fn gnm_rejects_too_many_edges() {
        gnm(3, 4, &mut SmallRng::seed_from_u64(0));
    }
}
