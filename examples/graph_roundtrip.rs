//! Round-trips a G(n,p) graph with n = 100k and about 800k edges through
//! every checked rebuild of its CSR: the edge-list and strict DIMACS text
//! formats, `CsrGraph::from_edges` over its own edges, and `apply_churn`.
//! Each result must equal the source.
//!
//! Every path adds edges through the duplicate-checking `add_edge`, or,
//! for churn, rebuilds the whole edge set, so the example finishes in
//! about a second only while both stay linear in the number of edges.
//!
//! ```text
//! cargo run --release --example graph_roundtrip
//! ```

use std::time::Instant;

use kw_graph::{apply_churn, generators, io, ChurnEvent, ChurnKind, CsrGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let g = generators::gnp(100_000, 0.00016, &mut SmallRng::seed_from_u64(1));
    println!(
        "gnp: n = {}, m = {} ({:.0} ms)",
        g.len(),
        g.num_edges(),
        ms(start)
    );

    let start = Instant::now();
    let back = io::parse_edge_list(&io::to_edge_list(&g))?;
    assert!(back == g, "edge-list round trip changed the graph");
    println!("edge list: {:.0} ms", ms(start));

    let start = Instant::now();
    let back = io::parse_dimacs(&io::write_dimacs(&g))?;
    assert!(back == g, "strict DIMACS round trip changed the graph");
    println!("strict DIMACS: {:.0} ms", ms(start));

    let start = Instant::now();
    let back = CsrGraph::from_edges(g.len(), g.edges().map(|(u, v)| (u.index(), v.index())))?;
    assert!(back == g, "from_edges over the graph's edges changed it");
    println!("from_edges: {:.0} ms", ms(start));

    let start = Instant::now();
    assert!(
        apply_churn(&g, &[]) == g,
        "an empty churn script changed the graph"
    );
    let (u, v) = g.edges().next().ok_or("gnp drew no edge")?;
    let remove = ChurnEvent {
        round: 0,
        kind: ChurnKind::RemoveEdge(u.raw(), v.raw()),
    };
    let churned = apply_churn(&g, &[remove]);
    assert_eq!(churned.num_edges(), g.num_edges() - 1);
    assert!(!churned.has_edge(u, v), "the removed edge survived churn");
    println!("apply_churn (twice): {:.0} ms", ms(start));
    Ok(())
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
