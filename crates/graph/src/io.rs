//! Plain-text graph serialization.
//!
//! Two formats round-trip losslessly:
//!
//! * the workspace's minimal edge list ([`to_edge_list`] /
//!   [`parse_edge_list`]):
//!
//!   ```text
//!   # comment lines start with '#'
//!   n <num_nodes>
//!   <u> <v>
//!   ...
//!   ```
//!
//! * the DIMACS graph format ([`write_dimacs`] / [`parse_dimacs`]),
//!   which real-world benchmark files (DIMACS challenges, SNAP exports)
//!   ship in — node ids are **1-based** on the wire:
//!
//!   ```text
//!   c comment lines start with 'c'
//!   p edge <num_nodes> <num_edges>
//!   e <u> <v>
//!   ...
//!   ```
//!
//! # Strict vs lenient DIMACS
//!
//! [`parse_dimacs`] is **strict**: it accepts exactly what
//! [`write_dimacs`] emits (plus the `p col` alias) and rejects anything
//! else — duplicate edges, self-loops, unknown line kinds, and any
//! mismatch between the declared edge count and the number of `e`
//! lines. Strictness is the right contract for round-trips: a file this
//! workspace wrote that fails to parse back is corrupt.
//!
//! Real DIMACS-challenge downloads are messier: coloring instances
//! carry `n <id> <value>` node lines, several families list every edge
//! in both orientations (so the declared `m` counts *lines*, not
//! undirected edges), and ad-hoc exports contain stray self-loops.
//! [`parse_dimacs_lenient`] accepts those files, cleaning as it goes —
//! duplicate edges are deduplicated, self-loops dropped, unknown line
//! kinds skipped — and reports what it cleaned in [`DimacsStats`] so
//! callers can log (or assert on) the cleanup instead of silently
//! trusting it. Truncation is still an error in lenient mode: a file
//! with *fewer* `e` lines than its problem line declares is a broken
//! download, not a messy one.
//!
//! # Example
//!
//! ```
//! use kw_graph::{generators, io};
//!
//! let g = generators::cycle(4);
//! let back = io::parse_edge_list(&io::to_edge_list(&g))?;
//! assert_eq!(g, back);
//! let back = io::parse_dimacs(&io::write_dimacs(&g))?;
//! assert_eq!(g, back);
//! # Ok::<(), kw_graph::GraphError>(())
//! ```

use std::fmt::Write as _;

use crate::{CsrGraph, GraphBuilder, GraphError};

/// Serializes a graph to the edge-list text format.
pub fn to_edge_list(g: &CsrGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.len());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.index(), v.index());
    }
    out
}

/// Parses the edge-list text format produced by [`to_edge_list`].
///
/// Blank lines and lines starting with `#` are ignored. The `n <count>`
/// header must appear before any edge.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input and the usual
/// construction errors on invalid edges.
pub fn parse_edge_list(text: &str) -> Result<CsrGraph, GraphError> {
    let mut builder: Option<GraphBuilder> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("n ") {
            if builder.is_some() {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: "duplicate node-count header".to_string(),
                });
            }
            let n: usize = rest.trim().parse().map_err(|_| GraphError::Parse {
                line: line_no,
                reason: format!("invalid node count {rest:?}"),
            })?;
            builder = Some(GraphBuilder::new(n));
            continue;
        }
        let b = builder.as_mut().ok_or_else(|| GraphError::Parse {
            line: line_no,
            reason: "edge before 'n <count>' header".to_string(),
        })?;
        let mut parts = line.split_whitespace();
        let (u, v) = match (parts.next(), parts.next(), parts.next()) {
            (Some(u), Some(v), None) => (u, v),
            _ => {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: format!("expected 'u v', got {line:?}"),
                })
            }
        };
        let parse = |s: &str| -> Result<usize, GraphError> {
            s.parse().map_err(|_| GraphError::Parse {
                line: line_no,
                reason: format!("invalid node id {s:?}"),
            })
        };
        b.add_edge(parse(u)?, parse(v)?)?;
    }
    Ok(builder
        .ok_or(GraphError::Parse {
            line: 0,
            reason: "missing 'n <count>' header".to_string(),
        })?
        .build())
}

/// Serializes a graph to the DIMACS graph format (`p edge n m` header,
/// 1-based `e u v` lines).
pub fn write_dimacs(g: &CsrGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "c kw-graph export");
    let _ = writeln!(out, "p edge {} {}", g.len(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u.index() + 1, v.index() + 1);
    }
    out
}

/// What [`parse_dimacs_lenient`] saw and cleaned up while reading one
/// file. All counters refer to the raw text, before cleanup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DimacsStats {
    /// Node count declared by the problem line.
    pub declared_nodes: usize,
    /// Edge count declared by the problem line. Files that list both
    /// orientations declare the *line* count here, so this may exceed
    /// the parsed graph's [`CsrGraph::num_edges`].
    pub declared_edges: usize,
    /// Total `e` lines in the file (valid ones, before deduplication).
    pub edge_lines: usize,
    /// `e` lines dropped because the same undirected edge appeared
    /// earlier (either orientation).
    pub duplicate_edges: usize,
    /// `e` lines dropped because both endpoints were equal.
    pub self_loops: usize,
    /// Lines of unknown kind (e.g. `n <id> <value>` node lines in
    /// coloring instances) skipped entirely.
    pub skipped_lines: usize,
}

/// How the DIMACS parser treats real-world messiness. See the
/// [module docs](self) for the full contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DimacsMode {
    /// Exactly [`write_dimacs`]'s output: every deviation is an error.
    Strict,
    /// DIMACS-challenge downloads: dedup, drop loops, skip unknowns.
    Lenient,
}

/// Parses the DIMACS graph format produced by [`write_dimacs`],
/// **strictly**: `c ...` comments (ignored), one `p edge <n> <m>`
/// problem line before any edge (`p col` is accepted as an alias, as
/// coloring instances use it), and `e <u> <v>` edges with **1-based**
/// endpoints. The declared edge count `m` must match the number of edge
/// lines — a mismatch usually means a truncated download, exactly what
/// a parser should refuse to feed into an experiment.
///
/// For files fetched from the wild (duplicate edges, self-loops, node
/// lines), use [`parse_dimacs_lenient`] instead.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input and the usual
/// construction errors on invalid edges (out-of-range ids, self-loops,
/// duplicates).
pub fn parse_dimacs(text: &str) -> Result<CsrGraph, GraphError> {
    parse_dimacs_inner(text, DimacsMode::Strict).map(|(g, _)| g)
}

/// Parses real DIMACS-challenge files, tolerating (and counting) the
/// messiness they actually ship with:
///
/// * repeated `e` lines — including the both-orientations convention
///   several challenge families use — are deduplicated;
/// * self-loops are dropped (the dominating-set formulation uses closed
///   neighborhoods, so they carry no information);
/// * unknown line kinds (`n <id> <value>` node lines of coloring
///   instances, `d`/`x`/`v` extensions) are skipped;
/// * any `p <format> <n> <m>` problem line is accepted, not just
///   `p edge`/`p col`;
/// * extra tokens after the two endpoints of an `e` line (edge weights)
///   are ignored.
///
/// Each cleanup is counted in the returned [`DimacsStats`]. The
/// edge-count check is mode-aware: where strict mode demands equality,
/// lenient mode only rejects files with *fewer* `e` lines than the
/// problem line declares — that is a truncated download, while a
/// surplus is the both-orientations convention.
///
/// # Errors
///
/// [`GraphError::Parse`] on malformed problem/edge lines or a truncated
/// file; [`GraphError::NodeOutOfRange`] on endpoints past the declared
/// node count (out-of-range ids mean a broken file, not a messy one).
pub fn parse_dimacs_lenient(text: &str) -> Result<(CsrGraph, DimacsStats), GraphError> {
    parse_dimacs_inner(text, DimacsMode::Lenient)
}

fn parse_dimacs_inner(text: &str, mode: DimacsMode) -> Result<(CsrGraph, DimacsStats), GraphError> {
    let lenient = mode == DimacsMode::Lenient;
    let mut builder: Option<GraphBuilder> = None;
    let mut stats = DimacsStats::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(GraphError::Parse {
                        line: line_no,
                        reason: "duplicate problem line".to_string(),
                    });
                }
                let format = parts.next().unwrap_or("");
                // Strict: only the formats write_dimacs round-trips.
                // Lenient: any named format (sp, cnf exports, …).
                let accepted = match mode {
                    DimacsMode::Strict => format == "edge" || format == "col",
                    DimacsMode::Lenient => !format.is_empty(),
                };
                if !accepted {
                    return Err(GraphError::Parse {
                        line: line_no,
                        reason: format!("expected 'p edge <n> <m>', got format {format:?}"),
                    });
                }
                let mut number = |what: &str| -> Result<usize, GraphError> {
                    parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| GraphError::Parse {
                            line: line_no,
                            reason: format!("invalid or missing {what} in problem line"),
                        })
                };
                stats.declared_nodes = number("node count")?;
                stats.declared_edges = number("edge count")?;
                builder = Some(GraphBuilder::new(stats.declared_nodes));
            }
            Some("e") => {
                let b = builder.as_mut().ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    reason: "edge before the 'p edge' problem line".to_string(),
                })?;
                let mut endpoint = |what: &str| -> Result<usize, GraphError> {
                    let id: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                        GraphError::Parse {
                            line: line_no,
                            reason: format!("invalid or missing {what}"),
                        }
                    })?;
                    // DIMACS ids are 1-based.
                    id.checked_sub(1).ok_or(GraphError::Parse {
                        line: line_no,
                        reason: format!("{what} is 0 (DIMACS ids are 1-based)"),
                    })
                };
                let u = endpoint("edge endpoint u")?;
                let v = endpoint("edge endpoint v")?;
                if parts.next().is_some() && !lenient {
                    return Err(GraphError::Parse {
                        line: line_no,
                        reason: format!("expected 'e u v', got {line:?}"),
                    });
                }
                stats.edge_lines += 1;
                // Lenient mode counts and drops loops and repeats; range
                // errors stay fatal even there, since an endpoint past the
                // declared node count is a broken file.
                match b.add_edge(u, v) {
                    Err(GraphError::SelfLoop { .. }) if lenient => stats.self_loops += 1,
                    Err(GraphError::DuplicateEdge { .. }) if lenient => stats.duplicate_edges += 1,
                    added => added?,
                }
            }
            _ if lenient => stats.skipped_lines += 1,
            _ => {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: format!("unknown line type {line:?}"),
                })
            }
        }
    }
    let builder = builder.ok_or(GraphError::Parse {
        line: 0,
        reason: "missing 'p edge <n> <m>' problem line".to_string(),
    })?;
    // Mode-aware edge-count check: strict demands exact agreement with
    // the problem line; lenient only refuses truncation (fewer lines
    // than declared), since real files routinely declare the line count
    // of a both-orientations listing.
    let truncated = stats.edge_lines < stats.declared_edges;
    if truncated || (!lenient && stats.edge_lines != stats.declared_edges) {
        return Err(GraphError::Parse {
            line: 0,
            reason: format!(
                "problem line declares {} edges but {} were listed{}",
                stats.declared_edges,
                stats.edge_lines,
                if truncated { " (truncated file?)" } else { "" },
            ),
        });
    }
    Ok((builder.build(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_petersen() {
        let g = generators::petersen();
        let text = to_edge_list(&g);
        assert_eq!(parse_edge_list(&text).unwrap(), g);
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = parse_edge_list("# header\n\nn 3\n# edge below\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse_edge_list("0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = parse_edge_list("").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn duplicate_header_rejected() {
        let err = parse_edge_list("n 2\nn 3\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn malformed_edges_rejected() {
        assert!(parse_edge_list("n 2\n0\n").is_err());
        assert!(parse_edge_list("n 2\n0 1 2\n").is_err());
        assert!(parse_edge_list("n 2\na b\n").is_err());
        assert!(parse_edge_list("n 2\n0 5\n").is_err());
    }

    #[test]
    fn text_roundtrip_preserves_adjacency_of_random_graph() {
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::gnp(40, 0.15, &mut SmallRng::seed_from_u64(2));
        assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn dimacs_roundtrip_petersen_and_empty() {
        let g = generators::petersen();
        let text = write_dimacs(&g);
        assert!(text.contains("p edge 10 15"));
        assert_eq!(parse_dimacs(&text).unwrap(), g);
        let empty = CsrGraph::empty(4);
        assert_eq!(parse_dimacs(&write_dimacs(&empty)).unwrap(), empty);
    }

    #[test]
    fn dimacs_parses_handwritten_instance_with_comments() {
        let g = parse_dimacs(
            "c a triangle plus an isolated node\n\
             \n\
             p edge 4 3\n\
             e 1 2\n\
             c mid-file comment\n\
             e 2 3\n\
             e 3 1\n",
        )
        .unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
        // 'p col' alias of coloring instances is accepted.
        let colored = parse_dimacs("p col 2 1\ne 1 2\n").unwrap();
        assert_eq!(colored.num_edges(), 1);
    }

    #[test]
    fn dimacs_rejects_malformed_instances() {
        // Missing / duplicate / alien problem lines.
        assert!(parse_dimacs("e 1 2\n").is_err());
        assert!(parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2\n").is_err());
        assert!(parse_dimacs("p matrix 2 1\ne 1 2\n").is_err());
        assert!(parse_dimacs("p edge x 1\n").is_err());
        // Edge-count mismatch (truncated file).
        assert!(parse_dimacs("p edge 3 2\ne 1 2\n").is_err());
        // 0-based or out-of-range endpoints, malformed edge lines.
        assert!(parse_dimacs("p edge 2 1\ne 0 1\n").is_err());
        assert!(parse_dimacs("p edge 2 1\ne 1 3\n").is_err());
        assert!(parse_dimacs("p edge 2 1\ne 1\n").is_err());
        assert!(parse_dimacs("p edge 2 1\ne 1 2 3\n").is_err());
        assert!(parse_dimacs("p edge 2 1\nq 1 2\n").is_err());
    }

    #[test]
    fn lenient_dedups_drops_loops_and_skips_node_lines() {
        // A miniature of a real coloring download: node lines, a self
        // loop, both-orientations duplicates, an edge weight, and a
        // declared edge count that counts lines, not undirected edges.
        let text = "c messy challenge instance\n\
                    p edge 4 6\n\
                    n 1 10\n\
                    n 2 20\n\
                    e 1 2\n\
                    e 2 1\n\
                    e 2 3\n\
                    e 3 3\n\
                    e 3 4 7\n\
                    e 1 2\n";
        let (g, stats) = parse_dimacs_lenient(text).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3); // {1,2}, {2,3}, {3,4}
        assert_eq!(
            stats,
            DimacsStats {
                declared_nodes: 4,
                declared_edges: 6,
                edge_lines: 6,
                duplicate_edges: 2,
                self_loops: 1,
                skipped_lines: 2,
            }
        );
        // Strict mode rejects the same file (node lines come first).
        assert!(parse_dimacs(text).is_err());
    }

    #[test]
    fn lenient_edge_count_check_rejects_truncation_only() {
        // Surplus e lines (both-orientations files): accepted.
        let surplus = "p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n";
        let (g, stats) = parse_dimacs_lenient(surplus).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.duplicate_edges, 1);
        // Fewer e lines than declared: a truncated download, rejected.
        let truncated = "p edge 3 3\ne 1 2\ne 2 3\n";
        let err = parse_dimacs_lenient(truncated).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Strict rejects both.
        assert!(parse_dimacs(surplus).is_err());
        assert!(parse_dimacs(truncated).is_err());
    }

    #[test]
    fn lenient_accepts_alien_problem_formats_but_not_garbage() {
        // `p sp` (shortest-path family) parses in lenient mode.
        let (g, _) = parse_dimacs_lenient("p sp 2 1\ne 1 2\n").unwrap();
        assert_eq!(g.num_edges(), 1);
        // Hard failures stay hard in lenient mode.
        assert!(parse_dimacs_lenient("e 1 2\n").is_err()); // no problem line
        assert!(parse_dimacs_lenient("p edge 2 1\ne 1 5\n").is_err()); // out of range
        assert!(parse_dimacs_lenient("p edge 2 1\ne 0 1\n").is_err()); // 0-based id
        assert!(parse_dimacs_lenient("p edge 2 1\ne 1\n").is_err()); // missing endpoint
        assert!(parse_dimacs_lenient("p edge 2 1\np edge 2 1\ne 1 2\n").is_err());
        assert!(parse_dimacs_lenient("p 2 1\ne 1 2\n").is_err()); // numeric format token eats n
    }

    #[test]
    fn lenient_agrees_with_strict_on_clean_files() {
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::gnp(30, 0.2, &mut SmallRng::seed_from_u64(3));
        let text = write_dimacs(&g);
        let (lenient, stats) = parse_dimacs_lenient(&text).unwrap();
        assert_eq!(lenient, parse_dimacs(&text).unwrap());
        assert_eq!(
            stats.duplicate_edges + stats.self_loops + stats.skipped_lines,
            0
        );
        assert_eq!(stats.edge_lines, g.num_edges());
    }

    #[test]
    fn dimacs_and_edge_list_agree_on_random_graphs() {
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::gnp(40, 0.15, &mut SmallRng::seed_from_u64(7));
        assert_eq!(parse_dimacs(&write_dimacs(&g)).unwrap(), g);
        assert_eq!(
            parse_dimacs(&write_dimacs(&g)).unwrap(),
            parse_edge_list(&to_edge_list(&g)).unwrap()
        );
    }
}
