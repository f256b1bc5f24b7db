//! Workload definitions shared by the experiment drivers.
//!
//! A [`Workload`] names a graph family and its parameters; experiments
//! iterate over a standard list so every table sweeps the same topologies
//! the paper's motivation calls for (ad-hoc/unit-disk networks) plus
//! families that stress the `Δ`-dependent bounds. Since the instance
//! registry landed, a workload can also be an **externally loaded
//! graph** ([`Workload::Dimacs`]): a real DIMACS-challenge file parsed
//! leniently at build time, validated against the bundled
//! [`instances`] registry when it names a bundled
//! instance.
//!
//! # Spec grammar
//!
//! Workloads are CLI-drivable through a string grammar mirroring the
//! solver spec grammar (`kw_core::solver::SolverSpec`):
//!
//! ```text
//! spec := family ":" key "=" value ("," key "=" value)*
//!       | "dimacs:" path
//!
//! gnp:n=1024,p=0.01        Erdős–Rényi G(n, p)
//! udg:n=100,r=0.18         unit-disk, radius r in the unit square
//! ba:n=100,m=2             Barabási–Albert, m attachments per node
//! grid:side=10             side × side grid
//! tree:b=3,d=4             complete b-ary tree of depth d
//! cliques:c=5,size=8       hub-and-cliques (Figure 1 structure)
//! dimacs:instances/foo.col externally loaded DIMACS file
//! dimacs:name=x,path=p.col the same with an explicit display name
//! ```
//!
//! The bare-path `dimacs:` form names the workload after the file stem;
//! the explicit `name=`/`path=` form carries a custom display name. In
//! the explicit form `path=` consumes the rest of the spec verbatim, so
//! paths containing `=` or `,` round-trip; [`Workload::spec`] picks
//! whichever form reproduces the workload exactly. The one
//! representational limit: a custom *name* containing the substring
//! `,path=` cannot be written unambiguously (the parser splits at its
//! first occurrence, so the path side is the one that may contain it).
//!
//! [`Workload::parse`] reads this grammar and [`Workload::spec`] writes
//! it back; `parse(w.spec()) == w` for every workload.
//!
//! # Labels are cache and store keys
//!
//! [`Workload::label`] is not just a table row heading: the experiment
//! cache memoizes graphs and outcomes by label, and the run store
//! persists and replays records by label. Two different graphs must
//! therefore never share a label (the runner fails fast on duplicate
//! labels within one matrix), and label text must be **stable across
//! sites and releases** — a label that drifts (`p=0.1` vs `p=0.10`)
//! silently splits a cache cell. All float parameters are rendered
//! through one canonical formatter ([`canon_f64`]), and the label of
//! every suite workload is pinned by a test.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use kw_graph::{generators, io, CsrGraph};

use crate::instances;

/// A named, parameterized graph family (or an external instance).
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Unit-disk graph with `n` nodes and the given radius.
    UnitDisk {
        /// Node count.
        n: usize,
        /// Connection radius in the unit square.
        radius: f64,
    },
    /// Barabási–Albert with `m` attachments per node.
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Attachments per new node.
        m: usize,
    },
    /// A `side × side` grid.
    Grid {
        /// Side length.
        side: usize,
    },
    /// Complete `arity`-ary tree of the given depth.
    Tree {
        /// Branching factor.
        arity: usize,
        /// Depth.
        depth: usize,
    },
    /// Hub-and-cliques graph (Figure 1's two-scale degree structure).
    StarOfCliques {
        /// Number of cliques.
        cliques: usize,
        /// Clique size.
        clique_size: usize,
    },
    /// An externally loaded DIMACS instance ([`io::parse_dimacs_lenient`]).
    ///
    /// Instance workloads are **seed-invariant**: `build` returns the
    /// identical graph for every seed (the file *is* the graph), unlike
    /// the generated families where the seed drives the topology. When
    /// `name` matches a bundled instance, loading validates the file's
    /// checksum and shape against the [`instances`] registry.
    Dimacs {
        /// Registry/display name (by convention the file stem).
        name: String,
        /// File path, absolute or relative to the workspace root.
        path: PathBuf,
    },
}

/// Errors from workload spec parsing or instance loading.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// A spec string failed to parse.
    Spec {
        /// The offending spec text.
        spec: String,
        /// Human-readable reason.
        reason: String,
    },
    /// An external instance failed to load or parse.
    Load {
        /// Label of the workload being built.
        workload: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A bundled instance file disagreed with its registry entry
    /// (checksum or `(n, m, Δ)` shape).
    Validate {
        /// Label of the workload being built.
        workload: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Spec { spec, reason } => {
                write!(f, "invalid workload spec {spec:?}: {reason}")
            }
            WorkloadError::Load { workload, reason } => {
                write!(f, "workload {workload} failed to load: {reason}")
            }
            WorkloadError::Validate { workload, reason } => {
                write!(f, "workload {workload} failed validation: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The canonical float-to-text formatter for workload labels and specs.
///
/// Labels key the experiment cache and the run store, so float rendering
/// must be identical at every site and stable across releases; this is
/// the only formatter labels may use. It emits Rust's shortest
/// round-trip representation (`0.1`, not `0.10`; `1`, not `1.0`), which
/// [`Workload::parse`] reads back exactly.
pub fn canon_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "workload parameters must be finite");
    let s = format!("{x}");
    debug_assert_eq!(s.parse::<f64>().ok(), Some(x), "canon_f64 must round-trip");
    s
}

impl Workload {
    /// An external DIMACS instance workload for `path`; the display name
    /// is the file stem.
    pub fn dimacs(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string_lossy().into_owned());
        Workload::Dimacs { name, path }
    }

    /// Whether `build` depends on the seed. Instance workloads (and the
    /// deterministic generated families) return the identical graph for
    /// every seed; callers that materialize one graph per seed should
    /// check this instead of pretending seeds vary.
    pub fn is_seeded(&self) -> bool {
        matches!(
            self,
            Workload::Gnp { .. } | Workload::UnitDisk { .. } | Workload::BarabasiAlbert { .. }
        )
    }

    /// Instantiates the graph (deterministic in `seed`; seed-invariant
    /// for [`Workload::Dimacs`] and the deterministic families — see
    /// [`is_seeded`](Self::is_seeded)).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Load`]/[`WorkloadError::Validate`] for external
    /// instances that fail to read, parse, or match their registry
    /// entry. Generated families cannot fail.
    pub fn try_build(&self, seed: u64) -> Result<CsrGraph, WorkloadError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Ok(match self {
            Workload::Gnp { n, p } => generators::gnp(*n, *p, &mut rng),
            Workload::UnitDisk { n, radius } => generators::unit_disk(*n, *radius, &mut rng),
            Workload::BarabasiAlbert { n, m } => generators::barabasi_albert(*n, *m, &mut rng),
            Workload::Grid { side } => generators::grid(*side, *side),
            Workload::Tree { arity, depth } => generators::balanced_tree(*arity, *depth),
            Workload::StarOfCliques {
                cliques,
                clique_size,
            } => generators::star_of_cliques(*cliques, *clique_size),
            Workload::Dimacs { name, path } => self.load_instance(name, path)?,
        })
    }

    /// Instantiates the graph, panicking on external-instance failures
    /// (the experiment drivers' convention; use
    /// [`try_build`](Self::try_build) to handle them).
    pub fn build(&self, seed: u64) -> CsrGraph {
        self.try_build(seed)
            .unwrap_or_else(|e| panic!("cannot build workload {}: {e}", self.label()))
    }

    fn load_instance(&self, name: &str, path: &Path) -> Result<CsrGraph, WorkloadError> {
        let label = self.label();
        let load_err = |reason: String| WorkloadError::Load {
            workload: label.clone(),
            reason,
        };
        let resolved = instances::resolve(path);
        let bytes = std::fs::read(&resolved)
            .map_err(|e| load_err(format!("read {}: {e}", resolved.display())))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| load_err(format!("{} is not UTF-8", resolved.display())))?;
        let (graph, _stats) =
            io::parse_dimacs_lenient(text).map_err(|e| load_err(e.to_string()))?;
        // Registry validation applies only when this workload actually
        // names the bundled file — a user's own `myciel3.col` elsewhere
        // on disk (including cwd-relative) is a different graph, not a
        // corrupted fixture. Canonicalization makes the comparison
        // immune to how either path was spelled; a registry file that
        // fails to canonicalize (missing fixture tree) never matches the
        // just-read `resolved`.
        if let Some(meta) = instances::find(name) {
            let same_file = match (resolved.canonicalize(), meta.registry_path().canonicalize()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            };
            if same_file {
                meta.validate(&bytes, &graph)
                    .map_err(|reason| WorkloadError::Validate {
                        workload: label.clone(),
                        reason,
                    })?;
            }
        }
        Ok(graph)
    }

    /// Short label for table rows — and the **cache/store key** of this
    /// workload (see the module docs). Floats render through
    /// [`canon_f64`]; the suite labels are pinned by a test.
    pub fn label(&self) -> String {
        match self {
            Workload::Gnp { n, p } => format!("gnp(n={n},p={})", canon_f64(*p)),
            Workload::UnitDisk { n, radius } => format!("udg(n={n},r={})", canon_f64(*radius)),
            Workload::BarabasiAlbert { n, m } => format!("ba(n={n},m={m})"),
            Workload::Grid { side } => format!("grid({side}x{side})"),
            Workload::Tree { arity, depth } => format!("tree(b={arity},d={depth})"),
            Workload::StarOfCliques {
                cliques,
                clique_size,
            } => {
                format!("cliques({cliques}x{clique_size})")
            }
            Workload::Dimacs { name, .. } => format!("dimacs({name})"),
        }
    }

    /// The canonical spec string of this workload; see the
    /// [module docs](self) for the grammar. `parse(w.spec()) == w`.
    pub fn spec(&self) -> String {
        match self {
            Workload::Gnp { n, p } => format!("gnp:n={n},p={}", canon_f64(*p)),
            Workload::UnitDisk { n, radius } => format!("udg:n={n},r={}", canon_f64(*radius)),
            Workload::BarabasiAlbert { n, m } => format!("ba:n={n},m={m}"),
            Workload::Grid { side } => format!("grid:side={side}"),
            Workload::Tree { arity, depth } => format!("tree:b={arity},d={depth}"),
            Workload::StarOfCliques {
                cliques,
                clique_size,
            } => format!("cliques:c={cliques},size={clique_size}"),
            Workload::Dimacs { name, path } => {
                // The bare-path form implies name == file stem; a custom
                // name needs the explicit form to round-trip. (A path
                // that itself starts with "name=" would be misread as
                // the explicit form, so it is emitted explicitly too.)
                let bare_safe = !path.to_string_lossy().starts_with("name=");
                if bare_safe && Workload::dimacs(path.clone()) == *self {
                    format!("dimacs:{}", path.display())
                } else {
                    format!("dimacs:name={name},path={}", path.display())
                }
            }
        }
    }

    /// Parses a workload spec string (see the [module docs](self) for
    /// the grammar).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] on unknown families, missing or unknown
    /// keys, and unparseable values.
    pub fn parse(text: &str) -> Result<Self, WorkloadError> {
        let bad = |reason: &str| WorkloadError::Spec {
            spec: text.to_string(),
            reason: reason.to_string(),
        };
        let trimmed = text.trim();
        let (family, rest) = match trimmed.split_once(':') {
            Some((f, r)) => (f, r),
            None => (trimmed, ""),
        };
        if family == "dimacs" {
            if rest.is_empty() {
                return Err(bad("dimacs workloads need a path: dimacs:<path>"));
            }
            // Explicit form for custom display names. The path value
            // consumes the rest of the spec verbatim (paths may contain
            // '=' and ','), so the two keys are positional here rather
            // than going through ParamList.
            if let Some(explicit) = rest.strip_prefix("name=") {
                let Some((name, path)) = explicit.split_once(",path=") else {
                    return Err(bad(
                        "explicit dimacs form is dimacs:name=<name>,path=<path>",
                    ));
                };
                if name.is_empty() || path.is_empty() {
                    return Err(bad("dimacs name and path must be nonempty"));
                }
                return Ok(Workload::Dimacs {
                    name: name.to_string(),
                    path: PathBuf::from(path),
                });
            }
            // The common form: a bare path, named after its file stem.
            return Ok(Workload::dimacs(rest));
        }
        let mut params = ParamList::parse(trimmed, rest)?;
        let w = match family {
            "gnp" => Workload::Gnp {
                n: params.take("n")?,
                p: params.take("p")?,
            },
            "udg" => Workload::UnitDisk {
                n: params.take("n")?,
                radius: params.take("r")?,
            },
            "ba" => Workload::BarabasiAlbert {
                n: params.take("n")?,
                m: params.take("m")?,
            },
            "grid" => Workload::Grid {
                side: params.take("side")?,
            },
            "tree" => Workload::Tree {
                arity: params.take("b")?,
                depth: params.take("d")?,
            },
            "cliques" => Workload::StarOfCliques {
                cliques: params.take("c")?,
                clique_size: params.take("size")?,
            },
            _ => {
                return Err(bad(
                    "unknown family; expected gnp, udg, ba, grid, tree, cliques, or dimacs",
                ))
            }
        };
        params.finish()?;
        match &w {
            Workload::Gnp { p, .. } if !(0.0..=1.0).contains(p) => {
                return Err(bad("p must be in [0, 1]"))
            }
            Workload::UnitDisk { radius, .. } if !radius.is_finite() || *radius < 0.0 => {
                return Err(bad("r must be finite and non-negative"))
            }
            _ => {}
        }
        Ok(w)
    }
}

impl std::str::FromStr for Workload {
    type Err = WorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::parse(s)
    }
}

impl std::fmt::Display for Workload {
    /// Displays the canonical spec string (not the label).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// `key=value` pairs of one spec, consumed by [`ParamList::take`] so
/// leftovers (typos) are rejected by [`ParamList::finish`].
struct ParamList<'a> {
    spec: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> ParamList<'a> {
    fn parse(spec: &'a str, text: &'a str) -> Result<Self, WorkloadError> {
        let mut pairs = Vec::new();
        if !text.is_empty() {
            for pair in text.split(',') {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(WorkloadError::Spec {
                        spec: spec.to_string(),
                        reason: "parameters must be comma-separated key=value pairs".to_string(),
                    });
                };
                let (k, v) = (k.trim(), v.trim());
                if k.is_empty() || v.is_empty() {
                    return Err(WorkloadError::Spec {
                        spec: spec.to_string(),
                        reason: "parameter keys and values must be nonempty".to_string(),
                    });
                }
                if pairs.iter().any(|&(seen, _)| seen == k) {
                    return Err(WorkloadError::Spec {
                        spec: spec.to_string(),
                        reason: format!("duplicate parameter key {k:?}"),
                    });
                }
                pairs.push((k, v));
            }
        }
        Ok(ParamList { spec, pairs })
    }

    fn take<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, WorkloadError> {
        let idx = self
            .pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| WorkloadError::Spec {
                spec: self.spec.to_string(),
                reason: format!("missing parameter {key:?}"),
            })?;
        let (_, raw) = self.pairs.swap_remove(idx);
        raw.parse().map_err(|_| WorkloadError::Spec {
            spec: self.spec.to_string(),
            reason: format!("parameter {key}={raw} is not a valid value"),
        })
    }

    fn finish(self) -> Result<(), WorkloadError> {
        if let Some(&(k, _)) = self.pairs.first() {
            return Err(WorkloadError::Spec {
                spec: self.spec.to_string(),
                reason: format!("unknown parameter {k:?}"),
            });
        }
        Ok(())
    }
}

/// Parses a whitespace-separated list of workload specs (e.g. CLI
/// arguments), rejecting duplicate labels — labels key the cache and
/// the store, so a sweep must never contain two workloads sharing one.
///
/// # Errors
///
/// [`WorkloadError::Spec`] on any unparseable spec or duplicate label.
pub fn parse_suite<S: AsRef<str>>(
    specs: impl IntoIterator<Item = S>,
) -> Result<Vec<Workload>, WorkloadError> {
    let mut suite = Vec::new();
    let mut labels = std::collections::HashSet::new();
    for spec in specs {
        let w = Workload::parse(spec.as_ref())?;
        if !labels.insert(w.label()) {
            return Err(WorkloadError::Spec {
                spec: spec.as_ref().to_string(),
                reason: format!("duplicate workload label {:?} in suite", w.label()),
            });
        }
        suite.push(w);
    }
    Ok(suite)
}

/// The standard small sweep (LP-solvable sizes, exact ratios).
pub fn small_suite() -> Vec<Workload> {
    vec![
        Workload::Gnp { n: 64, p: 0.1 },
        Workload::Gnp { n: 128, p: 0.05 },
        Workload::UnitDisk {
            n: 100,
            radius: 0.18,
        },
        Workload::BarabasiAlbert { n: 100, m: 2 },
        Workload::Grid { side: 10 },
        Workload::Tree { arity: 3, depth: 4 },
        Workload::StarOfCliques {
            cliques: 5,
            clique_size: 8,
        },
    ]
}

/// The large sweep (Lemma-1 denominators, scaling measurements).
pub fn large_suite() -> Vec<Workload> {
    vec![
        Workload::Gnp { n: 1024, p: 0.01 },
        Workload::Gnp { n: 4096, p: 0.003 },
        Workload::UnitDisk {
            n: 2048,
            radius: 0.05,
        },
        Workload::BarabasiAlbert { n: 2048, m: 3 },
        Workload::Grid { side: 48 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        for w in small_suite() {
            assert_eq!(w.build(7), w.build(7), "{}", w.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = small_suite().iter().map(Workload::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn sizes_match_parameters() {
        assert_eq!(Workload::Grid { side: 10 }.build(0).len(), 100);
        assert_eq!(Workload::Tree { arity: 3, depth: 4 }.build(0).len(), 121);
    }

    /// Labels are cache/store keys, so every suite label is pinned: a
    /// formatting drift here invalidates persisted run stores.
    #[test]
    fn suite_labels_are_pinned() {
        let small: Vec<String> = small_suite().iter().map(Workload::label).collect();
        assert_eq!(
            small,
            [
                "gnp(n=64,p=0.1)",
                "gnp(n=128,p=0.05)",
                "udg(n=100,r=0.18)",
                "ba(n=100,m=2)",
                "grid(10x10)",
                "tree(b=3,d=4)",
                "cliques(5x8)",
            ]
        );
        let large: Vec<String> = large_suite().iter().map(Workload::label).collect();
        assert_eq!(
            large,
            [
                "gnp(n=1024,p=0.01)",
                "gnp(n=4096,p=0.003)",
                "udg(n=2048,r=0.05)",
                "ba(n=2048,m=3)",
                "grid(48x48)",
            ]
        );
        assert_eq!(
            Workload::dimacs("instances/myciel3.col").label(),
            "dimacs(myciel3)"
        );
    }

    #[test]
    fn canon_f64_is_shortest_roundtrip() {
        assert_eq!(canon_f64(0.1), "0.1");
        assert_eq!(canon_f64(0.003), "0.003");
        assert_eq!(canon_f64(1.0), "1");
        assert_eq!(canon_f64(0.0017), "0.0017");
    }

    #[test]
    fn spec_roundtrips_through_parse() {
        let mut all = small_suite();
        all.extend(large_suite());
        all.push(Workload::dimacs("instances/myciel3.col"));
        for w in all {
            let spec = w.spec();
            assert_eq!(Workload::parse(&spec).unwrap(), w, "{spec}");
        }
    }

    #[test]
    fn parse_reads_the_documented_grammar() {
        assert_eq!(
            Workload::parse("gnp:n=1024,p=0.01").unwrap(),
            Workload::Gnp { n: 1024, p: 0.01 }
        );
        // Key order is free; whitespace is trimmed.
        assert_eq!(
            Workload::parse(" gnp:p=0.01,n=1024 ").unwrap(),
            Workload::Gnp { n: 1024, p: 0.01 }
        );
        assert_eq!(
            Workload::parse("dimacs:instances/foo.col").unwrap(),
            Workload::Dimacs {
                name: "foo".into(),
                path: "instances/foo.col".into(),
            }
        );
        assert_eq!(
            Workload::parse("tree:b=3,d=4").unwrap(),
            Workload::Tree { arity: 3, depth: 4 }
        );
        assert_eq!(
            Workload::parse("cliques:c=5,size=8").unwrap(),
            Workload::StarOfCliques {
                cliques: 5,
                clique_size: 8
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "gnp",                 // missing params
            "gnp:n=64",            // missing p
            "gnp:n=64,p=0.1,q=2",  // unknown key
            "gnp:n=64,n=64,p=0.1", // duplicate key
            "gnp:n=sixty,p=0.1",   // unparseable value
            "gnp:n=64,p=1.5",      // p out of range
            "udg:n=10,r=-1",       // negative radius
            "warp:n=3",            // unknown family
            "dimacs:",             // missing path
            "grid:side=",          // empty value
        ] {
            assert!(Workload::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_suite_rejects_duplicate_labels() {
        let ok = parse_suite(["gnp:n=64,p=0.1", "grid:side=4"]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = parse_suite(["gnp:n=64,p=0.1", "gnp:p=0.1,n=64"]).unwrap_err();
        assert!(
            err.to_string().contains("duplicate workload label"),
            "{err}"
        );
    }

    #[test]
    fn seededness_is_reported_honestly() {
        assert!(Workload::Gnp { n: 4, p: 0.5 }.is_seeded());
        assert!(!Workload::Grid { side: 3 }.is_seeded());
        assert!(!Workload::dimacs("instances/myciel3.col").is_seeded());
        // Seed-invariant workloads really are: same graph for any seed.
        let w = Workload::dimacs("instances/myciel3.col");
        assert_eq!(w.build(0), w.build(17));
    }

    /// A user's own file whose stem collides with a bundled name is a
    /// different graph, not a corrupted fixture: registry validation
    /// must only fire for the registry's own file.
    #[test]
    fn stem_collision_with_bundled_name_skips_registry_validation() {
        let dir = std::env::temp_dir().join(format!("kw_wl_collision_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("myciel3.col");
        std::fs::write(&path, "p edge 3 2\ne 1 2\ne 2 3\n").unwrap();
        let w = Workload::dimacs(&path);
        assert_eq!(w.label(), "dimacs(myciel3)");
        let g = w.try_build(0).expect("user file must load unvalidated");
        assert_eq!((g.len(), g.num_edges()), (3, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The explicit name=/path= form round-trips custom display names
    /// that the bare-path form cannot carry.
    #[test]
    fn custom_dimacs_names_roundtrip_through_the_explicit_spec_form() {
        let w = Workload::Dimacs {
            name: "mygraph".into(),
            path: "data/v2.col".into(),
        };
        assert_eq!(w.spec(), "dimacs:name=mygraph,path=data/v2.col");
        assert_eq!(Workload::parse(&w.spec()).unwrap(), w);
        assert!(Workload::parse("dimacs:name=x").is_err()); // path required
        assert!(Workload::parse("dimacs:name=,path=p.col").is_err());
        // path= consumes the rest verbatim: '=' and ',' in paths
        // round-trip through the explicit form.
        let odd = Workload::Dimacs {
            name: "odd".into(),
            path: "data/a=1,b.col".into(),
        };
        assert_eq!(Workload::parse(&odd.spec()).unwrap(), odd);
        // A bare path containing '=' also round-trips (stem name).
        let bare = Workload::dimacs("data/a=1.col");
        assert_eq!(Workload::parse(&bare.spec()).unwrap(), bare);
    }

    #[test]
    fn missing_instance_file_is_a_load_error_not_a_panic() {
        let w = Workload::dimacs("instances/no_such_file.col");
        match w.try_build(0) {
            Err(WorkloadError::Load { workload, .. }) => {
                assert_eq!(workload, "dimacs(no_such_file)")
            }
            other => panic!("expected Load error, got {other:?}"),
        }
    }
}
