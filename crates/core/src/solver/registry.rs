//! String-keyed solver construction.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::solver::{
    CompositeSolver, DsSolver, FractionalSolver, PipelineSolver, SolveError, SolverSpec,
};

/// A factory building a solver from its parsed spec. The registry passes
/// itself back in so combinator solvers can resolve their inner spec.
pub type SolverFactory = Arc<
    dyn Fn(&SolverSpec, &SolverRegistry) -> Result<Box<dyn DsSolver>, SolveError> + Send + Sync,
>;

/// Maps solver names to factories; the single place experiment drivers,
/// examples, and tests construct algorithms from.
///
/// [`SolverRegistry::with_core_solvers`] registers the paper's own
/// algorithms; `kw_baselines::solvers::register_baselines` adds the five
/// baselines, and the umbrella crate's `default_registry()` combines
/// both. Registered names and their parameter grammar are documented in
/// the umbrella crate's root docs.
#[derive(Clone, Default)]
pub struct SolverRegistry {
    factories: BTreeMap<String, SolverFactory>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the paper's solvers registered: `kw` (Algorithm 3 +
    /// rounding), `alg2` (Algorithm 2 + rounding), and `composite` (the
    /// fused single-protocol variant).
    pub fn with_core_solvers() -> Self {
        let mut registry = Self::new();
        register_core_solvers(&mut registry);
        registry
    }

    /// Registers (or replaces) a factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&SolverSpec, &SolverRegistry) -> Result<Box<dyn DsSolver>, SolveError>
            + Send
            + Sync
            + 'static,
    ) {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Builds a solver from a spec string (see [`SolverSpec`] for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidSpec`] on parse failure,
    /// [`SolveError::UnknownSolver`] for unregistered names.
    pub fn build(&self, spec_text: &str) -> Result<Box<dyn DsSolver>, SolveError> {
        self.build_spec(&SolverSpec::parse(spec_text)?)
    }

    /// Builds a solver from an already-parsed spec.
    ///
    /// # Errors
    ///
    /// Same as [`build`](Self::build).
    pub fn build_spec(&self, spec: &SolverSpec) -> Result<Box<dyn DsSolver>, SolveError> {
        let factory = self
            .factories
            .get(&spec.name)
            .ok_or_else(|| SolveError::UnknownSolver {
                name: spec.name.clone(),
                known: self.names().map(str::to_string).collect(),
            })?;
        factory(spec, self)
    }

    /// Builds one solver per spec, preserving order.
    ///
    /// # Errors
    ///
    /// Fails on the first bad spec.
    pub fn build_all<'a, I>(&self, specs: I) -> Result<Vec<Box<dyn DsSolver>>, SolveError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        specs.into_iter().map(|s| self.build(s)).collect()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

/// Registers the paper's own solvers (`kw`, `alg2`, `composite`) into an
/// existing registry.
pub fn register_core_solvers(registry: &mut SolverRegistry) {
    registry.register("kw", |spec, _| {
        Ok(Box::new(PipelineSolver::from_spec(
            spec,
            FractionalSolver::Alg3,
        )?))
    });
    registry.register("alg2", |spec, _| {
        Ok(Box::new(PipelineSolver::from_spec(
            spec,
            FractionalSolver::Alg2DeltaKnown,
        )?))
    });
    registry.register("composite", |spec, _| {
        Ok(Box::new(CompositeSolver::from_spec(spec)?))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveContext;
    use kw_graph::generators;

    #[test]
    fn core_names_registered() {
        let registry = SolverRegistry::with_core_solvers();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            vec!["alg2", "composite", "kw"]
        );
        assert!(registry.contains("kw") && !registry.contains("greedy"));
    }

    #[test]
    fn builds_and_solves_by_name() {
        let registry = SolverRegistry::with_core_solvers();
        let g = generators::star_of_cliques(3, 4);
        for spec in ["kw", "kw:k=3", "alg2:k=2", "composite"] {
            let solver = registry.build(spec).unwrap();
            let report = solver.solve(&g, &SolveContext::seeded(2)).unwrap();
            assert!(report.certificate.unwrap().dominates, "{spec}");
        }
    }

    #[test]
    fn unknown_name_lists_known() {
        let registry = SolverRegistry::with_core_solvers();
        match registry.build("nope").map(|s| s.spec()) {
            Err(SolveError::UnknownSolver { name, known }) => {
                assert_eq!(name, "nope");
                assert!(known.contains(&"kw".to_string()));
            }
            other => panic!("expected UnknownSolver, got {other:?}"),
        }
    }

    #[test]
    fn build_all_preserves_order_and_fails_fast() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2", "alg2:k=3"]).unwrap();
        assert_eq!(solvers[0].spec(), "kw:k=2");
        assert_eq!(solvers[1].spec(), "alg2:k=3");
        assert!(registry.build_all(["kw", "bogus"]).is_err());
    }

    #[test]
    fn custom_registration_overrides() {
        let mut registry = SolverRegistry::with_core_solvers();
        registry.register("kw", |_, _| {
            Err(SolveError::InvalidSpec {
                spec: "kw".into(),
                reason: "shadowed".into(),
            })
        });
        assert!(registry.build("kw").is_err());
    }
}
