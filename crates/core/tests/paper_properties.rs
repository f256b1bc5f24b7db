//! Deep property tests of the paper's algorithms: the exact shape of the
//! produced values, coloring semantics, determinism, and cross-variant
//! consistency.

use kw_core::alg2::{reference_alg2, run_alg2};
use kw_core::alg3::{reference_alg3, run_alg3, XCode};
use kw_core::invariants::{run_alg2_checked, run_alg3_checked};
use kw_core::math::frac_pow;
use kw_graph::{generators, CsrGraph, COVERAGE_TOLERANCE};
use kw_sim::EngineConfig;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Algorithm 2's x-values live in the discrete set
/// `{0} ∪ {(Δ+1)^{-m/k} : 0 ≤ m < k}` — the structure its Lemma-4
/// accounting depends on.
#[test]
fn alg2_values_come_from_the_exponent_lattice() {
    let mut rng = SmallRng::seed_from_u64(1);
    for k in [1u32, 2, 3, 5] {
        let g = generators::gnp(50, 0.1, &mut rng);
        let d1 = g.max_degree() as f64 + 1.0;
        let lattice: Vec<f64> = (0..k).map(|m| frac_pow(d1, -i64::from(m), k)).collect();
        let x = reference_alg2(&g, k).unwrap();
        for (i, &v) in x.values().iter().enumerate() {
            assert!(
                v == 0.0 || lattice.contains(&v),
                "x[{i}] = {v} not on the (Δ+1)^(-m/{k}) lattice"
            );
        }
    }
}

/// Final colors must agree with final coverage: gray ⇔ covered.
#[test]
fn colors_match_coverage_at_termination() {
    let mut rng = SmallRng::seed_from_u64(2);
    for k in [1u32, 3] {
        let g = generators::gnp(60, 0.08, &mut rng);
        for run_gray in [
            run_alg2(&g, k, EngineConfig::default()).unwrap().gray,
            run_alg3(&g, k, EngineConfig::default()).unwrap().gray,
        ] {
            // Feasibility forces everyone covered, so all gray.
            assert!(run_gray.iter().all(|&c| c));
        }
    }
}

/// The x-values of Algorithm 3 are powers `a^{-m/(m+1)}`; XCode must
/// reproduce the node's value exactly (what the wire format relies on).
/// `value()` reads a memoized table for `a < 1024`, `m < 8` and calls
/// `powf` outside it, so this compares every table entry bit for bit,
/// plus both sides of each bound and the `u32` extremes.
#[test]
fn alg3_xcode_reconstruction_is_exact() {
    let direct = |a: u32, m: u32| (a as f64).powf(-(m as f64) / (m as f64 + 1.0));
    let edges = [0, 1, 7, 8, 9, 1023, 1024, 1025, u32::MAX - 1, u32::MAX];
    let grid = (0..=1100).flat_map(|a| (0..=9).map(move |m| (a, m)));
    let extremes = edges.into_iter().flat_map(|a| edges.map(|m| (a, m)));
    for (a, m) in grid.chain(extremes) {
        let value = XCode { a, m }.value();
        assert_eq!(
            value.to_bits(),
            direct(a, m).to_bits(),
            "a = {a}, m = {m}: {value} vs {}",
            direct(a, m)
        );
        if a >= 1 {
            assert!(value > 0.0 && value <= 1.0, "a = {a}, m = {m}: {value}");
        }
    }
}

/// Running either algorithm twice (same seed or not — they are
/// deterministic) must give identical results.
#[test]
fn fractional_algorithms_are_deterministic() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = generators::unit_disk(80, 0.2, &mut rng);
    let a = run_alg3(&g, 3, EngineConfig::seeded(1)).unwrap();
    let b = run_alg3(&g, 3, EngineConfig::seeded(999)).unwrap();
    assert_eq!(
        a.x.values(),
        b.x.values(),
        "alg3 must not consume randomness"
    );
    let a2 = run_alg2(&g, 3, EngineConfig::seeded(1)).unwrap();
    let b2 = run_alg2(&g, 3, EngineConfig::seeded(999)).unwrap();
    assert_eq!(
        a2.x.values(),
        b2.x.values(),
        "alg2 must not consume randomness"
    );
}

/// On a disjoint union, each component's solution must equal the solution
/// computed on the component alone — locality made literal.
#[test]
fn solutions_are_component_local() {
    let g1 = generators::cycle(9);
    let g2 = generators::star(7);
    // Union: nodes 0..9 the cycle, 9..16 the star.
    let mut edges: Vec<(usize, usize)> = g1.edges().map(|(u, v)| (u.index(), v.index())).collect();
    edges.extend(g2.edges().map(|(u, v)| (u.index() + 9, v.index() + 9)));
    let union = CsrGraph::from_edges(16, edges).unwrap();
    let k = 3;
    // Alg 3 is fully local: the union solution restricted to each part
    // must equal the standalone solutions (Δ-knowledge would break this
    // for Alg 2, which is exactly the point of Algorithm 3).
    let whole = reference_alg3(&union, k).unwrap();
    let part1 = reference_alg3(&g1, k).unwrap();
    let part2 = reference_alg3(&g2, k).unwrap();
    assert_eq!(&whole.values()[..9], part1.values());
    assert_eq!(&whole.values()[9..], part2.values());
}

/// Algorithm 2 does depend on the global Δ: the same cycle embedded next
/// to a high-degree star must behave differently than standalone.
#[test]
fn alg2_is_delta_global() {
    let g1 = generators::cycle(9);
    let mut edges: Vec<(usize, usize)> = g1.edges().map(|(u, v)| (u.index(), v.index())).collect();
    // Attach a star of 30 leaves on separate nodes.
    for leaf in 10..40 {
        edges.push((9, leaf));
    }
    let union = CsrGraph::from_edges(40, edges).unwrap();
    let whole = reference_alg2(&union, 3).unwrap();
    let alone = reference_alg2(&g1, 3).unwrap();
    assert_ne!(
        &whole.values()[..9],
        alone.values(),
        "Δ-aware thresholds must differ when a remote hub raises Δ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    /// Invariants (Lemmas 2–7) hold on arbitrary random graphs — the
    /// strongest statement the checkers can make.
    #[test]
    fn invariants_hold_on_random_instances(
        n in 1usize..45,
        p in 0.0f64..0.6,
        k in 1u32..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let (run2, rep2) = run_alg2_checked(&g, k, EngineConfig::default()).unwrap();
        prop_assert!(run2.x.is_feasible(&g));
        prop_assert!(rep2.is_clean(), "alg2: {:?}", rep2.violations);
        let (run3, rep3) = run_alg3_checked(&g, k, EngineConfig::default()).unwrap();
        prop_assert!(run3.x.is_feasible(&g));
        prop_assert!(rep3.is_clean(), "alg3: {:?}", rep3.violations);
    }

    /// Coverage sums at termination exceed 1 (tolerance-adjusted) for
    /// every node under both algorithms.
    #[test]
    fn coverage_certificates(
        n in 1usize..40,
        p in 0.0f64..1.0,
        k in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        for x in [reference_alg2(&g, k).unwrap(), reference_alg3(&g, k).unwrap()] {
            for v in g.node_ids() {
                prop_assert!(x.coverage(&g, v) >= 1.0 - COVERAGE_TOLERANCE);
            }
        }
    }

    /// The weighted variant with uniform weights is *identical* to
    /// Algorithm 2 — on arbitrary graphs, not just fixtures.
    #[test]
    fn weighted_uniform_equals_alg2(
        n in 1usize..40,
        p in 0.0f64..0.6,
        k in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let w = kw_graph::VertexWeights::uniform(&g);
        let a = kw_core::weighted::reference_weighted_alg2(&g, &w, k).unwrap();
        let b = reference_alg2(&g, k).unwrap();
        prop_assert_eq!(a.values(), b.values());
    }

    /// Rounding respects the probability semantics: with x scaled so that
    /// p_i = 1 everywhere, every node joins.
    #[test]
    fn saturated_rounding_is_deterministic(n in 1usize..30, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng);
        let x = kw_graph::FractionalAssignment::uniform(&g, 1.0);
        let run = kw_core::rounding::run_rounding(
            &g,
            &x,
            Default::default(),
            EngineConfig::seeded(seed),
        ).unwrap();
        // p_i = min(1, 1·ln(δ²+1)) = 1 whenever δ² ≥ 2; isolated parts
        // join via the fallback, so everyone is in.
        let all_high_degree = g.node_ids().all(|v| g.delta2(v) >= 2);
        if all_high_degree {
            prop_assert_eq!(run.set.len(), n);
        }
        prop_assert!(run.set.is_dominating(&g));
    }
}
