//! Acceptance contract of the persistent worker pool: the *results* of
//! an engine run — every node's output, the message/bit metrics, and
//! the trace structure hash — are bit-identical at 1, 2, and 8 worker
//! threads, on generated graphs, on a bundled DIMACS instance, and
//! under a full chaos mix. The `kwperf` benchmark also checks that its
//! n = 100k solves give the same dominating set and metrics at 1 and 2
//! threads; this test keeps the contract in the default `cargo test`
//! tier with laptop-sized workloads.

mod traffic;

use kw_bench::instances;
use kw_graph::{generators, CsrGraph};
use kw_sim::{ChaosPlan, Engine, EngineConfig};
use kw_trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use traffic::{Flood, Ping};

/// Everything a run produces that must not depend on the thread count:
/// full per-node outputs, the round/message/bit metrics, and the span
/// structure hash.
type Fingerprint = (Vec<u64>, usize, u64, u64, u64);

fn run(g: &CsrGraph, chaos: &ChaosPlan, threads: usize, ping: bool) -> Fingerprint {
    let cfg = EngineConfig {
        threads,
        faults: chaos.clone(),
        max_rounds: 200,
        ..Default::default()
    };
    kw_trace::install(Tracer::new());
    kw_trace::with_active(|t| t.begin("solve"));
    let report = if ping {
        Engine::new(g, cfg, |info| Ping::new(u64::from(info.id.raw()), 6))
            .run(&mut ())
            .expect("run succeeds")
    } else {
        Engine::new(g, cfg, |info| Flood::new(u64::from(info.id.raw()), 6))
            .run(&mut ())
            .expect("run succeeds")
    };
    let mut tracer = kw_trace::take().expect("tracer installed");
    tracer.finish();
    (
        report.outputs,
        report.metrics.rounds,
        report.metrics.messages,
        report.metrics.bits,
        tracer.structure_hash(),
    )
}

fn assert_invariant(g: &CsrGraph, chaos: &ChaosPlan, what: &str) {
    for ping in [false, true] {
        let shape = if ping { "ping" } else { "flood" };
        let base = run(g, chaos, 1, ping);
        assert!(
            base.0.iter().any(|&x| x != 0),
            "{what}/{shape}: degenerate outputs"
        );
        for threads in [2usize, 8] {
            assert_eq!(
                base,
                run(g, chaos, threads, ping),
                "{what}/{shape}: results differ at {threads} threads"
            );
        }
    }
}

#[test]
fn results_are_thread_invariant_on_gnp() {
    let mut rng = SmallRng::seed_from_u64(21);
    let g = generators::gnp(500, 0.03, &mut rng);
    assert_invariant(&g, &ChaosPlan::reliable(), "gnp(500, 0.03)");
}

#[test]
fn results_are_thread_invariant_on_bundled_dimacs() {
    let meta = instances::find("queen5_5").expect("bundled instance");
    let (g, _) = instances::load(meta).expect("parse bundled DIMACS");
    assert_invariant(&g, &ChaosPlan::reliable(), "queen5_5");
}

#[test]
fn results_are_thread_invariant_under_full_chaos_mix() {
    // Every chaos ingredient at once on a cycle, where all scripted
    // node/edge references exist (the same plan the engine's own
    // thread-invariance test uses).
    let g = generators::cycle(150);
    let chaos = ChaosPlan::parse(
        "drop=0.1,seed=11,burst=r1-3@0.8/0.5,crash=7@r2-4,crash=33@r1,byz=3+90,\
         churn=r2re0-1+r3l5+r5j5",
    )
    .expect("valid spec");
    assert_invariant(&g, &chaos, "cycle(150) under full chaos mix");
}

#[test]
fn results_are_thread_invariant_under_iid_drops_on_gnp() {
    let mut rng = SmallRng::seed_from_u64(8);
    let g = generators::gnp(300, 0.05, &mut rng);
    let chaos = ChaosPlan::parse("drop=0.2,seed=3").expect("valid spec");
    assert_invariant(&g, &chaos, "gnp(300, 0.05) under drop=0.2");
}

/// Both shapes at 4 workers, the count the tests above skip.
#[test]
fn both_shapes_are_thread_invariant() {
    let mut rng = SmallRng::seed_from_u64(9);
    let g = generators::gnp(200, 0.08, &mut rng);
    let run = |threads: usize, ping: bool| -> Vec<u64> {
        let cfg = EngineConfig {
            threads,
            ..Default::default()
        };
        if ping {
            Engine::new(&g, cfg, |info| Ping::new(u64::from(info.id.raw()), 5))
                .run(&mut ())
                .expect("reliable run")
                .outputs
        } else {
            Engine::new(&g, cfg, |info| Flood::new(u64::from(info.id.raw()), 5))
                .run(&mut ())
                .expect("reliable run")
                .outputs
        }
    };
    for ping in [false, true] {
        let base = run(1, ping);
        assert_eq!(base, run(4, ping));
        assert!(base.iter().any(|&x| x != 0));
    }
}
