//! Chaos-plane robustness, end to end: garbled wire bytes never panic a
//! registered decoder, chaotic runs are thread-count invariant, and the
//! ISSUE's full chaos cell (drop + burst + crash + byzantine) survives
//! parse → solve → cache → persist → resume → regress.

use kw_baselines::jrs::JrsMsg;
use kw_baselines::luby_mis::MisMsg;
use kw_core::alg2::Alg2Msg;
use kw_core::alg3::Alg3Msg;
use kw_core::composite::CompositeMsg;
use kw_core::rounding::RoundingMsg;
use kw_core::solver::{ExperimentRunner, SolveContext};
use kw_graph::generators;
use kw_results::regress::{compare, RegressPolicy};
use kw_results::summary::Summary;
use kw_results::SweepSession;
use kw_sim::wire::{BitReader, BitWriter, WireEncode};
use kw_sim::ChaosPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The ISSUE's example clause: every chaos axis at once.
const FULL_MIX: &str = "drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3";

/// Feeds a decoder (a) arbitrary garbage bytes and (b) valid encodings
/// garbled by the byzantine corruption — the exact bytes the engine's
/// decode-or-reject boundary sees. The assertion is the absence of a
/// panic; a successful decode must also re-encode without panicking.
fn fuzz_decoder<M: WireEncode>(name: &str, samples: &[M], rng: &mut SmallRng) {
    for len in 0..24usize {
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|_| (rng.gen::<u64>() & 0xff) as u8).collect();
            let mut r = BitReader::new(&bytes);
            if let Some(decoded) = M::decode(&mut r) {
                let mut w = BitWriter::new();
                decoded.encode(&mut w);
            }
        }
    }
    let plan = ChaosPlan::reliable()
        .with_fault_seed(0xbad)
        .with_byzantine(0);
    for (slot, msg) in samples.iter().enumerate() {
        let mut w = BitWriter::new();
        msg.encode(&mut w);
        let encoded = w.into_bytes();
        assert!(!encoded.is_empty(), "{name}: sample must encode to bytes");
        for round in 0..64 {
            let mut bytes = encoded.clone();
            plan.corrupt(&mut bytes, round, 0, slot as u32);
            assert_ne!(bytes, encoded, "{name}: corruption must never be identity");
            let mut r = BitReader::new(&bytes);
            if let Some(decoded) = M::decode(&mut r) {
                let mut w = BitWriter::new();
                decoded.encode(&mut w);
            }
        }
    }
}

#[test]
fn garbled_bytes_never_panic_any_registered_decoder() {
    let mut rng = SmallRng::seed_from_u64(99);
    fuzz_decoder("u64", &[0u64, 7, u64::MAX], &mut rng);
    fuzz_decoder("bool", &[false, true], &mut rng);
    fuzz_decoder("f64", &[0.0f64, 0.25, 1.0], &mut rng);
    fuzz_decoder(
        "Alg2Msg",
        &[Alg2Msg::X(None), Alg2Msg::X(Some(3)), Alg2Msg::Color(true)],
        &mut rng,
    );
    fuzz_decoder(
        "Alg3Msg",
        &[
            Alg3Msg::Uint(41),
            Alg3Msg::Active,
            Alg3Msg::X { a: 5, m: 2 },
            Alg3Msg::X { a: 0, m: 0 },
            Alg3Msg::Color(false),
        ],
        &mut rng,
    );
    fuzz_decoder(
        "RoundingMsg",
        &[RoundingMsg::Degree(9), RoundingMsg::InSet(true)],
        &mut rng,
    );
    fuzz_decoder(
        "CompositeMsg",
        &[
            CompositeMsg::Lp(Alg3Msg::Uint(3)),
            CompositeMsg::Lp(Alg3Msg::X { a: 2, m: 1 }),
            CompositeMsg::InSet(false),
        ],
        &mut rng,
    );
    fuzz_decoder(
        "JrsMsg",
        &[
            JrsMsg::Covered(true),
            JrsMsg::Class(Some(4)),
            JrsMsg::MaxClass(None),
            JrsMsg::Candidate,
            JrsMsg::Support(17),
            JrsMsg::Joined,
        ],
        &mut rng,
    );
    fuzz_decoder(
        "MisMsg",
        &[
            MisMsg::Ticket {
                value: 0xdead_beef,
                id: 12,
            },
            MisMsg::Joined,
        ],
        &mut rng,
    );
}

#[test]
fn chaotic_solve_reports_are_thread_count_invariant() {
    let mut rng = SmallRng::seed_from_u64(4);
    let g = generators::unit_disk(150, 0.12, &mut rng);
    let plan = ChaosPlan::parse(FULL_MIX).unwrap();
    let registry = kw_baselines::registry();
    // A solve's answer and metrics, or its error: under loss a solver may
    // legitimately fail (LRG stalls at its round budget), and then the
    // failure itself must be thread-count invariant.
    let outcome = |spec: &str, threads: usize, faults: &ChaosPlan| {
        let ctx = SolveContext {
            seed: 3,
            threads,
            faults: faults.clone(),
            check_certificates: true,
            ..SolveContext::default()
        };
        let solver = registry.build(spec).unwrap();
        solver
            .solve(&g, &ctx)
            .map(|report| (report.dominating_set, report.metrics))
    };
    // Every engine-backed solver in the registry; greedy/trivial are
    // centralized and see no chaos.
    for spec in ["kw:k=2", "jrs", "luby-mis"] {
        let base = outcome(spec, 1, &plan);
        for threads in [2usize, 8] {
            assert_eq!(
                outcome(spec, threads, &plan),
                base,
                "{spec}: result differs at threads={threads}"
            );
        }
        // The plan reaches the engine, so the check above is not vacuous:
        // the chaotic result differs from the reliable one.
        assert_ne!(
            base,
            outcome(spec, 1, &ChaosPlan::reliable()),
            "{spec}: the chaos plan changed nothing"
        );
    }
}

#[test]
fn full_chaos_cell_survives_persist_resume_and_regress() {
    // Parse + canonical round-trip: the spec string is the fingerprint.
    let plan = ChaosPlan::parse(FULL_MIX).unwrap();
    assert_eq!(plan.spec(), FULL_MIX, "ISSUE clause is already canonical");
    assert_eq!(ChaosPlan::parse(&plan.spec()).unwrap(), plan);
    // The `chaos:` prefix is accepted and normalizes to the same plan.
    assert_eq!(
        ChaosPlan::parse(&format!("chaos:{FULL_MIX}")).unwrap(),
        plan
    );

    let store = std::env::temp_dir().join(format!("kw_chaos_e2e_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let registry = kw_baselines::registry();
    let solvers = registry.build_all(["kw:k=2"]).unwrap();
    let workloads = vec![("grid8".to_string(), generators::grid(8, 8))];
    let runner = ExperimentRunner::new().workers(0).context(SolveContext {
        faults: plan.clone(),
        ..SolveContext::default()
    });

    // Pass 1: solve and persist every chaos cell.
    let mut session = SweepSession::open(&store).unwrap();
    let out = session
        .run(&runner, &solvers, &workloads, 0..4, |_| {})
        .unwrap();
    assert_eq!(out.solved, 4, "cold store must solve every cell");
    assert!(out.store_error.is_none());
    for r in &out.records {
        assert_eq!(r.chaos, FULL_MIX, "records carry the canonical spec");
    }
    drop(session);

    // Pass 2: a fresh session resumes with 100% cache hits.
    let mut resumed = SweepSession::open(&store).unwrap();
    assert_eq!(resumed.replayed(), 4);
    let replay = resumed
        .run(&runner, &solvers, &workloads, 0..4, |_| {})
        .unwrap();
    assert_eq!(replay.solved, 0, "chaos cells must resume from the store");
    assert_eq!(replay.cached, 4);

    // A *different* chaos plan under the same (solver, workload, seed)
    // must NOT hit those cells.
    let other = ExperimentRunner::new().workers(0).context(SolveContext {
        faults: ChaosPlan::parse("drop=0.3,seed=9").unwrap(),
        ..SolveContext::default()
    });
    let miss = resumed
        .run(&other, &solvers, &workloads, 0..4, |_| {})
        .unwrap();
    assert_eq!(miss.solved, 4, "distinct chaos specs are distinct cells");

    // Regress gating: the resumed records match the original cell
    // exactly (chaos-aware), and the unrelated chaos cell doesn't
    // cross-compare with it.
    let baseline = Summary::from_records(&out.records);
    let fresh = Summary::from_records(&replay.records);
    assert!(compare(&baseline, &fresh, &RegressPolicy::default()).is_empty());
    let _ = std::fs::remove_file(&store);
}
