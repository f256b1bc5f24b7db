//! Conformance of the flat CSR message plane against the delivery
//! semantics the old receiver-driven engine defined.
//!
//! A scripted protocol (traffic derived from a pure hash of `(node,
//! round)`, so the test can predict it) records everything it receives;
//! an independent model computes what the semantics specify: node `v`'s
//! round-`r` inbox holds, for each port `q` in ascending order, the
//! messages its neighbor `u` queued in round `r − 1` that address `v`
//! (broadcasts, plus unicasts whose port points back at `v`), in outbox
//! slot order, minus fault drops keyed `(round, sender, receiver, slot)`
//! — and nothing at all once `v` has halted. The property tests check the
//! exact sequence (hence the exact multiset) on random G(n, p), star, and
//! complete graphs, with and without faults, at 1, 2 and 8 threads, so
//! every chunk layout's gather — reads of other chunks' send runs
//! included — is held to the model, and so are the in-place inboxes of
//! rounds that follow lossless solo-only traffic; a separate test pins
//! thread-count determinism on a high-Δ graph with faults enabled.

use kw_graph::{generators, CsrGraph, NodeId};
use kw_sim::rng::split_mix64;
use kw_sim::{ChaosPlan, Ctx, Engine, EngineConfig, Protocol, RunReport, Status};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One scripted send: broadcast, or unicast on a port.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Send {
    Broadcast(u64),
    Unicast(u32, u64),
}

/// Which traffic shape a scripted run drives through the send arena.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flavor {
    /// Quiet, broadcast-only (solo), and mixed broadcast + unicast rounds
    /// (runs left in the send arena).
    Mixed,
    /// Unicast bursts: up to six unicasts per round, ports hash-chosen
    /// and often repeated — multiple messages must land on one arc in
    /// send-slot order.
    Burst,
    /// Each node is quiet or sends one broadcast per round. Every sender
    /// is solo, so on a lossless plan every inbox reads the solo table in
    /// place; under loss each is gathered from it.
    Solo,
    /// `Solo` on even rounds and `Mixed` on odd ones, so in-place and
    /// gathered inboxes alternate.
    Alternating,
}

/// The messages node `me` stages in `round`, as a pure function — both
/// the protocol and the reference model evaluate it.
fn script(me: u32, round: usize, degree: u32, flavor: Flavor) -> Vec<Send> {
    if degree == 0 {
        return Vec::new();
    }
    let h = split_mix64((u64::from(me) << 32) ^ (round as u64 + 1));
    match flavor {
        Flavor::Mixed => {
            let count = (h % 4) as usize; // 0..=3 messages per round
            (0..count)
                .map(|i| {
                    let hi = split_mix64(h ^ ((i as u64 + 1) << 48));
                    let payload = hi | 1;
                    if hi & 2 == 0 {
                        Send::Broadcast(payload)
                    } else {
                        Send::Unicast((hi >> 8) as u32 % degree, payload)
                    }
                })
                .collect()
        }
        Flavor::Burst => {
            let count = (h % 7) as usize; // 0..=6 unicasts per round
                                          // Ports drawn from a window half the degree wide, so bursts
                                          // frequently stack several messages onto the same arc.
            let window = (degree / 2).max(1);
            let base = (h >> 32) as u32 % degree;
            (0..count)
                .map(|i| {
                    let hi = split_mix64(h ^ ((i as u64 + 1) << 48));
                    let payload = hi | 1;
                    Send::Unicast((base + (hi >> 8) as u32 % window) % degree, payload)
                })
                .collect()
        }
        Flavor::Solo => {
            if h.is_multiple_of(3) {
                Vec::new()
            } else {
                vec![Send::Broadcast(split_mix64(h ^ (1 << 48)) | 1)]
            }
        }
        Flavor::Alternating if round.is_multiple_of(2) => script(me, round, degree, Flavor::Solo),
        Flavor::Alternating => script(me, round, degree, Flavor::Mixed),
    }
}

/// The round after which node `me` halts (it still sends that round).
fn halt_round(me: u32, max_rounds: usize) -> usize {
    (split_mix64(u64::from(me).wrapping_mul(0x9E37)) % (max_rounds as u64 + 1)) as usize
}

/// Runs the script and records every `(round, port, payload)` received.
struct Scripted {
    me: u32,
    max_rounds: usize,
    flavor: Flavor,
    log: Vec<(usize, u32, u64)>,
}

impl Protocol for Scripted {
    type Msg = u64;
    type Output = Vec<(usize, u32, u64)>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        for (port, &m) in ctx.inbox().iter() {
            self.log.push((ctx.round(), port, m));
        }
        for send in script(self.me, ctx.round(), ctx.degree(), self.flavor) {
            match send {
                Send::Broadcast(m) => ctx.broadcast(m),
                Send::Unicast(port, m) => ctx.send(port, m),
            }
        }
        if ctx.round() >= halt_round(self.me, self.max_rounds) {
            Status::Halted
        } else {
            Status::Running
        }
    }

    fn finish(self) -> Vec<(usize, u32, u64)> {
        self.log
    }
}

/// The reference model: replays the scripts against the documented
/// delivery semantics, independent of the engine's implementation.
fn expected_log(
    g: &CsrGraph,
    v: usize,
    max_rounds: usize,
    faults: &ChaosPlan,
    flavor: Flavor,
) -> Vec<(usize, u32, u64)> {
    let mut log = Vec::new();
    // v computes in rounds 0..=halt_round(v); round r's inbox holds round
    // r − 1 traffic.
    for r in 1..=halt_round(v as u32, max_rounds) {
        for (q, u) in g.neighbors(NodeId::new(v)).enumerate() {
            // Sender u queued messages in round r − 1 only if it was still
            // running then.
            if halt_round(u.raw(), max_rounds) < r - 1 {
                continue;
            }
            let deg_u = g.degree(u) as u32;
            let back_port = g
                .neighbor_slice(u)
                .iter()
                .position(|&t| t == v as u32)
                .expect("symmetric adjacency") as u32;
            for (slot, send) in script(u.raw(), r - 1, deg_u, flavor).iter().enumerate() {
                let payload = match send {
                    Send::Broadcast(m) => *m,
                    Send::Unicast(port, m) if *port == back_port => *m,
                    Send::Unicast(..) => continue,
                };
                if faults.drops(r - 1, u.raw(), v as u32, slot as u32) {
                    continue;
                }
                log.push((r, q as u32, payload));
            }
        }
    }
    log
}

fn run_scripted(
    g: &CsrGraph,
    max_rounds: usize,
    config: EngineConfig,
    flavor: Flavor,
) -> RunReport<Vec<(usize, u32, u64)>> {
    Engine::new(g, config, |info| Scripted {
        me: info.id.raw(),
        max_rounds,
        flavor,
        log: Vec::new(),
    })
    .run(&mut ())
    .expect("scripted run terminates")
}

/// The engine thread counts every reference check runs at. Graphs with
/// fewer than `2 × threads` nodes run as one chunk; larger ones split
/// into two or eight, so gathers read runs across chunk boundaries.
const THREADS: [usize; 3] = [1, 2, 8];

fn assert_matches_reference(
    g: &CsrGraph,
    max_rounds: usize,
    faults: ChaosPlan,
    flavor: Flavor,
    threads: usize,
) {
    let config = EngineConfig {
        faults: faults.clone(),
        check_wire: true,
        threads,
        ..Default::default()
    };
    let report = run_scripted(g, max_rounds, config, flavor);
    for v in 0..g.len() {
        let expected = expected_log(g, v, max_rounds, &faults, flavor);
        assert_eq!(
            report.outputs[v], expected,
            "inbox mismatch at node {v} on {g:?} at {threads} threads \
             (faults: {faults:?}, flavor: {flavor:?})"
        );
    }
}

/// iid loss plus a burst over half the receivers in rounds 2–3: under
/// loss even a solo sender's copies are gathered and filtered one by one.
fn drop_and_burst(seed: u64) -> ChaosPlan {
    ChaosPlan::parse(&format!("drop=0.3,seed={seed},burst=r2-3@0.7/0.5")).expect("valid chaos spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_plane_matches_reference_on_gnp(seed in any::<u64>(), n in 4usize..36) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, 0.25, &mut rng);
        for threads in THREADS {
            assert_matches_reference(&g, 6, ChaosPlan::reliable(), Flavor::Mixed, threads);
            assert_matches_reference(&g, 6, ChaosPlan::reliable().with_drop(0.3).with_fault_seed(seed ^ 0x5ca1ab1e), Flavor::Mixed, threads);
            assert_matches_reference(&g, 6, ChaosPlan::reliable(), Flavor::Solo, threads);
            assert_matches_reference(&g, 6, ChaosPlan::reliable(), Flavor::Alternating, threads);
            assert_matches_reference(&g, 6, drop_and_burst(seed), Flavor::Solo, threads);
            assert_matches_reference(&g, 6, drop_and_burst(seed), Flavor::Alternating, threads);
        }
    }

    #[test]
    fn flat_plane_matches_reference_on_star(n in 3usize..40, fault_seed in any::<u64>()) {
        let g = generators::star(n);
        for threads in THREADS {
            assert_matches_reference(&g, 5, ChaosPlan::reliable(), Flavor::Mixed, threads);
            assert_matches_reference(&g, 5, ChaosPlan::reliable().with_drop(0.4).with_fault_seed(fault_seed), Flavor::Mixed, threads);
            assert_matches_reference(&g, 5, ChaosPlan::reliable(), Flavor::Solo, threads);
            assert_matches_reference(&g, 5, ChaosPlan::reliable(), Flavor::Alternating, threads);
            assert_matches_reference(&g, 5, drop_and_burst(fault_seed), Flavor::Solo, threads);
            assert_matches_reference(&g, 5, drop_and_burst(fault_seed), Flavor::Alternating, threads);
        }
    }

    #[test]
    fn flat_plane_matches_reference_on_complete(n in 2usize..16, fault_seed in any::<u64>()) {
        let g = generators::complete(n);
        for threads in THREADS {
            assert_matches_reference(&g, 4, ChaosPlan::reliable(), Flavor::Mixed, threads);
            assert_matches_reference(&g, 4, ChaosPlan::reliable().with_drop(0.2).with_fault_seed(fault_seed), Flavor::Mixed, threads);
        }
    }

    /// Unicast bursts push several messages down one arc in a round; the
    /// arena send path must keep them in send-slot order, reliable and
    /// faulty alike.
    #[test]
    fn arena_send_path_matches_reference_on_unicast_bursts(seed in any::<u64>(), n in 4usize..32) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp(n, 0.3, &mut rng);
        for threads in THREADS {
            assert_matches_reference(&g, 6, ChaosPlan::reliable(), Flavor::Burst, threads);
            assert_matches_reference(&g, 6, ChaosPlan::reliable().with_drop(0.35).with_fault_seed(seed ^ 0xb0b), Flavor::Burst, threads);
        }
    }

    #[test]
    fn arena_send_path_matches_reference_on_star_bursts(n in 3usize..36, fault_seed in any::<u64>()) {
        let g = generators::star(n);
        for threads in THREADS {
            assert_matches_reference(&g, 5, ChaosPlan::reliable(), Flavor::Burst, threads);
            assert_matches_reference(&g, 5, ChaosPlan::reliable().with_drop(0.25).with_fault_seed(fault_seed), Flavor::Burst, threads);
        }
    }
}

/// High-Δ graph (star of cliques: hub degree ≫ average) with faults on:
/// every thread count must produce the identical report, for each traffic
/// flavor. The chunked send arenas make per-chunk run indices
/// layout-dependent, so this pins that the dense run table fully hides
/// the layout. The solo case runs under a crash window, which is
/// lossless (so its inboxes read the solo table in place) but has a down
/// node.
#[test]
fn thread_count_determinism_high_degree_with_faults() {
    let g = generators::star_of_cliques(12, 24);
    let lossy = ChaosPlan::reliable().with_drop(0.25).with_fault_seed(99);
    let crash = ChaosPlan::parse("crash=7@r2-4").expect("valid chaos spec");
    for (flavor, faults) in [
        (Flavor::Mixed, lossy.clone()),
        (Flavor::Burst, lossy),
        (Flavor::Solo, crash),
    ] {
        let base = EngineConfig {
            faults,
            ..Default::default()
        };
        let reference = run_scripted(
            &g,
            9,
            EngineConfig {
                threads: 1,
                ..base.clone()
            },
            flavor,
        );
        for threads in [2usize, 4, 8] {
            let par = run_scripted(
                &g,
                9,
                EngineConfig {
                    threads,
                    ..base.clone()
                },
                flavor,
            );
            assert_eq!(
                reference.outputs, par.outputs,
                "outputs differ at {threads} threads ({flavor:?})"
            );
            assert_eq!(
                reference.metrics, par.metrics,
                "metrics differ at {threads} threads ({flavor:?})"
            );
            assert_eq!(
                reference.node_messages, par.node_messages,
                "node_messages differ at {threads} threads ({flavor:?})"
            );
        }
    }
}

/// Constant-shape traffic for the steady-state allocation check: every
/// node broadcasts once and unicasts twice (to its first and last port)
/// each round, so every round leaves runs in the send arenas and every
/// inbox is gathered, with identical volume per round.
struct Pulse {
    rounds_left: usize,
}

impl Protocol for Pulse {
    type Msg = u64;
    type Output = ();

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        if self.rounds_left == 0 {
            return Status::Halted;
        }
        self.rounds_left -= 1;
        ctx.broadcast(0x5eed);
        let degree = ctx.degree();
        if degree > 0 {
            ctx.send(0, 1);
            ctx.send(degree - 1, 2);
        }
        Status::Running
    }

    fn finish(self) {}
}

/// Steady-state rounds must not grow any message-plane buffer: with
/// constant per-round traffic, a 100-round run records exactly as many
/// capacity-growth events as a short one — all growth is warm-up —
/// sequentially and chunked. (Traffic whose per-round volume varies may
/// legitimately grow a buffer whenever a round sets a new peak; that is
/// capacity chasing the high-water mark, not steady-state allocation.)
#[test]
fn arena_buffers_stable_across_100_rounds() {
    let mut rng = SmallRng::seed_from_u64(7);
    let g = generators::gnp(60, 0.15, &mut rng);
    let growths = |rounds: usize, threads: usize| {
        Engine::new(
            &g,
            EngineConfig {
                threads,
                ..Default::default()
            },
            |_| Pulse {
                rounds_left: rounds,
            },
        )
        .run(&mut ())
        .expect("pulse run terminates")
        .stats
        .buffer_growths
    };
    for threads in [1usize, 4] {
        let short = growths(8, threads);
        let long = growths(100, threads);
        assert_eq!(
            short, long,
            "message-plane buffers grew after warm-up (threads={threads})"
        );
    }
}

/// The star hub exercises the widest single inbox; spot-check volumes so
/// the property tests above cannot silently degenerate to empty logs.
#[test]
fn scripted_traffic_is_nontrivial() {
    let g = generators::star(30);
    let report = run_scripted(&g, 6, EngineConfig::default(), Flavor::Mixed);
    let received: usize = report.outputs.iter().map(Vec::len).sum();
    assert!(
        received > 50,
        "only {received} deliveries; script too quiet"
    );
    assert!(report.metrics.messages > 0);
}
