//! The full Theorem-6 algorithm as a **single** node program.
//!
//! [`PipelineSolver`](crate::PipelineSolver) (registry name `kw`)
//! composes Algorithm 3 and Algorithm 1 as two engine runs, mirroring the
//! paper's modular presentation. In a real
//! deployment there is only one network: every node runs one program that
//! transitions from the LP phase into the rounding phase on its own. This
//! module provides that program ([`CompositeProtocol`]), which
//!
//! * embeds [`Alg3Protocol`] unchanged for the first `4k² + 2k` rounds,
//! * reuses the `δ⁽²⁾` learned during Algorithm 3's setup,
//! * then performs the randomized draw, membership exchange, and fallback
//!   in 2 further rounds,
//!
//! for a total of `4k² + 2k + 2` rounds — a single uninterrupted
//! execution whose metrics cover the entire algorithm. Tests assert its
//! fractional phase is bit-identical to a standalone Algorithm 3 run and
//! its rounding draws match the standalone rounding stage under a shared
//! engine seed.

use rand::Rng;

use kw_graph::{CsrGraph, DominatingSet, FractionalAssignment};
use kw_sim::wire::{BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

use crate::alg3::{validate_alg3, Alg3Msg, Alg3Protocol};
use crate::rounding::RoundingConfig;
use crate::CoreError;

/// Messages of the composite protocol: Algorithm 3 traffic, then
/// membership bits.
#[derive(Clone, Debug, PartialEq)]
pub enum CompositeMsg {
    /// An Algorithm 3 message (LP phase).
    Lp(Alg3Msg),
    /// A rounding-phase membership announcement.
    InSet(bool),
}

impl WireEncode for CompositeMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            CompositeMsg::Lp(m) => {
                w.write_bit(false);
                m.encode(w);
            }
            CompositeMsg::InSet(b) => {
                w.write_bit(true);
                w.write_bit(*b);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(if r.read_bit()? {
            CompositeMsg::InSet(r.read_bit()?)
        } else {
            CompositeMsg::Lp(Alg3Msg::decode(r)?)
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            CompositeMsg::Lp(m) => 1 + m.encoded_bits(),
            CompositeMsg::InSet(_) => 2,
        }
    }
}

/// Per-node output of the composite run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompositeOutput {
    /// Final fractional value from the LP phase.
    pub x: f64,
    /// Whether the node joined the dominating set.
    pub in_set: bool,
    /// Whether membership came from the fallback step.
    pub via_fallback: bool,
}

/// One node program running Algorithm 3 followed by Algorithm 1.
#[derive(Clone, Debug)]
pub struct CompositeProtocol {
    rounding: RoundingConfig,
    lp: Alg3Protocol,
    lp_rounds: usize,
    in_set: bool,
    via_fallback: bool,
}

impl CompositeProtocol {
    /// Creates the program for one node of the given degree.
    ///
    /// # Panics
    ///
    /// Panics where [`Alg3Protocol::new`] does, on `k == 0` or
    /// `k > 65_536` (validated centrally by [`run_composite`]).
    pub fn new(k: u32, rounding: RoundingConfig, degree: usize) -> Self {
        CompositeProtocol {
            rounding,
            lp: Alg3Protocol::new(k, degree),
            lp_rounds: crate::math::alg3_rounds(k),
            in_set: false,
            via_fallback: false,
        }
    }
}

/// Adapter context: lets the embedded Algorithm 3 program speak
/// `Alg3Msg` while the outer engine speaks `CompositeMsg`.
///
/// Implemented by translating messages at the boundary — unwrap the
/// inbox, re-wrap the (single) broadcast before staging it through
/// `Ctx::broadcast` — rather than by re-wrapping `Ctx`, whose send sink
/// stays opaque to algorithm code. Every phase of this protocol sends at
/// most one broadcast per round, so the engine's arena send plane serves
/// it entirely through the solo-broadcast fast path.
impl Protocol for CompositeProtocol {
    type Msg = CompositeMsg;
    type Output = CompositeOutput;

    fn on_round(&mut self, ctx: &mut Ctx<'_, CompositeMsg>) -> Status {
        let round = ctx.round();
        if round < self.lp_rounds {
            // LP phase: unwrap messages, delegate to the engine-independent
            // state machine, re-wrap the (single) broadcast.
            let lp_msgs = ctx.inbox().iter().filter_map(|(_, m)| match m {
                CompositeMsg::Lp(inner) => Some(inner),
                CompositeMsg::InSet(_) => None,
            });
            let (status, send) = self.lp.step(lp_msgs);
            if let Some(msg) = send {
                ctx.broadcast(CompositeMsg::Lp(msg));
            }
            debug_assert!(
                (round + 1 < self.lp_rounds) == (status == Status::Running),
                "embedded Algorithm 3 must halt exactly at 4k²+2k rounds"
            );
            Status::Running
        } else if round == self.lp_rounds {
            // Draw phase: δ⁽²⁾ is already known from the LP setup.
            let x = self.lp.state().x;
            let p = (x * self.rounding.multiplier.eval(self.lp.delta2())).min(1.0);
            self.in_set = ctx.rng().gen::<f64>() < p;
            ctx.broadcast(CompositeMsg::InSet(self.in_set));
            Status::Running
        } else {
            // Fallback phase.
            let neighbor_in = ctx
                .inbox()
                .iter()
                .any(|(_, m)| matches!(m, CompositeMsg::InSet(true)));
            if !self.in_set && !neighbor_in && !self.rounding.skip_fallback {
                self.in_set = true;
                self.via_fallback = true;
            }
            Status::Halted
        }
    }

    fn finish(self) -> CompositeOutput {
        CompositeOutput {
            x: self.lp.state().x,
            in_set: self.in_set,
            via_fallback: self.via_fallback,
        }
    }
}

/// Result of a composite single-engine run.
#[derive(Clone, Debug)]
pub struct CompositeRun {
    /// The dominating set.
    pub set: DominatingSet,
    /// The LP-phase fractional solution.
    pub fractional: FractionalAssignment,
    /// Metrics of the whole algorithm in one run
    /// (`rounds == 4k² + 2k + 2`).
    pub metrics: RunMetrics,
}

/// Runs the entire Theorem-6 algorithm as one protocol on one engine.
///
/// The same algorithm as [`PipelineSolver`](crate::PipelineSolver) with
/// Algorithm 3 as its fractional stage (the rounding draws use the run
/// seed rather than a derived one, so individual sets differ); useful
/// when a single uninterrupted metrics trace is wanted.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `k == 0`, `k > 65_536`, or the
/// `4k² + 2k + 2` rounds exceed `engine.max_rounds` (all checked before
/// any round runs); simulation errors are propagated.
pub fn run_composite(
    g: &CsrGraph,
    k: u32,
    rounding: RoundingConfig,
    engine: EngineConfig,
) -> Result<CompositeRun, CoreError> {
    validate_alg3(k, crate::math::alg3_rounds(k).saturating_add(2), &engine)?;
    let report = Engine::new(g, engine, |info| {
        CompositeProtocol::new(k, rounding, info.degree)
    })
    .run(&mut ())
    .map_err(CoreError::Sim)?;
    let mut set = DominatingSet::new(g);
    let mut xs = Vec::with_capacity(g.len());
    for (i, out) in report.outputs.iter().enumerate() {
        if out.in_set {
            set.add(kw_graph::NodeId::new(i));
        }
        xs.push(out.x);
    }
    Ok(CompositeRun {
        set,
        fractional: FractionalAssignment::from_values(xs),
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math;
    use kw_graph::generators;
    use kw_sim::wire::roundtrip;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn message_roundtrip() {
        for m in [
            CompositeMsg::Lp(Alg3Msg::Uint(9)),
            CompositeMsg::Lp(Alg3Msg::Uint(u32::MAX)),
            CompositeMsg::Lp(Alg3Msg::Active),
            CompositeMsg::Lp(Alg3Msg::X { a: u32::MAX, m: 3 }),
            CompositeMsg::Lp(Alg3Msg::X { a: 0, m: 0 }),
            CompositeMsg::Lp(Alg3Msg::Color(true)),
            CompositeMsg::InSet(false),
            CompositeMsg::InSet(true),
        ] {
            assert_eq!(roundtrip(&m), Some(m.clone()));
        }
    }

    #[test]
    fn messages_stay_narrow() {
        assert_eq!(std::mem::size_of::<CompositeMsg>(), 8);
        // The engine's solo table holds `Option<Msg>`: the niche keeps it
        // free.
        assert_eq!(std::mem::size_of::<Option<CompositeMsg>>(), 8);
    }

    #[test]
    fn single_run_round_count() {
        let g = generators::grid(5, 5);
        for k in [1u32, 2, 3] {
            let run =
                run_composite(&g, k, RoundingConfig::default(), EngineConfig::seeded(1)).unwrap();
            assert_eq!(run.metrics.rounds, math::alg3_rounds(k) + 2);
            assert!(run.set.is_dominating(&g));
            assert!(run.fractional.is_feasible(&g));
        }
    }

    #[test]
    fn dominates_across_families_and_seeds() {
        let mut rng = SmallRng::seed_from_u64(50);
        for seed in 0..6u64 {
            let g = generators::gnp(60, 0.1, &mut rng);
            let run = run_composite(&g, 2, RoundingConfig::default(), EngineConfig::seeded(seed))
                .unwrap();
            assert!(run.set.is_dominating(&g), "seed {seed}");
        }
    }

    #[test]
    fn fractional_phase_identical_to_standalone_alg3() {
        let mut rng = SmallRng::seed_from_u64(51);
        let g = generators::unit_disk(70, 0.2, &mut rng);
        let k = 3;
        let composite =
            run_composite(&g, k, RoundingConfig::default(), EngineConfig::seeded(4)).unwrap();
        let standalone = crate::alg3::run_alg3(&g, k, EngineConfig::seeded(4)).unwrap();
        assert_eq!(composite.fractional.values(), standalone.x.values());
    }

    #[test]
    fn rounding_phase_matches_standalone_rounding() {
        // Same engine seed ⇒ same per-node RNG streams ⇒ identical draws,
        // since neither Algorithm 3 nor the LP phase consumes randomness.
        let mut rng = SmallRng::seed_from_u64(52);
        let g = generators::gnp(50, 0.12, &mut rng);
        let k = 2;
        let seed = 9;
        let composite =
            run_composite(&g, k, RoundingConfig::default(), EngineConfig::seeded(seed)).unwrap();
        let alg3 = crate::alg3::run_alg3(&g, k, EngineConfig::seeded(seed)).unwrap();
        let rounding = crate::rounding::run_rounding_with_delta2(
            &g,
            &alg3.x,
            &alg3.delta2,
            RoundingConfig::default(),
            EngineConfig::seeded(seed),
        )
        .unwrap();
        let a: Vec<bool> = g.node_ids().map(|v| composite.set.contains(v)).collect();
        let b: Vec<bool> = g.node_ids().map(|v| rounding.set.contains(v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn k0_rejected() {
        let g = generators::path(3);
        assert!(run_composite(&g, 0, RoundingConfig::default(), EngineConfig::default()).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = kw_graph::CsrGraph::empty(0);
        let run = run_composite(&g, 2, RoundingConfig::default(), EngineConfig::default()).unwrap();
        assert!(run.set.is_empty());
    }

    #[test]
    fn isolated_nodes_join_via_fallback() {
        let g = kw_graph::CsrGraph::empty(4);
        let run = run_composite(&g, 2, RoundingConfig::default(), EngineConfig::seeded(3)).unwrap();
        assert_eq!(run.set.len(), 4);
        assert!(run.set.is_dominating(&g));
    }
}
