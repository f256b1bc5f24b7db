//! The Jia–Rajaraman–Suel "Local Randomized Greedy" (LRG) algorithm
//! (PODC 2001) — the paper's reference \[11\] and the only prior algorithm
//! with a non-trivial approximation ratio in a sub-diameter number of
//! rounds: expected `O(log Δ)` ratio in `O(log n·log Δ)` rounds with high
//! probability.
//!
//! Reconstruction notes (the paper being reproduced only summarizes LRG;
//! this follows the PODC'01 description):
//!
//! 1. every node computes its *span* (uncovered nodes in its closed
//!    neighborhood) and rounds it up to a power of two — its *class*;
//! 2. *candidates* are nodes whose class is maximal within distance 2;
//! 3. every uncovered node computes its *support* — the number of
//!    candidates covering it;
//! 4. each candidate joins with probability `1 / median(supports of its
//!    uncovered closed neighbors)`;
//! 5. repeat until everything is covered.
//!
//! Each phase costs 6 synchronous rounds here (cover, class, max-class,
//! candidacy, support, join). Nodes maintain per-port covered flags, so a
//! node halts once its closed neighborhood is fully covered without
//! breaking its neighbors' bookkeeping (covering is monotone).

use rand::Rng;

use kw_graph::{CsrGraph, DominatingSet, NodeId};
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

/// Messages of the LRG protocol (one kind per schedule slot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JrsMsg {
    /// Whether the sender is covered (slot 0).
    Covered(bool),
    /// The sender's span class `⌈log₂ span⌉`, `None` when span = 0
    /// (slot 1).
    Class(Option<u8>),
    /// Maximum class within the sender's closed neighborhood (slot 2).
    MaxClass(Option<u8>),
    /// Candidacy announcement (slot 3; only candidates send).
    Candidate,
    /// The sender's support count (slot 4; only uncovered nodes send).
    Support(u64),
    /// The sender joined the dominating set (slot 5; only joiners send).
    Joined,
}

fn encode_opt_class(w: &mut BitWriter, c: Option<u8>) {
    w.write_gamma(c.map_or(0, |c| u64::from(c) + 1));
}

fn decode_opt_class(r: &mut BitReader<'_>) -> Option<Option<u8>> {
    Some(match r.read_gamma()? {
        0 => None,
        c => Some(u8::try_from(c - 1).ok()?),
    })
}

impl WireEncode for JrsMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            JrsMsg::Covered(b) => {
                w.write_bits(0b000, 3);
                w.write_bit(*b);
            }
            JrsMsg::Class(c) => {
                w.write_bits(0b001, 3);
                encode_opt_class(w, *c);
            }
            JrsMsg::MaxClass(c) => {
                w.write_bits(0b010, 3);
                encode_opt_class(w, *c);
            }
            JrsMsg::Candidate => w.write_bits(0b011, 3),
            JrsMsg::Support(s) => {
                w.write_bits(0b100, 3);
                w.write_gamma(*s);
            }
            JrsMsg::Joined => w.write_bits(0b101, 3),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(match r.read_bits(3)? {
            0b000 => JrsMsg::Covered(r.read_bit()?),
            0b001 => JrsMsg::Class(decode_opt_class(r)?),
            0b010 => JrsMsg::MaxClass(decode_opt_class(r)?),
            0b011 => JrsMsg::Candidate,
            0b100 => JrsMsg::Support(r.read_gamma()?),
            0b101 => JrsMsg::Joined,
            _ => return None,
        })
    }

    fn encoded_bits(&self) -> usize {
        let opt_class_len = |c: &Option<u8>| wire::gamma_len(c.map_or(0, |c| u64::from(c) + 1));
        match self {
            JrsMsg::Covered(_) => 4,
            JrsMsg::Class(c) | JrsMsg::MaxClass(c) => 3 + opt_class_len(c),
            JrsMsg::Candidate | JrsMsg::Joined => 3,
            JrsMsg::Support(s) => 3 + wire::gamma_len(*s),
        }
    }
}

/// `⌈log₂ d⌉` for `d ≥ 1`.
fn ceil_log2(d: u64) -> u8 {
    debug_assert!(d >= 1);
    d.next_power_of_two().trailing_zeros() as u8
}

/// The LRG node program.
#[derive(Clone, Debug)]
pub struct JrsProtocol {
    covered: bool,
    covered_ports: Vec<bool>,
    in_set: bool,
    span_class: Option<u8>,
    max_class1: Option<u8>,
    is_candidate: bool,
    support: u64,
}

impl JrsProtocol {
    /// Creates the program for a node of the given degree.
    pub fn new(degree: usize) -> Self {
        JrsProtocol {
            covered: false,
            covered_ports: vec![false; degree],
            in_set: false,
            span_class: None,
            max_class1: None,
            is_candidate: false,
            support: 0,
        }
    }

    fn span(&self) -> u64 {
        u64::from(!self.covered) + self.covered_ports.iter().filter(|&&c| !c).count() as u64
    }
}

/// Broadcast-only (one `Ctx::broadcast` at most per round of the 6-round
/// phase): rides the engine's solo-broadcast fast path end to end.
impl Protocol for JrsProtocol {
    type Msg = JrsMsg;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut Ctx<'_, JrsMsg>) -> Status {
        match ctx.round() % 6 {
            0 => {
                // Ingest joins from the previous phase.
                for (port, msg) in ctx.inbox() {
                    if matches!(msg, JrsMsg::Joined) {
                        self.covered_ports[port as usize] = true;
                        self.covered = true;
                    }
                }
                if self.in_set {
                    self.covered = true;
                }
                ctx.broadcast(JrsMsg::Covered(self.covered));
                Status::Running
            }
            1 => {
                for (port, msg) in ctx.inbox() {
                    if let JrsMsg::Covered(c) = msg {
                        self.covered_ports[port as usize] |= c;
                    }
                }
                if self.covered && self.covered_ports.iter().all(|&c| c) {
                    // The entire closed neighborhood is covered; this node
                    // can no longer contribute (span 0 forever).
                    return Status::Halted;
                }
                let span = self.span();
                self.span_class = (span > 0).then(|| ceil_log2(span));
                ctx.broadcast(JrsMsg::Class(self.span_class));
                Status::Running
            }
            2 => {
                let mut best = self.span_class;
                for (_, msg) in ctx.inbox() {
                    if let JrsMsg::Class(c) = msg {
                        best = best.max(*c);
                    }
                }
                self.max_class1 = best;
                ctx.broadcast(JrsMsg::MaxClass(self.max_class1));
                Status::Running
            }
            3 => {
                let mut best2 = self.max_class1;
                for (_, msg) in ctx.inbox() {
                    if let JrsMsg::MaxClass(c) = msg {
                        best2 = best2.max(*c);
                    }
                }
                self.is_candidate = self.span_class.is_some() && self.span_class == best2;
                if self.is_candidate {
                    ctx.broadcast(JrsMsg::Candidate);
                }
                Status::Running
            }
            4 => {
                if !self.covered {
                    let mut s = u64::from(self.is_candidate);
                    for (_, msg) in ctx.inbox() {
                        if matches!(msg, JrsMsg::Candidate) {
                            s += 1;
                        }
                    }
                    self.support = s;
                    ctx.broadcast(JrsMsg::Support(s));
                }
                Status::Running
            }
            _ => {
                if self.is_candidate {
                    let mut supports: Vec<u64> = ctx
                        .inbox()
                        .iter()
                        .filter_map(|(_, m)| match m {
                            JrsMsg::Support(s) => Some(*s),
                            _ => None,
                        })
                        .collect();
                    if !self.covered {
                        supports.push(self.support);
                    }
                    // On reliable links a candidate always has at least
                    // one uncovered closed neighbor here; message loss
                    // can starve the list, in which case the draw is
                    // skipped this phase.
                    if !supports.is_empty() {
                        supports.sort_unstable();
                        let median = supports[(supports.len() - 1) / 2].max(1);
                        let p = 1.0 / median as f64;
                        if ctx.rng().gen::<f64>() < p {
                            self.in_set = true;
                            ctx.broadcast(JrsMsg::Joined);
                        }
                    }
                }
                Status::Running
            }
        }
    }

    fn finish(self) -> bool {
        self.in_set
    }
}

/// Result of a distributed LRG run.
#[derive(Clone, Debug)]
pub struct JrsRun {
    /// The computed dominating set.
    pub set: DominatingSet,
    /// Communication metrics (`rounds / 6` ≈ number of phases).
    pub metrics: RunMetrics,
}

/// Runs LRG on `g` under `engine` — its seed, threads and chaos plan —
/// with LRG's own round budget in place of `engine.max_rounds`.
///
/// # Errors
///
/// Propagates [`kw_sim::SimError`]. On a reliable network the round
/// budget is far above the `O(log n·log Δ)` w.h.p. bound, so exhaustion
/// indicates a bug; LRG assumes reliable delivery, though, and under
/// message loss a run can stall until the budget runs out
/// ([`SimError::MaxRoundsExceeded`](kw_sim::SimError::MaxRoundsExceeded)).
///
/// # Example
///
/// ```
/// use kw_graph::generators;
/// use kw_baselines::jrs::run_jrs;
/// use kw_sim::EngineConfig;
///
/// let g = generators::grid(5, 5);
/// let run = run_jrs(&g, EngineConfig::seeded(3))?;
/// assert!(run.set.is_dominating(&g));
/// # Ok::<(), kw_sim::SimError>(())
/// ```
pub fn run_jrs(g: &CsrGraph, engine: EngineConfig) -> Result<JrsRun, kw_sim::SimError> {
    let logn = (g.len().max(2)).ilog2() as usize + 1;
    let config = EngineConfig {
        max_rounds: 6 * 200 * logn * logn,
        ..engine
    };
    let report = Engine::new(g, config, |info| JrsProtocol::new(info.degree)).run(&mut ())?;
    let mut set = DominatingSet::new(g);
    for (i, &joined) in report.outputs.iter().enumerate() {
        if joined {
            set.add(NodeId::new(i));
        }
    }
    Ok(JrsRun {
        set,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;
    use kw_sim::wire::roundtrip;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn message_roundtrip() {
        for m in [
            JrsMsg::Covered(true),
            JrsMsg::Class(None),
            JrsMsg::Class(Some(5)),
            JrsMsg::MaxClass(Some(0)),
            JrsMsg::Candidate,
            JrsMsg::Support(17),
            JrsMsg::Joined,
        ] {
            assert_eq!(roundtrip(&m), Some(m.clone()));
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
    }

    #[test]
    fn dominates_fixed_families() {
        for seed in 0..5u64 {
            for g in [
                generators::star(15),
                generators::cycle(18),
                generators::petersen(),
                generators::grid(5, 6),
                generators::star_of_cliques(3, 5),
                CsrGraph::empty(4),
            ] {
                let run = run_jrs(&g, EngineConfig::seeded(seed)).unwrap();
                assert!(run.set.is_dominating(&g), "seed {seed} failed on {g:?}");
            }
        }
    }

    #[test]
    fn star_selects_few() {
        // On a star, the center is the unique max-class node; LRG should
        // find a tiny set (center, possibly plus the odd leaf).
        let g = generators::star(40);
        let run = run_jrs(&g, EngineConfig::seeded(1)).unwrap();
        assert!(
            run.set.len() <= 3,
            "LRG picked {} nodes on a star",
            run.set.len()
        );
    }

    #[test]
    fn quality_close_to_log_delta_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnp(80, 0.08, &mut rng);
        let opt = kw_lp::exact::solve_mds(&g, &kw_lp::exact::ExactOptions::default())
            .unwrap()
            .len();
        let mut total = 0usize;
        let trials = 10;
        for seed in 0..trials {
            let run = run_jrs(&g, EngineConfig::seeded(seed)).unwrap();
            assert!(run.set.is_dominating(&g));
            total += run.set.len();
        }
        let mean = total as f64 / trials as f64;
        // Expected O(log Δ) ratio; allow a loose constant.
        let bound = 4.0 * ((g.max_degree() as f64 + 1.0).ln() + 1.0) * opt as f64;
        assert!(mean <= bound, "mean {mean} vs bound {bound} (opt {opt})");
    }

    #[test]
    fn rounds_polylogarithmic() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::gnp(400, 0.02, &mut rng);
        let run = run_jrs(&g, EngineConfig::seeded(2)).unwrap();
        assert!(run.set.is_dominating(&g));
        // log2(400) ≈ 8.6, log2(Δ) small; generous polylog budget.
        assert!(
            run.metrics.rounds <= 6 * 120,
            "{} rounds",
            run.metrics.rounds
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let g = generators::grid(7, 7);
        let a = run_jrs(&g, EngineConfig::seeded(9)).unwrap();
        let b = run_jrs(&g, EngineConfig::seeded(9)).unwrap();
        let av: Vec<bool> = g.node_ids().map(|v| a.set.contains(v)).collect();
        let bv: Vec<bool> = g.node_ids().map(|v| b.set.contains(v)).collect();
        assert_eq!(av, bv);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn lrg_always_dominates(
                n in 0usize..40,
                p in 0.0f64..1.0,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let run = run_jrs(&g, EngineConfig::seeded(seed)).unwrap();
                prop_assert!(run.set.is_dominating(&g));
            }
        }
    }
}
