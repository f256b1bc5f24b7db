//! Luby-style randomized maximal independent set.
//!
//! A maximal independent set is automatically a dominating set (an
//! undominated node could be added, contradicting maximality), so MIS
//! gives a simple randomized `O(log n)`-round baseline for the end-to-end
//! comparison tables. The variant implemented is the classic random
//! priority scheme: each phase, every undecided node draws a random 64-bit
//! ticket; a node joins the MIS when its `(ticket, id)` pair is strictly
//! smallest among its undecided closed neighbors; neighbors of joiners
//! drop out. Two rounds per phase, `O(log n)` phases with high
//! probability.

use rand::Rng;

use kw_graph::{CsrGraph, DominatingSet, NodeId};
use kw_sim::wire::{self, BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Engine, EngineConfig, Protocol, RunMetrics, Status};

/// Messages of the MIS protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MisMsg {
    /// A lottery ticket `(value, id)` from an undecided node.
    Ticket {
        /// Random 64-bit draw for this phase.
        value: u64,
        /// The sender's id (tie-break).
        id: u32,
    },
    /// The sender just joined the MIS.
    Joined,
}

impl WireEncode for MisMsg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            MisMsg::Ticket { value, id } => {
                w.write_bit(false);
                w.write_bits(*value, 64);
                w.write_gamma(u64::from(*id));
            }
            MisMsg::Joined => w.write_bit(true),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        Some(if r.read_bit()? {
            MisMsg::Joined
        } else {
            MisMsg::Ticket {
                value: r.read_bits(64)?,
                id: u32::try_from(r.read_gamma()?).ok()?,
            }
        })
    }

    fn encoded_bits(&self) -> usize {
        match self {
            MisMsg::Ticket { id, .. } => 1 + 64 + wire::gamma_len(u64::from(*id)),
            MisMsg::Joined => 1,
        }
    }
}

/// The Luby MIS node program.
///
/// Phase layout (2 rounds): even rounds ingest `Joined` announcements and
/// broadcast a fresh ticket; odd rounds compare tickets, with the local
/// minimum joining and announcing.
#[derive(Clone, Debug)]
pub struct LubyProtocol {
    id: u32,
    in_mis: bool,
    ticket: u64,
}

impl LubyProtocol {
    /// Creates the program for one node.
    pub fn new(id: NodeId) -> Self {
        LubyProtocol {
            id: id.raw(),
            in_mis: false,
            ticket: 0,
        }
    }
}

/// Broadcast-only (ticket or join announcements): rides the engine's
/// solo-broadcast fast path end to end.
impl Protocol for LubyProtocol {
    type Msg = MisMsg;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut Ctx<'_, MisMsg>) -> Status {
        if ctx.round() % 2 == 0 {
            // A neighbor joined last phase → this node is dominated; out.
            if ctx.inbox().iter().any(|(_, m)| matches!(m, MisMsg::Joined)) {
                return Status::Halted;
            }
            self.ticket = ctx.rng().gen();
            ctx.broadcast(MisMsg::Ticket {
                value: self.ticket,
                id: self.id,
            });
            Status::Running
        } else {
            let smallest = ctx.inbox().iter().all(|(_, m)| match m {
                MisMsg::Ticket { value, id } => (self.ticket, self.id) < (*value, *id),
                MisMsg::Joined => true,
            });
            if smallest {
                self.in_mis = true;
                ctx.broadcast(MisMsg::Joined);
                Status::Halted
            } else {
                Status::Running
            }
        }
    }

    fn finish(self) -> bool {
        self.in_mis
    }
}

/// Result of a distributed MIS run.
#[derive(Clone, Debug)]
pub struct MisRun {
    /// The computed maximal independent set (also a dominating set).
    pub set: DominatingSet,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

/// Runs the Luby MIS protocol on `g` with randomness from `seed`.
///
/// # Errors
///
/// Propagates [`kw_sim::SimError`]; the round budget is far beyond the
/// with-high-probability bound, so hitting it indicates a bug.
///
/// # Example
///
/// ```
/// use kw_graph::generators;
/// use kw_baselines::luby_mis::run_luby_mis;
///
/// let g = generators::petersen();
/// let run = run_luby_mis(&g, 7)?;
/// assert!(run.set.is_dominating(&g));
/// # Ok::<(), kw_sim::SimError>(())
/// ```
pub fn run_luby_mis(g: &CsrGraph, seed: u64) -> Result<MisRun, kw_sim::SimError> {
    let budget = 128 * ((g.len().max(2)).ilog2() as usize + 1);
    let config = EngineConfig {
        seed,
        max_rounds: budget,
        ..Default::default()
    };
    let report = Engine::new(g, config, |info| LubyProtocol::new(info.id)).run(&mut ())?;
    let mut set = DominatingSet::new(g);
    for (i, &in_mis) in report.outputs.iter().enumerate() {
        if in_mis {
            set.add(NodeId::new(i));
        }
    }
    Ok(MisRun {
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

    fn assert_valid_mis(g: &CsrGraph, set: &DominatingSet) {
        // Independent…
        for v in set.iter() {
            for u in g.neighbors(v) {
                assert!(!set.contains(u), "MIS contains adjacent pair {v}, {u}");
            }
        }
        // …and maximal ⇒ dominating.
        assert!(set.is_dominating(g), "MIS not dominating");
    }

    #[test]
    fn message_roundtrip() {
        for m in [
            MisMsg::Ticket {
                value: u64::MAX,
                id: 3,
            },
            MisMsg::Joined,
        ] {
            assert_eq!(roundtrip(&m), Some(m.clone()));
        }
    }

    #[test]
    fn valid_on_fixed_families() {
        for seed in 0..5u64 {
            for g in [
                generators::star(15),
                generators::cycle(20),
                generators::petersen(),
                generators::grid(6, 6),
                generators::complete(9),
                CsrGraph::empty(4),
            ] {
                let run = run_luby_mis(&g, seed).unwrap();
                assert_valid_mis(&g, &run.set);
            }
        }
    }

    #[test]
    fn complete_graph_yields_singleton() {
        let g = generators::complete(20);
        let run = run_luby_mis(&g, 3).unwrap();
        assert_eq!(run.set.len(), 1);
    }

    #[test]
    fn empty_graph_takes_everyone() {
        let g = CsrGraph::empty(7);
        let run = run_luby_mis(&g, 0).unwrap();
        assert_eq!(run.set.len(), 7);
        // Isolated nodes decide in a single phase.
        assert_eq!(run.metrics.rounds, 2);
    }

    #[test]
    fn deterministic_for_seed_and_fast() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::gnp(300, 0.03, &mut rng);
        let a = run_luby_mis(&g, 11).unwrap();
        let b = run_luby_mis(&g, 11).unwrap();
        let av: Vec<bool> = g.node_ids().map(|v| a.set.contains(v)).collect();
        let bv: Vec<bool> = g.node_ids().map(|v| b.set.contains(v)).collect();
        assert_eq!(av, bv);
        assert_valid_mis(&g, &a.set);
        // O(log n) phases whp: generous check.
        assert!(a.metrics.rounds <= 60, "{} rounds", a.metrics.rounds);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn mis_is_independent_and_dominating(
                n in 0usize..50,
                p in 0.0f64..1.0,
                seed in any::<u64>(),
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = generators::gnp(n, p, &mut rng);
                let run = run_luby_mis(&g, seed).unwrap();
                assert_valid_mis(&g, &run.set);
            }
        }
    }
}
