//! Synthetic engine traffic shapes shared by the thread-invariance
//! tests.
//!
//! The two boundary protocols — broadcast-heavy *flood* (the shape of
//! Algorithms 1–3) and unicast-heavy *ping* — exercise the engine at
//! both ends of its delivery plane. Both send a gamma-coded wire word
//! and are deterministic per `(node id, round)`, so every run is
//! bit-identical across thread counts.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use kw_sim::rng::split_mix64;
use kw_sim::wire::{BitReader, BitWriter, WireEncode};
use kw_sim::{Ctx, Protocol, Status};

/// A single gamma-coded `u64` payload.
#[derive(Clone)]
pub struct Word(pub u64);

impl WireEncode for Word {
    fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.0);
    }

    fn decode(r: &mut BitReader<'_>) -> Option<Self> {
        r.read_gamma().map(Word)
    }

    fn encoded_bits(&self) -> usize {
        kw_sim::wire::gamma_len(self.0)
    }
}

/// Broadcast-heavy: one broadcast per node per round (the shape of
/// Algorithms 1–3).
pub struct Flood {
    acc: u64,
    rounds_left: u32,
}

impl Flood {
    /// A flood node seeded with its own id, broadcasting for `rounds`
    /// rounds.
    pub fn new(id: u64, rounds: u32) -> Self {
        Flood {
            acc: id,
            rounds_left: rounds,
        }
    }
}

impl Protocol for Flood {
    type Msg = Word;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Word>) -> Status {
        for (_, m) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(m.0);
        }
        if self.rounds_left == 0 {
            return Status::Halted;
        }
        self.rounds_left -= 1;
        ctx.broadcast(Word(self.acc | 1));
        Status::Running
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

/// Unicast-heavy: four unicasts per node per round to hash-chosen
/// ports.
pub struct Ping {
    me: u64,
    acc: u64,
    rounds_left: u32,
}

impl Ping {
    /// A ping node seeded with its own id, sending for `rounds` rounds.
    pub fn new(id: u64, rounds: u32) -> Self {
        Ping {
            me: id,
            acc: id,
            rounds_left: rounds,
        }
    }
}

impl Protocol for Ping {
    type Msg = Word;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Word>) -> Status {
        for (_, m) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(m.0);
        }
        if self.rounds_left == 0 {
            return Status::Halted;
        }
        self.rounds_left -= 1;
        let degree = ctx.degree();
        if degree > 0 {
            for i in 0..4u64 {
                let port = (split_mix64(self.me ^ (u64::from(self.rounds_left) << 8) ^ i)
                    % u64::from(degree)) as u32;
                ctx.send(port, Word(self.acc | 1));
            }
        }
        Status::Running
    }

    fn finish(self) -> u64 {
        self.acc
    }
}
