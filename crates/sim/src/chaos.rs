//! The composable chaos plane: iid drops, correlated burst loss,
//! crash/recover schedules, byzantine senders, and inter-round churn —
//! all deterministic in one fault seed.
//!
//! The paper's synchronous model assumes reliable links; real ad-hoc
//! networks do not. A [`ChaosPlan`] is described by — and round-trips
//! through — a canonical spec string, the **chaos clause** of the
//! workload grammar:
//!
//! ```text
//! drop=0.1,seed=7,burst=r3-5@0.9/0.5,crash=7@r2-4,byz=3+9,churn=r2re0-1+r4j6
//! ```
//!
//! * `drop=<p>` — iid per-delivery loss with probability `p ∈ [0, 1]`
//!   (omitted when 0). Losses apply at *delivery*: a broadcast may reach
//!   some neighbors and not others, matching radio-interference
//!   semantics, while metrics still charge the sender for every copy;
//! * `seed=<s>` — the fault seed every random choice below derives from
//!   (omitted when 0);
//! * `burst=r<a>-<b>@<p>[/<f>]` — a correlated drop storm: during
//!   rounds `a..=b`, deliveries *into* the storm's region — a random
//!   fraction `f ∈ (0, 1]` of nodes (default 1.0), membership keyed off
//!   the fault seed and the burst's index — are dropped with
//!   probability `p`. May repeat;
//! * `crash=<v>@r<a>[-<b>]` — node `v` is down for rounds `a..=b`
//!   (forever when `-<b>` is omitted): it sends and receives nothing,
//!   but its protocol state persists and resumes on recovery. May
//!   repeat;
//! * `byz=<v>[+<v>…]` — byzantine senders: every payload `v` stages has
//!   its wire encoding corrupted by seeded bit flips before delivery.
//!   Corrupted bytes that still decode are delivered as the forged
//!   message; bytes that no longer decode are rejected (counted in
//!   [`RunMetrics::byz_rejected`](crate::RunMetrics::byz_rejected)) —
//!   never a panic;
//! * `churn=<event>[+<event>…]` — inter-round topology script. Each
//!   event is `r<round>` followed by `ae<u>-<v>` (add edge),
//!   `re<u>-<v>` (remove edge), `j<v>` (node joins / comes up) or
//!   `l<v>` (node leaves: goes down and loses every incident edge).
//!   Events at round `r` apply *before* round `r`'s compute phase, and
//!   messages in flight across a churn boundary are dropped. A node
//!   whose first liveness event is a join starts the run down.
//!
//! # Reproducibility contract
//!
//! Every chaotic choice — drop fates, burst region membership, byzantine
//! bit flips — is a pure function of the fault seed and stable per-event
//! keys (`round`, global node ids, send slot). Nothing depends on
//! iteration order, thread count, or wall clock, so a chaos spec plus a
//! run seed reproduces a run bit-for-bit anywhere.

use std::fmt;

use kw_graph::{apply_churn, ChurnEvent, ChurnKind, CsrGraph};

use crate::rng::split_mix64;

/// Domain salt for burst region membership keys.
const REGION_SALT: u64 = 0x5245_4749_4f4e_414c;
/// Domain salt for burst drop-fate keys.
const BURST_SALT: u64 = 0x4255_5253_545f_4452;
/// Domain salt for byzantine corruption keys.
const BYZ_SALT: u64 = 0x4259_5a41_4e54_494e;

/// Maps a hashed key to a unit interval sample in `[0, 1)` (top 53 bits).
#[inline]
fn unit(key: u64) -> f64 {
    (key >> 11) as f64 / (1u64 << 53) as f64
}

/// One correlated drop storm: a round window, a drop probability, and a
/// randomly chosen region of receivers it applies to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Burst {
    /// First round of the storm (inclusive).
    pub from_round: usize,
    /// Last round of the storm (inclusive).
    pub to_round: usize,
    /// Drop probability for deliveries into the region during the window.
    pub drop_probability: f64,
    /// Fraction of nodes in the storm's region, `(0, 1]`. Membership is
    /// per-receiver, keyed off the fault seed and the burst's index in
    /// the plan.
    pub region: f64,
}

impl Burst {
    fn validate(&self) -> Result<(), String> {
        if self.from_round > self.to_round {
            return Err(format!(
                "burst window r{}-{} is empty (from > to)",
                self.from_round, self.to_round
            ));
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(format!(
                "burst drop probability {} outside [0, 1]",
                self.drop_probability
            ));
        }
        if !(self.region > 0.0 && self.region <= 1.0) {
            return Err(format!(
                "burst region fraction {} outside (0, 1]",
                self.region
            ));
        }
        Ok(())
    }
}

/// One crash window: the node is down (sends and receives nothing) for
/// rounds `from_round..=to_round`, or forever when `to_round` is `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: u32,
    /// First down round (inclusive).
    pub from_round: usize,
    /// Last down round (inclusive); `None` means the node never recovers.
    pub to_round: Option<usize>,
}

impl CrashWindow {
    fn validate(&self) -> Result<(), String> {
        if let Some(to) = self.to_round {
            if self.from_round > to {
                return Err(format!(
                    "crash window r{}-{to} is empty (from > to)",
                    self.from_round
                ));
            }
        }
        Ok(())
    }

    /// Whether this window covers `(node, round)`.
    #[inline]
    fn covers(&self, node: u32, round: usize) -> bool {
        self.node == node && self.from_round <= round && self.to_round.is_none_or(|to| round <= to)
    }
}

/// A chaos-spec string failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosParseError(String);

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosParseError {}

/// A composable, deterministic chaos model (see the [module docs](self)
/// for the grammar and semantics).
///
/// Construction canonicalizes: component lists are sorted (churn events
/// stably by round), byzantine ids deduplicated. [`spec`](Self::spec)
/// renders the canonical string, so equal plans render equal specs and
/// `parse(spec())` is the identity.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ChaosPlan {
    /// Probability that any individual delivered message copy is lost.
    drop: f64,
    /// The fault seed every chaotic choice derives from (independent of
    /// protocol randomness).
    seed: u64,
    bursts: Vec<Burst>,
    crashes: Vec<CrashWindow>,
    byzantine: Vec<u32>,
    churn: Vec<ChurnEvent>,
}

impl ChaosPlan {
    /// A fully reliable plan (no chaos of any kind).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// Sets the iid drop probability: each delivered message copy is lost
    /// independently with probability `p`. The full closed range `[0, 1]`
    /// is accepted: 1.0 is a total blackout, a legitimate worst-case plan.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (including NaN).
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} outside [0, 1]"
        );
        self.drop = p;
        self
    }

    /// Replaces the fault seed, keeping every other component.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a correlated burst.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or out-of-range probabilities.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        if let Err(e) = burst.validate() {
            panic!("{e}");
        }
        self.bursts.push(burst);
        self.canonicalize();
        self
    }

    /// Adds a crash window for `node` (`to_round: None` = down forever).
    ///
    /// # Panics
    ///
    /// Panics on an empty window.
    pub fn with_crash(mut self, node: u32, from_round: usize, to_round: Option<usize>) -> Self {
        let w = CrashWindow {
            node,
            from_round,
            to_round,
        };
        if let Err(e) = w.validate() {
            panic!("{e}");
        }
        self.crashes.push(w);
        self.canonicalize();
        self
    }

    /// Marks `node` as a byzantine sender.
    pub fn with_byzantine(mut self, node: u32) -> Self {
        self.byzantine.push(node);
        self.canonicalize();
        self
    }

    /// Appends a churn event (kept stably sorted by round).
    pub fn with_churn_event(mut self, event: ChurnEvent) -> Self {
        self.churn.push(event);
        self.canonicalize();
        self
    }

    fn canonicalize(&mut self) {
        self.bursts.sort_by_key(|b| {
            (
                b.from_round,
                b.to_round,
                b.drop_probability.to_bits(),
                b.region.to_bits(),
            )
        });
        self.crashes
            .sort_by_key(|c| (c.node, c.from_round, c.to_round.unwrap_or(usize::MAX)));
        self.byzantine.sort_unstable();
        self.byzantine.dedup();
        // Stable by round: same-round events keep their script order,
        // which `apply_churn` honors (last wins).
        self.churn.sort_by_key(|e| e.round);
    }

    /// The iid drop probability (0.0 when the iid component is off).
    pub fn drop_probability(&self) -> f64 {
        self.drop
    }

    /// The fault seed every chaotic choice derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The correlated bursts, canonically ordered.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// The crash windows, canonically ordered.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The byzantine sender ids, sorted and deduplicated.
    pub fn byzantine(&self) -> &[u32] {
        &self.byzantine
    }

    /// The churn script, stably sorted by round.
    pub fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }

    /// Whether the plan is completely quiet — no drops, bursts, crashes,
    /// byzantine senders, or churn.
    pub fn is_reliable(&self) -> bool {
        self.drop == 0.0
            && self.bursts.is_empty()
            && self.crashes.is_empty()
            && self.byzantine.is_empty()
            && self.churn.is_empty()
    }

    /// Whether delivery never drops messages (no iid loss and no bursts).
    /// Crashes, churn, and byzantine corruption may still be present —
    /// they filter senders/receivers or rewrite payloads, but every
    /// message staged for a live receiver arrives. This is the condition
    /// that lets the engine take its solo-broadcast fast path.
    pub fn lossless(&self) -> bool {
        self.drop == 0.0 && self.bursts.is_empty()
    }

    /// Whether any node can ever be down (crash windows or node churn).
    pub fn has_down(&self) -> bool {
        !self.crashes.is_empty()
            || self
                .churn
                .iter()
                .any(|e| matches!(e.kind, ChurnKind::Join(_) | ChurnKind::Leave(_)))
    }

    /// Whether any byzantine senders are configured.
    pub fn has_byzantine(&self) -> bool {
        !self.byzantine.is_empty()
    }

    /// Whether the plan carries a churn script.
    pub fn has_churn(&self) -> bool {
        !self.churn.is_empty()
    }

    /// Whether `node` is a byzantine sender.
    #[inline]
    pub fn is_byzantine(&self, node: u32) -> bool {
        self.byzantine.binary_search(&node).is_ok()
    }

    /// Decides the fate of one delivery, identified by `(round, sender,
    /// receiver, slot)` where `slot` is the message's index in the
    /// sender's outbox that round: iid loss, then each burst whose window
    /// covers `round` and whose region contains `receiver`. Deterministic
    /// in the fault seed and independent of evaluation order, so results
    /// do not depend on thread count.
    #[inline]
    pub fn drops(&self, round: usize, sender: u32, receiver: u32, slot: u32) -> bool {
        if self.drop > 0.0 {
            let key = split_mix64(
                self.seed
                    ^ split_mix64((round as u64) << 32 | u64::from(slot))
                    ^ split_mix64(u64::from(sender) << 32 | u64::from(receiver)),
            );
            if unit(key) < self.drop {
                return true;
            }
        }
        for (idx, b) in self.bursts.iter().enumerate() {
            if round < b.from_round || round > b.to_round {
                continue;
            }
            if b.region < 1.0 {
                let member = unit(split_mix64(
                    self.seed()
                        ^ REGION_SALT
                        ^ split_mix64((idx as u64) << 32 | u64::from(receiver)),
                ));
                if member >= b.region {
                    continue;
                }
            }
            let key = split_mix64(
                self.seed()
                    ^ BURST_SALT
                    ^ (idx as u64)
                    ^ split_mix64((round as u64) << 32 | u64::from(slot))
                    ^ split_mix64(u64::from(sender) << 32 | u64::from(receiver)),
            );
            if unit(key) < b.drop_probability {
                return true;
            }
        }
        false
    }

    /// Whether `node` is down at `round` — inside a crash window, or
    /// churn-down (left and not yet re-joined; a node whose first
    /// liveness event is a join starts the run down).
    pub fn is_down(&self, node: u32, round: usize) -> bool {
        if self.crashes.iter().any(|c| c.covers(node, round)) {
            return true;
        }
        self.churn_down(node, round)
    }

    /// Whether `node` is down at `round` and at every later round — the
    /// engine's termination check treats such nodes as finished.
    pub fn down_forever(&self, node: u32, round: usize) -> bool {
        if self
            .crashes
            .iter()
            .any(|c| c.node == node && c.from_round <= round && c.to_round.is_none())
        {
            return true;
        }
        self.churn_down(node, round)
            && !self
                .churn
                .iter()
                .any(|e| e.round > round && matches!(e.kind, ChurnKind::Join(v) if v == node))
    }

    /// Churn-liveness of `node` at `round`: walks the (round-sorted)
    /// liveness events for the node; the first one fixes the start state
    /// (a first join means the node starts down), and the last event at
    /// or before `round` wins.
    fn churn_down(&self, node: u32, round: usize) -> bool {
        let mut down = false;
        let mut seen = false;
        for e in &self.churn {
            let joins = match e.kind {
                ChurnKind::Join(v) if v == node => true,
                ChurnKind::Leave(v) if v == node => false,
                _ => continue,
            };
            if !seen {
                seen = true;
                down = joins;
            }
            if e.round <= round {
                down = !joins;
            } else {
                break;
            }
        }
        seen && down
    }

    /// The churn events applying before `round`'s compute phase.
    pub fn churn_events_at(&self, round: usize) -> &[ChurnEvent] {
        let lo = self.churn.partition_point(|e| e.round < round);
        let hi = self.churn.partition_point(|e| e.round <= round);
        &self.churn[lo..hi]
    }

    /// The graph after the *entire* churn script has applied to `g`, or
    /// `None` when the plan has no churn. This is the final topology a
    /// run ends on — the graph answers should be graded against.
    pub fn churned_graph(&self, g: &CsrGraph) -> Option<CsrGraph> {
        if self.churn.is_empty() {
            None
        } else {
            Some(apply_churn(g, &self.churn))
        }
    }

    /// A copy of this plan with the churn script removed — the "re-solve
    /// on the final topology" arm of churn-cost comparisons.
    pub fn without_churn(&self) -> ChaosPlan {
        let mut p = self.clone();
        p.churn.clear();
        p
    }

    /// Corrupts `bytes` (a wire encoding) in place with seeded bit flips
    /// keyed by `(round, sender, slot)`: per 64-bit lane the flip mask is
    /// the AND of three hash words (each bit flips with probability 1/8),
    /// and if no bit flipped at all, the lowest bit of the first byte is
    /// forced — a byzantine sender never transmits its true payload.
    pub fn corrupt(&self, bytes: &mut [u8], round: usize, sender: u32, slot: u32) {
        if bytes.is_empty() {
            return;
        }
        let base = split_mix64(
            self.seed()
                ^ BYZ_SALT
                ^ split_mix64((round as u64) << 32 | u64::from(slot))
                ^ split_mix64(u64::from(sender)),
        );
        let mut flipped = false;
        for (lane, chunk) in bytes.chunks_mut(8).enumerate() {
            let a = split_mix64(base ^ lane as u64);
            let b = split_mix64(a);
            let c = split_mix64(b);
            let mask = (a & b & c).to_le_bytes();
            for (i, byte) in chunk.iter_mut().enumerate() {
                flipped |= mask[i] != 0;
                *byte ^= mask[i];
            }
        }
        if !flipped {
            bytes[0] ^= 1;
        }
    }

    /// Renders the canonical spec string (empty for a reliable plan).
    /// `parse(spec())` reproduces the plan exactly.
    pub fn spec(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if self.drop > 0.0 {
            parts.push(format!("drop={}", self.drop));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        for b in &self.bursts {
            let mut s = format!(
                "burst=r{}-{}@{}",
                b.from_round, b.to_round, b.drop_probability
            );
            if b.region < 1.0 {
                s.push_str(&format!("/{}", b.region));
            }
            parts.push(s);
        }
        for c in &self.crashes {
            match c.to_round {
                Some(to) => parts.push(format!("crash={}@r{}-{to}", c.node, c.from_round)),
                None => parts.push(format!("crash={}@r{}", c.node, c.from_round)),
            }
        }
        if !self.byzantine.is_empty() {
            let ids: Vec<String> = self.byzantine.iter().map(u32::to_string).collect();
            parts.push(format!("byz={}", ids.join("+")));
        }
        if !self.churn.is_empty() {
            let evs: Vec<String> = self.churn.iter().map(render_churn_event).collect();
            parts.push(format!("churn={}", evs.join("+")));
        }
        parts.join(",")
    }

    /// Parses a chaos clause (an optional `chaos:` prefix is accepted and
    /// stripped; the empty string is the reliable plan). See the
    /// [module docs](self) for the grammar.
    ///
    /// # Errors
    ///
    /// [`ChaosParseError`] naming the offending clause on any syntax or
    /// range violation.
    pub fn parse(spec: &str) -> Result<ChaosPlan, ChaosParseError> {
        let err = |msg: String| ChaosParseError(msg);
        let body = spec.trim();
        let body = body.strip_prefix("chaos:").unwrap_or(body).trim();
        let mut plan = ChaosPlan::default();
        if body.is_empty() {
            return Ok(plan);
        }
        for part in body.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| err(format!("clause {part:?} is not key=value")))?;
            match key {
                "drop" => {
                    plan.drop = value
                        .parse::<f64>()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| {
                            err(format!("drop probability {value:?} is not in [0, 1]"))
                        })?;
                }
                "seed" => {
                    plan.seed = value
                        .parse::<u64>()
                        .map_err(|_| err(format!("seed {value:?} is not a u64")))?;
                }
                "burst" => {
                    let b = parse_burst(value).map_err(err)?;
                    b.validate().map_err(err)?;
                    plan.bursts.push(b);
                }
                "crash" => {
                    let c = parse_crash(value).map_err(err)?;
                    c.validate().map_err(err)?;
                    plan.crashes.push(c);
                }
                "byz" => {
                    for tok in value.split('+') {
                        plan.byzantine.push(
                            tok.parse::<u32>()
                                .map_err(|_| err(format!("byz node {tok:?} is not a u32")))?,
                        );
                    }
                }
                "churn" => {
                    for tok in value.split('+') {
                        plan.churn.push(parse_churn_event(tok).map_err(err)?);
                    }
                }
                _ => return Err(err(format!("unknown chaos key {key:?}"))),
            }
        }
        plan.canonicalize();
        Ok(plan)
    }
}

/// Renders one churn event in grammar form (`r<round><op>`).
fn render_churn_event(e: &ChurnEvent) -> String {
    match e.kind {
        ChurnKind::AddEdge(u, v) => format!("r{}ae{u}-{v}", e.round),
        ChurnKind::RemoveEdge(u, v) => format!("r{}re{u}-{v}", e.round),
        ChurnKind::Join(v) => format!("r{}j{v}", e.round),
        ChurnKind::Leave(v) => format!("r{}l{v}", e.round),
    }
}

/// `r<a>-<b>@<p>[/<f>]`.
fn parse_burst(s: &str) -> Result<Burst, String> {
    let body = s
        .strip_prefix('r')
        .ok_or_else(|| format!("burst {s:?} must start with r<from>-<to>"))?;
    let (window, rest) = body
        .split_once('@')
        .ok_or_else(|| format!("burst {s:?} is missing @<probability>"))?;
    let (from, to) = window
        .split_once('-')
        .ok_or_else(|| format!("burst window {window:?} is not <from>-<to>"))?;
    let from_round = from
        .parse::<usize>()
        .map_err(|_| format!("burst round {from:?} is not an integer"))?;
    let to_round = to
        .parse::<usize>()
        .map_err(|_| format!("burst round {to:?} is not an integer"))?;
    let (prob, region) = match rest.split_once('/') {
        Some((p, f)) => (p, Some(f)),
        None => (rest, None),
    };
    let drop_probability = prob
        .parse::<f64>()
        .map_err(|_| format!("burst probability {prob:?} is not a number"))?;
    let region = match region {
        Some(f) => f
            .parse::<f64>()
            .map_err(|_| format!("burst region {f:?} is not a number"))?,
        None => 1.0,
    };
    Ok(Burst {
        from_round,
        to_round,
        drop_probability,
        region,
    })
}

/// `<node>@r<a>[-<b>]`.
fn parse_crash(s: &str) -> Result<CrashWindow, String> {
    let (node, window) = s
        .split_once('@')
        .ok_or_else(|| format!("crash {s:?} is not <node>@r<from>[-<to>]"))?;
    let node = node
        .parse::<u32>()
        .map_err(|_| format!("crash node {node:?} is not a u32"))?;
    let window = window
        .strip_prefix('r')
        .ok_or_else(|| format!("crash window {window:?} must start with r"))?;
    let (from_round, to_round) = match window.split_once('-') {
        Some((from, to)) => (
            from.parse::<usize>()
                .map_err(|_| format!("crash round {from:?} is not an integer"))?,
            Some(
                to.parse::<usize>()
                    .map_err(|_| format!("crash round {to:?} is not an integer"))?,
            ),
        ),
        None => (
            window
                .parse::<usize>()
                .map_err(|_| format!("crash round {window:?} is not an integer"))?,
            None,
        ),
    };
    Ok(CrashWindow {
        node,
        from_round,
        to_round,
    })
}

/// `r<round>` then `ae<u>-<v>` | `re<u>-<v>` | `j<v>` | `l<v>`.
fn parse_churn_event(s: &str) -> Result<ChurnEvent, String> {
    let body = s
        .strip_prefix('r')
        .ok_or_else(|| format!("churn event {s:?} must start with r<round>"))?;
    let digits = body.chars().take_while(char::is_ascii_digit).count();
    if digits == 0 {
        return Err(format!("churn event {s:?} is missing its round"));
    }
    let round = body[..digits]
        .parse::<usize>()
        .map_err(|_| format!("churn round in {s:?} is not an integer"))?;
    let op = &body[digits..];
    let pair = |rest: &str| -> Result<(u32, u32), String> {
        let (u, v) = rest
            .split_once('-')
            .ok_or_else(|| format!("churn edge in {s:?} is not <u>-<v>"))?;
        Ok((
            u.parse::<u32>()
                .map_err(|_| format!("churn endpoint {u:?} is not a u32"))?,
            v.parse::<u32>()
                .map_err(|_| format!("churn endpoint {v:?} is not a u32"))?,
        ))
    };
    let node = |rest: &str| -> Result<u32, String> {
        rest.parse::<u32>()
            .map_err(|_| format!("churn node {rest:?} is not a u32"))
    };
    let kind = if let Some(rest) = op.strip_prefix("ae") {
        let (u, v) = pair(rest)?;
        ChurnKind::AddEdge(u, v)
    } else if let Some(rest) = op.strip_prefix("re") {
        let (u, v) = pair(rest)?;
        ChurnKind::RemoveEdge(u, v)
    } else if let Some(rest) = op.strip_prefix('j') {
        ChurnKind::Join(node(rest)?)
    } else if let Some(rest) = op.strip_prefix('l') {
        ChurnKind::Leave(node(rest)?)
    } else {
        return Err(format!(
            "churn event {s:?} has an unknown op (expected ae/re/j/l)"
        ));
    };
    Ok(ChurnEvent { round, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_reliable_and_roundtrips() {
        let p = ChaosPlan::parse("").unwrap();
        assert!(p.is_reliable());
        assert!(p.lossless());
        assert_eq!(p.spec(), "");
        assert_eq!(ChaosPlan::parse(&p.spec()).unwrap(), p);
        assert_eq!(ChaosPlan::parse("chaos:").unwrap(), p);
    }

    #[test]
    fn issue_example_parses_and_roundtrips() {
        let s = "chaos:drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3";
        let p = ChaosPlan::parse(s).unwrap();
        assert_eq!(p.drop_probability(), 0.1);
        assert_eq!(p.bursts().len(), 1);
        assert_eq!(p.crashes().len(), 1);
        assert_eq!(p.byzantine(), &[3]);
        assert_eq!(p.spec(), "drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3");
        assert_eq!(ChaosPlan::parse(&p.spec()).unwrap(), p);
    }

    #[test]
    fn full_grammar_roundtrips_canonically() {
        // Deliberately unsorted components; parse canonicalizes.
        let s = "seed=9,byz=9+3+3,crash=5@r4-6,crash=1@r0,burst=r3-5@0.9/0.25,churn=r4j6+r2re0-1";
        let p = ChaosPlan::parse(s).unwrap();
        assert_eq!(
            p.spec(),
            "seed=9,burst=r3-5@0.9/0.25,crash=1@r0,crash=5@r4-6,byz=3+9,churn=r2re0-1+r4j6"
        );
        assert_eq!(ChaosPlan::parse(&p.spec()).unwrap(), p);
        assert!(!p.lossless());
        assert!(p.has_down());
        assert!(p.has_byzantine());
        assert!(p.has_churn());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "nonsense",
            "drop=2.0",
            "drop=NaN",
            "seed=-1",
            "burst=3-5@0.9",
            "burst=r5-3@0.9",
            "burst=r3-5@1.5",
            "burst=r3-5@0.5/0.0",
            "crash=7",
            "crash=7@r5-3",
            "byz=x",
            "churn=ae0-1",
            "churn=r2x0",
            "churn=r2ae0",
            "frobnicate=1",
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn burst_drops_inside_window_only() {
        let p = ChaosPlan::parse("seed=3,burst=r2-4@1").unwrap();
        // Full-region probability-1 burst: every delivery in the window
        // drops, none outside it.
        for round in 0..8 {
            let dropped = p.drops(round, 0, 1, 0);
            assert_eq!(dropped, (2..=4).contains(&round), "round {round}");
        }
    }

    #[test]
    fn burst_region_scopes_receivers() {
        let p = ChaosPlan::parse("seed=11,burst=r0-100@1/0.5").unwrap();
        let hit = (0u32..200).filter(|&v| p.drops(5, 0, v, 0)).count();
        // ~half the receivers are in the region; all their deliveries drop.
        assert!((60..=140).contains(&hit), "region hit {hit}/200");
        // Membership is stable per receiver across rounds and senders.
        for v in 0..50u32 {
            let a = p.drops(1, 0, v, 0);
            let b = p.drops(7, 3, v, 2);
            assert_eq!(a, b, "receiver {v} region membership must be stable");
        }
    }

    #[test]
    fn iid_and_burst_compose() {
        let p = ChaosPlan::parse("drop=1,seed=5").unwrap();
        assert!(p.drops(0, 0, 1, 0));
        assert!(!p.lossless());
        let q = ChaosPlan::parse("seed=5").unwrap();
        assert!(!q.drops(0, 0, 1, 0));
        assert!(q.lossless());
    }

    #[test]
    fn crash_windows_and_forever() {
        let p = ChaosPlan::parse("crash=3@r2-4,crash=9@r5").unwrap();
        assert!(!p.is_down(3, 1));
        assert!(p.is_down(3, 2));
        assert!(p.is_down(3, 4));
        assert!(!p.is_down(3, 5));
        assert!(!p.down_forever(3, 2));
        assert!(p.is_down(9, 5));
        assert!(p.is_down(9, 1_000_000));
        assert!(p.down_forever(9, 5));
        assert!(!p.down_forever(9, 4));
        assert!(!p.is_down(0, 3));
    }

    #[test]
    fn churn_liveness_follows_script() {
        // Node 6 joins at r4 (so starts down); node 2 leaves at r3 and
        // rejoins at r6; node 0 has no liveness events.
        let p = ChaosPlan::parse("churn=r4j6+r3l2+r6j2").unwrap();
        assert!(p.is_down(6, 0));
        assert!(p.is_down(6, 3));
        assert!(!p.is_down(6, 4));
        assert!(!p.is_down(2, 2));
        assert!(p.is_down(2, 3));
        assert!(p.is_down(2, 5));
        assert!(!p.is_down(2, 6));
        assert!(!p.is_down(0, 5));
        // Down-forever only once no future join exists.
        let q = ChaosPlan::parse("churn=r3l2").unwrap();
        assert!(q.down_forever(2, 3));
        assert!(!q.down_forever(2, 2));
        assert!(!p.down_forever(2, 3));
    }

    #[test]
    fn churn_events_slice_by_round() {
        let p = ChaosPlan::parse("churn=r2ae0-1+r2l3+r5j3").unwrap();
        assert_eq!(p.churn_events_at(0), &[]);
        assert_eq!(p.churn_events_at(2).len(), 2);
        assert_eq!(p.churn_events_at(5).len(), 1);
        assert_eq!(p.churn_events_at(6), &[]);
    }

    #[test]
    fn churned_graph_applies_whole_script() {
        use kw_graph::NodeId;
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let p = ChaosPlan::parse("churn=r1re0-1+r3ae2-3").unwrap();
        let h = p.churned_graph(&g).unwrap();
        assert!(!h.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(h.has_edge(NodeId::new(2), NodeId::new(3)));
        assert!(ChaosPlan::reliable().churned_graph(&g).is_none());
        let stripped = p.without_churn();
        assert!(!stripped.has_churn());
        assert!(stripped.churned_graph(&g).is_none());
    }

    #[test]
    fn corruption_is_deterministic_and_never_identity() {
        let p = ChaosPlan::parse("seed=21,byz=0").unwrap();
        assert!(p.is_byzantine(0));
        assert!(!p.is_byzantine(1));
        for len in 1..40usize {
            let original: Vec<u8> = (0..len as u8).collect();
            let mut a = original.clone();
            let mut b = original.clone();
            p.corrupt(&mut a, 3, 0, 1);
            p.corrupt(&mut b, 3, 0, 1);
            assert_eq!(a, b, "corruption must be deterministic");
            assert_ne!(a, original, "corruption must change the bytes");
        }
        // Different keys give different corruption (overwhelmingly).
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        p.corrupt(&mut a, 3, 0, 1);
        p.corrupt(&mut b, 4, 0, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn with_drop_builder_matches_parsed_plan() {
        let p = ChaosPlan::reliable().with_drop(0.25).with_fault_seed(99);
        assert_eq!(p.drop_probability(), 0.25);
        assert_eq!(p.seed(), 99);
        assert_eq!(p.spec(), "drop=0.25,seed=99");
        assert_eq!(ChaosPlan::parse("drop=0.25,seed=99").unwrap(), p);
    }

    #[test]
    fn reliable_never_drops() {
        let p = ChaosPlan::reliable();
        assert!(p.is_reliable());
        for r in 0..100 {
            assert!(!p.drops(r, 0, 1, 0));
        }
    }

    #[test]
    fn drop_rate_close_to_nominal() {
        let p = ChaosPlan::reliable().with_drop(0.3).with_fault_seed(42);
        let trials = 100_000;
        let dropped = (0..trials)
            .filter(|&i| p.drops(i % 97, (i % 13) as u32, (i % 31) as u32, (i / 97) as u32))
            .count();
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = ChaosPlan::reliable().with_drop(0.5).with_fault_seed(1);
        let b = ChaosPlan::reliable().with_drop(0.5).with_fault_seed(2);
        let fate_a: Vec<bool> = (0..64).map(|i| a.drops(i, 1, 2, 0)).collect();
        let fate_a2: Vec<bool> = (0..64).map(|i| a.drops(i, 1, 2, 0)).collect();
        let fate_b: Vec<bool> = (0..64).map(|i| b.drops(i, 1, 2, 0)).collect();
        assert_eq!(fate_a, fate_a2);
        assert_ne!(fate_a, fate_b);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validates_probability_above_one() {
        let _ = ChaosPlan::reliable().with_drop(1.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validates_probability_nan() {
        let _ = ChaosPlan::reliable().with_drop(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validates_probability_negative() {
        let _ = ChaosPlan::reliable().with_drop(-0.1);
    }

    #[test]
    fn builders_match_parsed_plans() {
        let built = ChaosPlan::reliable()
            .with_fault_seed(4)
            .with_burst(Burst {
                from_round: 1,
                to_round: 2,
                drop_probability: 0.5,
                region: 1.0,
            })
            .with_crash(3, 2, Some(4))
            .with_byzantine(7)
            .with_churn_event(ChurnEvent {
                round: 1,
                kind: ChurnKind::Leave(5),
            });
        let parsed =
            ChaosPlan::parse("seed=4,burst=r1-2@0.5,crash=3@r2-4,byz=7,churn=r1l5").unwrap();
        assert_eq!(built, parsed);
        assert_eq!(built.spec(), parsed.spec());
    }

    /// Pins every drop fate of an iid + regional-burst plan over a fixed
    /// key grid, so any change to the drop hashes (key mixing, salts or
    /// the 53-bit unit mapping) fails here, not only in rate checks.
    #[test]
    fn drop_fates_are_pinned() {
        let p = ChaosPlan::parse("drop=0.3,seed=42,burst=r1-3@0.5/0.5").unwrap();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let mut dropped = 0u32;
        for round in 0..6 {
            for sender in 0..16u32 {
                for receiver in 0..16u32 {
                    for slot in 0..4u32 {
                        let fate = p.drops(round, sender, receiver, slot);
                        dropped += u32::from(fate);
                        fingerprint = (fingerprint ^ u64::from(fate)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!((dropped, fingerprint), (2563, 0xe000_147b_c102_7616));
    }

    #[test]
    fn total_blackout_chaos_plan_is_legal() {
        let p = ChaosPlan::parse("drop=1,seed=1").unwrap();
        for i in 0..100u32 {
            assert!(p.drops(0, i, i + 1, 0));
        }
    }
}
