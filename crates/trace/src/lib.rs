//! # kw-trace — the in-engine span/profiling plane
//!
//! `RunMetrics` says *how much* a run communicated; this crate says
//! *where the time went*. A [`Tracer`] records hierarchical spans
//! (`solve → stage → round → phase{deliver/compute/barrier}`)
//! as monotonic microsecond tick pairs in flat per-track buffers — no
//! locks on the record path, no allocation per span beyond amortized
//! `Vec` growth — plus a per-round counter series ([`RoundSample`]:
//! messages, bits, active nodes, bytes of inbox handed to `on_round`,
//! plane rebuilds, and worker-pool wakeup/idle diagnostics) sampled at
//! round boundaries.
//!
//! ## Activation model
//!
//! Tracing is **off by default and free when off**. A tracer reaches the
//! engine through a thread-local slot ([`install`]/[`take`]): the engine
//! checks [`is_active`] once per run and records through [`with_active`]
//! only when a tracer is installed. Worker threads never touch the
//! slot — parallel phases report `(start, end)` tick pairs *by value*
//! back to the driving thread, which flushes them onto per-chunk worker
//! tracks after the join ([`Tracer::end_parallel`]). The `kwperf`
//! benchmark reports what a traced solve costs over an untraced one
//! (`trace.overhead_share`).
//!
//! ## Determinism contract
//!
//! Tick *values* vary run to run, but trace *structure* — the main-track
//! `(depth, label)` span sequence plus the full counter series — is a
//! pure function of `(graph, protocol, seed, chaos spec)` and must be
//! bit-identical across engine thread counts. [`Tracer::structure_hash`]
//! fingerprints exactly that (worker-track chunk spans are excluded:
//! their *count* is the chunk count, which legitimately varies with
//! `threads`). Synthetic `barrier` spans are emitted even on the
//! single-chunk path so the main track keeps one shape everywhere.
//!
//! ## Exports
//!
//! [`Tracer::chrome_json`] renders the Chrome trace-event format — load
//! the file at <https://ui.perfetto.dev> or `chrome://tracing` to see
//! rounds, phases, per-worker chunk spans, and barrier gaps on a
//! timeline. [`TraceSummary::to_markdown`] renders one run's
//! self-profile table (per-phase totals and shares, imbalance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The engine's phase taxonomy, in the canonical reporting order.
/// `deliver` = the sequential swap that hands a round's send tables to
/// the next round (no per-message copy), `compute` = the parallel pass
/// that runs each node's `on_round` over its inbox (read in place, or
/// gathered first from the senders' own send runs), `barrier` =
/// synchronization overhead of the parallel compute phase (epoch-publish
/// lead + done-wait tail on the persistent worker pool, synthesized by
/// [`Tracer::end_parallel`]).
pub const PHASES: [&str; 3] = ["deliver", "compute", "barrier"];

/// One closed span: a labeled `[start, end)` microsecond interval at a
/// nesting depth within its track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Static label (`"round"`, `"compute"`, `"stage:fractional"`, …).
    pub label: &'static str,
    /// Nesting depth on the main track (0 = root; worker-track chunk
    /// spans are always depth 0).
    pub depth: u16,
    /// Start tick, microseconds since the tracer's origin.
    pub start_us: u64,
    /// End tick, microseconds since the tracer's origin.
    pub end_us: u64,
}

impl Span {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Counter values sampled at one round boundary (after the round's
/// compute phase). The six *structural* fields (`round` through
/// `rebuilds`) are deterministic for a given
/// `(graph, protocol, seed, chaos)` and invariant across thread counts —
/// capacities that depend on chunk layout are deliberately excluded. The
/// two *pool* fields are timing-dependent diagnostics of the persistent
/// worker pool and are excluded from both equality and
/// [`Tracer::structure_hash`], so the thread-invariance contract keeps
/// holding on the full sample series.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundSample {
    /// Round index (0-based).
    pub round: u32,
    /// Messages sent this round.
    pub messages: u64,
    /// Payload bits sent this round.
    pub bits: u64,
    /// Nodes still running (not halted) after this round's compute.
    pub active: u64,
    /// Bytes of inbox handed to this round's `on_round` calls: the
    /// entries every computing node received, gathered or read in place,
    /// times `size_of::<(u32, Msg)>` — delivered traffic, not capacity
    /// and not bytes copied (an in-place inbox copies nothing), so the
    /// value is thread-count invariant. The engine counts in-place
    /// entries only while a tracer is installed.
    pub arena_bytes: u64,
    /// Cumulative churn-forced message-plane rebuilds so far.
    pub rebuilds: u64,
    /// Worker-pool condvar wakeups attributed to this sample (delta
    /// since the previous sample; covers this round's compute plus the
    /// previous round's delivery). 0 on the single-chunk path and with
    /// no tracer installed.
    pub pool_wakeups: u64,
    /// Pool idle ticks (worker waits that found no new epoch) attributed
    /// to this sample, same windowing as `pool_wakeups`.
    pub pool_idle: u64,
}

/// Equality over the six structural fields only: pool counters are
/// timing diagnostics and two samples that differ only there describe
/// the same deterministic round.
impl PartialEq for RoundSample {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.messages == other.messages
            && self.bits == other.bits
            && self.active == other.active
            && self.arena_bytes == other.arena_bytes
            && self.rebuilds == other.rebuilds
    }
}

impl Eq for RoundSample {}

/// Spans of one worker (chunk) track.
#[derive(Clone, Debug)]
struct Track {
    name: String,
    spans: Vec<Span>,
}

/// The recording half of the profiling plane: one main track (the
/// driving thread's span stack) plus one flat track per worker chunk,
/// and the round counter series. See the crate docs for the activation
/// and determinism contracts.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    main: Vec<Span>,
    /// Indices into `main` of currently-open spans, innermost last.
    open: Vec<usize>,
    workers: Vec<Track>,
    samples: Vec<RoundSample>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer; ticks are measured from this moment.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            main: Vec::new(),
            open: Vec::new(),
            workers: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// The instant ticks are measured from. `Copy` — the engine hands
    /// copies to worker threads so they can compute tick pairs without
    /// ever touching the tracer.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Microseconds elapsed since the origin.
    pub fn now_us(&self) -> u64 {
        tick_us(self.origin)
    }

    /// Opens a span on the main track.
    pub fn begin(&mut self, label: &'static str) {
        let depth = self.open.len() as u16;
        let start = self.now_us();
        self.open.push(self.main.len());
        self.main.push(Span {
            label,
            depth,
            start_us: start,
            end_us: start,
        });
    }

    /// Closes the innermost open span (no-op with none open).
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.main[i].end_us = self.now_us();
        }
    }

    /// Closes the innermost open span as a parallel phase: records one
    /// worker-track span per `(start, end)` tick pair in `ticks` (chunk
    /// index = position), then emits a synthetic sibling `barrier` span
    /// whose duration is the phase wall time minus the workers' combined
    /// busy window — under the persistent pool this is the epoch-publish
    /// lead plus the done-wait tail (the residual overhead ROADMAP item
    /// (i) attacks), measured in the same units as the old spawn/join
    /// numbers. Called with `ticks` for a single chunk (or none, for a
    /// skipped phase) it still emits the `barrier` span, keeping the
    /// main-track structure invariant across thread counts.
    pub fn end_parallel(&mut self, label: &'static str, ticks: &[(u64, u64)]) {
        let now = self.now_us();
        let Some(i) = self.open.pop() else { return };
        self.main[i].end_us = now;
        let (start, end, depth) = (self.main[i].start_us, now, self.main[i].depth);
        let mut lo = end;
        let mut hi = start;
        for (chunk, &(s, e)) in ticks.iter().enumerate() {
            let (s, e) = (s.clamp(start, end), e.clamp(start, end));
            lo = lo.min(s);
            hi = hi.max(e);
            self.worker_track(chunk).spans.push(Span {
                label,
                depth: 0,
                start_us: s,
                end_us: e.max(s),
            });
        }
        let busy = hi.saturating_sub(lo);
        let overhead = (end - start).saturating_sub(busy);
        self.main.push(Span {
            label: "barrier",
            depth,
            start_us: end - overhead,
            end_us: end,
        });
    }

    /// Appends one round's counter sample.
    pub fn sample(&mut self, s: RoundSample) {
        self.samples.push(s);
    }

    /// Closes every still-open span at the current tick (error/unwind
    /// paths can leave spans open; harvesting calls this first).
    pub fn finish(&mut self) {
        let now = self.now_us();
        while let Some(i) = self.open.pop() {
            self.main[i].end_us = now;
        }
    }

    fn worker_track(&mut self, chunk: usize) -> &mut Track {
        while self.workers.len() <= chunk {
            let name = format!("worker{}", self.workers.len());
            self.workers.push(Track {
                name,
                spans: Vec::new(),
            });
        }
        &mut self.workers[chunk]
    }

    /// Main-track spans in begin order (the deterministic span tree).
    pub fn spans(&self) -> &[Span] {
        &self.main
    }

    /// The round counter series.
    pub fn samples(&self) -> &[RoundSample] {
        &self.samples
    }

    /// The structural fingerprint's raw material: the main track's
    /// `(depth, label)` sequence. Tick values and worker tracks are
    /// excluded — this is what must match bit-for-bit across thread
    /// counts.
    pub fn structure(&self) -> Vec<(u16, &'static str)> {
        self.main.iter().map(|s| (s.depth, s.label)).collect()
    }

    /// FNV-1a hash over [`structure`](Self::structure) and the full
    /// counter series.
    pub fn structure_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for s in &self.main {
            h.write_u64(u64::from(s.depth));
            h.write_bytes(s.label.as_bytes());
        }
        for s in &self.samples {
            for v in [
                u64::from(s.round),
                s.messages,
                s.bits,
                s.active,
                s.arena_bytes,
                s.rebuilds,
            ] {
                h.write_u64(v);
            }
        }
        h.finish()
    }

    /// Rolls the trace up into a [`TraceSummary`].
    pub fn summarize(&self) -> TraceSummary {
        let mut phase_us: Vec<(String, u64)> = Vec::new();
        for s in &self.main {
            match phase_us.iter_mut().find(|(l, _)| l == s.label) {
                Some((_, total)) => *total += s.duration_us(),
                None => phase_us.push((s.label.to_string(), s.duration_us())),
            }
        }
        phase_us.sort_by(|a, b| a.0.cmp(&b.0));
        let barrier_us = phase_us
            .iter()
            .find(|(l, _)| l == "barrier")
            .map_or(0, |&(_, t)| t);
        let busy: Vec<u64> = self
            .workers
            .iter()
            .map(|t| t.spans.iter().map(Span::duration_us).sum())
            .collect();
        let imbalance = match busy.iter().copied().max() {
            Some(max) if !busy.is_empty() => {
                let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
                if mean > 0.0 {
                    max as f64 / mean
                } else {
                    1.0
                }
            }
            _ => 1.0,
        };
        TraceSummary {
            threads: self.workers.len(),
            rounds: self.main.iter().filter(|s| s.label == "round").count() as u64,
            total_us: self.main.iter().map(|s| s.end_us).max().unwrap_or(0),
            phase_us,
            barrier_us,
            imbalance,
            pool_wakeups: self.samples.iter().map(|s| s.pool_wakeups).sum(),
            pool_idle: self.samples.iter().map(|s| s.pool_idle).sum(),
            structure_hash: self.structure_hash(),
            samples: self.samples.clone(),
        }
    }

    /// Renders the whole trace (main track + worker tracks) as Chrome
    /// trace-event JSON — one complete (`"ph": "X"`) event per span,
    /// microsecond timestamps, plus thread-name metadata. Load the
    /// output in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 * (self.main.len() + 2));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut event = |text: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&text);
        };
        let meta = |tid: usize, name: &str| {
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            )
        };
        event(meta(0, "main"), &mut out);
        for (i, t) in self.workers.iter().enumerate() {
            event(meta(i + 1, &t.name), &mut out);
        }
        let complete = |tid: usize, s: &Span| {
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"kw\",\
                 \"ts\":{},\"dur\":{}}}",
                escape(s.label),
                s.start_us,
                s.duration_us()
            )
        };
        for s in &self.main {
            event(complete(0, s), &mut out);
        }
        for (i, t) in self.workers.iter().enumerate() {
            for s in &t.spans {
                event(complete(i + 1, s), &mut out);
            }
        }
        out.push_str("]}");
        out
    }
}

/// The where-does-time-go rollup of one traced run: per-label span
/// totals, fork/join overhead, worker imbalance, the structural
/// fingerprint, and the round counter series. This is what solvers
/// attach to `SolveReport`s and what the run store persists as `trace`
/// lines.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Worker tracks observed (= engine chunks; 1 on the sequential path).
    pub threads: usize,
    /// `round` spans recorded.
    pub rounds: u64,
    /// Last tick of the main track, microseconds from the origin.
    pub total_us: u64,
    /// Total span duration per label, sorted by label.
    pub phase_us: Vec<(String, u64)>,
    /// Total synthetic `barrier` (fork/join overhead) time.
    pub barrier_us: u64,
    /// Max worker busy time over mean worker busy time (1.0 when there
    /// is at most one worker or no recorded work).
    pub imbalance: f64,
    /// Total worker-pool condvar wakeups over the run (sum of the
    /// per-round deltas; 0 on the single-chunk path).
    pub pool_wakeups: u64,
    /// Total pool idle ticks over the run (waits that found no new
    /// epoch), same provenance as `pool_wakeups`.
    pub pool_idle: u64,
    /// FNV-1a fingerprint of the main-track structure + counter series;
    /// bit-identical across thread counts for a deterministic run.
    pub structure_hash: u64,
    /// The per-round counter series.
    pub samples: Vec<RoundSample>,
}

impl TraceSummary {
    /// Total recorded duration of `label` spans (0 when absent).
    pub fn phase_total(&self, label: &str) -> u64 {
        self.phase_us
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |&(_, t)| t)
    }

    /// `label`'s share of the time attributed to the five engine phases
    /// ([`PHASES`]); 0.0 when no phase time was recorded. Shares are
    /// computed against the phase total, not `total_us`, so nesting
    /// containers (`round`, `solve`) don't dilute them.
    pub fn phase_share(&self, label: &str) -> f64 {
        let denom: u64 = PHASES.iter().map(|p| self.phase_total(p)).sum();
        if denom == 0 {
            return 0.0;
        }
        self.phase_total(label) as f64 / denom as f64
    }

    /// The self-profile markdown table: per-label totals and shares of
    /// the engine-phase time, plus the rollup scalars.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| span | total ms | phase share |");
        let _ = writeln!(out, "|------|---------:|------------:|");
        for (label, us) in &self.phase_us {
            let share = if PHASES.contains(&label.as_str()) {
                format!("{:.1}%", 100.0 * self.phase_share(label))
            } else {
                "—".to_string()
            };
            let _ = writeln!(out, "| {label} | {:.3} | {share} |", *us as f64 / 1e3);
        }
        let _ = writeln!(
            out,
            "\nrounds: {} · total: {:.3} ms · workers: {} · imbalance: {:.2} · structure: {:016x}",
            self.rounds,
            self.total_us as f64 / 1e3,
            self.threads,
            self.imbalance,
            self.structure_hash
        );
        let _ = writeln!(
            out,
            "pool: {} wakeups · {} idle ticks",
            self.pool_wakeups, self.pool_idle
        );
        out
    }
}

/// Microseconds elapsed since `origin`. Free function so engine worker
/// threads can tick against a copied origin without any tracer access.
#[inline]
pub fn tick_us(origin: Instant) -> u64 {
    Instant::now().saturating_duration_since(origin).as_micros() as u64
}

thread_local! {
    static ACTIVE: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` into this thread's slot; recording via
/// [`with_active`] hits it until [`take`] removes it. Installing over an
/// existing tracer replaces (and drops) it.
pub fn install(tracer: Tracer) {
    ACTIVE.with(|slot| *slot.borrow_mut() = Some(tracer));
}

/// Removes and returns this thread's tracer, if any.
pub fn take() -> Option<Tracer> {
    ACTIVE.with(|slot| slot.borrow_mut().take())
}

/// Whether a tracer is installed on this thread. This is the *only*
/// cost tracing adds to an untraced run: one thread-local read per
/// engine drive.
pub fn is_active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// Runs `f` against the installed tracer; `None` (and `f` unevaluated)
/// without one. Re-entrant calls from within `f` see no tracer rather
/// than panicking on the `RefCell`.
pub fn with_active<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    ACTIVE.with(|slot| {
        let mut guard = slot.try_borrow_mut().ok()?;
        guard.as_mut().map(f)
    })
}

/// The installed tracer's tick origin, for handing to worker threads.
pub fn origin() -> Option<Instant> {
    with_active(|t| t.origin())
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_round(t: &mut Tracer, round: u32, ticks: &[(u64, u64)]) {
        t.begin("round");
        t.begin("compute");
        t.end_parallel("compute", ticks);
        t.sample(RoundSample {
            round,
            messages: 10,
            bits: 80,
            active: 4,
            arena_bytes: 96,
            rebuilds: 0,
            pool_wakeups: 3,
            pool_idle: 1,
        });
        t.begin("plan");
        t.end();
        t.begin("send");
        t.end_parallel("send", ticks);
        t.begin("deliver");
        t.end_parallel("deliver", ticks);
        t.end();
    }

    #[test]
    fn span_nesting_depths_and_order() {
        let mut t = Tracer::new();
        t.begin("solve");
        record_round(&mut t, 0, &[(0, 0)]);
        t.end();
        let structure = t.structure();
        assert_eq!(
            structure,
            vec![
                (0, "solve"),
                (1, "round"),
                (2, "compute"),
                (2, "barrier"),
                (2, "plan"),
                (2, "send"),
                (2, "barrier"),
                (2, "deliver"),
                (2, "barrier"),
            ]
        );
        assert!(t.open.is_empty());
    }

    #[test]
    fn structure_hash_ignores_ticks_but_not_counters() {
        let build = |messages: u64| {
            let mut t = Tracer::new();
            record_round(&mut t, 0, &[(0, 5), (1, 9)]);
            t.samples[0].messages = messages;
            t
        };
        let a = build(10);
        // Sleep-free tick divergence: the second tracer's ticks differ
        // simply because it was created later.
        let b = build(10);
        assert_eq!(a.structure_hash(), b.structure_hash());
        let c = build(11);
        assert_ne!(a.structure_hash(), c.structure_hash());
    }

    #[test]
    fn pool_counters_are_diagnostics_not_structure() {
        let build = |wakeups: u64| {
            let mut t = Tracer::new();
            record_round(&mut t, 0, &[(0, 5)]);
            t.samples[0].pool_wakeups = wakeups;
            t.samples[0].pool_idle = wakeups / 2;
            t
        };
        let a = build(8);
        let b = build(800);
        // Same round, different pool timing: equal samples, equal hash —
        // the thread-invariance contract ignores pool diagnostics...
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.structure_hash(), b.structure_hash());
        // ...but the summary still surfaces their totals.
        assert_eq!(a.summarize().pool_wakeups, 8);
        assert_eq!(a.summarize().pool_idle, 4);
        assert!(a.summarize().to_markdown().contains("pool: 8 wakeups"));
    }

    #[test]
    fn end_parallel_attributes_overhead_to_barrier() {
        let mut t = Tracer::new();
        t.begin("compute");
        // Pretend the phase ran [start, now]; the worker ticks cover a
        // sub-window, so the barrier span gets the rest. Tick values far
        // in the future are clamped into the phase interval.
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end_parallel("compute", &[(0, u64::MAX)]);
        let summary = t.summarize();
        assert_eq!(summary.threads, 1);
        assert_eq!(summary.phase_total("barrier"), summary.barrier_us);
        let compute = summary.phase_total("compute");
        assert!(compute >= 2_000, "slept 2ms inside the span, got {compute}");
    }

    #[test]
    fn summary_rollup_and_shares() {
        let mut t = Tracer::new();
        record_round(&mut t, 0, &[(0, 1)]);
        record_round(&mut t, 1, &[(0, 1)]);
        let s = t.summarize();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.samples.len(), 2);
        let share_sum: f64 = PHASES.iter().map(|p| s.phase_share(p)).sum();
        assert!(
            share_sum == 0.0 || (share_sum - 1.0).abs() < 1e-9,
            "phase shares must partition the phase time, got {share_sum}"
        );
        assert!(s.imbalance >= 1.0);
        let md = s.to_markdown();
        assert!(md.contains("| span | total ms | phase share |"));
        assert!(md.contains("rounds: 2"));
    }

    #[test]
    fn finish_closes_unwound_spans() {
        let mut t = Tracer::new();
        t.begin("solve");
        t.begin("round");
        t.finish();
        assert!(t.open.is_empty());
        assert!(t.spans().iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn chrome_json_is_wellformed_and_complete() {
        let mut t = Tracer::new();
        t.begin("solve");
        record_round(&mut t, 0, &[(0, 2), (2, 4)]);
        t.end();
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Metadata rows for main + both worker tracks, then one X event
        // per recorded span (main + 2 tracks × 3 chunk spans).
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            t.spans().len() + t.workers.iter().map(|w| w.spans.len()).sum::<usize>()
        );
        assert!(json.contains("\"name\":\"worker1\""));
        // Balanced braces is a cheap well-formedness proxy; kw-bench's
        // trace_determinism test parses real engine exports with
        // kw_results' JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn thread_local_install_take_roundtrip() {
        assert!(!is_active());
        assert!(with_active(|_| ()).is_none());
        assert!(origin().is_none());
        install(Tracer::new());
        assert!(is_active());
        assert!(origin().is_some());
        with_active(|t| t.begin("solve"));
        with_active(|t| t.end());
        let t = take().expect("installed above");
        assert_eq!(t.spans().len(), 1);
        assert!(!is_active());
        assert!(take().is_none());
    }

    #[test]
    fn thread_local_is_per_thread() {
        install(Tracer::new());
        std::thread::spawn(|| {
            assert!(!is_active(), "tracer slots are thread-local");
        })
        .join()
        .unwrap();
        assert!(take().is_some());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
