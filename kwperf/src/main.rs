//! `kwperf` — the repository's benchmark.
//!
//! ```text
//! kwperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! kwperf --quick        # every workload and pass briefly, metric-shape asserts
//! kwperf --pin          # print pins.txt: |DS| and messages of every pinned cell
//! ```
//!
//! Run it from the repository root (the bundled DIMACS instances resolve
//! against the working directory). `--trace 0` runs a workload untraced and
//! prints the end-to-end metrics; `--trace 1` is the separate traced pass
//! that prints the per-layer metrics. Every answer is checked (see
//! `check.rs`); the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when any check failed. `METRICS.md` maps each metric to its
//! layer, the end-to-end metric it should move, and the workload it is
//! read on.

mod check;
mod layers;
mod serve;
mod solve;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kw_domset::results::json::Json;
use kw_domset::results::Percentiles;

use crate::check::Checks;

/// The workloads, in the order `--quick` and `--pin` run them.
pub const WORKLOADS: [&str; 2] = ["solve-gnp100k", "serve-mixed"];

/// End-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("sim_msgs_per_s", "msg/s"),
    ("req_ms", "ms"),
    ("req_ms_tail", "ms"),
    ("req_per_s", "1/s"),
    ("ratio_vs_lemma1_mean", "ratio"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.build_ms", "ms"),
    ("graph.csr_bytes_per_node", "B/node"),
    ("core.fractional_ms", "ms"),
    ("core.rounding_ms", "ms"),
    ("core.composite_ms", "ms"),
    ("core.rounds", "count"),
    ("core.msgs_per_node", "msg/node"),
    ("core.bits_per_node", "bit/node"),
    ("sim.ms_per_round", "ms"),
    ("sim.deliver_share", "fraction"),
    ("sim.compute_share", "fraction"),
    ("sim.plan_share", "fraction"),
    ("sim.send_share", "fraction"),
    ("sim.barrier_share", "fraction"),
    ("sim.imbalance", "ratio"),
    ("sim.pool_idle", "count/round"),
    ("sim.arena_bytes_per_node", "B/node"),
    ("sim.outside_rounds_ms", "ms"),
    ("cert.ms", "ms"),
    ("cert.share_of_solve", "fraction"),
    ("cell_ms.greedy", "ms"),
    ("cell_ms.jrs", "ms"),
    ("cell_ms.luby-mis", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.hit_share", "fraction"),
    ("store.append_us", "us"),
    ("store.replay_us_per_record", "us"),
    ("store.bytes_per_record", "B"),
    ("http.parse_us", "us"),
    ("http.render_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_ms", "ms"),
    ("server.loopback_overhead_us", "us"),
    ("server.shed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// How one workload run is configured.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// How long the timed loop runs.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) pass.
    pub trace: bool,
}

/// Metrics and provenance of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, usize)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Records a metric measured over `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    /// Records one provenance field (a JSON value, already rendered).
    pub fn note(&mut self, key: &str, json_value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), json_value.to_string()));
    }

    /// Records the median of the set-up repetitions as `setup_s`.
    pub fn setup(&mut self, seconds: &[f64]) {
        self.put("setup_s", median(seconds), seconds.len());
    }

    /// Checks that the metrics are exactly `table`, each once and finite.
    fn validate(&self, table: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in table {
            let found: Vec<_> = self.metrics.iter().filter(|m| m.0 == *name).collect();
            match found.as_slice() {
                [(_, v, _)] if v.is_finite() => {}
                [(_, v, _)] => return Err(format!("metric {name} is not finite: {v}")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was measured {} times", found.len())),
            }
        }
        if let Some((name, ..)) = self
            .metrics
            .iter()
            .find(|(name, ..)| !table.iter().any(|(t, _)| t == name))
        {
            return Err(format!("metric {name} is not in this pass's table"));
        }
        Ok(())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn result_json(&self, table: &[(&str, &str)], checks: &Checks) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.value(name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The provenance line: notes plus the sample count of every metric.
    fn provenance_json(&self) -> String {
        let mut out = String::from("{\"provenance\": {");
        for (key, value) in &self.notes {
            let _ = write!(out, "\"{key}\": {value}, ");
        }
        out.push_str("\"samples\": {");
        for (i, (name, _, samples)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {samples}");
        }
        out.push_str("}}}");
        out
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// A scratch directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

/// Parent of every [`TempDir`]; removed too once empty.
const TEMP_ROOT: &str = ".kwperf_tmp";

impl TempDir {
    fn new(tag: &str) -> Result<Self, String> {
        let path = Path::new(TEMP_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TEMP_ROOT);
    }
}

/// Median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Percentiles::from_samples(samples).p50
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPS`] times, dropping the previous product before
/// timing the next, and returns the last product with every duration in
/// seconds.
pub fn timed_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(rep)?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), seconds))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `nproc` and the CPU model, for provenance.
fn host_fingerprint() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}

/// Any error as the `String` every workload function returns.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Client timeout of every request the benchmark sends (a fresh solve of
/// the largest graph takes about a second).
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

/// Runs one workload pass, returning its report.
fn run_workload(workload: &str, cfg: RunCfg, checks: &mut Checks) -> Result<Report, String> {
    let tmp = TempDir::new(workload)?;
    let mut report = Report::default();
    let (nproc, cpu) = host_fingerprint();
    report.note("workload", json_str(workload));
    report.note("seed", cfg.seed);
    report.note("seconds", cfg.budget.as_secs_f64());
    report.note("trace", cfg.trace);
    report.note("nproc", nproc);
    report.note("cpu_model", json_str(&cpu));
    match workload {
        "solve-gnp100k" => solve::gnp(cfg, checks, &mut report, &tmp)?,
        "serve-mixed" => serve::serve(cfg, checks, &mut report, &tmp)?,
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    }
    if !cfg.trace {
        let attempted = checks.attempted.max(1) as f64;
        report.put(
            "ok_share",
            1.0 - checks.failed as f64 / attempted,
            checks.attempted as usize,
        );
        report.put("peak_rss_mb", peak_rss_mb(), 1);
    }
    Ok(report)
}

fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One workload pass as the command line asks for it.
fn run_one(workload: &str, cfg: RunCfg) -> Result<bool, String> {
    let mut checks = Checks::new()?;
    let report = run_workload(workload, cfg, &mut checks)?;
    report.validate(table(cfg.trace))?;
    for e in &checks.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.provenance_json());
    println!("{}", report.result_json(table(cfg.trace), &checks));
    Ok(checks.failed == 0)
}

/// Every workload, both passes, briefly: the benchmark's own smoke test.
fn quick() -> Result<bool, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 1,
                budget: Duration::from_millis(500),
                trace,
            };
            let mut checks = Checks::new()?;
            let report = run_workload(workload, cfg, &mut checks)?;
            let shape = report.validate(table(trace));
            println!(
                "quick {workload} trace={} {}",
                u8::from(trace),
                report.result_json(table(trace), &checks)
            );
            for e in checks.errors.iter().chain(shape.as_ref().err()) {
                eprintln!("quick {workload} trace={}: {e}", u8::from(trace));
            }
            ok &= shape.is_ok() && checks.failed == 0;
        }
    }
    Ok(ok)
}

/// Solves every pinned cell of every workload's input pool and prints
/// the `pins.txt` lines.
fn pin() -> Result<bool, String> {
    let mut checks = Checks::recording();
    solve::pin_gnp(&mut checks)?;
    serve::pin_warm(&mut checks, &TempDir::new("pin-serve")?)?;
    for e in &checks.errors {
        eprintln!("pin: {e}");
    }
    for line in checks.pin_lines() {
        println!("{line}");
    }
    Ok(checks.failed == 0)
}

const USAGE: &str =
    "usage: kwperf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     kwperf --quick | --pin";

/// What the command line asks for.
enum Mode {
    Run(String, RunCfg),
    Quick,
    Pin,
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => return Ok(Mode::Quick),
            "--pin" => return Ok(Mode::Pin),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| USAGE.to_string())?;
    let cfg = RunCfg {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
    };
    Ok(Mode::Run(workload, cfg))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|mode| match mode {
        Mode::Run(workload, cfg) => run_one(&workload, cfg),
        Mode::Quick => quick(),
        Mode::Pin => pin(),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kwperf: {e}");
            ExitCode::from(2)
        }
    }
}
