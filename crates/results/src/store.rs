//! The persistent, append-only JSONL run store.
//!
//! A store file holds one JSON object per line, each stamped with the
//! schema version (`"v"`) and a line kind:
//!
//! * `manifest` — one per sweep launch: git describe, solver specs,
//!   workload labels, seeds, and the chaos plan (canonical spec);
//! * `record` — one per solved `(solver, workload, seed)` cell (a
//!   serialized [`RunRecord`]);
//! * `trace` — one profiled solve's where-does-time-go rollup (a
//!   [`kw_trace::TraceSummary`]: per-phase totals, fork/join barrier
//!   time, worker imbalance, the structure fingerprint, and the full
//!   per-round counter series), keyed like a record by
//!   `(solver, workload, seed, chaos)` plus the thread count.
//!
//! # Crash safety and resume
//!
//! Appends are single `write` calls of one full line each, flushed
//! immediately, so a crash can tear at most the final line. Two layers
//! tolerate that tear: [`RunStore::open`] *repairs* the file by
//! truncating any trailing bytes after the last newline, and
//! [`RunStore::load`] (for read-only consumers) skips an unparseable
//! final line, reporting it via [`StoreContents::truncated_tail`].
//! Everything before the tail must parse — mid-file corruption is an
//! error, never silently skipped.
//!
//! Replaying a store's records into an [`ExperimentCache`] via
//! [`RunStore::replay_into`] is what makes sweeps resumable: a
//! re-launched sweep looks every cell up in the cache and only solves
//! the ones the store never recorded.
//!
//! # Schema versioning
//!
//! [`SCHEMA_VERSION`] is bumped whenever a line's meaning or required
//! fields change; readers reject lines with a *newer* version (old code
//! must not misread new stores) and accept unknown line kinds of the
//! current version (new code may add kinds old readers can skip).
//!
//! v1 → v2: manifests and records replaced the `fault_drop`/`fault_seed`
//! pair with a single `chaos` string — the canonical [`ChaosPlan`] spec
//! (`""` = reliable), which also covers bursts, crashes, byzantine
//! senders, and churn. v1 lines are still read: their legacy pair is
//! synthesized into the equivalent canonical iid-only spec, so old
//! stores replay into today's caches and key the same cells.
//!
//! v2 → v3: added the `trace` line kind. No existing kind changed
//! shape, so v1/v2 lines read exactly as before under a v3 reader; a v2
//! reader rejects v3 lines per the newer-version rule above.
//!
//! v3 → v4: record lines gained a `threads` field (absent in older
//! lines, read as `1` — every pre-v4 sweep ran its cells at the default
//! single-thread context), trace sample rows grew from six to eight
//! columns (worker-pool wakeup/idle deltas; six-column rows read as
//! zero-pool), and trace lines gained `pool_wakeups`/`pool_idle` totals
//! (absent reads as `0`).
//!
//! Stores up to v4 may also hold `bench` lines (load-test latency
//! percentiles). Nothing writes or reads them any more: they take the
//! unknown-kind path, skipped and counted in
//! [`StoreContents::unknown_kinds`].
//!
//! [`ChaosPlan`]: kw_sim::ChaosPlan
//!
//! # Single writer
//!
//! Append crash-safety assumes exactly one writer per file: two
//! processes appending concurrently (say, a `kw-serve` daemon and a
//! sweep pointed at the same path) could interleave partial `write`
//! calls into torn mid-file lines that no repair pass may touch. So
//! [`RunStore::open`] takes an exclusive advisory lock — a `<path>.lock`
//! sibling file holding the owner's pid, created atomically — and fails
//! fast with [`StoreError::Locked`] while another live process holds it.
//! A lock whose owner pid is no longer alive (crashed writer) is stolen;
//! dropping the store releases the lock. Read-only consumers (`regress`,
//! summaries of foreign stores) use [`load_path`], which neither locks
//! nor repairs.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use kw_core::solver::{ExperimentCache, RunOutcome, RunRecord};
use kw_sim::ChaosPlan;

use crate::json::Json;

/// Version stamped on every line this crate writes.
pub const SCHEMA_VERSION: u64 = 4;

/// One sweep launch's provenance: everything needed to re-run it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// `git describe --always --dirty` at launch (or `"unknown"`).
    pub git: String,
    /// Canonical solver specs of the sweep, in matrix order.
    pub solvers: Vec<String>,
    /// Workload labels of the sweep, in matrix order.
    pub workloads: Vec<String>,
    /// Seeds of the sweep, in run order.
    pub seeds: Vec<u64>,
    /// Canonical chaos spec of the sweep's context (`""` = reliable).
    pub chaos: String,
}

/// One profiled solve's trace rollup in store form.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Canonical solver spec.
    pub solver: String,
    /// Workload label.
    pub workload: String,
    /// Seed of the profiled run.
    pub seed: u64,
    /// Canonical chaos spec (`""` = reliable).
    pub chaos: String,
    /// The trace rollup, including the full per-round counter series.
    pub summary: kw_trace::TraceSummary,
}

/// Everything a [`RunStore::load`] call found.
#[derive(Clone, Debug, Default)]
pub struct StoreContents {
    /// Sweep manifests, in append order.
    pub manifests: Vec<RunManifest>,
    /// Run records, in append order.
    pub records: Vec<RunRecord>,
    /// Trace records, in append order.
    pub traces: Vec<TraceRecord>,
    /// Lines of the current schema version whose kind this reader does
    /// not know (skipped, counted for diagnostics).
    pub unknown_kinds: usize,
    /// Whether the final line was torn (crash mid-append) and skipped.
    pub truncated_tail: bool,
}

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A non-final line failed to parse or lacked required fields.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A line carries a schema version newer than this reader.
    UnsupportedSchema {
        /// 1-based line number.
        line: usize,
        /// The line's version.
        version: u64,
    },
    /// Another live process holds the store's writer lock.
    Locked {
        /// The store path that was contended.
        path: PathBuf,
        /// Contents of the lock file (the holder's pid, normally).
        holder: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "run store I/O failed: {e}"),
            StoreError::Corrupt { line, reason } => {
                write!(f, "run store corrupt at line {line}: {reason}")
            }
            StoreError::UnsupportedSchema { line, version } => write!(
                f,
                "run store line {line} has schema v{version}, newer than supported v{SCHEMA_VERSION}"
            ),
            StoreError::Locked { path, holder } => write!(
                f,
                "run store {} is already open for writing by process {holder}; \
                 two writers (e.g. a kw-serve daemon and a sweep) must not share \
                 one store — stop the other writer or point this one at a \
                 different path",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// An append-only JSONL run store at a fixed path.
///
/// # Example
///
/// ```no_run
/// use kw_results::store::{RunManifest, RunStore};
///
/// let store = RunStore::open("target/runs.jsonl")?;
/// store.append_manifest(&RunManifest {
///     git: "unknown".into(),
///     solvers: vec!["kw:k=2".into()],
///     workloads: vec!["grid4".into()],
///     seeds: vec![0, 1],
///     chaos: String::new(),
/// })?;
/// let contents = store.load()?;
/// assert_eq!(contents.manifests.len(), 1);
/// # Ok::<(), kw_results::store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct RunStore {
    path: PathBuf,
    file: File,
    // Held (and its file removed) for exactly the store's lifetime.
    _lock: WriterLock,
}

/// Exclusive advisory writer lock: a `<store>.lock` sibling file created
/// atomically and holding the owner's pid. Removed on drop.
#[derive(Debug)]
struct WriterLock {
    path: PathBuf,
}

impl WriterLock {
    fn acquire(store_path: &Path) -> Result<Self, StoreError> {
        let lock_path = lock_path_for(store_path);
        // Serialize same-process acquisition: threads of one process all
        // stamp the same pid, so the file protocol alone cannot tell them
        // apart. The registry mutex is held across the file operations,
        // making in-process contention (daemon + sweep in one binary)
        // fully race-free.
        let mut held = held_lock_paths().lock().expect("lock registry poisoned");
        if held.contains(&lock_path) {
            return Err(StoreError::Locked {
                path: store_path.to_path_buf(),
                holder: format!("{} (this process)", std::process::id()),
            });
        }
        // Two attempts: the second only after claiming a stale lock.
        for stole in [false, true] {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut f) => {
                    // Best-effort pid stamp; an empty lock file still
                    // locks (it reads as a non-numeric "pid" below, which
                    // is treated as a live holder).
                    let _ = write!(f, "{}", std::process::id());
                    held.insert(lock_path.clone());
                    return Ok(WriterLock { path: lock_path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&lock_path)
                        .unwrap_or_default()
                        .trim()
                        .to_string();
                    let stale = matches!(holder.parse::<u32>(), Ok(pid) if !pid_alive(pid));
                    if stale && !stole {
                        // The owner died without cleanup (kill -9, OOM).
                        // Claim the corpse by *renaming* it — rename is
                        // atomic, so of several racing stealers exactly
                        // one wins; the losers fall through to
                        // `create_new` against the winner's fresh lock.
                        // (Deleting instead would open a window where a
                        // loser removes the winner's live lock.)
                        let claim =
                            lock_path.with_extension(format!("steal.{}", std::process::id()));
                        if std::fs::rename(&lock_path, &claim).is_ok() {
                            let _ = std::fs::remove_file(&claim);
                        }
                        continue;
                    }
                    return Err(StoreError::Locked {
                        path: store_path.to_path_buf(),
                        holder: if holder.is_empty() {
                            "<unknown>".to_string()
                        } else {
                            holder
                        },
                    });
                }
                Err(e) => return Err(e.into()),
            }
        }
        unreachable!("second acquire attempt either succeeds or errors")
    }
}

impl Drop for WriterLock {
    fn drop(&mut self) {
        // Registry mutex spans both steps so no thread can acquire
        // between the file vanishing and the registry forgetting it.
        let mut held = held_lock_paths().lock().expect("lock registry poisoned");
        let _ = std::fs::remove_file(&self.path);
        held.remove(&self.path);
    }
}

/// Lock paths held by this process (see [`WriterLock::acquire`]).
fn held_lock_paths() -> &'static std::sync::Mutex<std::collections::HashSet<PathBuf>> {
    static HELD: std::sync::OnceLock<std::sync::Mutex<std::collections::HashSet<PathBuf>>> =
        std::sync::OnceLock::new();
    HELD.get_or_init(Default::default)
}

/// The lock file guarding `path`: a `.lock`-suffixed sibling.
fn lock_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

/// Whether `pid` names a live process. Only Linux has a cheap portable
/// answer (`/proc`); elsewhere assume alive — never steal a lock that
/// might be held.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

impl RunStore {
    /// Opens (creating if missing) the store at `path`, repairing a torn
    /// final line left by a crash: any bytes after the last newline are
    /// truncated away, so the next append starts on a clean line.
    ///
    /// Takes the exclusive writer lock (see the module docs): while
    /// another live process has the same path open, this fails fast with
    /// [`StoreError::Locked`] rather than risking interleaved appends.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock = WriterLock::acquire(&path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        // Tail repair: drop a torn final line (no trailing newline),
        // scanning backwards from the end so opening a long-lived store
        // never reads the whole file.
        let len = file.seek(SeekFrom::End(0))?;
        if len > 0 {
            let mut pos = len;
            let mut keep = 0u64;
            let mut buf = [0u8; 8192];
            'scan: while pos > 0 {
                let chunk = buf.len().min(pos as usize);
                pos -= chunk as u64;
                file.seek(SeekFrom::Start(pos))?;
                file.read_exact(&mut buf[..chunk])?;
                for i in (0..chunk).rev() {
                    if buf[i] == b'\n' {
                        keep = pos + i as u64 + 1;
                        break 'scan;
                    }
                }
            }
            if keep < len {
                file.set_len(keep)?;
            }
        }
        file.seek(SeekFrom::End(0))?;
        Ok(RunStore {
            path,
            file,
            _lock: lock,
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a sweep manifest line.
    pub fn append_manifest(&self, m: &RunManifest) -> Result<(), StoreError> {
        self.append_line(&Json::obj([
            ("v", Json::UInt(SCHEMA_VERSION)),
            ("kind", Json::Str("manifest".into())),
            ("git", Json::Str(m.git.clone())),
            (
                "solvers",
                Json::Arr(m.solvers.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "workloads",
                Json::Arr(m.workloads.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "seeds",
                Json::Arr(m.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            ("chaos", Json::Str(m.chaos.clone())),
        ]))
    }

    /// Appends one run record line.
    pub fn append_record(&self, r: &RunRecord) -> Result<(), StoreError> {
        self.append_line(&Json::obj([
            ("v", Json::UInt(SCHEMA_VERSION)),
            ("kind", Json::Str("record".into())),
            ("solver", Json::Str(r.solver.clone())),
            ("workload", Json::Str(r.workload.clone())),
            ("n", Json::UInt(r.n as u64)),
            ("max_degree", Json::UInt(r.max_degree as u64)),
            ("seed", Json::UInt(r.seed)),
            ("chaos", Json::Str(r.chaos.clone())),
            ("threads", Json::UInt(r.threads as u64)),
            ("dominates", Json::Bool(r.outcome.dominates)),
            ("size", Json::num(r.outcome.size)),
            ("rounds", Json::num(r.outcome.rounds)),
            ("messages", Json::num(r.outcome.messages)),
            ("bits", Json::num(r.outcome.bits)),
            ("ratio_vs_lemma1", Json::num(r.outcome.ratio_vs_lemma1)),
            ("wall_ms", Json::num(r.outcome.wall_ms)),
        ]))
    }

    /// Appends one trace rollup line. Phase totals serialize as a
    /// label→µs object and the per-round counter series as fixed-shape
    /// eight-field rows (six structural counters plus the two pool
    /// deltas), so trace lines stay one line even for thousand-round
    /// solves.
    pub fn append_trace(&self, t: &TraceRecord) -> Result<(), StoreError> {
        let s = &t.summary;
        let phase_us = Json::Obj(
            s.phase_us
                .iter()
                .map(|(label, us)| (label.clone(), Json::UInt(*us)))
                .collect(),
        );
        let samples = Json::Arr(
            s.samples
                .iter()
                .map(|r| {
                    Json::Arr(vec![
                        Json::UInt(u64::from(r.round)),
                        Json::UInt(r.messages),
                        Json::UInt(r.bits),
                        Json::UInt(r.active),
                        Json::UInt(r.arena_bytes),
                        Json::UInt(r.rebuilds),
                        Json::UInt(r.pool_wakeups),
                        Json::UInt(r.pool_idle),
                    ])
                })
                .collect(),
        );
        self.append_line(&Json::obj([
            ("v", Json::UInt(SCHEMA_VERSION)),
            ("kind", Json::Str("trace".into())),
            ("solver", Json::Str(t.solver.clone())),
            ("workload", Json::Str(t.workload.clone())),
            ("seed", Json::UInt(t.seed)),
            ("chaos", Json::Str(t.chaos.clone())),
            ("threads", Json::UInt(s.threads as u64)),
            ("rounds", Json::UInt(s.rounds)),
            ("total_us", Json::UInt(s.total_us)),
            ("barrier_us", Json::UInt(s.barrier_us)),
            ("imbalance", Json::num(s.imbalance)),
            ("pool_wakeups", Json::UInt(s.pool_wakeups)),
            ("pool_idle", Json::UInt(s.pool_idle)),
            ("structure_hash", Json::UInt(s.structure_hash)),
            ("phase_us", phase_us),
            ("samples", samples),
        ]))
    }

    fn append_line(&self, value: &Json) -> Result<(), StoreError> {
        let mut line = value.render();
        line.push('\n');
        // One write call per line keeps torn lines possible only at a
        // crash boundary; `&File` is `Write`, so appends need no `&mut`.
        let mut f = &self.file;
        f.write_all(line.as_bytes())?;
        f.flush()?;
        Ok(())
    }

    /// Parses the whole store.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for an unreadable non-final line,
    /// [`StoreError::UnsupportedSchema`] for lines written by a newer
    /// schema. A torn *final* line is tolerated (see the module docs).
    pub fn load(&self) -> Result<StoreContents, StoreError> {
        let text = std::fs::read_to_string(&self.path)?;
        parse_store(&text)
    }

    /// Replays every stored record into `cache` through the runner's
    /// resume hook. Returns the number of records replayed.
    pub fn replay_into(&self, cache: &ExperimentCache) -> Result<usize, StoreError> {
        let contents = self.load()?;
        for r in &contents.records {
            cache.insert_record(r);
        }
        Ok(contents.records.len())
    }
}

/// Loads the store at `path` read-only: no writer lock, no tail repair,
/// no mutation of any kind. The path for validators and summarizers
/// (`regress`, dashboards) that must be able to read a store *while* a
/// daemon or sweep holds its writer lock. A torn final line is tolerated
/// exactly as in [`RunStore::load`].
pub fn load_path(path: impl AsRef<Path>) -> Result<StoreContents, StoreError> {
    let text = std::fs::read_to_string(path)?;
    parse_store(&text)
}

/// Parses store text (exposed for validators that read foreign files).
pub fn parse_store(text: &str) -> Result<StoreContents, StoreError> {
    let mut contents = StoreContents::default();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    for (idx, &(line_no, line)) in lines.iter().enumerate() {
        let is_last = idx + 1 == lines.len();
        match parse_line(line_no, line) {
            Ok(Line::Manifest(m)) => contents.manifests.push(m),
            Ok(Line::Record(r)) => contents.records.push(r),
            Ok(Line::Trace(t)) => contents.traces.push(*t),
            Ok(Line::Unknown) => contents.unknown_kinds += 1,
            Err(e @ StoreError::UnsupportedSchema { .. }) => return Err(e),
            Err(e) => {
                if is_last {
                    // Torn tail from a crash mid-append: tolerated.
                    contents.truncated_tail = true;
                } else {
                    return Err(e);
                }
            }
        }
    }
    Ok(contents)
}

enum Line {
    Manifest(RunManifest),
    Record(RunRecord),
    // Boxed: a trace line carries a full counter series and would
    // otherwise dominate the enum's size.
    Trace(Box<TraceRecord>),
    Unknown,
}

fn parse_line(line_no: usize, line: &str) -> Result<Line, StoreError> {
    let corrupt = |reason: String| StoreError::Corrupt {
        line: line_no,
        reason,
    };
    let v = Json::parse(line).map_err(|e| corrupt(e.to_string()))?;
    let version = v
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("missing schema version \"v\"".into()))?;
    if version > SCHEMA_VERSION {
        return Err(StoreError::UnsupportedSchema {
            line: line_no,
            version,
        });
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("missing line \"kind\"".into()))?;
    let str_field = |key: &str| -> Result<String, StoreError> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| corrupt(format!("missing string field {key:?}")))
    };
    let f64_field = |key: &str| -> Result<f64, StoreError> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| corrupt(format!("missing number field {key:?}")))
    };
    let u64_field = |key: &str| -> Result<u64, StoreError> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt(format!("missing integer field {key:?}")))
    };
    // v2 lines carry the canonical chaos spec directly; v1 lines carried
    // an iid-only `fault_drop`/`fault_seed` pair, synthesized here into
    // the equivalent canonical spec so old stores key today's caches.
    let chaos_field = || -> Result<String, StoreError> {
        if let Some(spec) = v.get("chaos").and_then(Json::as_str) {
            return Ok(spec.to_string());
        }
        let drop = f64_field("fault_drop")?;
        let seed = u64_field("fault_seed")?;
        if !(0.0..=1.0).contains(&drop) {
            return Err(corrupt(format!("fault_drop {drop} outside [0, 1]")));
        }
        Ok(ChaosPlan::reliable()
            .with_drop(drop)
            .with_fault_seed(seed)
            .spec())
    };
    match kind {
        "manifest" => {
            let str_arr = |key: &str| -> Result<Vec<String>, StoreError> {
                v.get(key)
                    .and_then(Json::as_arr)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .ok_or_else(|| corrupt(format!("missing array field {key:?}")))
            };
            Ok(Line::Manifest(RunManifest {
                git: str_field("git")?,
                solvers: str_arr("solvers")?,
                workloads: str_arr("workloads")?,
                seeds: v
                    .get("seeds")
                    .and_then(Json::as_arr)
                    .map(|items| items.iter().filter_map(Json::as_u64).collect())
                    .ok_or_else(|| corrupt("missing array field \"seeds\"".into()))?,
                chaos: chaos_field()?,
            }))
        }
        "record" => Ok(Line::Record(RunRecord {
            solver: str_field("solver")?,
            workload: str_field("workload")?,
            n: u64_field("n")? as usize,
            max_degree: u64_field("max_degree")? as usize,
            seed: u64_field("seed")?,
            chaos: chaos_field()?,
            // Pre-v4 records carried no thread count; every pre-v4 sweep
            // ran its cells at the default single-thread context.
            threads: v.get("threads").and_then(Json::as_u64).unwrap_or(1) as usize,
            outcome: RunOutcome {
                dominates: v
                    .get("dominates")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| corrupt("missing bool field \"dominates\"".into()))?,
                size: f64_field("size")?,
                rounds: f64_field("rounds")?,
                messages: f64_field("messages")?,
                bits: f64_field("bits")?,
                ratio_vs_lemma1: f64_field("ratio_vs_lemma1")?,
                wall_ms: f64_field("wall_ms")?,
            },
        })),
        "trace" => {
            let phase_us = match v.get("phase_us") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(label, us)| us.as_u64().map(|us| (label.clone(), us)))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| corrupt("non-integer value in \"phase_us\"".into()))?,
                _ => return Err(corrupt("missing object field \"phase_us\"".into())),
            };
            let samples = v
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or_else(|| corrupt("missing array field \"samples\"".into()))?
                .iter()
                .map(|row| {
                    let cols: Vec<u64> = row
                        .as_arr()
                        .map(|cells| cells.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default();
                    // v3 rows carried the six structural counters; v4
                    // appended the two pool deltas (absent reads as 0).
                    match cols[..] {
                        [round, messages, bits, active, arena_bytes, rebuilds] => {
                            Ok(kw_trace::RoundSample {
                                round: round as u32,
                                messages,
                                bits,
                                active,
                                arena_bytes,
                                rebuilds,
                                pool_wakeups: 0,
                                pool_idle: 0,
                            })
                        }
                        [round, messages, bits, active, arena_bytes, rebuilds, pool_wakeups, pool_idle] => {
                            Ok(kw_trace::RoundSample {
                                round: round as u32,
                                messages,
                                bits,
                                active,
                                arena_bytes,
                                rebuilds,
                                pool_wakeups,
                                pool_idle,
                            })
                        }
                        _ => Err(corrupt("malformed \"samples\" row".into())),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Line::Trace(Box::new(TraceRecord {
                solver: str_field("solver")?,
                workload: str_field("workload")?,
                seed: u64_field("seed")?,
                chaos: chaos_field()?,
                summary: kw_trace::TraceSummary {
                    threads: u64_field("threads")? as usize,
                    rounds: u64_field("rounds")?,
                    total_us: u64_field("total_us")?,
                    phase_us,
                    barrier_us: u64_field("barrier_us")?,
                    imbalance: f64_field("imbalance")?,
                    // v4 additions; a v3 trace simply had no pool.
                    pool_wakeups: v.get("pool_wakeups").and_then(Json::as_u64).unwrap_or(0),
                    pool_idle: v.get("pool_idle").and_then(Json::as_u64).unwrap_or(0),
                    structure_hash: u64_field("structure_hash")?,
                    samples,
                },
            })))
        }
        _ => Ok(Line::Unknown),
    }
}

/// `git describe --always --dirty` of the current directory, or
/// `"unknown"` when git is unavailable (manifests must never fail a
/// sweep).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kw_store_test_{}_{tag}.jsonl", std::process::id()))
    }

    fn sample_record(seed: u64) -> RunRecord {
        RunRecord {
            solver: "kw:k=2".into(),
            workload: "grid4".into(),
            n: 16,
            max_degree: 4,
            seed,
            chaos: format!("drop=0.25,seed={}", seed ^ 0xfa),
            threads: 1 + (seed as usize % 4),
            outcome: RunOutcome {
                dominates: seed.is_multiple_of(2),
                size: 4.0 + seed as f64,
                rounds: 18.0,
                messages: 1234.5,
                bits: 9876.0,
                ratio_vs_lemma1: 1.25,
                wall_ms: 0.75,
            },
        }
    }

    #[test]
    fn roundtrips_all_line_kinds() {
        let path = temp_store("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = RunStore::open(&path).unwrap();
        let manifest = RunManifest {
            git: "abc1234-dirty".into(),
            solvers: vec!["kw:k=2".into(), "greedy".into()],
            workloads: vec!["grid4".into()],
            seeds: vec![0, 1, u64::MAX],
            chaos: "drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3".into(),
        };
        store.append_manifest(&manifest).unwrap();
        let records: Vec<RunRecord> = (0..3).map(sample_record).collect();
        for r in &records {
            store.append_record(r).unwrap();
        }
        let contents = store.load().unwrap();
        assert_eq!(contents.manifests, vec![manifest]);
        assert_eq!(contents.records, records);
        assert!(!contents.truncated_tail);
        assert_eq!(contents.unknown_kinds, 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn sample_trace(seed: u64) -> TraceRecord {
        TraceRecord {
            solver: "kw:k=2".into(),
            workload: "flood10k".into(),
            seed,
            chaos: String::new(),
            summary: kw_trace::TraceSummary {
                threads: 4,
                rounds: 2,
                total_us: 1_234,
                phase_us: vec![
                    ("barrier".into(), 40),
                    ("compute".into(), 700),
                    ("deliver".into(), 120),
                    ("plan".into(), 30),
                    ("send".into(), 200),
                ],
                barrier_us: 40,
                imbalance: 1.25,
                pool_wakeups: 24,
                pool_idle: 3,
                structure_hash: 0xdead_beef_cafe_f00d,
                samples: (0..2)
                    .map(|r| kw_trace::RoundSample {
                        round: r,
                        messages: 100 + u64::from(r),
                        bits: 800,
                        active: 1_000,
                        arena_bytes: 4_096,
                        rebuilds: 0,
                        pool_wakeups: 12,
                        pool_idle: 1 + u64::from(r),
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn trace_lines_roundtrip_exactly() {
        let path = temp_store("trace_roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = RunStore::open(&path).unwrap();
        let traces: Vec<TraceRecord> = (0..2).map(sample_trace).collect();
        for t in &traces {
            store.append_trace(t).unwrap();
        }
        // A trace line must not bleed into the other collections.
        store.append_record(&sample_record(0)).unwrap();
        let contents = store.load().unwrap();
        assert_eq!(contents.traces, traces);
        // RoundSample equality deliberately ignores the pool diagnostics,
        // so check the persisted pool columns explicitly.
        for (read, wrote) in contents.traces.iter().zip(&traces) {
            assert_eq!(read.summary.pool_wakeups, wrote.summary.pool_wakeups);
            assert_eq!(read.summary.pool_idle, wrote.summary.pool_idle);
            for (a, b) in read.summary.samples.iter().zip(&wrote.summary.samples) {
                assert_eq!(a.pool_wakeups, b.pool_wakeups);
                assert_eq!(a.pool_idle, b.pool_idle);
            }
        }
        assert_eq!(contents.records, vec![sample_record(0)]);
        assert_eq!(contents.manifests.len(), 0);
        assert_eq!(contents.unknown_kinds, 0);
        // One line per trace, no matter how long the counter series is.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    /// v3 lines (no `threads` on records, six-column trace samples, no
    /// pool totals) must read as single-thread / zero-pool data.
    #[test]
    fn v3_lines_read_with_default_threads_and_zero_pool() {
        let text = "{\"v\":3,\"kind\":\"record\",\"solver\":\"kw:k=2\",\"workload\":\"grid4\",\
                    \"n\":16,\"max_degree\":4,\"seed\":0,\"chaos\":\"\",\
                    \"dominates\":true,\"size\":4,\"rounds\":18,\"messages\":10,\"bits\":20,\
                    \"ratio_vs_lemma1\":1.5,\"wall_ms\":0.5}\n\
                    {\"v\":3,\"kind\":\"trace\",\"solver\":\"s\",\"workload\":\"w\",\"seed\":0,\
                    \"chaos\":\"\",\"threads\":2,\"rounds\":1,\"total_us\":9,\"barrier_us\":1,\
                    \"imbalance\":1.0,\"structure_hash\":7,\"phase_us\":{\"compute\":8},\
                    \"samples\":[[0,1,2,3,4,0]]}\n";
        let contents = parse_store(text).unwrap();
        assert_eq!(contents.records[0].threads, 1);
        let t = &contents.traces[0].summary;
        assert_eq!((t.pool_wakeups, t.pool_idle), (0, 0));
        assert_eq!(t.samples.len(), 1);
        assert_eq!((t.samples[0].pool_wakeups, t.samples[0].pool_idle), (0, 0));
    }

    #[test]
    fn malformed_trace_lines_are_corrupt_not_skipped() {
        let bad = format!(
            "{{\"v\":{SCHEMA_VERSION},\"kind\":\"trace\",\"solver\":\"s\",\"workload\":\"w\",\
             \"seed\":0,\"chaos\":\"\",\"threads\":1,\"rounds\":1,\"total_us\":1,\
             \"barrier_us\":0,\"imbalance\":1.0,\"structure_hash\":1,\
             \"phase_us\":{{\"compute\":1}},\"samples\":[[1,2,3]]}}\nx\n"
        );
        assert!(matches!(
            parse_store(&bad),
            Err(StoreError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn torn_tail_is_tolerated_by_load_and_repaired_by_open() {
        let path = temp_store("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = RunStore::open(&path).unwrap();
            store.append_record(&sample_record(0)).unwrap();
            store.append_record(&sample_record(1)).unwrap();
        }
        // Simulate a crash mid-append: half a line, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let torn_len = text.len();
        text.push_str("{\"v\":1,\"kind\":\"rec");
        std::fs::write(&path, &text).unwrap();
        {
            // Read-only consumers see both complete records.
            let store = RunStore::open(&path).unwrap();
            let contents = store.load().unwrap();
            assert_eq!(contents.records.len(), 2);
        }
        // Open repaired the tail, so the file is back to clean lines and
        // a subsequent append starts fresh.
        assert_eq!(std::fs::read_to_string(&path).unwrap().len(), torn_len);
        let store = RunStore::open(&path).unwrap();
        store.append_record(&sample_record(2)).unwrap();
        let contents = store.load().unwrap();
        assert_eq!(contents.records.len(), 3);
        assert!(!contents.truncated_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn midfile_corruption_is_an_error_not_a_skip() {
        let text = "{\"v\":1,\"kind\":\"novelty\",\"payload\":1}\n\
                    not json at all\n\
                    {\"v\":1,\"kind\":\"novelty\",\"payload\":2}\n";
        match parse_store(text) {
            Err(StoreError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let text = format!(
            "{{\"v\":{},\"kind\":\"record\",\"solver\":\"kw:k=2\",\"workload\":\"grid4\",\
             \"n\":16,\"max_degree\":4,\"seed\":0,\"chaos\":\"\",\"threads\":1,\
             \"dominates\":true,\"size\":4,\"rounds\":18,\"messages\":10,\"bits\":20,\
             \"ratio_vs_lemma1\":1.5,\"wall_ms\":0.5}}\n",
            SCHEMA_VERSION + 1
        );
        assert!(matches!(
            parse_store(&text),
            Err(StoreError::UnsupportedSchema { line: 1, .. })
        ));
    }

    #[test]
    fn unknown_kinds_of_current_version_are_skipped_and_counted() {
        // A kind no reader knows, and a retired v4 `bench` line.
        let text = "{\"v\":1,\"kind\":\"novelty\",\"payload\":[1,2,3]}\n\
                    {\"v\":4,\"kind\":\"bench\",\"bench\":\"serve_load\",\
                    \"id\":\"smoke/c4/p50\",\"best_ms\":1.5}\n";
        let contents = parse_store(text).unwrap();
        assert_eq!(contents.unknown_kinds, 2);
    }

    #[test]
    fn replay_into_seeds_a_cache() {
        let path = temp_store("replay");
        let _ = std::fs::remove_file(&path);
        let store = RunStore::open(&path).unwrap();
        for seed in 0..4 {
            store.append_record(&sample_record(seed)).unwrap();
        }
        let cache = ExperimentCache::new();
        assert_eq!(store.replay_into(&cache).unwrap(), 4);
        // Replay counts as neither hit nor miss until a sweep looks up.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        std::fs::remove_file(&path).unwrap();
    }

    /// v1 stores carried `fault_drop`/`fault_seed` instead of a `chaos`
    /// string; readers must map them onto the equivalent canonical
    /// iid-only chaos spec so old stores still replay and key caches.
    #[test]
    fn v1_legacy_fault_fields_map_to_canonical_chaos_specs() {
        let text = "{\"v\":1,\"kind\":\"manifest\",\"git\":\"abc\",\"solvers\":[\"kw:k=2\"],\
                    \"workloads\":[\"grid4\"],\"seeds\":[0],\"fault_drop\":0.25,\"fault_seed\":9}\n\
                    {\"v\":1,\"kind\":\"record\",\"solver\":\"kw:k=2\",\"workload\":\"grid4\",\
                    \"n\":16,\"max_degree\":4,\"seed\":0,\"fault_drop\":0.25,\"fault_seed\":9,\
                    \"dominates\":true,\"size\":4,\"rounds\":18,\"messages\":10,\"bits\":20,\
                    \"ratio_vs_lemma1\":1.5,\"wall_ms\":0.5}\n\
                    {\"v\":1,\"kind\":\"record\",\"solver\":\"kw:k=2\",\"workload\":\"grid4\",\
                    \"n\":16,\"max_degree\":4,\"seed\":1,\"fault_drop\":0.0,\"fault_seed\":0,\
                    \"dominates\":true,\"size\":4,\"rounds\":18,\"messages\":10,\"bits\":20,\
                    \"ratio_vs_lemma1\":1.5,\"wall_ms\":0.5}\n";
        let contents = parse_store(text).unwrap();
        assert_eq!(contents.manifests[0].chaos, "drop=0.25,seed=9");
        assert_eq!(contents.records[0].chaos, "drop=0.25,seed=9");
        // A reliable v1 pair maps to the canonical empty spec.
        assert_eq!(contents.records[1].chaos, "");
        // The synthesized specs parse back to the plans they describe.
        let plan = ChaosPlan::parse(&contents.records[0].chaos).unwrap();
        assert_eq!(plan.drop_probability(), 0.25);
        assert_eq!(plan.seed(), 9);
        // A v1 line with an impossible probability is corrupt, not UB.
        let bad = "{\"v\":1,\"kind\":\"record\",\"solver\":\"s\",\"workload\":\"w\",\
                   \"n\":1,\"max_degree\":0,\"seed\":0,\"fault_drop\":1.5,\"fault_seed\":0,\
                   \"dominates\":true,\"size\":1,\"rounds\":1,\"messages\":0,\"bits\":0,\
                   \"ratio_vs_lemma1\":1,\"wall_ms\":0}\nx\n";
        assert!(matches!(
            parse_store(bad),
            Err(StoreError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn git_describe_never_fails() {
        assert!(!git_describe().is_empty());
    }

    #[test]
    fn second_writer_fails_fast_and_drop_releases_the_lock() {
        let path = temp_store("locked");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(lock_path_for(&path));
        let first = RunStore::open(&path).unwrap();
        // A contending writer on the same path is refused with the pid.
        match RunStore::open(&path) {
            Err(StoreError::Locked { path: p, holder }) => {
                assert_eq!(p, path);
                assert_eq!(holder, format!("{} (this process)", std::process::id()));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        // Read-only loads are not blocked by the writer lock.
        first.append_record(&sample_record(0)).unwrap();
        assert_eq!(load_path(&path).unwrap().records.len(), 1);
        // Dropping the holder releases the lock for the next writer.
        drop(first);
        let second = RunStore::open(&path).unwrap();
        second.append_record(&sample_record(1)).unwrap();
        drop(second);
        assert!(
            !lock_path_for(&path).exists(),
            "drop must remove the lock file"
        );
        assert_eq!(load_path(&path).unwrap().records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_stolen() {
        let path = temp_store("stale_lock");
        let _ = std::fs::remove_file(&path);
        // A pid that cannot be live: pid_max on Linux is < 2^22 by
        // default and never exceeds u32 range; u32::MAX is safely dead.
        std::fs::write(lock_path_for(&path), format!("{}", u32::MAX)).unwrap();
        let store = RunStore::open(&path).expect("stale lock is stolen");
        store.append_record(&sample_record(0)).unwrap();
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unreadable_lock_holder_is_respected_not_stolen() {
        let path = temp_store("garbage_lock");
        let _ = std::fs::remove_file(&path);
        std::fs::write(lock_path_for(&path), "not-a-pid").unwrap();
        match RunStore::open(&path) {
            Err(StoreError::Locked { holder, .. }) => assert_eq!(holder, "not-a-pid"),
            other => panic!("expected Locked, got {other:?}"),
        }
        std::fs::remove_file(lock_path_for(&path)).unwrap();
    }

    /// The contended case: writers racing for one path. At most one may
    /// hold the store at a time; every append that went through lands as
    /// a whole, parseable line.
    #[test]
    fn contended_writers_serialize_without_torn_lines() {
        let path = temp_store("contended");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(lock_path_for(&path));
        let holders = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let appended = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (path, holders, appended) = (path.clone(), holders.clone(), appended.clone());
                scope.spawn(move || {
                    for attempt in 0..20u64 {
                        match RunStore::open(&path) {
                            Ok(store) => {
                                let now = holders.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                assert_eq!(now, 0, "two writers held the lock at once");
                                store
                                    .append_record(&sample_record(t * 100 + attempt))
                                    .unwrap();
                                appended.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                holders.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                                drop(store);
                            }
                            Err(StoreError::Locked { .. }) => {
                                std::thread::yield_now();
                            }
                            Err(other) => panic!("unexpected store error: {other}"),
                        }
                    }
                });
            }
        });
        let contents = load_path(&path).unwrap();
        assert!(!contents.truncated_tail);
        assert_eq!(
            contents.records.len(),
            appended.load(std::sync::atomic::Ordering::SeqCst) as usize,
            "every successful append is one whole line"
        );
        assert!(
            contents.records.len() >= 20,
            "at least one thread got through"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
