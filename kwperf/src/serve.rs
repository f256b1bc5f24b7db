//! `serve-mixed`: the in-process `kw_serve::Server` over loopback, under an
//! open loop at one fixed offered rate. About 90% of the requests ask for
//! cells that set-up solved into the daemon's store; the rest are fresh
//! small solves, a few of them under a chaos clause.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use kw_bench::workloads::Workload;
use kw_domset::core::solver::{ExperimentRunner, RunEvent, RunRecord};
use kw_domset::results::json::Json;
use kw_domset::results::store::RunStore;
use kw_domset::results::{stream_sweep, Percentiles};
use kw_domset::serve::{http_request, ServeConfig, Server};
use kw_domset::sim::rng::split_mix64;
use kw_domset::sim::ChaosPlan;

use crate::check::{Answer, Checks};
use crate::layers::{self, Cell, Probe};
use crate::{err, median, timed_setup, Report, RunCfg, TempDir, CLIENT_TIMEOUT};

/// Solvers of the mix, warm and fresh alike.
const SOLVERS: [&str; 3] = ["kw:k=2", "composite:k=2", "greedy"];
/// Graphs of the mix.
const GRAPHS: [&str; 2] = ["gnp:n=2000,p=0.004", "grid:side=30"];
/// Graph seeds warm cells draw from; `pins.txt` holds every one.
const WARM_POOL: u64 = 16;
/// Graph seeds one run warms (each × every solver and graph).
const WARM_PER_RUN: u64 = 8;
/// Offered load. One daemon worker answers a hit in well under 0.1 ms and
/// a fresh solve in 0.5–7 ms, so 250 requests/s keep the two workers far
/// below half busy.
const RATE_PER_S: f64 = 250.0;
/// Every `MISS_EVERY`-th request (in a seeded shuffle) is a fresh solve.
const MISS_EVERY: usize = 10;
/// Every `CHAOS_EVERY`-th fresh solve runs under `drop=LOSSY_DROP`.
const CHAOS_EVERY: usize = 8;
const LOSSY_DROP: f64 = 0.05;
/// Fresh solves use seeds from here up, far from the warm pool.
const FRESH_SEED_BASE: u64 = 1_000_000;
/// Load generator threads (sending) and response readers.
const GENERATORS: usize = 2;
const READERS: usize = 8;
/// A run whose generator sent its p99 request later than this after the
/// request was due measured the generator, not the daemon: it is invalid.
const LAG_LIMIT_MS: f64 = 25.0;
/// Windows the schedule is cut into for percentiles: 5 s each at the
/// 40 s run length, 1250 requests, so 12 beyond each window's p99.
const WINDOWS: usize = 8;
/// Daemon worker threads, on the workload and on the probe daemon.
pub const DAEMON_WORKERS: usize = 2;

fn warm_seeds(seed: u64) -> Vec<u64> {
    (0..WARM_PER_RUN)
        .map(|i| (seed % WARM_POOL + 3 * i) % WARM_POOL)
        .collect()
}

/// Solves every mix cell for `seeds` into a fresh store at `path`.
fn warm_store(path: &Path, seeds: &[u64]) -> Result<Vec<RunRecord>, String> {
    let solvers = kw_domset::default_registry()
        .build_all(SOLVERS)
        .map_err(err)?;
    let store = RunStore::open(path).map_err(err)?;
    let runner = ExperimentRunner::new().workers(1);
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for &seed in seeds {
        let graphs = GRAPHS
            .iter()
            .map(|spec| {
                let w = Workload::parse(spec).map_err(err)?;
                Ok((w.label(), w.try_build(seed).map_err(err)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        stream_sweep(&runner, &solvers, &graphs, [seed], |ev| match ev {
            RunEvent::CellFinished { record, .. } => {
                if let Err(e) = store.append_record(record) {
                    failures.push(e.to_string());
                }
                records.push(record.clone());
            }
            RunEvent::CellFailed { error, .. } => failures.push(error.clone()),
            _ => {}
        })
        .map_err(err)?;
    }
    match failures.into_iter().next() {
        Some(e) => Err(format!("warming the store failed: {e}")),
        None => Ok(records),
    }
}

/// One planned request.
struct Planned {
    body: String,
    /// Whether it asks for a cell set-up did not warm.
    fresh: bool,
    /// The chaos clause of a fresh request (`""` = reliable).
    chaos: String,
}

/// The request sequence of one run: warm cells drawn uniformly, fresh
/// cells (exactly one in `MISS_EVERY`) at seeded shuffled positions.
fn plan(seed: u64, n: usize, warm: &[RunRecord]) -> Result<Vec<Planned>, String> {
    let specs: HashMap<String, &str> = GRAPHS
        .iter()
        .map(|spec| Ok((Workload::parse(spec).map_err(err)?.label(), *spec)))
        .collect::<Result<_, String>>()?;
    let mut state = split_mix64(seed ^ 0x6b77_7065_7266);
    let mut next = move || {
        state = split_mix64(state);
        state
    };
    let mut fresh: Vec<bool> = (0..n).map(|i| i < n / MISS_EVERY).collect();
    for i in (1..n).rev() {
        fresh.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut misses = 0usize;
    fresh
        .into_iter()
        .map(|is_fresh| {
            if is_fresh {
                let j = misses;
                misses += 1;
                let chaos = if j % CHAOS_EVERY == CHAOS_EVERY - 1 {
                    format!("drop={LOSSY_DROP},seed={}", j + 1)
                } else {
                    String::new()
                };
                let fresh_seed = FRESH_SEED_BASE + (seed % 1_000_000) * 100_000 + j as u64;
                let body = layers::solve_body(
                    GRAPHS[(j / SOLVERS.len()) % GRAPHS.len()],
                    SOLVERS[j % SOLVERS.len()],
                    fresh_seed,
                    &chaos,
                    1,
                );
                Ok(Planned {
                    body,
                    fresh: true,
                    chaos,
                })
            } else {
                let r = &warm[(next() % warm.len() as u64) as usize];
                let spec = specs
                    .get(&r.workload)
                    .ok_or("warm record of an unknown graph")?;
                Ok(Planned {
                    body: layers::solve_body(spec, &r.solver, r.seed, "", 1),
                    fresh: false,
                    chaos: String::new(),
                })
            }
        })
        .collect()
}

/// What happened to one request.
struct Done {
    /// From when the request was due to when its response was read.
    latency_ms: f64,
    /// How late the generator sent it.
    lag_ms: f64,
    /// Status and body, or the transport error.
    response: Result<(u16, Vec<u8>), String>,
    finished: Instant,
}

fn send(addr: SocketAddr, body: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    let request = format!(
        "POST /solve HTTP/1.1\r\nHost: kwperf\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(err)?;
    Ok(stream)
}

/// Reads a `Connection: close` response to EOF.
fn read_response(mut stream: TcpStream) -> Result<(u16, Vec<u8>), String> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(err)?;
    let mut buf = Vec::with_capacity(1024);
    stream.read_to_end(&mut buf).map_err(err)?;
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header terminator")?;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1)?.parse().ok())
        .ok_or("response without a status")?;
    Ok((status, buf[head_end + 4..].to_vec()))
}

/// Sends `plan` at `RATE_PER_S` from `GENERATORS` threads on a fixed
/// schedule, whatever the daemon does; `READERS` threads collect the
/// responses. Returns every request's fate and the wall time in seconds
/// from the first due time to the last response.
fn open_loop(addr: SocketAddr, plan: &[Planned]) -> (Vec<Option<Done>>, f64) {
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let t0 = Instant::now() + Duration::from_millis(10);
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, Result<TcpStream, String>)>();
    let rx = Mutex::new(rx);
    let done: Mutex<Vec<Option<Done>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| loop {
                let next = rx
                    .lock()
                    .expect("a reader panicked holding the channel")
                    .recv();
                let Ok((i, due, lag_ms, stream)) = next else {
                    return;
                };
                let response = stream.and_then(read_response);
                let finished = Instant::now();
                done.lock().expect("a reader panicked holding the results")[i] = Some(Done {
                    latency_ms: (finished - due).as_secs_f64() * 1e3,
                    lag_ms,
                    response,
                    finished,
                });
            });
        }
        for g in 0..GENERATORS {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in (g..plan.len()).step_by(GENERATORS) {
                    let due = t0 + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let lag_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    if tx
                        .send((i, due, lag_ms, send(addr, &plan[i].body)))
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
        drop(tx);
    });
    let done = done
        .into_inner()
        .expect("a reader panicked holding the results");
    let wall = done
        .iter()
        .flatten()
        .map(|d| d.finished.saturating_duration_since(t0).as_secs_f64())
        .fold(0.0, f64::max);
    (done, wall)
}

/// Checks every response and rolls the run up into the end-to-end
/// metrics (when `report` is given).
fn account(
    plan: &[Planned],
    done: &[Option<Done>],
    wall_s: f64,
    checks: &mut Checks,
    report: Option<&mut Report>,
) -> Result<(), String> {
    // Latencies and fresh-solve times per window of the schedule.
    let mut latency = vec![Vec::new(); WINDOWS];
    let mut solve_ms = vec![Vec::new(); WINDOWS];
    let (mut lag, mut ratios) = (vec![], vec![]);
    let (mut ok, mut fresh, mut messages) = (0usize, 0usize, 0u64);
    for (i, (p, d)) in plan.iter().zip(done).enumerate() {
        let Some(d) = d else {
            checks.failed_op(format!("{}: never completed", p.body));
            continue;
        };
        let window = i * WINDOWS / plan.len();
        latency[window].push(d.latency_ms);
        lag.push(d.lag_ms);
        let body = match &d.response {
            Ok((status, body)) if (200..300).contains(status) => body,
            Ok((status, body)) => {
                checks.failed_op(format!("{status}: {}", String::from_utf8_lossy(body)));
                continue;
            }
            Err(e) => {
                checks.failed_op(format!("transport: {e}"));
                continue;
            }
        };
        let json = match std::str::from_utf8(body)
            .map_err(err)
            .and_then(|t| Json::parse(t).map_err(err))
        {
            Ok(j) => j,
            Err(e) => {
                checks.failed_op(format!("unreadable answer: {e}"));
                continue;
            }
        };
        let num = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let text = |key: &str| json.get(key).and_then(Json::as_str).unwrap_or("");
        let cached = json.get("cached").and_then(Json::as_bool);
        if cached != Some(!p.fresh) {
            checks.failed_op(format!(
                "{}: cached = {cached:?}, expected {}",
                p.body, !p.fresh
            ));
            continue;
        }
        checks.answer(&Answer {
            label: text("workload"),
            solver: text("solver"),
            chaos: &p.chaos,
            seed: num("seed") as u64,
            n: num("n") as usize,
            max_degree: num("max_degree") as usize,
            certified: num("ratio_vs_lemma1").is_finite(),
            dominates: json.get("dominates").and_then(Json::as_bool) == Some(true),
            size: num("size") as u64,
            rounds: num("rounds") as u64,
            messages: num("messages") as u64,
            pinned: !p.fresh,
        });
        ok += 1;
        ratios.push(num("ratio_vs_lemma1"));
        if p.fresh {
            solve_ms[window].push(num("wall_ms"));
            fresh += 1;
            messages += num("messages") as u64;
        }
    }
    let lag = Percentiles::from_samples(&lag);
    if lag.p99 > LAG_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator fell behind (lag p99 {:.3} ms > {LAG_LIMIT_MS} ms)",
            lag.p99
        ));
    }
    let Some(report) = report else {
        return Ok(());
    };
    // Each percentile is the median over windows of that window's
    // percentile, so a noisy stretch of the host moves it only when it
    // covers half the run.
    let over_windows = |samples: &[Vec<f64>], pick: fn(&Percentiles) -> f64| {
        let per_window: Vec<f64> = samples
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| pick(&Percentiles::from_samples(w)))
            .collect();
        median(&per_window)
    };
    let requests = latency.iter().map(Vec::len).sum();
    report.put("solve_ms", over_windows(&solve_ms, |p| p.p50), fresh);
    report.put("solves_per_s", fresh as f64 / wall_s, fresh);
    report.put("sim_msgs_per_s", messages as f64 / wall_s, fresh);
    report.put("req_ms", over_windows(&latency, |p| p.p50), requests);
    report.put("req_ms_tail", over_windows(&latency, |p| p.p99), requests);
    report.put("req_per_s", ok as f64 / wall_s, ok);
    report.put(
        "ratio_vs_lemma1_mean",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        ratios.len(),
    );
    report.note("offered_rate_per_s", RATE_PER_S);
    report.note("requests", plan.len());
    report.note("loadgen.lag_ms_p99", lag.p99);
    Ok(())
}

/// `serve-mixed`.
pub fn serve(
    cfg: RunCfg,
    checks: &mut Checks,
    report: &mut Report,
    tmp: &TempDir,
) -> Result<(), String> {
    let seeds = warm_seeds(cfg.seed);
    let ((server, warm), seconds) = timed_setup(|rep| {
        let path = tmp.file(&format!("serve-{rep}.jsonl"));
        let records = warm_store(&path, &seeds)?;
        let server = Server::start(ServeConfig {
            workers: DAEMON_WORKERS,
            store: Some(path),
            ..ServeConfig::default()
        })
        .map_err(err)?;
        Ok((server, records))
    })?;
    for r in &warm {
        checks.answer(&Answer::from_record(r));
    }
    checks.op(if server.service().warmed() == warm.len() {
        Ok(())
    } else {
        Err(format!(
            "daemon warmed {} answers from a store of {}",
            server.service().warmed(),
            warm.len()
        ))
    });

    let requests = ((RATE_PER_S * cfg.budget.as_secs_f64()) as usize).max(MISS_EVERY);
    let plan = plan(cfg.seed, requests, &warm)?;
    let (done, wall) = open_loop(server.addr(), &plan);
    if !cfg.trace {
        report.setup(&seconds);
        let outcome = account(&plan, &done, wall, checks, Some(report));
        server.shutdown();
        return outcome;
    }
    account(&plan, &done, wall, checks, None)?;
    let scrape =
        http_request(server.addr(), "GET", "/metrics", b"", CLIENT_TIMEOUT).map_err(err)?;
    server.shutdown();
    let live = layers::live_counters(&String::from_utf8_lossy(&scrape.body));

    let builds = GRAPHS
        .iter()
        .map(|spec| Ok((Workload::parse(spec).map_err(err)?, seeds[0])))
        .collect::<Result<Vec<_>, String>>()?;
    let graphs = builds
        .iter()
        .map(|(w, s)| Ok((w.label(), w.try_build(*s).map_err(err)?)))
        .collect::<Result<Vec<_>, String>>()?;
    // Every mix cell reliable and lossy, so the engine rollup also covers
    // delivery under loss.
    let seed = seeds[0];
    let lossy = ChaosPlan::parse(&format!("drop={LOSSY_DROP},seed=1")).map_err(err)?;
    let cells: Vec<Cell> = (0..GRAPHS.len())
        .flat_map(|g| SOLVERS.iter().map(move |s| Cell::reliable(s, g, seed)))
        .flat_map(|c| {
            let twin = Cell {
                faults: lossy.clone(),
                ..c.clone()
            };
            [c, twin]
        })
        .collect();
    let probe = Probe {
        requests: cells
            .iter()
            .filter(|c| c.faults.is_reliable())
            .map(|c| layers::solve_body(GRAPHS[c.graph], &c.solver, c.seed, "", 1))
            .collect(),
        builds,
        graphs: graphs.iter().map(|(l, g)| (l.clone(), g)).collect(),
        seed: seeds[0],
        threads: 1,
        cells,
        live: Some(live),
    };
    layers::run(&probe, cfg.budget, checks, report, tmp)
}

/// Warms every cell of the pool once (`--pin`).
pub fn pin_warm(checks: &mut Checks, tmp: &TempDir) -> Result<(), String> {
    let pool: Vec<u64> = (0..WARM_POOL).collect();
    for r in &warm_store(&tmp.file("pin.jsonl"), &pool)? {
        checks.answer(&Answer::from_record(r));
    }
    Ok(())
}
