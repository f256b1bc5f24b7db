//! `serve_smoke` — CI end-to-end check for the serving stack.
//!
//! One process, real TCP, no fixtures:
//!
//! 1. start a daemon on an ephemeral port with a fresh run store;
//! 2. fire a `kw-load`-style burst of the smoke mix (more requests than
//!    distinct cells, so cache hits are guaranteed);
//! 3. scrape `/metrics` and assert zero 5xx and at least one cache hit;
//! 4. POST `/shutdown` and drain — the SIGTERM path;
//! 5. restart a daemon on the *same* store and assert it warmed every
//!    answer: a repeated request must report `"cached": true` without
//!    any new cache miss.
//!
//! Exits non-zero with a message on the first violated expectation.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use kw_bench::mix;
use kw_serve::{http_request, run_load, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

fn main() -> ExitCode {
    match smoke() {
        Ok(()) => {
            println!("serve_smoke: all checks passed");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("serve_smoke: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn smoke() -> Result<(), String> {
    // KW_SERVE_SMOKE_STORE pins the daemon store to a known path (CI
    // schema-validates it afterwards); default is a throwaway temp file.
    let (store, keep_store) = match std::env::var_os("KW_SERVE_SMOKE_STORE") {
        Some(path) => (PathBuf::from(path), true),
        None => (
            std::env::temp_dir().join(format!("kw_serve_smoke_{}.jsonl", std::process::id())),
            false,
        ),
    };
    let _ = std::fs::remove_file(&store);
    let mix_entries = mix::smoke_mix();
    let requests = mix_entries.len() * 3; // every cell replayed, hits guaranteed

    // --- pass 1: cold daemon -------------------------------------------------
    let server = Server::start(config(&store)).map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();
    println!("daemon 1 on {addr}, store {}", store.display());

    let health =
        http_request(addr, "GET", "/healthz", b"", TIMEOUT).map_err(|e| format!("healthz: {e}"))?;
    expect(health.status == 200, "healthz must answer 200")?;

    // Warm each distinct cell once, sequentially, so the later burst's
    // hit/miss arithmetic is exact (two racing cold requests for one
    // cell would otherwise both miss).
    let warm = run_load(addr, "smoke", &mix_entries, 1, mix_entries.len(), TIMEOUT);
    expect(
        warm.ok_2xx == mix_entries.len(),
        "sequential warm pass must answer 200 for every cell",
    )?;

    let report = run_load(addr, "smoke", &mix_entries, 4, requests, TIMEOUT);
    println!("{}", report.render());
    expect(report.completed == requests, "every request must complete")?;
    expect(report.err_4xx == 0, "smoke mix must produce no 4xx")?;
    expect(report.err_5xx == 0, "burst must produce no 5xx")?;
    expect(report.transport_errors == 0, "no transport errors")?;

    let metrics = scrape(addr)?;
    expect(
        metric(&metrics, "kw_serve_responses_5xx_total")? == 0.0,
        "metrics must report zero 5xx",
    )?;
    let hits_1 = metric(&metrics, "kw_serve_cache_hits_total")?;
    expect(
        hits_1 == requests as f64,
        "every burst request must be a cache hit",
    )?;
    expect(
        metric(&metrics, "kw_serve_cache_misses_total")? == mix_entries.len() as f64,
        "cold daemon must miss exactly once per distinct cell",
    )?;
    println!("pass 1 ok: {hits_1} hits over {requests} burst requests");

    // --- chaotic mix ---------------------------------------------------------
    // Same daemon, now under the chaos mix: every cell shares (solver,
    // workload, seed) and differs only by chaos clause, so correct
    // chaos-keyed caching is the only way this stays consistent.
    let chaos_entries = mix::chaos_mix();
    let chaos_requests = chaos_entries.len() * 2; // each cell replayed twice
    let chaos_report = run_load(addr, "chaos", &chaos_entries, 2, chaos_requests, TIMEOUT);
    println!("{}", chaos_report.render());
    expect(
        chaos_report.ok_2xx == chaos_requests,
        "chaos mix must answer 200 for every request",
    )?;
    let metrics = scrape(addr)?;
    let chaotic = chaos_entries.iter().filter(|e| !e.chaos.is_empty()).count();
    expect(
        metric(&metrics, "kw_serve_chaos_requests_total")? == (chaotic * 2) as f64,
        "every non-reliable request must tick the chaos counter",
    )?;
    println!("chaos mix ok: {} chaotic requests counted", chaotic * 2);

    // --- graceful drain ------------------------------------------------------
    let drain = http_request(addr, "POST", "/shutdown", b"", TIMEOUT)
        .map_err(|e| format!("shutdown: {e}"))?;
    expect(drain.status == 200, "shutdown must answer 200")?;
    expect(server.shutdown_requested(), "shutdown flag must be set")?;
    server.shutdown();
    println!("daemon 1 drained");

    // --- pass 2: restart on the same store -----------------------------------
    let server = Server::start(config(&store)).map_err(|e| format!("restart: {e}"))?;
    let addr = server.addr();
    expect(
        server.service().warmed() == mix_entries.len() + chaos_entries.len(),
        "restart must warm one answer per distinct cell, chaos cells included",
    )?;
    let entry = &mix_entries[0];
    let body = format!(
        "{{\"workload\": \"{}\", \"solver\": \"{}\", \"seed\": {}}}",
        entry.workload, entry.solver, entry.seed
    );
    let resp = http_request(addr, "POST", "/solve", body.as_bytes(), TIMEOUT)
        .map_err(|e| format!("warm solve: {e}"))?;
    expect(resp.status == 200, "warm solve must answer 200")?;
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let answer = kw_results::json::Json::parse(&text).map_err(|e| format!("warm solve: {e}"))?;
    expect(
        answer.get("cached").and_then(|v| v.as_bool()) == Some(true),
        "restarted daemon must serve from the warmed cache",
    )?;
    expect(
        answer.get("dominates").and_then(|v| v.as_bool()) == Some(true),
        "served answer must carry its certificate verdict",
    )?;
    let metrics = scrape(addr)?;
    expect(
        metric(&metrics, "kw_serve_cache_misses_total")? == 0.0,
        "warm daemon must not re-solve",
    )?;
    expect(
        metric(&metrics, "kw_serve_cache_warmed_total")?
            == (mix_entries.len() + chaos_entries.len()) as f64,
        "warmed gauge must count the replayed store, chaos cells included",
    )?;
    server.shutdown();
    println!("pass 2 ok: warm restart served from store");

    if !keep_store {
        let _ = std::fs::remove_file(&store);
    }
    Ok(())
}

fn config(store: &std::path::Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store: Some(store.to_path_buf()),
        workers: 4,
        queue_depth: 64,
        deadline: TIMEOUT,
    }
}

fn scrape(addr: std::net::SocketAddr) -> Result<String, String> {
    let resp =
        http_request(addr, "GET", "/metrics", b"", TIMEOUT).map_err(|e| format!("metrics: {e}"))?;
    expect(resp.status == 200, "metrics must answer 200")?;
    Ok(String::from_utf8_lossy(&resp.body).to_string())
}

fn metric(text: &str, name: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("metric {name} missing from scrape"))
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}
