//! End-to-end tests of the daemon over real TCP on ephemeral ports:
//! the endpoint contract, answer caching, error mapping, graceful
//! drain, and the restart-warms-from-store guarantee.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use kw_results::json::Json;
use kw_serve::{http_request, ClientResponse, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        store: None,
        deadline: TIMEOUT,
    }
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kw_serve_e2e_{tag}_{}.jsonl", std::process::id()))
}

fn solve_body(workload: &str, solver: &str, seed: u64) -> String {
    format!("{{\"workload\": \"{workload}\", \"solver\": \"{solver}\", \"seed\": {seed}}}")
}

fn post_solve(server: &Server, body: &str) -> ClientResponse {
    http_request(server.addr(), "POST", "/solve", body.as_bytes(), TIMEOUT).expect("solve request")
}

fn answer(resp: &ClientResponse) -> Json {
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    Json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("response must be JSON")
}

fn metric(server: &Server, name: &str) -> f64 {
    let resp = http_request(server.addr(), "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body).to_string();
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

#[test]
fn healthz_and_metrics_answer() {
    let server = Server::start(test_config()).unwrap();
    let health = http_request(server.addr(), "GET", "/healthz", b"", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    assert_eq!(metric(&server, "kw_serve_responses_5xx_total"), 0.0);
    // The scrape itself is being served while it renders.
    assert_eq!(metric(&server, "kw_serve_inflight"), 1.0);
    server.shutdown();
}

#[test]
fn solve_misses_then_hits_and_answers_stay_identical() {
    let server = Server::start(test_config()).unwrap();
    let body = solve_body("grid:side=5", "greedy", 0);

    let first = answer(&post_solve(&server, &body));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first.get("dominates").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("n").and_then(Json::as_u64), Some(25));
    assert_eq!(
        first.get("workload").and_then(Json::as_str),
        Some("grid(5x5)")
    );
    assert_eq!(first.get("solver").and_then(Json::as_str), Some("greedy"));

    let second = answer(&post_solve(&server, &body));
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    // Everything except the cached flag is identical: same outcome,
    // same shape, served from memory.
    for field in [
        "solver",
        "workload",
        "seed",
        "n",
        "max_degree",
        "size",
        "rounds",
        "dominates",
    ] {
        assert_eq!(
            first.get(field).map(Json::render),
            second.get(field).map(Json::render),
            "field {field} must not change between miss and hit"
        );
    }

    assert_eq!(metric(&server, "kw_serve_cache_misses_total"), 1.0);
    assert_eq!(metric(&server, "kw_serve_cache_hits_total"), 1.0);
    // 2 solves + the 2 scrapes above; the in-progress scrape is only
    // counted once its response is written.
    assert_eq!(metric(&server, "kw_serve_requests_total"), 4.0);
    server.shutdown();
}

#[test]
fn error_paths_map_to_4xx_never_5xx() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr();

    let cases: Vec<(ClientResponse, u16, &str)> = vec![
        (
            http_request(addr, "POST", "/solve", b"not json", TIMEOUT).unwrap(),
            400,
            "non-JSON body",
        ),
        (
            http_request(addr, "POST", "/solve", b"{}", TIMEOUT).unwrap(),
            400,
            "missing fields",
        ),
        (
            post_solve(&server, "{\"workload\": \"grid:side=5\", \"solver\": 7}"),
            400,
            "non-string solver",
        ),
        (
            post_solve(&server, &solve_body("nope:n=1", "greedy", 0)),
            400,
            "unknown workload family",
        ),
        (
            post_solve(&server, &solve_body("grid:side=5", "nope", 0)),
            400,
            "unknown solver",
        ),
        (
            post_solve(
                &server,
                "{\"workload\": \"grid:side=5\", \"solver\": \"greedy\", \"seed\": -3}",
            ),
            400,
            "negative seed",
        ),
        (
            post_solve(
                &server,
                &solve_body("dimacs:/nonexistent/g.col", "greedy", 0),
            ),
            400,
            "unreadable instance file",
        ),
        (
            http_request(addr, "GET", "/solve", b"", TIMEOUT).unwrap(),
            405,
            "GET on /solve",
        ),
        (
            http_request(addr, "POST", "/metrics", b"", TIMEOUT).unwrap(),
            405,
            "POST on /metrics",
        ),
        (
            http_request(addr, "GET", "/nope", b"", TIMEOUT).unwrap(),
            404,
            "unknown path",
        ),
    ];
    for (resp, status, what) in cases {
        assert_eq!(resp.status, status, "{what}");
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap())
            .unwrap_or_else(|e| panic!("{what}: error body must be JSON: {e}"));
        assert!(
            body.get("error").and_then(Json::as_str).is_some(),
            "{what}: error envelope"
        );
    }

    assert_eq!(metric(&server, "kw_serve_responses_5xx_total"), 0.0);
    assert!(metric(&server, "kw_serve_responses_4xx_total") >= 10.0);
    server.shutdown();
}

/// Protocol violations answer their 4xx and close the connection.
#[test]
fn protocol_violations_close_with_4xx() {
    let server = Server::start(test_config()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap(); // read to EOF: server closed
    let head = String::from_utf8_lossy(&reply);
    assert!(
        head.starts_with("HTTP/1.1 411 "),
        "chunked must answer 411, got: {head}"
    );
    assert!(head.contains("Connection: close"));
    server.shutdown();
}

/// One keep-alive connection can pipeline several requests; responses
/// come back in order on the same socket.
#[test]
fn pipelined_requests_on_one_connection() {
    let server = Server::start(test_config()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();

    let body = solve_body("grid:side=4", "trivial", 0);
    let solve = format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let wire = format!("{solve}{solve}GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    stream.write_all(wire.as_bytes()).unwrap();

    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let text = String::from_utf8_lossy(&reply);
    let statuses: Vec<&str> = text
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|s| s.split(' ').next().unwrap())
        .collect();
    assert_eq!(statuses, ["200", "200", "200"], "full reply:\n{text}");
    // Second solve on the same connection was served from cache.
    assert!(text.contains("\"cached\":true"), "full reply:\n{text}");
    server.shutdown();
}

/// The drain contract: `/shutdown` flips the flag the bin waits on,
/// `shutdown()` joins everything, and queued requests still finish.
#[test]
fn graceful_drain_answers_inflight_requests() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.addr();
    assert!(!server.shutdown_requested());

    // Park a few requests in flight while shutdown is requested.
    let workers: Vec<_> = (0..4)
        .map(|seed| {
            let body = solve_body("gnp:n=48,p=0.1", "greedy", seed);
            std::thread::spawn(move || {
                http_request(addr, "POST", "/solve", body.as_bytes(), TIMEOUT)
                    .map(|r| r.status)
                    .unwrap_or(0)
            })
        })
        .collect();
    let drain = http_request(addr, "POST", "/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(drain.status, 200);
    assert!(server.shutdown_requested());
    for w in workers {
        assert_eq!(w.join().unwrap(), 200, "in-flight solves must complete");
    }
    server.shutdown(); // drains and joins; must not hang
}

/// The tentpole guarantee: kill the daemon, restart it on the same
/// store, and every previous answer is served from cache — without
/// re-solving — including across different solvers and seeds.
#[test]
fn restart_warms_cache_from_store() {
    let store = temp_store("warm");
    let _ = std::fs::remove_file(&store);
    let cells = [
        ("grid:side=5", "greedy", 0u64),
        ("grid:side=5", "kw:k=2", 3),
        ("gnp:n=40,p=0.15", "greedy", 1),
    ];

    let first = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    assert_eq!(first.service().warmed(), 0);
    for (workload, solver, seed) in cells {
        let resp = answer(&post_solve(&first, &solve_body(workload, solver, seed)));
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(false));
    }
    first.shutdown(); // releases the store's writer lock

    let second = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    assert_eq!(
        second.service().warmed(),
        cells.len(),
        "every persisted answer must warm the cache"
    );
    for (workload, solver, seed) in cells {
        let resp = answer(&post_solve(&second, &solve_body(workload, solver, seed)));
        assert_eq!(
            resp.get("cached").and_then(Json::as_bool),
            Some(true),
            "{workload}/{solver}/{seed} must come from the warmed cache"
        );
        assert!(
            resp.get("n").and_then(Json::as_u64).unwrap() > 0,
            "warmed answers still report graph shape"
        );
    }
    assert_eq!(metric(&second, "kw_serve_cache_misses_total"), 0.0);
    assert_eq!(
        metric(&second, "kw_serve_cache_warmed_total"),
        cells.len() as f64
    );
    second.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// Two daemons must not share one store: the second start fails with
/// the store's writer-lock error instead of corrupting the file.
#[test]
fn second_daemon_on_same_store_is_refused() {
    let store = temp_store("locked");
    let _ = std::fs::remove_file(&store);
    let first = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    let second = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    });
    match second {
        Err(e) => assert!(
            e.to_string().contains("already open for writing"),
            "unexpected error: {e}"
        ),
        Ok(_) => panic!("second daemon must not open a locked store"),
    }
    first.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// The chaos clause: keyed into the cache by canonical spec, counted in
/// `/metrics`, persisted through restart, and rejected with 400 on
/// garbage — never a 5xx.
#[test]
fn chaos_clause_is_keyed_counted_persisted_and_validated() {
    let store = temp_store("chaos");
    let _ = std::fs::remove_file(&store);
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    let clause = "drop=0.1,burst=r3-5@0.9,crash=7@r2,byz=3";
    let with_chaos = |spelling: &str| {
        format!(
            "{{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"seed\": 1, \
             \"chaos\": \"{spelling}\"}}"
        )
    };

    let first = answer(&post_solve(&server, &with_chaos(clause)));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(metric(&server, "kw_serve_chaos_requests_total"), 1.0);

    // The `chaos:` prefix spelling normalizes to the same canonical spec
    // and therefore the same cache cell.
    let prefixed = answer(&post_solve(
        &server,
        &with_chaos(&format!("chaos:{clause}")),
    ));
    assert_eq!(prefixed.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        first.get("size").map(Json::render),
        prefixed.get("size").map(Json::render)
    );
    assert_eq!(metric(&server, "kw_serve_chaos_requests_total"), 2.0);

    // The same (workload, solver, seed) without chaos is a different
    // cell — and a reliable request never ticks the chaos counter.
    let clean = answer(&post_solve(
        &server,
        &solve_body("grid:side=6", "kw:k=2", 1),
    ));
    assert_eq!(clean.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(metric(&server, "kw_serve_chaos_requests_total"), 2.0);

    // Garbage clauses are the client's problem: 400, not 500.
    let bad = post_solve(&server, &with_chaos("drop=banana"));
    assert_eq!(bad.status, 400, "{}", String::from_utf8_lossy(&bad.body));
    let not_a_string = post_solve(
        &server,
        "{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"chaos\": 3}",
    );
    assert_eq!(not_a_string.status, 400);
    assert_eq!(metric(&server, "kw_serve_responses_5xx_total"), 0.0);
    server.shutdown();

    // Restart on the same store: both cells warm, and the chaotic answer
    // is served from the warmed cache without re-solving.
    let second = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    assert_eq!(second.service().warmed(), 2);
    let warmed = answer(&post_solve(&second, &with_chaos(clause)));
    assert_eq!(warmed.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        first.get("size").map(Json::render),
        warmed.get("size").map(Json::render)
    );
    assert_eq!(metric(&second, "kw_serve_cache_misses_total"), 0.0);
    second.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// The `"threads"` knob: thread counts are normalized into the cache
/// and store key (absent and `1` share one cell, `4` is its own),
/// outcomes stay bit-identical across counts, bad values are 400s, and
/// threaded cells replay across a restart.
#[test]
fn threads_knob_is_keyed_normalized_persisted_and_validated() {
    let store = temp_store("threads");
    let _ = std::fs::remove_file(&store);
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    let with_threads = |t: &str| {
        format!(
            "{{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"seed\": 2, \
             \"threads\": {t}}}"
        )
    };

    let four = answer(&post_solve(&server, &with_threads("4")));
    assert_eq!(four.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(four.get("threads").and_then(Json::as_u64), Some(4));
    let hit = answer(&post_solve(&server, &with_threads("4")));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));

    // An omitted count is a *different* cell from threads=4 …
    let one = answer(&post_solve(
        &server,
        &solve_body("grid:side=6", "kw:k=2", 2),
    ));
    assert_eq!(one.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(one.get("threads").and_then(Json::as_u64), Some(1));
    // … but normalizes to the same cell as an explicit threads=1.
    let explicit = answer(&post_solve(&server, &with_threads("1")));
    assert_eq!(explicit.get("cached").and_then(Json::as_bool), Some(true));

    // The engine contract, observed end to end: outcomes are
    // bit-identical across thread counts — only wall times may differ.
    for field in ["dominates", "size", "rounds", "messages", "bits"] {
        assert_eq!(
            four.get(field).map(Json::render),
            one.get(field).map(Json::render),
            "field {field} must not depend on the thread count"
        );
    }

    // Out-of-range or non-integer counts are the client's problem.
    for bad in ["0", "65", "\"two\"", "-1"] {
        let resp = post_solve(&server, &with_threads(bad));
        assert_eq!(
            resp.status,
            400,
            "threads={bad}: {}",
            String::from_utf8_lossy(&resp.body)
        );
    }
    assert_eq!(metric(&server, "kw_serve_responses_5xx_total"), 0.0);
    server.shutdown();

    // Restart on the same store: both cells (1T and 4T) warm, and the
    // threaded answer replays without re-solving.
    let second = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    assert_eq!(second.service().warmed(), 2);
    let warmed = answer(&post_solve(&second, &with_threads("4")));
    assert_eq!(warmed.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        four.get("size").map(Json::render),
        warmed.get("size").map(Json::render)
    );
    second.shutdown();
    let _ = std::fs::remove_file(&store);
}

/// The `"trace": true` solve path: the response carries the span-plane
/// rollup inline, phase time lands on `/metrics`, the store gains trace
/// lines — and a traced re-solve of a cached cell appends its trace
/// without duplicating the cell's record.
#[test]
fn traced_solves_return_rollups_and_persist_trace_lines() {
    let store = temp_store("trace");
    let _ = std::fs::remove_file(&store);
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        ..test_config()
    })
    .unwrap();
    let traced_body =
        "{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"seed\": 3, \"trace\": true}";

    let first = answer(&post_solve(&server, traced_body));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let trace = first.get("trace").expect("traced solve returns a trace");
    assert!(trace.get("rounds").and_then(Json::as_u64).unwrap() > 0);
    let phase_us = trace.get("phase_us").expect("phase_us object");
    for phase in ["deliver", "compute", "barrier"] {
        assert!(phase_us.get(phase).is_some(), "missing phase {phase}");
    }
    assert_eq!(
        trace.get("threads").and_then(Json::as_u64),
        Some(1),
        "the service solves single-threaded"
    );

    // An untraced request of the same cell hits the cache and carries no
    // trace; a traced re-request solves again and returns a fresh trace.
    let untraced_body = "{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"seed\": 3}";
    let hit = answer(&post_solve(&server, untraced_body));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert!(hit.get("trace").is_none());
    let retraced = answer(&post_solve(&server, traced_body));
    assert_eq!(retraced.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(
        trace.get("structure_hash").map(Json::render),
        retraced
            .get("trace")
            .and_then(|t| t.get("structure_hash"))
            .map(Json::render),
        "same cell, same deterministic structure"
    );

    // Phase counters accumulate only from traced solves.
    assert_eq!(metric(&server, "kw_serve_traced_solves_total"), 2.0);
    let resp = http_request(server.addr(), "GET", "/metrics", b"", TIMEOUT).unwrap();
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(
        text.contains("kw_serve_solve_phase_us_total{phase=\"compute\"}"),
        "{text}"
    );

    // A malformed trace flag is the client's problem.
    let bad = post_solve(
        &server,
        "{\"workload\": \"grid:side=6\", \"solver\": \"kw:k=2\", \"trace\": \"yes\"}",
    );
    assert_eq!(bad.status, 400);

    server.shutdown(); // flush + release the store
    let contents = kw_results::store::load_path(&store).unwrap();
    assert_eq!(contents.records.len(), 1, "one record despite two solves");
    assert_eq!(contents.traces.len(), 2, "every traced solve persists");
    assert_eq!(contents.traces[0].solver, "kw:k=2");
    assert_eq!(contents.traces[0].workload, "grid(6x6)");
    assert_eq!(
        contents.traces[0].summary.structure_hash,
        contents.traces[1].summary.structure_hash
    );
    let _ = std::fs::remove_file(&store);
}
