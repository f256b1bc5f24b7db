//! Load generation against a running daemon, plus the blocking HTTP
//! client it (and the tests) use.
//!
//! [`run_load`] replays a named request mix (`kw_bench::mix`) at a
//! target concurrency and reports throughput and latency percentiles —
//! computed with the same [`kw_results::Percentiles`] rollup the sweep
//! pipeline uses, so a load report and a `/metrics` scrape speak the
//! same nearest-rank language.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use kw_bench::mix::MixEntry;
use kw_results::Percentiles;

/// A response as the minimal client sees it.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

/// Sends one HTTP/1.1 request over a fresh connection and reads the
/// response. Blocking, `Content-Length`-framed only — the counterpart
/// of the daemon's deliberately small server side.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: kw-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;

    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(resp) = parse_client_response(&buf)? {
            return Ok(resp);
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "response incomplete before timeout",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return parse_client_response(&buf)?.ok_or_else(|| {
                    std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-response")
                })
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

fn parse_client_response(buf: &[u8]) -> std::io::Result<Option<ClientResponse>> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => i,
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    std::io::Error::new(ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    Ok(Some(ClientResponse {
        status,
        body: buf[body_start..body_start + content_length].to_vec(),
    }))
}

/// What one load run produced.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Mix name the run replayed.
    pub mix: String,
    /// Worker threads that issued requests.
    pub concurrency: usize,
    /// Requests that completed with any HTTP status.
    pub completed: usize,
    /// Responses per status class.
    pub ok_2xx: usize,
    /// 4xx responses (spec errors; none expected from a valid mix).
    pub err_4xx: usize,
    /// 5xx responses (including 503 sheds).
    pub err_5xx: usize,
    /// Transport-level failures (connect/read errors, timeouts).
    pub transport_errors: usize,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Latency rollup over completed requests, in milliseconds.
    pub latency_ms: Percentiles,
}

impl LoadReport {
    /// Completed requests per second over the run's wall clock.
    pub fn requests_per_second(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// Renders the human-readable report (`kw-load`'s stdout).
    pub fn render(&self) -> String {
        format!(
            "mix={} concurrency={} completed={} ({} 2xx, {} 4xx, {} 5xx, {} transport) \
             in {:.2}s = {:.1} req/s\nlatency ms: p50={:.3} p95={:.3} p99={:.3} \
             mean={:.3} max={:.3}",
            self.mix,
            self.concurrency,
            self.completed,
            self.ok_2xx,
            self.err_4xx,
            self.err_5xx,
            self.transport_errors,
            self.wall.as_secs_f64(),
            self.requests_per_second(),
            self.latency_ms.p50,
            self.latency_ms.p95,
            self.latency_ms.p99,
            self.latency_ms.mean,
            self.latency_ms.max,
        )
    }
}

/// Replays `requests` solve calls drawn round-robin from `mix_entries`
/// across `concurrency` threads, each over a fresh connection.
pub fn run_load(
    addr: SocketAddr,
    mix_name: &str,
    mix_entries: &[MixEntry],
    concurrency: usize,
    requests: usize,
    timeout: Duration,
) -> LoadReport {
    // Status and latency (ms) of a completed request; Err is transport.
    type Completion = Result<(u16, f64), ()>;
    let concurrency = concurrency.max(1);
    let next = Arc::new(AtomicUsize::new(0));
    let results: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::with_capacity(requests)));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            let next = Arc::clone(&next);
            let results = Arc::clone(&results);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    return;
                }
                // `get` + `max(1)` keeps an empty mix a no-op run
                // instead of a modulo-by-zero panic.
                let Some(entry) = mix_entries.get(i % mix_entries.len().max(1)) else {
                    return;
                };
                let chaos = if entry.chaos.is_empty() {
                    String::new()
                } else {
                    format!(", \"chaos\": {}", json_string(&entry.chaos))
                };
                // `threads: 1` is the daemon's default — omitting it
                // keeps 1-thread bodies byte-compatible with old mixes.
                let threads = if entry.threads == 1 {
                    String::new()
                } else {
                    format!(", \"threads\": {}", entry.threads)
                };
                let body = format!(
                    "{{\"workload\": {}, \"solver\": {}, \"seed\": {}{chaos}{threads}}}",
                    json_string(&entry.workload),
                    json_string(&entry.solver),
                    entry.seed
                );
                let sent = Instant::now();
                let outcome = http_request(addr, "POST", "/solve", body.as_bytes(), timeout)
                    .map(|resp| (resp.status, sent.elapsed().as_secs_f64() * 1e3))
                    .map_err(|_| ());
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(outcome);
            });
        }
    });
    let wall = start.elapsed();

    // `thread::scope` joined every worker above, so the Arc is unique;
    // the fallback still drains the data instead of panicking.
    let results = match Arc::try_unwrap(results) {
        Ok(mutex) => mutex.into_inner().unwrap_or_else(PoisonError::into_inner),
        Err(shared) => shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .split_off(0),
    };
    let mut latencies = Vec::new();
    let (mut ok_2xx, mut err_4xx, mut err_5xx, mut transport_errors) = (0, 0, 0, 0);
    for r in &results {
        match r {
            Ok((status, ms)) => {
                latencies.push(*ms);
                match status {
                    200..=299 => ok_2xx += 1,
                    400..=499 => err_4xx += 1,
                    _ => err_5xx += 1,
                }
            }
            Err(()) => transport_errors += 1,
        }
    }
    LoadReport {
        mix: mix_name.to_string(),
        concurrency,
        completed: latencies.len(),
        ok_2xx,
        err_4xx,
        err_5xx,
        transport_errors,
        wall,
        latency_ms: Percentiles::from_samples(&latencies),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
