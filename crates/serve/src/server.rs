//! The daemon runtime: a bounded worker pool over a `TcpListener`.
//!
//! Threading model, chosen for a std-only binary:
//!
//! * one **accept thread** pushes `(connection, accepted-at)` pairs into
//!   a bounded [`std::sync::mpsc::sync_channel`];
//! * `workers` **worker threads** share the receiving end behind a
//!   mutex and run connections to completion (keep-alive included);
//! * when the queue is full, the accept thread answers `503` with
//!   `Retry-After` *inline* and hangs up — load is shed at the door
//!   instead of queueing unboundedly (the bounded channel **is** the
//!   backpressure).
//!
//! Graceful shutdown ([`Server::shutdown`]) flips a flag, wakes the
//! accept thread with a self-connection, drops the sender so workers
//! observe channel disconnect *after draining queued connections*, and
//! joins everything. In-flight requests finish; new ones are refused.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{parse_request, Response, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use crate::service::{ServeError, SolveService};

/// How the daemon listens and limits itself.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, smoke runs).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted-but-unclaimed connections to hold before shedding 503s.
    pub queue_depth: usize,
    /// Run store path; `None` disables persistence.
    pub store: Option<PathBuf>,
    /// Per-request wall-clock budget, measured from accept (queue wait
    /// counts — a request that waited out its deadline is shed, not
    /// served late).
    pub deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            store: None,
            deadline: Duration::from_secs(10),
        }
    }
}

/// Seconds suggested to shed clients via `Retry-After`.
const RETRY_AFTER_SECS: u32 = 1;

/// Socket read timeout; also the cadence at which connection loops
/// re-check the shutdown flag and request deadline.
const READ_TICK: Duration = Duration::from_millis(200);

/// How long an idle keep-alive connection is held open.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

struct Shared {
    service: SolveService,
    shutting_down: AtomicBool,
    deadline: Duration,
}

/// A running daemon; dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    sender: Option<SyncSender<(TcpStream, Instant)>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, warms the cache from the store (if any), and starts the
    /// accept and worker threads. Returns once the daemon is serving.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let service = SolveService::new(config.store.as_deref())?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            shutting_down: AtomicBool::new(false),
            deadline: config.deadline,
        });

        let workers = config.workers.max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("kw-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &receiver))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let sender = sender.clone();
            std::thread::Builder::new()
                .name("kw-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &sender))
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            shared,
            sender: Some(sender),
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The request handler, for inspecting cache and telemetry state.
    pub fn service(&self) -> &SolveService {
        &self.shared.service
    }

    /// Whether a client has POSTed `/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.service.shutdown_requested()
    }

    /// Blocks until a client POSTs `/shutdown` (the std-only stand-in
    /// for signal handling), polling at the read-tick cadence.
    pub fn wait_for_shutdown_request(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(READ_TICK);
        }
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept()`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // With the accept thread gone, dropping the last sender
        // disconnects the channel; workers drain what was queued, then
        // see `Err(Disconnected)` and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, sender: &SyncSender<(TcpStream, Instant)>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a straggler) — refuse and stop
        }
        match sender.try_send((stream, Instant::now())) {
            Ok(()) => {}
            Err(TrySendError::Full((stream, accepted))) => shed(shared, stream, accepted),
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Answers a 503 with `Retry-After` directly from the accept thread.
/// Deliberately cheap: one write, no parsing, connection closed.
fn shed(shared: &Shared, mut stream: TcpStream, accepted: Instant) {
    let mut resp = Response::error(503, "server is at capacity; retry shortly");
    resp.retry_after = Some(RETRY_AFTER_SECS);
    resp.close = true;
    let _ = stream.set_write_timeout(Some(READ_TICK));
    let bytes = resp.render();
    shared
        .service
        .telemetry
        .observe_shed(accepted.elapsed().as_micros() as u64);
    let _ = stream.write_all(&bytes);
}

fn worker_loop(shared: &Shared, receiver: &Arc<Mutex<Receiver<(TcpStream, Instant)>>>) {
    loop {
        // Hold the mutex only while dequeuing, never while serving. A
        // poisoned lock (a sibling worker panicked mid-recv) still
        // guards a consistent receiver: recover and keep serving.
        let next = receiver
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv();
        let (stream, accepted) = match next {
            Ok(pair) => pair,
            Err(_) => return, // channel disconnected: drained, shut down
        };
        // A connection that waited out its whole deadline in the queue
        // is shed late rather than served late.
        if accepted.elapsed() >= shared.deadline {
            shed(shared, stream, accepted);
            continue;
        }
        handle_connection(shared, stream, accepted);
    }
}

/// Serves one connection until close, keep-alive timeout, deadline, a
/// protocol violation, or daemon shutdown.
fn handle_connection(shared: &Shared, mut stream: TcpStream, accepted: Instant) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(shared.deadline)).is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // Deadline for the request currently being read/served; reset after
    // each response so keep-alive connections get a fresh budget.
    let mut request_started = accepted;
    let mut idle_since = Instant::now();
    let mut chunk = [0u8; 4096];
    loop {
        // Parse whatever has arrived; serve every complete pipelined
        // request in the buffer before reading more.
        loop {
            match parse_request(&buf) {
                Ok(Some((request, consumed))) => {
                    buf.drain(..consumed);
                    let guard = shared.service.telemetry.enter();
                    let mut response = shared.service.handle(&request);
                    if request.wants_close() || shared.shutting_down.load(Ordering::SeqCst) {
                        response.close = true;
                    }
                    let bytes = response.render();
                    // Count the request before the client can read its
                    // response: a scrape it sends next must see it done.
                    drop(guard);
                    shared.service.telemetry.observe(
                        response.status,
                        request_started.elapsed().as_micros() as u64,
                    );
                    let ok = stream.write_all(&bytes).is_ok();
                    if !ok || response.close {
                        return;
                    }
                    request_started = Instant::now();
                    idle_since = Instant::now();
                }
                Ok(None) => break, // need more bytes
                Err(violation) => {
                    let response = Response::for_violation(&violation);
                    let bytes = response.render();
                    shared.service.telemetry.observe(
                        response.status,
                        request_started.elapsed().as_micros() as u64,
                    );
                    let _ = stream.write_all(&bytes);
                    return;
                }
            }
        }

        if shared.shutting_down.load(Ordering::SeqCst) && buf.is_empty() {
            return; // between requests during a drain: close quietly
        }
        let mid_request = !buf.is_empty();
        if mid_request && request_started.elapsed() >= shared.deadline {
            let mut response = Response::error(408, "request deadline exceeded");
            response.close = true;
            let bytes = response.render();
            shared
                .service
                .telemetry
                .observe(408, request_started.elapsed().as_micros() as u64);
            let _ = stream.write_all(&bytes);
            return;
        }
        if !mid_request && idle_since.elapsed() >= KEEP_ALIVE_IDLE {
            return; // idle keep-alive expired
        }

        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if buf.is_empty() {
                    // First bytes of a new request: the deadline clock
                    // starts now, not when the connection went idle.
                    request_started = Instant::now();
                }
                buf.extend_from_slice(&chunk[..n]);
                // Defense in depth: parser limits make oversized inputs
                // fail fast, so the buffer stays near one request's size.
                debug_assert!(buf.len() <= MAX_HEADER_BYTES + MAX_BODY_BYTES + chunk.len());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Read tick: loop around to re-check shutdown/deadline.
            }
            Err(_) => return,
        }
    }
}
