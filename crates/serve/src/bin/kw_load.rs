//! `kw-load` — load generator for a running `kw-serve`.
//!
//! ```text
//! kw-load --addr HOST:PORT [--mix smoke|small|chaos|scaling] [--concurrency N]
//!         [--requests N] [--timeout-ms N]
//! ```
//!
//! Replays the named request mix at the target concurrency and prints
//! req/s and latency percentiles.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

use kw_bench::mix;
use kw_serve::run_load;

fn usage() -> ! {
    eprintln!(
        "usage: kw-load --addr HOST:PORT [--mix {}] [--concurrency N] \
         [--requests N] [--timeout-ms N]",
        mix::MIX_NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut mix_name = "smoke".to_string();
    let mut concurrency = 4usize;
    let mut requests = 64usize;
    let mut timeout = Duration::from_secs(30);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("kw-load: {flag} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--mix" => mix_name = value("--mix"),
            "--concurrency" => concurrency = parse_num(&value("--concurrency"), "--concurrency"),
            "--requests" => requests = parse_num(&value("--requests"), "--requests"),
            "--timeout-ms" => {
                timeout = Duration::from_millis(parse_num(&value("--timeout-ms"), "--timeout-ms"))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("kw-load: --addr is required");
        usage();
    };
    let addr: SocketAddr = match addr.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(a)) => a,
        _ => {
            eprintln!("kw-load: cannot resolve {addr:?}");
            return ExitCode::FAILURE;
        }
    };
    let Some(entries) = mix::by_name(&mix_name) else {
        eprintln!(
            "kw-load: unknown mix {mix_name:?}; available: {}",
            mix::MIX_NAMES.join(", ")
        );
        return ExitCode::FAILURE;
    };

    let report = run_load(addr, &mix_name, &entries, concurrency, requests, timeout);
    println!("{}", report.render());

    if report.transport_errors > 0 || report.completed == 0 {
        eprintln!(
            "kw-load: {} transport errors, {} completed",
            report.transport_errors, report.completed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("kw-load: {flag} got unparseable value {text:?}");
        usage();
    })
}
