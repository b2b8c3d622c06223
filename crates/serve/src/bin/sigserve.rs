//! The `sigserve` daemon: a resident simulation service speaking
//! newline-delimited JSON over TCP or stdio.
//!
//! ```text
//! sigserve [--addr 127.0.0.1:4715 | --stdio]
//!          [--workers N] [--queue N] [--cache N] [--sessions N]
//!          [--models-dir PATH] [--max-frame BYTES]
//!          [--max-inflight N] [--admission N]
//!          [--preload NAME[/LIBRARY][,NAME...]] [--trace PATH]
//! ```
//!
//! TCP is served by one epoll reactor on the main thread (pipelined
//! requests, in-order responses, admission control). `--max-inflight`
//! bounds the per-connection pipelining window and `--admission` the
//! daemon-wide heavy requests in flight.
//!
//! `--trace PATH` forces `SIG_OBS=trace` (span journaling on) and writes
//! whatever the journal still holds at exit as a Chrome trace-event JSON
//! file — open it in `chrome://tracing` or Perfetto. Live traffic can
//! also be captured without restarting via `sigctl trace`, which drains
//! the same journal over the wire.
//!
//! `--stdio` reads requests from stdin and writes responses to stdout
//! (one JSON object per line) — the CI smoke mode. Otherwise the daemon
//! listens on `--addr` (default `127.0.0.1:4715`) and serves until a
//! client sends a `shutdown` request; in-flight work drains first.
//! `--preload` warms the model registry before accepting traffic so the
//! first request doesn't pay the training/loading cost; each entry is a
//! preset name, optionally suffixed with `/native` (or `/nor-only`, the
//! default) to select the cell library — e.g. `--preload ci,ci/native`.

use std::net::TcpListener;

use sigserve::{serve_stdio, serve_tcp, Service, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: sigserve [--addr HOST:PORT | --stdio] [--workers N] [--queue N] \
         [--cache N] [--sessions N] [--models-dir PATH] [--max-frame BYTES] \
         [--max-inflight N] [--admission N] [--preload NAME,...] [--trace PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServiceConfig::default();
    let mut addr = "127.0.0.1:4715".to_string();
    let mut stdio = false;
    let mut preload: Vec<String> = Vec::new();
    let mut trace: Option<std::path::PathBuf> = None;

    let mut args = sigserve::cli::CliArgs::from_env();
    let require = |v: Option<String>| v.unwrap_or_else(|| usage());
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--stdio" => stdio = true,
            "--addr" => addr = require(args.value()),
            "--workers" => config.workers = parse(args.parse()),
            "--queue" => config.queue_capacity = parse(args.parse()),
            "--cache" => config.cache_capacity = parse(args.parse()),
            "--sessions" => config.session_capacity = parse(args.parse()),
            "--max-frame" => config.max_frame = parse(args.parse()),
            "--max-inflight" => config.max_inflight = parse(args.parse()),
            "--admission" => config.admission_budget = parse(args.parse()),
            "--models-dir" => config.models_dir = require(args.value()).into(),
            "--trace" => trace = Some(require(args.value()).into()),
            "--preload" => {
                preload.extend(
                    require(args.value())
                        .split(',')
                        .map(|s| s.trim().to_string()),
                );
            }
            _ => usage(),
        }
    }

    if trace.is_some() {
        // The flag implies full tracing regardless of SIG_OBS.
        sigobs::set_mode(sigobs::ObsMode::Trace);
    }

    let service = Service::new(config);
    for entry in &preload {
        let (name, library) = match entry.split_once('/') {
            Some((n, l)) => (n, l),
            None => (entry.as_str(), "nor-only"),
        };
        if let Err(e) = service.registry().get_or_load(name, library) {
            eprintln!("sigserve: preload {entry:?} failed: {e}");
            std::process::exit(1);
        }
    }

    if stdio {
        serve_stdio(&service);
    } else {
        let listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("sigserve: cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("sigserve: listening on {addr}");
        if let Err(e) = serve_tcp(&service, listener) {
            eprintln!("sigserve: accept loop failed: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &trace {
        if let Err(e) = sigobs::write_chrome_trace(path) {
            eprintln!("sigserve: cannot write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("sigserve: wrote trace {}", path.display());
    }
}

fn parse<T>(value: Option<T>) -> T {
    value.unwrap_or_else(|| usage())
}
