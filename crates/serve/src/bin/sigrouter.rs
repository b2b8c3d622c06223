//! The `sigrouter` front door: consistent-hash scale-out across N
//! `sigserve` shards.
//!
//! ```text
//! sigrouter --shards HOST:PORT,HOST:PORT[,...] [--addr 127.0.0.1:4714]
//! ```
//!
//! Clients speak the normal sigserve wire protocol to the router, on
//! the daemon's own transport (answers in request order per connection);
//! `sim`/`sim.batch`/`session.open` frames are forwarded byte-for-byte
//! to the shard that owns the request's circuit (jump consistent hash
//! over the circuit fingerprint), so every shard's circuit and program
//! caches stay hot and disjoint. `stats` aggregates across the fleet,
//! `trace` concatenates every shard's spans, and `shutdown` brings the
//! shards down before the router acknowledges and exits. See
//! `docs/architecture.md` § Async transport & sharding.

use std::net::TcpListener;

use sigserve::router::serve_router;

fn usage() -> ! {
    eprintln!("usage: sigrouter --shards HOST:PORT,... [--addr HOST:PORT]");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:4714".to_string();
    let mut shards: Vec<String> = Vec::new();

    let mut args = sigserve::cli::CliArgs::from_env();
    let require = |v: Option<String>| v.unwrap_or_else(|| usage());
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--addr" => addr = require(args.value()),
            "--shards" => {
                shards.extend(
                    require(args.value())
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                );
            }
            _ => usage(),
        }
    }
    if shards.is_empty() {
        usage();
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sigrouter: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sigrouter: listening on {addr}, routing to {} shard(s): {}",
        shards.len(),
        shards.join(", ")
    );
    if let Err(e) = serve_router(listener, shards) {
        eprintln!("sigrouter: accept loop failed: {e}");
        std::process::exit(1);
    }
}
