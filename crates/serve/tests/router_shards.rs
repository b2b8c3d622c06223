//! Router end-to-end: two in-process shard daemons behind a `sigrouter`
//! front door. Proves (1) responses through the router are
//! byte-identical to a standalone daemon serving the same plan, (2) the
//! consistent hash keeps each circuit's cache entry on exactly ONE
//! shard (hot disjoint caches — the scale-out contract), (3) sessions
//! pin to the shard that owns their circuit, and (4) control-plane
//! aggregation (`stats` sums, `shutdown` fans out).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use sigserve::protocol::{
    decode_response, encode_request, CircuitSource, ErrorKind, Request, Response, SessionEdit,
    SimRequest,
};
use sigserve::router::serve_router;
use sigserve::{serve_tcp, Service, ServiceConfig};

// The workspace target dir (tests run with cwd = crates/serve): shares
// the ci model cache with every other test and the CI smoke job.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

fn sim(name: &str, seed: u64) -> SimRequest {
    SimRequest {
        circuit: CircuitSource::Name(name.to_string()),
        models: "ci".to_string(),
        library: "nor-only".to_string(),
        seed,
        mu: 60e-12,
        sigma: 25e-12,
        transitions: 3,
        compare: false,
        timing: false,
        timings: false,
    }
}

fn spawn_shard() -> (
    Arc<Service>,
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
) {
    let service = Service::new(ServiceConfig {
        workers: 1,
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener).expect("shard serves"))
    };
    (service, addr, server)
}

/// The mixed plan: three circuits, several seeds each, repeats for
/// cache hits, plus a session lifecycle on c17. Ids are send order.
fn request_plan() -> Vec<Request> {
    let mut plan = Vec::new();
    let mut id = 0u64;
    // Two identical rounds: round one parses (miss), round two hits the
    // warm per-shard caches.
    for _round in 0..2 {
        for name in ["c17", "c499", "c1355"] {
            for seed in 0..3u64 {
                id += 1;
                plan.push(Request::Sim {
                    id,
                    sim: sim(name, seed),
                });
            }
        }
    }
    id += 1;
    plan.push(Request::SessionOpen {
        id,
        session: 42,
        sim: sim("c17", 77),
    });
    id += 1;
    plan.push(Request::SessionDelta {
        id,
        session: 42,
        // `1` is a c17 primary input in the embedded ISCAS netlist.
        edits: vec![SessionEdit {
            net: "1".to_string(),
            initial_high: true,
            toggles: vec![2.0e-10, 3.5e-10],
        }],
    });
    id += 1;
    plan.push(Request::SessionClose { id, session: 42 });
    plan
}

/// Drives the plan one awaited request at a time; returns the raw
/// response line per request.
fn run_sequential(addr: std::net::SocketAddr, plan: &[Request]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines = Vec::new();
    for request in plan {
        writeln!(stream, "{}", encode_request(request)).expect("send");
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "closed mid-plan"
        );
        lines.push(line.trim_end().to_string());
    }
    lines
}

fn one_shot(addr: std::net::SocketAddr, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{}", encode_request(request)).expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    decode_response(line.trim_end()).expect("decodable")
}

#[test]
fn router_splits_caches_across_shards_and_stays_byte_identical() {
    sigserve::ModelRegistry::new(MODELS_DIR)
        .get_or_load("ci", "nor-only")
        .expect("ci models");
    let plan = request_plan();

    // The reference: one standalone daemon, same plan.
    let (_, solo_addr, solo_server) = spawn_shard();
    let golden = run_sequential(solo_addr, &plan);

    // The fleet: two shards behind the router.
    let (shard_a, addr_a, server_a) = spawn_shard();
    let (shard_b, addr_b, server_b) = spawn_shard();
    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = router_listener.local_addr().expect("addr");
    let router = std::thread::spawn(move || {
        serve_router(
            router_listener,
            vec![addr_a.to_string(), addr_b.to_string()],
        )
        .expect("router serves")
    });

    let through_router = run_sequential(router_addr, &plan);
    for (i, (r, g)) in through_router.iter().zip(golden.iter()).enumerate() {
        assert_eq!(r, g, "request {}: router response diverged", i + 1);
    }

    // Local control plane: ping answers without touching a shard;
    // an unknown session errs at the router with the daemon's message.
    assert_eq!(
        one_shot(router_addr, &Request::Ping { id: 1000 }),
        Response::Pong { id: 1000 }
    );
    match one_shot(
        router_addr,
        &Request::SessionDelta {
            id: 1001,
            session: 777,
            edits: vec![],
        },
    ) {
        Response::Error { id, kind, message } => {
            assert_eq!(id, Some(1001));
            assert_eq!(kind, ErrorKind::UnknownSession);
            assert_eq!(message, "session 777 is not open on this connection");
        }
        other => panic!("expected unknown-session, got {other:?}"),
    }

    // Disjoint hot caches: every circuit parsed on exactly one shard,
    // and BOTH shards took real traffic (the hash actually splits the
    // three benchmarks — pinned by the router unit test).
    let stats_a = shard_a.stats();
    let stats_b = shard_b.stats();
    assert!(
        stats_a.completed > 0 && stats_b.completed > 0,
        "both shards must serve: a={}, b={}",
        stats_a.completed,
        stats_b.completed
    );
    assert_eq!(
        stats_a.cache_entries + stats_b.cache_entries,
        3,
        "each circuit cached on exactly one shard: a={}, b={}",
        stats_a.cache_entries,
        stats_b.cache_entries
    );
    assert_eq!(
        stats_a.cache_misses + stats_b.cache_misses,
        3,
        "one parse per circuit fleet-wide"
    );
    // Repeats hit warm per-shard caches: 18 sims (3 misses + 15 hits)
    // plus the session open re-resolving c17 from cache (deltas serve
    // from resident session state, no cache lookup).
    assert_eq!(stats_a.cache_hits + stats_b.cache_hits, 16);

    // Aggregated stats through the router sum the fleet.
    match one_shot(router_addr, &Request::Stats { id: 1002 }) {
        Response::Stats { stats, .. } => {
            assert_eq!(stats.completed, stats_a.completed + stats_b.completed);
            assert_eq!(stats.cache_entries, 3);
            assert!(stats.model_sets.contains(&"ci/nor-only".to_string()));
            assert_eq!(stats.workers, 2, "one worker per shard, summed");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Shutdown fans out: the router acks, both shards exit, the router
    // accept loop exits.
    assert_eq!(
        one_shot(router_addr, &Request::Shutdown { id: 1003 }),
        Response::ShuttingDown { id: 1003 }
    );
    router.join().expect("router exits");
    server_a.join().expect("shard a exits");
    server_b.join().expect("shard b exits");

    one_shot(solo_addr, &Request::Shutdown { id: 1004 });
    solo_server.join().expect("solo exits");
}
