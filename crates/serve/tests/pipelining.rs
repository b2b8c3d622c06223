//! Pipelining parity: 64 mixed frames fired down ONE connection without
//! awaiting a single response, against the epoll transport. Every reply
//! must be byte-identical to the sequential golden path (a fresh,
//! identically-configured daemon driven one request at a time) AND
//! arrive in request order — the transport's in-order writeback
//! contract, exercised end to end through sim, sim.batch, session
//! lifecycle, and error frames.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use sigserve::protocol::{
    decode_response, encode_request, CircuitSource, Request, Response, SessionEdit, SimRequest,
};
use sigserve::{serve_tcp, Service, ServiceConfig};

// The workspace target dir (tests run with cwd = crates/serve): shares
// the ci model cache with every other test and the CI smoke job.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

/// A small session-friendly netlist with named primary inputs.
const SESSION_CIRCUIT: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

fn sim(circuit: CircuitSource, seed: u64) -> SimRequest {
    SimRequest {
        circuit,
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

/// The 64-frame mixed plan, ids `1..=64` in send order: plain sims with
/// repeated sources (cache hits), fleet batches, three session opens,
/// interleaved deltas, a close, and a delta against the closed session
/// (an error frame — ordering and parity apply to errors too).
fn request_plan() -> Vec<Request> {
    let mut plan = Vec::new();
    for id in 1..=64u64 {
        let request = match id {
            5 | 15 | 25 => Request::SessionOpen {
                id,
                session: id / 5, // sessions 1, 3, 5
                sim: sim(CircuitSource::Inline(SESSION_CIRCUIT.to_string()), id),
            },
            10 | 20 | 30 | 40 => Request::SessionDelta {
                id,
                session: if id % 20 == 0 { 3 } else { 1 },
                edits: vec![SessionEdit {
                    net: if id % 20 == 0 { "b" } else { "a" }.to_string(),
                    initial_high: id % 3 == 0,
                    toggles: vec![1.0e-10 + id as f64 * 1.0e-12, 4.0e-10],
                }],
            },
            50 => Request::SessionClose { id, session: 1 },
            // After the close: an unknown-session error, byte-identical
            // and in-order like any other response.
            55 => Request::SessionDelta {
                id,
                session: 1,
                edits: vec![SessionEdit {
                    net: "a".to_string(),
                    initial_high: false,
                    toggles: vec![2.0e-10],
                }],
            },
            _ if id % 8 == 0 => Request::SimBatch {
                id,
                sim: sim(CircuitSource::Name("c17".into()), 500 + id),
                runs: 3,
            },
            // Seeds repeat with period 7 so several frames share a
            // (source, seed) signature and must answer identically.
            _ => Request::Sim {
                id,
                sim: sim(CircuitSource::Name("c17".into()), 900 + id % 7),
            },
        };
        plan.push(request);
    }
    assert_eq!(plan.len(), 64);
    plan
}

/// A daemon whose scheduling cannot reorder: one worker (strict FIFO
/// through the queue) and a queue deep enough that the full pipelined
/// burst is admitted without overload rejects.
fn spawn_daemon() -> (
    Arc<Service>,
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
) {
    let service = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        max_inflight: 64,
        admission_budget: 512,
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
    };
    (service, addr, server)
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(
        stream,
        "{}",
        encode_request(&Request::Shutdown { id: 9999 })
    )
    .expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("ack");
}

/// Sends every frame, then reads: nothing is awaited while sending.
fn run_pipelined(addr: std::net::SocketAddr, plan: &[Request]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for request in plan {
        writeln!(stream, "{}", encode_request(request)).expect("send");
    }
    let reader = BufReader::new(stream);
    reader
        .lines()
        .take(plan.len())
        .map(|l| l.expect("read"))
        .collect()
}

/// The golden path: one frame at a time, each response awaited before
/// the next frame is sent.
fn run_sequential(addr: std::net::SocketAddr, plan: &[Request]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines = Vec::new();
    for request in plan {
        writeln!(stream, "{}", encode_request(request)).expect("send");
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "daemon closed mid-plan"
        );
        lines.push(line.trim_end().to_string());
    }
    lines
}

#[test]
fn pipelined_burst_is_byte_identical_to_sequential_golden_path() {
    // Shared on-disk ci models so both daemons serve from the same
    // artifact (train once, load twice).
    sigserve::ModelRegistry::new(MODELS_DIR)
        .get_or_load("ci", "nor-only")
        .expect("ci models");
    let plan = request_plan();

    let (golden_service, golden_addr, golden_server) = spawn_daemon();
    let golden = run_sequential(golden_addr, &plan);

    let (service, addr, server) = spawn_daemon();
    let pipelined = run_pipelined(addr, &plan);

    assert_eq!(pipelined.len(), 64, "every frame answered");

    // In request order: response i answers request i (ids 1..=64 in
    // send order), even though 64 frames were in flight at once.
    for (i, line) in pipelined.iter().enumerate() {
        let response = decode_response(line).expect("decodable");
        assert_eq!(
            response.id(),
            Some(i as u64 + 1),
            "response {i} out of order: {line}"
        );
    }

    // Byte-identical to the sequential golden path, frame by frame —
    // including the session baselines, the fleet batches, and the
    // unknown-session error after the close.
    for (i, (p, g)) in pipelined.iter().zip(golden.iter()).enumerate() {
        assert_eq!(p, g, "frame {} diverged from golden path", i + 1);
    }

    // The error frame really was an error (the plan exercised one).
    match decode_response(&pipelined[54]).expect("decodable") {
        Response::Error { id, .. } => assert_eq!(id, Some(55)),
        other => panic!("frame 55 should be unknown-session, got {other:?}"),
    }

    // The transport observed actual pipelining; the golden daemon (one
    // request in flight at a time) observed none.
    let stats = service.stats();
    assert!(
        stats.frames_pipelined > 0,
        "burst must be seen as pipelined, stats: {stats:?}"
    );
    assert_eq!(golden_service.stats().frames_pipelined, 0);
    assert_eq!(stats.completed, golden_service.stats().completed);

    shutdown(addr);
    shutdown(golden_addr);
    server.join().expect("server exits");
    golden_server.join().expect("golden server exits");
}
