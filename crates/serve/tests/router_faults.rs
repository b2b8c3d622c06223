//! Shard failure through `sigrouter`: one real shard and one test
//! listener that reads a single frame and hangs up. Every pipelined
//! frame still gets exactly one response, in request order; the frames
//! routed to the dead shard get the typed `shard N unreachable` error,
//! and the live shard keeps answering on the same connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sigserve::protocol::{
    decode_response, encode_request, CircuitSource, ErrorKind, Request, Response, SimRequest,
};
use sigserve::router::{route, serve_router};
use sigserve::{serve_tcp, Service, ServiceConfig};

// The workspace target dir (tests run with cwd = crates/serve): shares
// the ci model cache with every other test and the CI smoke job.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

fn sim(id: u64, name: &str) -> Request {
    Request::Sim {
        id,
        sim: SimRequest {
            circuit: CircuitSource::Name(name.to_string()),
            models: "ci".to_string(),
            library: "nor-only".to_string(),
            seed: id,
            transitions: 3,
            timing: false,
            ..SimRequest::default()
        },
    }
}

/// Sends `requests` in one write and reads one response per request.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    requests: &[Request],
) -> Vec<Response> {
    let burst: String = requests.iter().map(|r| encode_request(r) + "\n").collect();
    stream.write_all(burst.as_bytes()).expect("send");
    requests
        .iter()
        .map(|_| {
            let mut line = String::new();
            assert!(
                reader
                    .read_line(&mut line)
                    .expect("response before the timeout")
                    > 0,
                "router closed the connection"
            );
            decode_response(line.trim_end()).expect("decodable")
        })
        .collect()
}

fn is_unreachable(response: &Response, want: u64) -> bool {
    matches!(
        response,
        Response::Error { id: Some(id), kind: ErrorKind::Simulation, message }
            if *id == want && message.starts_with("shard 0 unreachable")
    )
}

#[test]
fn dead_shard_frames_get_typed_errors_in_order_and_live_shard_keeps_serving() {
    sigserve::ModelRegistry::new(MODELS_DIR)
        .get_or_load("ci", "nor-only")
        .expect("ci models");
    // Shard 0 (c499's shard of two) is the faulty listener, shard 1
    // (c17's) a real daemon.
    assert_eq!(route(&CircuitSource::Name("c499".into()), 2), 0);
    assert_eq!(route(&CircuitSource::Name("c17".into()), 2), 1);

    let dead = TcpListener::bind("127.0.0.1:0").expect("bind dead shard");
    let dead_addr = dead.local_addr().expect("addr");
    let dead_shard = std::thread::spawn(move || {
        let (stream, _) = dead.accept().expect("router connects");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("one frame");
        // Dropping the stream and the listener hangs up and refuses
        // every later connection (the shutdown fan-out included).
    });

    let service = Service::new(ServiceConfig {
        workers: 1,
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind live shard");
    let live_addr = listener.local_addr().expect("addr");
    let live_shard = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener).expect("shard serves"))
    };

    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = router_listener.local_addr().expect("addr");
    let router = std::thread::spawn(move || {
        serve_router(
            router_listener,
            vec![dead_addr.to_string(), live_addr.to_string()],
        )
        .expect("router serves")
    });

    let mut stream = TcpStream::connect(router_addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let responses = exchange(
        &mut stream,
        &mut reader,
        &[
            sim(1, "c17"),
            sim(2, "c499"),
            sim(3, "c17"),
            sim(4, "c499"),
            Request::Ping { id: 5 },
            sim(6, "c499"),
            sim(7, "c17"),
        ],
    );
    let ids: Vec<Option<u64>> = responses.iter().map(Response::id).collect();
    assert_eq!(ids, (1..=7).map(Some).collect::<Vec<_>>(), "{responses:?}");
    for (i, response) in responses.iter().enumerate() {
        let id = i as u64 + 1;
        match id {
            2 | 4 | 6 => assert!(is_unreachable(response, id), "{response:?}"),
            5 => assert_eq!(*response, Response::Pong { id }),
            _ => assert!(matches!(response, Response::Sim { .. }), "{response:?}"),
        }
    }
    dead_shard.join().expect("dead shard thread");

    // The same connection keeps working: the dead shard's frames fail
    // fast, the live shard still answers.
    let later = exchange(&mut stream, &mut reader, &[sim(8, "c499"), sim(9, "c17")]);
    assert!(is_unreachable(&later[0], 8), "{later:?}");
    assert!(matches!(later[1], Response::Sim { id: 9, .. }), "{later:?}");
    assert_eq!(service.stats().completed, 4, "c17 frames 1, 3, 7 and 9");

    let responses = exchange(&mut stream, &mut reader, &[Request::Shutdown { id: 10 }]);
    assert_eq!(responses, vec![Response::ShuttingDown { id: 10 }]);
    router.join().expect("router exits");
    live_shard.join().expect("live shard exits");
}
