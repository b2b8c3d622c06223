//! End-to-end observability: a daemon in full trace mode serving real
//! traffic, with all three reporting surfaces asserted coherent —
//! opt-in per-request `timings` breakdowns, extended `stats`
//! quantiles, and the `trace` journal drain (including the Chrome
//! trace-event export `sigctl trace` writes).
//!
//! Everything lives in ONE test function: the observation mode and the
//! histogram registry are process-global, so this file being its own
//! test binary (= its own process) is what isolates it from the rest
//! of the suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use sigserve::protocol::{
    decode_response, encode_request, CircuitSource, Request, Response, SessionEdit, SimRequest,
};
use sigserve::{serve_tcp, Service, ServiceConfig};

// Shares the ci model cache with the rest of the workspace tests.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

fn sim(seed: u64) -> SimRequest {
    SimRequest {
        circuit: CircuitSource::Name("c17".into()),
        models: "ci".into(),
        seed,
        timing: false,
        timings: true,
        ..SimRequest::default()
    }
}

/// One synchronous request/response round trip (one frame in flight at
/// a time, so responses arrive in order).
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Response {
    writeln!(stream, "{}", encode_request(request)).expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    decode_response(line.trim_end()).expect("decodable response")
}

#[test]
fn traced_daemon_reports_timings_stats_and_spans() {
    // Full tracing for the whole process: counters + span journal.
    sigobs::set_mode(sigobs::ObsMode::Trace);
    assert!(sigobs::counting() && sigobs::tracing());

    sigserve::ModelRegistry::new(MODELS_DIR)
        .get_or_load("ci", "nor-only")
        .expect("ci models");
    let service = Service::new(ServiceConfig {
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // ---- opt-in timings on plain sims ---------------------------------
    for id in 1..=4u64 {
        let response = exchange(&mut stream, &mut reader, &Request::Sim { id, sim: sim(id) });
        let Response::Sim { result, .. } = response else {
            panic!("expected sim, got {response:?}");
        };
        let t = result
            .timings
            .expect("timings opt-in must echo a breakdown");
        assert!(t.queue_s >= 0.0 && t.resolve_s >= 0.0);
        assert!(t.execute_s > 0.0, "execution takes nonzero time");
        assert!(
            t.total_s >= t.execute_s,
            "the dispatch-to-response total covers the engine call: {t:?}"
        );
    }
    // Without the opt-in, the reply carries no breakdown.
    let silent = exchange(
        &mut stream,
        &mut reader,
        &Request::Sim {
            id: 5,
            sim: SimRequest {
                timings: false,
                ..sim(5)
            },
        },
    );
    let Response::Sim { result, .. } = silent else {
        panic!("expected sim, got {silent:?}");
    };
    assert!(result.timings.is_none());

    // ---- fleet: every entry echoes the one shared breakdown -----------
    let batch = exchange(
        &mut stream,
        &mut reader,
        &Request::SimBatch {
            id: 6,
            sim: sim(60),
            runs: 3,
        },
    );
    let Response::SimBatch { results, .. } = batch else {
        panic!("expected batch, got {batch:?}");
    };
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.timings, results[0].timings);
        assert!(r.timings.as_ref().expect("fleet timings").total_s > 0.0);
    }

    // ---- sessions: deltas inherit the opening request's opt-in --------
    let opened = exchange(
        &mut stream,
        &mut reader,
        &Request::SessionOpen {
            id: 7,
            session: 1,
            sim: sim(70),
        },
    );
    let Response::Session { result, .. } = opened else {
        panic!("expected session, got {opened:?}");
    };
    assert!(result.timings.is_some(), "open echoes a breakdown");
    let deltad = exchange(
        &mut stream,
        &mut reader,
        &Request::SessionDelta {
            id: 8,
            session: 1,
            edits: vec![SessionEdit {
                net: "1".into(),
                initial_high: true,
                toggles: vec![2.0e-10],
            }],
        },
    );
    let Response::Sim { result, .. } = deltad else {
        panic!("expected sim, got {deltad:?}");
    };
    let t = result.timings.expect("delta inherits the session's opt-in");
    assert!(t.total_s > 0.0);

    // ---- extended stats: non-zero quantiles, coherent ordering --------
    let stats = exchange(&mut stream, &mut reader, &Request::Stats { id: 9 });
    let Response::Stats { stats, .. } = stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert_eq!(stats.obs_mode, "trace");
    assert!(stats.sim_p50_s > 0.0, "sim latency histogram recorded");
    assert!(stats.sim_p99_s >= stats.sim_p50_s);
    assert!(stats.batch_p50_s > 0.0);
    assert!(stats.delta_p50_s > 0.0);
    assert!(stats.queue_p99_s >= stats.queue_p50_s);

    // ---- trace drain: the spans behind those numbers ------------------
    let trace = exchange(&mut stream, &mut reader, &Request::Trace { id: 10 });
    let Response::Trace { spans, .. } = trace else {
        panic!("expected trace, got {trace:?}");
    };
    for expected in [
        "program.compile",
        "program.execute",
        "program.execute_fleet",
        "program.execute_delta",
        "execute.bind",
        "execute.infer",
        "execute.finalize",
        "op.sim",
        "op.sim_batch",
        "op.session_open",
        "op.session_delta",
        "pool.queue_wait",
        "serve.decode",
        "serve.encode",
        "serve.digitize",
    ] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "journal must hold a {expected:?} span, got {:?}",
            spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    for span in &spans {
        assert!(span.dur_us >= 0.0, "{span:?}");
    }
    // Spans arrive sorted by start time (the exporter's contract).
    for pair in spans.windows(2) {
        assert!(pair[0].start_us <= pair[1].start_us);
    }
    // An `execute.infer` span carries the merged row count.
    assert!(
        spans.iter().any(|s| s.name == "execute.infer"
            && matches!(&s.arg, Some((k, rows)) if k == "rows" && *rows > 0)),
        "inference spans must report row counts"
    );
    // A second drain starts empty (modulo traffic from the drain itself).
    let again = exchange(&mut stream, &mut reader, &Request::Trace { id: 11 });
    let Response::Trace { spans: rest, .. } = again else {
        panic!("expected trace, got {again:?}");
    };
    assert!(
        rest.len() < spans.len(),
        "drain must consume the journal ({} -> {})",
        spans.len(),
        rest.len()
    );

    // The drained spans round-trip into a loadable Chrome trace file —
    // the same conversion `sigctl trace` performs.
    let events: Vec<sigobs::ChromeEvent> = spans
        .iter()
        .map(|s| sigobs::ChromeEvent {
            name: s.name.clone(),
            tid: s.tid,
            start_ns: (s.start_us * 1000.0).round() as u64,
            dur_ns: (s.dur_us * 1000.0).round() as u64,
            arg: s.arg.clone(),
        })
        .collect();
    let json = sigobs::chrome_trace_json(&events, 0);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"op.sim\""));

    // ---- graceful shutdown --------------------------------------------
    let bye = exchange(&mut stream, &mut reader, &Request::Shutdown { id: 99 });
    assert_eq!(bye, Response::ShuttingDown { id: 99 });
    server.join().expect("server exits after shutdown");
}
