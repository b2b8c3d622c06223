//! Wire transports for the [`Service`]: TCP through the epoll
//! multiplexer of [`crate::mux`], and a stdio mode for CI pipelines and
//! tests.
//!
//! Both speak the newline-delimited JSON protocol of
//! [`crate::protocol`] and answer every accepted frame exactly once (a
//! job that unwinds answers `internal`, see [`Service::handle`]). TCP
//! answers each connection's frames in request order. Stdio streams
//! each response back as its request finishes — possibly out of request
//! order; clients correlate by id. The stdio writer is mutex-guarded so
//! each frame is written atomically. Both stop reading a connection that
//! has `max_inflight` frames unanswered until one answers, so a client
//! that pipelines more frames than the scheduler queue holds waits
//! instead of being answered `overloaded`.
//!
//! Both read frames through one decode step and serialize answers
//! through one encode step, so the `serve.decode` and `serve.encode`
//! spans measure the same work on either transport.
//!
//! Graceful shutdown: a `shutdown` request stops the reactor (TCP) or
//! the read loop (stdio), lets every queued and running simulation
//! drain, then acknowledges. On stdio, end-of-input likewise drains
//! before exit, so piping a request file through the daemon always
//! yields every response. (Catching SIGTERM needs platform hooks outside
//! std; process supervisors should send the `shutdown` frame — see
//! `docs/architecture.md` § Service layer.)

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};

use crate::protocol::{
    decode_request, encode_response, salvage_id, FrameReader, ProtocolError, Request, Response,
};
use crate::service::{Handled, Service};
use crate::session::SessionTable;

/// Wire-edge phases of both transports: decoding a request frame
/// (failed decodes included) and serializing a response line. With the
/// engine's `program.*` spans these complete the per-request breakdown
/// end to end.
static DECODE: sigobs::Hist = sigobs::Hist::new("serve.decode");
static ENCODE: sigobs::Hist = sigobs::Hist::new("serve.encode");

/// Decodes one frame as a transport read it: `None` for a blank line,
/// otherwise the line with its request, or the `protocol` error owed to
/// the frame — without an id when the frame itself was refused, with the
/// id salvaged from its text when it failed to decode.
pub(crate) fn decode_frame(
    frame: Result<String, ProtocolError>,
) -> Option<Result<(String, Request), Response>> {
    let line = match frame {
        Ok(line) if line.trim().is_empty() => return None,
        Ok(line) => line,
        Err(e) => return Some(Err(e.to_response(None))),
    };
    let sw = sigobs::stopwatch();
    let decoded = decode_request(&line);
    sw.observe_span(&DECODE, "serve.decode");
    Some(match decoded {
        Ok(request) => Ok((line, request)),
        Err(e) => Err(e.to_response(salvage_id(&line))),
    })
}

/// Serializes one response line (no terminator) under `serve.encode`.
pub(crate) fn encode_frame(response: &Response) -> String {
    let sw = sigobs::stopwatch();
    let line = encode_response(response);
    sw.observe_span(&ENCODE, "serve.encode");
    line
}

/// Writes one response frame; errors are ignored (the peer may have left
/// without waiting — its work is not worth crashing a worker over).
fn respond_line<W: Write>(writer: &Mutex<W>, response: &Response) {
    let line = encode_frame(response);
    let mut w = writer.lock().expect("writer poisoned");
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// The frames a connection has handed to the service and not yet
/// answered.
#[derive(Default)]
struct Unanswered {
    count: Mutex<usize>,
    answered: Condvar,
}

impl Unanswered {
    /// Waits until fewer than `max` frames are unanswered.
    fn wait_below(&self, max: usize) {
        let mut count = self.count.lock().expect("unanswered poisoned");
        while *count >= max {
            count = self.answered.wait(count).expect("unanswered poisoned");
        }
    }

    fn handed(&self) {
        *self.count.lock().expect("unanswered poisoned") += 1;
    }

    fn answer(&self) {
        *self.count.lock().expect("unanswered poisoned") -= 1;
        self.answered.notify_one();
    }
}

/// Drives one connection (any `BufRead`/`Write` pair) to completion:
/// reads frames until EOF, a read failure or an acknowledged shutdown,
/// then drains the service so every accepted request has answered.
/// Reading pauses while `max_inflight` frames are unanswered, as the TCP
/// transport's does. Returns what ended the connection.
pub fn run_connection<R, W>(service: &Arc<Service>, reader: R, writer: W) -> Handled
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let writer = Arc::new(Mutex::new(writer));
    // The connection's session table: sessions are scoped to (and die
    // with) this transport — dropping the table at the end of this
    // function releases every session the client left open.
    let sessions = SessionTable::new(Arc::clone(service));
    let mut frames = FrameReader::new(reader, service.config().max_frame);
    let max_inflight = service.config().max_inflight.max(1);
    let unanswered = Arc::new(Unanswered::default());
    let outcome = loop {
        unanswered.wait_below(max_inflight);
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            // EOF or transport failure.
            Ok(None) | Err(_) => break Handled::Continue,
        };
        let request = match decode_frame(frame) {
            None => continue,
            Some(Ok((_line, request))) => request,
            Some(Err(error)) => {
                respond_line(&writer, &error);
                continue;
            }
        };
        let respond_writer = Arc::clone(&writer);
        let respond_unanswered = Arc::clone(&unanswered);
        unanswered.handed();
        let handled = service.handle(request, &sessions, move |response| {
            respond_line(&respond_writer, &response);
            respond_unanswered.answer();
        });
        if handled == Handled::Shutdown {
            break Handled::Shutdown;
        }
    };
    // Every sim accepted from this connection must answer before the
    // writer is dropped (drain is service-wide: coarse but simple, and
    // shutdown wants it anyway).
    service.drain();
    outcome
}

/// Serves the protocol on stdin/stdout until EOF or shutdown.
pub fn serve_stdio(service: &Arc<Service>) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_connection(service, stdin.lock(), stdout);
}

/// Serves the protocol on a bound TCP listener until a client requests
/// shutdown: the epoll reactor of [`crate::mux`], which multiplexes
/// every connection on the calling thread with request pipelining,
/// in-order responses, and admission control (see `docs/protocol.md`
/// § Pipelining).
///
/// # Errors
///
/// Returns the I/O error that prevented the transport from starting.
pub fn serve_tcp(service: &Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    crate::mux::serve_mux(service, listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CacheOutcome;
    use crate::protocol::{
        decode_response, encode_request, CircuitSource, ErrorKind, Request, SessionEdit, SimRequest,
    };
    use crate::registry::{faulty_set, synthetic_set};
    use crate::service::{run_sim_edited, ServiceConfig};
    use std::io::{BufReader, Cursor};
    use std::net::TcpStream;
    use std::time::Duration;

    fn test_service() -> Arc<Service> {
        let service = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 4,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        service
    }

    fn drive(service: &Arc<Service>, input: &str) -> Vec<Response> {
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buffer").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        run_connection(
            service,
            Cursor::new(input.as_bytes().to_vec()),
            SharedWriter(Arc::clone(&out)),
        );
        let bytes = out.lock().expect("buffer").clone();
        String::from_utf8(bytes)
            .expect("responses are UTF-8")
            .lines()
            .map(|l| decode_response(l).expect("valid response frame"))
            .collect()
    }

    fn sim_line(id: u64, compare: bool) -> String {
        encode_request(&Request::Sim {
            id,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: id,
                compare,
                timing: false,
                ..SimRequest::default()
            },
        })
    }

    #[test]
    fn ping_stats_and_sim_over_one_connection() {
        let service = test_service();
        let input = format!(
            "{}\n{}\n{}\n",
            encode_request(&Request::Ping { id: 1 }),
            sim_line(2, false),
            encode_request(&Request::Stats { id: 3 }),
        );
        let responses = drive(&service, &input);
        assert_eq!(responses.len(), 3);
        assert!(responses.contains(&Response::Pong { id: 1 }));
        let sim = responses
            .iter()
            .find_map(|r| match r {
                Response::Sim { id: 2, result } => Some(result),
                _ => None,
            })
            .expect("sim response");
        assert_eq!(sim.outputs.len(), 2, "c17 has two outputs");
        // Stats may race the sim completion (responses interleave), but
        // the registry/cache counters are already final after drain.
        assert_eq!(service.registry().loads(), 1);
        assert_eq!(service.cache().misses(), 1);
    }

    #[test]
    fn malformed_frames_get_protocol_errors_and_stream_recovers() {
        let service = test_service();
        let big = "x".repeat(service.config().max_frame + 10);
        let input = format!(
            "not json\n{}\n{{\"id\":9,\"op\":\"warp\"}}\n{}\n",
            big,
            encode_request(&Request::Ping { id: 4 }),
        );
        let responses = drive(&service, &input);
        assert_eq!(responses.len(), 4);
        let errors: Vec<_> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Error { id, kind, .. } => Some((*id, *kind)),
                _ => None,
            })
            .collect();
        assert_eq!(errors.len(), 3);
        assert!(errors.contains(&(None, ErrorKind::Protocol)));
        assert!(
            errors.contains(&(Some(9), ErrorKind::Protocol)),
            "id salvaged from bad op frame"
        );
        assert!(responses.contains(&Response::Pong { id: 4 }));
    }

    #[test]
    fn stdio_waits_at_max_inflight_instead_of_answering_overloaded() {
        // One held worker, a queue of 8 and a window of 8: three queues'
        // worth of pipelined sims wait to be read, and every one of them
        // runs once the worker is free.
        let service = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            max_inflight: 8,
            ..ServiceConfig::default()
        });
        service.registry().insert(synthetic_set("synth"));
        let gate = crate::service_tests::hold_the_worker(&service);
        let opener = {
            let (gate, service) = (Arc::clone(&gate), Arc::clone(&service));
            std::thread::spawn(move || {
                // Free the worker only once the queue is full.
                while service.pool_for_tests().queued() < 8 {
                    std::thread::yield_now();
                }
                crate::service_tests::open_gate(&gate);
            })
        };
        let input: String = (1..=24).map(|id| sim_line(id, false) + "\n").collect();
        let responses = drive(&service, &input);
        opener.join().expect("opener");
        assert_eq!(responses.len(), 24);
        assert!(
            responses.iter().all(|r| matches!(r, Response::Sim { .. })),
            "{responses:?}"
        );
    }

    #[test]
    fn shutdown_drains_and_rejects_later_sims() {
        let service = test_service();
        let input = format!(
            "{}\n{}\n{}\n",
            sim_line(1, false),
            encode_request(&Request::Shutdown { id: 2 }),
            sim_line(3, false),
        );
        let responses = drive(&service, &input);
        // The post-shutdown sim is never read (connection ends at
        // shutdown), so exactly two responses arrive.
        assert_eq!(responses.len(), 2);
        assert!(responses.contains(&Response::ShuttingDown { id: 2 }));
        assert!(matches!(
            responses.iter().find(|r| r.id() == Some(1)),
            Some(Response::Sim { .. })
        ));
        // A fresh connection to the draining service rejects sims.
        let responses = drive(&service, &format!("{}\n", sim_line(5, false)));
        assert_eq!(
            responses,
            vec![Response::Error {
                id: Some(5),
                kind: ErrorKind::ShuttingDown,
                message: "daemon is draining".to_string(),
            }]
        );
    }

    /// Asserts that frame `id` of `responses` is a `protocol` error.
    fn assert_protocol_error(responses: &[Response], id: u64) {
        assert!(
            responses.iter().any(|r| matches!(
                r,
                Response::Error { id: Some(i), kind: ErrorKind::Protocol, .. } if *i == id
            )),
            "frame {id}: {responses:?}"
        );
    }

    // Stimulus times that are finite but past `MAX_STIMULUS_S` overflow
    // once scaled to engine units, which used to panic a worker and
    // answer `internal`.

    #[test]
    fn a_huge_mu_gets_a_protocol_error() {
        let sim = "{\"id\":1,\"op\":\"sim\",\"circuit\":{\"name\":\"c17\"},\"models\":\"synth\",\
                   \"seed\":1,\"mu\":1e300,\"sigma\":2.5e-11,\"transitions\":4,\"timing\":false}";
        assert_protocol_error(&drive(&test_service(), &format!("{sim}\n")), 1);
    }

    #[test]
    fn huge_delta_toggles_get_a_protocol_error() {
        let open =
            "{\"id\":1,\"op\":\"session.open\",\"session\":5,\"circuit\":{\"name\":\"c17\"},\
                    \"models\":\"synth\",\"seed\":1,\"mu\":6e-11,\"sigma\":2.5e-11,\
                    \"transitions\":4,\"timing\":false}";
        let delta = "{\"id\":2,\"op\":\"session.delta\",\"session\":5,\
                     \"edits\":[{\"net\":\"1\",\"toggles\":[1e299,2e299,3e299]}]}";
        let responses = drive(&test_service(), &format!("{open}\n{delta}\n"));
        assert!(
            responses
                .iter()
                .any(|r| matches!(r, Response::Session { id: 1, .. })),
            "{responses:?}"
        );
        assert_protocol_error(&responses, 2);
    }

    #[test]
    fn sessions_are_scoped_to_their_connection() {
        use crate::protocol::SimRequest;
        let service = test_service();
        let open = encode_request(&Request::SessionOpen {
            id: 1,
            session: 5,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                timing: false,
                ..SimRequest::default()
            },
        });
        let delta = encode_request(&Request::SessionDelta {
            id: 2,
            session: 5,
            edits: vec![],
        });
        // Same connection: the open and a follow-up delta both succeed,
        // even though the delta is read while the baseline may still be
        // computing (it waits for its turn).
        let responses = drive(&service, &format!("{open}\n{delta}\n"));
        assert!(
            responses.iter().any(|r| matches!(
                r,
                Response::Session {
                    id: 1,
                    session: 5,
                    ..
                }
            )),
            "{responses:?}"
        );
        assert!(
            responses
                .iter()
                .any(|r| matches!(r, Response::Sim { id: 2, .. })),
            "{responses:?}"
        );
        // The table died with the connection: its session was released.
        assert_eq!(service.stats().sessions_open, 0);
        // A different connection never sees another connection's ids.
        let responses = drive(&service, &format!("{delta}\n"));
        assert!(
            matches!(
                responses.as_slice(),
                [Response::Error {
                    id: Some(2),
                    kind: ErrorKind::UnknownSession,
                    ..
                }]
            ),
            "{responses:?}"
        );
    }

    #[test]
    fn tcp_shutdown_exits_despite_idle_connections() {
        // Regression: an idle open connection must not pin the daemon
        // after another client requests shutdown.
        let service = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
        };
        // Idle client: connects, sends nothing, stays open.
        let idle = TcpStream::connect(addr).expect("connect idle");
        let mut active = TcpStream::connect(addr).expect("connect active");
        writeln!(active, "{}", encode_request(&Request::Shutdown { id: 1 })).expect("send");
        let mut ack = String::new();
        BufReader::new(active.try_clone().expect("clone"))
            .read_line(&mut ack)
            .expect("ack");
        assert_eq!(
            decode_response(ack.trim()).expect("response"),
            Response::ShuttingDown { id: 1 }
        );
        // The daemon must exit even though `idle` never closed.
        server.join().expect("server exits");
        drop(idle);
    }

    #[test]
    fn tcp_shutdown_exits_despite_chatty_connections() {
        // Regression: a client that keeps sending frames must not keep
        // the daemon alive either.
        let service = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
        };
        let chatty = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect chatty");
            let mut id = 100u64;
            // Pings until the daemon hangs up.
            loop {
                id += 1;
                if writeln!(stream, "{}", encode_request(&Request::Ping { id })).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut active = TcpStream::connect(addr).expect("connect active");
        writeln!(active, "{}", encode_request(&Request::Shutdown { id: 1 })).expect("send");
        let mut ack = String::new();
        BufReader::new(active.try_clone().expect("clone"))
            .read_line(&mut ack)
            .expect("ack");
        assert_eq!(
            decode_response(ack.trim()).expect("response"),
            Response::ShuttingDown { id: 1 }
        );
        // A reactor that kept reading this client would never exit.
        server.join().expect("server exits");
        chatty.join().expect("chatty client unblocks");
    }

    #[test]
    fn tcp_round_trip() {
        let service = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{}", sim_line(7, false)).expect("send");
        writeln!(stream, "{}", encode_request(&Request::Shutdown { id: 8 })).expect("send");
        let mut responses = Vec::new();
        for line in BufReader::new(stream.try_clone().expect("clone")).lines() {
            let line = line.expect("read");
            responses.push(decode_response(&line).expect("response"));
            if responses.len() == 2 {
                break;
            }
        }
        server.join().expect("server thread");
        assert!(matches!(
            responses.iter().find(|r| r.id() == Some(7)),
            Some(Response::Sim { .. })
        ));
        assert!(responses.contains(&Response::ShuttingDown { id: 8 }));
    }

    /// `session.open` on c17 plus `deltas` pipelined deltas; delta `k`
    /// edits the next input in turn, so every reply depends on all
    /// earlier deltas.
    fn session_script(deltas: u64) -> String {
        let open = encode_request(&Request::SessionOpen {
            id: 0,
            session: 3,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: 3,
                timing: false,
                ..SimRequest::default()
            },
        });
        let inputs = ["1", "2", "3", "6", "7"];
        let mut script = format!("{open}\n");
        for k in 1..=deltas {
            let at = k as f64 * 1.3e-11;
            let delta = encode_request(&Request::SessionDelta {
                id: k,
                session: 3,
                edits: vec![SessionEdit {
                    net: inputs[(k as usize - 1) % inputs.len()].into(),
                    initial_high: k.is_multiple_of(2),
                    toggles: vec![0.5e-10 + at, 2.0e-10 + at],
                }],
            });
            script.push_str(&format!("{delta}\n"));
        }
        script
    }

    #[test]
    fn pipelined_deltas_apply_in_frame_order() {
        let service = |workers| {
            let service = Service::new(ServiceConfig {
                workers,
                queue_capacity: 64,
                ..ServiceConfig::default()
            });
            service.registry().insert(synthetic_set("synth"));
            service
        };
        let by_id = |mut responses: Vec<Response>| {
            responses.sort_by_key(Response::id);
            responses
        };
        let script = session_script(8);
        let reference = by_id(drive(&service(1), &script));
        assert_eq!(reference.len(), 9, "{reference:?}");
        let outputs: Vec<_> = reference
            .iter()
            .map(|r| match r {
                Response::Session { result, .. } | Response::Sim { result, .. } => &result.outputs,
                other => panic!("unexpected reply {other:?}"),
            })
            .collect();
        assert!(
            outputs.windows(2).all(|w| w[0] != w[1]),
            "every delta must change the outputs, or order could not show"
        );
        for run in 0..50 {
            assert_eq!(by_id(drive(&service(2), &script)), reference, "run {run}");
        }
    }

    #[test]
    fn invalid_delta_edits_answer_what_golden_answers() {
        let service = test_service();
        let sim = SimRequest {
            circuit: CircuitSource::Name("c17".into()),
            models: "synth".into(),
            seed: 4,
            timing: false,
            ..SimRequest::default()
        };
        let set = synthetic_set("synth");
        let circuit = sigcircuit::Benchmark::by_name("c17")
            .expect("c17")
            .circuit_for(set.policy)
            .clone();
        let internal = circuit
            .gates()
            .iter()
            .map(|g| g.output)
            .find(|net| !circuit.outputs().contains(net))
            .expect("c17 has internal nets");
        let edits = |net: &str| {
            vec![SessionEdit {
                net: net.into(),
                initial_high: true,
                toggles: vec![2e-10, 3.5e-10],
            }]
        };
        let cases = [edits("no-such-net"), edits(circuit.net_name(internal))];
        let mut script = format!(
            "{}\n",
            encode_request(&Request::SessionOpen {
                id: 0,
                session: 4,
                sim: sim.clone(),
            })
        );
        for (id, edits) in (1..).zip(&cases) {
            let delta = Request::SessionDelta {
                id,
                session: 4,
                edits: edits.clone(),
            };
            script.push_str(&format!("{}\n", encode_request(&delta)));
        }
        let responses = drive(&service, &script);
        for (id, edits) in (1..).zip(&cases) {
            let (kind, message) = run_sim_edited(&circuit, &set, &sim, edits, CacheOutcome::Miss)
                .expect_err("golden refuses the edit");
            let golden = Response::Error {
                id: Some(id),
                kind,
                message,
            };
            assert!(responses.contains(&golden), "{golden:?} in {responses:?}");
        }
    }

    #[test]
    fn stdio_answers_a_job_that_unwinds() {
        let service = test_service();
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        service.registry().insert(faulty_set("faulty", armed));
        let sim = encode_request(&Request::Sim {
            id: 1,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "faulty".into(),
                timing: false,
                ..SimRequest::default()
            },
        });
        let ping = encode_request(&Request::Ping { id: 2 });
        let responses = drive(&service, &format!("{sim}\n{ping}\n"));
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert!(responses.contains(&Response::Pong { id: 2 }));
        assert!(
            responses.iter().any(|r| matches!(
                r,
                Response::Error {
                    id: Some(1),
                    kind: ErrorKind::Internal,
                    ..
                }
            )),
            "{responses:?}"
        );
        assert_eq!(service.pool_for_tests().panicked_jobs(), 1);
    }
}
