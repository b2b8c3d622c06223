//! The benchmark's wire client and its closed-loop lane driver.
//!
//! Every socket sets `TCP_NODELAY` and writes each frame, newline
//! included, with a single write call. A frame split over two writes
//! waits for the peer's delayed ACK under Nagle's algorithm (~40 ms on
//! Linux), and that stall would then be measured as server cost. The
//! `sigload` drive loops split frames exactly that way, so none of them is
//! reused here.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sigserve::protocol::{decode_response, encode_request, PhaseTimings, Request, Response};

use crate::stats;
use crate::workload::{Lane, Plan, FIRST_LANE};

/// Longest a benchmark socket waits for one response before the run is
/// declared failed (well inside the 180 s a run may take).
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Median c17 round trip above which the self-test fails: a served c17
/// request takes well under a millisecond, a Nagle stall tens of them.
const SELFTEST_LIMIT_S: f64 = 5e-3;

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// One client connection speaking the newline-delimited protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read timeout.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Connects, retrying until `deadline` while the listener comes up.
    ///
    /// # Errors
    ///
    /// The last connect error once `deadline` has passed.
    pub fn connect_by(addr: &str, deadline: Instant) -> io::Result<Self> {
        loop {
            match Self::connect(addr) {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(500)),
            }
        }
    }

    /// Writes one frame and its terminator in a single call.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn send_line(&mut self, frame: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Reads one response frame (without its terminator).
    ///
    /// # Errors
    ///
    /// Propagates the socket error; end of stream is `UnexpectedEof`.
    pub fn recv_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// Socket errors, or a response that does not decode.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send_line(&encode_request(request))?;
        decode(self.recv_line()?)
    }
}

/// Whether a response is a successful answer, and its server-side phase
/// breakdown when the request asked for one.
fn outcome(response: &Response) -> (bool, Option<PhaseTimings>) {
    match response {
        Response::Sim { result, .. } | Response::Session { result, .. } => {
            (true, result.timings.clone())
        }
        Response::SimBatch { results, .. } => (
            !results.is_empty(),
            results.first().and_then(|r| r.timings.clone()),
        ),
        _ => (false, None),
    }
}

/// One answered request.
pub struct Sample {
    /// Client round trip: send to matching response, in seconds.
    pub rtt_s: f64,
    /// Whether the daemon answered with a result (not an error).
    pub ok: bool,
    /// The daemon's phase breakdown, when requested.
    pub timings: Option<PhaseTimings>,
}

/// A request kept with its raw response, for the reference check and the
/// protocol-layer timings.
pub struct Exchange {
    /// Lane the request was sent on.
    pub lane: Lane,
    /// Request index within the lane.
    pub index: u64,
    /// The decoded request.
    pub request: Request,
    /// The request frame as sent.
    pub request_line: String,
    /// The response frame as received.
    pub response_line: String,
}

/// Drains traced daemons' span journals, so their per-thread rings
/// (4096 spans; a c1355 request emits ~900) never wrap.
pub struct Drainer {
    conns: Vec<Conn>,
    next_id: u64,
    /// Spans lost to ring overflow, summed over every drain.
    pub dropped: u64,
    /// Spans drained.
    pub spans: u64,
}

impl Drainer {
    /// A drainer with a control connection to each of `addrs`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn new(addrs: &[String]) -> io::Result<Self> {
        Ok(Self {
            conns: addrs
                .iter()
                .map(|a| Conn::connect(a))
                .collect::<io::Result<_>>()?,
            next_id: 1,
            dropped: 0,
            spans: 0,
        })
    }

    /// Empties every journal now.
    ///
    /// # Errors
    ///
    /// Socket errors or a non-trace answer.
    pub fn drain(&mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            let id = self.next_id;
            self.next_id += 1;
            match conn.call(&Request::Trace { id })? {
                Response::Trace { spans, dropped, .. } => {
                    self.spans += spans.len() as u64;
                    self.dropped += dropped;
                }
                other => return Err(invalid(format!("trace drain answered {other:?}"))),
            }
        }
        Ok(())
    }
}

/// How one lane sends its traffic.
#[derive(Clone, Copy)]
pub struct LaneSpec {
    /// Which daemon set of the run the lanes drive (selects their seeds).
    pub segment: usize,
    /// Ask the daemon for its phase breakdown.
    pub timings: bool,
    /// Requests kept in flight.
    pub window: usize,
    /// No request is sent after this instant; in-flight ones complete.
    pub deadline: Instant,
    /// Keep every exchange with index below this (protocol timings); the
    /// workload's reference sample is kept regardless.
    pub keep_first: u64,
}

/// What one lane measured.
#[derive(Default)]
pub struct LaneRun {
    /// Every answered request, in answer order.
    pub samples: Vec<Sample>,
    /// Exchanges kept for the reference check and protocol timings.
    pub kept: Vec<Exchange>,
    /// First send to last answer, seconds.
    pub wall_s: f64,
}

fn decode(line: &str) -> io::Result<Response> {
    decode_response(line).map_err(|e| invalid(format!("undecodable response: {e}")))
}

/// Drives one closed-loop lane on `addr`: keeps `spec.window` requests in
/// flight, sending the next as each answer arrives, until the deadline.
///
/// # Errors
///
/// Socket errors, undecodable responses, or answers to unknown ids.
pub fn drive_lane(
    plan: &Plan,
    addr: &str,
    conn_number: usize,
    spec: LaneSpec,
) -> io::Result<LaneRun> {
    let lane = Lane {
        conn: conn_number,
        segment: spec.segment,
    };
    let mut conn = Conn::connect(addr)?;
    let sample_every = plan.workload.sample_every();
    let mut inflight: HashMap<u64, (u64, Instant, Request, String)> = HashMap::new();
    let mut run = LaneRun::default();
    let mut next = 0u64;
    let send = |conn: &mut Conn, inflight: &mut HashMap<_, _>, next: &mut u64| {
        let request = plan.request(lane, *next, spec.timings);
        let line = encode_request(&request);
        let sent = Instant::now();
        conn.send_line(&line)?;
        inflight.insert(request.id(), (*next, sent, request, line));
        *next += 1;
        io::Result::Ok(())
    };
    let started = Instant::now();
    while inflight.len() < spec.window && Instant::now() < spec.deadline {
        send(&mut conn, &mut inflight, &mut next)?;
    }
    while !inflight.is_empty() {
        let line = conn.recv_line()?;
        let answered = Instant::now();
        let response = decode(line)?;
        let line = line.to_string();
        let (index, sent, request, request_line) = response
            .id()
            .and_then(|id| inflight.remove(&id))
            .ok_or_else(|| invalid(format!("answer to no request in flight: {line}")))?;
        let (ok, timings) = outcome(&response);
        run.samples.push(Sample {
            rtt_s: answered.duration_since(sent).as_secs_f64(),
            ok,
            timings,
        });
        if index < spec.keep_first || index % sample_every == 0 {
            run.kept.push(Exchange {
                lane,
                index,
                request,
                request_line,
                response_line: line,
            });
        }
        if Instant::now() < spec.deadline {
            send(&mut conn, &mut inflight, &mut next)?;
        }
    }
    run.wall_s = started.elapsed().as_secs_f64();
    Ok(run)
}

/// Runs one lane per address concurrently (lane 0 on the calling thread,
/// so a two-lane workload uses two threads in all).
///
/// # Errors
///
/// The first lane error.
pub fn drive_lanes(plan: &Plan, addrs: &[String], spec: LaneSpec) -> io::Result<Vec<LaneRun>> {
    std::thread::scope(|scope| {
        let others: Vec<_> = addrs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(lane, addr)| scope.spawn(move || drive_lane(plan, addr, lane, spec)))
            .collect();
        let mut runs = vec![drive_lane(plan, &addrs[0], 0, spec)];
        for handle in others {
            runs.push(handle.join().expect("lane thread panicked"));
        }
        runs.into_iter().collect()
    })
}

/// One side of a paired probe: a connection to one address, or one per
/// shard with each frame sent to the shard `sigserve::router::route`
/// assigns its circuit.
pub struct Route {
    conns: Vec<Conn>,
}

impl Route {
    /// Every frame to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn to(addr: &str) -> io::Result<Self> {
        Ok(Self {
            conns: vec![Conn::connect(addr)?],
        })
    }

    /// Each frame straight to the shard that owns its circuit.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn to_shards(addrs: &[String]) -> io::Result<Self> {
        Ok(Self {
            conns: addrs
                .iter()
                .map(|a| Conn::connect(a))
                .collect::<io::Result<_>>()?,
        })
    }

    fn conn_for(&mut self, request: &Request) -> &mut Conn {
        let shard = match request {
            Request::Sim { sim, .. }
            | Request::SimBatch { sim, .. }
            | Request::SessionOpen { sim, .. } => {
                sigserve::router::route(&sim.circuit, self.conns.len())
            }
            // Sessions only run on single-shard workloads.
            _ => 0,
        };
        &mut self.conns[shard]
    }
}

/// Sends each frame of the first lane once on path `a` and once on path
/// `b`, back to back with the order alternating, until the deadline; the
/// `drainer`, if any, empties the traced journals after every pair. Host
/// speed drifts over seconds on a shared machine, and pairing makes the
/// drift hit both sides alike. Returns one run per side.
///
/// # Errors
///
/// Socket errors, undecodable responses, or mismatched ids.
pub fn paired(
    plan: &Plan,
    a: &mut Route,
    b: &mut Route,
    deadline: Instant,
    mut drainer: Option<&mut Drainer>,
) -> io::Result<[LaneRun; 2]> {
    let sample_every = plan.workload.sample_every();
    let mut runs = [LaneRun::default(), LaneRun::default()];
    let started = Instant::now();
    let mut index = 0;
    while Instant::now() < deadline {
        let request = plan.request(FIRST_LANE, index, true);
        let line = encode_request(&request);
        let order = if index % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let route = if side == 0 { &mut *a } else { &mut *b };
            let conn = route.conn_for(&request);
            let sent = Instant::now();
            conn.send_line(&line)?;
            let got = conn.recv_line()?;
            let rtt_s = sent.elapsed().as_secs_f64();
            let response = decode(got)?;
            if response.id() != Some(request.id()) {
                return Err(invalid(format!("answer to another request: {got}")));
            }
            let (ok, timings) = outcome(&response);
            let run = &mut runs[side];
            run.samples.push(Sample { rtt_s, ok, timings });
            if index % sample_every == 0 {
                run.kept.push(Exchange {
                    lane: FIRST_LANE,
                    index,
                    request: request.clone(),
                    request_line: line.clone(),
                    response_line: got.to_string(),
                });
            }
        }
        if let Some(d) = drainer.as_deref_mut() {
            d.drain()?;
        }
        index += 1;
    }
    for run in &mut runs {
        run.wall_s = started.elapsed().as_secs_f64();
    }
    Ok(runs)
}

/// Sends `requests` pipelined on one connection and waits for every
/// answer; fails unless each is a successful result.
///
/// # Errors
///
/// Socket errors or any error answer.
pub fn warm(conn: &mut Conn, requests: &[Request]) -> io::Result<()> {
    for request in requests {
        conn.send_line(&encode_request(request))?;
    }
    for _ in requests {
        let line = conn.recv_line()?;
        if !outcome(&decode(line)?).0 {
            return Err(invalid(format!("warm-up request failed: {line}")));
        }
    }
    Ok(())
}

/// Client self-test: a direct closed-loop c17 stream must answer in the
/// low milliseconds, so a stall in this client can never pass as server
/// cost. Returns the median round trip in seconds.
///
/// # Errors
///
/// Socket errors, error answers, or a median above the limit.
pub fn selftest(plan: &Plan, addr: &str) -> io::Result<f64> {
    let mut conn = Conn::connect(addr)?;
    let mut rtts = Vec::new();
    for index in 0..48 {
        let request = plan.selftest_request(index);
        let sent = Instant::now();
        let response = conn.call(&request)?;
        let rtt = sent.elapsed().as_secs_f64();
        if !outcome(&response).0 {
            return Err(invalid(format!("self-test request failed: {response:?}")));
        }
        // The first requests compile c17 and warm the connection.
        if index >= 16 {
            rtts.push(rtt);
        }
    }
    let p50 = stats::median(&rtts);
    if p50 > SELFTEST_LIMIT_S {
        return Err(invalid(format!(
            "client self-test: direct c17 p50 {:.3} ms exceeds {:.1} ms",
            p50 * 1e3,
            SELFTEST_LIMIT_S * 1e3
        )));
    }
    Ok(p50)
}
