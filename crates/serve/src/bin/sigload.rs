//! `sigload` — load generator for a running `sigserve` daemon, with a
//! closed-loop mode (fixed request count, next request sent when the
//! previous response arrives) and an open-loop saturation mode
//! (`--duration`, each connection keeps `--pipeline` requests in
//! flight for a fixed wall-clock window).
//!
//! ```text
//! sigload [--addr HOST:PORT] [--connections N] [--requests M]
//!         [--circuit NAME|PATH] [--models NAME] [--library L]
//!         [--seed N] [--runs K] [--batch-every B]
//!         [--sweep N,N,...] [--duration SECS] [--pipeline D]
//!         [--label NAME] [--inline] [--json]
//! ```
//!
//! The mix is plain `sim` requests with every `--batch-every`-th
//! request (default 8, `0` disables) switched to a `sim.batch` fleet of
//! `--runs` runs. Run `r` of connection `c` perturbs the base seed so
//! the daemon sees distinct stimuli while the program cache stays warm
//! — the steady-state serving regime.
//!
//! `--sweep 1,4,16,64` repeats the measurement at each connection
//! count and reports one row per count; with `--json` the rows come
//! out as one machine-readable object (the shape committed to
//! `BENCH_service.json` by `scripts/bench-service.sh`). `--pipeline D`
//! keeps up to `D` requests in flight per connection (default 1 —
//! classic closed loop); combined with `--duration` this saturates the
//! daemon, and **throughput counts successful responses only**
//! (goodput): admission rejects and overload errors are reported in
//! `errors` but do not inflate the rate.
//!
//! Round-trip latencies are recorded in [`sigobs`] histograms (the same
//! fixed-bucket log2 scheme the daemon serves from), so the printed
//! p50/p90/p99 quantiles are exact bucket upper bounds, not samples of
//! samples. `--json` prints one machine-readable summary object instead
//! of the human table.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sigserve::protocol::{
    decode_response, encode_request, CircuitSource, Request, Response, SimRequest,
};

/// Client-side round-trip latency per request kind (send to matching
/// response, queue and transport included).
static RTT_SIM: sigobs::Hist = sigobs::Hist::new("load.sim");
static RTT_BATCH: sigobs::Hist = sigobs::Hist::new("load.sim_batch");

fn usage() -> ! {
    eprintln!(
        "usage: sigload [--addr HOST:PORT] [--connections N] [--requests M] \
         [--circuit NAME|PATH] [--models NAME] [--library nor-only|native] \
         [--seed N] [--runs K] [--batch-every B] [--sweep N,N,...] \
         [--duration SECS] [--pipeline D] [--label NAME] [--inline] [--json]"
    );
    std::process::exit(2);
}

struct Options {
    addr: String,
    connections: usize,
    requests: usize,
    sim: SimRequest,
    runs: usize,
    batch_every: usize,
    sweep: Vec<usize>,
    duration_s: f64,
    pipeline: usize,
    label: String,
    inline: bool,
    json: bool,
}

fn parse<T>(value: Option<T>) -> T {
    value.unwrap_or_else(|| usage())
}

fn parse_options() -> Options {
    let mut o = Options {
        addr: "127.0.0.1:4715".to_string(),
        connections: 4,
        requests: 32,
        sim: SimRequest {
            timing: false,
            ..SimRequest::default()
        },
        runs: 4,
        batch_every: 8,
        sweep: Vec::new(),
        duration_s: 0.0,
        pipeline: 1,
        label: String::new(),
        inline: false,
        json: false,
    };
    let mut args = sigserve::cli::CliArgs::from_env();
    let require = |v: Option<String>| v.unwrap_or_else(|| usage());
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--addr" => o.addr = require(args.value()),
            "--connections" => o.connections = parse(args.parse()),
            "--requests" => o.requests = parse(args.parse()),
            "--circuit" => {
                let v = require(args.value());
                o.sim.circuit = if std::path::Path::new(&v).is_file() {
                    let text = std::fs::read_to_string(&v).unwrap_or_else(|e| {
                        eprintln!("sigload: cannot read {v}: {e}");
                        std::process::exit(1);
                    });
                    CircuitSource::Inline(text)
                } else {
                    CircuitSource::Name(v)
                };
            }
            "--models" => o.sim.models = require(args.value()),
            "--library" => o.sim.library = require(args.value()),
            "--seed" => o.sim.seed = parse(args.parse()),
            "--runs" => o.runs = parse(args.parse()),
            "--batch-every" => o.batch_every = parse(args.parse()),
            "--sweep" => {
                o.sweep = require(args.value())
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--duration" => o.duration_s = parse(args.parse()),
            "--pipeline" => o.pipeline = parse(args.parse()),
            "--label" => o.label = require(args.value()),
            "--inline" => o.inline = true,
            "--json" => o.json = true,
            _ => usage(),
        }
    }
    if o.connections == 0 || o.requests == 0 || o.pipeline == 0 {
        usage();
    }
    if o.sweep.contains(&0) || o.duration_s < 0.0 || o.duration_s.is_nan() {
        usage();
    }
    // `--inline` ships the named benchmark's netlist in every frame —
    // the realistic CAD-client shape, where the daemon sees inline
    // `.bench` text it must at least decode (cache-hot via content
    // hash). The saturation rows in BENCH_service.json use this.
    if o.inline {
        if let CircuitSource::Name(name) = &o.sim.circuit {
            let bench = sigcircuit::Benchmark::by_name(name).unwrap_or_else(|e| {
                eprintln!("sigload: --inline needs a benchmark name: {e}");
                std::process::exit(1);
            });
            o.sim.circuit = CircuitSource::Inline(sigcircuit::to_bench(&bench.nor_mapped));
        }
    }
    o
}

/// Per-connection shared state of the windowed (pipelined) driver: the
/// send times of in-flight requests keyed by id, plus coordination
/// flags between the writer and reader halves.
struct Window {
    /// id → (send time, was a `sim.batch`).
    inflight: Mutex<HashMap<u64, (Instant, bool)>>,
    /// Signals window-slot frees and state flips.
    changed: Condvar,
    /// Writer finished (deadline or request cap hit).
    done: Mutex<bool>,
}

/// Totals from one connection's drive.
#[derive(Default, Clone, Copy)]
struct DriveTotals {
    sent: u64,
    ok: u64,
    errors: u64,
}

/// Pre-encodes a request with placeholder id `0` and strips the leading
/// `{"id":0,` so the per-send cost is one small `format!` splicing the
/// real id back in (the wire encoder emits `id` first — pinned by the
/// protocol round-trip tests).
fn frame_template(request: &Request) -> String {
    let encoded = encode_request(request);
    encoded
        .strip_prefix("{\"id\":0,")
        .unwrap_or_else(|| {
            eprintln!("sigload: unexpected frame encoding {encoded:.40}");
            std::process::exit(1);
        })
        .to_string()
}

/// One connection's windowed drive: keeps up to `pipeline` requests in
/// flight until `deadline` passes (open-loop) or `cap` frames have been
/// sent (closed-loop with pipelining). Responses are matched by id on a
/// reader thread, so request `i + 1` does not wait for response `i`.
fn drive_windowed(
    o: &Options,
    conn: usize,
    cap: Option<u64>,
    deadline: Option<Instant>,
) -> DriveTotals {
    let stream = connect(&o.addr);
    let read_half = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("sigload: stream clone failed: {e}");
        std::process::exit(1);
    });
    let window = Window {
        inflight: Mutex::new(HashMap::new()),
        changed: Condvar::new(),
        done: Mutex::new(false),
    };
    let mut totals = DriveTotals::default();

    std::thread::scope(|scope| {
        // Reader: match responses to send times, free window slots.
        let reader_totals = scope.spawn(|| {
            let mut reader = BufReader::new(read_half);
            let mut ok = 0u64;
            let mut errors = 0u64;
            loop {
                let mut line = String::new();
                let n = reader.read_line(&mut line).unwrap_or(0);
                if n == 0 {
                    break; // Connection closed under us.
                }
                let response = match decode_response(line.trim_end()) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("sigload: undecodable response {line:?}: {e}");
                        std::process::exit(1);
                    }
                };
                if matches!(response, Response::Error { .. }) {
                    errors += 1;
                } else {
                    ok += 1;
                }
                let drained = {
                    let mut inflight = window.inflight.lock().expect("window poisoned");
                    let entry = response.id().and_then(|id| inflight.remove(&id));
                    if let Some((sent_at, batch)) = entry {
                        let hist = if batch { &RTT_BATCH } else { &RTT_SIM };
                        hist.record_duration(sent_at.elapsed());
                    }
                    inflight.is_empty()
                };
                window.changed.notify_all();
                if drained && *window.done.lock().expect("window poisoned") {
                    break;
                }
            }
            // Unstick a writer still waiting for a window slot.
            *window.done.lock().expect("window poisoned") = true;
            window.changed.notify_all();
            (ok, errors)
        });

        // Writer: fill the window until the cap or the deadline. Frames
        // are pre-encoded once per kind and only the id is spliced per
        // send: the generator's job is to saturate the daemon, and on a
        // shared-core test box re-escaping an inline netlist per frame
        // would throttle the offered load well below what 64 real
        // (remote) clients produce. The seed is fixed per connection —
        // the daemon has no result cache, so every accepted frame still
        // costs a full simulation.
        let sim_template = frame_template(&Request::Sim {
            id: 0,
            sim: SimRequest {
                seed: o.sim.seed + conn as u64,
                ..o.sim.clone()
            },
        });
        let batch_template = frame_template(&Request::SimBatch {
            id: 0,
            sim: SimRequest {
                seed: o.sim.seed + conn as u64,
                ..o.sim.clone()
            },
            runs: o.runs,
        });
        let mut stream = stream;
        let mut i: u64 = 0;
        'send: loop {
            if cap.is_some_and(|c| i >= c) || deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            // Wait for a free window slot (bounded wait so the deadline
            // is honoured even if no response arrives).
            {
                let mut inflight = window.inflight.lock().expect("window poisoned");
                while inflight.len() >= o.pipeline {
                    if *window.done.lock().expect("window poisoned") {
                        break 'send;
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break 'send;
                    }
                    let (guard, _) = window
                        .changed
                        .wait_timeout(inflight, Duration::from_millis(50))
                        .expect("window poisoned");
                    inflight = guard;
                }
                let id = (conn as u64) * 1_000_000_000 + i + 1;
                let batch = o.batch_every > 0 && (i + 1).is_multiple_of(o.batch_every as u64);
                inflight.insert(id, (Instant::now(), batch));
            }
            let id = (conn as u64) * 1_000_000_000 + i + 1;
            let batch = o.batch_every > 0 && (i + 1).is_multiple_of(o.batch_every as u64);
            let template = if batch {
                &batch_template
            } else {
                &sim_template
            };
            let line = format!("{{\"id\":{id},{template}\n");
            if stream.write_all(line.as_bytes()).is_err() {
                window.inflight.lock().expect("window poisoned").remove(&id);
                break;
            }
            i += 1;
        }
        totals.sent = i;
        *window.done.lock().expect("window poisoned") = true;
        window.changed.notify_all();
        // If nothing is in flight the reader may be blocked on
        // read_line with no response coming — close the stream.
        if window.inflight.lock().expect("window poisoned").is_empty() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let (ok, errors) = reader_totals.join().expect("reader panicked");
        totals.ok = ok;
        totals.errors = errors;
    });
    totals
}

/// One connection's classic closed loop: `requests` frames back to
/// back, each awaited before the next.
fn drive_closed(o: &Options, conn: usize) -> DriveTotals {
    let mut stream = connect(&o.addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| {
        eprintln!("sigload: stream clone failed: {e}");
        std::process::exit(1);
    }));
    let mut totals = DriveTotals::default();
    for i in 0..o.requests {
        let id = (conn * o.requests + i + 1) as u64;
        // Distinct seeds per frame keep stimuli fresh while the circuit
        // and compiled program stay cache-hot.
        let sim = SimRequest {
            seed: o.sim.seed + id,
            ..o.sim.clone()
        };
        let batch = o.batch_every > 0 && (i + 1) % o.batch_every == 0;
        let request = if batch {
            Request::SimBatch {
                id,
                sim,
                runs: o.runs,
            }
        } else {
            Request::Sim { id, sim }
        };
        let start = Instant::now();
        let response = exchange_on(&mut stream, &mut reader, &request);
        let hist = if batch { &RTT_BATCH } else { &RTT_SIM };
        hist.record_duration(start.elapsed());
        totals.sent += 1;
        if matches!(response, Response::Error { .. }) {
            totals.errors += 1;
        } else {
            totals.ok += 1;
        }
    }
    totals
}

/// Connects with Nagle's algorithm off: every frame goes out in one write,
/// so a closed-loop client never waits on a delayed ACK.
fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("sigload: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    stream.set_nodelay(true).unwrap_or_else(|e| {
        eprintln!("sigload: cannot set TCP_NODELAY: {e}");
        std::process::exit(1);
    });
    stream
}

/// Sends one request on an open connection and reads frames until the
/// response with the matching id arrives.
fn exchange_on(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Response {
    let frame = encode_request(request) + "\n";
    stream.write_all(frame.as_bytes()).unwrap_or_else(|e| {
        eprintln!("sigload: send failed: {e}");
        std::process::exit(1);
    });
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap_or_else(|e| {
            eprintln!("sigload: read failed: {e}");
            std::process::exit(1);
        });
        if n == 0 {
            eprintln!("sigload: connection closed before a response arrived");
            std::process::exit(1);
        }
        match decode_response(line.trim_end()) {
            Ok(r) if r.id() == Some(request.id()) || r.id().is_none() => return r,
            Ok(_) => continue,
            Err(e) => {
                eprintln!("sigload: undecodable response {line:?}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The hist counts attributable to one measurement: `after - before`,
/// bucket by bucket, so sweep points report isolated quantiles from the
/// shared process-wide histograms.
fn hist_delta(before: &sigobs::HistSnapshot, after: &sigobs::HistSnapshot) -> sigobs::HistSnapshot {
    let mut delta = after.clone();
    delta.count = after.count.wrapping_sub(before.count);
    delta.sum = after.sum.wrapping_sub(before.sum);
    for (d, b) in delta.buckets.iter_mut().zip(before.buckets.iter()) {
        *d = d.wrapping_sub(*b);
    }
    delta
}

/// One kind's summary line / JSON object from its histogram snapshot.
fn quantiles(snapshot: &sigobs::HistSnapshot) -> (u64, f64, f64, f64) {
    (
        snapshot.count,
        snapshot.quantile_secs(0.50),
        snapshot.quantile_secs(0.90),
        snapshot.quantile_secs(0.99),
    )
}

/// One measured sweep point.
struct Row {
    connections: usize,
    totals: DriveTotals,
    wall_s: f64,
    sim: sigobs::HistSnapshot,
    batch: sigobs::HistSnapshot,
}

impl Row {
    /// Goodput: successful responses per second.
    fn throughput(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ok = self.totals.ok as f64;
        ok / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn json(&self) -> String {
        let (sim_n, sim_p50, sim_p90, sim_p99) = quantiles(&self.sim);
        let (batch_n, batch_p50, batch_p90, batch_p99) = quantiles(&self.batch);
        format!(
            "{{\"connections\":{},\"sent\":{},\"ok\":{},\"errors\":{},\"wall_s\":{},\
             \"throughput_rps\":{},\"sim\":{{\"count\":{},\"p50_s\":{},\
             \"p90_s\":{},\"p99_s\":{}}},\"sim_batch\":{{\"count\":{},\
             \"p50_s\":{},\"p90_s\":{},\"p99_s\":{}}}}}",
            self.connections,
            self.totals.sent,
            self.totals.ok,
            self.totals.errors,
            self.wall_s,
            self.throughput(),
            sim_n,
            sim_p50,
            sim_p90,
            sim_p99,
            batch_n,
            batch_p50,
            batch_p90,
            batch_p99,
        )
    }

    fn human(&self) -> String {
        let (_, sim_p50, _, sim_p99) = quantiles(&self.sim);
        format!(
            "  {:>4} conns: {:>8.1} ok/s  ({} sent, {} ok, {} errors, {:.3}s; \
             sim p50 {:.6}s p99 {:.6}s)",
            self.connections,
            self.throughput(),
            self.totals.sent,
            self.totals.ok,
            self.totals.errors,
            self.wall_s,
            sim_p50,
            sim_p99,
        )
    }
}

/// Runs one sweep point at `connections` concurrent connections.
fn run_point(o: &Options, connections: usize) -> Row {
    let sim_before = RTT_SIM.snapshot();
    let batch_before = RTT_BATCH.snapshot();
    let open_loop = o.duration_s > 0.0;
    let deadline = open_loop.then(|| Instant::now() + Duration::from_secs_f64(o.duration_s));
    let cap = (!open_loop).then_some(o.requests as u64);
    let start = Instant::now();
    let totals: Vec<DriveTotals> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                scope.spawn(move || {
                    if !open_loop && o.pipeline == 1 {
                        drive_closed(o, conn)
                    } else {
                        drive_windowed(o, conn, cap, deadline)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut sum = DriveTotals::default();
    for t in totals {
        sum.sent += t.sent;
        sum.ok += t.ok;
        sum.errors += t.errors;
    }
    Row {
        connections,
        totals: sum,
        wall_s,
        sim: hist_delta(&sim_before, &RTT_SIM.snapshot()),
        batch: hist_delta(&batch_before, &RTT_BATCH.snapshot()),
    }
}

fn main() {
    let o = parse_options();
    // The histograms must record regardless of the SIG_OBS environment —
    // they are this tool's whole output.
    sigobs::set_mode(sigobs::ObsMode::Counters);

    if o.sweep.is_empty() {
        // Single measurement: the original output shape (scripts and CI
        // parse it), with `sent`/`ok` alongside the legacy fields.
        let row = run_point(&o, o.connections);
        let (sim_n, sim_p50, sim_p90, sim_p99) = quantiles(&row.sim);
        let (batch_n, batch_p50, batch_p90, batch_p99) = quantiles(&row.batch);
        if o.json {
            println!(
                "{{\"connections\":{},\"requests\":{},\"errors\":{},\"wall_s\":{},\
                 \"throughput_rps\":{},\"ok\":{},\"sim\":{{\"count\":{},\"p50_s\":{},\
                 \"p90_s\":{},\"p99_s\":{}}},\"sim_batch\":{{\"count\":{},\
                 \"p50_s\":{},\"p90_s\":{},\"p99_s\":{}}}}}",
                row.connections,
                row.totals.sent,
                row.totals.errors,
                row.wall_s,
                row.throughput(),
                row.totals.ok,
                sim_n,
                sim_p50,
                sim_p90,
                sim_p99,
                batch_n,
                batch_p50,
                batch_p90,
                batch_p99,
            );
        } else {
            println!(
                "sigload: {} conns, {} sent in {:.3}s ({:.1} ok/s, {} errors)",
                row.connections,
                row.totals.sent,
                row.wall_s,
                row.throughput(),
                row.totals.errors
            );
            println!(
                "  sim        {sim_n:>6}  p50 {sim_p50:.6}s  p90 {sim_p90:.6}s  \
                 p99 {sim_p99:.6}s"
            );
            println!(
                "  sim.batch  {batch_n:>6}  p50 {batch_p50:.6}s  p90 {batch_p90:.6}s  \
                 p99 {batch_p99:.6}s"
            );
        }
        if row.totals.ok == 0 {
            std::process::exit(1);
        }
        return;
    }

    // Sweep: one row per connection count, same traffic settings.
    let rows: Vec<Row> = o.sweep.iter().map(|&c| run_point(&o, c)).collect();
    let mode = if o.duration_s > 0.0 {
        "open-loop"
    } else {
        "closed-loop"
    };
    if o.json {
        let body: Vec<String> = rows.iter().map(Row::json).collect();
        println!(
            "{{\"label\":\"{}\",\"mode\":\"{}\",\"pipeline\":{},\"duration_s\":{},\
             \"rows\":[{}]}}",
            o.label.replace('"', ""),
            mode,
            o.pipeline,
            o.duration_s,
            body.join(",")
        );
    } else {
        println!(
            "sigload sweep ({mode}, pipeline {}, {}):",
            o.pipeline,
            if o.duration_s > 0.0 {
                format!("{}s per point", o.duration_s)
            } else {
                format!("{} reqs per conn", o.requests)
            }
        );
        for row in &rows {
            println!("{}", row.human());
        }
    }
    if rows.iter().any(|r| r.totals.ok == 0) {
        std::process::exit(1);
    }
}
