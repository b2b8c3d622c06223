//! `sigctl` — client and tooling for the `sigserve` daemon.
//!
//! ```text
//! sigctl request [sim flags]                  # print a request frame
//! sigctl send    --addr HOST:PORT [sim flags] [--vcd PATH]
//! sigctl golden  [sim flags] [--models-dir PATH] [--edit SPEC]...
//! sigctl session open  --session N [sim flags] [--print]
//! sigctl session delta --session N [--edit SPEC]... [--print]
//! sigctl session close --session N [--print]
//! sigctl ping|stats|shutdown --addr HOST:PORT
//! sigctl stats --json [--addr HOST:PORT]
//! sigctl trace [--out PATH] [--addr HOST:PORT]
//! sigctl verify --circuit <name|path> --library <lib> [--json]
//! ```
//!
//! Sim flags: `--circuit <name|path>` (an existing file is sent inline —
//! `.bench` or JSON, auto-detected), `--models NAME`,
//! `--library nor-only|native` (cell library + mapping policy), `--seed
//! N`, `--mu SECONDS`, `--sigma SECONDS`, `--transitions N`,
//! `--compare`, `--no-timing`, `--timings` (per-phase breakdown echoed
//! on the response), `--id N`, `--runs K`.
//!
//! `stats --json` prints the bare stats object (stable key order,
//! shortest-round-trip floats) instead of the full response frame —
//! the scripting-friendly form, including the latency quantiles
//! (`sim_p50_s`, `sim_p99_s`, ...) and the daemon's `obs_mode`.
//!
//! `trace` drains the daemon's span journal (populated when it runs
//! with `SIG_OBS=trace` or `--trace`) and writes a Chrome trace-event
//! JSON document to `--out` (stdout by default) — load it in
//! `chrome://tracing` or Perfetto.
//!
//! `--runs K` (K > 1) switches `request`/`send` to the batched
//! `sim.batch` op: the daemon executes K runs as one fleet, run `r`
//! seeded `seed + r`, and `send` explodes the reply into K individual
//! `sim` frames — byte-comparable (with `--no-timing`) to the K frames
//! `golden --runs K` prints by looping the reference path over the same
//! derived seeds.
//!
//! `golden` computes the response **without any service**: it builds the
//! circuit and models directly and calls the same harness entry points a
//! library user would. Because the service is a scheduling layer and
//! never a numerics layer, `sigserve --stdio` fed the matching `request`
//! frame must produce the byte-identical response (the CI smoke job
//! diffs exactly that; use `--no-timing` so no wall-clock field varies).
//!
//! `session` drives the incremental engine: `open` settles a baseline
//! and leaves it resident, `delta` replaces the stimuli of named inputs
//! (`--edit NET=LEVEL[,t1,t2,...]` where `LEVEL` is `0`/`low` or
//! `1`/`high` and the times are toggle seconds), `close` releases it.
//! Sessions live on one connection, so a one-shot `session delta` over
//! TCP answers `unknown-session` — pipe a whole open/delta/close script
//! into `sigserve --stdio` instead, printing each frame with `--print`.
//! A delta response must equal `golden` run with the same `--edit` flags
//! on the session's sim parameters (modulo the cache hit/miss echo);
//! `stats` reports `sessions_open`/`delta_hits`/`gates_reeval`.
//!
//! `verify` runs **no service at all**: it maps the circuit exactly the
//! way the daemon would for the given `--library` (benchmark names use
//! the precomputed mapped artifact, inline files go through
//! `map_for_simulation`) and then *proves* the mapped circuit
//! boolean-equivalent to the original with the `sigcheck` SAT pipeline
//! (Tseitin miter + simulation-guided sweeping). Human output is a
//! per-output attribution summary; `--json` prints one machine-readable
//! object. Exit status: `0` proven equivalent, `1` inequivalent (the
//! counterexample input assignment is printed), `3` undecided within
//! the conflict budget.
//!
//! `send --vcd PATH` additionally writes the response's output traces as
//! a VCD file for waveform viewers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use sigserve::protocol::{
    decode_response, encode_request, encode_response, CacheOutcome, CircuitSource, Request,
    Response, SessionEdit, SimRequest,
};
use sigserve::run_sim_edited;
use sigwave::{DigitalTrace, Level, VcdSignal};

fn usage() -> ! {
    eprintln!(
        "usage: sigctl <request|send|golden|verify|session|ping|stats|trace|shutdown> \
         [open|delta|close] [--addr HOST:PORT] [--circuit NAME|PATH] \
         [--models NAME] [--library nor-only|native] [--seed N] [--mu S] \
         [--sigma S] [--transitions N] [--compare] [--no-timing] [--timings] \
         [--id N] [--runs K] [--session N] [--edit NET=LEVEL[,T1,T2,...]] \
         [--print] [--json] [--out PATH] [--models-dir PATH] [--vcd PATH]"
    );
    std::process::exit(2);
}

struct Options {
    addr: String,
    id: u64,
    sim: SimRequest,
    runs: usize,
    session: u64,
    edits: Vec<SessionEdit>,
    print: bool,
    json: bool,
    out: Option<std::path::PathBuf>,
    models_dir: std::path::PathBuf,
    vcd: Option<std::path::PathBuf>,
}

fn parse_options(mut args: sigserve::cli::CliArgs) -> Options {
    let mut o = Options {
        addr: "127.0.0.1:4715".to_string(),
        id: 1,
        sim: SimRequest::default(),
        runs: 1,
        session: 1,
        edits: Vec::new(),
        print: false,
        json: false,
        out: None,
        models_dir: std::path::PathBuf::from("target/sigmodels"),
        vcd: None,
    };
    let require = |v: Option<String>| v.unwrap_or_else(|| usage());
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--addr" => o.addr = require(args.value()),
            "--id" => o.id = parse(args.parse()),
            "--circuit" => {
                let v = require(args.value());
                o.sim.circuit = if std::path::Path::new(&v).is_file() {
                    let text = std::fs::read_to_string(&v).unwrap_or_else(|e| {
                        eprintln!("sigctl: cannot read {v}: {e}");
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
            "--mu" => o.sim.mu = parse(args.parse()),
            "--sigma" => o.sim.sigma = parse(args.parse()),
            "--transitions" => o.sim.transitions = parse(args.parse()),
            "--compare" => o.sim.compare = true,
            "--no-timing" => o.sim.timing = false,
            "--timings" => o.sim.timings = true,
            "--runs" => o.runs = parse(args.parse()),
            "--session" => o.session = parse(args.parse()),
            "--edit" => o.edits.push(parse_edit(&require(args.value()))),
            "--print" => o.print = true,
            "--json" => o.json = true,
            "--out" => o.out = Some(require(args.value()).into()),
            "--models-dir" => o.models_dir = require(args.value()).into(),
            "--vcd" => o.vcd = Some(require(args.value()).into()),
            _ => usage(),
        }
    }
    o
}

fn parse<T>(value: Option<T>) -> T {
    value.unwrap_or_else(|| usage())
}

/// Parses one `--edit` value: `NET=LEVEL[,T1,T2,...]` with `LEVEL` in
/// `0`/`low`/`1`/`high` and strictly increasing toggle times in seconds
/// (an omitted tail means the input is held constant at `LEVEL`).
fn parse_edit(spec: &str) -> SessionEdit {
    let malformed = || -> ! {
        eprintln!("sigctl: --edit expects NET=LEVEL[,T1,T2,...], got {spec:?}");
        std::process::exit(2);
    };
    let Some((net, rest)) = spec.split_once('=') else {
        malformed()
    };
    if net.is_empty() {
        malformed();
    }
    let mut tokens = rest.split(',');
    let initial_high = match tokens.next() {
        Some("1" | "high") => true,
        Some("0" | "low") => false,
        _ => malformed(),
    };
    let toggles = tokens
        .map(|t| match t.parse::<f64>() {
            Ok(v) => v,
            Err(_) => malformed(),
        })
        .collect();
    SessionEdit {
        net: net.to_string(),
        initial_high,
        toggles,
    }
}

fn main() {
    let mut args = sigserve::cli::CliArgs::from_env();
    let Some(command) = args.next_arg() else {
        usage()
    };
    let command = command.as_str();
    // `session` has a subcommand word before the flags.
    let sub = (command == "session").then(|| parse(args.next_arg()));
    let o = parse_options(args);
    match command {
        "session" => {
            let request = match sub.as_deref() {
                Some("open") => Request::SessionOpen {
                    id: o.id,
                    session: o.session,
                    sim: o.sim.clone(),
                },
                Some("delta") => Request::SessionDelta {
                    id: o.id,
                    session: o.session,
                    edits: o.edits.clone(),
                },
                Some("close") => Request::SessionClose {
                    id: o.id,
                    session: o.session,
                },
                _ => usage(),
            };
            if o.print {
                println!("{}", encode_request(&request));
            } else {
                finish(&exchange(&o.addr, &request));
            }
        }
        "request" => {
            println!("{}", encode_request(&sim_request(&o)));
        }
        "golden" => golden(&o),
        "send" => {
            let response = exchange(&o.addr, &sim_request(&o));
            if let Response::SimBatch { id, results } = response {
                // Explode the fleet reply into one `sim` frame per run,
                // byte-comparable to the frames `golden --runs K` prints.
                for result in results {
                    println!("{}", encode_response(&Response::Sim { id, result }));
                }
                return;
            }
            if let (Some(path), Response::Sim { result, .. }) = (&o.vcd, &response) {
                write_vcd_file(path, result);
            }
            finish(&response);
        }
        "ping" => finish(&exchange(&o.addr, &Request::Ping { id: o.id })),
        "stats" => {
            let response = exchange(&o.addr, &Request::Stats { id: o.id });
            if o.json {
                print_stats_json(&response);
            } else {
                finish(&response);
            }
        }
        "trace" => trace(&o),
        "verify" => verify(&o),
        "shutdown" => finish(&exchange(&o.addr, &Request::Shutdown { id: o.id })),
        _ => usage(),
    }
}

/// Prints the bare `stats` object of a stats response: the encoder's
/// stable key order and shortest-round-trip floats, without the frame
/// envelope — one parseable JSON object for scripts and dashboards.
fn print_stats_json(response: &Response) {
    if !matches!(response, Response::Stats { .. }) {
        finish(response);
        return;
    }
    let frame = encode_response(response);
    let value: serde::Value = serde_json::from_str(&frame).unwrap_or_else(|e| {
        eprintln!("sigctl: stats frame unparseable: {e}");
        std::process::exit(1);
    });
    let stats = value.get_field("stats").unwrap_or_else(|e| {
        eprintln!("sigctl: stats frame malformed: {e}");
        std::process::exit(1);
    });
    match serde_json::to_string(stats) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("sigctl: stats re-encode failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Fetches the daemon's span journal and writes it as a Chrome
/// trace-event JSON document (`--out PATH`, stdout by default).
fn trace(o: &Options) {
    let response = exchange(&o.addr, &Request::Trace { id: o.id });
    let Response::Trace { spans, dropped, .. } = response else {
        finish(&response);
        return;
    };
    let events: Vec<sigobs::ChromeEvent> = spans
        .into_iter()
        .map(|s| sigobs::ChromeEvent {
            name: s.name,
            tid: s.tid,
            start_ns: (s.start_us * 1000.0).round() as u64,
            dur_ns: (s.dur_us * 1000.0).round() as u64,
            arg: s.arg,
        })
        .collect();
    let json = sigobs::chrome_trace_json(&events, dropped);
    match &o.out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("sigctl: cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!(
                "sigctl: wrote {} spans ({dropped} dropped) to {}",
                events.len(),
                path.display()
            );
        }
        None => println!("{json}"),
    }
}

/// The stateless sim request `request`/`send` issue: plain `sim` for a
/// single run, `sim.batch` when `--runs` asks for a fleet.
fn sim_request(o: &Options) -> Request {
    if o.runs > 1 {
        Request::SimBatch {
            id: o.id,
            sim: o.sim.clone(),
            runs: o.runs,
        }
    } else {
        Request::Sim {
            id: o.id,
            sim: o.sim.clone(),
        }
    }
}

/// Prints the response and exits nonzero on protocol-level errors.
fn finish(response: &Response) {
    println!("{}", encode_response(response));
    if matches!(response, Response::Error { .. }) {
        std::process::exit(1);
    }
}

/// Sends one request and waits for the response with the matching id
/// (other responses on the stream are printed as they pass).
fn exchange(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("sigctl: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    // Nagle off and the frame with its newline in one write: a split
    // write would wait on the daemon's delayed ACK.
    let frame = encode_request(request) + "\n";
    stream
        .set_nodelay(true)
        .and_then(|()| stream.write_all(frame.as_bytes()))
        .unwrap_or_else(|e| {
            eprintln!("sigctl: send failed: {e}");
            std::process::exit(1);
        });
    let reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| {
        eprintln!("sigctl: stream clone failed: {e}");
        std::process::exit(1);
    }));
    for line in reader.lines() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("sigctl: read failed: {e}");
            std::process::exit(1);
        });
        match decode_response(&line) {
            Ok(r) if r.id() == Some(request.id()) || r.id().is_none() => return r,
            Ok(other) => println!("{}", encode_response(&other)),
            Err(e) => {
                eprintln!("sigctl: undecodable response {line:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("sigctl: connection closed before a response arrived");
    std::process::exit(1);
}

/// The no-service reference path: build everything directly, run the
/// same numerics, print the response frame.
fn golden(o: &Options) {
    let Some(policy) = sigcircuit::MappingPolicy::from_name(&o.sim.library) else {
        eprintln!(
            "sigctl: golden supports libraries {} only, not {:?}",
            sigserve::registry::LIBRARIES.join("/"),
            o.sim.library
        );
        std::process::exit(1);
    };
    let circuit = match &o.sim.circuit {
        CircuitSource::Name(name) => sigcircuit::Benchmark::by_name(name)
            .map(|b| b.circuit_for(policy).clone())
            .unwrap_or_else(|n| {
                eprintln!("sigctl: unknown benchmark {n:?}");
                std::process::exit(1);
            }),
        CircuitSource::Inline(text) => {
            let parsed = sigcircuit::parse_circuit(text, sigcircuit::sniff_format(text))
                .unwrap_or_else(|e| {
                    eprintln!("sigctl: {e}");
                    std::process::exit(1);
                });
            sigserve::service::map_for_simulation(parsed, policy)
        }
    };
    // Load through the daemon's own registry, so golden reads the
    // identical on-disk artifact. Its delay table is measured lazily,
    // only when the request actually compares.
    let set = sigserve::ModelRegistry::new(&o.models_dir)
        .get_or_load(&o.sim.models, &o.sim.library)
        .unwrap_or_else(|e| {
            match e {
                sigserve::RegistryError::UnknownName(_) => eprintln!(
                    "sigctl: golden supports preset models only ({}), not {:?}",
                    sigserve::registry::PRESETS.join("/"),
                    o.sim.models
                ),
                sigserve::RegistryError::Pipeline(e) => {
                    eprintln!("sigctl: model pipeline failed: {e}");
                }
            }
            std::process::exit(1);
        });
    // A fresh daemon's first request is always a cache miss; golden
    // mirrors that so the frames compare byte-for-byte. `--edit` flags
    // replace the seeded stimuli of named inputs first, producing the
    // full-run reference a `session.delta` response must match. With
    // `--runs K` the reference loops over the fleet's derived seeds
    // (`seed + r`), printing the K frames a `send --runs K` explosion
    // must equal.
    for r in 0..o.runs.max(1) as u64 {
        let run = SimRequest {
            seed: o.sim.seed + r,
            ..o.sim.clone()
        };
        match run_sim_edited(&circuit, &set, &run, &o.edits, CacheOutcome::Miss) {
            Ok(result) => finish(&Response::Sim { id: o.id, result }),
            Err((kind, message)) => finish(&Response::Error {
                id: Some(o.id),
                kind,
                message,
            }),
        }
    }
}

/// `sigctl verify`: prove the `--library` mapping of `--circuit`
/// boolean-equivalent to the original circuit, no daemon involved.
fn verify(o: &Options) {
    let Some(policy) = sigcircuit::MappingPolicy::from_name(&o.sim.library) else {
        eprintln!(
            "sigctl: verify supports libraries {} only, not {:?}",
            sigserve::registry::LIBRARIES.join("/"),
            o.sim.library
        );
        std::process::exit(2);
    };
    // Verify the artifact the daemon would actually simulate: the
    // precomputed mapped benchmark for names, `map_for_simulation` for
    // inline files.
    let (label, original, mapped) = match &o.sim.circuit {
        CircuitSource::Name(name) => {
            let bench = sigcircuit::Benchmark::by_name(name).unwrap_or_else(|n| {
                eprintln!("sigctl: unknown benchmark {n:?}");
                std::process::exit(1);
            });
            (
                name.clone(),
                bench.original.clone(),
                bench.circuit_for(policy).clone(),
            )
        }
        CircuitSource::Inline(text) => {
            let parsed = sigcircuit::parse_circuit(text, sigcircuit::sniff_format(text))
                .unwrap_or_else(|e| {
                    eprintln!("sigctl: {e}");
                    std::process::exit(1);
                });
            let mapped = sigserve::service::map_for_simulation(parsed.clone(), policy);
            ("<inline>".to_string(), parsed, mapped)
        }
    };
    let result = sigcheck::verify_mapping(&original, &mapped).unwrap_or_else(|e| {
        eprintln!("sigctl: verify cannot tie interfaces: {e}");
        std::process::exit(1);
    });
    if o.json {
        println!(
            "{}",
            verify_json(&label, &o.sim.library, &original, &result)
        );
    } else {
        print_verify_human(&label, &o.sim.library, &original, &mapped, &result);
    }
    match result.verdict {
        sigcheck::EquivVerdict::Equivalent => {}
        sigcheck::EquivVerdict::Inequivalent => std::process::exit(1),
        sigcheck::EquivVerdict::Unknown => std::process::exit(3),
    }
}

fn print_verify_human(
    label: &str,
    library: &str,
    original: &sigcircuit::Circuit,
    mapped: &sigcircuit::Circuit,
    result: &sigcheck::EquivResult,
) {
    let proven = count_verdict(result, sigcheck::OutputVerdict::Proven);
    let refuted = count_verdict(result, sigcheck::OutputVerdict::Refuted);
    let unknown = count_verdict(result, sigcheck::OutputVerdict::Unknown);
    println!(
        "verify {label} vs {library}: {} ({} -> {} gates)",
        result.verdict.as_str().to_uppercase(),
        original.gates().len(),
        mapped.gates().len(),
    );
    println!("  outputs: {proven} proven, {refuted} refuted, {unknown} unknown");
    println!(
        "  sweep: {}/{} internal equivalences proven",
        result.proven_pairs, result.candidates
    );
    println!(
        "  search: {} decisions, {} propagations, {} conflicts over {} solver calls",
        result.stats.decisions,
        result.stats.propagations,
        result.stats.conflicts,
        result.stats.solves,
    );
    for check in &result.outputs {
        if check.verdict != sigcheck::OutputVerdict::Proven {
            println!(
                "  output {}: {} ({} conflicts)",
                check.name,
                check.verdict.as_str(),
                check.conflicts
            );
        }
    }
    if let Some(cex) = &result.counterexample {
        println!(
            "  counterexample: output {} is {} in the original but {} when mapped, under:",
            cex.output_name,
            u8::from(cex.original_value),
            u8::from(cex.mapped_value),
        );
        let assignment: Vec<String> = original
            .inputs()
            .iter()
            .zip(&cex.inputs)
            .map(|(&net, &bit)| format!("{}={}", original.net_name(net), u8::from(bit)))
            .collect();
        println!("    {}", assignment.join(" "));
    }
}

fn count_verdict(result: &sigcheck::EquivResult, v: sigcheck::OutputVerdict) -> usize {
    result.outputs.iter().filter(|c| c.verdict == v).count()
}

/// One machine-readable JSON object for `verify --json` (the encoder's
/// stable key order; counterexample `null` when equivalent).
fn verify_json(
    label: &str,
    library: &str,
    original: &sigcircuit::Circuit,
    result: &sigcheck::EquivResult,
) -> String {
    use serde::Value;
    let outputs = Value::Arr(
        result
            .outputs
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    (
                        "verdict".to_string(),
                        Value::Str(c.verdict.as_str().to_string()),
                    ),
                    ("conflicts".to_string(), Value::Num(c.conflicts as f64)),
                ])
            })
            .collect(),
    );
    let counterexample = match &result.counterexample {
        None => Value::Null,
        Some(cex) => Value::Obj(vec![
            (
                "inputs".to_string(),
                Value::Obj(
                    original
                        .inputs()
                        .iter()
                        .zip(&cex.inputs)
                        .map(|(&net, &bit)| (original.net_name(net).to_string(), Value::Bool(bit)))
                        .collect(),
                ),
            ),
            ("output".to_string(), Value::Str(cex.output_name.clone())),
            ("original".to_string(), Value::Bool(cex.original_value)),
            ("mapped".to_string(), Value::Bool(cex.mapped_value)),
        ]),
    };
    let value = Value::Obj(vec![
        ("circuit".to_string(), Value::Str(label.to_string())),
        ("library".to_string(), Value::Str(library.to_string())),
        (
            "verdict".to_string(),
            Value::Str(result.verdict.as_str().to_string()),
        ),
        ("outputs".to_string(), outputs),
        ("counterexample".to_string(), counterexample),
        (
            "candidates".to_string(),
            Value::Num(result.candidates as f64),
        ),
        (
            "proven_pairs".to_string(),
            Value::Num(result.proven_pairs as f64),
        ),
        (
            "stats".to_string(),
            Value::Obj(vec![
                (
                    "decisions".to_string(),
                    Value::Num(result.stats.decisions as f64),
                ),
                (
                    "propagations".to_string(),
                    Value::Num(result.stats.propagations as f64),
                ),
                (
                    "conflicts".to_string(),
                    Value::Num(result.stats.conflicts as f64),
                ),
                ("solves".to_string(), Value::Num(result.stats.solves as f64)),
            ]),
        ),
    ]);
    serde_json::to_string(&value).unwrap_or_else(|e| {
        eprintln!("sigctl: verify JSON encode failed: {e}");
        std::process::exit(1);
    })
}

fn write_vcd_file(path: &std::path::Path, result: &sigserve::SimResult) {
    let signals: Vec<VcdSignal> = result
        .outputs
        .iter()
        .map(|o| {
            let trace = DigitalTrace::new(Level::from_bool(o.initial_high), o.toggles.clone())
                .unwrap_or_else(|e| {
                    eprintln!("sigctl: response trace for {} invalid: {e}", o.net);
                    std::process::exit(1);
                });
            VcdSignal::digital(o.net.clone(), &trace)
        })
        .collect();
    let mut file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("sigctl: cannot create {}: {e}", path.display());
        std::process::exit(1);
    });
    sigwave::write_vcd(&mut file, &signals).unwrap_or_else(|e| {
        eprintln!("sigctl: VCD write failed: {e}");
        std::process::exit(1);
    });
    eprintln!("sigctl: wrote {}", path.display());
}
