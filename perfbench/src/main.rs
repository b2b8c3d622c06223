//! `perfbench` — the served-workload benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --state-dir DIR
//! ```
//!
//! `perfbench/run.sh` builds the daemons and this driver, then runs it
//! with `--bin-dir`/`--state-dir` filled in. With `--trace 0` the run
//! starts the workload's real `sigserve` (and `sigrouter`) processes
//! several times to time set-up, drives the workload's seeded request
//! stream for `--seconds`, checks a sample of responses byte for byte
//! against the service's reference path, and prints the end-to-end
//! metrics. With `--trace 1` it prints the per-layer metrics instead
//! (see `perfbench/README.md`). The last stdout line is the JSON result;
//! the exit code is non-zero on any output mismatch or failed check.

mod client;
mod fixture;
mod layers;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sigserve::protocol::{Response, StatsReply};
use sigserve::ModelRegistry;

use client::{Conn, Drainer, Exchange, LaneRun, LaneSpec, Route, Sample};
use fixture::{Env, Fixture};
use stats::{median, quantile};
use workload::{Plan, Workload, FIRST_LANE, MODELS};

/// Daemon sets per end-to-end run, each measured for an equal share of
/// the window; `setup_s` is the median of their set-up times.
const SETUPS: usize = 8;
/// Exchanges per lane kept for the protocol-layer timings.
const PROTOCOL_FRAMES: u64 = 256;
/// Share of the served latency the traced run expects its named layers
/// to explain.
const EXPLAINED_SHARE: f64 = 0.9;

const USAGE: &str =
    "usage: perfbench --workload c1355-closed|fleet-c1355|session-delta|small-routed \
                     --seed N --seconds S --trace 0|1 --bin-dir DIR --state-dir DIR";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut bin_dir, mut state_dir) = (None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        state_dir: state_dir.ok_or("--state-dir is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(report) => {
            report.print();
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count or base, printed on the human-readable line.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// A run's result: the contract's JSON object plus run metadata.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Why `correct` is false, if it is.
    problems: Vec<String>,
    metrics: Vec<Metric>,
    meta: Vec<(&'static str, String)>,
}

impl Report {
    fn print(&self) {
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"meta\":{{{}}}}}", meta.join(","));
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        for m in &self.metrics {
            println!("{:<32} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        // Carried by `failed`/`attempted` in the JSON result: a metric that
        // reads 0 on every healthy run cannot carry a relative bound.
        println!(
            "{:<32} {:>14.6} {:<6} {} of {} operations failed",
            "error_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Report, String> {
    let env = Env {
        bin_dir: args.bin_dir.clone(),
        models_dir: args.state_dir.join("sigmodels"),
        log_dir: args.state_dir.join("logs"),
    };
    for dir in [&env.models_dir, &env.log_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Train the ci caches on first use, outside every timed window; the
    // plan's reference sets then load from the same files the daemons do.
    {
        let trainer = ModelRegistry::new(&env.models_dir);
        for &library in args.workload.libraries() {
            trainer
                .get_or_load(MODELS, library)
                .map_err(|e| format!("training {MODELS}/{library}: {e}"))?;
        }
    }
    let registry = ModelRegistry::new(&env.models_dir);
    let plan = Plan::new(args.workload, args.seed, &registry)?;
    let seconds = Duration::from_secs(args.seconds);
    let mut report = if args.trace {
        traced_run(&env, &plan, seconds)
    } else {
        end_to_end_run(&env, &plan, seconds)
    }
    .map_err(|e| format!("{}: {e}", args.workload.name()))?;
    report.meta.splice(
        0..0,
        [
            ("workload", args.workload.name().to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("commit", git_commit()),
            ("source_digest", source_digest()),
            ("kernel", kernel_release()),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(0, usize::from)
                    .to_string(),
            ),
            (
                "daemon_flags",
                fixture::daemon_flags(args.workload).join(" "),
            ),
        ],
    );
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    Ok(report)
}

/// Every answered request of a set of lanes.
fn samples(runs: &[LaneRun]) -> impl Iterator<Item = &Sample> {
    runs.iter().flat_map(|r| r.samples.iter())
}

/// Round-trip times of the successful requests, seconds.
fn ok_rtts(runs: &[LaneRun]) -> Vec<f64> {
    samples(runs).filter(|s| s.ok).map(|s| s.rtt_s).collect()
}

/// Requests answered and requests answered with an error.
fn counts(runs: &[LaneRun]) -> (u64, u64) {
    let all = samples(runs).count() as u64;
    let ok = samples(runs).filter(|s| s.ok).count() as u64;
    (all, all - ok)
}

/// Byte-compares every sampled exchange against the reference path.
/// Returns the number checked and a description of each mismatch.
fn verify(plan: &Plan, runs: &[LaneRun], timed: bool) -> (u64, Vec<String>) {
    let every = plan.workload.sample_every();
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for exchange in runs.iter().flat_map(|r| &r.kept) {
        if exchange.index % every != 0 {
            continue;
        }
        checked += 1;
        match plan.expected(exchange.lane, exchange.index, &exchange.request) {
            Ok(expected) if workload::same_payload(&expected, &exchange.response_line, timed) => {}
            Ok(_) => mismatches.push(format!(
                "{:?} request {} differs from the reference",
                exchange.lane, exchange.index
            )),
            Err(e) => mismatches.push(format!(
                "{:?} request {}: {e}",
                exchange.lane, exchange.index
            )),
        }
    }
    (checked, mismatches)
}

fn stats_meta(stats: &[StatsReply]) -> Vec<(&'static str, String)> {
    let first = stats.first().cloned().unwrap_or_default();
    vec![
        ("simd_level", first.simd_level),
        ("obs_mode", first.obs_mode),
    ]
}

fn end_to_end_run(env: &Env, plan: &Plan, seconds: Duration) -> Result<Report, String> {
    let workload = plan.workload;
    let io = |e: std::io::Error| e.to_string();
    // The measured window is split over SETUPS freshly started daemon
    // sets, one after the other: one daemon process's latency level can
    // differ from the next one's on a shared host, and pooling several
    // per run narrows the run-to-run spread.
    let (mut setups, mut rss_mb, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut selftest, mut stats) = (0.0, Vec::new());
    for segment in 0..SETUPS {
        let (fixture, setup_s) =
            Fixture::start(env, plan, false, false).map_err(|e| format!("set-up: {e}"))?;
        setups.push(setup_s);
        if segment == 0 {
            selftest = client::selftest(plan, &fixture.shard_addrs()[0]).map_err(io)?;
        }
        let spec = LaneSpec {
            segment,
            timings: false,
            window: workload.window(),
            deadline: Instant::now() + seconds / SETUPS as u32,
            keep_first: 0,
        };
        let addrs = vec![fixture.served_addr().to_string(); workload.lanes()];
        runs.extend(client::drive_lanes(plan, &addrs, spec).map_err(io)?);
        rss_mb.push(fixture.peak_rss_mb().map_err(io)?);
        stats = fixture.stats().map_err(io)?;
    }

    let (checked, mismatches) = verify(plan, &runs, false);
    let (attempted, errors) = counts(&runs);
    let failed = errors + mismatches.len() as u64;
    let n = ok_rtts(&runs).len();
    // Every figure is taken per daemon set from that set's raw samples and
    // reported as the median over the sets, so a burst of host contention
    // moves one set's figure instead of the whole run's tail.
    let sets: Vec<&[LaneRun]> = runs.chunks(workload.lanes()).collect();
    let per_set =
        |f: &dyn Fn(&[LaneRun]) -> f64| median(&sets.iter().map(|set| f(set)).collect::<Vec<_>>());
    let p50_ms = per_set(&|set| median(&ok_rtts(set)) * 1e3);
    let p90_ms = per_set(&|set| quantile(&ok_rtts(set), 0.9) * 1e3);
    // The lanes of one set run concurrently.
    let goodput = per_set(&|set| {
        ok_rtts(set).len() as f64 / set.iter().map(|r| r.wall_s).fold(0.0, f64::max)
    });
    let mut problems = mismatches;
    if errors > 0 {
        problems.push(format!("{errors} requests answered with an error"));
    }
    let mut meta = stats_meta(&stats);
    meta.push(("selftest_c17_p50_ms", format!("{:.3}", selftest * 1e3)));
    let segment_p50s: Vec<String> = sets
        .iter()
        .map(|set| format!("{:.2}", median(&ok_rtts(set)) * 1e3))
        .collect();
    meta.push(("segment_p50_ms", segment_p50s.join(" ")));
    meta.push(("responses_checked", checked.to_string()));
    let processes = workload.shards() + usize::from(workload.routed());
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        problems,
        metrics: vec![
            metric(
                "setup_s",
                median(&setups),
                "s",
                format!("median of {SETUPS} set-ups"),
            ),
            metric(
                "latency_p50_ms",
                p50_ms,
                "ms",
                format!("median of {SETUPS} sets, n={n}"),
            ),
            metric(
                "latency_p90_ms",
                p90_ms,
                "ms",
                format!("median of {SETUPS} sets, n={n}"),
            ),
            metric(
                "goodput_rps",
                goodput,
                "1/s",
                format!("median of {SETUPS} sets, {n} ok"),
            ),
            metric(
                "daemon_peak_rss_mb",
                median(&rss_mb),
                "MiB",
                format!("VmHWM summed over {processes} process(es), median of {SETUPS} sets"),
            ),
        ],
        meta,
    })
}

/// Program-cache hit ratio between two stats snapshots (all shards).
fn program_hit_ratio(before: &[StatsReply], after: &[StatsReply]) -> f64 {
    let sum = |s: &[StatsReply], f: fn(&StatsReply) -> u64| s.iter().map(f).sum::<u64>();
    let hits = sum(after, |s| s.program_hits) - sum(before, |s| s.program_hits);
    let misses = sum(after, |s| s.program_misses) - sum(before, |s| s.program_misses);
    hits as f64 / (hits + misses) as f64
}

fn traced_run(env: &Env, plan: &Plan, seconds: Duration) -> Result<Report, String> {
    let workload = plan.workload;
    let io = |e: std::io::Error| e.to_string();
    let phase = |share: f64| Instant::now() + seconds.mul_f64(share);

    // Untraced daemons with a router in front (the served path for
    // small-routed; an extra hop to compare against for the others), and
    // a second set journaling spans.
    let (fixture, _) = Fixture::start(env, plan, false, true).map_err(io)?;
    let (traced_fixture, _) = Fixture::start(env, plan, true, false).map_err(io)?;
    let selftest = client::selftest(plan, &fixture.shard_addrs()[0]).map_err(io)?;

    // 1. The workload's own traffic shape, untraced, with timings.
    let served_addrs = vec![fixture.served_addr().to_string(); workload.lanes()];
    let before = fixture.stats().map_err(io)?;
    let spec = LaneSpec {
        segment: 0,
        timings: true,
        window: workload.window(),
        deadline: phase(0.4),
        keep_first: PROTOCOL_FRAMES,
    };
    let served = client::drive_lanes(plan, &served_addrs, spec).map_err(io)?;
    let after = fixture.stats().map_err(io)?;

    // 2. Each frame straight to its shard and through the router.
    let router = fixture.router_addr().expect("router runs");
    let [direct, routed] = client::paired(
        plan,
        &mut Route::to_shards(&fixture.shard_addrs()).map_err(io)?,
        &mut Route::to(router).map_err(io)?,
        phase(0.25),
        None,
    )
    .map_err(io)?;

    // 3. Each frame to the untraced and to the traced daemons, draining
    // the traced journals after every pair.
    let traced_stats = traced_fixture.stats().map_err(io)?;
    let mut drainer = Drainer::new(&traced_fixture.shard_addrs()).map_err(io)?;
    let [untraced, traced] = client::paired(
        plan,
        &mut Route::to(fixture.served_addr()).map_err(io)?,
        &mut Route::to(traced_fixture.served_addr()).map_err(io)?,
        phase(0.25),
        Some(&mut drainer),
    )
    .map_err(io)?;
    drop(traced_fixture);

    // 4. The engine layers, in-process. On c1355-closed each execute is
    // paired with a served round trip of the same request, so the check
    // below compares like for like (per-seed cost ranges ~2x) under the
    // same host conditions.
    let mut conn = Conn::connect(fixture.served_addr()).map_err(io)?;
    let mut serve = |j: u64| -> std::io::Result<f64> {
        let request = plan.request(FIRST_LANE, j, false);
        let sent = Instant::now();
        let response = conn.call(&request)?;
        let rtt = sent.elapsed().as_secs_f64();
        if response.id() == Some(request.id()) && matches!(response, Response::Sim { .. }) {
            Ok(rtt)
        } else {
            Err(std::io::Error::other(format!(
                "served execute failed: {response:?}"
            )))
        }
    };
    let pair_serve = workload == Workload::C1355Closed;
    let engine = layers::measure_engine(
        plan,
        pair_serve.then_some(&mut serve as &mut dyn FnMut(u64) -> std::io::Result<f64>),
    )?;
    drop(conn);
    drop(fixture);
    let frames: Vec<&Exchange> = served
        .iter()
        .flat_map(|r| &r.kept)
        .filter(|e| e.index < PROTOCOL_FRAMES)
        .collect();
    let (decode_us, encode_us) = layers::measure_protocol(&frames)?;

    let p50 = |runs: &[LaneRun]| median(&ok_rtts(runs));
    let per_pair = |a: &LaneRun, b: &LaneRun, f: &dyn Fn(&Sample, &Sample) -> f64| {
        let values: Vec<f64> = a
            .samples
            .iter()
            .zip(&b.samples)
            .filter(|(x, y)| x.ok && y.ok)
            .map(|(x, y)| f(x, y))
            .collect();
        median(&values)
    };
    let router_hop_ms = per_pair(&direct, &routed, &|d, r| (r.rtt_s - d.rtt_s) * 1e3);
    let transport_us = per_pair(&direct, &routed, &|d, _| {
        d.timings
            .as_ref()
            .map_or(f64::NAN, |t| (d.rtt_s - t.total_s) * 1e6)
    });
    let served_timings: Vec<_> = samples(&served)
        .filter(|s| s.ok)
        .filter_map(|s| s.timings.as_ref())
        .collect();
    let queue_us = median(
        &served_timings
            .iter()
            .map(|t| t.queue_s * 1e6)
            .collect::<Vec<_>>(),
    );
    let resolve_us = median(
        &served_timings
            .iter()
            .map(|t| t.resolve_s * 1e6)
            .collect::<Vec<_>>(),
    );
    let untraced = [untraced];
    let traced = [traced];
    let overhead_ratio = p50(&traced) / p50(&untraced);

    let mut problems = Vec::new();
    if drainer.dropped > 0 {
        problems.push(format!("traced daemons dropped {} spans", drainer.dropped));
    }
    let mut meta = stats_meta(&before);
    meta.push((
        "traced_obs_mode",
        traced_stats
            .first()
            .map(|s| s.obs_mode.clone())
            .unwrap_or_default(),
    ));
    meta.push(("selftest_c17_p50_ms", format!("{:.3}", selftest * 1e3)));
    meta.push(("daemon_spans_drained", drainer.spans.to_string()));
    // How much of the served latency the named layers explain. Below
    // EXPLAINED_SHARE the per-layer table misses a cost; that is reported,
    // not fatal, because on a contended host the c1355 share alone has
    // read 0.86-0.88.
    let explained = match workload {
        Workload::C1355Closed => Some((
            "sim.execute_ms",
            engine.execute_s.iter().sum::<f64>() / engine.served_rtt_s.iter().sum::<f64>(),
        )),
        Workload::SmallRouted => Some((
            "router.hop_ms + transport.overhead_us",
            (router_hop_ms + transport_us / 1e3) / (p50(&served) * 1e3),
        )),
        Workload::FleetC1355 | Workload::SessionDelta => None,
    };
    if let Some((layers, share)) = explained {
        let verdict = if share >= EXPLAINED_SHARE {
            "ok"
        } else {
            "LOW"
        };
        meta.push((
            "explained_share",
            format!(
                "{layers} = {share:.4} of served latency ({verdict}, want >= {EXPLAINED_SHARE})"
            ),
        ));
    }

    let all: Vec<&[LaneRun]> = vec![
        &served,
        std::slice::from_ref(&direct),
        std::slice::from_ref(&routed),
        &untraced,
        &traced,
    ];
    let (mut checked, mut attempted, mut errors) = (0, 0, 0);
    let mut mismatches = Vec::new();
    for runs in &all {
        let (c, m) = verify(plan, runs, true);
        checked += c;
        mismatches.extend(m);
        let (a, e) = counts(runs);
        attempted += a;
        errors += e;
    }
    meta.push(("responses_checked", checked.to_string()));
    if errors > 0 {
        problems.push(format!("{errors} requests answered with an error"));
    }
    let failed = errors + mismatches.len() as u64;
    problems.extend(mismatches);

    let pairs = |runs: &[LaneRun]| ok_rtts(runs).len();
    let hop_pairs = pairs(std::slice::from_ref(&direct));
    let n_served = served_timings.len();
    let calls = engine.infer_calls;
    let traced_base = format!("mean of {} requests", engine.traced_requests);
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics: vec![
            metric(
                "sim.execute_ms",
                median(&engine.execute_s) * 1e3,
                "ms",
                format!("median of {}", engine.execute_s.len()),
            ),
            metric(
                "execute.infer_ms",
                engine.infer_ms,
                "ms",
                format!("median of {} traced", engine.traced_requests),
            ),
            metric(
                "execute.bind_ms",
                engine.bind_ms,
                "ms",
                format!("median of {} traced", engine.traced_requests),
            ),
            metric(
                "execute.finalize_ms",
                engine.finalize_ms,
                "ms",
                format!("median of {} traced", engine.traced_requests),
            ),
            metric("execute.infer_calls", calls, "count", traced_base.clone()),
            metric(
                "execute.infer_rows",
                engine.infer_rows,
                "count",
                traced_base,
            ),
            metric(
                "execute.rows_per_call",
                engine.infer_rows / calls,
                "rows",
                String::new(),
            ),
            metric(
                "nn.predict_us_per_row.r12",
                engine.nn_us_per_row[0],
                "us",
                format!("{} rows", layers::NN_ROWS[0]),
            ),
            metric(
                "nn.predict_us_per_row.r192",
                engine.nn_us_per_row[1],
                "us",
                format!("{} rows", layers::NN_ROWS[1]),
            ),
            metric(
                "sim.fleet_ms_per_run",
                engine.fleet_ms_per_run,
                "ms",
                format!("{} runs per fleet", workload::FLEET_RUNS),
            ),
            metric(
                "sim.fleet_rows_merged",
                engine.fleet_rows_merged,
                "count",
                "per fleet".into(),
            ),
            metric("sim.delta_us", engine.delta_us, "us", "median".into()),
            metric(
                "sim.gates_reeval_per_delta",
                engine.gates_reeval_per_delta,
                "count",
                "mean".into(),
            ),
            metric("sim.compile_ms", engine.compile_ms, "ms", "median".into()),
            metric(
                "router.hop_ms",
                router_hop_ms,
                "ms",
                format!("median of routed - direct over {hop_pairs} paired frames"),
            ),
            metric(
                "transport.overhead_us",
                transport_us,
                "us",
                format!("direct rtt - server total_s, median of {hop_pairs}"),
            ),
            metric(
                "protocol.decode_us",
                decode_us,
                "us",
                format!("median of {} frames", frames.len()),
            ),
            metric(
                "protocol.encode_us",
                encode_us,
                "us",
                format!("median of {} frames", frames.len()),
            ),
            metric(
                "service.queue_us",
                queue_us,
                "us",
                format!("median of {n_served} served"),
            ),
            metric(
                "service.resolve_us",
                resolve_us,
                "us",
                format!("median of {n_served} served"),
            ),
            metric(
                "cache.program_hit_ratio",
                program_hit_ratio(&before, &after),
                "ratio",
                "served traffic after warm-up".into(),
            ),
            metric(
                "trace.overhead_ratio",
                overhead_ratio,
                "ratio",
                format!(
                    "traced p50 / untraced p50 over {} paired frames",
                    pairs(&traced)
                ),
            ),
        ],
        meta,
    })
}

/// The checkout's git commit, when it is a git work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`Cargo.toml`, `Cargo.lock`, `crates/`, `vendor/`,
/// `perfbench/`), so runs from checkouts without git history still say
/// which code they measured.
fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                return;
            }
            if let Ok(entries) = std::fs::read_dir(path) {
                for entry in entries.flatten() {
                    walk(&entry.path(), files);
                }
            }
        } else {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}
