//! In-process per-layer timings. The benchmark calls each engine layer's
//! public entry points itself, on the workload's primary circuit with the
//! same seeds its first served lane uses, and drains the spans the engine
//! already emits around bind, inference and finalize.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigcircuit::{Circuit, NetId};
use sigserve::protocol::{decode_request, decode_response, encode_response, SessionEdit};
use sigserve::ModelSet;
use sigsim::{
    digital_to_sigmoid, random_stimuli, CircuitProgram, FleetScratch, SigmoidSimConfig, SimScratch,
    StimulusEdit, StimulusSpec,
};
use sigtom::TransferQuery;
use sigwave::{DigitalTrace, Level, SigmoidTrace};

use crate::client::Exchange;
use crate::stats::median;
use crate::workload::{request_seed, Plan, FIRST_LANE, FLEET_RUNS};

/// Requests executed per mode (untraced timing, traced spans).
const EXECUTES: u64 = 16;
/// Fleets of [`FLEET_RUNS`] executed.
const FLEETS: u64 = 3;
/// Session deltas applied.
const DELTAS: u64 = 256;
/// Program compilations timed.
const COMPILES: usize = 5;
/// Batch widths timed for inference: a c1355 round's typical width and a
/// 16-run fleet's.
pub const NN_ROWS: [usize; 2] = [12, 192];

/// What the in-process layer pass measured.
pub struct EngineLayers {
    /// `CircuitProgram::compile` of the primary circuit, median ms.
    pub compile_ms: f64,
    /// Untraced `CircuitProgram::execute_with` per request (index `j` is
    /// the first lane's request `j`), seconds.
    pub execute_s: Vec<f64>,
    /// Served round trip of the same requests, each taken right before its
    /// in-process execute (empty unless a serve callback was given).
    pub served_rtt_s: Vec<f64>,
    /// Per-request medians of summed `execute.*` span time, ms.
    pub infer_ms: f64,
    /// See [`EngineLayers::infer_ms`].
    pub bind_ms: f64,
    /// See [`EngineLayers::infer_ms`].
    pub finalize_ms: f64,
    /// `execute.infer` spans per request (mean over the traced requests).
    pub infer_calls: f64,
    /// Rows carried by those spans per request (mean).
    pub infer_rows: f64,
    /// Requests the span figures are based on.
    pub traced_requests: u64,
    /// `execute_fleet_with` of a 16-run fleet, median ms per run.
    pub fleet_ms_per_run: f64,
    /// `FleetScratch::rows_merged` per fleet (mean).
    pub fleet_rows_merged: f64,
    /// `execute_delta` of one single-input edit, median µs.
    pub delta_us: f64,
    /// `IncrementalState::last_reeval` per delta (mean).
    pub gates_reeval_per_delta: f64,
    /// `GateModel::predict_batch` µs per row at each of [`NN_ROWS`].
    pub nn_us_per_row: [f64; 2],
}

/// Sigmoid stimuli of one request, derived exactly as the daemon does.
fn stimuli(circuit: &Circuit, seed: u64, vdd: f64) -> HashMap<NetId, Arc<SigmoidTrace>> {
    let spec = StimulusSpec::new(60e-12, 25e-12, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    random_stimuli(circuit, &spec, &mut rng)
        .iter()
        .map(|(&net, t)| (net, Arc::new(digital_to_sigmoid(t, vdd))))
        .collect()
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Measures every engine layer on the plan's primary circuit. When
/// `serve` is given, it is called with each request index right before
/// that request's untraced in-process execute and returns the daemon's
/// round trip for it, so both timings see the same host conditions.
///
/// # Errors
///
/// Engine or serve failures, or spans lost to journal overflow.
pub fn measure_engine(
    plan: &Plan,
    mut serve: Option<&mut dyn FnMut(u64) -> std::io::Result<f64>>,
) -> Result<EngineLayers, String> {
    let (source, library) = plan.primary();
    let circuit = Arc::clone(plan.circuit(source, library));
    let set = Arc::clone(plan.set(library));
    let vdd = set.options.vdd;
    let config = SigmoidSimConfig::default();
    let err = |e: sigsim::SigmoidSimError| e.to_string();

    let mut compiles = Vec::new();
    let mut program = None;
    for _ in 0..COMPILES {
        let start = Instant::now();
        let compiled =
            CircuitProgram::compile(Arc::clone(&circuit), Arc::clone(&set.cells), set.options)
                .map_err(err)?;
        compiles.push(seconds_since(start) * 1e3);
        program = Some(compiled);
    }
    let program = program.expect("compiled at least once");

    // Untraced executes, timed around the call alone (stimulus derivation
    // excluded), after one warm call sizes the scratch arena.
    sigobs::set_mode(sigobs::ObsMode::Counters);
    let mut scratch = SimScratch::new();
    let inputs: Vec<_> = (0..EXECUTES)
        .map(|j| {
            stimuli(
                &circuit,
                request_seed(plan.seed, FIRST_LANE.stream(), j),
                vdd,
            )
        })
        .collect();
    program
        .execute_with(&inputs[0], &config, &mut scratch)
        .map_err(err)?;
    let (mut execute_s, mut served_rtt_s) = (Vec::new(), Vec::new());
    for (j, input) in inputs.iter().enumerate() {
        if let Some(serve) = serve.as_deref_mut() {
            served_rtt_s.push(serve(j as u64).map_err(|e| e.to_string())?);
        }
        let start = Instant::now();
        black_box(
            program
                .execute_with(input, &config, &mut scratch)
                .map_err(err)?,
        );
        execute_s.push(seconds_since(start));
    }

    // The same requests traced: the journal is drained after every call
    // (one c1355 execute emits ~900 spans; a thread's ring holds 4096).
    sigobs::set_mode(sigobs::ObsMode::Trace);
    let _ = sigobs::drain_chrome_trace();
    let (mut infer, mut bind, mut finalize) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut rows, mut dropped) = (0u64, 0u64, 0u64);
    for input in &inputs {
        black_box(
            program
                .execute_with(input, &config, &mut scratch)
                .map_err(err)?,
        );
        let (events, lost) = sigobs::drain_chrome_trace();
        dropped += lost;
        let mut sums = [0u64; 3];
        for event in &events {
            let slot = match event.name.as_str() {
                "execute.infer" => {
                    calls += 1;
                    rows += event.arg.as_ref().map_or(0, |(_, v)| *v);
                    0
                }
                "execute.bind" => 1,
                "execute.finalize" => 2,
                _ => continue,
            };
            sums[slot] += event.dur_ns;
        }
        infer.push(sums[0] as f64 / 1e6);
        bind.push(sums[1] as f64 / 1e6);
        finalize.push(sums[2] as f64 / 1e6);
    }
    sigobs::set_mode(sigobs::ObsMode::Counters);
    if dropped > 0 {
        return Err(format!(
            "engine trace lost {dropped} spans to journal overflow"
        ));
    }

    let mut fleet = FleetScratch::new();
    let (mut fleet_ms, mut merged) = (Vec::new(), 0u64);
    for j in 0..FLEETS {
        let base = request_seed(plan.seed, FIRST_LANE.stream(), j);
        let sets: Vec<_> = (0..FLEET_RUNS as u64)
            .map(|r| stimuli(&circuit, base + r, vdd))
            .collect();
        fleet.reset_counters();
        let start = Instant::now();
        black_box(
            program
                .execute_fleet_with(&sets, &config, &mut fleet)
                .map_err(err)?,
        );
        fleet_ms.push(seconds_since(start) * 1e3 / FLEET_RUNS as f64);
        merged += fleet.rows_merged();
    }

    let mut state = program
        .open_session(&inputs[0], &mut scratch)
        .map_err(err)?;
    let (mut delta_us, mut reeval) = (Vec::new(), 0u64);
    for d in 1..=DELTAS {
        let edit = stimulus_edit(&circuit, &plan.edit(FIRST_LANE, d), vdd)?;
        let start = Instant::now();
        black_box(program.execute_delta(&mut state, &[edit]).map_err(err)?);
        delta_us.push(seconds_since(start) * 1e6);
        reeval += state.last_reeval();
    }

    Ok(EngineLayers {
        compile_ms: median(&compiles),
        execute_s,
        served_rtt_s,
        infer_ms: median(&infer),
        bind_ms: median(&bind),
        finalize_ms: median(&finalize),
        infer_calls: calls as f64 / EXECUTES as f64,
        infer_rows: rows as f64 / EXECUTES as f64,
        traced_requests: EXECUTES,
        fleet_ms_per_run: median(&fleet_ms),
        fleet_rows_merged: merged as f64 / FLEETS as f64,
        delta_us: median(&delta_us),
        gates_reeval_per_delta: reeval as f64 / DELTAS as f64,
        nn_us_per_row: NN_ROWS.map(|n| predict_us_per_row(&set, n, plan.seed)),
    })
}

/// A wire edit converted to the engine's stimulus edit, as the daemon
/// converts it.
fn stimulus_edit(circuit: &Circuit, edit: &SessionEdit, vdd: f64) -> Result<StimulusEdit, String> {
    let net = circuit
        .find_net(&edit.net)
        .ok_or_else(|| format!("edit targets unknown net {:?}", edit.net))?;
    let level = if edit.initial_high {
        Level::High
    } else {
        Level::Low
    };
    let digital = DigitalTrace::new(level, edit.toggles.clone()).map_err(|e| e.to_string())?;
    Ok(StimulusEdit {
        net,
        trace: Arc::new(digital_to_sigmoid(&digital, vdd)),
    })
}

/// Median µs per row of `GateModel::predict_batch` on batches of `rows`
/// queries, over every model slot of the set. Queries are drawn from the
/// model's working range (history 0.05–3, slopes 5–25 in scaled units);
/// the region projection inside `predict_batch` is part of the timing.
fn predict_us_per_row(set: &ModelSet, rows: usize, seed: u64) -> f64 {
    let reps = (2400 / rows).max(8);
    let mut rng = StdRng::seed_from_u64(seed ^ rows as u64);
    let mut per_row = Vec::new();
    let mut out = Vec::new();
    for slot in 0..set.cells.slots() {
        let model = set.cells.by_slot(slot);
        let queries: Vec<TransferQuery> = (0..rows)
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                TransferQuery {
                    t: rng.gen_range(0.05..3.0),
                    a_in: sign * rng.gen_range(5.0..25.0),
                    a_prev_out: sign * rng.gen_range(5.0..25.0),
                }
            })
            .collect();
        for _ in 0..reps {
            let mut batch = queries.clone();
            let start = Instant::now();
            model.predict_batch(black_box(&mut batch), &mut out);
            per_row.push(seconds_since(start) * 1e6 / rows as f64);
            black_box(&out);
        }
    }
    median(&per_row)
}

/// Median µs of `decode_request` and of `encode_response` over the
/// workload's own frames.
///
/// # Errors
///
/// A kept frame that no longer decodes.
pub fn measure_protocol(frames: &[&Exchange]) -> Result<(f64, f64), String> {
    const REPS: u32 = 4;
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for frame in frames {
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(decode_request(black_box(&frame.request_line)).map_err(|e| e.to_string())?);
        }
        decode.push(seconds_since(start) * 1e6 / f64::from(REPS));
        let response = decode_response(&frame.response_line).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(encode_response(black_box(&response)));
        }
        encode.push(seconds_since(start) * 1e6 / f64::from(REPS));
    }
    Ok((median(&decode), median(&encode)))
}
