//! The service acceptance test: one daemon, eight concurrent clients,
//! 104 mixed c17/c499/c1355 requests — and every response bit-identical
//! to direct harness calls with the same seeds.
//!
//! Also asserts the resident-artifact guarantees: the model registry
//! loads exactly once (registry counter), and warm-cache requests skip
//! parsing (cache-hit counter matches the number of repeated sources).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigserve::protocol::{
    decode_response, encode_request, CacheOutcome, CircuitSource, Request, Response, SimRequest,
    SimResult,
};
use sigserve::{serve_tcp, Service, ServiceConfig};
use sigsim::{
    compare_circuit_cells, digital_to_sigmoid, library_cache_path, random_stimuli,
    simulate_cells_with, train_cell_library_cached, CellModels, HarnessConfig, LibrarySpec,
    PipelineConfig, SigmoidSimConfig, StimulusSpec,
};

// The workspace target dir (tests run with cwd = crates/serve): shares
// the ci model cache with every other test and the CI smoke job.
const MODELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");
const MU: f64 = 60e-12;
const SIGMA: f64 = 25e-12;
const TRANSITIONS: usize = 3;

fn sim(circuit: CircuitSource, seed: u64, compare: bool) -> SimRequest {
    SimRequest {
        circuit,
        models: "ci".to_string(),
        library: "nor-only".to_string(),
        seed,
        mu: MU,
        sigma: SIGMA,
        transitions: TRANSITIONS,
        compare,
        timing: false,
        timings: false,
    }
}

/// The request mix: 26 distinct simulations, repeated to 104 total so
/// warm-cache behavior and response determinism are both exercised.
fn request_plan() -> Vec<SimRequest> {
    let c17_inline = sigcircuit::to_bench(
        &sigcircuit::Benchmark::by_name("c17")
            .expect("benchmark")
            .nor_mapped,
    );
    let mut distinct: Vec<(SimRequest, usize)> = Vec::new();
    for seed in 0..18u64 {
        distinct.push((sim(CircuitSource::Name("c17".into()), seed, true), 4));
    }
    for seed in 0..2u64 {
        distinct.push((
            sim(CircuitSource::Inline(c17_inline.clone()), 100 + seed, true),
            4,
        ));
    }
    for seed in 0..2u64 {
        distinct.push((sim(CircuitSource::Name("c499".into()), 200 + seed, true), 2));
    }
    for seed in 0..2u64 {
        distinct.push((
            sim(CircuitSource::Name("c1355".into()), 300 + seed, true),
            2,
        ));
    }
    for seed in 0..4u64 {
        distinct.push((sim(CircuitSource::Name("c17".into()), 400 + seed, false), 4));
    }
    let mut plan = Vec::new();
    for (request, reps) in distinct {
        for _ in 0..reps {
            plan.push(request.clone());
        }
    }
    assert_eq!(plan.len(), 104);
    plan
}

/// A stable signature for grouping repeated requests.
fn signature(sim: &SimRequest) -> (String, u64, bool) {
    let circuit = match &sim.circuit {
        CircuitSource::Name(n) => format!("name:{n}"),
        CircuitSource::Inline(t) => {
            format!("inline:{:016x}", sigcircuit::content_hash(t.as_bytes()))
        }
    };
    (circuit, sim.seed, sim.compare)
}

/// One client: its own connection, requests pipelined, responses
/// collected by id.
fn run_client(
    addr: std::net::SocketAddr,
    requests: Vec<(u64, SimRequest)>,
) -> Vec<(u64, SimResult)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (id, sim) in &requests {
        writeln!(
            stream,
            "{}",
            encode_request(&Request::Sim {
                id: *id,
                sim: sim.clone()
            })
        )
        .expect("send");
    }
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut results = Vec::new();
    for line in reader.lines() {
        let line = line.expect("read");
        match decode_response(&line).expect("decodable response") {
            Response::Sim { id, result } => results.push((id, result)),
            other => panic!("unexpected response {other:?}"),
        }
        if results.len() == requests.len() {
            break;
        }
    }
    results
}

/// The direct-harness reference for one request (no service anywhere).
fn direct_reference(sim: &SimRequest, artifacts: &DirectArtifacts) -> SimResult {
    let circuit = match &sim.circuit {
        CircuitSource::Name(n) => {
            sigcircuit::Benchmark::by_name(n)
                .expect("benchmark")
                .nor_mapped
        }
        CircuitSource::Inline(t) => sigcircuit::parse_bench(t).expect("bench text"),
    };
    let spec = StimulusSpec::new(sim.mu, sim.sigma, sim.transitions);
    let mut rng = StdRng::seed_from_u64(sim.seed);
    let stimuli = random_stimuli(&circuit, &spec, &mut rng);
    let threshold = sigwave::VDD_DEFAULT / 2.0;
    let outputs;
    let compare;
    if sim.compare {
        let outcome = compare_circuit_cells(
            &circuit,
            &stimuli,
            &artifacts.cells,
            &artifacts.delays,
            &HarnessConfig::default(),
        )
        .expect("direct compare");
        outputs = outcome
            .bundles
            .iter()
            .map(|b| {
                let d = b.sigmoid.digitize(threshold);
                sigserve::protocol::OutputTrace {
                    net: b.net.clone(),
                    initial_high: d.initial().is_high(),
                    toggles: d.toggles().to_vec(),
                }
            })
            .collect();
        compare = Some(sigserve::protocol::CompareStats {
            t_err_digital: outcome.t_err_digital,
            t_err_sigmoid: outcome.t_err_sigmoid,
            error_ratio: outcome.error_ratio(),
        });
    } else {
        let sigmoid_stimuli: HashMap<_, _> = stimuli
            .iter()
            .map(|(&net, trace)| {
                (
                    net,
                    Arc::new(digital_to_sigmoid(trace, sigwave::VDD_DEFAULT)),
                )
            })
            .collect();
        let result = simulate_cells_with(
            &circuit,
            &sigmoid_stimuli,
            &artifacts.cells,
            sigtom::TomOptions::default(),
            &SigmoidSimConfig::default(),
        )
        .expect("direct sigmoid sim");
        outputs = circuit
            .outputs()
            .iter()
            .map(|&o| {
                let d = result.trace(o).digitize(threshold);
                sigserve::protocol::OutputTrace {
                    net: circuit.net_name(o).to_string(),
                    initial_high: d.initial().is_high(),
                    toggles: d.toggles().to_vec(),
                }
            })
            .collect();
        compare = None;
    }
    SimResult {
        fingerprint: sigserve::protocol::hex64(circuit.fingerprint()),
        library: "nor-only".to_string(),
        // The cache field is scheduling metadata; parity below compares
        // it separately (first request per source = miss, rest = hits).
        cache: CacheOutcome::Miss,
        outputs,
        compare,
        timing: None,
        timings: None,
    }
}

struct DirectArtifacts {
    cells: CellModels,
    delays: sigchar::DelayTable,
}

/// `sim.batch` parity: entry `r` of a fleet execution is bit-identical
/// to the individual `sim` request with seed `seed + r`, and the fleet
/// counters account for it.
#[test]
fn sim_batch_matches_individual_requests() {
    sigserve::ModelRegistry::new(MODELS_DIR)
        .get_or_load("ci", "nor-only")
        .expect("ci models");
    let service = Service::new(ServiceConfig {
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let base = sim(CircuitSource::Name("c17".into()), 700, false);
    let runs = 5;
    let batch = service.execute_sim_batch(&base, runs).expect("batch");
    assert_eq!(batch.len(), runs);
    for (r, got) in batch.iter().enumerate() {
        let single = service
            .execute_sim(&SimRequest {
                seed: base.seed + r as u64,
                ..base.clone()
            })
            .expect("individual run");
        assert_eq!(got.fingerprint, single.fingerprint, "run {r}");
        // Bit-identical traces: exact f64 equality, fleet vs solo.
        assert_eq!(got.outputs, single.outputs, "run {r} diverged");
    }
    let stats = service.stats();
    assert_eq!(stats.fleet_runs, runs as u64);
    assert!(stats.fleet_rows > 0, "fleet batches merged rows");
    assert!(
        ["scalar", "sse2", "avx2"].contains(&stats.simd_level.as_str()),
        "stats report the active SIMD level, got {:?}",
        stats.simd_level
    );
}

#[test]
fn daemon_matches_direct_harness_bit_for_bit() {
    // Train (or load) the shared ci models *before* the daemon starts so
    // both sides read the same on-disk artifact.
    let spec = LibrarySpec::nor_only();
    let library = train_cell_library_cached(
        &library_cache_path(&PathBuf::from(MODELS_DIR).join("ci.json"), &spec.name),
        &spec,
        &PipelineConfig::ci(),
    )
    .expect("ci models");
    let artifacts = DirectArtifacts {
        cells: library.cell_models(),
        delays: sigchar::DelayTable::measure(
            1..=6,
            &sigchar::AnalogOptions::default(),
            &nanospice::EngineConfig::default(),
        )
        .expect("delay table"),
    };

    let service = Service::new(ServiceConfig {
        workers: 0,
        queue_capacity: 256,
        cache_capacity: 16,
        models_dir: PathBuf::from(MODELS_DIR),
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener).expect("serve"))
    };

    // ---- the storm: 8 clients × 13 requests ------------------------------
    let plan = request_plan();
    let ids: Vec<(u64, SimRequest)> = plan
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, sim)| (i as u64, sim))
        .collect();
    let chunks: Vec<Vec<(u64, SimRequest)>> = ids.chunks(13).map(<[_]>::to_vec).collect();
    assert_eq!(chunks.len(), 8, "eight concurrent clients");
    let responses: Vec<(u64, SimResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || run_client(addr, chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(responses.len(), 104, "every request answered");

    // ---- resident-artifact guarantees ------------------------------------
    let stats = service.stats();
    assert_eq!(stats.model_loads, 1, "models loaded exactly once");
    assert_eq!(stats.model_requests, 104);
    assert_eq!(
        stats.cache_misses, 4,
        "4 distinct circuit sources parse once each"
    );
    assert_eq!(stats.cache_hits, 100, "warm-cache requests skip parsing");
    assert_eq!(stats.completed, 104);
    assert_eq!(stats.rejected, 0, "queue sized for the storm");

    // Per response: the first completion of a source is the miss; all
    // repeats are hits. Across the plan that is 4 misses total.
    let miss_count = responses
        .iter()
        .filter(|(_, r)| r.cache == CacheOutcome::Miss)
        .count();
    assert_eq!(miss_count, 4);

    // ---- bit-identical parity with direct harness calls ------------------
    let by_id: HashMap<u64, &SimResult> = responses.iter().map(|(id, r)| (*id, r)).collect();
    let mut references: HashMap<(String, u64, bool), SimResult> = HashMap::new();
    for (id, sim) in &ids {
        let service_result = by_id[id];
        let reference = references
            .entry(signature(sim))
            .or_insert_with(|| direct_reference(sim, &artifacts));
        assert_eq!(
            service_result.fingerprint, reference.fingerprint,
            "request {id}: circuit identity"
        );
        // Bit-identical: exact f64 equality on every numeric field.
        assert_eq!(
            service_result.outputs, reference.outputs,
            "request {id}: output traces differ from direct call"
        );
        assert_eq!(
            service_result.compare, reference.compare,
            "request {id}: t_err statistics differ from direct call"
        );
    }

    // Repeated requests are byte-identical to each other (cache state
    // must not leak into numerics) — compare full results per signature.
    let mut groups: HashMap<(String, u64, bool), Vec<&SimResult>> = HashMap::new();
    for (id, sim) in &ids {
        groups.entry(signature(sim)).or_default().push(by_id[id]);
    }
    for (sig, group) in &groups {
        for r in &group[1..] {
            assert_eq!(
                r.outputs, group[0].outputs,
                "{sig:?}: repeated request diverged"
            );
            assert_eq!(r.compare, group[0].compare);
        }
    }

    // ---- graceful shutdown ------------------------------------------------
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(
        stream,
        "{}",
        encode_request(&Request::Shutdown { id: 9999 })
    )
    .expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("ack");
    assert_eq!(
        decode_response(line.trim()).expect("response"),
        Response::ShuttingDown { id: 9999 }
    );
    server.join().expect("server exits after shutdown");
}
