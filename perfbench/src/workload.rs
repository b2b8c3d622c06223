//! The four served workloads: their request streams (all derived from the
//! workload seed), their warm-up frames, and the in-process reference
//! every sampled response is byte-compared against.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigcircuit::{Benchmark, Circuit};
use sigserve::protocol::{
    decode_response, encode_response, CacheOutcome, CircuitSource, Request, Response, SessionEdit,
    SimRequest,
};
use sigserve::{ModelRegistry, ModelSet};
use sigsim::StimulusSpec;

/// The model preset every workload serves (trained once, then cached).
pub const MODELS: &str = "ci";
/// Fleet width of the `fleet-c1355` `sim.batch` requests.
pub const FLEET_RUNS: usize = 16;
/// Session id the `session-delta` lane opens.
pub const SESSION: u64 = 1;
/// Seed streams of the warm-up and self-test frames, disjoint from every
/// measured lane's (see [`Lane::stream`]).
const WARMUP_STREAM: u64 = 0xff;
const SELFTEST_STREAM: u64 = 0xfe;

/// One workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection, closed loop, `sim` on c1355 (nor-only).
    C1355Closed,
    /// One connection, closed loop, `sim.batch` of 16 runs on c1355.
    FleetC1355,
    /// One connection: one c1355 session, then single-input deltas.
    SessionDelta,
    /// `sigrouter` over two shards, two connections with 8 in flight each,
    /// c17-scale sources alternating libraries.
    SmallRouted,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "c1355-closed" => Self::C1355Closed,
            "fleet-c1355" => Self::FleetC1355,
            "session-delta" => Self::SessionDelta,
            "small-routed" => Self::SmallRouted,
            _ => return None,
        })
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::C1355Closed => "c1355-closed",
            Self::FleetC1355 => "fleet-c1355",
            Self::SessionDelta => "session-delta",
            Self::SmallRouted => "small-routed",
        }
    }

    /// Whether clients reach the daemons through `sigrouter`.
    pub fn routed(self) -> bool {
        self == Self::SmallRouted
    }

    /// Number of `sigserve` shards the workload runs.
    pub fn shards(self) -> usize {
        if self.routed() {
            2
        } else {
            1
        }
    }

    /// Cell libraries the daemons preload (and the requests use).
    pub fn libraries(self) -> &'static [&'static str] {
        if self.routed() {
            &["nor-only", "native"]
        } else {
            &["nor-only"]
        }
    }

    /// Client connections driving traffic.
    pub fn lanes(self) -> usize {
        if self.routed() {
            2
        } else {
            1
        }
    }

    /// Requests each connection keeps in flight.
    pub fn window(self) -> usize {
        if self.routed() {
            8
        } else {
            1
        }
    }

    /// Every `sample_every`-th request of a lane is byte-compared against
    /// the reference. Sized so the reference work after a run stays a few
    /// seconds (a c1355 reference costs tens of milliseconds, a fleet 16×).
    pub fn sample_every(self) -> u64 {
        match self {
            Self::C1355Closed => 32,
            Self::FleetC1355 => 16,
            Self::SessionDelta => 128,
            Self::SmallRouted => 8,
        }
    }
}

/// 64-bit SplitMix finalizer: decorrelates nearby seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The stimulus seed of request `index` of seed stream `stream`: 52 bits,
/// so a fleet's `seed + run` stays below the protocol's 2^53 bound.
pub fn request_seed(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed) ^ (stream << 40) ^ index) >> 12
}

/// One client connection's request stream.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    /// Connection number within the workload (`0..lanes`).
    pub conn: usize,
    /// Which daemon set of the run the lane drives; each gets fresh seeds.
    pub segment: usize,
}

/// The lane whose seeds the in-process engine measurements reuse.
pub const FIRST_LANE: Lane = Lane {
    conn: 0,
    segment: 0,
};

impl Lane {
    /// The seed stream of this lane.
    pub fn stream(self) -> u64 {
        ((self.segment as u64) << 8) | self.conn as u64
    }
}

/// Everything needed to generate and check one workload's traffic.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed from the command line.
    pub seed: u64,
    /// The circuit sources requests name, in rotation order.
    sources: Vec<CircuitSource>,
    /// Primary-input names of the primary circuit (see [`Plan::primary`]),
    /// the targets of session edits.
    inputs: Vec<String>,
    sets: HashMap<&'static str, Arc<ModelSet>>,
    circuits: HashMap<(usize, &'static str), Arc<Circuit>>,
}

impl Plan {
    /// Resolves the workload's sources, circuits and model sets. The model
    /// sets are read from `registry`, which must find the trained `ci`
    /// caches the daemons load.
    ///
    /// # Errors
    ///
    /// Returns a message when a model set or circuit cannot be resolved.
    pub fn new(workload: Workload, seed: u64, registry: &ModelRegistry) -> Result<Self, String> {
        let sources = if workload.routed() {
            small_sources()?
        } else {
            vec![CircuitSource::Name("c1355".into())]
        };
        let mut sets = HashMap::new();
        for &library in workload.libraries() {
            let set = registry
                .get_or_load(MODELS, library)
                .map_err(|e| format!("model set {MODELS}/{library}: {e}"))?;
            sets.insert(library, set);
        }
        let mut plan = Self {
            workload,
            seed,
            sources,
            inputs: Vec::new(),
            sets,
            circuits: HashMap::new(),
        };
        for source in 0..plan.sources.len() {
            for &library in workload.libraries() {
                let circuit = plan.build_circuit(source, library)?;
                plan.circuits.insert((source, library), Arc::new(circuit));
            }
        }
        let (source, library) = plan.primary();
        let primary = plan.circuit(source, library);
        plan.inputs = primary
            .inputs()
            .iter()
            .map(|&n| primary.net_name(n).to_string())
            .collect();
        Ok(plan)
    }

    fn build_circuit(&self, source: usize, library: &str) -> Result<Circuit, String> {
        let policy = self.set(library).policy;
        match &self.sources[source] {
            CircuitSource::Name(name) => Ok(Benchmark::by_name(name)?.circuit_for(policy).clone()),
            CircuitSource::Inline(text) => {
                let format = sigcircuit::sniff_format(text);
                let parsed = sigcircuit::parse_circuit(text, format).map_err(|e| e.to_string())?;
                Ok(sigserve::service::map_for_simulation(parsed, policy))
            }
        }
    }

    /// The resident model set of `library`.
    pub fn set(&self, library: &str) -> &Arc<ModelSet> {
        &self.sets[library]
    }

    /// The mapped circuit the daemon simulates for (`source`, `library`).
    pub fn circuit(&self, source: usize, library: &'static str) -> &Arc<Circuit> {
        &self.circuits[&(source, library)]
    }

    /// The source and library of the workload's engine fixture: the first
    /// (and for the c1355 workloads only) source, nor-only.
    pub fn primary(&self) -> (usize, &'static str) {
        (0, "nor-only")
    }

    fn sim(&self, source: usize, library: &'static str, seed: u64, timings: bool) -> SimRequest {
        SimRequest {
            circuit: self.sources[source].clone(),
            models: MODELS.into(),
            library: library.into(),
            seed,
            timing: false,
            timings,
            ..SimRequest::default()
        }
    }

    /// Frames a freshly started daemon set answers before it counts as
    /// set up: one per (source, library) the workload uses, so model
    /// load, circuit parse and program compile all land in set-up.
    pub fn warmup_requests(&self) -> Vec<Request> {
        let mut out = Vec::new();
        for source in 0..self.sources.len() {
            for &library in self.workload.libraries() {
                let id = out.len() as u64 + 1;
                let seed = request_seed(self.seed, WARMUP_STREAM, id);
                out.push(Request::Sim {
                    id,
                    sim: self.sim(source, library, seed, false),
                });
            }
        }
        out
    }

    /// A c17 request for the client self-test.
    pub fn selftest_request(&self, index: u64) -> Request {
        Request::Sim {
            id: index + 1,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: MODELS.into(),
                seed: request_seed(self.seed, SELFTEST_STREAM, index),
                timing: false,
                ..SimRequest::default()
            },
        }
    }

    /// The (source, library) of request `index` on `lane`: small-routed
    /// lanes alternate sources (so every lane reaches both shards) and
    /// cycle through all four source × library pairs.
    fn combo(&self, lane: Lane, index: u64) -> (usize, &'static str) {
        let libraries = self.workload.libraries();
        let source = (index % self.sources.len() as u64) as usize;
        let pair = index / self.sources.len() as u64;
        (
            source,
            libraries[(pair as usize + lane.conn) % libraries.len()],
        )
    }

    /// Request `index` of `lane`; `timings` asks the daemon for its phase
    /// breakdown.
    pub fn request(&self, lane: Lane, index: u64, timings: bool) -> Request {
        let id = ((lane.conn as u64) << 32) | (index + 1);
        let seed = request_seed(self.seed, lane.stream(), index);
        let (source, library) = self.combo(lane, index);
        let sim = self.sim(source, library, seed, timings);
        match self.workload {
            Workload::C1355Closed | Workload::SmallRouted => Request::Sim { id, sim },
            Workload::FleetC1355 => Request::SimBatch {
                id,
                sim,
                runs: FLEET_RUNS,
            },
            Workload::SessionDelta if index == 0 => Request::SessionOpen {
                id,
                session: SESSION,
                sim,
            },
            Workload::SessionDelta => Request::SessionDelta {
                id,
                session: SESSION,
                edits: vec![self.edit(lane, index)],
            },
        }
    }

    /// The single-input edit of delta `index`: the seed picks the primary
    /// circuit's input and a fresh stimulus for it (µ 60 ps, σ 25 ps, 4
    /// toggles).
    pub fn edit(&self, lane: Lane, index: u64) -> SessionEdit {
        let mut rng = StdRng::seed_from_u64(request_seed(self.seed, lane.stream(), index));
        let net = self.inputs[rng.gen_range(0..self.inputs.len())].clone();
        let trace = StimulusSpec::new(60e-12, 25e-12, 4).sample(&mut rng);
        SessionEdit {
            net,
            initial_high: trace.initial().is_high(),
            toggles: trace.toggles().to_vec(),
        }
    }

    /// The response the daemon must send for `request` (request `index`
    /// of `lane`), encoded exactly as on the wire, computed with the
    /// service's own reference path (`run_sim` / `run_sim_edited`), never
    /// with the compiled program the daemon runs.
    ///
    /// # Errors
    ///
    /// Returns a message when the reference itself fails.
    pub fn expected(&self, lane: Lane, index: u64, request: &Request) -> Result<String, String> {
        let (source, library) = self.combo(lane, index);
        let circuit = self.circuit(source, library);
        let set = self.set(library);
        let reference = |sim: &SimRequest, edits: &[SessionEdit]| {
            sigserve::run_sim_edited(circuit, set, sim, edits, CacheOutcome::Hit)
                .map_err(|(kind, message)| format!("reference failed ({kind}): {message}"))
        };
        let response = match request {
            Request::Sim { id, sim } => Response::Sim {
                id: *id,
                result: reference(sim, &[])?,
            },
            Request::SimBatch { id, sim, runs } => Response::SimBatch {
                id: *id,
                results: (0..*runs as u64)
                    .map(|r| {
                        reference(
                            &SimRequest {
                                seed: sim.seed + r,
                                ..sim.clone()
                            },
                            &[],
                        )
                    })
                    .collect::<Result<_, _>>()?,
            },
            Request::SessionOpen { id, session, sim } => Response::Session {
                id: *id,
                session: *session,
                result: reference(sim, &[])?,
            },
            Request::SessionDelta { id, .. } => {
                let Request::SessionOpen { sim, .. } = self.request(lane, 0, false) else {
                    return Err("delta without a session open".into());
                };
                let edits: Vec<SessionEdit> = (1..=index).map(|i| self.edit(lane, i)).collect();
                Response::Sim {
                    id: *id,
                    result: reference(&sim, &edits)?,
                }
            }
            other => return Err(format!("no reference for {other:?}")),
        };
        Ok(encode_response(&response))
    }
}

/// Whether the response line `got` carries exactly the `expected` payload.
/// A request that asked for `timings` gets a wall-clock breakdown the
/// reference cannot know, so that block is dropped before comparing;
/// everything else is compared byte for byte.
pub fn same_payload(expected: &str, got: &str, timed: bool) -> bool {
    if !timed {
        return expected == got;
    }
    let Ok(mut response) = decode_response(got) else {
        return false;
    };
    match &mut response {
        Response::Sim { result, .. } | Response::Session { result, .. } => result.timings = None,
        Response::SimBatch { results, .. } => {
            for result in results {
                result.timings = None;
            }
        }
        _ => {}
    }
    encode_response(&response) == expected
}

/// Two c17-scale sources that `sigserve::router::route` places on
/// different shards of two: c17 by name, and the c17 netlist inline with
/// a comment that only moves its routing key.
fn small_sources() -> Result<Vec<CircuitSource>, String> {
    let named = CircuitSource::Name("c17".into());
    let text = sigcircuit::to_bench(&Benchmark::by_name("c17")?.original);
    let home = sigserve::router::route(&named, 2);
    (0..64)
        .map(|k| CircuitSource::Inline(format!("# c17 variant {k}\n{text}")))
        .find(|inline| sigserve::router::route(inline, 2) != home)
        .map(|inline| vec![named, inline])
        .ok_or_else(|| "no inline c17 variant routes to the other shard".to_string())
}
