//! The `sigserve` wire protocol: newline-delimited JSON frames.
//!
//! One request or response per line, LF-terminated, UTF-8, at most
//! [`MAX_FRAME_BYTES`] per frame (the daemon may lower the limit). The
//! full grammar is normatively specified in `docs/protocol.md`; the shape is:
//!
//! ```text
//! → {"id":1,"op":"ping"}
//! ← {"id":1,"ok":true,"reply":"pong"}
//! → {"id":2,"op":"sim","circuit":{"name":"c17"},"models":"ci",
//!    "seed":7,"mu":6e-11,"sigma":2.5e-11,"transitions":4,
//!    "compare":true,"timing":false}
//! ← {"id":2,"ok":true,"reply":"sim","result":{...}}
//! ← {"id":3,"ok":false,"error":{"kind":"overloaded","message":"..."}}
//! ```
//!
//! Every malformed input — arbitrary bytes, truncated frames, oversized
//! frames, shape mismatches — yields a structured [`ProtocolError`]; the
//! decoder never panics (property-tested in `tests/protocol_proptests.rs`).
//!
//! Integers (`id`, `seed`, counters) travel as JSON numbers and are exact
//! up to `2^53` — the vendored JSON stub carries all numbers as `f64`.
//! Full-range `u64` values (circuit fingerprints) travel as fixed-width
//! hex strings instead.

use serde::{Deserialize, Serialize, Value};

/// Default hard cap on one frame's length in bytes, terminator included.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Exclusive upper bound on wire integers: values in `[0, 2^53)` are
/// exact in the all-numbers-are-`f64` JSON model; the boundary itself is
/// rejected because `2^53` and `2^53 + 1` parse to the same float.
pub const MAX_WIRE_INT: u64 = 1 << 53;

/// Hard cap on a sim request's `transitions` field. Table I's heaviest
/// setup uses 20; the cap leaves three orders of magnitude of headroom
/// while keeping one frame from demanding unbounded stimulus memory
/// (the daemon promises bounded memory under any input).
pub const MAX_TRANSITIONS: usize = 4096;

/// Hard cap on a `sim.batch` request's `runs` field. The paper's heaviest
/// Monte-Carlo campaign uses 50 runs per cell; the cap keeps one frame
/// from demanding an unbounded fleet while leaving generous headroom.
pub const MAX_BATCH_RUNS: usize = 256;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Where the circuit of a [`SimRequest`] comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A built-in benchmark by name (`c17`, `c499`, `c1355`); the service
    /// simulates the form mapped for the request's library (NOR-only or
    /// native cells), exactly like the experiment bins.
    Name(String),
    /// An inline netlist: ISCAS `.bench` text or the JSON `Circuit`
    /// serialization (auto-detected). Netlists not conforming to the
    /// request's cell set are mapped with default options before
    /// simulation.
    Inline(String),
}

/// One simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// The circuit to simulate.
    pub circuit: CircuitSource,
    /// Model-registry key (`default`, `fast`, `ci`, `paper`, or a name
    /// pre-registered by the embedding process).
    pub models: String,
    /// Cell-library key (`nor-only` or `native`); selects both the
    /// trained models and the mapping policy applied to the circuit.
    /// Optional on the wire with back-compat default `nor-only`, so
    /// pre-library clients keep getting prototype behaviour.
    pub library: String,
    /// Seed of the per-request stimulus RNG (`< 2^53`).
    pub seed: u64,
    /// Mean inter-transition time µt in seconds ([`sigsim::StimulusSpec`]).
    pub mu: f64,
    /// Stddev σt of inter-transition times in seconds.
    pub sigma: f64,
    /// Transitions per input.
    pub transitions: usize,
    /// `true`: run the full three-way comparison ([`sigsim::compare_circuit_cells`]
    /// — analog reference, digital baseline, sigmoid prototype) and report
    /// `t_err` statistics. `false`: sigmoid-only prediction (stimuli
    /// converted at the fixed same-stimulus slope), no analog run.
    pub compare: bool,
    /// Include wall-clock timing in the response. Off, responses are fully
    /// deterministic (byte-for-byte reproducible), which the CI smoke job
    /// relies on.
    pub timing: bool,
    /// Echo a service-side phase breakdown ([`PhaseTimings`]) on the
    /// response. Optional on the wire with back-compat default `false`
    /// (old clients see byte-identical responses); like `timing`, turning
    /// it on makes the response wall-clock-dependent.
    pub timings: bool,
}

impl Default for SimRequest {
    fn default() -> Self {
        Self {
            circuit: CircuitSource::Name("c17".to_string()),
            models: "default".to_string(),
            library: "nor-only".to_string(),
            seed: 1,
            mu: 60e-12,
            sigma: 25e-12,
            transitions: 4,
            compare: false,
            timing: true,
            timings: false,
        }
    }
}

/// One stimulus edit of a `session.delta` request: replaces the digital
/// stimulus on a named primary input (converted to a sigmoid trace with
/// the same fixed-slope rule full requests use, so a delta is equivalent
/// to re-sending the whole stimulus set with this input changed).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEdit {
    /// Primary-input net name.
    pub net: String,
    /// Initial logic level (`true` = high); optional on the wire with
    /// default `false` (matching [`OutputTrace`]'s convention).
    pub initial_high: bool,
    /// Toggle times in seconds: finite, positive, strictly increasing,
    /// at most [`MAX_TRANSITIONS`]. Empty means a constant level.
    pub toggles: Vec<f64>,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Request id, echoed in the response.
        id: u64,
    },
    /// Service counters (registry loads, cache hits, queue state).
    Stats {
        /// Request id.
        id: u64,
    },
    /// Drain and return the daemon's span journal ([`TraceSpan`]s).
    /// Empty unless the daemon runs with `SIG_OBS=trace` (or
    /// `sigserve --trace`); draining resets the journal.
    Trace {
        /// Request id.
        id: u64,
    },
    /// Graceful shutdown: stop accepting simulations, drain in-flight
    /// work, then confirm.
    Shutdown {
        /// Request id.
        id: u64,
    },
    /// Run a simulation.
    Sim {
        /// Request id.
        id: u64,
        /// The simulation parameters.
        sim: SimRequest,
    },
    /// Run `runs` sigmoid simulations of one circuit as a fleet: run `r`
    /// uses stimulus seed `sim.seed + r`, all runs execute in lockstep
    /// through one compiled program, and each result is byte-identical to
    /// the corresponding individual `sim` request. Sigmoid-only
    /// (`compare` is rejected at decode, like sessions).
    SimBatch {
        /// Request id.
        id: u64,
        /// The shared simulation parameters (`seed` is the base seed).
        sim: SimRequest,
        /// Fleet width: `1..=MAX_BATCH_RUNS`, with `seed + runs` still
        /// below `2^53` so every derived seed stays wire-exact.
        runs: usize,
    },
    /// Open an incremental session: run the baseline simulation and keep
    /// its state resident under the client-chosen session id. Sessions
    /// are sigmoid-only (`compare` is rejected at decode).
    SessionOpen {
        /// Request id.
        id: u64,
        /// Client-chosen session id, scoped to this connection.
        session: u64,
        /// The baseline simulation parameters.
        sim: SimRequest,
    },
    /// Apply stimulus edits to an open session and return the updated
    /// result (re-simulating only the affected cone).
    SessionDelta {
        /// Request id.
        id: u64,
        /// Session id from a prior `session.open`.
        session: u64,
        /// The stimulus edits.
        edits: Vec<SessionEdit>,
    },
    /// Close a session, releasing its resident state.
    SessionClose {
        /// Request id.
        id: u64,
        /// Session id to close.
        session: u64,
    },
}

impl Request {
    /// The request id (echoed on every response).
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Self::Ping { id }
            | Self::Stats { id }
            | Self::Trace { id }
            | Self::Shutdown { id }
            | Self::Sim { id, .. }
            | Self::SimBatch { id, .. }
            | Self::SessionOpen { id, .. }
            | Self::SessionDelta { id, .. }
            | Self::SessionClose { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One primary output's predicted trace in a [`SimResult`]: the sigmoid
/// prototype's output digitized at `VDD/2`.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTrace {
    /// Output net name.
    pub net: String,
    /// Initial logic level (`true` = high).
    pub initial_high: bool,
    /// Threshold-crossing times in seconds, strictly increasing.
    pub toggles: Vec<f64>,
}

impl OutputTrace {
    /// The settled level after all toggles.
    ///
    /// # Example
    ///
    /// ```
    /// use sigserve::protocol::OutputTrace;
    /// let t = OutputTrace {
    ///     net: "y".into(),
    ///     initial_high: false,
    ///     toggles: vec![1.0e-10, 2.5e-10, 4.0e-10],
    /// };
    /// assert!(t.final_high(), "odd toggle count flips the level");
    /// ```
    #[must_use]
    pub fn final_high(&self) -> bool {
        self.initial_high ^ (self.toggles.len() % 2 == 1)
    }
}

/// `t_err` accounting of a compare-mode request (mirrors
/// [`sigsim::ComparisonOutcome`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareStats {
    /// Total `t_err` of the digital baseline (seconds).
    pub t_err_digital: f64,
    /// Total `t_err` of the sigmoid prototype (seconds).
    pub t_err_sigmoid: f64,
    /// `t_err_sigmoid / t_err_digital` (the paper's error ratio).
    pub error_ratio: f64,
}

/// Service-side per-request phase breakdown (present only when the
/// request set `"timings": true`). Phases partition the request's time
/// inside the daemon: `queue_s` is scheduler queue wait, `resolve_s`
/// covers model/circuit/program resolution (cache hits make it small),
/// `execute_s` is engine execution, and `total_s` is the whole handled
/// interval (decode to encode, so `total_s >= queue_s + resolve_s +
/// execute_s`; the remainder is encode and bookkeeping).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimings {
    /// Seconds spent waiting in the scheduler queue.
    pub queue_s: f64,
    /// Seconds resolving models, circuit, and compiled program.
    pub resolve_s: f64,
    /// Seconds executing the engine (bind + inference + finalize).
    pub execute_s: f64,
    /// Seconds from request acceptance to response construction.
    pub total_s: f64,
}

/// Wall-clock timings (present only when the request asked for them).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingStats {
    /// Analog reference wall time in seconds (compare mode only, else 0).
    pub wall_analog_s: f64,
    /// Digital baseline wall time in seconds (compare mode only, else 0).
    pub wall_digital_s: f64,
    /// Sigmoid prototype wall time in seconds.
    pub wall_sigmoid_s: f64,
}

/// One completed span fetched from a daemon's journal by a `trace`
/// request. Times travel as fractional microseconds (`f64`, the JSON
/// number model) — nanosecond process-uptime stamps can exceed the
/// `2^53` wire-integer bound, microsecond floats cannot lose meaningful
/// precision at trace scale.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name (e.g. `program.execute`).
    pub name: String,
    /// Journal thread id (small sequential integer).
    pub tid: u64,
    /// Start in microseconds since the daemon's trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Optional numeric argument (e.g. `("rows", 128)`).
    pub arg: Option<(String, u64)>,
}

/// Whether a request's circuit came from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the circuit cache: no parsing or levelization ran.
    Hit,
    /// Parsed, validated and levelized on this request, then cached.
    Miss,
}

/// The payload of a successful simulation response.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Structural fingerprint of the simulated (mapped) circuit —
    /// [`sigcircuit::Circuit::fingerprint`] as fixed-width hex.
    pub fingerprint: String,
    /// The cell library that produced this result (`nor-only`/`native`),
    /// echoed so results are self-describing.
    pub library: String,
    /// Circuit-cache outcome for this request.
    pub cache: CacheOutcome,
    /// Per-output predicted traces, in circuit output order.
    pub outputs: Vec<OutputTrace>,
    /// `t_err` statistics (compare mode only).
    pub compare: Option<CompareStats>,
    /// Wall-clock timings (only when requested).
    pub timing: Option<TimingStats>,
    /// Service-side phase breakdown (only when the request set
    /// `"timings": true`).
    pub timings: Option<PhaseTimings>,
}

/// Machine-readable error category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not a valid request (bad JSON, bad shape, oversized,
    /// not UTF-8).
    Protocol,
    /// The scheduler queue is full — retry later (backpressure).
    Overloaded,
    /// The requested model-registry key does not exist.
    UnknownModels,
    /// The circuit could not be resolved (unknown name, parse failure).
    Circuit,
    /// The simulation itself failed (e.g. missing stimulus).
    Simulation,
    /// A `session.delta`/`session.close` named a session this connection
    /// does not have open (never opened, closed, or evicted by LRU).
    UnknownSession,
    /// The daemon is draining and no longer accepts simulations.
    ShuttingDown,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Protocol => "protocol",
            Self::Overloaded => "overloaded",
            Self::UnknownModels => "unknown-models",
            Self::Circuit => "circuit",
            Self::Simulation => "simulation",
            Self::UnknownSession => "unknown-session",
            Self::ShuttingDown => "shutting-down",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "protocol" => Self::Protocol,
            "overloaded" => Self::Overloaded,
            "unknown-models" => Self::UnknownModels,
            "circuit" => Self::Circuit,
            "simulation" => Self::Simulation,
            "unknown-session" => Self::UnknownSession,
            "shutting-down" => Self::ShuttingDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Service counters reported by a stats request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    /// The resident model sets as `preset/library` keys (sorted), so
    /// `sigctl stats` reports which libraries produced the daemon's
    /// results.
    pub model_sets: Vec<String>,
    /// Model sets actually loaded/trained (not served from the registry).
    pub model_loads: u64,
    /// Model-set lookups, cached or not.
    pub model_requests: u64,
    /// Circuit-cache hits.
    pub cache_hits: u64,
    /// Circuit-cache misses (parses).
    pub cache_misses: u64,
    /// Circuits currently resident in the cache.
    pub cache_entries: u64,
    /// Program-cache hits (requests that skipped validation + planning).
    pub program_hits: u64,
    /// Program-cache misses (compiles).
    pub program_misses: u64,
    /// Compiled programs currently resident.
    pub program_entries: u64,
    /// Worker threads in the scheduler pool.
    pub workers: u64,
    /// Scheduler queue capacity (requests beyond this are rejected).
    pub queue_capacity: u64,
    /// Simulation requests completed (ok or error).
    pub completed: u64,
    /// Simulation requests rejected with `overloaded`.
    pub rejected: u64,
    /// Incremental sessions currently open across all connections.
    pub sessions_open: u64,
    /// `session.delta` requests served from resident session state.
    pub delta_hits: u64,
    /// Cumulative gates re-evaluated by delta requests (a full execution
    /// costs the whole gate count per run — the ratio is the measured
    /// incremental saving).
    pub gates_reeval: u64,
    /// The SIMD kernel level the daemon's inference runs at
    /// (`"scalar"`/`"sse2"`/`"avx2"`); empty when talking to a pre-SIMD
    /// daemon that doesn't report one.
    pub simd_level: String,
    /// Cumulative runs executed through the fleet path (`sim.batch`).
    pub fleet_runs: u64,
    /// Cumulative inference rows merged across fleet runs (how much
    /// batching the fleet path actually bought).
    pub fleet_rows: u64,
    /// The daemon's observability mode (`off`/`counters`/`trace`); empty
    /// when talking to a pre-observability daemon.
    pub obs_mode: String,
    /// Connections currently open on the daemon's multiplexed transport
    /// (`0` from pre-async daemons, which don't track the gauge).
    pub connections_open: u64,
    /// Frames read while their connection already had a request in
    /// flight — pipelining actually observed on the wire (`0` from
    /// pre-async daemons).
    pub frames_pipelined: u64,
    /// Heavy frames rejected by the daemon-wide admission budget before
    /// reaching the scheduler queue; a subset of `rejected` (`0` from
    /// pre-async daemons).
    pub admission_rejects: u64,
    /// p50 handled latency of `sim` requests in seconds (histogram
    /// bucket upper bound; `0` when none served or counters are off).
    pub sim_p50_s: f64,
    /// p99 handled latency of `sim` requests in seconds.
    pub sim_p99_s: f64,
    /// p50 handled latency of `sim.batch` requests in seconds.
    pub batch_p50_s: f64,
    /// p99 handled latency of `sim.batch` requests in seconds.
    pub batch_p99_s: f64,
    /// p50 handled latency of `session.delta` requests in seconds.
    pub delta_p50_s: f64,
    /// p99 handled latency of `session.delta` requests in seconds.
    pub delta_p99_s: f64,
    /// p50 scheduler queue wait of accepted simulation jobs in seconds.
    pub queue_p50_s: f64,
    /// p99 scheduler queue wait of accepted simulation jobs in seconds.
    pub queue_p99_s: f64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to ping.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Successful simulation.
    Sim {
        /// Echoed request id.
        id: u64,
        /// The simulation payload.
        result: SimResult,
    },
    /// Successful fleet simulation: one payload per run, in run order
    /// (entry `r` is byte-identical to the `sim` response for seed
    /// `seed + r`).
    SimBatch {
        /// Echoed request id.
        id: u64,
        /// Per-run simulation payloads.
        results: Vec<SimResult>,
    },
    /// Service counters.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters.
        stats: StatsReply,
    },
    /// The drained span journal (empty unless the daemon traces).
    Trace {
        /// Echoed request id.
        id: u64,
        /// Completed spans, sorted by start time.
        spans: Vec<TraceSpan>,
        /// Spans lost to journal ring overflow since the last drain.
        dropped: u64,
    },
    /// Shutdown acknowledged; in-flight work has drained.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
    /// Session opened; carries the baseline simulation result.
    Session {
        /// Echoed request id.
        id: u64,
        /// Echoed session id.
        session: u64,
        /// The baseline simulation payload.
        result: SimResult,
    },
    /// Session closed; its resident state is released.
    SessionClosed {
        /// Echoed request id.
        id: u64,
        /// Echoed session id.
        session: u64,
    },
    /// Any failure. `id` is `None` when the frame was too malformed to
    /// carry one.
    Error {
        /// Echoed request id, if decodable.
        id: Option<u64>,
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id, if any.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match self {
            Self::Pong { id }
            | Self::Sim { id, .. }
            | Self::SimBatch { id, .. }
            | Self::Stats { id, .. }
            | Self::Trace { id, .. }
            | Self::ShuttingDown { id }
            | Self::Session { id, .. }
            | Self::SessionClosed { id, .. } => Some(*id),
            Self::Error { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A structured protocol failure (decoding direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame exceeded the size limit.
    Oversized {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The frame was not valid UTF-8.
    NotUtf8,
    /// The frame was not valid JSON or not the expected shape.
    Malformed {
        /// Parser/shape detail.
        message: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversized { limit } => write!(f, "frame exceeds {limit} bytes"),
            Self::NotUtf8 => f.write_str("frame is not valid UTF-8"),
            Self::Malformed { message } => write!(f, "malformed frame: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// The error response this failure maps to. A best-effort `id` is
    /// recovered from the broken frame when possible so the client can
    /// correlate.
    #[must_use]
    pub fn to_response(&self, id: Option<u64>) -> Response {
        Response::Error {
            id,
            kind: ErrorKind::Protocol,
            message: self.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Value helpers (manual serde: the wire shape is a stable contract, kept
// independent of Rust field names and the stub derive's capabilities)
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[allow(
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation
)]
fn u64_from(v: &Value, what: &str) -> Result<u64, serde::Error> {
    let n = f64::from_value(v)?;
    // Strictly below 2^53: at the boundary the nearest-f64 parse already
    // conflates 2^53 with 2^53+1, so accepting it would silently corrupt
    // the value instead of erroring.
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n < MAX_WIRE_INT as f64 {
        Ok(n as u64)
    } else {
        Err(serde::Error::new(format!(
            "{what} must be an integer in [0, 2^53), got {n}"
        )))
    }
}

fn get_u64(v: &Value, field: &str) -> Result<u64, serde::Error> {
    u64_from(v.get_field(field)?, &format!("field `{field}`"))
}

fn get_f64(v: &Value, field: &str) -> Result<f64, serde::Error> {
    f64::from_value(v.get_field(field)?)
}

fn get_str(v: &Value, field: &str) -> Result<String, serde::Error> {
    String::from_value(v.get_field(field)?)
}

fn get_bool_or(v: &Value, field: &str, default: bool) -> Result<bool, serde::Error> {
    match v.get_field(field) {
        Ok(f) => bool::from_value(f),
        Err(_) => Ok(default),
    }
}

fn get_u64_or(v: &Value, field: &str, default: u64) -> Result<u64, serde::Error> {
    match v.get_field(field) {
        Ok(f) => u64_from(f, &format!("field `{field}`")),
        Err(_) => Ok(default),
    }
}

fn get_f64_or(v: &Value, field: &str, default: f64) -> Result<f64, serde::Error> {
    match v.get_field(field) {
        Ok(f) => f64::from_value(f),
        Err(_) => Ok(default),
    }
}

/// Formats a full-range `u64` as the fixed-width hex string the wire
/// format uses for fingerprints.
///
/// # Example
///
/// ```
/// assert_eq!(sigserve::protocol::hex64(0xbeef), "000000000000beef");
/// ```
#[must_use]
pub fn hex64(x: u64) -> String {
    format!("{x:016x}")
}

/// Parses a [`hex64`] string.
///
/// # Errors
///
/// Returns a serde error unless the input is exactly 16 lowercase hex
/// digits.
pub fn parse_hex64(s: &str) -> Result<u64, serde::Error> {
    if s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        u64::from_str_radix(s, 16).map_err(|e| serde::Error::new(e.to_string()))
    } else {
        Err(serde::Error::new(format!(
            "expected 16 lowercase hex digits, got {s:?}"
        )))
    }
}

/// Encodes a sim-shaped request (`sim`, `sim.batch` or `session.open`,
/// which all carry the same stimulus fields plus an op-specific extra).
fn sim_to_value(
    id: u64,
    op: &str,
    session: Option<u64>,
    runs: Option<u64>,
    sim: &SimRequest,
) -> Value {
    let circuit = match &sim.circuit {
        CircuitSource::Name(n) => obj(vec![("name", n.to_value())]),
        CircuitSource::Inline(t) => obj(vec![("inline", t.to_value())]),
    };
    let mut fields = vec![("id", id.to_value()), ("op", op.to_value())];
    if let Some(s) = session {
        fields.push(("session", s.to_value()));
    }
    if let Some(r) = runs {
        fields.push(("runs", r.to_value()));
    }
    fields.extend([
        ("circuit", circuit),
        ("models", sim.models.to_value()),
        ("library", sim.library.to_value()),
        ("seed", sim.seed.to_value()),
        ("mu", sim.mu.to_value()),
        ("sigma", sim.sigma.to_value()),
        ("transitions", (sim.transitions as u64).to_value()),
        ("compare", sim.compare.to_value()),
        ("timing", sim.timing.to_value()),
    ]);
    // Emitted only when set: requests from pre-observability clients (and
    // the default) stay byte-identical to what older daemons golden-test.
    if sim.timings {
        fields.push(("timings", true.to_value()));
    }
    obj(fields)
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Self::Ping { id } => obj(vec![("id", id.to_value()), ("op", "ping".to_value())]),
            Self::Stats { id } => obj(vec![("id", id.to_value()), ("op", "stats".to_value())]),
            Self::Trace { id } => obj(vec![("id", id.to_value()), ("op", "trace".to_value())]),
            Self::Shutdown { id } => {
                obj(vec![("id", id.to_value()), ("op", "shutdown".to_value())])
            }
            Self::Sim { id, sim } => sim_to_value(*id, "sim", None, None, sim),
            Self::SimBatch { id, sim, runs } => {
                sim_to_value(*id, "sim.batch", None, Some(*runs as u64), sim)
            }
            Self::SessionOpen { id, session, sim } => {
                sim_to_value(*id, "session.open", Some(*session), None, sim)
            }
            Self::SessionDelta { id, session, edits } => obj(vec![
                ("id", id.to_value()),
                ("op", "session.delta".to_value()),
                ("session", session.to_value()),
                ("edits", edits.to_value()),
            ]),
            Self::SessionClose { id, session } => obj(vec![
                ("id", id.to_value()),
                ("op", "session.close".to_value()),
                ("session", session.to_value()),
            ]),
        }
    }
}

impl Serialize for SessionEdit {
    fn to_value(&self) -> Value {
        obj(vec![
            ("net", self.net.to_value()),
            ("initial_high", self.initial_high.to_value()),
            ("toggles", self.toggles.to_value()),
        ])
    }
}

impl Deserialize for SessionEdit {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let toggles = Vec::<f64>::from_value(v.get_field("toggles")?)?;
        if toggles.len() > MAX_TRANSITIONS {
            return Err(serde::Error::new(format!(
                "field `toggles` must have at most {MAX_TRANSITIONS} entries"
            )));
        }
        // The same physical-trace invariants DigitalTrace enforces,
        // checked at decode so a bad edit fails in the protocol layer
        // instead of panicking in a worker.
        if !toggles.iter().all(|t| t.is_finite() && *t > 0.0) {
            return Err(serde::Error::new(
                "field `toggles` entries must be finite and positive",
            ));
        }
        if !toggles.windows(2).all(|w| w[0] < w[1]) {
            return Err(serde::Error::new(
                "field `toggles` must be strictly increasing",
            ));
        }
        Ok(Self {
            net: get_str(v, "net")?,
            initial_high: get_bool_or(v, "initial_high", false)?,
            toggles,
        })
    }
}

/// Decodes the sim-shaped stimulus fields shared by `sim` and
/// `session.open` requests.
fn sim_from_value(v: &Value) -> Result<SimRequest, serde::Error> {
    let cv = v.get_field("circuit")?;
    let circuit = if let Ok(name) = get_str(cv, "name") {
        CircuitSource::Name(name)
    } else if let Ok(text) = get_str(cv, "inline") {
        CircuitSource::Inline(text)
    } else {
        return Err(serde::Error::new(
            "field `circuit` needs `name` or `inline`",
        ));
    };
    let transitions = get_u64(v, "transitions")?;
    let transitions = usize::try_from(transitions)
        .ok()
        .filter(|&t| t <= MAX_TRANSITIONS)
        .ok_or_else(|| {
            serde::Error::new(format!(
                "field `transitions` must be at most {MAX_TRANSITIONS}"
            ))
        })?;
    let mu = get_f64(v, "mu")?;
    let sigma = get_f64(v, "sigma")?;
    if !(mu > 0.0 && sigma > 0.0 && mu.is_finite() && sigma.is_finite()) {
        return Err(serde::Error::new(
            "fields `mu` and `sigma` must be positive and finite",
        ));
    }
    // Optional with back-compat default: pre-library clients never send
    // it and must keep prototype behaviour.
    let library = match v.get_field("library") {
        Ok(f) => String::from_value(f)?,
        Err(_) => "nor-only".to_string(),
    };
    Ok(SimRequest {
        circuit,
        models: get_str(v, "models")?,
        library,
        seed: get_u64(v, "seed")?,
        mu,
        sigma,
        transitions,
        compare: get_bool_or(v, "compare", false)?,
        timing: get_bool_or(v, "timing", true)?,
        timings: get_bool_or(v, "timings", false)?,
    })
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let id = get_u64(v, "id")?;
        let op = get_str(v, "op")?;
        match op.as_str() {
            "ping" => Ok(Self::Ping { id }),
            "stats" => Ok(Self::Stats { id }),
            "trace" => Ok(Self::Trace { id }),
            "shutdown" => Ok(Self::Shutdown { id }),
            "sim" => Ok(Self::Sim {
                id,
                sim: sim_from_value(v)?,
            }),
            "sim.batch" => {
                let sim = sim_from_value(v)?;
                if sim.compare {
                    return Err(serde::Error::new(
                        "batches are sigmoid-only: `compare` is not supported",
                    ));
                }
                let runs = get_u64(v, "runs")?;
                let runs = usize::try_from(runs)
                    .ok()
                    .filter(|&r| (1..=MAX_BATCH_RUNS).contains(&r))
                    .ok_or_else(|| {
                        serde::Error::new(format!("field `runs` must be in [1, {MAX_BATCH_RUNS}]"))
                    })?;
                // Run r uses stimulus seed `seed + r`; every derived seed
                // must itself be a valid wire integer, or replaying run r
                // as an individual `sim` request would be impossible.
                if sim.seed.checked_add(runs as u64).is_none()
                    || sim.seed + runs as u64 > MAX_WIRE_INT
                {
                    return Err(serde::Error::new(format!(
                        "`seed + runs` must be at most 2^53 so per-run seeds \
                         stay wire-exact, got {} + {runs}",
                        sim.seed
                    )));
                }
                Ok(Self::SimBatch { id, sim, runs })
            }
            "session.open" => {
                let session = get_u64(v, "session")?;
                let sim = sim_from_value(v)?;
                if sim.compare {
                    return Err(serde::Error::new(
                        "sessions are sigmoid-only: `compare` is not supported",
                    ));
                }
                Ok(Self::SessionOpen { id, session, sim })
            }
            "session.delta" => Ok(Self::SessionDelta {
                id,
                session: get_u64(v, "session")?,
                edits: Vec::<SessionEdit>::from_value(v.get_field("edits")?)?,
            }),
            "session.close" => Ok(Self::SessionClose {
                id,
                session: get_u64(v, "session")?,
            }),
            other => Err(serde::Error::new(format!("unknown op {other:?}"))),
        }
    }
}

impl Serialize for OutputTrace {
    fn to_value(&self) -> Value {
        obj(vec![
            ("net", self.net.to_value()),
            ("initial_high", self.initial_high.to_value()),
            ("toggles", self.toggles.to_value()),
        ])
    }
}

impl Deserialize for OutputTrace {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            net: get_str(v, "net")?,
            initial_high: bool::from_value(v.get_field("initial_high")?)?,
            toggles: Vec::<f64>::from_value(v.get_field("toggles")?)?,
        })
    }
}

impl Serialize for SimResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("fingerprint", self.fingerprint.to_value()),
            ("library", self.library.to_value()),
            (
                "cache",
                match self.cache {
                    CacheOutcome::Hit => "hit",
                    CacheOutcome::Miss => "miss",
                }
                .to_value(),
            ),
            ("outputs", self.outputs.to_value()),
        ];
        if let Some(c) = &self.compare {
            fields.push((
                "compare",
                obj(vec![
                    ("t_err_digital", c.t_err_digital.to_value()),
                    ("t_err_sigmoid", c.t_err_sigmoid.to_value()),
                    ("error_ratio", c.error_ratio.to_value()),
                ]),
            ));
        }
        if let Some(t) = &self.timing {
            fields.push((
                "timing",
                obj(vec![
                    ("wall_analog_s", t.wall_analog_s.to_value()),
                    ("wall_digital_s", t.wall_digital_s.to_value()),
                    ("wall_sigmoid_s", t.wall_sigmoid_s.to_value()),
                ]),
            ));
        }
        if let Some(p) = &self.timings {
            fields.push((
                "timings",
                obj(vec![
                    ("queue_s", p.queue_s.to_value()),
                    ("resolve_s", p.resolve_s.to_value()),
                    ("execute_s", p.execute_s.to_value()),
                    ("total_s", p.total_s.to_value()),
                ]),
            ));
        }
        obj(fields)
    }
}

impl Deserialize for SimResult {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let fingerprint = get_str(v, "fingerprint")?;
        parse_hex64(&fingerprint)?;
        // Absent only in pre-library responses: default like requests do.
        let library = match v.get_field("library") {
            Ok(f) => String::from_value(f)?,
            Err(_) => "nor-only".to_string(),
        };
        let cache = match get_str(v, "cache")?.as_str() {
            "hit" => CacheOutcome::Hit,
            "miss" => CacheOutcome::Miss,
            other => {
                return Err(serde::Error::new(format!(
                    "field `cache` must be hit/miss, got {other:?}"
                )))
            }
        };
        let compare = match v.get_field("compare") {
            Ok(c) => Some(CompareStats {
                t_err_digital: get_f64(c, "t_err_digital")?,
                t_err_sigmoid: get_f64(c, "t_err_sigmoid")?,
                error_ratio: get_f64(c, "error_ratio")?,
            }),
            Err(_) => None,
        };
        let timing = match v.get_field("timing") {
            Ok(t) => Some(TimingStats {
                wall_analog_s: get_f64(t, "wall_analog_s")?,
                wall_digital_s: get_f64(t, "wall_digital_s")?,
                wall_sigmoid_s: get_f64(t, "wall_sigmoid_s")?,
            }),
            Err(_) => None,
        };
        let timings = match v.get_field("timings") {
            Ok(p) => Some(PhaseTimings {
                queue_s: get_f64(p, "queue_s")?,
                resolve_s: get_f64(p, "resolve_s")?,
                execute_s: get_f64(p, "execute_s")?,
                total_s: get_f64(p, "total_s")?,
            }),
            Err(_) => None,
        };
        Ok(Self {
            fingerprint,
            library,
            cache,
            outputs: Vec::<OutputTrace>::from_value(v.get_field("outputs")?)?,
            compare,
            timing,
            timings,
        })
    }
}

impl Serialize for StatsReply {
    fn to_value(&self) -> Value {
        obj(vec![
            ("model_sets", self.model_sets.to_value()),
            ("model_loads", self.model_loads.to_value()),
            ("model_requests", self.model_requests.to_value()),
            ("cache_hits", self.cache_hits.to_value()),
            ("cache_misses", self.cache_misses.to_value()),
            ("cache_entries", self.cache_entries.to_value()),
            ("program_hits", self.program_hits.to_value()),
            ("program_misses", self.program_misses.to_value()),
            ("program_entries", self.program_entries.to_value()),
            ("workers", self.workers.to_value()),
            ("queue_capacity", self.queue_capacity.to_value()),
            ("completed", self.completed.to_value()),
            ("rejected", self.rejected.to_value()),
            ("sessions_open", self.sessions_open.to_value()),
            ("delta_hits", self.delta_hits.to_value()),
            ("gates_reeval", self.gates_reeval.to_value()),
            ("simd_level", self.simd_level.to_value()),
            ("fleet_runs", self.fleet_runs.to_value()),
            ("fleet_rows", self.fleet_rows.to_value()),
            ("obs_mode", self.obs_mode.to_value()),
            ("connections_open", self.connections_open.to_value()),
            ("frames_pipelined", self.frames_pipelined.to_value()),
            ("admission_rejects", self.admission_rejects.to_value()),
            ("sim_p50_s", self.sim_p50_s.to_value()),
            ("sim_p99_s", self.sim_p99_s.to_value()),
            ("batch_p50_s", self.batch_p50_s.to_value()),
            ("batch_p99_s", self.batch_p99_s.to_value()),
            ("delta_p50_s", self.delta_p50_s.to_value()),
            ("delta_p99_s", self.delta_p99_s.to_value()),
            ("queue_p50_s", self.queue_p50_s.to_value()),
            ("queue_p99_s", self.queue_p99_s.to_value()),
        ])
    }
}

impl Deserialize for StatsReply {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            model_sets: match v.get_field("model_sets") {
                Ok(f) => Vec::<String>::from_value(f)?,
                Err(_) => Vec::new(),
            },
            model_loads: get_u64(v, "model_loads")?,
            model_requests: get_u64(v, "model_requests")?,
            cache_hits: get_u64(v, "cache_hits")?,
            cache_misses: get_u64(v, "cache_misses")?,
            cache_entries: get_u64(v, "cache_entries")?,
            // Absent in pre-program-cache daemons: default to zero so a
            // newer `sigctl` can still read an older daemon's stats.
            program_hits: get_u64_or(v, "program_hits", 0)?,
            program_misses: get_u64_or(v, "program_misses", 0)?,
            program_entries: get_u64_or(v, "program_entries", 0)?,
            workers: get_u64(v, "workers")?,
            queue_capacity: get_u64(v, "queue_capacity")?,
            completed: get_u64(v, "completed")?,
            rejected: get_u64(v, "rejected")?,
            // Absent in pre-session daemons: default to zero, like the
            // program_* counters above.
            sessions_open: get_u64_or(v, "sessions_open", 0)?,
            delta_hits: get_u64_or(v, "delta_hits", 0)?,
            gates_reeval: get_u64_or(v, "gates_reeval", 0)?,
            // Absent in pre-SIMD/pre-fleet daemons: empty level, zero
            // counters.
            simd_level: match v.get_field("simd_level") {
                Ok(f) => String::from_value(f)?,
                Err(_) => String::new(),
            },
            fleet_runs: get_u64_or(v, "fleet_runs", 0)?,
            fleet_rows: get_u64_or(v, "fleet_rows", 0)?,
            // Absent in pre-observability daemons: empty mode, zero
            // quantiles — the same decode-defaults discipline as above.
            obs_mode: match v.get_field("obs_mode") {
                Ok(f) => String::from_value(f)?,
                Err(_) => String::new(),
            },
            // Absent in pre-async-transport daemons: zero, as above.
            connections_open: get_u64_or(v, "connections_open", 0)?,
            frames_pipelined: get_u64_or(v, "frames_pipelined", 0)?,
            admission_rejects: get_u64_or(v, "admission_rejects", 0)?,
            sim_p50_s: get_f64_or(v, "sim_p50_s", 0.0)?,
            sim_p99_s: get_f64_or(v, "sim_p99_s", 0.0)?,
            batch_p50_s: get_f64_or(v, "batch_p50_s", 0.0)?,
            batch_p99_s: get_f64_or(v, "batch_p99_s", 0.0)?,
            delta_p50_s: get_f64_or(v, "delta_p50_s", 0.0)?,
            delta_p99_s: get_f64_or(v, "delta_p99_s", 0.0)?,
            queue_p50_s: get_f64_or(v, "queue_p50_s", 0.0)?,
            queue_p99_s: get_f64_or(v, "queue_p99_s", 0.0)?,
        })
    }
}

impl Serialize for TraceSpan {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name", self.name.to_value()),
            ("tid", self.tid.to_value()),
            ("start_us", self.start_us.to_value()),
            ("dur_us", self.dur_us.to_value()),
        ];
        if let Some((key, value)) = &self.arg {
            fields.push(("arg", key.to_value()));
            fields.push(("arg_value", value.to_value()));
        }
        obj(fields)
    }
}

impl Deserialize for TraceSpan {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let arg = match v.get_field("arg") {
            Ok(key) => Some((String::from_value(key)?, get_u64(v, "arg_value")?)),
            Err(_) => None,
        };
        Ok(Self {
            name: get_str(v, "name")?,
            tid: get_u64(v, "tid")?,
            start_us: get_f64(v, "start_us")?,
            dur_us: get_f64(v, "dur_us")?,
            arg,
        })
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Self::Pong { id } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "pong".to_value()),
            ]),
            Self::Sim { id, result } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "sim".to_value()),
                ("result", result.to_value()),
            ]),
            Self::SimBatch { id, results } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "sim.batch".to_value()),
                ("results", results.to_value()),
            ]),
            Self::Stats { id, stats } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "stats".to_value()),
                ("stats", stats.to_value()),
            ]),
            Self::Trace { id, spans, dropped } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "trace".to_value()),
                ("spans", spans.to_value()),
                ("dropped", dropped.to_value()),
            ]),
            Self::ShuttingDown { id } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "shutting-down".to_value()),
            ]),
            Self::Session {
                id,
                session,
                result,
            } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "session".to_value()),
                ("session", session.to_value()),
                ("result", result.to_value()),
            ]),
            Self::SessionClosed { id, session } => obj(vec![
                ("id", id.to_value()),
                ("ok", true.to_value()),
                ("reply", "session-closed".to_value()),
                ("session", session.to_value()),
            ]),
            Self::Error { id, kind, message } => obj(vec![
                (
                    "id",
                    match id {
                        Some(id) => id.to_value(),
                        None => Value::Null,
                    },
                ),
                ("ok", false.to_value()),
                (
                    "error",
                    obj(vec![
                        ("kind", kind.as_str().to_value()),
                        ("message", message.to_value()),
                    ]),
                ),
            ]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let ok = bool::from_value(v.get_field("ok")?)?;
        if !ok {
            let id = match v.get_field("id")? {
                Value::Null => None,
                other => Some(u64_from(other, "field `id`")?),
            };
            let e = v.get_field("error")?;
            let kind_s = get_str(e, "kind")?;
            let kind = ErrorKind::from_str(&kind_s)
                .ok_or_else(|| serde::Error::new(format!("unknown error kind {kind_s:?}")))?;
            return Ok(Self::Error {
                id,
                kind,
                message: get_str(e, "message")?,
            });
        }
        let id = get_u64(v, "id")?;
        match get_str(v, "reply")?.as_str() {
            "pong" => Ok(Self::Pong { id }),
            "shutting-down" => Ok(Self::ShuttingDown { id }),
            "sim" => Ok(Self::Sim {
                id,
                result: SimResult::from_value(v.get_field("result")?)?,
            }),
            "sim.batch" => Ok(Self::SimBatch {
                id,
                results: Vec::<SimResult>::from_value(v.get_field("results")?)?,
            }),
            "stats" => Ok(Self::Stats {
                id,
                stats: StatsReply::from_value(v.get_field("stats")?)?,
            }),
            "trace" => Ok(Self::Trace {
                id,
                spans: Vec::<TraceSpan>::from_value(v.get_field("spans")?)?,
                dropped: get_u64(v, "dropped")?,
            }),
            "session" => Ok(Self::Session {
                id,
                session: get_u64(v, "session")?,
                result: SimResult::from_value(v.get_field("result")?)?,
            }),
            "session-closed" => Ok(Self::SessionClosed {
                id,
                session: get_u64(v, "session")?,
            }),
            other => Err(serde::Error::new(format!("unknown reply {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

/// Encodes a request as one frame line (no terminator).
///
/// # Example
///
/// ```
/// use sigserve::protocol::{decode_request, encode_request, Request};
/// let r = Request::Ping { id: 7 };
/// let line = encode_request(&r);
/// assert!(!line.contains('\n'), "frames are single lines");
/// assert_eq!(decode_request(&line).unwrap(), r);
/// ```
#[must_use]
pub fn encode_request(r: &Request) -> String {
    serde_json::to_string(r).expect("request serialization is infallible")
}

/// Encodes a response as one frame line (no terminator).
#[must_use]
pub fn encode_response(r: &Response) -> String {
    serde_json::to_string(r).expect("response serialization is infallible")
}

fn decode<T: Deserialize>(line: &str) -> Result<T, ProtocolError> {
    serde_json::from_str(line).map_err(|e| ProtocolError::Malformed {
        message: e.to_string(),
    })
}

/// Decodes one request frame.
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] on any invalid input; never
/// panics.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    decode(line)
}

/// Decodes one response frame.
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] on any invalid input; never
/// panics.
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    decode(line)
}

/// Best-effort extraction of the `id` field from a frame that failed full
/// decoding, so error responses can still be correlated.
#[must_use]
pub fn salvage_id(line: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(line).ok()?;
    get_u64(&v, "id").ok()
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Reads LF-terminated frames from a byte stream with a hard per-frame
/// size cap. An oversized frame is consumed (discarded) up to its
/// terminator so the stream recovers on the next frame; the memory used
/// is bounded by the cap regardless of input. Partially read frames are
/// kept across calls, so a transient I/O error (e.g. a read timeout on
/// a socket polled for shutdown) never corrupts the stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    input: R,
    max_frame: usize,
    /// Bytes of the frame currently being assembled.
    buf: Vec<u8>,
    /// The current frame already blew the cap; discard until its LF.
    oversized: bool,
}

impl<R: std::io::BufRead> FrameReader<R> {
    /// Wraps a buffered reader with the given frame cap (bytes, LF
    /// included).
    #[must_use]
    pub fn new(input: R, max_frame: usize) -> Self {
        assert!(max_frame > 0, "frame cap must be positive");
        Self {
            input,
            max_frame,
            buf: Vec::new(),
            oversized: false,
        }
    }

    fn take_frame(&mut self) -> Result<String, ProtocolError> {
        let buf = std::mem::take(&mut self.buf);
        if std::mem::take(&mut self.oversized) {
            Err(ProtocolError::Oversized {
                limit: self.max_frame,
            })
        } else {
            finish_frame(buf)
        }
    }

    /// Reads the next frame. `Ok(None)` is end of stream; a final
    /// unterminated frame is returned as a normal frame (standard
    /// text-protocol tolerance).
    ///
    /// # Errors
    ///
    /// Outer `Err` is transport I/O failure — for `WouldBlock`/`TimedOut`
    /// the reader stays consistent and the call can simply be retried;
    /// inner `Err` is a per-frame protocol violation (the stream stays
    /// usable).
    #[allow(clippy::missing_panics_doc)] // buffer arithmetic cannot underflow
    pub fn next_frame(&mut self) -> std::io::Result<Option<Result<String, ProtocolError>>> {
        loop {
            let available = self.input.fill_buf()?;
            if available.is_empty() {
                // EOF.
                if self.buf.is_empty() && !self.oversized {
                    return Ok(None);
                }
                return Ok(Some(self.take_frame()));
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let take = newline.map_or(available.len(), |i| i + 1);
            if !self.oversized {
                if self.buf.len() + take > self.max_frame {
                    self.oversized = true;
                    self.buf.clear();
                } else {
                    self.buf.extend_from_slice(&available[..take]);
                }
            }
            let done = newline.is_some();
            self.input.consume(take);
            if done {
                return Ok(Some(self.take_frame()));
            }
        }
    }
}

fn finish_frame(mut buf: Vec<u8>) -> Result<String, ProtocolError> {
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ProtocolError::NotUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(bytes: &[u8], cap: usize) -> Vec<Result<String, ProtocolError>> {
        let mut reader = FrameReader::new(Cursor::new(bytes.to_vec()), cap);
        let mut out = Vec::new();
        while let Some(frame) = reader.next_frame().expect("cursor I/O cannot fail") {
            out.push(frame);
        }
        out
    }

    #[test]
    fn frames_split_on_lf_and_tolerate_missing_terminator() {
        let got = frames(b"abc\ndef\r\nghi", 64);
        assert_eq!(
            got,
            vec![
                Ok("abc".to_string()),
                Ok("def".to_string()),
                Ok("ghi".to_string())
            ]
        );
    }

    #[test]
    fn oversized_frame_is_skipped_and_stream_recovers() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let got = frames(&data, 16);
        assert_eq!(
            got,
            vec![
                Err(ProtocolError::Oversized { limit: 16 }),
                Ok("ok".to_string())
            ]
        );
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let got = frames(&[0xff, 0xfe, b'\n', b'o', b'k', b'\n'], 64);
        assert_eq!(got[0], Err(ProtocolError::NotUtf8));
        assert_eq!(got[1], Ok("ok".to_string()));
    }

    #[test]
    fn request_round_trip_all_variants() {
        let requests = vec![
            Request::Ping { id: 1 },
            Request::Stats { id: 2 },
            Request::Trace { id: 12 },
            Request::Shutdown { id: 3 },
            Request::Sim {
                id: 4,
                sim: SimRequest {
                    circuit: CircuitSource::Name("c17".into()),
                    models: "ci".into(),
                    library: "native".into(),
                    seed: 42,
                    mu: 60e-12,
                    sigma: 25e-12,
                    transitions: 4,
                    compare: true,
                    timing: false,
                    timings: false,
                },
            },
            Request::Sim {
                id: 13,
                sim: SimRequest {
                    timings: true,
                    ..SimRequest::default()
                },
            },
            Request::Sim {
                id: 5,
                sim: SimRequest {
                    circuit: CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = NOR(a)\n".into()),
                    ..SimRequest::default()
                },
            },
            Request::SessionOpen {
                id: 6,
                session: 11,
                sim: SimRequest {
                    circuit: CircuitSource::Name("c17".into()),
                    library: "native".into(),
                    timing: false,
                    ..SimRequest::default()
                },
            },
            Request::SessionDelta {
                id: 7,
                session: 11,
                edits: vec![
                    SessionEdit {
                        net: "1".into(),
                        initial_high: true,
                        toggles: vec![1.0e-10, 2.5e-10],
                    },
                    SessionEdit {
                        net: "2".into(),
                        initial_high: false,
                        toggles: vec![],
                    },
                ],
            },
            Request::SessionClose { id: 8, session: 11 },
            Request::SimBatch {
                id: 9,
                sim: SimRequest {
                    circuit: CircuitSource::Name("c1355".into()),
                    library: "native".into(),
                    seed: 100,
                    timing: false,
                    ..SimRequest::default()
                },
                runs: 16,
            },
        ];
        for r in requests {
            let line = encode_request(&r);
            assert!(!line.contains('\n'), "frames must be single lines");
            assert_eq!(decode_request(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn response_round_trip_all_variants() {
        let responses = vec![
            Response::Pong { id: 1 },
            Response::ShuttingDown { id: 9 },
            Response::Stats {
                id: 2,
                stats: StatsReply {
                    model_sets: vec!["ci/nor-only".into(), "ci/native".into()],
                    model_loads: 1,
                    model_requests: 10,
                    cache_hits: 90,
                    cache_misses: 3,
                    cache_entries: 3,
                    program_hits: 88,
                    program_misses: 5,
                    program_entries: 5,
                    workers: 4,
                    queue_capacity: 64,
                    completed: 93,
                    rejected: 2,
                    sessions_open: 3,
                    delta_hits: 41,
                    gates_reeval: 977,
                    simd_level: "avx2".into(),
                    fleet_runs: 32,
                    fleet_rows: 4096,
                    obs_mode: "counters".into(),
                    connections_open: 17,
                    frames_pipelined: 4096,
                    admission_rejects: 11,
                    sim_p50_s: 0.000131071,
                    sim_p99_s: 0.001048575,
                    batch_p50_s: 0.002097151,
                    batch_p99_s: 0.004194303,
                    delta_p50_s: 0.000016383,
                    delta_p99_s: 0.000065535,
                    queue_p50_s: 0.000001023,
                    queue_p99_s: 0.000032767,
                },
            },
            Response::Sim {
                id: 3,
                result: SimResult {
                    fingerprint: hex64(0xdead_beef_0123_4567),
                    library: "native".into(),
                    cache: CacheOutcome::Hit,
                    outputs: vec![OutputTrace {
                        net: "y".into(),
                        initial_high: false,
                        toggles: vec![1.25e-10, 3.5e-10],
                    }],
                    compare: Some(CompareStats {
                        t_err_digital: 3.2e-12,
                        t_err_sigmoid: 1.1e-12,
                        error_ratio: 0.34375,
                    }),
                    timing: Some(TimingStats {
                        wall_analog_s: 0.015,
                        wall_digital_s: 0.0001,
                        wall_sigmoid_s: 0.0002,
                    }),
                    timings: Some(PhaseTimings {
                        queue_s: 0.00001,
                        resolve_s: 0.0002,
                        execute_s: 0.0015,
                        total_s: 0.0018,
                    }),
                },
            },
            Response::Trace {
                id: 14,
                spans: vec![
                    TraceSpan {
                        name: "program.execute".into(),
                        tid: 2,
                        start_us: 1234.567,
                        dur_us: 89.001,
                        arg: None,
                    },
                    TraceSpan {
                        name: "execute.infer".into(),
                        tid: 2,
                        start_us: 1250.0,
                        dur_us: 12.5,
                        arg: Some(("rows".into(), 128)),
                    },
                ],
                dropped: 3,
            },
            Response::Error {
                id: None,
                kind: ErrorKind::Protocol,
                message: "malformed frame: expected a JSON value at byte 0".into(),
            },
            Response::Error {
                id: Some(7),
                kind: ErrorKind::Overloaded,
                message: "queue full".into(),
            },
            Response::Session {
                id: 8,
                session: 11,
                result: SimResult {
                    fingerprint: hex64(0x1234_5678_9abc_def0),
                    library: "native".into(),
                    cache: CacheOutcome::Miss,
                    outputs: vec![OutputTrace {
                        net: "22".into(),
                        initial_high: true,
                        toggles: vec![2.0e-10],
                    }],
                    compare: None,
                    timing: None,
                    timings: None,
                },
            },
            Response::SessionClosed { id: 9, session: 11 },
            Response::Error {
                id: Some(10),
                kind: ErrorKind::UnknownSession,
                message: "session 12 is not open on this connection".into(),
            },
            Response::SimBatch {
                id: 11,
                results: vec![
                    SimResult {
                        fingerprint: hex64(0xfeed_f00d_0000_0001),
                        library: "nor-only".into(),
                        cache: CacheOutcome::Miss,
                        outputs: vec![OutputTrace {
                            net: "y".into(),
                            initial_high: false,
                            toggles: vec![1.0e-10],
                        }],
                        compare: None,
                        timing: None,
                        timings: None,
                    },
                    SimResult {
                        fingerprint: hex64(0xfeed_f00d_0000_0001),
                        library: "nor-only".into(),
                        cache: CacheOutcome::Hit,
                        outputs: vec![],
                        compare: None,
                        timing: None,
                        timings: None,
                    },
                ],
            },
        ];
        for r in responses {
            let line = encode_response(&r);
            assert!(!line.contains('\n'));
            assert_eq!(decode_response(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "",
            "null",
            "42",
            "{}",
            "{\"id\":1}",
            "{\"id\":1,\"op\":\"warp\"}",
            "{\"id\":-3,\"op\":\"ping\"}",
            "{\"id\":1e300,\"op\":\"ping\"}",
            "{\"id\":1.5,\"op\":\"ping\"}",
            "{\"id\":1,\"op\":\"sim\"}",
            "{\"id\":1,\"op\":\"sim\",\"circuit\":{},\"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}",
            "{\"id\":1,\"op\":\"sim\",\"circuit\":{\"name\":\"c17\"},\"models\":\"x\",\"seed\":1,\"mu\":-1.0,\"sigma\":1e-11,\"transitions\":2}",
            "{\"id\":1,\"op\":\"sim\",\"circuit\":{\"name\":\"c17\"},\"models\":\"x\",\"seed\":1,\"mu\":NaN,\"sigma\":1e-11,\"transitions\":2}",
            // An absurd transition count must be rejected at decode, not
            // allowed to size stimulus allocations in a worker.
            "{\"id\":1,\"op\":\"sim\",\"circuit\":{\"name\":\"c17\"},\"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":1e15}",
        ] {
            assert!(
                matches!(decode_request(bad), Err(ProtocolError::Malformed { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn malformed_session_requests_are_structured_errors() {
        for bad in [
            // session.open without a session id.
            "{\"id\":1,\"op\":\"session.open\",\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}",
            // Sessions are sigmoid-only: compare mode is rejected.
            "{\"id\":1,\"op\":\"session.open\",\"session\":3,\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2,\
             \"compare\":true}",
            // Delta without edits.
            "{\"id\":1,\"op\":\"session.delta\",\"session\":3}",
            // Non-increasing toggles.
            "{\"id\":1,\"op\":\"session.delta\",\"session\":3,\
             \"edits\":[{\"net\":\"a\",\"toggles\":[2e-10,1e-10]}]}",
            // Non-positive toggle.
            "{\"id\":1,\"op\":\"session.delta\",\"session\":3,\
             \"edits\":[{\"net\":\"a\",\"toggles\":[0.0]}]}",
            // Non-finite toggle.
            "{\"id\":1,\"op\":\"session.delta\",\"session\":3,\
             \"edits\":[{\"net\":\"a\",\"toggles\":[Infinity]}]}",
            // Close without a session id.
            "{\"id\":1,\"op\":\"session.close\"}",
        ] {
            assert!(
                matches!(decode_request(bad), Err(ProtocolError::Malformed { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn malformed_batch_requests_are_structured_errors() {
        for bad in [
            // sim.batch without a runs field.
            "{\"id\":1,\"op\":\"sim.batch\",\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}",
            // Zero runs.
            "{\"id\":1,\"op\":\"sim.batch\",\"runs\":0,\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}",
            // Over the fleet cap.
            "{\"id\":1,\"op\":\"sim.batch\",\"runs\":257,\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}",
            // Batches are sigmoid-only: compare mode is rejected.
            "{\"id\":1,\"op\":\"sim.batch\",\"runs\":4,\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":1,\"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2,\
             \"compare\":true}",
            // seed + runs would push per-run seeds past 2^53.
            "{\"id\":1,\"op\":\"sim.batch\",\"runs\":16,\"circuit\":{\"name\":\"c17\"},\
             \"models\":\"x\",\"seed\":9007199254740984,\"mu\":1e-11,\"sigma\":1e-11,\
             \"transitions\":2}",
        ] {
            assert!(
                matches!(decode_request(bad), Err(ProtocolError::Malformed { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn session_edit_defaults_and_caps() {
        let line = "{\"id\":1,\"op\":\"session.delta\",\"session\":3,\
                    \"edits\":[{\"net\":\"a\",\"toggles\":[1e-10]}]}";
        let Request::SessionDelta { edits, .. } = decode_request(line).unwrap() else {
            panic!("expected session.delta");
        };
        assert!(!edits[0].initial_high, "initial_high defaults low");
        // A toggle list beyond MAX_TRANSITIONS is rejected at decode.
        let toggles: Vec<String> = (1..=MAX_TRANSITIONS + 1)
            .map(|i| format!("{i}e-12"))
            .collect();
        let oversized = format!(
            "{{\"id\":1,\"op\":\"session.delta\",\"session\":3,\
             \"edits\":[{{\"net\":\"a\",\"toggles\":[{}]}}]}}",
            toggles.join(",")
        );
        assert!(matches!(
            decode_request(&oversized),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn stats_without_session_fields_decodes_with_zeros() {
        // Pre-session daemons never send the session counters; a newer
        // client must read their stats as zeros, not error.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"stats\",\"stats\":{\
                    \"model_loads\":1,\"model_requests\":2,\"cache_hits\":3,\
                    \"cache_misses\":4,\"cache_entries\":1,\"workers\":2,\
                    \"queue_capacity\":64,\"completed\":5,\"rejected\":0}}";
        let Response::Stats { stats, .. } = decode_response(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(
            (stats.sessions_open, stats.delta_hits, stats.gates_reeval),
            (0, 0, 0)
        );
    }

    #[test]
    fn sim_defaults_apply_for_optional_fields() {
        let line = "{\"id\":1,\"op\":\"sim\",\"circuit\":{\"name\":\"c17\"},\
                    \"models\":\"ci\",\"seed\":1,\"mu\":6e-11,\"sigma\":2.5e-11,\
                    \"transitions\":4}";
        let Request::Sim { sim, .. } = decode_request(line).unwrap() else {
            panic!("expected sim");
        };
        assert!(!sim.compare, "compare defaults off");
        assert!(sim.timing, "timing defaults on");
        assert_eq!(sim.library, "nor-only", "library defaults to the prototype");
    }

    #[test]
    fn stats_without_program_fields_decodes_with_zeros() {
        // Pre-program-cache daemons never send the program_* counters; a
        // newer client must read their stats as zeros, not error.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"stats\",\"stats\":{\
                    \"model_loads\":1,\"model_requests\":2,\"cache_hits\":3,\
                    \"cache_misses\":4,\"cache_entries\":1,\"workers\":2,\
                    \"queue_capacity\":64,\"completed\":5,\"rejected\":0}}";
        let Response::Stats { stats, .. } = decode_response(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(
            (
                stats.program_hits,
                stats.program_misses,
                stats.program_entries
            ),
            (0, 0, 0)
        );
        assert_eq!(stats.cache_hits, 3);
    }

    #[test]
    fn stats_without_fleet_fields_decodes_with_defaults() {
        // Pre-SIMD/pre-fleet daemons never send simd_level or the fleet
        // counters; a newer client must read them as empty/zero, not
        // error.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"stats\",\"stats\":{\
                    \"model_loads\":1,\"model_requests\":2,\"cache_hits\":3,\
                    \"cache_misses\":4,\"cache_entries\":1,\"workers\":2,\
                    \"queue_capacity\":64,\"completed\":5,\"rejected\":0}}";
        let Response::Stats { stats, .. } = decode_response(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.simd_level, "");
        assert_eq!((stats.fleet_runs, stats.fleet_rows), (0, 0));
    }

    #[test]
    fn stats_without_obs_fields_decodes_with_defaults() {
        // Pre-observability daemons never send obs_mode or the latency
        // quantiles; a newer client must read them as empty/zero, not
        // error.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"stats\",\"stats\":{\
                    \"model_loads\":1,\"model_requests\":2,\"cache_hits\":3,\
                    \"cache_misses\":4,\"cache_entries\":1,\"workers\":2,\
                    \"queue_capacity\":64,\"completed\":5,\"rejected\":0}}";
        let Response::Stats { stats, .. } = decode_response(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.obs_mode, "");
        assert_eq!(stats.sim_p50_s, 0.0);
        assert_eq!(stats.sim_p99_s, 0.0);
        assert_eq!(stats.batch_p99_s, 0.0);
        assert_eq!(stats.delta_p99_s, 0.0);
        assert_eq!(stats.queue_p99_s, 0.0);
    }

    #[test]
    fn stats_without_transport_fields_decodes_with_zeros() {
        // Pre-async-transport daemons never send the connection gauge,
        // pipelining counter, or admission rejects; a newer client must
        // read them as zeros, not error.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"stats\",\"stats\":{\
                    \"model_loads\":1,\"model_requests\":2,\"cache_hits\":3,\
                    \"cache_misses\":4,\"cache_entries\":1,\"workers\":2,\
                    \"queue_capacity\":64,\"completed\":5,\"rejected\":0}}";
        let Response::Stats { stats, .. } = decode_response(line).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(
            (
                stats.connections_open,
                stats.frames_pipelined,
                stats.admission_rejects
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn sim_result_without_timings_decodes_as_none() {
        // The timings breakdown is opt-in; replies that omit it must
        // decode with `timings: None` rather than erroring.
        let line = "{\"id\":1,\"ok\":true,\"reply\":\"sim\",\"result\":{\
                    \"fingerprint\":\"00000000deadbeef\",\"library\":\"native\",\
                    \"cache\":\"miss\",\"outputs\":[]}}";
        let Response::Sim { result, .. } = decode_response(line).unwrap() else {
            panic!("expected sim");
        };
        assert!(result.timings.is_none());
    }

    #[test]
    fn batch_boundary_runs_and_seeds_decode() {
        // The largest legal fleet at the largest legal base seed: runs at
        // the cap, with seed + runs landing exactly on 2^53.
        let seed = MAX_WIRE_INT - MAX_BATCH_RUNS as u64;
        let line = format!(
            "{{\"id\":1,\"op\":\"sim.batch\",\"runs\":{MAX_BATCH_RUNS},\
             \"circuit\":{{\"name\":\"c17\"}},\"models\":\"x\",\"seed\":{seed},\
             \"mu\":1e-11,\"sigma\":1e-11,\"transitions\":2}}"
        );
        let Request::SimBatch { sim, runs, .. } = decode_request(&line).unwrap() else {
            panic!("expected sim.batch");
        };
        assert_eq!(runs, MAX_BATCH_RUNS);
        assert_eq!(sim.seed, seed);
    }

    #[test]
    fn salvage_id_recovers_ids_from_bad_requests() {
        assert_eq!(salvage_id("{\"id\":9,\"op\":\"warp\"}"), Some(9));
        assert_eq!(salvage_id("{\"op\":\"ping\"}"), None);
        assert_eq!(salvage_id("not json"), None);
    }

    #[test]
    fn hex64_round_trip() {
        for x in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(parse_hex64(&hex64(x)).unwrap(), x);
        }
        assert!(parse_hex64("123").is_err());
        assert!(parse_hex64("ZZ23456789abcdef").is_err());
    }
}
