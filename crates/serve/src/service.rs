//! The service core: request execution and scheduling, independent of
//! any transport (the TCP and stdio frontends in [`crate::server`] and
//! the in-process benches drive the same [`Service`]).
//!
//! The service is a **scheduling layer, never a numerics layer**: a sim
//! request resolves its artifacts (registry, cache), derives stimuli from
//! its seed exactly like a direct harness call, and then calls the very
//! same [`sigsim`] entry points. Responses are bit-identical to direct
//! calls with the same seed (property the integration test enforces).

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigcircuit::{Benchmark, Circuit, MappingPolicy, NetId};
use sigsim::{
    compare_circuit_cells, digital_to_sigmoid, random_stimuli, simulate_cells_with, CircuitProgram,
    FleetScratch, HarnessConfig, SigmoidSimConfig, SigmoidSimResult, StimulusEdit, StimulusSpec,
};
use sigwave::parallel::WorkerPool;
use sigwave::{DigitalTrace, Level, SigmoidTrace};

use crate::cache::{CacheKey, CircuitCache, ProgramCache};
use crate::mux::{unanswered, Backend, Responder, TransportCounters};
use crate::protocol::{
    CacheOutcome, CompareStats, ErrorKind, OutputTrace, PhaseTimings, Request, Response,
    SessionEdit, SimRequest, SimResult, StatsReply, TimingStats, TraceSpan,
};
use crate::registry::{ModelRegistry, ModelSet, RegistryError};
use crate::session::{SessionCore, SessionTable, Turn};

/// Per-operation service latencies (handle-to-response, measured on the
/// worker thread around the whole execution body). The `op.*` names
/// complement the engine-level `engine.*` histograms: an `op.sim` sample
/// covers artifact resolution and encoding-adjacent work that
/// `engine.execute` does not. The `stats` reply's `sim_p50_s`-family
/// quantiles read from these.
static OP_SIM: sigobs::Hist = sigobs::Hist::new("op.sim");
static OP_BATCH: sigobs::Hist = sigobs::Hist::new("op.sim_batch");
static OP_OPEN: sigobs::Hist = sigobs::Hist::new("op.session_open");
static OP_DELTA: sigobs::Hist = sigobs::Hist::new("op.session_delta");

/// Digitizing a response's primary outputs ([`digitize_outputs`]): the
/// response-path cost after the engine, one sample per `sim` (sigmoid-only
/// or compare mode), `sim.batch` entry, `session.open` and
/// `session.delta` response.
static DIGITIZE: sigobs::Hist = sigobs::Hist::new("serve.digitize");

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scheduler worker threads (`0` = auto-detect).
    pub workers: usize,
    /// Bounded queue depth; sim requests beyond it are rejected with
    /// `overloaded` (explicit backpressure, never unbounded buffering).
    pub queue_capacity: usize,
    /// Maximum circuits resident in the LRU cache.
    pub cache_capacity: usize,
    /// Directory for the model registry's on-disk preset caches.
    pub models_dir: std::path::PathBuf,
    /// Per-frame size cap in bytes for the wire transports.
    pub max_frame: usize,
    /// Daemon-wide cap on open incremental sessions. Sessions pin a
    /// compiled program and a full set of per-net traces, so the budget
    /// is explicit; a connection opening past it evicts its own
    /// least-recently-used session (see [`crate::session::SessionTable`]).
    pub session_capacity: usize,
    /// Per-connection pipelining window: frames dispatched but not yet
    /// written back. Past it the reactor pauses the connection's reads
    /// (kernel-buffer backpressure) instead of buffering unboundedly.
    pub max_inflight: usize,
    /// Daemon-wide cap on heavy requests (sim / batch / session work)
    /// admitted but not yet answered. Past it new heavy frames are
    /// rejected with `overloaded` before touching the pool, so a flood
    /// never starves executing work with decode/reject churn.
    pub admission_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 32,
            models_dir: std::path::PathBuf::from("target/sigmodels"),
            max_frame: crate::protocol::MAX_FRAME_BYTES,
            session_capacity: 32,
            max_inflight: 64,
            admission_budget: 512,
        }
    }
}

/// What [`Service::handle`] tells the transport to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handled {
    /// Keep reading frames.
    Continue,
    /// A shutdown was acknowledged: stop reading, drain, exit.
    Shutdown,
}

/// A bounded free-list of [`FleetScratch`] arenas shared by the resident
/// workers: each executing request — solo, fleet or session open — pops
/// one (or starts fresh), runs, and returns it, so steady-state traffic
/// reuses grown buffers instead of re-allocating per request. Bounded so
/// a one-off burst cannot pin memory forever. It also totals the snap
/// memo's row counters of every execution (session deltas add theirs).
#[derive(Debug, Default)]
struct ScratchPool {
    pool: Mutex<Vec<FleetScratch>>,
    memo_hits: AtomicU64,
    memo_searches: AtomicU64,
}

/// Upper bound on pooled arenas (comfortably above any sane worker
/// count; beyond it, returned scratch is simply dropped).
const MAX_POOLED_SCRATCH: usize = 32;

/// Largest retained arena, in `runs × nets` slots. An arena's dominant
/// allocation is one trace slot per run per net, so the cap bounds
/// pooled memory by count × this cap — sized for a max-width fleet (256
/// runs) of every built-in benchmark while dropping arenas grown by huge
/// inline netlists, instead of pinning the largest circuit the daemon
/// ever saw.
const MAX_POOLED_NET_SLOTS: usize = 1 << 20;

impl ScratchPool {
    /// Runs `f` on a pooled arena and returns its output with the time
    /// `f` took.
    fn run<T>(&self, f: impl FnOnce(&mut FleetScratch) -> T) -> (T, Duration) {
        let mut scratch = self
            .pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        // The engine accumulates `runs`/`rows_merged` across executions;
        // a pooled arena must start every request at zero or the per-
        // request deltas (and the daemon's fleet counters) double-count
        // the arena's whole history.
        scratch.reset_counters();
        let start = Instant::now();
        let out = f(&mut scratch);
        let wall = start.elapsed();
        self.count_memo_rows(scratch.snap_memo_hits(), scratch.snap_memo_searches());
        if scratch.net_capacity() <= MAX_POOLED_NET_SLOTS {
            let mut pool = self.pool.lock().expect("scratch pool poisoned");
            if pool.len() < MAX_POOLED_SCRATCH {
                pool.push(scratch);
            }
        }
        (out, wall)
    }

    fn count_memo_rows(&self, hits: u64, searches: u64) {
        self.memo_hits.fetch_add(hits, Ordering::Relaxed);
        self.memo_searches.fetch_add(searches, Ordering::Relaxed);
    }
}

/// The resident service: registry + caches + bounded scheduler.
pub struct Service {
    config: ServiceConfig,
    registry: ModelRegistry,
    cache: CircuitCache,
    programs: ProgramCache,
    scratch: ScratchPool,
    pool: WorkerPool,
    completed: AtomicU64,
    rejected: AtomicU64,
    draining: AtomicBool,
    /// Incremental sessions currently open across all connections (the
    /// tables increment on reserve and decrement exactly once when a
    /// session leaves its table — close, eviction, failed open, or the
    /// connection dropping).
    sessions_open: AtomicU64,
    /// `session.delta` requests served from resident session state.
    delta_hits: AtomicU64,
    /// Cumulative gates re-evaluated by delta requests.
    gates_reeval: AtomicU64,
    /// Cumulative runs executed through the fleet path (`sim.batch`).
    fleet_runs: AtomicU64,
    /// Cumulative inference rows merged across fleet runs.
    fleet_rows: AtomicU64,
    /// The TCP transport's counters; its admission rejects also count
    /// as `rejected` (the same overload, refused at the door).
    transport: TransportCounters,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Builds the service and spawns its worker pool.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        let pool = WorkerPool::new(config.workers, config.queue_capacity);
        Arc::new(Self {
            registry: ModelRegistry::new(config.models_dir.clone()),
            cache: CircuitCache::new(config.cache_capacity),
            programs: ProgramCache::new(config.cache_capacity),
            scratch: ScratchPool::default(),
            pool,
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            sessions_open: AtomicU64::new(0),
            delta_hits: AtomicU64::new(0),
            gates_reeval: AtomicU64::new(0),
            fleet_runs: AtomicU64::new(0),
            fleet_rows: AtomicU64::new(0),
            transport: TransportCounters::default(),
            config,
        })
    }

    /// The open-session counter, shared with the per-connection
    /// [`SessionTable`]s that own the increments/decrements.
    pub(crate) fn session_count(&self) -> &AtomicU64 {
        &self.sessions_open
    }

    /// The model registry (exposed so embedders — tests, benches — can
    /// pre-register synthetic model sets).
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The circuit cache (counters feed stats and tests).
    #[must_use]
    pub fn cache(&self) -> &CircuitCache {
        &self.cache
    }

    /// The compiled-program cache (counters feed stats and tests).
    #[must_use]
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current counters, plus latency quantiles from the process-wide
    /// observability histograms (zero until the matching operation has
    /// been served at least once with `SIG_OBS` at `counters` or above).
    #[must_use]
    pub fn stats(&self) -> StatsReply {
        let mut sim = (0.0, 0.0);
        let mut batch = (0.0, 0.0);
        let mut delta = (0.0, 0.0);
        let mut queue = (0.0, 0.0);
        for h in sigobs::snapshot_all() {
            let q = (h.quantile_secs(0.50), h.quantile_secs(0.99));
            match h.name {
                "op.sim" => sim = q,
                "op.sim_batch" => batch = q,
                "op.session_delta" => delta = q,
                "pool.queue_wait" => queue = q,
                _ => {}
            }
        }
        StatsReply {
            model_sets: self.registry.resident_keys(),
            model_loads: self.registry.loads(),
            model_requests: self.registry.requests(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.entries() as u64,
            program_hits: self.programs.hits(),
            program_misses: self.programs.misses(),
            program_entries: self.programs.entries() as u64,
            workers: self.pool.worker_count() as u64,
            queue_capacity: self.config.queue_capacity as u64,
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed)
                + self.transport.admission_rejects.load(Ordering::Relaxed),
            sessions_open: self.sessions_open.load(Ordering::SeqCst),
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            gates_reeval: self.gates_reeval.load(Ordering::Relaxed),
            simd_level: signn::simd::active_level().as_str().to_string(),
            fleet_runs: self.fleet_runs.load(Ordering::Relaxed),
            fleet_rows: self.fleet_rows.load(Ordering::Relaxed),
            snap_memo_hits: self.scratch.memo_hits.load(Ordering::Relaxed),
            snap_memo_searches: self.scratch.memo_searches.load(Ordering::Relaxed),
            snap_memo_bytes: self.registry.snap_memo_bytes(),
            obs_mode: sigobs::mode().as_str().to_string(),
            connections_open: self.transport.connections_open.load(Ordering::SeqCst),
            frames_pipelined: self.transport.frames_pipelined.load(Ordering::Relaxed),
            admission_rejects: self.transport.admission_rejects.load(Ordering::Relaxed),
            sim_p50_s: sim.0,
            sim_p99_s: sim.1,
            batch_p50_s: batch.0,
            batch_p99_s: batch.1,
            delta_p50_s: delta.0,
            delta_p99_s: delta.1,
            queue_p50_s: queue.0,
            queue_p99_s: queue.1,
        }
    }

    /// Blocks until all queued and running simulations finish.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Direct pool access for deterministic scheduling tests.
    #[cfg(test)]
    pub(crate) fn pool_for_tests(&self) -> &WorkerPool {
        &self.pool
    }

    /// Handles one decoded request from the connection that owns
    /// `sessions` (transports open one [`SessionTable`] per connection).
    /// Cheap requests (ping, stats, trace, shutdown, session close) are
    /// answered inline via `respond`; sims, batches, session opens and
    /// deltas run on the pool and answer from a worker thread, so
    /// `respond` must be callable from any thread, and responses to
    /// different requests may interleave in any order (clients correlate
    /// by id). Every request gets exactly one response: `overloaded` when
    /// the queue is full, `internal` when its job unwinds.
    pub fn handle(
        self: &Arc<Self>,
        request: Request,
        sessions: &Arc<SessionTable>,
        respond: impl Fn(Response) + Send + Sync + 'static,
    ) -> Handled {
        match request {
            Request::Ping { id } => respond(Response::Pong { id }),
            Request::Stats { id } => respond(Response::Stats {
                id,
                stats: self.stats(),
            }),
            Request::Trace { id } => {
                // Draining the journal is cheap bookkeeping (it is empty
                // unless the daemon runs with `SIG_OBS=trace`), so the
                // reply is answered inline like `stats`.
                let (events, dropped) = sigobs::drain_chrome_trace();
                let spans = events
                    .into_iter()
                    .map(|e| TraceSpan {
                        name: e.name,
                        tid: e.tid,
                        start_us: e.start_ns as f64 / 1000.0,
                        dur_us: e.dur_ns as f64 / 1000.0,
                        arg: e.arg,
                    })
                    .collect();
                respond(Response::Trace { id, spans, dropped });
            }
            Request::Shutdown { id } => {
                self.draining.store(true, Ordering::SeqCst);
                self.pool.drain();
                respond(Response::ShuttingDown { id });
                return Handled::Shutdown;
            }
            // Close is pure table bookkeeping: answered inline, and
            // allowed even while draining (it releases state).
            Request::SessionClose { id, session } => respond(if sessions.remove(session) {
                Response::SessionClosed { id, session }
            } else {
                unknown_session(id, session)
            }),
            // Every request below runs on the pool, which takes no new
            // work while draining.
            request if self.draining.load(Ordering::SeqCst) => respond(Response::Error {
                id: Some(request.id()),
                kind: ErrorKind::ShuttingDown,
                message: "daemon is draining".to_string(),
            }),
            Request::Sim { id, sim } => {
                self.submit(id, &OP_SIM, sim.timings, None, respond, move |service| {
                    let result = service.execute_sim(&sim)?;
                    Ok(Response::Sim { id, result })
                });
            }
            Request::SimBatch { id, sim, runs } => {
                self.submit(id, &OP_BATCH, sim.timings, None, respond, move |service| {
                    let results = service.execute_sim_batch(&sim, runs)?;
                    Ok(Response::SimBatch { id, results })
                });
            }
            // The open reserves its slot inline, so the very next frame
            // already finds the session.
            Request::SessionOpen { id, session, sim } => match sessions.open(session) {
                Ok(turn) => {
                    let refund = Some(turn.clone());
                    self.submit(id, &OP_OPEN, sim.timings, refund, respond, move |service| {
                        let result = service.open_session(turn, &sim)?;
                        Ok(Response::Session {
                            id,
                            session,
                            result,
                        })
                    });
                }
                Err((kind, message)) => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    respond(Response::Error {
                        id: Some(id),
                        kind,
                        message,
                    });
                }
            },
            // A delta inherits the timings opt-in of its session's open,
            // which only its turn can read, so it always measures.
            Request::SessionDelta { id, session, edits } => match sessions.next_turn(session) {
                Some(turn) => {
                    let refund = Some(turn.clone());
                    self.submit(id, &OP_DELTA, true, refund, respond, move |service| {
                        let result = service.execute_delta(turn, session, &edits)?;
                        Ok(Response::Sim { id, result })
                    });
                }
                None => respond(unknown_session(id, session)),
            },
        }
        Handled::Continue
    }

    /// The one lifecycle of pooled requests. The worker runs `body`,
    /// stamps queue wait and total into every result that opted into
    /// `timings` (one reading for all entries of a batch), records the
    /// `op` histogram, counts `completed` and answers. A body that
    /// unwinds answers `internal`, then resumes unwinding so the pool
    /// counts the panic. When the queue is full, the request's session
    /// turn (`refund`) is given back and it is answered `overloaded` at
    /// once: backpressure is explicit, never unbounded buffering.
    fn submit(
        self: &Arc<Self>,
        id: u64,
        op: &'static sigobs::Hist,
        timed: bool,
        refund: Option<Turn>,
        respond: impl Fn(Response) + Send + Sync + 'static,
        body: impl FnOnce(&Self) -> Result<Response, (ErrorKind, String)> + Send + 'static,
    ) {
        let accepted = timed.then(Instant::now);
        let service = Arc::clone(self);
        let respond = Arc::new(respond);
        let job_respond = Arc::clone(&respond);
        let submitted = self.pool.try_execute(move || {
            let queued = accepted.map(|t| (t, t.elapsed().as_secs_f64()));
            let sw = sigobs::stopwatch();
            let response = match catch_unwind(AssertUnwindSafe(|| body(&service))) {
                Ok(Ok(mut response)) => {
                    sw.observe_span(op, op.name());
                    if let Some((accepted, queue_s)) = queued {
                        let mut total_s = None;
                        for t in results_mut(&mut response).iter_mut() {
                            if let Some(t) = t.timings.as_mut() {
                                t.queue_s = queue_s;
                                t.total_s = *total_s
                                    .get_or_insert_with(|| accepted.elapsed().as_secs_f64());
                            }
                        }
                    }
                    response
                }
                Ok(Err((kind, message))) => Response::Error {
                    id: Some(id),
                    kind,
                    message,
                },
                Err(panic) => {
                    job_respond(unanswered(Some(id)));
                    resume_unwind(panic)
                }
            };
            service.completed.fetch_add(1, Ordering::Relaxed);
            job_respond(response);
        });
        if submitted.is_err() {
            if let Some(turn) = refund {
                turn.refuse();
            }
            self.rejected.fetch_add(1, Ordering::Relaxed);
            respond(Response::Error {
                id: Some(id),
                kind: ErrorKind::Overloaded,
                message: format!(
                    "scheduler queue is full ({} pending); retry later",
                    self.config.queue_capacity
                ),
            });
        }
    }

    /// Resolves a sim request's model set and circuit. The circuit cache
    /// key includes the set's mapping policy: the NOR-only and native
    /// forms of one netlist are distinct cached circuits.
    fn resolve(&self, sim: &SimRequest) -> Result<Resolved, (ErrorKind, String)> {
        let set = self
            .registry
            .get_or_load(&sim.models, &sim.library)
            .map_err(|e| {
                let kind = match e {
                    RegistryError::UnknownName(_) => ErrorKind::UnknownModels,
                    RegistryError::Pipeline(_) => ErrorKind::Simulation,
                };
                (kind, e.to_string())
            })?;
        // One full-source hash per request, shared by both caches.
        let key = CacheKey::of(&sim.circuit, set.policy);
        let (circuit, hit) = self
            .cache
            .get_or_insert(key, || build_circuit(&sim.circuit, set.policy))
            .map_err(|message| (ErrorKind::Circuit, message))?;
        let cache = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        Ok(Resolved {
            set,
            key,
            circuit,
            cache,
        })
    }

    /// Resolves the compiled program of a resolved request: a warm key
    /// skips validation, slot resolution and planning entirely; a miss
    /// compiles once under the key's build lock (the circuit and cells
    /// are already resolved `Arc`s — compilation shares them, it never
    /// re-parses). The program key derives from the circuit key, so the
    /// request's source text is hashed exactly once regardless of path.
    fn program(&self, r: &Resolved) -> Result<Arc<CircuitProgram>, (ErrorKind, String)> {
        let set = &r.set;
        let key = CacheKey::for_program(r.key, &set.cells, &set.name, &set.library, set.options);
        self.programs
            .get_or_insert(key, || {
                CircuitProgram::compile(Arc::clone(&r.circuit), Arc::clone(&set.cells), set.options)
            })
            .map(|(program, _)| program)
            .map_err(simulation_error)
    }

    /// Opens a session in the open's turn: resolves artifacts exactly
    /// like [`Service::execute_sim`]'s sigmoid path, runs the baseline
    /// through [`CircuitProgram::open_session`], leaves the resident
    /// [`SessionCore`] in the slot, and returns the baseline payload
    /// (field-for-field what a full `sim` request would answer).
    fn open_session(&self, turn: Turn, sim: &SimRequest) -> Result<SimResult, (ErrorKind, String)> {
        turn.run(|core| {
            let t0 = sim.timings.then(Instant::now);
            let r = self.resolve(sim)?;
            let program = self.program(&r)?;
            let split = resolved(t0);
            let stimuli =
                sigmoid_stimuli_from(&stimuli_for(&r.circuit, sim, sim.seed), r.set.options.vdd);
            let (opened, wall) = self.scratch.run(|s| program.open_session(&stimuli, s));
            let state = opened.map_err(simulation_error)?;
            let wall = sim.timing.then_some(wall);
            let mut result = sigmoid_result(&r.circuit, &r.set, r.cache, wall, &state.result());
            result.timings = phase_timings(split);
            *core = Some(Box::new(SessionCore {
                program,
                state,
                set: r.set,
                timing: sim.timing,
                timings: sim.timings,
            }));
            Ok(result)
        })
    }

    /// Applies one delta's edits to its session in the delta's turn.
    /// Responds in the plain `sim` shape with `cache: hit` — a delta by
    /// definition reuses resident artifacts, and the payload stays
    /// byte-comparable to a full run of the equivalent final stimuli.
    fn execute_delta(
        &self,
        turn: Turn,
        session: u64,
        edits: &[SessionEdit],
    ) -> Result<SimResult, (ErrorKind, String)> {
        // For a delta, "resolve" is the wait for its turn plus
        // edit-to-trace conversion; the engine call is the execute phase.
        let t0 = Instant::now();
        turn.run(|core| {
            let core = core.as_deref_mut().ok_or_else(|| not_open(session))?;
            let circuit = Arc::clone(core.program.circuit());
            let changes: Vec<_> = edit_traces(&circuit, edits)?
                .into_iter()
                .map(|(net, digital)| StimulusEdit {
                    net,
                    trace: Arc::new(digital_to_sigmoid(&digital, core.set.options.vdd)),
                })
                .collect();
            let split = resolved(core.timings.then_some(t0));
            let before = core.state.snap_memo_rows();
            let start = Instant::now();
            let executed = core
                .program
                .execute_delta(&mut core.state, &changes)
                .map_err(simulation_error)?;
            let wall = core.timing.then(|| start.elapsed());
            let after = core.state.snap_memo_rows();
            self.scratch
                .count_memo_rows(after.0 - before.0, after.1 - before.1);
            self.delta_hits.fetch_add(1, Ordering::Relaxed);
            self.gates_reeval
                .fetch_add(core.state.last_reeval(), Ordering::Relaxed);
            let mut result =
                sigmoid_result(&circuit, &core.set, CacheOutcome::Hit, wall, &executed);
            result.timings = phase_timings(split);
            Ok(result)
        })
    }

    /// Executes one simulation synchronously (the worker-thread body).
    ///
    /// Sigmoid-only requests run through the compiled-program path: warm
    /// traffic binds stimuli to a cached [`CircuitProgram`] with a pooled
    /// [`FleetScratch`] — no parsing, mapping, validation, planning or
    /// buffer allocation. Compare-mode requests keep the fused harness
    /// path (they are analog-dominated); both paths are bit-identical to
    /// the direct library calls, and CI diffs a daemon (program path)
    /// against `sigctl golden` (fused path) to enforce it.
    ///
    /// # Errors
    ///
    /// Returns the protocol error kind and message on any failure.
    pub fn execute_sim(&self, sim: &SimRequest) -> Result<SimResult, (ErrorKind, String)> {
        let t0 = sim.timings.then(Instant::now);
        let r = self.resolve(sim)?;
        if sim.compare {
            let split = resolved(t0);
            let mut result = run_sim(&r.circuit, &r.set, sim, r.cache)?;
            result.timings = phase_timings(split);
            return Ok(result);
        }
        let program = self.program(&r)?;
        let split = resolved(t0);
        let stimuli =
            sigmoid_stimuli_from(&stimuli_for(&r.circuit, sim, sim.seed), r.set.options.vdd);
        let (executed, wall) = self.scratch.run(|s| program.execute(&stimuli, s));
        let executed = executed.map_err(simulation_error)?;
        let wall = sim.timing.then_some(wall);
        let mut result = sigmoid_result(&r.circuit, &r.set, r.cache, wall, &executed);
        result.timings = phase_timings(split);
        Ok(result)
    }

    /// Executes one fleet simulation synchronously (the worker-thread
    /// body of `sim.batch`): resolves artifacts once, derives run `r`'s
    /// stimuli from seed `sim.seed + r` exactly like an individual `sim`
    /// request with that seed, and executes all runs in lockstep through
    /// [`CircuitProgram::execute_fleet`]. Entry `r` of the reply is
    /// byte-identical to the individual response (modulo the cache echo,
    /// which reflects this request's single resolution, and the timing
    /// block, which reports each run's amortized share of the one fleet
    /// execution).
    ///
    /// # Errors
    ///
    /// Returns the protocol error kind and message on any failure; a
    /// failure in any run fails the whole fleet.
    pub fn execute_sim_batch(
        &self,
        sim: &SimRequest,
        runs: usize,
    ) -> Result<Vec<SimResult>, (ErrorKind, String)> {
        let t0 = sim.timings.then(Instant::now);
        let r = self.resolve(sim)?;
        let program = self.program(&r)?;
        let split = resolved(t0);
        let sets: Vec<_> = (0..runs as u64)
            .map(|k| {
                sigmoid_stimuli_from(
                    &stimuli_for(&r.circuit, sim, sim.seed + k),
                    r.set.options.vdd,
                )
            })
            .collect();
        // Pooled arenas are counter-reset on acquire, so the arena's
        // counters after the run are exactly this request's totals.
        let ((executed, rows), wall) = self
            .scratch
            .run(|s| (program.execute_fleet(&sets, s), s.rows_merged()));
        let executed = executed.map_err(simulation_error)?;
        self.fleet_runs.fetch_add(runs as u64, Ordering::Relaxed);
        self.fleet_rows.fetch_add(rows, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let wall_share = wall.checked_div(runs.max(1) as u32).unwrap_or_default();
        let wall_share = sim.timing.then_some(wall_share);
        // Every fleet entry echoes the breakdown of the one shared
        // request (stimulus derivation counts as execute time).
        let timings = phase_timings(split);
        Ok(executed
            .iter()
            .map(|result| SimResult {
                timings: timings.clone(),
                ..sigmoid_result(&r.circuit, &r.set, r.cache, wall_share, result)
            })
            .collect())
    }
}

/// A sim request's resolved artifacts (see [`Service::resolve`]).
struct Resolved {
    set: Arc<ModelSet>,
    /// The circuit's cache key, from which the program key derives.
    key: CacheKey,
    circuit: Arc<Circuit>,
    cache: CacheOutcome,
}

/// Ends the resolve phase of an opt-in [`PhaseTimings`] breakdown
/// started at `t0`: the resolve seconds and the execute phase's start.
fn resolved(t0: Option<Instant>) -> Option<(f64, Instant)> {
    let t0 = t0?;
    let now = Instant::now();
    Some(((now - t0).as_secs_f64(), now))
}

/// Builds the execution half of an opt-in [`PhaseTimings`] breakdown
/// from the [`resolved`] split. Queue wait and the total stay zero until
/// [`Service::submit`] stamps them at the worker boundary.
fn phase_timings(split: Option<(f64, Instant)>) -> Option<PhaseTimings> {
    let (resolve_s, exec_start) = split?;
    Some(PhaseTimings {
        queue_s: 0.0,
        resolve_s,
        execute_s: exec_start.elapsed().as_secs_f64(),
        total_s: 0.0,
    })
}

/// The results a pooled reply carries (none for an error).
fn results_mut(response: &mut Response) -> &mut [SimResult] {
    match response {
        Response::Sim { result, .. } | Response::Session { result, .. } => {
            std::slice::from_mut(result)
        }
        Response::SimBatch { results, .. } => results,
        _ => &mut [],
    }
}

/// Maps an engine failure to a `simulation` error.
fn simulation_error(e: impl std::fmt::Display) -> (ErrorKind, String) {
    (ErrorKind::Simulation, e.to_string())
}

/// The daemon on the TCP transport: one session table per connection.
impl Backend for Service {
    type Conn = Arc<SessionTable>;

    fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn counters(&self) -> &TransportCounters {
        &self.transport
    }

    fn connect(self: &Arc<Self>) -> Arc<SessionTable> {
        SessionTable::new(Arc::clone(self))
    }

    fn dispatch(
        self: &Arc<Self>,
        sessions: &mut Arc<SessionTable>,
        _line: &str,
        request: Request,
        responder: Responder,
    ) -> Handled {
        self.handle(request, sessions, move |response| {
            responder.respond(&response);
        })
    }

    fn drain(&self) {
        self.pool.drain();
    }
}

/// The error of a session id that is not open on this connection.
fn not_open(session: u64) -> (ErrorKind, String) {
    (
        ErrorKind::UnknownSession,
        format!("session {session} is not open on this connection"),
    )
}

/// The error answered when a session id is not open on this connection.
pub(crate) fn unknown_session(id: u64, session: u64) -> Response {
    let (kind, message) = not_open(session);
    Response::Error {
        id: Some(id),
        kind,
        message,
    }
}

/// Builds the circuit of a source under a mapping policy (the cache miss
/// path).
fn build_circuit(
    source: &crate::protocol::CircuitSource,
    policy: MappingPolicy,
) -> Result<Circuit, String> {
    match source {
        crate::protocol::CircuitSource::Name(name) => Benchmark::by_name(name)
            .map(|b| b.circuit_for(policy).clone())
            .map_err(|n| format!("unknown benchmark circuit {n:?}")),
        crate::protocol::CircuitSource::Inline(text) => {
            let format = sigcircuit::sniff_format(text);
            let circuit = sigcircuit::parse_circuit(text, format).map_err(|e| e.to_string())?;
            Ok(map_for_simulation(circuit, policy))
        }
    }
}

/// Prepares an arbitrary netlist for simulation under a policy:
/// non-conforming circuits are mapped and fan-out-limited exactly like
/// the built-in benchmarks ([`Benchmark::by_name`] applies the same
/// recipe), so an inline netlist and its named twin simulate identically.
#[must_use]
pub fn map_for_simulation(circuit: Circuit, policy: MappingPolicy) -> Circuit {
    let conforming = match policy {
        MappingPolicy::NorOnly => circuit.is_nor_only(),
        MappingPolicy::Native => sigcircuit::is_native_only(&circuit),
    };
    if conforming {
        circuit
    } else {
        sigcircuit::limit_fanout(
            &sigcircuit::map_with_policy(
                &circuit,
                policy,
                sigcircuit::NorMappingOptions::default(),
            ),
            4,
        )
    }
}

/// Derives the digital stimuli of a request run under `seed` exactly
/// like the direct harness path: a [`StimulusSpec`] plus a seed-derived
/// RNG.
fn stimuli_for(circuit: &Circuit, sim: &SimRequest, seed: u64) -> HashMap<NetId, DigitalTrace> {
    let spec = StimulusSpec::new(sim.mu, sim.sigma, sim.transitions);
    random_stimuli(circuit, &spec, &mut StdRng::seed_from_u64(seed))
}

/// Resolves, checks and converts edits to digital traces: the one
/// conversion behind `session.delta` and [`run_sim_edited`], so an
/// invalid edit gets the same answer on both paths. Each edit must name
/// a primary input and carry a trace [`DigitalTrace::new`] accepts (the
/// toggle invariants were validated at decode; this re-checks them as
/// the library contract).
fn edit_traces(
    circuit: &Circuit,
    edits: &[SessionEdit],
) -> Result<Vec<(NetId, DigitalTrace)>, (ErrorKind, String)> {
    let invalid = |message| Err((ErrorKind::Simulation, message));
    edits
        .iter()
        .map(|edit| {
            let Some(net) = circuit.find_net(&edit.net) else {
                return invalid(format!("edit targets unknown net {:?}", edit.net));
            };
            if !circuit.inputs().contains(&net) {
                return invalid(format!("edit target {:?} is not a primary input", edit.net));
            }
            let level = if edit.initial_high {
                Level::High
            } else {
                Level::Low
            };
            match DigitalTrace::new(level, edit.toggles.clone()) {
                Ok(trace) => Ok((net, trace)),
                Err(e) => invalid(format!("edit for net {:?}: {e}", edit.net)),
            }
        })
        .collect()
}

/// Runs the requested simulation on already-resolved artifacts. This is
/// the only numerics entry point of the service; `sigctl golden` calls it
/// with directly-built artifacts to produce the independent reference the
/// CI smoke job diffs against.
///
/// # Errors
///
/// Returns the protocol error kind and message on simulation failure.
pub fn run_sim(
    circuit: &Circuit,
    set: &ModelSet,
    sim: &SimRequest,
    cache: CacheOutcome,
) -> Result<SimResult, (ErrorKind, String)> {
    run_sim_edited(circuit, set, sim, &[], cache)
}

/// [`run_sim`] with the seeded stimuli of the edited primary inputs
/// replaced first — the exact replacement semantics of `session.delta`,
/// so `sigctl golden --edit` produces the full-run reference frame a
/// delta response must match byte-for-byte (modulo the documented cache
/// hit/miss echo).
///
/// # Errors
///
/// Returns the protocol error kind and message when an edit is invalid
/// or the simulation fails.
pub fn run_sim_edited(
    circuit: &Circuit,
    set: &ModelSet,
    sim: &SimRequest,
    edits: &[SessionEdit],
    cache: CacheOutcome,
) -> Result<SimResult, (ErrorKind, String)> {
    let mut stimuli = stimuli_for(circuit, sim, sim.seed);
    stimuli.extend(edit_traces(circuit, edits)?);
    if !sim.compare {
        // Sigmoid-only: inputs are the digital stimuli converted at the
        // fixed same-stimulus slope (no analog run involved) — the
        // deterministic cheap path for throughput workloads.
        let sigmoid_stimuli = sigmoid_stimuli_from(&stimuli, set.options.vdd);
        let start = Instant::now();
        let result = simulate_cells_with(
            circuit,
            &sigmoid_stimuli,
            &set.cells,
            set.options,
            &SigmoidSimConfig::default(),
        )
        .map_err(simulation_error)?;
        let wall = sim.timing.then(|| start.elapsed());
        return Ok(sigmoid_result(circuit, set, cache, wall, &result));
    }
    let delays = set
        .delays
        .get()
        .map_err(|e| {
            (
                ErrorKind::Simulation,
                format!("delay extraction failed: {e}"),
            )
        })?
        .ok_or_else(|| {
            (
                ErrorKind::Simulation,
                format!(
                    "model set {:?} has no delay table; compare mode unavailable",
                    set.name
                ),
            )
        })?;
    let config = HarnessConfig::default();
    let outcome = compare_circuit_cells(circuit, &stimuli, &set.cells, &delays, &config)
        .map_err(simulation_error)?;
    let outputs = digitize_outputs(
        outcome.bundles.iter().map(|b| (b.net.as_str(), &b.sigmoid)),
        set.options.vdd / 2.0,
    );
    Ok(SimResult {
        fingerprint: crate::protocol::hex64(circuit.fingerprint()),
        library: set.library.clone(),
        cache,
        outputs,
        compare: Some(CompareStats {
            t_err_digital: outcome.t_err_digital,
            t_err_sigmoid: outcome.t_err_sigmoid,
            error_ratio: outcome.error_ratio(),
        }),
        timing: sim.timing.then_some(TimingStats {
            wall_analog_s: outcome.wall_analog.as_secs_f64(),
            wall_digital_s: outcome.wall_digital.as_secs_f64(),
            wall_sigmoid_s: outcome.wall_sigmoid.as_secs_f64(),
        }),
        timings: None,
    })
}

/// Converts per-request digital stimuli to sigmoid inputs at the fixed
/// same-stimulus slope (shared by the fused and program paths — one
/// definition, so the two can never drift).
fn sigmoid_stimuli_from(
    stimuli: &HashMap<NetId, DigitalTrace>,
    vdd: f64,
) -> HashMap<NetId, Arc<SigmoidTrace>> {
    stimuli
        .iter()
        .map(|(&net, trace)| (net, Arc::new(digital_to_sigmoid(trace, vdd))))
        .collect()
}

/// The one constructor of sigmoid-only results — `sim`, each
/// `sim.batch` entry, `session.open`, `session.delta` and `sigctl
/// golden`'s fused reference — so their bytes cannot drift apart: the
/// primary outputs digitized at half the set's supply, plus the echoes.
/// `timings` stays `None`; callers that measured phases attach them.
fn sigmoid_result(
    circuit: &Circuit,
    set: &ModelSet,
    cache: CacheOutcome,
    wall_sigmoid: Option<Duration>,
    result: &SigmoidSimResult,
) -> SimResult {
    let outputs = circuit
        .outputs()
        .iter()
        .map(|&o| (circuit.net_name(o), result.trace(o)));
    SimResult {
        fingerprint: crate::protocol::hex64(circuit.fingerprint()),
        library: set.library.clone(),
        cache,
        outputs: digitize_outputs(outputs, set.options.vdd / 2.0),
        compare: None,
        timing: wall_sigmoid.map(|wall| TimingStats {
            wall_analog_s: 0.0,
            wall_digital_s: 0.0,
            wall_sigmoid_s: wall.as_secs_f64(),
        }),
        timings: None,
    }
}

/// Digitizes `(net, trace)` pairs at `threshold` into wire traces, under
/// the `serve.digitize` span.
fn digitize_outputs<'a>(
    traces: impl Iterator<Item = (&'a str, &'a SigmoidTrace)>,
    threshold: f64,
) -> Vec<OutputTrace> {
    let sw = sigobs::stopwatch();
    let outputs = traces
        .map(|(net, trace)| {
            let d = trace.digitize(threshold);
            OutputTrace {
                net: net.to_string(),
                initial_high: d.initial().is_high(),
                toggles: d.toggles().to_vec(),
            }
        })
        .collect();
    sw.observe_span(&DIGITIZE, "serve.digitize");
    outputs
}
