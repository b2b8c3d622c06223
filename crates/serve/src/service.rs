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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
use crate::mux::{Backend, Responder, TransportCounters};
use crate::protocol::{
    CacheOutcome, CompareStats, ErrorKind, OutputTrace, PhaseTimings, Request, Response,
    SessionEdit, SimRequest, SimResult, StatsReply, TimingStats, TraceSpan,
};
use crate::registry::{ModelRegistry, ModelSet, RegistryError};
use crate::session::{SessionCore, SessionSlot, SessionTable, SlotState};

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
    /// Reactor threads for the epoll transport (`0` treated as 1). One
    /// reactor comfortably multiplexes thousands of connections; extra
    /// threads shard accepted connections round-robin.
    pub io_threads: usize,
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
            io_threads: 1,
            max_inflight: 64,
            admission_budget: 512,
        }
    }
}

/// What [`Service::handle_request`] tells the transport to do next.
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
/// a one-off burst cannot pin memory forever.
#[derive(Debug, Default)]
struct ScratchPool {
    pool: Mutex<Vec<FleetScratch>>,
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
    fn acquire(&self) -> FleetScratch {
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
        scratch
    }

    fn release(&self, scratch: FleetScratch) {
        if scratch.net_capacity() > MAX_POOLED_NET_SLOTS {
            return;
        }
        let mut pool = self.pool.lock().expect("scratch pool poisoned");
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
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

    /// Handles one decoded request without a session table — the
    /// back-compat entry point for embedders (benches, tests) that only
    /// issue stateless requests. Session requests answer with a
    /// `protocol` error; everything else behaves exactly like
    /// [`Service::handle_connection_request`].
    pub fn handle_request(
        self: &Arc<Self>,
        request: Request,
        respond: impl Fn(Response) + Send + Sync + 'static,
    ) -> Handled {
        self.handle_connection_request(request, None, respond)
    }

    /// Handles one decoded request. Cheap requests (ping, stats,
    /// shutdown, session close) are answered inline via `respond`; sim,
    /// session-open and session-delta requests are scheduled on the pool
    /// and answered from a worker thread, so `respond` must be callable
    /// from any thread, and responses to different requests may
    /// interleave in any order (clients correlate by id). When the queue
    /// is full the request is rejected immediately with an `overloaded`
    /// error — backpressure is explicit, for session work exactly as for
    /// full simulations.
    ///
    /// `sessions` is the connection-scoped [`SessionTable`] (transports
    /// create one per connection); `None` means the caller cannot host
    /// sessions and session requests are rejected.
    pub fn handle_connection_request(
        self: &Arc<Self>,
        request: Request,
        sessions: Option<&Arc<SessionTable>>,
        respond: impl Fn(Response) + Send + Sync + 'static,
    ) -> Handled {
        match request {
            Request::Ping { id } => {
                respond(Response::Pong { id });
                Handled::Continue
            }
            Request::Stats { id } => {
                respond(Response::Stats {
                    id,
                    stats: self.stats(),
                });
                Handled::Continue
            }
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
                Handled::Continue
            }
            Request::Shutdown { id } => {
                self.draining.store(true, Ordering::SeqCst);
                self.pool.drain();
                respond(Response::ShuttingDown { id });
                Handled::Shutdown
            }
            Request::Sim { id, sim } => {
                if self.draining.load(Ordering::SeqCst) {
                    respond(draining_error(id));
                    return Handled::Continue;
                }
                let service = Arc::clone(self);
                let respond = Arc::new(respond);
                let job_respond = Arc::clone(&respond);
                let accepted = sim.timings.then(Instant::now);
                let submitted = self.pool.try_execute(move || {
                    let queue_s = accepted.map(|t| t.elapsed().as_secs_f64());
                    let sw = sigobs::stopwatch();
                    let response = match service.execute_sim(&sim) {
                        Ok(mut result) => {
                            sw.observe_span(&OP_SIM, "op.sim");
                            patch_timings(result.timings.as_mut(), queue_s, accepted);
                            Response::Sim { id, result }
                        }
                        Err((kind, message)) => Response::Error {
                            id: Some(id),
                            kind,
                            message,
                        },
                    };
                    service.completed.fetch_add(1, Ordering::Relaxed);
                    job_respond(response);
                });
                if submitted.is_err() {
                    self.reject_overloaded(id, &*respond);
                }
                Handled::Continue
            }
            Request::SimBatch { id, sim, runs } => {
                if self.draining.load(Ordering::SeqCst) {
                    respond(draining_error(id));
                    return Handled::Continue;
                }
                let service = Arc::clone(self);
                let respond = Arc::new(respond);
                let job_respond = Arc::clone(&respond);
                let accepted = sim.timings.then(Instant::now);
                let submitted = self.pool.try_execute(move || {
                    let queue_s = accepted.map(|t| t.elapsed().as_secs_f64());
                    let sw = sigobs::stopwatch();
                    let response = match service.execute_sim_batch(&sim, runs) {
                        Ok(mut results) => {
                            sw.observe_span(&OP_BATCH, "op.sim_batch");
                            // One elapsed reading for the whole fleet:
                            // every entry echoes the identical shared
                            // breakdown (the reply is one request).
                            let total_s = accepted.map(|t| t.elapsed().as_secs_f64());
                            for result in &mut results {
                                if let (Some(t), Some(queue_s), Some(total_s)) =
                                    (result.timings.as_mut(), queue_s, total_s)
                                {
                                    t.queue_s = queue_s;
                                    t.total_s = total_s;
                                }
                            }
                            Response::SimBatch { id, results }
                        }
                        Err((kind, message)) => Response::Error {
                            id: Some(id),
                            kind,
                            message,
                        },
                    };
                    service.completed.fetch_add(1, Ordering::Relaxed);
                    job_respond(response);
                });
                if submitted.is_err() {
                    self.reject_overloaded(id, &*respond);
                }
                Handled::Continue
            }
            Request::SessionOpen { id, session, sim } => {
                self.handle_session_open(id, session, sim, sessions, respond)
            }
            Request::SessionDelta { id, session, edits } => {
                self.handle_session_delta(id, session, edits, sessions, respond)
            }
            Request::SessionClose { id, session } => {
                // Close is pure table bookkeeping: answered inline, and
                // allowed even while draining (it releases state).
                let Some(table) = sessions else {
                    respond(no_session_transport(id));
                    return Handled::Continue;
                };
                if table.remove(session) {
                    respond(Response::SessionClosed { id, session });
                } else {
                    respond(unknown_session(id, session));
                }
                Handled::Continue
            }
        }
    }

    /// Schedules a `session.open`: reserves the table slot inline (so the
    /// very next frame already sees the session), then runs the baseline
    /// on the pool. Deltas arriving while the baseline computes wait on
    /// the slot instead of failing — connection frames are dispatched in
    /// order, and the pool is FIFO, so the open job always runs first.
    fn handle_session_open(
        self: &Arc<Self>,
        id: u64,
        session: u64,
        sim: SimRequest,
        sessions: Option<&Arc<SessionTable>>,
        respond: impl Fn(Response) + Send + Sync + 'static,
    ) -> Handled {
        if self.draining.load(Ordering::SeqCst) {
            respond(draining_error(id));
            return Handled::Continue;
        }
        let Some(table) = sessions else {
            respond(no_session_transport(id));
            return Handled::Continue;
        };
        let slot = match table.open_reserve(session) {
            Ok(slot) => slot,
            Err((kind, message)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                respond(Response::Error {
                    id: Some(id),
                    kind,
                    message,
                });
                return Handled::Continue;
            }
        };
        let service = Arc::clone(self);
        let job_table = Arc::clone(table);
        let job_slot = Arc::clone(&slot);
        let respond = Arc::new(respond);
        let job_respond = Arc::clone(&respond);
        let accepted = sim.timings.then(Instant::now);
        let submitted = self.pool.try_execute(move || {
            let queue_s = accepted.map(|t| t.elapsed().as_secs_f64());
            let sw = sigobs::stopwatch();
            let response = match service.open_session_core(&sim) {
                Ok((core, mut result)) => {
                    sw.observe_span(&OP_OPEN, "op.session_open");
                    patch_timings(result.timings.as_mut(), queue_s, accepted);
                    job_slot.fulfill(core);
                    Response::Session {
                        id,
                        session,
                        result,
                    }
                }
                Err((kind, message)) => {
                    job_slot.abandon();
                    job_table.fail(session, &job_slot);
                    Response::Error {
                        id: Some(id),
                        kind,
                        message,
                    }
                }
            };
            service.completed.fetch_add(1, Ordering::Relaxed);
            job_respond(response);
        });
        if submitted.is_err() {
            slot.abandon();
            table.fail(session, &slot);
            self.reject_overloaded(id, &*respond);
        }
        Handled::Continue
    }

    /// Schedules a `session.delta`: the session is resolved (and its LRU
    /// position refreshed) inline, the edits execute on the pool.
    fn handle_session_delta(
        self: &Arc<Self>,
        id: u64,
        session: u64,
        edits: Vec<SessionEdit>,
        sessions: Option<&Arc<SessionTable>>,
        respond: impl Fn(Response) + Send + Sync + 'static,
    ) -> Handled {
        if self.draining.load(Ordering::SeqCst) {
            respond(draining_error(id));
            return Handled::Continue;
        }
        let Some(table) = sessions else {
            respond(no_session_transport(id));
            return Handled::Continue;
        };
        let Some(slot) = table.lookup(session) else {
            respond(unknown_session(id, session));
            return Handled::Continue;
        };
        let service = Arc::clone(self);
        let respond = Arc::new(respond);
        let job_respond = Arc::clone(&respond);
        // Deltas inherit the timings opt-in from the session's opening
        // request, so the dispatch layer cannot know it yet; the worker
        // measures queue wait from here and the body patches it in when
        // the session asked for timings.
        let accepted = Instant::now();
        let submitted = self.pool.try_execute(move || {
            let queue_s = accepted.elapsed().as_secs_f64();
            let sw = sigobs::stopwatch();
            let response = match service.execute_delta_on(&slot, session, &edits) {
                Ok(mut result) => {
                    sw.observe_span(&OP_DELTA, "op.session_delta");
                    patch_timings(result.timings.as_mut(), Some(queue_s), Some(accepted));
                    Response::Sim { id, result }
                }
                Err((kind, message)) => Response::Error {
                    id: Some(id),
                    kind,
                    message,
                },
            };
            service.completed.fetch_add(1, Ordering::Relaxed);
            job_respond(response);
        });
        if submitted.is_err() {
            self.reject_overloaded(id, &*respond);
        }
        Handled::Continue
    }

    /// Counts a queue-full rejection and answers with `overloaded`.
    fn reject_overloaded(&self, id: u64, respond: &(impl Fn(Response) + ?Sized)) {
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

    /// Opens a session (the worker-thread body): resolves artifacts
    /// exactly like [`Service::execute_sim`]'s sigmoid path, runs the
    /// baseline through [`CircuitProgram::open_session`], and packages
    /// the resident [`SessionCore`] plus the baseline response payload
    /// (field-for-field what a full `sim` request would answer).
    fn open_session_core(
        &self,
        sim: &SimRequest,
    ) -> Result<(SessionCore, SimResult), (ErrorKind, String)> {
        let t0 = sim.timings.then(Instant::now);
        let set = self
            .registry
            .get_or_load(&sim.models, &sim.library)
            .map_err(|e| {
                let kind = match e {
                    RegistryError::UnknownName(_) => ErrorKind::UnknownModels,
                    _ => ErrorKind::Simulation,
                };
                (kind, e.to_string())
            })?;
        let circuit_key = CacheKey::of(&sim.circuit, set.policy);
        let (circuit, hit) = self.resolve_circuit(circuit_key, sim, set.policy)?;
        let cache = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        let program = self.resolve_program(circuit_key, &set, &circuit)?;
        let resolve_s = t0.map(|t| t.elapsed().as_secs_f64());
        let exec_start = sim.timings.then(Instant::now);
        let stimuli = stimuli_for(&circuit, sim);
        let sigmoid_stimuli = sigmoid_stimuli_from(&stimuli, set.options.vdd);
        let mut scratch = self.scratch.acquire();
        let start = Instant::now();
        let opened = program.open_session(&sigmoid_stimuli, &mut scratch);
        let wall_sigmoid = start.elapsed();
        self.scratch.release(scratch);
        let state = opened.map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
        let fingerprint = crate::protocol::hex64(circuit.fingerprint());
        let result = SimResult {
            fingerprint: fingerprint.clone(),
            library: set.library.clone(),
            cache,
            outputs: sigmoid_outputs(&circuit, &state.result(), set.options.vdd / 2.0),
            compare: None,
            timing: sim.timing.then_some(TimingStats {
                wall_analog_s: 0.0,
                wall_digital_s: 0.0,
                wall_sigmoid_s: wall_sigmoid.as_secs_f64(),
            }),
            timings: phase_timings(resolve_s, exec_start),
        };
        let core = SessionCore {
            program,
            state,
            fingerprint,
            library: set.library.clone(),
            vdd: set.options.vdd,
            timing: sim.timing,
            timings: sim.timings,
        };
        Ok((core, result))
    }

    /// Executes one delta batch on a session slot (the worker-thread
    /// body). Waits on the slot while its baseline is still opening; the
    /// slot's state lock also serializes deltas per session. Responds in
    /// the plain `sim` shape with `cache: hit` — a delta by definition
    /// reuses resident artifacts, and the payload stays byte-comparable
    /// to a full run of the equivalent final stimuli.
    fn execute_delta_on(
        &self,
        slot: &SessionSlot,
        session: u64,
        edits: &[SessionEdit],
    ) -> Result<SimResult, (ErrorKind, String)> {
        let t0 = Instant::now();
        let mut guard = slot.state.lock().expect("session slot poisoned");
        while matches!(*guard, SlotState::Opening) {
            guard = slot.ready.wait(guard).expect("session slot poisoned");
        }
        let SlotState::Ready(core) = &mut *guard else {
            return Err((
                ErrorKind::UnknownSession,
                format!("session {session} failed to open"),
            ));
        };
        let program = Arc::clone(&core.program);
        let circuit = Arc::clone(program.circuit());
        let mut changes = Vec::with_capacity(edits.len());
        for edit in edits {
            let net = circuit.find_net(&edit.net).ok_or_else(|| {
                (
                    ErrorKind::Simulation,
                    format!("edit targets unknown net {:?}", edit.net),
                )
            })?;
            let level = if edit.initial_high {
                Level::High
            } else {
                Level::Low
            };
            // The toggle invariants were validated at decode;
            // `DigitalTrace` re-checks them as the library contract.
            let digital = DigitalTrace::new(level, edit.toggles.clone())
                .map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
            changes.push(StimulusEdit {
                net,
                trace: Arc::new(digital_to_sigmoid(&digital, core.vdd)),
            });
        }
        // For a delta, "resolve" is slot readiness plus edit-to-trace
        // conversion; the engine call is the execute phase.
        let resolve_s = core.timings.then(|| t0.elapsed().as_secs_f64());
        let exec_start = core.timings.then(Instant::now);
        let start = Instant::now();
        let result = program
            .execute_delta(&mut core.state, &changes)
            .map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
        let wall_sigmoid = start.elapsed();
        self.delta_hits.fetch_add(1, Ordering::Relaxed);
        self.gates_reeval
            .fetch_add(core.state.last_reeval(), Ordering::Relaxed);
        Ok(SimResult {
            fingerprint: core.fingerprint.clone(),
            library: core.library.clone(),
            cache: CacheOutcome::Hit,
            outputs: sigmoid_outputs(&circuit, &result, core.vdd / 2.0),
            compare: None,
            timing: core.timing.then_some(TimingStats {
                wall_analog_s: 0.0,
                wall_digital_s: 0.0,
                wall_sigmoid_s: wall_sigmoid.as_secs_f64(),
            }),
            timings: phase_timings(resolve_s, exec_start),
        })
    }

    /// Resolves a sim request's circuit through the cache under an
    /// already-computed key (keys include the set's mapping policy: the
    /// NOR-only and native forms of one netlist are distinct cached
    /// circuits).
    fn resolve_circuit(
        &self,
        key: CacheKey,
        sim: &SimRequest,
        policy: MappingPolicy,
    ) -> Result<(Arc<Circuit>, bool), (ErrorKind, String)> {
        self.cache
            .get_or_insert_keyed(key, || build_circuit(&sim.circuit, policy))
            .map_err(|message| (ErrorKind::Circuit, message))
    }

    /// Resolves the compiled program of a sim request: a warm key skips
    /// validation, slot resolution and planning entirely; a miss compiles
    /// once under the key's build lock (the circuit and cells are already
    /// resolved `Arc`s — compilation shares them, it never re-parses).
    /// The program key derives from the circuit key, so the request's
    /// source text is hashed exactly once regardless of path.
    fn resolve_program(
        &self,
        circuit_key: CacheKey,
        set: &ModelSet,
        circuit: &Arc<Circuit>,
    ) -> Result<Arc<CircuitProgram>, (ErrorKind, String)> {
        let key = CacheKey::for_program(
            circuit_key,
            &set.cells,
            &set.name,
            &set.library,
            set.options,
        );
        self.programs
            .get_or_insert(key, || {
                CircuitProgram::compile(Arc::clone(circuit), Arc::clone(&set.cells), set.options)
            })
            .map(|(program, _)| program)
            .map_err(|e| (ErrorKind::Simulation, e.to_string()))
    }

    /// Executes one simulation synchronously (the worker-thread body).
    ///
    /// Sigmoid-only requests run through the compiled-program path: warm
    /// traffic binds stimuli to a cached [`CircuitProgram`] with a pooled
    /// [`FleetScratch`] — no parsing, mapping, validation, planning or
    /// buffer allocation. Compare-mode requests keep the fused harness
    /// path (they are analog-dominated); both paths are bit-identical to
    /// the direct library calls.
    ///
    /// # Errors
    ///
    /// Returns the protocol error kind and message on any failure.
    pub fn execute_sim(&self, sim: &SimRequest) -> Result<SimResult, (ErrorKind, String)> {
        let t0 = sim.timings.then(Instant::now);
        let set = self
            .registry
            .get_or_load(&sim.models, &sim.library)
            .map_err(|e| {
                let kind = match e {
                    RegistryError::UnknownName(_) => ErrorKind::UnknownModels,
                    _ => ErrorKind::Simulation,
                };
                (kind, e.to_string())
            })?;
        // One full-source hash per request, shared by both caches.
        let circuit_key = CacheKey::of(&sim.circuit, set.policy);
        let (circuit, hit) = self.resolve_circuit(circuit_key, sim, set.policy)?;
        let cache = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        if sim.compare {
            let resolve_s = t0.map(|t| t.elapsed().as_secs_f64());
            let exec_start = sim.timings.then(Instant::now);
            let mut result = run_sim(&circuit, &set, sim, cache)?;
            result.timings = phase_timings(resolve_s, exec_start);
            return Ok(result);
        }
        let program = self.resolve_program(circuit_key, &set, &circuit)?;
        let resolve_s = t0.map(|t| t.elapsed().as_secs_f64());
        let exec_start = sim.timings.then(Instant::now);
        let mut scratch = self.scratch.acquire();
        let result = run_program(&program, &set, sim, cache, &mut scratch);
        self.scratch.release(scratch);
        result.map(|mut r| {
            r.timings = phase_timings(resolve_s, exec_start);
            r
        })
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
        let set = self
            .registry
            .get_or_load(&sim.models, &sim.library)
            .map_err(|e| {
                let kind = match e {
                    RegistryError::UnknownName(_) => ErrorKind::UnknownModels,
                    _ => ErrorKind::Simulation,
                };
                (kind, e.to_string())
            })?;
        let circuit_key = CacheKey::of(&sim.circuit, set.policy);
        let (circuit, hit) = self.resolve_circuit(circuit_key, sim, set.policy)?;
        let cache = if hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        let program = self.resolve_program(circuit_key, &set, &circuit)?;
        let resolve_s = t0.map(|t| t.elapsed().as_secs_f64());
        let exec_start = sim.timings.then(Instant::now);
        let sets: Vec<HashMap<NetId, Arc<SigmoidTrace>>> = (0..runs)
            .map(|r| {
                let run = SimRequest {
                    seed: sim.seed + r as u64,
                    ..sim.clone()
                };
                sigmoid_stimuli_from(&stimuli_for(&circuit, &run), set.options.vdd)
            })
            .collect();
        // Pooled arenas are counter-reset on acquire, so the arena's
        // counters after the run are exactly this request's totals.
        let mut scratch = self.scratch.acquire();
        let start = Instant::now();
        let executed = program.execute_fleet(&sets, &mut scratch);
        let wall = start.elapsed();
        let rows = scratch.rows_merged();
        self.scratch.release(scratch);
        let results = executed.map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
        self.fleet_runs.fetch_add(runs as u64, Ordering::Relaxed);
        self.fleet_rows.fetch_add(rows, Ordering::Relaxed);
        let fingerprint = crate::protocol::hex64(circuit.fingerprint());
        let threshold = set.options.vdd / 2.0;
        #[allow(clippy::cast_possible_truncation)]
        let wall_share = wall.checked_div(runs.max(1) as u32).unwrap_or_default();
        // Every fleet entry echoes the breakdown of the one shared
        // request (stimulus derivation counts as execute time).
        let timings = phase_timings(resolve_s, exec_start);
        Ok(results
            .into_iter()
            .map(|result| SimResult {
                fingerprint: fingerprint.clone(),
                library: set.library.clone(),
                cache,
                outputs: sigmoid_outputs(&circuit, &result, threshold),
                compare: None,
                timing: sim.timing.then_some(TimingStats {
                    wall_analog_s: 0.0,
                    wall_digital_s: 0.0,
                    wall_sigmoid_s: wall_share.as_secs_f64(),
                }),
                timings: timings.clone(),
            })
            .collect())
    }
}

/// Builds the execution half of an opt-in [`PhaseTimings`] breakdown:
/// `None` unless the request asked for timings. Queue wait and the total
/// stay zero until [`patch_timings`] fills them at the worker boundary.
fn phase_timings(resolve_s: Option<f64>, exec_start: Option<Instant>) -> Option<PhaseTimings> {
    let (resolve_s, exec_start) = resolve_s.zip(exec_start)?;
    Some(PhaseTimings {
        queue_s: 0.0,
        resolve_s,
        execute_s: exec_start.elapsed().as_secs_f64(),
        total_s: 0.0,
    })
}

/// Fills the scheduling half of an opt-in [`PhaseTimings`] breakdown.
/// The execution body measured `resolve_s`/`execute_s`; queue wait and
/// the request total are only known at the dispatch/worker boundary, so
/// the worker closure patches them in just before responding.
fn patch_timings(
    timings: Option<&mut PhaseTimings>,
    queue_s: Option<f64>,
    accepted: Option<Instant>,
) {
    if let (Some(t), Some(queue_s), Some(accepted)) = (timings, queue_s, accepted) {
        t.queue_s = queue_s;
        t.total_s = accepted.elapsed().as_secs_f64();
    }
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
        self.handle_connection_request(request, Some(sessions), move |response| {
            responder.respond(&response);
        })
    }

    fn drain(&self) {
        self.pool.drain();
    }
}

/// The error answered to any simulation-carrying request while draining.
fn draining_error(id: u64) -> Response {
    Response::Error {
        id: Some(id),
        kind: ErrorKind::ShuttingDown,
        message: "daemon is draining".to_string(),
    }
}

/// The error answered to session requests from a caller without a
/// connection-scoped [`SessionTable`] (the back-compat
/// [`Service::handle_request`] entry point).
fn no_session_transport(id: u64) -> Response {
    Response::Error {
        id: Some(id),
        kind: ErrorKind::Protocol,
        message: "session requests need a connection-scoped transport".to_string(),
    }
}

/// The error answered when a session id is not open on this connection.
pub(crate) fn unknown_session(id: u64, session: u64) -> Response {
    Response::Error {
        id: Some(id),
        kind: ErrorKind::UnknownSession,
        message: format!("session {session} is not open on this connection"),
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

/// Derives the per-request digital stimuli exactly like the direct
/// harness path: a [`StimulusSpec`] plus a seed-derived RNG.
fn stimuli_for(circuit: &Circuit, sim: &SimRequest) -> HashMap<NetId, DigitalTrace> {
    let spec = StimulusSpec::new(sim.mu, sim.sigma, sim.transitions);
    let mut rng = StdRng::seed_from_u64(sim.seed);
    random_stimuli(circuit, &spec, &mut rng)
}

/// Replaces the seeded stimulus of every edited net, rejecting edits
/// that do not target a primary input (mirroring the validation the
/// incremental engine applies to `session.delta`).
fn apply_edits(
    circuit: &Circuit,
    stimuli: &mut HashMap<NetId, DigitalTrace>,
    edits: &[SessionEdit],
) -> Result<(), (ErrorKind, String)> {
    for edit in edits {
        let Some(net) = circuit.find_net(&edit.net) else {
            return Err((
                ErrorKind::Simulation,
                format!("edit targets unknown net {:?}", edit.net),
            ));
        };
        if !circuit.inputs().contains(&net) {
            return Err((
                ErrorKind::Simulation,
                format!("edit target {:?} is not a primary input", edit.net),
            ));
        }
        let level = if edit.initial_high {
            Level::High
        } else {
            Level::Low
        };
        let trace = DigitalTrace::new(level, edit.toggles.clone()).map_err(|e| {
            (
                ErrorKind::Simulation,
                format!("edit for net {:?}: {e}", edit.net),
            )
        })?;
        stimuli.insert(net, trace);
    }
    Ok(())
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
    let mut stimuli = stimuli_for(circuit, sim);
    apply_edits(circuit, &mut stimuli, edits)?;
    let threshold = set.options.vdd / 2.0;
    let fingerprint = crate::protocol::hex64(circuit.fingerprint());
    let library = set.library.clone();
    if sim.compare {
        let delays = set.delays.get().map_err(|e| {
            (
                ErrorKind::Simulation,
                format!("delay extraction failed: {e}"),
            )
        })?;
        let Some(delays) = delays else {
            return Err((
                ErrorKind::Simulation,
                format!(
                    "model set {:?} has no delay table; compare mode unavailable",
                    set.name
                ),
            ));
        };
        let config = HarnessConfig::default();
        let outcome = compare_circuit_cells(circuit, &stimuli, &set.cells, &delays, &config)
            .map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
        let outputs = digitize_outputs(
            outcome.bundles.iter().map(|b| (b.net.as_str(), &b.sigmoid)),
            threshold,
        );
        Ok(SimResult {
            fingerprint,
            library,
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
    } else {
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
        .map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
        let wall_sigmoid = start.elapsed();
        Ok(SimResult {
            fingerprint,
            library,
            cache,
            outputs: sigmoid_outputs(circuit, &result, threshold),
            compare: None,
            timing: sim.timing.then_some(TimingStats {
                wall_analog_s: 0.0,
                wall_digital_s: 0.0,
                wall_sigmoid_s: wall_sigmoid.as_secs_f64(),
            }),
            timings: None,
        })
    }
}

/// The compiled-program twin of [`run_sim`]'s sigmoid-only branch: binds
/// the request's stimuli to a resident program with a reusable scratch
/// arena. Response fields are constructed identically, so a program-path
/// response is byte-for-byte the response the fused path would produce —
/// the CI smoke job diffs a daemon (program path) against `sigctl golden`
/// (fused path) to enforce exactly that.
fn run_program(
    program: &CircuitProgram,
    set: &ModelSet,
    sim: &SimRequest,
    cache: CacheOutcome,
    scratch: &mut FleetScratch,
) -> Result<SimResult, (ErrorKind, String)> {
    let circuit = program.circuit();
    let stimuli = stimuli_for(circuit, sim);
    let sigmoid_stimuli = sigmoid_stimuli_from(&stimuli, set.options.vdd);
    let start = Instant::now();
    let result = program
        .execute(&sigmoid_stimuli, scratch)
        .map_err(|e| (ErrorKind::Simulation, e.to_string()))?;
    let wall_sigmoid = start.elapsed();
    Ok(SimResult {
        fingerprint: crate::protocol::hex64(circuit.fingerprint()),
        library: set.library.clone(),
        cache,
        outputs: sigmoid_outputs(circuit, &result, set.options.vdd / 2.0),
        compare: None,
        timing: sim.timing.then_some(TimingStats {
            wall_analog_s: 0.0,
            wall_digital_s: 0.0,
            wall_sigmoid_s: wall_sigmoid.as_secs_f64(),
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

/// Digitizes a sigmoid simulation's primary outputs into wire traces
/// (shared by the fused and program paths).
fn sigmoid_outputs(
    circuit: &Circuit,
    result: &SigmoidSimResult,
    threshold: f64,
) -> Vec<OutputTrace> {
    digitize_outputs(
        circuit
            .outputs()
            .iter()
            .map(|&o| (circuit.net_name(o), result.trace(o))),
        threshold,
    )
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
