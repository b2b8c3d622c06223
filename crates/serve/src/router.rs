//! `sigrouter` — shared-nothing horizontal scale-out for `sigserve`.
//!
//! The router consistent-hashes every request's **circuit fingerprint**
//! across N shard daemons, so each shard's circuit/program caches stay
//! hot and disjoint: a given circuit always lands on the same shard,
//! and adding a shard only moves `1/(n+1)` of the key space (Lamport's
//! jump consistent hash over an FNV-1a key).
//!
//! The router is a [`Backend`] of the daemon's own transport
//! ([`crate::mux`], limits from [`ServiceConfig::default`]), so clients
//! get the daemon's contract, responses in request order included.
//!
//! Data-plane frames (`sim`, `sim.batch`, session ops) are forwarded
//! **byte-for-byte**: the router decodes only enough to route, then
//! writes the original line upstream, so shard responses — already
//! byte-identical to `sigctl golden` — pass through unchanged. Each
//! client connection gets its own upstream connection per shard, opened
//! on first use (sessions stay scoped to the client exactly as on a
//! direct connection), whose reader thread pairs the shard's in-order
//! response lines with the waiting frames. `session.open` pins its
//! session id to the shard that holds the circuit, and later
//! deltas/closes follow the pin. Once an upstream closes, its waiting
//! and later frames answer `shard N unreachable`.
//!
//! Control-plane frames are handled by the router itself: `ping`
//! answers locally, `stats` fans out and aggregates (counters sum,
//! quantiles take the worst shard, model sets union) and `trace`
//! concatenates every shard's spans — both on a helper thread, so a
//! slow shard stalls no other client — and `shutdown` shuts every shard
//! down before acknowledging and exiting.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sigcircuit::ContentHasher;

use crate::cache::hash_source;
use crate::mux::{Backend, Responder, TransportCounters};
use crate::protocol::{
    decode_response, encode_request, CircuitSource, ErrorKind, Request, Response, StatsReply,
    TraceSpan,
};
use crate::service::{unknown_session, Handled, ServiceConfig};

/// The routing key: the content hash of the circuit source under the
/// caches' one source-key encoding, so the same inline netlist always
/// routes to the same shard.
#[must_use]
pub fn circuit_key(source: &CircuitSource) -> u64 {
    let mut h = ContentHasher::new();
    hash_source(&mut h, source);
    h.finish()
}

/// Lamport's jump consistent hash: maps `key` to a bucket in
/// `0..buckets` such that growing the bucket count only reassigns the
/// keys that move to the new bucket.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
pub fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "jump_hash needs at least one bucket");
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let r = ((key >> 33).wrapping_add(1)) as f64;
        j = (((b.wrapping_add(1)) as f64) * ((1u64 << 31) as f64 / r)) as i64;
    }
    #[allow(clippy::cast_sign_loss)]
    {
        b as u32
    }
}

/// The shard a circuit routes to among `shards` backends.
#[must_use]
pub fn route(source: &CircuitSource, shards: usize) -> usize {
    jump_hash(
        circuit_key(source),
        u32::try_from(shards.max(1)).unwrap_or(u32::MAX),
    ) as usize
}

/// Aggregates shard stats into one reply: counters and capacities sum,
/// latency quantiles report the worst shard (a conservative fleet-wide
/// bound), model sets union, and the string fields echo the first
/// shard (shards are expected to run the same build).
#[must_use]
pub fn aggregate_stats(shards: &[StatsReply]) -> StatsReply {
    let mut total = StatsReply::default();
    let mut sets: Vec<String> = Vec::new();
    for (i, s) in shards.iter().enumerate() {
        sets.extend(s.model_sets.iter().cloned());
        total.model_loads += s.model_loads;
        total.model_requests += s.model_requests;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.cache_entries += s.cache_entries;
        total.program_hits += s.program_hits;
        total.program_misses += s.program_misses;
        total.program_entries += s.program_entries;
        total.workers += s.workers;
        total.queue_capacity += s.queue_capacity;
        total.completed += s.completed;
        total.rejected += s.rejected;
        total.sessions_open += s.sessions_open;
        total.delta_hits += s.delta_hits;
        total.gates_reeval += s.gates_reeval;
        total.fleet_runs += s.fleet_runs;
        total.fleet_rows += s.fleet_rows;
        total.snap_memo_hits += s.snap_memo_hits;
        total.snap_memo_searches += s.snap_memo_searches;
        total.snap_memo_bytes += s.snap_memo_bytes;
        total.connections_open += s.connections_open;
        total.frames_pipelined += s.frames_pipelined;
        total.admission_rejects += s.admission_rejects;
        total.sim_p50_s = total.sim_p50_s.max(s.sim_p50_s);
        total.sim_p99_s = total.sim_p99_s.max(s.sim_p99_s);
        total.batch_p50_s = total.batch_p50_s.max(s.batch_p50_s);
        total.batch_p99_s = total.batch_p99_s.max(s.batch_p99_s);
        total.delta_p50_s = total.delta_p50_s.max(s.delta_p50_s);
        total.delta_p99_s = total.delta_p99_s.max(s.delta_p99_s);
        total.queue_p50_s = total.queue_p50_s.max(s.queue_p50_s);
        total.queue_p99_s = total.queue_p99_s.max(s.queue_p99_s);
        if i == 0 {
            total.simd_level = s.simd_level.clone();
            total.obs_mode = s.obs_mode.clone();
        }
    }
    sets.sort_unstable();
    sets.dedup();
    total.model_sets = sets;
    total
}

/// One control-plane round trip on a fresh connection to `addr`. The
/// connection carries only `request`, so its first line is the answer.
fn control_roundtrip(addr: &str, request: &Request) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{}\n", encode_request(request)).as_bytes())?;
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "shard closed before responding",
        ));
    }
    decode_response(line.trim_end()).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("undecodable shard response: {e}"),
        )
    })
}

fn unreachable(id: Option<u64>, shard: usize, reason: &dyn std::fmt::Display) -> Response {
    Response::Error {
        id,
        kind: ErrorKind::Simulation,
        message: format!("shard {shard} unreachable: {reason}"),
    }
}

/// The router backend.
pub(crate) struct Router {
    shards: Vec<String>,
    config: ServiceConfig,
    counters: TransportCounters,
    /// Frames written upstream and not answered yet, router-wide.
    forwarded: Mutex<usize>,
    /// Signalled when `forwarded` drops to zero.
    settled: Condvar,
    /// Helper threads running `stats`/`trace` fan-outs.
    helpers: Mutex<Vec<JoinHandle<()>>>,
}

impl Router {
    pub(crate) fn new(shards: Vec<String>) -> Arc<Self> {
        assert!(!shards.is_empty(), "router needs at least one shard");
        Arc::new(Router {
            shards,
            config: ServiceConfig::default(),
            counters: TransportCounters::default(),
            forwarded: Mutex::new(0),
            settled: Condvar::new(),
            helpers: Mutex::new(Vec::new()),
        })
    }

    /// Counts `n` forwarded frames as answered.
    fn answered(&self, n: usize) {
        let mut forwarded = self.forwarded.lock().expect("forwarded count poisoned");
        *forwarded -= n;
        if *forwarded == 0 {
            self.settled.notify_all();
        }
    }

    /// Answers from a helper thread, off the reactor.
    fn off_reactor(
        self: &Arc<Self>,
        responder: Responder,
        answer: impl FnOnce(&Router) -> Response + Send + 'static,
    ) {
        let router = Arc::clone(self);
        let helper = std::thread::spawn(move || responder.respond(&answer(&router)));
        let mut helpers = self.helpers.lock().expect("helper list poisoned");
        helpers.retain(|h| !h.is_finished());
        helpers.push(helper);
    }

    /// Every shard's stats, aggregated, or the first shard failure.
    fn fleet_stats(&self, id: u64) -> Response {
        let mut replies = Vec::with_capacity(self.shards.len());
        for (shard, addr) in self.shards.iter().enumerate() {
            match control_roundtrip(addr, &Request::Stats { id }) {
                Ok(Response::Stats { stats, .. }) => replies.push(stats),
                Ok(other) => {
                    return Response::Error {
                        id: Some(id),
                        kind: ErrorKind::Simulation,
                        message: format!("shard {shard} answered {other:?}"),
                    }
                }
                Err(e) => return unreachable(Some(id), shard, &e),
            }
        }
        Response::Stats {
            id,
            stats: aggregate_stats(&replies),
        }
    }

    /// Every reachable shard's spans, concatenated.
    fn fleet_trace(&self, id: u64) -> Response {
        let mut spans: Vec<TraceSpan> = Vec::new();
        let mut dropped = 0;
        for addr in &self.shards {
            if let Ok(Response::Trace {
                spans: s,
                dropped: d,
                ..
            }) = control_roundtrip(addr, &Request::Trace { id })
            {
                spans.extend(s);
                dropped += d;
            }
        }
        Response::Trace { id, spans, dropped }
    }

    /// Forwards `line` to `shard`; `false` if it was answered with an
    /// error instead.
    fn forward(
        self: &Arc<Self>,
        routes: &mut Routes,
        shard: usize,
        line: &str,
        responder: Responder,
    ) -> bool {
        if routes.upstreams[shard].is_none() {
            match Upstream::open(self, shard) {
                Ok(upstream) => routes.upstreams[shard] = Some(upstream),
                Err(e) => {
                    responder.respond(&unreachable(responder.id(), shard, &e));
                    return false;
                }
            }
        }
        let upstream = routes.upstreams[shard].as_mut().expect("opened above");
        upstream.send(self, shard, line, responder)
    }
}

/// One client connection's upstreams, opened on first use, and its
/// session→shard pins.
pub(crate) struct Routes {
    upstreams: Vec<Option<Upstream>>,
    session_shard: HashMap<u64, usize>,
}

/// The responders waiting on one upstream and why it closed, under one
/// lock so no frame is queued after the reader's last drain.
#[derive(Default)]
struct Waiting {
    responders: VecDeque<Responder>,
    closed: Option<String>,
}

/// A client connection's link to one shard.
struct Upstream {
    stream: TcpStream,
    waiting: Arc<Mutex<Waiting>>,
    reader: Option<JoinHandle<()>>,
}

impl Upstream {
    fn open(router: &Arc<Router>, shard: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect(&router.shards[shard])?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let waiting = Arc::new(Mutex::new(Waiting::default()));
        let reader = {
            let (router, waiting) = (Arc::clone(router), Arc::clone(&waiting));
            std::thread::Builder::new()
                .name(format!("sigrouter-shard{shard}"))
                .spawn(move || read_upstream(&router, shard, read_half, &waiting))?
        };
        Ok(Upstream {
            stream,
            waiting,
            reader: Some(reader),
        })
    }

    /// Queues `responder`, then writes the frame in one call; `false`
    /// if the upstream had closed (the frame then answers the error).
    fn send(&mut self, router: &Router, shard: usize, line: &str, responder: Responder) -> bool {
        {
            let mut waiting = self.waiting.lock().expect("upstream queue poisoned");
            if let Some(reason) = &waiting.closed {
                responder.respond(&unreachable(responder.id(), shard, reason));
                return false;
            }
            waiting.responders.push_back(responder);
            *router.forwarded.lock().expect("forwarded count poisoned") += 1;
        }
        if self
            .stream
            .write_all(format!("{line}\n").as_bytes())
            .is_err()
        {
            // The reader sees the socket close and answers every
            // waiting frame, this one included.
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        true
    }
}

impl Drop for Upstream {
    fn drop(&mut self) {
        // Unblocks the reader, which then answers what waits and exits.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Answers the oldest waiting frame with each shard line, unchanged;
/// after EOF or an error, closes the upstream and answers every waiting
/// frame with the unreachable error.
fn read_upstream(router: &Router, shard: usize, stream: TcpStream, waiting: &Mutex<Waiting>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let reason = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {
                line.pop();
                let next = waiting
                    .lock()
                    .expect("upstream queue poisoned")
                    .responders
                    .pop_front();
                if let Some(responder) = next {
                    responder.respond_line(std::mem::take(&mut line));
                    router.answered(1);
                }
            }
            // EOF, possibly inside a frame.
            Ok(_) => break "connection closed".to_string(),
            Err(e) => break e.to_string(),
        }
    };
    let orphans = {
        let mut waiting = waiting.lock().expect("upstream queue poisoned");
        waiting.closed = Some(reason.clone());
        std::mem::take(&mut waiting.responders)
    };
    let n = orphans.len();
    for responder in orphans {
        responder.respond(&unreachable(responder.id(), shard, &reason));
    }
    if n > 0 {
        router.answered(n);
    }
}

impl Backend for Router {
    type Conn = Routes;

    fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn counters(&self) -> &TransportCounters {
        &self.counters
    }

    fn connect(self: &Arc<Self>) -> Routes {
        Routes {
            upstreams: self.shards.iter().map(|_| None).collect(),
            session_shard: HashMap::new(),
        }
    }

    fn dispatch(
        self: &Arc<Self>,
        routes: &mut Routes,
        line: &str,
        request: Request,
        responder: Responder,
    ) -> Handled {
        let shard = match request {
            Request::Ping { id } => {
                responder.respond(&Response::Pong { id });
                return Handled::Continue;
            }
            Request::Stats { id } => {
                self.off_reactor(responder, move |router| router.fleet_stats(id));
                return Handled::Continue;
            }
            Request::Trace { id } => {
                self.off_reactor(responder, move |router| router.fleet_trace(id));
                return Handled::Continue;
            }
            Request::Shutdown { id } => {
                // Every shard drains and stops before the ack; the mux
                // then drains every frame forwarded to them.
                for addr in &self.shards {
                    let _ = control_roundtrip(addr, &Request::Shutdown { id });
                }
                responder.respond(&Response::ShuttingDown { id });
                return Handled::Shutdown;
            }
            Request::Sim { ref sim, .. } | Request::SimBatch { ref sim, .. } => {
                route(&sim.circuit, self.shards.len())
            }
            Request::SessionOpen {
                ref sim, session, ..
            } => {
                let shard = route(&sim.circuit, self.shards.len());
                routes.session_shard.insert(session, shard);
                if !self.forward(routes, shard, line, responder) {
                    routes.session_shard.remove(&session);
                }
                return Handled::Continue;
            }
            Request::SessionDelta { id, session, .. } => {
                if let Some(&shard) = routes.session_shard.get(&session) {
                    shard
                } else {
                    responder.respond(&unknown_session(id, session));
                    return Handled::Continue;
                }
            }
            Request::SessionClose { id, session } => {
                if let Some(shard) = routes.session_shard.remove(&session) {
                    shard
                } else {
                    responder.respond(&unknown_session(id, session));
                    return Handled::Continue;
                }
            }
        };
        self.forward(routes, shard, line, responder);
        Handled::Continue
    }

    fn drain(&self) {
        let helpers = std::mem::take(&mut *self.helpers.lock().expect("helper list poisoned"));
        for helper in helpers {
            let _ = helper.join();
        }
        let mut forwarded = self.forwarded.lock().expect("forwarded count poisoned");
        while *forwarded > 0 {
            forwarded = self
                .settled
                .wait(forwarded)
                .expect("forwarded count poisoned");
        }
    }
}

/// Serves the router on a bound listener until a client requests
/// shutdown (which is forwarded to every shard first).
///
/// # Errors
///
/// Returns the I/O error that prevented the transport from starting.
pub fn serve_router(listener: TcpListener, shards: Vec<String>) -> std::io::Result<()> {
    crate::mux::serve_mux(&Router::new(shards), listener)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_hash_is_stable_in_range_and_consistent() {
        for key in 0..10_000u64 {
            let b4 = jump_hash(key, 4);
            assert!(b4 < 4);
            assert_eq!(b4, jump_hash(key, 4), "deterministic");
            // Consistency: growing 4 → 5 buckets either keeps the
            // bucket or moves the key to the new bucket only.
            let b5 = jump_hash(key, 5);
            assert!(b5 == b4 || b5 == 4, "key {key} moved {b4} -> {b5}");
        }
        // The fraction that moves is about 1/5.
        let moved = (0..10_000u64)
            .filter(|&k| jump_hash(k, 5) != jump_hash(k, 4))
            .count();
        assert!((1_000..3_000).contains(&moved), "moved {moved}/10000");
    }

    #[test]
    fn benchmark_circuits_split_across_two_shards() {
        // The CI router e2e relies on the three built-in benchmarks not
        // all hashing to one shard of two — pin that here.
        let shards: Vec<usize> = ["c17", "c499", "c1355"]
            .iter()
            .map(|n| route(&CircuitSource::Name((*n).to_string()), 2))
            .collect();
        assert!(
            shards.contains(&0) && shards.contains(&1),
            "benchmarks all routed to one shard: {shards:?}"
        );
        // Inline text routes by content, names by name.
        let a = CircuitSource::Inline("INPUT(a)\nOUTPUT(y)\ny = NOR(a)\n".into());
        let b = CircuitSource::Inline("INPUT(b)\nOUTPUT(y)\ny = NOR(b)\n".into());
        assert_eq!(route(&a, 7), route(&a, 7));
        assert_ne!(circuit_key(&a), circuit_key(&b));
    }

    #[test]
    fn circuit_keys_and_routes_are_pinned() {
        // The key is the caches' source hash; changing either would move
        // circuits between shards, so the values are pinned.
        for (name, key, shard) in [
            ("c17", 0x5fdc_94ef_8c50_73e1, 1),
            ("c499", 0x1ad0_7c0b_5e70_7905, 0),
            ("c1355", 0xa870_c569_cac8_c467, 1),
        ] {
            let source = CircuitSource::Name(name.into());
            assert_eq!(circuit_key(&source), key, "{name}");
            assert_eq!(route(&source, 2), shard, "{name}");
        }
    }

    #[test]
    fn stats_aggregation_sums_counters_and_takes_worst_quantiles() {
        let a = StatsReply {
            model_sets: vec!["ci/nor-only".into()],
            completed: 10,
            cache_entries: 2,
            sim_p99_s: 0.5,
            simd_level: "avx2".into(),
            obs_mode: "counters".into(),
            ..StatsReply::default()
        };
        let b = StatsReply {
            model_sets: vec!["ci/nor-only".into(), "ci/native".into()],
            completed: 5,
            cache_entries: 1,
            sim_p99_s: 0.25,
            simd_level: "avx2".into(),
            obs_mode: "counters".into(),
            ..StatsReply::default()
        };
        let total = aggregate_stats(&[a, b]);
        assert_eq!(total.completed, 15);
        assert_eq!(total.cache_entries, 3);
        assert_eq!(total.sim_p99_s, 0.5);
        assert_eq!(
            total.model_sets,
            vec!["ci/native".to_string(), "ci/nor-only".to_string()]
        );
        assert_eq!(total.simd_level, "avx2");
    }
}
