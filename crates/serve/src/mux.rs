//! The multiplexed TCP transport: an epoll readiness loop (one reactor
//! thread by default, `io_threads` to shard connections) serving every
//! connection without per-connection threads, with request pipelining,
//! strict in-order response write-back, and two layers of explicit
//! backpressure.
//!
//! It serves any [`Backend`]: the daemon's [`crate::Service`] and the
//! shard router of [`crate::router`].
//!
//! # Shape
//!
//! Each reactor owns a [`crate::reactor::Poller`], a wake channel, and
//! the connections assigned to it. Reactor 0 additionally owns the
//! listener; accepted sockets are handed out round-robin. A connection
//! is a non-blocking socket, a [`FrameReader`] over its read side, the
//! backend's per-connection state, an output byte buffer, and two
//! sequence cursors:
//!
//! * `next_seq` — assigned to each frame as it is dispatched,
//! * `next_write` — the next sequence whose response may be written.
//!
//! Workers (and inline handlers) never touch the socket: a frame's
//! [`Responder`] deposits the encoded line under its sequence number in
//! the connection's completion map, then wakes the owning reactor. The
//! reactor drains completions **in sequence order** into the output
//! buffer, so pipelined responses always come back in request order no
//! matter how the backend interleaves execution.
//!
//! # Backpressure and admission control
//!
//! * **Per connection** — at most `max_inflight` frames may be
//!   dispatched but unanswered (and at most `OUT_HIGH_WATER` response
//!   bytes pending); past either mark the reactor simply stops reading
//!   that socket (epoll interest drops to none), pushing backpressure
//!   into the kernel buffers and ultimately the client. Nothing is
//!   dropped; reading resumes as responses flush.
//! * **Daemon-wide** — at most `admission_budget` heavy requests (sim,
//!   batch, session open/delta) may be in flight across all
//!   connections. Past it new heavy frames answer `overloaded`
//!   immediately — same semantics as the pool-queue rejection — so a
//!   flood of work is refused at the door instead of starving the
//!   executing requests with decode/reject churn.
//!
//! An idle daemon does **zero periodic work**: `epoll_wait` blocks
//! without a timeout, and shutdown reaches every reactor through its
//! wake channel (regression-tested below via the wakeup counter).

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::protocol::{
    decode_request, encode_response, salvage_id, ErrorKind, FrameReader, Request, Response,
};
use crate::reactor::{wake_channel, Event, Interest, Poller, WakeReceiver, Waker};
use crate::service::{Handled, ServiceConfig};

/// Wire-edge phases on the reactor/worker threads; the same span names
/// as the stdio transport, so traces and the `stats` quantiles read the
/// same regardless of transport.
static DECODE: sigobs::Hist = sigobs::Hist::new("serve.decode");
static ENCODE: sigobs::Hist = sigobs::Hist::new("serve.encode");

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// Pending-output high-water mark per connection: past it the reactor
/// stops reading the socket until responses flush.
const OUT_HIGH_WATER: usize = 1 << 20;

/// What the mux serves: it answers each decoded frame through the
/// frame's [`Responder`], inline or later from any thread.
pub trait Backend: Send + Sync + 'static {
    /// Per-connection state, opened on accept and dropped on close.
    type Conn: Send + 'static;

    /// The transport limits: the mux reads `max_frame`, `io_threads`,
    /// `max_inflight` and `admission_budget`.
    fn config(&self) -> &ServiceConfig;

    /// The transport counters the mux maintains for this backend.
    fn counters(&self) -> &TransportCounters;

    /// Opens the state of a newly accepted connection.
    fn connect(self: &Arc<Self>) -> Self::Conn;

    /// Handles one decoded frame; `line` is the frame as read.
    /// [`Handled::Shutdown`] stops the mux.
    fn dispatch(
        self: &Arc<Self>,
        conn: &mut Self::Conn,
        line: &str,
        request: Request,
        responder: Responder,
    ) -> Handled;

    /// Blocks until every dispatched frame has been answered.
    fn drain(&self);
}

/// Transport counters, maintained by the mux.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Gauge: connections currently open.
    pub connections_open: AtomicU64,
    /// Frames read while their connection had a request in flight.
    pub frames_pipelined: AtomicU64,
    /// Heavy frames refused by the admission budget.
    pub admission_rejects: AtomicU64,
    /// Times `epoll_wait` returned: an idle mux must not tick.
    pub reactor_wakeups: AtomicU64,
}

/// State a connection shares with its in-flight responders.
struct ConnShared {
    /// The connection's epoll token (unique per accepted socket).
    token: u64,
    /// Index of the owning reactor.
    reactor: usize,
    /// Set when the connection is gone; late responders drop their line.
    dead: AtomicBool,
    /// The token is already on the owning reactor's dirty list.
    queued: AtomicBool,
    /// Encoded response lines waiting for their turn, keyed by sequence.
    completions: Mutex<HashMap<u64, String>>,
}

/// Per-reactor handle visible to every thread: how to reach the reactor.
struct ReactorHandle {
    waker: Arc<Waker>,
    /// Sockets accepted by reactor 0 awaiting adoption here.
    inbox: Mutex<Vec<TcpStream>>,
    /// Connections with fresh completions to drain.
    dirty: Mutex<Vec<u64>>,
}

/// State shared by all reactors and responders.
struct MuxShared {
    /// Mux-wide shutdown flag (a `shutdown` frame on any connection).
    stop: AtomicBool,
    /// Heavy requests admitted and not yet answered, mux-wide.
    admission: AtomicUsize,
    /// Round-robin cursor for assigning accepted sockets to reactors.
    next_reactor: AtomicUsize,
    reactors: Vec<ReactorHandle>,
}

impl MuxShared {
    fn wake_all(&self) {
        for r in &self.reactors {
            r.waker.wake();
        }
    }
}

/// The one answer owed to a dispatched frame: it deposits the line at
/// the frame's sequence number and releases its admission slot, once.
/// Dropped unanswered (say, by a job that panicked), it answers
/// `internal`, so later responses never stall and no slot leaks.
pub struct Responder {
    shared: Arc<MuxShared>,
    conn: Arc<ConnShared>,
    seq: u64,
    id: Option<u64>,
    admitted: bool,
    answered: AtomicBool,
}

impl Responder {
    /// The id of the request this responder answers.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Answers with `response`.
    pub fn respond(&self, response: &Response) {
        let sw = sigobs::stopwatch();
        let line = encode_response(response);
        sw.observe_span(&ENCODE, "serve.encode");
        self.respond_line(line);
    }

    /// Answers with an encoded response line (no trailing newline),
    /// passed through byte for byte.
    pub fn respond_line(&self, line: String) {
        if self.answered.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.admitted {
            self.shared.admission.fetch_sub(1, Ordering::AcqRel);
        }
        let conn = &self.conn;
        if conn.dead.load(Ordering::Acquire) {
            return;
        }
        // Runs from `Drop` too, so it must not panic: one insert or push
        // under each lock leaves the data valid even after a panic.
        conn.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(self.seq, line);
        let handle = &self.shared.reactors[conn.reactor];
        if !conn.queued.swap(true, Ordering::AcqRel) {
            handle
                .dirty
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(conn.token);
        }
        handle.waker.wake();
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !*self.answered.get_mut() {
            self.respond(&unanswered(self.id));
        }
    }
}

/// The `internal` error owed to a request whose handler failed without
/// answering it.
pub(crate) fn unanswered(id: Option<u64>) -> Response {
    Response::Error {
        id,
        kind: ErrorKind::Internal,
        message: "the request failed without an answer".to_string(),
    }
}

/// One multiplexed connection, owned by its reactor thread.
struct Conn<S> {
    stream: TcpStream,
    frames: FrameReader<BufReader<TcpStream>>,
    shared: Arc<ConnShared>,
    /// The backend's per-connection state.
    state: S,
    /// Pending output bytes; `out[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence assigned to the next dispatched frame.
    next_seq: u64,
    /// Sequence whose response is written next.
    next_write: u64,
    /// Stop reading: EOF, read failure, or mux shutdown.
    eof: bool,
    /// Write side failed; the connection is torn down at next settle.
    broken: bool,
    /// Current epoll interest (to skip redundant `EPOLL_CTL_MOD`s).
    interest: Interest,
}

impl<S> Conn<S> {
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn paused(&self, max_inflight: usize) -> bool {
        self.inflight() >= max_inflight as u64 || self.pending_out() >= OUT_HIGH_WATER
    }

    /// The responder of the next frame, at the next sequence number.
    fn responder(&mut self, shared: &Arc<MuxShared>, id: Option<u64>, admitted: bool) -> Responder {
        let seq = self.next_seq;
        self.next_seq += 1;
        Responder {
            shared: Arc::clone(shared),
            conn: Arc::clone(&self.shared),
            seq,
            id,
            admitted,
            answered: AtomicBool::new(false),
        }
    }

    /// Moves every response whose turn has come from the completion map
    /// into the output buffer.
    fn collect_completions(&mut self) {
        loop {
            let line = self
                .shared
                .completions
                .lock()
                .expect("completions poisoned")
                .remove(&self.next_write);
            match line {
                Some(l) => {
                    self.out.extend_from_slice(l.as_bytes());
                    self.out.push(b'\n');
                    self.next_write += 1;
                }
                None => break,
            }
        }
    }
}

struct Reactor<B: Backend> {
    backend: Arc<B>,
    shared: Arc<MuxShared>,
    idx: usize,
    poller: Poller,
    wake_rx: WakeReceiver,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn<B::Conn>>,
    next_token: u64,
}

impl<B: Backend> Reactor<B> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            self.backend
                .counters()
                .reactor_wakeups
                .fetch_add(1, Ordering::Relaxed);
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        let waker = Arc::clone(&self.shared.reactors[self.idx].waker);
                        self.wake_rx.rearm(&waker);
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            self.adopt_inbox();
            self.drain_dirty();
            if self.shared.stop.load(Ordering::SeqCst) {
                self.finalize();
                return;
            }
        }
        // Fatal poller failure: release what we hold so the daemon can
        // at least drain (connections drop; clients see resets).
        self.finalize();
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let n = self.shared.reactors.len();
                    let target = if n == 1 {
                        self.idx
                    } else {
                        self.shared.next_reactor.fetch_add(1, Ordering::Relaxed) % n
                    };
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        self.shared.reactors[target]
                            .inbox
                            .lock()
                            .expect("inbox poisoned")
                            .push(stream);
                        self.shared.reactors[target].waker.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failures (per-connection resets,
                // fd-limit pressure) must not kill the daemon.
                Err(_) => return,
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let streams = std::mem::take(
            &mut *self.shared.reactors[self.idx]
                .inbox
                .lock()
                .expect("inbox poisoned"),
        );
        for stream in streams {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Pipelined small frames benefit from immediate segments.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let token = self.next_token;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.next_token += 1;
        let max_frame = self.backend.config().max_frame;
        let conn = Conn {
            frames: FrameReader::new(BufReader::new(read_half), max_frame),
            stream,
            shared: Arc::new(ConnShared {
                token,
                reactor: self.idx,
                dead: AtomicBool::new(false),
                queued: AtomicBool::new(false),
                completions: Mutex::new(HashMap::new()),
            }),
            state: self.backend.connect(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            eof: false,
            broken: false,
            interest: Interest::READ,
        };
        self.conns.insert(token, conn);
        self.backend
            .counters()
            .connections_open
            .fetch_add(1, Ordering::SeqCst);
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return; // stale event for a connection closed this batch
        }
        if ev.readable {
            self.read_dispatch(token);
        }
        if ev.writable {
            self.flush(token);
        }
        if ev.closed && !ev.readable && !ev.writable {
            // Pure hang-up (EPOLLERR/EPOLLHUP with no data): the socket
            // is dead in both directions.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.eof = true;
                conn.broken = true;
            }
        }
        self.settle(token);
    }

    /// Reads and dispatches frames until the socket would block, the
    /// connection pauses (backpressure), ends, or the daemon stops.
    fn read_dispatch(&mut self, token: u64) {
        let shared = Arc::clone(&self.shared);
        let backend = Arc::clone(&self.backend);
        let max_inflight = backend.config().max_inflight.max(1);
        let admission_budget = backend.config().admission_budget.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            if conn.eof || conn.broken || conn.paused(max_inflight) {
                return;
            }
            if shared.stop.load(Ordering::SeqCst) {
                // A client that keeps sending frames must not keep the
                // daemon alive after a shutdown was acknowledged.
                conn.eof = true;
                return;
            }
            let frame = match conn.frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    conn.eof = true;
                    return;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return;
                }
                Err(_) => {
                    // Transport read failure: stop reading, but keep the
                    // write side so already-accepted requests answer.
                    conn.eof = true;
                    return;
                }
            };
            let line = match frame {
                Ok(line) => line,
                Err(e) => {
                    // Per-frame protocol violation: answers in order like
                    // any other request.
                    conn.responder(&shared, None, false)
                        .respond(&e.to_response(None));
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let sw = sigobs::stopwatch();
            let request = match decode_request(&line) {
                Ok(r) => r,
                Err(e) => {
                    sw.observe_span(&DECODE, "serve.decode");
                    conn.responder(&shared, None, false)
                        .respond(&e.to_response(salvage_id(&line)));
                    continue;
                }
            };
            sw.observe_span(&DECODE, "serve.decode");
            if conn.inflight() >= 1 {
                backend
                    .counters()
                    .frames_pipelined
                    .fetch_add(1, Ordering::Relaxed);
            }
            let id = request.id();
            let heavy = matches!(
                request,
                Request::Sim { .. }
                    | Request::SimBatch { .. }
                    | Request::SessionOpen { .. }
                    | Request::SessionDelta { .. }
            );
            if heavy && shared.admission.fetch_add(1, Ordering::AcqRel) >= admission_budget {
                shared.admission.fetch_sub(1, Ordering::AcqRel);
                backend
                    .counters()
                    .admission_rejects
                    .fetch_add(1, Ordering::Relaxed);
                conn.responder(&shared, None, false)
                    .respond(&Response::Error {
                        id: Some(id),
                        kind: ErrorKind::Overloaded,
                        message: "admission budget exhausted".to_string(),
                    });
                continue;
            }
            let responder = conn.responder(&shared, Some(id), heavy);
            let handled = backend.dispatch(&mut conn.state, &line, request, responder);
            if handled == Handled::Shutdown {
                shared.stop.store(true, Ordering::SeqCst);
                shared.wake_all();
                conn.eof = true;
                return;
            }
        }
    }

    /// Writes pending output until the socket would block.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.broken = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos >= OUT_HIGH_WATER {
            // Reclaim the written prefix before it dwarfs the backlog.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Per-connection epilogue after any activity: closes finished
    /// connections, otherwise reconciles epoll interest with state.
    fn settle(&mut self, token: u64) {
        let max_inflight = self.backend.config().max_inflight.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let answered = conn.next_write == conn.next_seq;
        if conn.broken || (conn.eof && answered && conn.pending_out() == 0) {
            self.close_conn(token);
            return;
        }
        let want = Interest {
            readable: !conn.eof && !conn.paused(max_inflight),
            writable: conn.pending_out() > 0,
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.shared.dead.store(true, Ordering::Release);
            self.backend
                .counters()
                .connections_open
                .fetch_sub(1, Ordering::SeqCst);
            // Dropping the streams closes the socket and (as the last
            // fds on the description) drops the epoll registration;
            // dropping `state` releases the connection's sessions or
            // upstreams.
        }
    }

    /// Drains freshly completed responses: in-order collection into the
    /// output buffers, an opportunistic flush, and a read resume when
    /// the flush lifted a backpressure pause.
    fn drain_dirty(&mut self) {
        let max_inflight = self.backend.config().max_inflight.max(1);
        let tokens = std::mem::take(
            &mut *self.shared.reactors[self.idx]
                .dirty
                .lock()
                .expect("dirty list poisoned"),
        );
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // closed since it was queued
            };
            // Clear the flag before draining so a racing deposit either
            // lands before the drain or re-queues the token.
            conn.shared.queued.store(false, Ordering::Release);
            let was_paused = conn.paused(max_inflight);
            conn.collect_completions();
            self.flush(token);
            let unpaused = self
                .conns
                .get(&token)
                .is_some_and(|c| was_paused && !c.paused(max_inflight));
            if unpaused {
                // Frames may be sitting in the connection's user-space
                // read buffer; no epoll event will ever announce them.
                self.read_dispatch(token);
            }
            self.settle(token);
        }
    }

    /// Shutdown epilogue: stop accepting, wait for every in-flight job
    /// to deposit, then write every connection's remaining responses
    /// with a bounded blocking flush.
    fn finalize(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        // Frames dispatched by this reactor deposit their completions
        // before drain returns.
        self.backend.drain();
        for (_token, mut conn) in self.conns.drain() {
            conn.shared.dead.store(true, Ordering::Release);
            self.backend
                .counters()
                .connections_open
                .fetch_sub(1, Ordering::SeqCst);
            conn.collect_completions();
            if conn.broken || conn.pending_out() == 0 {
                continue;
            }
            // Final flush blocks (bounded): the shutdown ack must reach
            // the client that asked before the process exits.
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(5)));
            let _ = conn.stream.write_all(&conn.out[conn.out_pos..]);
            let _ = conn.stream.flush();
        }
    }
}

/// Serves `backend` on a bound TCP listener with the epoll transport
/// until a client requests shutdown. `config().io_threads` reactors
/// multiplex all connections; see the module docs for the pipelining,
/// ordering, and admission-control semantics.
///
/// # Errors
///
/// Returns the I/O error that prevented the transport from starting
/// (epoll instance, wake channels, registrations). Runtime per-
/// connection failures never kill the daemon.
pub fn serve_mux<B: Backend>(backend: &Arc<B>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let io_threads = backend.config().io_threads.max(1);
    let mut receivers = Vec::with_capacity(io_threads);
    let mut handles = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (waker, rx) = wake_channel()?;
        receivers.push(rx);
        handles.push(ReactorHandle {
            waker,
            inbox: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
        });
    }
    let shared = Arc::new(MuxShared {
        stop: AtomicBool::new(false),
        admission: AtomicUsize::new(0),
        next_reactor: AtomicUsize::new(0),
        reactors: handles,
    });
    let mut listener = Some(listener);
    let mut threads = Vec::with_capacity(io_threads);
    for (idx, wake_rx) in receivers.into_iter().enumerate() {
        let poller = Poller::new()?;
        poller.register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let own_listener = if idx == 0 { listener.take() } else { None };
        if let Some(l) = &own_listener {
            poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        }
        let reactor = Reactor {
            backend: Arc::clone(backend),
            shared: Arc::clone(&shared),
            idx,
            poller,
            wake_rx,
            listener: own_listener,
            conns: HashMap::new(),
            next_token: TOKEN_CONN_BASE,
        };
        threads.push(std::thread::spawn(move || reactor.run()));
    }
    for t in threads {
        let _ = t.join();
    }
    backend.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_response, encode_request, CircuitSource, ErrorKind, Request, SimRequest,
    };
    use crate::registry::{nor_only_cells, synthetic_set, ModelSet};
    use crate::router::Router;
    use crate::service::{Service, ServiceConfig};
    use std::io::{BufRead, BufReader as StdBufReader};
    use std::sync::Condvar;

    fn mux_service(config: ServiceConfig) -> Arc<Service> {
        let service = Service::new(config);
        service.registry().insert(synthetic_set("synth"));
        service
    }

    fn spawn_daemon<B: Backend>(
        backend: &Arc<B>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let backend = Arc::clone(backend);
        let handle = std::thread::spawn(move || serve_mux(&backend, listener).expect("serve"));
        (addr, handle)
    }

    fn shutdown_daemon(addr: std::net::SocketAddr, server: std::thread::JoinHandle<()>) {
        let mut ctl = TcpStream::connect(addr).expect("connect ctl");
        writeln!(
            ctl,
            "{}",
            encode_request(&Request::Shutdown { id: 999_999 })
        )
        .expect("send");
        let mut ack = String::new();
        StdBufReader::new(ctl.try_clone().expect("clone"))
            .read_line(&mut ack)
            .expect("ack");
        assert_eq!(
            decode_response(ack.trim()).expect("response"),
            Response::ShuttingDown { id: 999_999 }
        );
        server.join().expect("server exits");
    }

    fn sim_line(id: u64) -> String {
        encode_request(&Request::Sim {
            id,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: id,
                timing: false,
                ..SimRequest::default()
            },
        })
    }

    /// Blocks the service's single worker until the returned guard is
    /// opened, making scheduling deterministic.
    struct Gate(Arc<(Mutex<bool>, Condvar)>);
    impl Gate {
        fn block_pool(service: &Arc<Service>) -> Gate {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            {
                let gate = Arc::clone(&gate);
                service.pool_for_tests().execute(move || {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().expect("gate");
                    while !*open {
                        open = cv.wait(open).expect("gate");
                    }
                });
            }
            while service.pool_for_tests().queued() > 0 {
                std::thread::yield_now();
            }
            Gate(gate)
        }

        fn open(&self) {
            let (lock, cv) = &*self.0;
            *lock.lock().expect("gate") = true;
            cv.notify_all();
        }
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let service = mux_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let gate = Gate::block_pool(&service);
        let (addr, server) = spawn_daemon(&service);
        let mut client = TcpStream::connect(addr).expect("connect");
        // A slow sim, an instant ping, another sim, another ping — all
        // written without awaiting. The ping replies are computed long
        // before the sims finish, yet the wire order must be 1,2,3,4.
        write!(
            client,
            "{}\n{}\n{}\n{}\n",
            sim_line(1),
            encode_request(&Request::Ping { id: 2 }),
            sim_line(3),
            encode_request(&Request::Ping { id: 4 }),
        )
        .expect("send burst");
        std::thread::sleep(Duration::from_millis(100));
        gate.open();
        let reader = StdBufReader::new(client.try_clone().expect("clone"));
        let ids: Vec<Option<u64>> = reader
            .lines()
            .take(4)
            .map(|l| decode_response(&l.expect("read")).expect("response").id())
            .collect();
        assert_eq!(ids, vec![Some(1), Some(2), Some(3), Some(4)]);
        assert!(service.stats().frames_pipelined >= 3, "burst was pipelined");
        shutdown_daemon(addr, server);
    }

    #[test]
    fn admission_budget_rejects_in_order_and_recovers() {
        let service = mux_service(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            admission_budget: 1,
            ..ServiceConfig::default()
        });
        let gate = Gate::block_pool(&service);
        let (addr, server) = spawn_daemon(&service);
        let mut client = TcpStream::connect(addr).expect("connect");
        // Three sims at once against a budget of one: the first is
        // admitted (and parks behind the gate), the other two answer
        // `overloaded` — in order, after the first sim's reply.
        write!(
            client,
            "{}\n{}\n{}\n",
            sim_line(1),
            sim_line(2),
            sim_line(3)
        )
        .expect("send");
        std::thread::sleep(Duration::from_millis(100));
        gate.open();
        let reader = StdBufReader::new(client.try_clone().expect("clone"));
        let responses: Vec<Response> = reader
            .lines()
            .take(3)
            .map(|l| decode_response(&l.expect("read")).expect("response"))
            .collect();
        assert!(
            matches!(responses[0], Response::Sim { id: 1, .. }),
            "{responses:?}"
        );
        for (r, id) in responses[1..].iter().zip([2u64, 3]) {
            assert!(
                matches!(
                    r,
                    Response::Error {
                        id: Some(got),
                        kind: ErrorKind::Overloaded,
                        ..
                    } if *got == id
                ),
                "{responses:?}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.admission_rejects, 2);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 1);
        // The budget frees with the responses: a fresh sim is admitted.
        writeln!(client, "{}", sim_line(9)).expect("send");
        let mut line = String::new();
        StdBufReader::new(client.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read");
        assert!(matches!(
            decode_response(line.trim()).expect("response"),
            Response::Sim { id: 9, .. }
        ));
        shutdown_daemon(addr, server);
    }

    #[test]
    fn max_inflight_pauses_reads_and_resumes_losslessly() {
        let service = mux_service(ServiceConfig {
            workers: 1,
            max_inflight: 2,
            ..ServiceConfig::default()
        });
        let gate = Gate::block_pool(&service);
        let (addr, server) = spawn_daemon(&service);
        let mut client = TcpStream::connect(addr).expect("connect");
        // Six frames against a window of two: the reactor dispatches the
        // two sims, pauses the socket, and only resumes as responses
        // flush. Nothing is lost or reordered.
        let mut burst = String::new();
        burst.push_str(&sim_line(1));
        burst.push('\n');
        burst.push_str(&sim_line(2));
        burst.push('\n');
        for id in 3..=6u64 {
            burst.push_str(&encode_request(&Request::Ping { id }));
            burst.push('\n');
        }
        client.write_all(burst.as_bytes()).expect("send burst");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            service.stats().connections_open,
            1,
            "gauge counts the open client"
        );
        gate.open();
        let reader = StdBufReader::new(client.try_clone().expect("clone"));
        let ids: Vec<Option<u64>> = reader
            .lines()
            .take(6)
            .map(|l| decode_response(&l.expect("read")).expect("response").id())
            .collect();
        assert_eq!(ids, (1..=6).map(Some).collect::<Vec<_>>());
        shutdown_daemon(addr, server);
    }

    #[test]
    fn idle_daemon_does_zero_periodic_work() {
        // Other tests in this binary run reactors and journal spans
        // concurrently, so count only this daemon's work: the wake-ups
        // of its own reactors (and its router's) and the spans of its
        // one worker thread.
        let service = mux_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (addr, server) = spawn_daemon(&service);
        let router = Router::new(vec![addr.to_string()]);
        let (router_addr, router_server) = spawn_daemon(&router);
        // An idle open connection to each (a 200 ms read timeout, or an
        // accept loop that sleeps and polls, would make this case spin).
        let idle = TcpStream::connect(addr).expect("connect idle");
        let mut routed = TcpStream::connect(router_addr).expect("connect routed");
        while service.stats().connections_open == 0 {
            std::thread::yield_now();
        }
        // One routed sim opens the router's upstream and its reader; both
        // then idle too.
        writeln!(routed, "{}", sim_line(1)).expect("send routed");
        let mut line = String::new();
        StdBufReader::new(routed.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("routed reply");
        assert!(matches!(
            decode_response(line.trim()).expect("response"),
            Response::Sim { id: 1, .. }
        ));
        std::thread::sleep(Duration::from_millis(50)); // settle accept wakeups
        let was = sigobs::mode();
        sigobs::set_mode(sigobs::ObsMode::Trace);
        // A probe span names the worker's journal thread.
        service
            .pool_for_tests()
            .execute(|| drop(sigobs::span("test.idle_probe")));
        service.drain();
        let (probe, _dropped) = sigobs::drain_chrome_trace();
        let worker = probe
            .iter()
            .find(|e| e.name == "test.idle_probe")
            .expect("probe span journaled")
            .tid;
        let wakeups = || {
            (
                service.counters().reactor_wakeups.load(Ordering::Relaxed),
                router.counters().reactor_wakeups.load(Ordering::Relaxed),
            )
        };
        let before = wakeups();
        std::thread::sleep(Duration::from_millis(400));
        let after = wakeups();
        let (events, _dropped) = sigobs::drain_chrome_trace();
        sigobs::set_mode(was);
        assert_eq!(after.0 - before.0, 0, "idle daemon reactors must not tick");
        assert_eq!(after.1 - before.1, 0, "idle router reactors must not tick");
        // A reactor that never woke ran no code, so the worker is the
        // only thread of this daemon that could have journaled.
        let spans: Vec<_> = events.iter().filter(|e| e.tid == worker).collect();
        assert!(
            spans.is_empty(),
            "no spans may accumulate on an idle traced daemon: {spans:?}"
        );
        drop(idle);
        // Shutdown through the router stops the daemon too.
        shutdown_daemon(router_addr, router_server);
        server.join().expect("daemon exits");
    }

    #[test]
    fn panicking_job_answers_internal_and_releases_its_slot() {
        use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};
        struct Panics;
        impl TransferFunction for Panics {
            fn predict(&self, _: TransferQuery) -> TransferPrediction {
                panic!("injected transfer-function fault")
            }
            fn backend_name(&self) -> &'static str {
                "panics"
            }
        }
        // A window of two frames makes the reactor read the good sim
        // only after the first two responses were written, i.e. after the
        // panicking job dropped its responder.
        let service = mux_service(ServiceConfig {
            workers: 1,
            admission_budget: 1,
            max_inflight: 2,
            ..ServiceConfig::default()
        });
        service.registry().insert(ModelSet {
            name: "faulty".into(),
            cells: Arc::new(nor_only_cells(&GateModel::new(Arc::new(Panics)))),
            ..synthetic_set("faulty")
        });
        let (addr, server) = spawn_daemon(&service);
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let faulty = encode_request(&Request::Sim {
            id: 1,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "faulty".into(),
                seed: 1,
                timing: false,
                ..SimRequest::default()
            },
        });
        write!(
            client,
            "{faulty}\n{}\n{}\n",
            encode_request(&Request::Ping { id: 2 }),
            sim_line(3),
        )
        .expect("send");
        let responses: Vec<Response> = StdBufReader::new(client.try_clone().expect("clone"))
            .lines()
            .take(3)
            .map(|l| decode_response(&l.expect("response before the timeout")).expect("response"))
            .collect();
        assert!(
            matches!(
                responses[0],
                Response::Error {
                    id: Some(1),
                    kind: ErrorKind::Internal,
                    ..
                }
            ),
            "{responses:?}"
        );
        assert_eq!(responses[1], Response::Pong { id: 2 });
        assert!(
            matches!(responses[2], Response::Sim { id: 3, .. }),
            "the admission slot was released: {responses:?}"
        );
        assert_eq!(service.pool_for_tests().panicked_jobs(), 1);
        shutdown_daemon(addr, server);
    }
}
