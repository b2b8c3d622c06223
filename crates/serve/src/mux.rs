//! The multiplexed TCP transport: one epoll reactor thread serving every
//! connection without per-connection threads, with request pipelining,
//! strict in-order response write-back, and two layers of explicit
//! backpressure.
//!
//! It serves any [`Backend`]: the daemon's [`crate::Service`] and the
//! shard router of [`crate::router`].
//!
//! # Shape
//!
//! The reactor runs on the thread that calls [`serve_mux`] and owns the
//! listener, a [`crate::reactor::Poller`], a wake channel and every
//! connection. A connection is a non-blocking socket, a [`FrameReader`]
//! over its read side, the backend's per-connection state, a reorder map
//! of answered lines, an output byte buffer, and two sequence cursors:
//!
//! * `next_seq` — assigned to each frame as it is dispatched,
//! * `next_write` — the next sequence whose response may be written.
//!
//! Workers (and inline handlers) never touch a connection: a frame's
//! [`Responder`] posts `(connection token, sequence, line)` to the
//! mailbox and wakes the reactor, which files each line in its
//! connection's reorder map and writes the map out **in sequence
//! order**, so pipelined responses always come back in request order no
//! matter how the backend interleaves execution. Lines for a connection
//! that has closed are dropped (tokens are never reused). The admission
//! counter, the waker and the mailbox are all the transport shares
//! across threads.
//!
//! A peer that resets its connection, or a socket error, closes the
//! connection at once: nothing written could reach the peer, so its
//! frames in flight answer into the void. A peer that only half-closes
//! still reads every answer to the frames it sent.
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
//! without a timeout (regression-tested below via the wakeup counter).

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::protocol::{ErrorKind, FrameReader, Request, Response};
use crate::reactor::{wake_channel, Event, Interest, Poller, WakeReceiver, Waker};
use crate::server::{decode_frame, encode_frame};
use crate::service::{Handled, ServiceConfig};

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

    /// The transport limits: the mux reads `max_frame`, `max_inflight`
    /// and `admission_budget`.
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

/// An answered line on its way to the reactor: the connection's token,
/// the frame's sequence number, and the line.
type Answer = (u64, u64, String);

/// What the reactor shares with the responders of in-flight frames.
struct MuxShared {
    /// Heavy requests admitted and not yet answered.
    admission: AtomicUsize,
    /// Wakes the reactor once the mailbox holds answers.
    waker: Arc<Waker>,
    /// Answers the reactor has not filed yet.
    mailbox: Mutex<Vec<Answer>>,
}

/// The one answer owed to a dispatched frame: it releases the frame's
/// admission slot and posts the line at the frame's sequence number,
/// once. Dropped unanswered (say, by a job that panicked), it answers
/// `internal`, so later responses never stall and no slot leaks.
pub struct Responder {
    shared: Arc<MuxShared>,
    token: u64,
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
        self.respond_line(encode_frame(response));
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
        // Runs from `Drop` too, so it must not panic: one push under the
        // lock leaves the mailbox valid even after a panic.
        self.shared
            .mailbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.token, self.seq, line));
        self.shared.waker.wake();
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

/// One multiplexed connection, owned by the reactor.
struct Conn<S> {
    stream: TcpStream,
    frames: FrameReader<BufReader<TcpStream>>,
    /// The backend's per-connection state.
    state: S,
    /// Answered lines waiting for their turn, keyed by sequence.
    answers: HashMap<u64, String>,
    /// Pending output bytes; `out[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence assigned to the next dispatched frame.
    next_seq: u64,
    /// Sequence whose response is written next.
    next_write: u64,
    /// Stop reading: EOF, read failure, or mux shutdown.
    eof: bool,
    /// A write failed; the connection is torn down at the next settle.
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
    fn responder(
        &mut self,
        shared: &Arc<MuxShared>,
        token: u64,
        id: Option<u64>,
        admitted: bool,
    ) -> Responder {
        let seq = self.next_seq;
        self.next_seq += 1;
        Responder {
            shared: Arc::clone(shared),
            token,
            seq,
            id,
            admitted,
            answered: AtomicBool::new(false),
        }
    }

    /// Moves every answered line whose turn has come into the output
    /// buffer.
    fn collect_answers(&mut self) {
        while let Some(line) = self.answers.remove(&self.next_write) {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
            self.next_write += 1;
        }
    }

    /// Writes pending output until the socket would block.
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= OUT_HIGH_WATER {
            // Reclaim the written prefix before it dwarfs the backlog.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}

/// Files the mailed answers in their connections' reorder maps and
/// returns the tokens that received any. A connection closed since its
/// frame was read drops the answer: tokens are never reused.
fn file_answers<S>(conns: &mut HashMap<u64, Conn<S>>, mailbox: &Mutex<Vec<Answer>>) -> Vec<u64> {
    let mail = std::mem::take(&mut *mailbox.lock().expect("mailbox poisoned"));
    let mut tokens = Vec::new();
    for (token, seq, line) in mail {
        if let Some(conn) = conns.get_mut(&token) {
            conn.answers.insert(seq, line);
            tokens.push(token);
        }
    }
    tokens.sort_unstable();
    tokens.dedup();
    tokens
}

struct Reactor<B: Backend> {
    backend: Arc<B>,
    shared: Arc<MuxShared>,
    poller: Poller,
    wake_rx: WakeReceiver,
    listener: TcpListener,
    conns: HashMap<u64, Conn<B::Conn>>,
    next_token: u64,
    /// A `shutdown` frame was dispatched: the loop ends after this batch.
    stop: bool,
}

impl<B: Backend> Reactor<B> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        // A fatal poller failure ends the loop too: the daemon still
        // drains, and the connections drop (clients see resets).
        while !self.stop && self.poller.wait(&mut events, None).is_ok() {
            self.backend
                .counters()
                .reactor_wakeups
                .fetch_add(1, Ordering::Relaxed);
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_WAKER => self.wake_rx.rearm(&self.shared.waker),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            self.deliver();
        }
        self.finalize();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // `WouldBlock` ends the backlog; transient accept failures
                // (per-connection resets, fd-limit pressure) must not kill
                // the daemon.
                Err(_) => return,
            }
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
            state: self.backend.connect(),
            answers: HashMap::new(),
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
        if ev.hangup {
            // Reset or errored: no answer can reach the peer any more,
            // and the level-triggered report would repeat until close.
            self.close_conn(token);
        } else {
            self.progress(token, ev.readable, |conn| {
                if ev.writable {
                    conn.flush();
                }
            });
        }
    }

    /// Applies `update` to a connection's output, reads on when the
    /// socket is readable or `update` lifted a backpressure pause, then
    /// settles. Frames may wait in the user-space read buffer after a
    /// pause, and no epoll event announces them.
    fn progress(&mut self, token: u64, readable: bool, update: impl FnOnce(&mut Conn<B::Conn>)) {
        let max_inflight = self.backend.config().max_inflight.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // stale event for a connection closed this batch
        };
        let was_paused = conn.paused(max_inflight);
        update(conn);
        if readable || (was_paused && !conn.paused(max_inflight)) {
            self.read_dispatch(token);
        }
        self.settle(token);
    }

    /// Reads and dispatches frames until the socket would block, the
    /// connection pauses (backpressure), ends, or the daemon stops.
    fn read_dispatch(&mut self, token: u64) {
        let max_inflight = self.backend.config().max_inflight.max(1);
        let admission_budget = self.backend.config().admission_budget.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            if conn.eof || conn.broken || conn.paused(max_inflight) {
                return;
            }
            if self.stop {
                // A client that keeps sending frames must not keep the
                // daemon alive after a shutdown was acknowledged.
                conn.eof = true;
                return;
            }
            let frame = match conn.frames.next_frame() {
                Ok(Some(frame)) => frame,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return;
                }
                // EOF or a transport read failure: stop reading, but keep
                // the write side so already-accepted requests answer.
                Ok(None) | Err(_) => {
                    conn.eof = true;
                    return;
                }
            };
            let (line, request) = match decode_frame(frame) {
                None => continue,
                Some(Ok(decoded)) => decoded,
                // Per-frame protocol violation: answers in order like any
                // other request.
                Some(Err(error)) => {
                    conn.responder(&self.shared, token, None, false)
                        .respond(&error);
                    continue;
                }
            };
            let counters = self.backend.counters();
            if conn.inflight() >= 1 {
                counters.frames_pipelined.fetch_add(1, Ordering::Relaxed);
            }
            let id = request.id();
            let heavy = matches!(
                request,
                Request::Sim { .. }
                    | Request::SimBatch { .. }
                    | Request::SessionOpen { .. }
                    | Request::SessionDelta { .. }
            );
            let admission = &self.shared.admission;
            if heavy && admission.fetch_add(1, Ordering::AcqRel) >= admission_budget {
                admission.fetch_sub(1, Ordering::AcqRel);
                counters.admission_rejects.fetch_add(1, Ordering::Relaxed);
                conn.responder(&self.shared, token, None, false)
                    .respond(&Response::Error {
                        id: Some(id),
                        kind: ErrorKind::Overloaded,
                        message: "admission budget exhausted".to_string(),
                    });
                continue;
            }
            let responder = conn.responder(&self.shared, token, Some(id), heavy);
            if self
                .backend
                .dispatch(&mut conn.state, &line, request, responder)
                == Handled::Shutdown
            {
                self.stop = true;
                conn.eof = true;
                return;
            }
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
        if self.conns.remove(&token).is_some() {
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

    /// Delivers mailed answers: in-order collection into the output
    /// buffers and an opportunistic flush.
    fn deliver(&mut self) {
        for token in file_answers(&mut self.conns, &self.shared.mailbox) {
            self.progress(token, false, |conn| {
                conn.collect_answers();
                conn.flush();
            });
        }
    }

    /// Shutdown epilogue: stop accepting, wait for every in-flight job
    /// to answer, then write every connection's remaining responses
    /// with a bounded blocking flush.
    fn finalize(self) {
        let Reactor {
            backend,
            shared,
            listener,
            mut conns,
            ..
        } = self;
        // Clients that connect from here on are refused.
        drop(listener);
        // Every dispatched frame has posted its answer once drain returns.
        backend.drain();
        file_answers(&mut conns, &shared.mailbox);
        for mut conn in conns.into_values() {
            backend
                .counters()
                .connections_open
                .fetch_sub(1, Ordering::SeqCst);
            conn.collect_answers();
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
/// until a client requests shutdown. The reactor runs on the calling
/// thread and multiplexes every connection; see the module docs for the
/// pipelining, ordering, and admission-control semantics.
///
/// # Errors
///
/// Returns the I/O error that prevented the transport from starting
/// (epoll instance, wake channel, registrations). Runtime
/// per-connection failures never kill the daemon.
pub fn serve_mux<B: Backend>(backend: &Arc<B>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = wake_channel()?;
    let poller = Poller::new()?;
    poller.register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READ)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    Reactor {
        backend: Arc::clone(backend),
        shared: Arc::new(MuxShared {
            admission: AtomicUsize::new(0),
            waker,
            mailbox: Mutex::new(Vec::new()),
        }),
        poller,
        wake_rx,
        listener,
        conns: HashMap::new(),
        next_token: TOKEN_CONN_BASE,
        stop: false,
    }
    .run();
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

    fn open_line(id: u64, session: u64) -> String {
        encode_request(&Request::SessionOpen {
            id,
            session,
            sim: SimRequest {
                circuit: CircuitSource::Name("c17".into()),
                models: "synth".into(),
                seed: id,
                timing: false,
                ..SimRequest::default()
            },
        })
    }

    /// Polls `done` until it holds, failing after a 5 s deadline.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Reads `n` response lines.
    fn read_responses(reader: &mut StdBufReader<TcpStream>, n: usize) -> Vec<Response> {
        (0..n)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("response in time");
                decode_response(line.trim()).expect("response")
            })
            .collect()
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
    fn vanishing_client_closes_at_once_and_releases_its_budgets() {
        let service = mux_service(ServiceConfig {
            workers: 1,
            session_capacity: 2,
            admission_budget: 8,
            ..ServiceConfig::default()
        });
        let gate = Gate::block_pool(&service);
        let (addr, server) = spawn_daemon(&service);
        // A pipelines a ping and six heavy frames, which wait behind the
        // gate; both session opens reserve their slots at dispatch.
        let mut a = TcpStream::connect(addr).expect("connect A");
        let mut script = format!("{}\n", encode_request(&Request::Ping { id: 1 }));
        for line in [
            open_line(2, 1),
            open_line(3, 2),
            encode_request(&Request::SessionDelta {
                id: 4,
                session: 1,
                edits: vec![],
            }),
            sim_line(5),
            sim_line(6),
            sim_line(7),
        ] {
            script.push_str(&line);
            script.push('\n');
        }
        a.write_all(script.as_bytes()).expect("send A");
        wait_until("A's six frames queue behind the gate", || {
            service.pool_for_tests().queued() == 6
        });
        // While A holds both session slots, B's open is refused.
        let b = TcpStream::connect(addr).expect("connect B");
        b.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut b_reader = StdBufReader::new(b.try_clone().expect("clone"));
        writeln!(&b, "{}", open_line(10, 1)).expect("send B");
        assert!(
            matches!(
                read_responses(&mut b_reader, 1)[0],
                Response::Error {
                    id: Some(10),
                    kind: ErrorKind::Overloaded,
                    ..
                }
            ),
            "the session budget is held by A"
        );
        // A leaves with its pong unread, which resets the connection:
        // it must close while its six frames still wait, and the reset
        // must not wake the reactor over and over.
        a.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        a.peek(&mut [0u8; 1]).expect("the pong arrives");
        drop(a);
        wait_until("A's connection closes", || {
            service.stats().connections_open == 1
        });
        assert_eq!(service.stats().completed, 0, "A's frames still wait");
        let wakeups = || service.counters().reactor_wakeups.load(Ordering::Relaxed);
        let before = wakeups();
        std::thread::sleep(Duration::from_millis(200));
        let spun = wakeups() - before;
        assert!(spun < 100, "the reactor woke {spun} times in 200 ms");
        // A's frames still run, and every session and admission slot
        // they held comes back.
        gate.open();
        wait_until("A's frames complete and its sessions close", || {
            let stats = service.stats();
            stats.completed == 6 && stats.sessions_open == 0
        });
        // B now fills both budgets: two opens and six sims, all admitted
        // at once behind the held worker.
        let gate = Gate::block_pool(&service);
        let mut burst = format!("{}\n{}\n", open_line(11, 1), open_line(12, 2));
        for id in 13..=18 {
            burst.push_str(&sim_line(id));
            burst.push('\n');
        }
        (&b).write_all(burst.as_bytes()).expect("send B burst");
        wait_until("B's eight frames queue behind the gate", || {
            service.pool_for_tests().queued() == 8
        });
        gate.open();
        let responses = read_responses(&mut b_reader, 8);
        let ids: Vec<Option<u64>> = responses.iter().map(Response::id).collect();
        assert_eq!(ids, (11..=18).map(Some).collect::<Vec<_>>());
        assert!(
            responses
                .iter()
                .all(|r| !matches!(r, Response::Error { .. })),
            "{responses:?}"
        );
        assert_eq!(service.stats().admission_rejects, 0);
        shutdown_daemon(addr, server);
    }

    #[test]
    fn slowloris_partial_frame_stalls_only_its_own_connection() {
        let service = mux_service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (addr, server) = spawn_daemon(&service);
        let ping = format!("{}\n", encode_request(&Request::Ping { id: 1 }));
        let (head, tail) = ping.split_at(ping.len() / 2);
        // A writes half a frame and stalls.
        let mut a = TcpStream::connect(addr).expect("connect A");
        a.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        a.write_all(head.as_bytes()).expect("send half");
        wait_until("A is accepted", || service.stats().connections_open == 1);
        std::thread::sleep(Duration::from_millis(50));
        // B is served meanwhile.
        let mut b = TcpStream::connect(addr).expect("connect B");
        b.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        write!(
            b,
            "{}\n{}\n",
            encode_request(&Request::Ping { id: 2 }),
            sim_line(3)
        )
        .expect("send B");
        let responses = read_responses(&mut StdBufReader::new(b), 2);
        assert_eq!(responses[0], Response::Pong { id: 2 });
        assert!(
            matches!(responses[1], Response::Sim { id: 3, .. }),
            "{responses:?}"
        );
        // A's frame completes with its second half.
        a.write_all(tail.as_bytes()).expect("send tail");
        let mut a_reader = StdBufReader::new(a.try_clone().expect("clone"));
        assert_eq!(
            read_responses(&mut a_reader, 1),
            vec![Response::Pong { id: 1 }]
        );
        // A stalls mid-frame again; shutdown still exits.
        a.write_all(head.as_bytes()).expect("send half");
        shutdown_daemon(addr, server);
    }

    /// Answers every frame inline with a line of `width` bytes.
    struct Wide {
        config: ServiceConfig,
        counters: TransportCounters,
        width: usize,
    }

    impl Backend for Wide {
        type Conn = ();
        fn config(&self) -> &ServiceConfig {
            &self.config
        }
        fn counters(&self) -> &TransportCounters {
            &self.counters
        }
        fn connect(self: &Arc<Self>) {}
        fn dispatch(
            self: &Arc<Self>,
            (): &mut (),
            _: &str,
            request: Request,
            responder: Responder,
        ) -> Handled {
            if let Request::Shutdown { id } = request {
                responder.respond(&Response::ShuttingDown { id });
                return Handled::Shutdown;
            }
            responder.respond_line("x".repeat(self.width));
            Handled::Continue
        }
        fn drain(&self) {}
    }

    #[test]
    fn output_pause_resumes_frames_already_read() {
        // Sixty-four pings arrive in one read. With the client not
        // reading, the 256 KiB answers fill the kernel buffers and pass
        // the output high-water mark while most pings still wait in the
        // connection's read buffer, where no epoll event will announce
        // them: the flush that lifts the pause must resume reading.
        let backend = Arc::new(Wide {
            config: ServiceConfig {
                max_inflight: 4,
                ..ServiceConfig::default()
            },
            counters: TransportCounters::default(),
            width: 256 << 10,
        });
        let (addr, server) = spawn_daemon(&backend);
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let pings: String = (1..=64)
            .map(|id| format!("{}\n", encode_request(&Request::Ping { id })))
            .collect();
        client.write_all(pings.as_bytes()).expect("send pings");
        std::thread::sleep(Duration::from_millis(200));
        let mut reader = StdBufReader::new(client.try_clone().expect("clone"));
        for answered in 0..64 {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("{answered} of 64 answered: {e}"));
            assert_eq!(line.len(), backend.width + 1);
        }
        shutdown_daemon(addr, server);
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
