//! A std-only epoll readiness reactor: raw syscall bindings (no `libc`
//! crate — the same vendoring discipline as the rest of the workspace)
//! wrapped in a safe [`Poller`] plus a coalescing cross-thread [`Waker`].
//!
//! The kernel interface is three calls — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait` — declared here against the C library `std` already
//! links, so no new dependency is introduced. Everything else (sockets,
//! non-blocking mode, the wake channel) rides plain `std::net` /
//! `std::os::unix` types.
//!
//! The poller is **level-triggered**: an fd with unread input (or writable
//! space while write interest is armed) reports on every wait until the
//! condition clears. The transport in [`crate::mux`] therefore always
//! drains a readiness edge to `WouldBlock` before waiting again.
//!
//! [`Waker`] is how worker threads nudge a reactor blocked in
//! [`Poller::wait`]: one end of a `UnixStream` pair is registered with
//! the poller, the other is written by [`Waker::wake`]. A pending flag
//! coalesces bursts — completing a thousand responses costs one wake
//! byte, not a thousand syscalls.

// The whole point of this module is to confine the three unsafe FFI
// calls; the crate is `deny(unsafe_code)` everywhere else.
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC` == `O_CLOEXEC` (octal `02000000`).
const EPOLL_CLOEXEC: i32 = 0o2_000_000;

/// The kernel's `struct epoll_event`. x86-64 packs it to match the
/// 32-bit layout; every other architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEvent, maxevents: i32, timeout: i32) -> i32;
}

/// Which readiness conditions a registration subscribes to. Hang-up and
/// error conditions are always reported regardless of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd has readable data (or a pending accept).
    pub readable: bool,
    /// Report when the fd's send buffer has space.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// No readiness interest: the fd stays registered (hang-ups still
    /// report) but neither read nor write readiness wakes the poller —
    /// the paused state admission control parks a connection in.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        // RDHUP rides the read interest: a paused (NONE) or write-only
        // registration must not be woken level-triggered forever by a
        // peer that half-closed — the half-close is discovered when
        // reads resume (a reset still reports, as EPOLLHUP).
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable: data, a pending accept, or the peer's
    /// half-close (`EPOLLRDHUP`), which reads as end of stream while the
    /// write side stays usable.
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The connection is down in both directions (`EPOLLHUP`: a reset,
    /// or both sides closed) or the fd errored (`EPOLLERR`): nothing
    /// written can reach the peer. Reported whatever the interest, and
    /// level-triggered, so the owner must close the fd or be woken
    /// again at once.
    pub hangup: bool,
}

/// A safe wrapper over one epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates a fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Returns the OS error when the kernel refuses a new instance
    /// (fd limits, mostly).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 touches no caller memory; the flag is a
        // plain scalar, and the returned fd is checked before wrapping.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, owned epoll descriptor; the
        // OwnedFd takes over closing it exactly once.
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<&mut RawEvent>) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), std::ptr::from_mut);
        // SAFETY: `ptr` is either null (DEL, where the kernel ignores it)
        // or points at a live, writable RawEvent on the caller's stack.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Returns the OS error (`EEXIST` for double registration, etc.).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = RawEvent {
            events: interest.bits(),
            data: token,
        };
        self.ctl(EPOLL_CTL_ADD, fd, Some(&mut ev))
    }

    /// Changes the interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Returns the OS error (`ENOENT` when the fd was never registered).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = RawEvent {
            events: interest.bits(),
            data: token,
        };
        self.ctl(EPOLL_CTL_MOD, fd, Some(&mut ev))
    }

    /// Removes an fd from the poller. Dropping the fd also removes it;
    /// this exists for connections that outlive a pause/resume cycle.
    ///
    /// # Errors
    ///
    /// Returns the OS error (`ENOENT` when the fd was never registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// elapses), appending reports to `out`. `None` waits indefinitely —
    /// a truly idle reactor does **zero** periodic work. Returns the
    /// number of events appended (`0` on timeout).
    ///
    /// # Errors
    ///
    /// Returns the OS error from `epoll_wait` (`EINTR` is retried
    /// internally and never surfaces).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const CAPACITY: usize = 256;
        let mut raw = [RawEvent { events: 0, data: 0 }; CAPACITY];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX),
        };
        loop {
            // SAFETY: the buffer pointer/length describe a live stack
            // array the kernel fills with at most CAPACITY entries.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    CAPACITY as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            #[allow(clippy::cast_sign_loss)]
            let n = n as usize;
            for ev in raw.iter().take(n) {
                // Copy out of the (possibly packed) struct first.
                let bits = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            return Ok(n);
        }
    }
}

/// The write side of a reactor's wake channel. Clone-free sharing via
/// `Arc`; any thread may call [`Waker::wake`] at any time.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    /// Set while a wake byte is in flight; cleared by
    /// [`WakeReceiver::rearm`] after the reactor drains the channel.
    pending: AtomicBool,
}

impl Waker {
    /// Nudges the reactor out of [`Poller::wait`]. Coalescing: while a
    /// previous wake is still undrained this is one relaxed RMW and no
    /// syscall.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // A full channel means wakes are already pending — the
            // reactor will drain and re-check; dropping the byte is fine.
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// The read side of a wake channel: registered with the owning reactor's
/// poller and drained on every wake event.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The fd to register with the poller (read interest).
    #[must_use]
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Drains queued wake bytes and re-arms the waker. Call on a wake
    /// event **before** processing completion queues: a wake arriving
    /// after the rearm writes a fresh byte, so no completion is lost.
    pub fn rearm(&mut self, waker: &Waker) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        waker.pending.store(false, Ordering::Release);
    }
}

/// Creates a connected waker/receiver pair (both ends non-blocking).
///
/// # Errors
///
/// Returns the OS error when the socket pair cannot be created.
pub fn wake_channel() -> io::Result<(Arc<Waker>, WakeReceiver)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((
        Arc::new(Waker {
            tx,
            pending: AtomicBool::new(false),
        }),
        WakeReceiver { rx },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_listener_accept_readiness() {
        let poller = Poller::new().expect("epoll instance");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        // Nothing pending: a short wait times out with zero events.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "no readiness before a client connects");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn half_close_reads_as_eof_and_a_reset_hangs_up() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let poller = Poller::new().expect("epoll instance");
        let mut events = Vec::new();
        let mut wait_for = |token: u64| {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            *events
                .iter()
                .find(|e| e.token == token)
                .unwrap_or_else(|| panic!("no event for {token}: {events:?}"))
        };
        // A half-close reads as end of stream; the write side still works.
        let half = TcpStream::connect(addr).expect("connect");
        let (served_half, _) = listener.accept().expect("accept");
        poller
            .register(served_half.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        half.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let ev = wait_for(1);
        assert!(ev.readable && !ev.hangup, "{ev:?}");
        poller
            .deregister(served_half.as_raw_fd())
            .expect("deregister");
        // Closing with an answer unread resets the connection: a hang-up,
        // reported even with no interest armed.
        let reset = TcpStream::connect(addr).expect("connect");
        let (served_reset, _) = listener.accept().expect("accept");
        poller
            .register(served_reset.as_raw_fd(), 2, Interest::NONE)
            .expect("register");
        (&served_reset).write_all(b"answer\n").expect("write");
        reset.peek(&mut [0u8; 1]).expect("answer arrived");
        drop(reset);
        let ev = wait_for(2);
        assert!(ev.hangup, "{ev:?}");
    }

    #[test]
    fn interest_modification_gates_events() {
        let poller = Poller::new().expect("epoll instance");
        let (a, b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        poller
            .register(a.as_raw_fd(), 1, Interest::NONE)
            .expect("register");
        (&b).write_all(b"x").expect("write");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "parked interest reports nothing despite data");
        poller
            .modify(a.as_raw_fd(), 1, Interest::READ)
            .expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1, "read interest surfaces the buffered byte");
        assert!(events[0].readable);
        poller.deregister(a.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn waker_coalesces_and_survives_rearm_cycles() {
        let poller = Poller::new().expect("epoll instance");
        let (waker, mut rx) = wake_channel().expect("wake channel");
        poller
            .register(rx.raw_fd(), 9, Interest::READ)
            .expect("register");
        // A burst of wakes lands as (at least) one event.
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        rx.rearm(&waker);
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "drained channel is quiet");
        // The cycle repeats after rearm.
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
    }
}
