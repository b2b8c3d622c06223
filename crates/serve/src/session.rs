//! Per-connection session tables: resident incremental simulation state
//! keyed by client-chosen session ids.
//!
//! A [`SessionTable`] lives exactly as long as its connection (TCP or
//! [`crate::server::run_connection`] each open one per connection), so
//! sessions are invisible to other connections and released wholesale
//! when the connection ends. The table is bounded daemon-wide: every
//! connection draws from the shared
//! [`ServiceConfig::session_capacity`](crate::service::ServiceConfig::session_capacity)
//! budget, and a connection opening a session beyond it evicts its own
//! least-recently-used session first — it is rejected with `overloaded`
//! when it has none of its own to evict, never allowed to evict another
//! connection's session.
//!
//! Each session pins its compiled [`CircuitProgram`] and the
//! [`IncrementalState`] of the event-driven engine. Its frames ride the
//! same worker pool as full simulations in numbered turns: the open
//! holds turn 0, and each delta draws the next turn on the connection's
//! dispatch thread, where frames are still in arrival order. A worker
//! runs a frame only in its turn, so a connection's frames on one session
//! apply in the order sent, whichever worker picks them up (see
//! `docs/architecture.md` § Sessions).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use sigsim::{CircuitProgram, IncrementalState};

use crate::protocol::ErrorKind;
use crate::registry::ModelSet;
use crate::service::Service;

/// The resident core of one open session: the pinned program, the
/// committed incremental state, and what the opening request fixed for
/// every delta response.
pub(crate) struct SessionCore {
    /// The compiled program deltas execute against.
    pub(crate) program: Arc<CircuitProgram>,
    /// Committed traces plus the dirty-set bookkeeping.
    pub(crate) state: IncrementalState,
    /// The model set of the opening request (library echo, supply).
    pub(crate) set: Arc<ModelSet>,
    /// Whether delta responses carry wall-clock timing.
    pub(crate) timing: bool,
    /// Whether delta responses carry the per-phase `timings` breakdown
    /// (inherited from the opening request, like `timing`).
    pub(crate) timings: bool,
}

/// One session's turn keeper.
struct SessionSlot {
    turns: Mutex<Turns>,
    /// Signalled whenever a turn ends.
    turn_ended: Condvar,
}

struct Turns {
    /// The resident core. `None` while a turn holds it, and for good once
    /// the open failed or a delta unwound.
    core: Option<Box<SessionCore>>,
    /// Turns drawn so far (the open holds turn 0).
    drawn: u64,
    /// The turn that may run now.
    serving: u64,
}

/// A frame's place in its session's order (see the module docs).
#[derive(Clone)]
pub(crate) struct Turn {
    table: Arc<SessionTable>,
    session: u64,
    slot: Arc<SessionSlot>,
    number: u64,
}

impl Turn {
    /// Gives back a turn the pool refused. A refused open releases its
    /// reservation; a refused delta's number goes to the next delta,
    /// which is sound because the connection draws no other turn before
    /// this frame's dispatch returns.
    pub(crate) fn refuse(self) {
        if self.number == 0 {
            self.table.fail(self.session, &self.slot);
        } else {
            self.slot.turns.lock().expect("session slot poisoned").drawn -= 1;
        }
    }

    /// Waits for this turn, then runs `frame` on the session's core
    /// (`None` for the open, and once the open failed or a delta
    /// unwound; the open's `frame` fills it in). The turn ends
    /// on every exit path. If `frame` unwinds, the core it held is
    /// dropped and the session closed, so later frames answer
    /// `unknown-session` instead of running on half-applied state.
    pub(crate) fn run<T>(self, frame: impl FnOnce(&mut Option<Box<SessionCore>>) -> T) -> T {
        let mut turns = self.slot.turns.lock().expect("session slot poisoned");
        while turns.serving != self.number {
            turns = self
                .slot
                .turn_ended
                .wait(turns)
                .expect("session slot poisoned");
        }
        let core = turns.core.take();
        drop(turns);
        let mut held = Held { turn: self, core };
        frame(&mut held.core)
    }
}

/// The core a running turn holds, handed back when the turn ends.
struct Held {
    turn: Turn,
    core: Option<Box<SessionCore>>,
}

impl Drop for Held {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core = None;
        }
        let Turn {
            table,
            session,
            slot,
            ..
        } = &self.turn;
        if self.core.is_none() {
            table.fail(*session, slot);
        }
        let mut turns = slot.turns.lock().unwrap_or_else(PoisonError::into_inner);
        turns.core = self.core.take();
        turns.serving += 1;
        drop(turns);
        slot.turn_ended.notify_all();
    }
}

struct Entry {
    /// LRU tick of the last open/lookup touching this session.
    last_use: u64,
    slot: Arc<SessionSlot>,
}

struct Inner {
    slots: HashMap<u64, Entry>,
    /// Monotonic LRU clock (per table; sessions are per-connection).
    tick: u64,
}

/// The per-connection session id → slot map (see the module docs for
/// scoping, capacity and eviction semantics).
pub struct SessionTable {
    service: Arc<Service>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("session table poisoned");
        f.debug_struct("SessionTable")
            .field("sessions", &inner.slots.len())
            .finish_non_exhaustive()
    }
}

impl SessionTable {
    /// Creates the session table for one connection.
    #[must_use]
    pub fn new(service: Arc<Service>) -> Arc<Self> {
        Arc::new(Self {
            service,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
            }),
        })
    }

    /// Reserves a slot for `session` and returns the open's turn 0.
    /// Re-opening an id that is already open replaces the previous
    /// session. At the daemon-wide capacity this connection's
    /// least-recently-used session is evicted to make room.
    ///
    /// # Errors
    ///
    /// Returns `overloaded` when the daemon-wide budget is exhausted and
    /// this connection has no session of its own to evict.
    pub(crate) fn open(self: &Arc<Self>, session: u64) -> Result<Turn, (ErrorKind, String)> {
        let mut inner = self.inner.lock().expect("session table poisoned");
        if inner.slots.remove(&session).is_some() {
            self.release_count(1);
        }
        let capacity = self.service.config().session_capacity as u64;
        let open = self.service.session_count();
        loop {
            let held = open.load(Ordering::SeqCst);
            if held < capacity {
                // CAS so two connections racing for the last budget slot
                // cannot both win it.
                if open
                    .compare_exchange(held, held + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    break;
                }
                continue;
            }
            let lru = inner
                .slots
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&id, _)| id);
            let Some(lru) = lru else {
                return Err((
                    ErrorKind::Overloaded,
                    format!(
                        "session table is full ({capacity} open daemon-wide); \
                         close a session or retry later"
                    ),
                ));
            };
            // Eviction affects future lookups only: a delta job already
            // holding the evicted slot still completes against it.
            inner.slots.remove(&lru);
            self.release_count(1);
        }
        let slot = Arc::new(SessionSlot {
            turns: Mutex::new(Turns {
                core: None,
                drawn: 1,
                serving: 0,
            }),
            turn_ended: Condvar::new(),
        });
        let tick = inner.tick;
        inner.tick += 1;
        inner.slots.insert(
            session,
            Entry {
                last_use: tick,
                slot: Arc::clone(&slot),
            },
        );
        Ok(self.turn(session, slot, 0))
    }

    /// Looks up an open session, refreshing its LRU position, and draws
    /// the next turn on it.
    pub(crate) fn next_turn(self: &Arc<Self>, session: u64) -> Option<Turn> {
        let slot = {
            let mut inner = self.inner.lock().expect("session table poisoned");
            let tick = inner.tick;
            inner.tick += 1;
            let entry = inner.slots.get_mut(&session)?;
            entry.last_use = tick;
            Arc::clone(&entry.slot)
        };
        let number = {
            let mut turns = slot.turns.lock().expect("session slot poisoned");
            turns.drawn += 1;
            turns.drawn - 1
        };
        Some(self.turn(session, slot, number))
    }

    fn turn(self: &Arc<Self>, session: u64, slot: Arc<SessionSlot>, number: u64) -> Turn {
        Turn {
            table: Arc::clone(self),
            session,
            slot,
            number,
        }
    }

    /// Removes a session (the `session.close` path). Returns whether it
    /// was open.
    pub(crate) fn remove(&self, session: u64) -> bool {
        let removed = self
            .inner
            .lock()
            .expect("session table poisoned")
            .slots
            .remove(&session)
            .is_some();
        if removed {
            self.release_count(1);
        }
        removed
    }

    /// Releases a slot whose open failed or was refused, or whose delta
    /// unwound — but only while `session` still maps to this very slot,
    /// so a concurrent re-open (which replaced the entry) never loses its
    /// fresh slot or its budget count.
    fn fail(&self, session: u64, slot: &Arc<SessionSlot>) {
        // Runs from `Held::drop` too, so it must not panic: every update
        // of the table is one map operation, valid after any panic.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner
            .slots
            .get(&session)
            .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
        {
            inner.slots.remove(&session);
            drop(inner);
            self.release_count(1);
        }
    }

    fn release_count(&self, n: u64) {
        self.service.session_count().fetch_sub(n, Ordering::SeqCst);
    }
}

impl Drop for SessionTable {
    /// A closing connection releases every session it still holds.
    fn drop(&mut self) {
        let n = self
            .inner
            .lock()
            .expect("session table poisoned")
            .slots
            .len();
        if n > 0 {
            self.release_count(n as u64);
        }
    }
}
