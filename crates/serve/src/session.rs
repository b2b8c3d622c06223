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
//! [`IncrementalState`] of the event-driven engine; `session.delta`
//! requests ride the same worker pool as full simulations and are
//! serialized per session by the slot's state lock (see
//! `docs/architecture.md` § Incremental engine).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use sigsim::{CircuitProgram, IncrementalState};

use crate::protocol::ErrorKind;
use crate::service::Service;

/// The resident core of one ready session: the pinned program, the
/// committed incremental state, and the response fields captured at open
/// so every delta response is constructed exactly like a full `sim`
/// response for the same artifacts.
pub(crate) struct SessionCore {
    /// The compiled program deltas execute against.
    pub(crate) program: Arc<CircuitProgram>,
    /// Committed traces plus the dirty-set bookkeeping.
    pub(crate) state: IncrementalState,
    /// Fingerprint of the session's (mapped) circuit, precomputed.
    pub(crate) fingerprint: String,
    /// Cell-library echo of the opening request.
    pub(crate) library: String,
    /// Supply voltage of the session's model set (digitization threshold
    /// is `vdd / 2`, edit conversion uses the full value).
    pub(crate) vdd: f64,
    /// Whether delta responses carry wall-clock timing.
    pub(crate) timing: bool,
    /// Whether delta responses carry the per-phase `timings` breakdown
    /// (inherited from the opening request, like `timing`).
    pub(crate) timings: bool,
}

/// Lifecycle of one session slot. Deltas that arrive while the baseline
/// is still computing wait on the slot's condvar instead of failing.
pub(crate) enum SlotState {
    /// The open job has not finished the baseline yet.
    Opening,
    /// The session is resident and accepts deltas.
    Ready(Box<SessionCore>),
    /// The open job failed; waiting deltas report the session unknown.
    Failed,
}

/// One session's synchronization cell. The state mutex doubles as the
/// per-session execution lock: concurrent deltas on one session apply
/// one at a time, in pool order.
pub(crate) struct SessionSlot {
    /// The slot's lifecycle state (and per-session delta lock).
    pub(crate) state: Mutex<SlotState>,
    /// Signalled when the slot leaves [`SlotState::Opening`].
    pub(crate) ready: Condvar,
}

impl SessionSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Opening),
            ready: Condvar::new(),
        })
    }

    /// Publishes the opened core and wakes waiting deltas.
    pub(crate) fn fulfill(&self, core: SessionCore) {
        *self.state.lock().expect("session slot poisoned") = SlotState::Ready(Box::new(core));
        self.ready.notify_all();
    }

    /// Marks the open as failed and wakes waiting deltas.
    pub(crate) fn abandon(&self) {
        *self.state.lock().expect("session slot poisoned") = SlotState::Failed;
        self.ready.notify_all();
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

    /// Reserves a slot for `session` in the [`SlotState::Opening`] state.
    /// Re-opening an id that is already open replaces the previous
    /// session. At the daemon-wide capacity this connection's
    /// least-recently-used session is evicted to make room.
    ///
    /// # Errors
    ///
    /// Returns `overloaded` when the daemon-wide budget is exhausted and
    /// this connection has no session of its own to evict.
    pub(crate) fn open_reserve(
        &self,
        session: u64,
    ) -> Result<Arc<SessionSlot>, (ErrorKind, String)> {
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
        let slot = SessionSlot::new();
        let tick = inner.tick;
        inner.tick += 1;
        inner.slots.insert(
            session,
            Entry {
                last_use: tick,
                slot: Arc::clone(&slot),
            },
        );
        Ok(slot)
    }

    /// Looks up an open session, refreshing its LRU position.
    pub(crate) fn lookup(&self, session: u64) -> Option<Arc<SessionSlot>> {
        let mut inner = self.inner.lock().expect("session table poisoned");
        let tick = inner.tick;
        inner.tick += 1;
        let entry = inner.slots.get_mut(&session)?;
        entry.last_use = tick;
        Some(Arc::clone(&entry.slot))
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

    /// Releases a slot whose open failed — but only while `session` still
    /// maps to this very slot, so a concurrent re-open (which replaced
    /// the entry) never loses its fresh slot or its budget count.
    pub(crate) fn fail(&self, session: u64, slot: &Arc<SessionSlot>) {
        let mut inner = self.inner.lock().expect("session table poisoned");
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
