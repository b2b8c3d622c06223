//! The service's content-keyed LRU caches.
//!
//! * [`CircuitCache`] — repeated requests for the same netlist skip
//!   parsing, validation, NOR mapping and levelization. Keys are
//!   content-derived ([`sigcircuit::content_hash`] over the request's
//!   circuit source, `name:<benchmark>` or `inline:<text>`) prefixed
//!   with the mapping policy and paired with the source length, so two
//!   requests hit the same entry iff they sent the same bytes *and* map
//!   onto the same cell set. Values are `Arc<Circuit>`.
//! * [`ProgramCache`] — warm traffic additionally skips gate validation,
//!   slot resolution and plan-template construction: values are compiled
//!   [`sigsim::CircuitProgram`]s, keyed by the circuit source *plus*
//!   everything else a program bakes in — mapping policy, model-set
//!   preset and library, and the TOM options (see `docs/protocol.md`
//!   § Program cache).
//!
//! Both are one type, [`KeyedLru`]: per-key build locks (concurrent
//! misses on one key build once while other keys proceed), LRU eviction,
//! and exact hit/miss counters under any client interleaving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sigcircuit::{Circuit, ContentHasher, MappingPolicy};
use sigsim::CircuitProgram;
use sigtom::TomOptions;

use crate::protocol::CircuitSource;

/// Time a request spends blocked on another request building the same
/// cache key (the per-key build lock in [`KeyedLru::get_or_insert`]).
/// Near-zero on warm traffic; spikes reveal thundering-herd compiles.
static BUILD_LOCK_WAIT: sigobs::Hist = sigobs::Hist::new("cache.lock_wait");

/// A content-derived cache key: FNV-1a hash of the key material plus its
/// length (the length guards against accidental 64-bit collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hash: u64,
    len: usize,
}

impl CacheKey {
    /// The key of a request's circuit source under a mapping policy.
    /// The material is streamed through one [`ContentHasher`] (policy
    /// prefix + source) — no intermediate buffer, since this runs on
    /// every request including warm hits and inline netlists can be
    /// megabytes.
    #[must_use]
    pub fn of(source: &CircuitSource, policy: MappingPolicy) -> Self {
        let mut h = ContentHasher::new();
        h.update(policy.as_str().as_bytes());
        h.update(b";");
        hash_source(&mut h, source);
        Self {
            hash: h.finish(),
            len: h.written(),
        }
    }

    /// The key of a compiled program, derived from the *already-computed*
    /// circuit key (hash + length — the policy-tagged source fingerprint)
    /// plus the model-set coordinates, the TOM options the program bakes
    /// in, and the **identity of the resident cell-model allocation**.
    /// Deriving from the circuit key instead of re-streaming the source
    /// text keeps the warm path at **one** full-source hash per request —
    /// inline netlists can be megabytes, and hashing them twice would
    /// hand back much of the compile-skip win.
    ///
    /// The cells identity (the `Arc` pointer) guards against serving a
    /// stale program after an embedder re-registers a `(preset, library)`
    /// key with different models: a new set is a new allocation, so the
    /// derived key changes. The identity is sound key material precisely
    /// because a cached program holds an `Arc` to its cells — the old
    /// allocation cannot be freed (and its address reused) while any
    /// cache entry still refers to it.
    #[must_use]
    pub fn for_program(
        circuit: CacheKey,
        cells: &Arc<sigsim::CellModels>,
        preset: &str,
        library: &str,
        options: TomOptions,
    ) -> Self {
        let mut h = ContentHasher::new();
        h.update(&circuit.hash.to_le_bytes());
        h.update(&(circuit.len as u64).to_le_bytes());
        h.update(&(Arc::as_ptr(cells) as usize as u64).to_le_bytes());
        h.update(preset.as_bytes());
        h.update(b";");
        h.update(library.as_bytes());
        h.update(b";");
        h.update(&options.vdd.to_bits().to_le_bytes());
        h.update(&[u8::from(options.cancel_subthreshold)]);
        Self {
            hash: h.finish(),
            len: h.written(),
        }
    }
}

/// Streams a circuit source's key material into a hasher: a tag prefix
/// plus the source text, so a name and an inline body spelling the same
/// bytes never collide. This is the single definition of the source key
/// encoding; the router's shard key hashes it too.
pub(crate) fn hash_source(h: &mut ContentHasher, source: &CircuitSource) {
    match source {
        CircuitSource::Name(n) => {
            h.update(b"name:");
            h.update(n.as_bytes());
        }
        CircuitSource::Inline(t) => {
            h.update(b"inline:");
            h.update(t.as_bytes());
        }
    }
}

/// A per-key slot: the slot mutex serializes building of *one* key, so
/// concurrent misses on the same key build once while hits (and builds)
/// of other keys proceed untouched — the same pattern as the model
/// registry's per-name locks.
#[derive(Debug)]
struct Slot<V> {
    built: Mutex<Option<Arc<V>>>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Self {
            built: Mutex::new(None),
        }
    }
}

/// The service's cache engine: a bounded LRU map from [`CacheKey`] to
/// `Arc<V>` with per-key build locks and exact counters.
///
/// The outer map lock is held only for slot lookup and LRU bookkeeping
/// (microseconds); a miss builds under its own key's slot lock, so one
/// slow build never stalls warm requests for other keys. Hit/miss totals
/// stay deterministic for any client interleaving (racing misses on one
/// key: the first builds and counts the miss, the rest wait on the slot
/// and count hits).
#[derive(Debug)]
pub struct KeyedLru<V> {
    inner: Mutex<LruInner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Parsed circuits keyed by [`CacheKey::of`] (see the module docs).
pub type CircuitCache = KeyedLru<Circuit>;

/// Compiled programs keyed by [`CacheKey::for_program`] — the
/// compile-once / execute-many half of the service's warm path. A program
/// hit means the request pays **no** parsing, mapping, validation, slot
/// resolution or planning: the worker binds stimuli to resident tables
/// and runs.
pub type ProgramCache = KeyedLru<CircuitProgram>;

struct LruInner<V> {
    map: HashMap<CacheKey, (Arc<Slot<V>>, u64)>,
    tick: u64,
}

impl<V> std::fmt::Debug for LruInner<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruInner")
            .field("entries", &self.map.len())
            .field("tick", &self.tick)
            .finish()
    }
}

impl<V> KeyedLru<V> {
    /// A cache holding at most `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`; on a miss, runs `build` and caches its result.
    /// Returns the value and whether this was a hit.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error. Nothing is cached then: a bad netlist
    /// is re-reported, not remembered, and error paths are not the hot
    /// path.
    pub fn get_or_insert<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let slot = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((slot, last_used)) = inner.map.get_mut(&key) {
                *last_used = tick;
                Arc::clone(slot)
            } else {
                if inner.map.len() >= self.capacity {
                    // Evict the least recently used entry (linear scan:
                    // the cache holds tens of entries, not thousands).
                    // An in-flight build of the evicted key keeps its own
                    // slot Arc and completes unaffected.
                    if let Some(&lru) = inner
                        .map
                        .iter()
                        .min_by_key(|(_, (_, last_used))| *last_used)
                        .map(|(k, _)| k)
                    {
                        inner.map.remove(&lru);
                    }
                }
                let slot = Arc::new(Slot::default());
                inner.map.insert(key, (Arc::clone(&slot), tick));
                slot
            }
        };
        let sw = sigobs::stopwatch();
        let mut built = slot.built.lock().expect("cache slot poisoned");
        sw.observe_span(&BUILD_LOCK_WAIT, "cache.lock_wait");
        if let Some(value) = &*built {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(value), true));
        }
        match build() {
            Ok(value) => {
                let value = Arc::new(value);
                *built = Some(Arc::clone(&value));
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok((value, false))
            }
            Err(e) => {
                // Drop the empty slot so failures are not cached and
                // `entries()` keeps counting only built values.
                let mut inner = self.inner.lock().expect("cache poisoned");
                if let Some((resident, _)) = inner.map.get(&key) {
                    if Arc::ptr_eq(resident, &slot) {
                        inner.map.remove(&key);
                    }
                }
                Err(e)
            }
        }
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (builds) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Values currently resident.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcircuit::{CircuitBuilder, GateKind};

    fn circuit(tag: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Nor, &[a], &format!("y{tag}"));
        b.mark_output(y);
        b.build().unwrap()
    }

    const POLICY: MappingPolicy = MappingPolicy::NorOnly;

    fn name(n: &str) -> CircuitSource {
        CircuitSource::Name(n.to_string())
    }

    #[test]
    fn hit_returns_shared_arc_and_counts() {
        let cache = CircuitCache::new(4);
        let (a, hit_a) = cache
            .get_or_insert::<()>(CacheKey::of(&name("x"), POLICY), || Ok(circuit(0)))
            .unwrap();
        let (b, hit_b) = cache
            .get_or_insert::<()>(CacheKey::of(&name("x"), POLICY), || {
                panic!("must not rebuild")
            })
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_sources_do_not_collide() {
        let cache = CircuitCache::new(4);
        cache
            .get_or_insert::<()>(CacheKey::of(&name("x"), POLICY), || Ok(circuit(0)))
            .unwrap();
        // An inline source spelling the same bytes as a name must still
        // be a different key (tag prefix).
        let (_, hit) = cache
            .get_or_insert::<()>(
                CacheKey::of(&CircuitSource::Inline("x".into()), POLICY),
                || Ok(circuit(1)),
            )
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn policies_do_not_share_entries() {
        // The same source under the two policies maps to two different
        // circuits, so the keys must differ.
        let cache = CircuitCache::new(4);
        cache
            .get_or_insert::<()>(CacheKey::of(&name("x"), MappingPolicy::NorOnly), || {
                Ok(circuit(0))
            })
            .unwrap();
        let (_, hit) = cache
            .get_or_insert::<()>(CacheKey::of(&name("x"), MappingPolicy::Native), || {
                Ok(circuit(1))
            })
            .unwrap();
        assert!(!hit, "native form must be built separately");
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = CircuitCache::new(2);
        cache
            .get_or_insert::<()>(CacheKey::of(&name("a"), POLICY), || Ok(circuit(0)))
            .unwrap();
        cache
            .get_or_insert::<()>(CacheKey::of(&name("b"), POLICY), || Ok(circuit(1)))
            .unwrap();
        // Touch `a` so `b` is the LRU, then insert `c`.
        cache
            .get_or_insert::<()>(CacheKey::of(&name("a"), POLICY), || panic!("hit expected"))
            .unwrap();
        cache
            .get_or_insert::<()>(CacheKey::of(&name("c"), POLICY), || Ok(circuit(2)))
            .unwrap();
        assert_eq!(cache.entries(), 2);
        let (_, hit_a) = cache
            .get_or_insert::<()>(CacheKey::of(&name("a"), POLICY), || Ok(circuit(0)))
            .unwrap();
        assert!(hit_a, "recently used entry survived eviction");
        let (_, hit_b) = cache
            .get_or_insert::<()>(CacheKey::of(&name("b"), POLICY), || Ok(circuit(1)))
            .unwrap();
        assert!(!hit_b, "LRU entry was evicted");
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = CircuitCache::new(2);
        let r = cache.get_or_insert::<&str>(CacheKey::of(&name("bad"), POLICY), || Err("nope"));
        assert_eq!(r.unwrap_err(), "nope");
        assert_eq!(cache.entries(), 0);
        // A later good build for the same key works.
        let (_, hit) = cache
            .get_or_insert::<()>(CacheKey::of(&name("bad"), POLICY), || Ok(circuit(0)))
            .unwrap();
        assert!(!hit);
    }

    fn test_cells() -> Arc<sigsim::CellModels> {
        use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};
        struct Fixed;
        impl TransferFunction for Fixed {
            fn predict(&self, q: TransferQuery) -> TransferPrediction {
                TransferPrediction {
                    a_out: -q.a_in.signum() * 14.0,
                    delay: 0.05,
                }
            }
            fn backend_name(&self) -> &'static str {
                "fixed"
            }
        }
        Arc::new(crate::registry::nor_only_cells(&GateModel::new(Arc::new(
            Fixed,
        ))))
    }

    fn compile(tag: usize, cells: &Arc<sigsim::CellModels>) -> CircuitProgram {
        CircuitProgram::compile(
            Arc::new(circuit(tag)),
            Arc::clone(cells),
            TomOptions::default(),
        )
        .expect("NOR-only circuit compiles")
    }

    #[test]
    fn program_cache_hits_share_the_compiled_program() {
        let cache = ProgramCache::new(4);
        let opts = TomOptions::default();
        let cells = test_cells();
        let key = CacheKey::for_program(
            CacheKey::of(&name("x"), POLICY),
            &cells,
            "ci",
            "nor-only",
            opts,
        );
        let (a, hit_a) = cache
            .get_or_insert::<()>(key, || Ok(compile(0, &cells)))
            .unwrap();
        let (b, hit_b) = cache
            .get_or_insert::<()>(key, || panic!("must not recompile"))
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "one compiled program is shared");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn program_keys_separate_circuit_model_set_and_options() {
        // The same circuit under a different preset, library, TOM options
        // or cell-model allocation — or a different circuit under the
        // same set — derives a different program key.
        let cache = ProgramCache::new(8);
        let opts = TomOptions::default();
        let cells = test_cells();
        let circuit_key = CacheKey::of(&name("x"), POLICY);
        let base = CacheKey::for_program(circuit_key, &cells, "ci", "nor-only", opts);
        cache
            .get_or_insert::<()>(base, || Ok(compile(0, &cells)))
            .unwrap();
        let variants = [
            CacheKey::for_program(circuit_key, &cells, "fast", "nor-only", opts),
            CacheKey::for_program(circuit_key, &cells, "ci", "native", opts),
            CacheKey::for_program(
                circuit_key,
                &cells,
                "ci",
                "nor-only",
                TomOptions {
                    cancel_subthreshold: false,
                    ..opts
                },
            ),
            CacheKey::for_program(
                CacheKey::of(&name("y"), POLICY),
                &cells,
                "ci",
                "nor-only",
                opts,
            ),
            // A re-registered model set is a fresh CellModels allocation:
            // its identity changes the key, so stale compiled programs
            // can never be served after an embedder swaps a set.
            CacheKey::for_program(circuit_key, &test_cells(), "ci", "nor-only", opts),
        ];
        for (i, key) in variants.into_iter().enumerate() {
            assert_ne!(key, base, "variant {i} must derive a distinct key");
            let (_, hit) = cache
                .get_or_insert::<()>(key, || Ok(compile(0, &cells)))
                .unwrap();
            assert!(!hit, "variant {i} must be its own program");
        }
        assert_eq!(cache.entries(), 6);
        assert_eq!(cache.misses(), 6);
    }
}
