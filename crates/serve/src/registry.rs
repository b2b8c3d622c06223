//! The model registry: named [`sigsim::CellLibrary`] sets loaded **once** and
//! shared as `Arc` across every request and worker thread.
//!
//! Before this layer existed, every entry point re-ran
//! [`train_cell_library_cached`] (and a [`DelayTable`] extraction) per
//! invocation. The registry makes those artifacts resident: the first
//! request for a name pays the load (disk cache hit or full training),
//! every later request clones an `Arc`. The load counter backs the
//! service-level guarantee — and the integration test's assertion — that
//! models are loaded exactly once per name per daemon lifetime.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nanospice::EngineConfig;
use sigchar::{AnalogOptions, DelayTable};
use sigcircuit::MappingPolicy;
use sigsim::{
    library_cache_path, train_cell_library_cached, CellModels, LibrarySpec, PipelineConfig,
    PipelineError,
};
use sigtom::TomOptions;

/// One resident model bundle: everything a request needs that is
/// expensive to build and safe to share.
#[derive(Debug)]
pub struct ModelSet {
    /// Preset name this set was loaded under (`ci`, `default`, …).
    pub name: String,
    /// Cell-library name (`nor-only`, `native`, or a custom key for
    /// inserted sets). Together with `name` this forms the registry key.
    pub library: String,
    /// The mapping policy requests against this set apply to circuits
    /// before simulation (NOR expansion vs native cells).
    pub policy: MappingPolicy,
    /// The runtime cell models (shared weight allocations) that drive
    /// the simulator.
    pub cells: Arc<CellModels>,
    /// The per-fan-out delay table the digital baseline of compare-mode
    /// requests uses (see [`DelaySource`]).
    pub delays: DelaySource,
    /// TOM prediction options paired with the models.
    pub options: TomOptions,
}

impl ModelSet {
    /// The registry key of this set (`name/library`).
    #[must_use]
    pub fn key(&self) -> String {
        registry_key(&self.name, &self.library)
    }
}

/// The composite registry key of a `(preset, library)` pair.
fn registry_key(name: &str, library: &str) -> String {
    format!("{name}/{library}")
}

/// Where a model set's [`DelayTable`] comes from. Extraction runs the
/// analog chain characterization (tens of milliseconds per cell class),
/// which only compare-mode requests need — so registry loads declare it
/// on-demand ([`DelaySource::for_policy`]) and sigmoid-only traffic
/// never pays for it; the first compare-mode request measures once and
/// the result is shared from then on. Native-library sets measure every
/// native cell class, so compare-mode NAND2/AND2/OR2 instances use their
/// own chain delays instead of the historical NOR approximation.
#[derive(Debug, Default)]
pub struct DelaySource {
    /// The cell classes an on-demand measurement covers; empty means the
    /// set cannot measure (compare mode unavailable unless fixed).
    classes: Vec<sigchar::ChainGate>,
    cell: Mutex<Option<Arc<DelayTable>>>,
}

impl DelaySource {
    /// No table and no way to measure one: compare mode is unavailable
    /// (synthetic test/bench sets).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Measure the cell classes of a mapping policy lazily on first use,
    /// then stay resident: the NOR/inverter classes for `nor-only`,
    /// every native cell class for `native`. The registry gives every
    /// set it loads this source, and `sigctl golden` loads through the
    /// registry, so both measure identical tables and the CI byte-parity
    /// smoke keeps holding.
    #[must_use]
    pub fn for_policy(policy: MappingPolicy) -> Self {
        let classes = match policy {
            MappingPolicy::NorOnly => sigchar::LEGACY_DELAY_CELLS.to_vec(),
            MappingPolicy::Native => sigchar::NATIVE_DELAY_CELLS.to_vec(),
        };
        Self {
            classes,
            cell: Mutex::new(None),
        }
    }

    /// A pre-built table.
    #[must_use]
    pub fn fixed(table: Arc<DelayTable>) -> Self {
        Self {
            classes: Vec::new(),
            cell: Mutex::new(Some(table)),
        }
    }

    /// The table, measuring it first if this source is on-demand and it
    /// has not been measured yet (racing first uses measure once — the
    /// cell lock is held across the measurement). `Ok(None)` means this
    /// set cannot serve compare-mode requests.
    ///
    /// # Errors
    ///
    /// Propagates the measurement failure; a later call retries.
    pub fn get(&self) -> Result<Option<Arc<DelayTable>>, sigchar::CharError> {
        let mut cell = self.cell.lock().expect("delay source poisoned");
        if let Some(table) = &*cell {
            return Ok(Some(Arc::clone(table)));
        }
        if self.classes.is_empty() {
            return Ok(None);
        }
        let table = Arc::new(DelayTable::measure_cells(
            &self.classes,
            1..=6,
            &[1.0],
            &AnalogOptions::default(),
            &EngineConfig::default(),
        )?);
        *cell = Some(Arc::clone(&table));
        Ok(Some(table))
    }
}

/// Error resolving a model set.
#[derive(Debug)]
pub enum RegistryError {
    /// The name matches no preset and no registered set.
    UnknownName(String),
    /// The training/loading pipeline failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownName(n) => write!(f, "unknown model set {n:?}"),
            Self::Pipeline(e) => write!(f, "model pipeline failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The named pipeline presets the registry can load on demand. `ci` is
/// the smoke-test scale ([`PipelineConfig::ci`]); `paper` the
/// full-granularity sweep.
pub const PRESETS: [&str; 4] = ["default", "fast", "ci", "paper"];

/// The cell libraries each preset can be loaded for: `nor-only` is the
/// paper's four-variant prototype set, `native` the full multi-cell
/// library (see `docs/cell-libraries.md`). Each is cached beside the
/// preset's file as `<stem>.<library>.json` ([`library_cache_path`]).
pub const LIBRARIES: [&str; 2] = ["nor-only", "native"];

/// The pipeline config and on-disk cache file name of a preset, or
/// `None` for unknown names. A library's artifact lives beside that file
/// at [`library_cache_path`].
fn preset_config(name: &str) -> Option<(PipelineConfig, &'static str)> {
    match name {
        "default" => Some((PipelineConfig::default(), "default.json")),
        "fast" => Some((PipelineConfig::fast(), "quickstart.json")),
        "ci" => Some((PipelineConfig::ci(), "ci.json")),
        "paper" => Some((
            PipelineConfig {
                characterization: sigchar::CharacterizationConfig::paper(),
                ..PipelineConfig::default()
            },
            "paper.json",
        )),
        _ => None,
    }
}

/// Per-name registry slot: the slot mutex serializes loading of *one*
/// name, so racing first requests train exactly once, while lookups —
/// resident or loading — of other names proceed untouched.
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<Option<Arc<ModelSet>>>,
}

/// The registry. The outer map lock is held only for slot lookup
/// (microseconds); a first load (training + delay extraction, possibly
/// minutes for `paper`) holds only its own name's slot lock, so traffic
/// against already-resident sets never stalls behind it.
#[derive(Debug)]
pub struct ModelRegistry {
    /// Directory holding the on-disk model caches of the presets.
    base_dir: PathBuf,
    entries: Mutex<HashMap<String, Arc<Slot>>>,
    loads: AtomicU64,
    requests: AtomicU64,
}

impl ModelRegistry {
    /// A registry whose preset caches live under `base_dir`.
    #[must_use]
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        Self {
            base_dir: base_dir.into(),
            entries: Mutex::new(HashMap::new()),
            loads: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    fn slot(&self, key: &str) -> Arc<Slot> {
        let mut entries = self.entries.lock().expect("registry poisoned");
        Arc::clone(entries.entry(key.to_string()).or_default())
    }

    /// Registers a pre-built set under its `(name, library)` key (tests
    /// and benches use this to serve synthetic models without training).
    /// Counts as one load.
    pub fn insert(&self, set: ModelSet) {
        let slot = self.slot(&set.key());
        *slot.state.lock().expect("registry slot poisoned") = Some(Arc::new(set));
        self.loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a `(preset, library)` pair: a resident set is cloned; a
    /// known preset × known library is loaded (disk cache or training),
    /// inserted and returned (its delay table is measured lazily on first
    /// compare-mode use). Every library loads the same way: the
    /// [`sigsim::CellLibrary`] of its [`LibrarySpec`], cached at
    /// [`library_cache_path`] beside the preset's file. `sigctl golden`
    /// loads through this method too, so the daemon and the golden
    /// reference always read the same artifact.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] on unknown names/libraries or pipeline
    /// failure.
    pub fn get_or_load(&self, name: &str, library: &str) -> Result<Arc<ModelSet>, RegistryError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = registry_key(name, library);
        let slot = self.slot(&key);
        let mut state = slot.state.lock().expect("registry slot poisoned");
        if let Some(set) = &*state {
            return Ok(Arc::clone(set));
        }
        let (config, cache_file) =
            preset_config(name).ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        let policy = MappingPolicy::from_name(library)
            .ok_or_else(|| RegistryError::UnknownName(key.clone()))?;
        let spec = LibrarySpec::for_policy(policy);
        // Load while holding this key's slot lock: a racing request for
        // the same pair waits here, then takes the resident branch above —
        // never a second training run.
        let path = library_cache_path(&self.base_dir.join(cache_file), &spec.name);
        let cells = train_cell_library_cached(&path, &spec, &config)
            .map_err(RegistryError::Pipeline)?
            .cell_models();
        let set = Arc::new(ModelSet {
            name: name.to_string(),
            library: spec.name,
            policy,
            cells: Arc::new(cells),
            delays: DelaySource::for_policy(policy),
            options: TomOptions::default(),
        });
        *state = Some(Arc::clone(&set));
        self.loads.fetch_add(1, Ordering::Relaxed);
        Ok(set)
    }

    /// Number of sets actually loaded (trained or read from disk), not
    /// served resident.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Number of lookups, resident or not.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The heap bytes of the snap-search line memos of every resident
    /// set (see [`sigsim::CellModels::snap_memo_bytes`]).
    #[must_use]
    pub fn snap_memo_bytes(&self) -> u64 {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .values()
            .filter_map(|slot| {
                let state = slot.state.lock().expect("registry slot poisoned");
                state.as_ref().map(|set| set.cells.snap_memo_bytes() as u64)
            })
            .sum()
    }

    /// The `preset/library` keys of currently resident sets, sorted —
    /// the `model_sets` field of a stats reply.
    #[must_use]
    pub fn resident_keys(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut keys: Vec<String> = entries
            .iter()
            .filter(|(_, slot)| slot.state.lock().expect("registry slot poisoned").is_some())
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    }
}

/// A synthetic sigmoid-only model set (fixed transfer function, no delay
/// table) for fast unit tests across the crate. Registered under the
/// `nor-only` library so requests without a `library` field resolve it.
#[cfg(test)]
pub(crate) fn synthetic_set(name: &str) -> ModelSet {
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

    ModelSet {
        name: name.to_string(),
        library: "nor-only".to_string(),
        policy: MappingPolicy::NorOnly,
        cells: Arc::new(nor_only_cells(&GateModel::new(Arc::new(Fixed)))),
        delays: DelaySource::none(),
        options: TomOptions::default(),
    }
}

/// [`synthetic_set`]'s models behind a fault switch: every prediction
/// panics while `armed` is set (tests of jobs that unwind).
#[cfg(test)]
pub(crate) fn faulty_set(name: &str, armed: Arc<std::sync::atomic::AtomicBool>) -> ModelSet {
    use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};

    struct Faulty(Arc<std::sync::atomic::AtomicBool>);
    impl TransferFunction for Faulty {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            assert!(
                !self.0.load(std::sync::atomic::Ordering::SeqCst),
                "injected transfer-function fault"
            );
            TransferPrediction {
                a_out: -q.a_in.signum() * 14.0,
                delay: 0.05,
            }
        }
        fn backend_name(&self) -> &'static str {
            "faulty"
        }
    }

    ModelSet {
        cells: Arc::new(nor_only_cells(&GateModel::new(Arc::new(Faulty(armed))))),
        ..synthetic_set(name)
    }
}

/// One model in all four slots of the `nor-only` library (tests).
#[cfg(test)]
pub(crate) fn nor_only_cells(model: &sigtom::GateModel) -> CellModels {
    CellModels::from_cells(
        "nor-only",
        LibrarySpec::nor_only()
            .tags
            .into_iter()
            .map(|tag| (tag, model.clone())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cargo runs package tests with the package directory as cwd; use
    /// the workspace target dir so model caches are shared with the
    /// repo-level tests and never litter `crates/serve/target/`.
    pub(crate) const TEST_MODELS_DIR: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/sigmodels");

    #[test]
    fn unknown_names_and_libraries_are_errors() {
        let r = ModelRegistry::new(TEST_MODELS_DIR);
        assert!(matches!(
            r.get_or_load("nonsense", "nor-only"),
            Err(RegistryError::UnknownName(_))
        ));
        assert!(matches!(
            r.get_or_load("ci", "imaginary-library"),
            Err(RegistryError::UnknownName(_))
        ));
        // Failed resolves still count as requests, not loads.
        assert_eq!(r.requests(), 2);
        assert_eq!(r.loads(), 0);
        assert!(r.resident_keys().is_empty());
    }

    #[test]
    fn inserted_sets_resolve_without_loading() {
        let r = ModelRegistry::new(TEST_MODELS_DIR);
        r.insert(synthetic_set("synth"));
        let a = r.get_or_load("synth", "nor-only").unwrap();
        let b = r.get_or_load("synth", "nor-only").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "resident set must be shared");
        assert!(Arc::ptr_eq(&a.cells, &b.cells));
        assert_eq!(r.loads(), 1, "insert counts as the single load");
        assert_eq!(r.requests(), 2);
        assert_eq!(r.resident_keys(), vec!["synth/nor-only".to_string()]);
    }

    #[test]
    fn concurrent_first_requests_load_once() {
        // Uses the ci preset backed by the shared on-disk cache; eight
        // threads race the first resolve and the pipeline must run once.
        let r = Arc::new(ModelRegistry::new(TEST_MODELS_DIR));
        let sets: Vec<Arc<ModelSet>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let r = Arc::clone(&r);
                    scope.spawn(move || r.get_or_load("ci", "nor-only").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(r.loads(), 1, "exactly one load under concurrency");
        assert_eq!(r.requests(), 8);
        for s in &sets[1..] {
            assert!(
                Arc::ptr_eq(&sets[0].cells, &s.cells),
                "all requests share one CellModels allocation"
            );
        }
        let table = sets[0].delays.get().expect("measurement succeeds");
        assert!(table.is_some(), "preset sets can serve compare mode");
    }

    #[test]
    fn libraries_of_one_preset_are_distinct_sets() {
        let r = ModelRegistry::new(TEST_MODELS_DIR);
        let nor = r.get_or_load("ci", "nor-only").unwrap();
        let native = r.get_or_load("ci", "native").unwrap();
        assert_eq!(r.loads(), 2, "each library is its own load");
        assert_eq!(nor.policy, MappingPolicy::NorOnly);
        assert_eq!(native.policy, MappingPolicy::Native);
        assert_eq!(native.cells.name(), "native");
        // The native set covers NAND2; the prototype set does not.
        use sigcircuit::GateKind;
        assert!(native.cells.slot_for(GateKind::Nand, 2, 1).is_some());
        assert!(nor.cells.slot_for(GateKind::Nand, 2, 1).is_none());
        // Native delay tables measure every native cell class, so
        // compare-mode NAND2/AND2/OR2 stop borrowing NOR-class delays.
        let table = native
            .delays
            .get()
            .expect("measurement succeeds")
            .expect("native sets serve compare mode");
        for class in sigchar::NATIVE_DELAY_CELLS {
            assert!(table.has_cell(class, 1), "missing class {class:?}");
        }
        assert_eq!(
            r.resident_keys(),
            vec!["ci/native".to_string(), "ci/nor-only".to_string()]
        );
    }
}
