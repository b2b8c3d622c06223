//! The end-to-end training pipeline: characterize → train ANNs → build
//! valid regions → assemble runtime models, with JSON caching of the
//! trained artifacts (the paper's "trained ANNs stored with the prototype"
//! flow).
//!
//! The artifact is a [`CellLibrary`]: a named collection of per-[`GateTag`]
//! [`StoredModel`]s, trained from a [`LibrarySpec`] by
//! [`train_cell_library`]. The paper's prototype set (inverter and NOR at
//! fan-out 1/2) is [`LibrarySpec::nor_only`]; [`LibrarySpec::native`]
//! adds the cells that simulate native (un-NOR-mapped) netlists. The
//! [`CellLibrary::cell_models`] runtime form drives the simulator. See
//! `docs/cell-libraries.md` for the characterize → train → serialize →
//! select workflow.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sigchar::{characterize, CharError, CharacterizationConfig, Dataset, GateTag};
use sigtom::{AnnTrainConfig, AnnTransfer, GateModel, TrainTransferError, ValidRegion};

use crate::simulator::CellModels;

/// Configuration of the full pipeline.
///
/// # Example
///
/// ```no_run
/// use sigsim::{train_cell_library, LibrarySpec, PipelineConfig};
/// // CI scale (~seconds); `PipelineConfig::default()` is the real sweep.
/// let config = PipelineConfig::ci().with_parallelism(0);
/// let library = train_cell_library(&LibrarySpec::native(), &config)?;
/// assert_eq!(library.tags().len(), 10);
/// # Ok::<(), sigsim::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Characterization campaign settings (sweep, chains, engine).
    pub characterization: CharacterizationConfig,
    /// ANN training settings.
    pub training: AnnTrainConfig,
    /// Valid-region margin; `None` disables region containment (ablation).
    pub region_margin: Option<f64>,
    /// Worker threads for the four gate variants (`0` = auto-detect, `1` =
    /// sequential). Nested stages (sweep, per-network training) have their
    /// own knobs; [`PipelineConfig::with_parallelism`] sets all three.
    pub parallelism: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            characterization: CharacterizationConfig {
                sweep: sigchar::PulseSweep {
                    min: 5e-12,
                    max: 20e-12,
                    step: 2.5e-12, // 7 values -> 343 runs per gate variant
                    t0: 60e-12,
                },
                chain_targets: 4,
                ..CharacterizationConfig::default()
            },
            training: AnnTrainConfig::default(),
            region_margin: Some(4.0),
            parallelism: sigwave::parallel::available_parallelism(),
        }
    }
}

impl PipelineConfig {
    /// A fast, CI-scale pipeline (coarser sweep, shorter training).
    #[must_use]
    pub fn fast() -> Self {
        Self {
            characterization: CharacterizationConfig {
                sweep: sigchar::PulseSweep {
                    min: 6e-12,
                    max: 20e-12,
                    step: 7e-12, // 3 values -> 27 runs per gate variant
                    t0: 60e-12,
                },
                chain_targets: 3,
                ..CharacterizationConfig::default()
            },
            training: AnnTrainConfig {
                epochs: 400,
                patience: 60,
                ..AnnTrainConfig::default()
            },
            region_margin: Some(4.0),
            parallelism: sigwave::parallel::available_parallelism(),
        }
    }

    /// A minimal smoke-test pipeline (coarsest sweep, very short
    /// training): trains in about a second, giving CI jobs and service
    /// tests real (if rough) models with deterministic weights. Accuracy
    /// is NOT representative — use [`PipelineConfig::fast`] or the default
    /// for anything quantitative.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            characterization: CharacterizationConfig {
                sweep: sigchar::PulseSweep {
                    min: 10e-12,
                    max: 20e-12,
                    step: 5e-12, // 3 values -> 27 runs per gate variant
                    t0: 60e-12,
                },
                chain_targets: 3,
                ..CharacterizationConfig::default()
            },
            training: AnnTrainConfig {
                epochs: 250,
                patience: 0,
                ..AnnTrainConfig::default()
            },
            region_margin: Some(4.0),
            parallelism: sigwave::parallel::available_parallelism(),
        }
    }

    /// Sets every parallelism knob in the pipeline — the variant fan-out
    /// plus the nested characterization-sweep and per-network-training
    /// pools (`0` = auto-detect, `1` = fully sequential).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self.characterization.parallelism = parallelism;
        self.training.parallelism = parallelism;
        self
    }
}

/// Error from the training pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Characterization failed.
    Characterization(CharError),
    /// Training failed.
    Training(TrainTransferError),
    /// Cache I/O failed.
    Io(std::io::Error),
    /// Cache (de)serialization failed.
    Serde(serde_json::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Characterization(e) => write!(f, "characterization failed: {e}"),
            Self::Training(e) => write!(f, "training failed: {e}"),
            Self::Io(e) => write!(f, "model cache I/O failed: {e}"),
            Self::Serde(e) => write!(f, "model cache corrupt: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Characterization(e) => Some(e),
            Self::Training(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::Serde(e) => Some(e),
        }
    }
}

impl From<CharError> for PipelineError {
    fn from(e: CharError) -> Self {
        Self::Characterization(e)
    }
}

impl From<TrainTransferError> for PipelineError {
    fn from(e: TrainTransferError) -> Self {
        Self::Training(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<serde_json::Error> for PipelineError {
    fn from(e: serde_json::Error) -> Self {
        Self::Serde(e)
    }
}

/// One trained cell variant in serializable form: the four transfer ANNs
/// plus (optionally) the valid region built from its characterization
/// dataset.
///
/// The ANN and region are held behind `Arc` so the runtime model
/// assembly ([`CellLibrary::cell_models`]) shares the trained weights
/// instead of deep-cloning them — the `sigserve` model registry hands the
/// same allocations to every request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredModel {
    ann: Arc<AnnTransfer>,
    region: Option<Arc<ValidRegion>>,
}

impl StoredModel {
    /// The runtime [`GateModel`]: shared ANN weights, region attached when
    /// one was built.
    #[must_use]
    pub fn to_gate_model(&self) -> GateModel {
        let mut m = GateModel::new(Arc::clone(&self.ann) as _);
        if let Some(r) = &self.region {
            m = m.with_region(Arc::clone(r));
        }
        m
    }
}

fn train_one(
    tag: GateTag,
    config: &PipelineConfig,
) -> Result<(StoredModel, Dataset), PipelineError> {
    let outcome = characterize(tag, &config.characterization)?;
    let ann = Arc::new(AnnTransfer::train(&outcome.dataset, &config.training)?);
    let region = config.region_margin.map(|margin| {
        let pts: Vec<[f64; 3]> = outcome
            .dataset
            .rising
            .iter()
            .chain(&outcome.dataset.falling)
            .map(|s| s.features())
            .collect();
        Arc::new(ValidRegion::build(&pts, margin))
    });
    Ok((StoredModel { ann, region }, outcome.dataset))
}

/// Which cells a [`CellLibrary`] contains: a name (the registry/wire key)
/// plus the [`GateTag`]s to characterize and train.
///
/// # Example
///
/// ```
/// use sigsim::LibrarySpec;
/// let native = LibrarySpec::native();
/// assert_eq!(native.name, "native");
/// assert_eq!(native.tags.len(), 10);
/// assert!(LibrarySpec::nor_only().tags.len() == 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibrarySpec {
    /// Library name (`nor-only`, `native`, or a custom key).
    pub name: String,
    /// The cell variants to train, in training order.
    pub tags: Vec<GateTag>,
}

impl LibrarySpec {
    /// The paper's prototype set: inverter and NOR2 at fan-out 1/2, in
    /// this slot order (Sec. V-A).
    #[must_use]
    pub fn nor_only() -> Self {
        Self {
            name: "nor-only".to_string(),
            tags: vec![
                GateTag::Inverter,
                GateTag::InverterFo2,
                GateTag::NorFo1,
                GateTag::NorFo2,
            ],
        }
    }

    /// The full native library: every characterizable cell (INV, NOR2,
    /// NAND2, AND2, OR2 at fan-out 1/2) — enough to simulate
    /// [`sigcircuit::MappingPolicy::Native`] circuits directly.
    #[must_use]
    pub fn native() -> Self {
        Self {
            name: "native".to_string(),
            tags: GateTag::ALL.to_vec(),
        }
    }

    /// The spec whose library implements a mapping policy.
    #[must_use]
    pub fn for_policy(policy: sigcircuit::MappingPolicy) -> Self {
        match policy {
            sigcircuit::MappingPolicy::NorOnly => Self::nor_only(),
            sigcircuit::MappingPolicy::Native => Self::native(),
        }
    }
}

/// One named library entry: a cell variant and its trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LibraryEntry {
    tag: GateTag,
    model: StoredModel,
}

/// A named, serializable collection of trained cell models.
///
/// Invariants: entry tags are unique (training dedups them), and
/// [`CellLibrary::cell_models`] binds every entry so a circuit gate
/// resolves to at most one slot. The JSON form round-trips exactly
/// (`serde_json::to_string` → `from_str` → `to_string` is a fixed point),
/// which is what makes the on-disk caches and the serde round-trip test
/// meaningful.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    entries: Vec<LibraryEntry>,
    /// The characterization datasets by cell variant (kept for
    /// valid-region ablations and benchmarks).
    pub datasets: HashMap<String, Dataset>,
}

impl CellLibrary {
    /// The library name (registry/wire key).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trained cell variants, in training order.
    #[must_use]
    pub fn tags(&self) -> Vec<GateTag> {
        self.entries.iter().map(|e| e.tag).collect()
    }

    /// The runtime model of one cell variant, if trained.
    #[must_use]
    pub fn model(&self, tag: GateTag) -> Option<GateModel> {
        self.entries
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.model.to_gate_model())
    }

    /// The dataset of one cell variant.
    #[must_use]
    pub fn dataset(&self, tag: GateTag) -> Option<&Dataset> {
        self.datasets.get(&tag.to_string())
    }

    /// Assembles the runtime [`CellModels`]: one slot per entry, in
    /// training order, bound to every gate signature the cell serves (see
    /// [`CellModels::from_cells`]). Model weights are shared (`Arc`), not
    /// cloned.
    #[must_use]
    pub fn cell_models(&self) -> CellModels {
        CellModels::from_cells(
            self.name.clone(),
            self.entries
                .iter()
                .map(|e| (e.tag, e.model.to_gate_model())),
        )
    }
}

/// Trains a [`CellLibrary`]: one characterization campaign + ANN training
/// per cell variant in `spec`, fanned out across the worker pool (results
/// are bit-identical at any parallelism setting). Duplicate tags in the
/// spec are trained once.
///
/// # Errors
///
/// Returns [`PipelineError`] on characterization or training failure.
pub fn train_cell_library(
    spec: &LibrarySpec,
    config: &PipelineConfig,
) -> Result<CellLibrary, PipelineError> {
    let mut tags: Vec<GateTag> = Vec::new();
    for &t in &spec.tags {
        if !tags.contains(&t) {
            tags.push(t);
        }
    }
    // The cell variants are independent end-to-end (characterization
    // chain, dataset, networks), so fan them out across the worker pool.
    // The nested stages (sweep, per-network training) have their own
    // pools; divide the budget instead of multiplying it, so e.g. a
    // 16-core default runs 4 variant workers × 4 sweep workers rather
    // than 4 × 16 oversubscribed threads. Results are unaffected —
    // parallelism never changes outputs.
    use sigwave::parallel::resolve_parallelism;
    let outer = resolve_parallelism(config.parallelism).clamp(1, tags.len().max(1));
    let mut inner = config.clone();
    inner.characterization.parallelism =
        (resolve_parallelism(config.characterization.parallelism) / outer).max(1);
    inner.training.parallelism = (resolve_parallelism(config.training.parallelism) / outer).max(1);
    let trained = sigwave::parallel::try_par_map(config.parallelism, &tags, |_, &tag| {
        train_one(tag, &inner)
    })?;
    let mut entries = Vec::with_capacity(tags.len());
    let mut datasets = HashMap::new();
    for (tag, (model, dataset)) in tags.iter().zip(trained) {
        entries.push(LibraryEntry { tag: *tag, model });
        datasets.insert(tag.to_string(), dataset);
    }
    Ok(CellLibrary {
        name: spec.name.clone(),
        entries,
        datasets,
    })
}

/// The on-disk cache path of a preset's `library`: `<stem>.<library>.json`
/// beside the preset's model-cache path. Every loader of trained
/// libraries (the service registry, which `sigctl golden` also loads
/// through, and the experiment bins) derives the path through this one
/// helper and loads it with [`train_cell_library_cached`], so the daemon
/// and the direct golden path can never load different files — the CI
/// byte-parity smoke contract depends on that.
///
/// # Example
///
/// ```
/// use sigsim::library_cache_path;
/// use std::path::Path;
/// assert_eq!(
///     library_cache_path(Path::new("target/sigmodels/ci.json"), "native"),
///     Path::new("target/sigmodels/ci.native.json")
/// );
/// assert_eq!(
///     library_cache_path(Path::new("models/custom.bin"), "nor-only"),
///     Path::new("models/custom.nor-only.json")
/// );
/// ```
#[must_use]
pub fn library_cache_path(preset: &Path, library: &str) -> std::path::PathBuf {
    let stem = preset.file_stem().map_or_else(
        || "models".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    preset.with_file_name(format!("{stem}.{library}.json"))
}

/// Like [`train_cell_library`] but cached: loads the JSON artifact at
/// `path` if it parses *and* carries every cell the spec asks for,
/// otherwise trains and rewrites it (so extending a spec invalidates a
/// stale cache instead of silently serving a smaller library).
///
/// # Errors
///
/// Returns [`PipelineError`] on pipeline or I/O failure. A corrupt cache
/// is retrained, not an error.
pub fn train_cell_library_cached(
    path: &Path,
    spec: &LibrarySpec,
    config: &PipelineConfig,
) -> Result<CellLibrary, PipelineError> {
    if path.exists() {
        let text = std::fs::read_to_string(path)?;
        if let Ok(library) = serde_json::from_str::<CellLibrary>(&text) {
            let tags = library.tags();
            if library.name == spec.name && spec.tags.iter().all(|t| tags.contains(t)) {
                return Ok(library);
            }
        }
        // fall through: retrain over a corrupt/outdated cache
    }
    let library = train_cell_library(spec, config)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, serde_json::to_string(&library)?)?;
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigchar::PulseSweep;

    fn tiny() -> PipelineConfig {
        PipelineConfig {
            characterization: CharacterizationConfig {
                sweep: PulseSweep {
                    min: 12e-12,
                    max: 18e-12,
                    step: 6e-12,
                    t0: 60e-12,
                },
                chain_targets: 2,
                ..CharacterizationConfig::default()
            },
            training: AnnTrainConfig {
                epochs: 60,
                patience: 0,
                ..AnnTrainConfig::default()
            },
            region_margin: Some(4.0),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_trains_all_variants() {
        let lib = train_cell_library(&LibrarySpec::nor_only(), &tiny()).unwrap();
        // Sanity: a moderate rising input long after the previous output
        // must produce a falling output with positive delay.
        let q = sigtom::TransferQuery {
            t: 2.0,
            a_in: 15.0,
            a_prev_out: 15.0,
        };
        for tag in [GateTag::Inverter, GateTag::NorFo1, GateTag::NorFo2] {
            let p = lib.model(tag).unwrap().transfer().predict(q);
            assert!(p.delay > 0.0 && p.delay < 0.5, "{tag}: delay {p:?}");
            assert!(p.a_out < 0.0, "{tag}: inverting polarity {p:?}");
        }
        assert_eq!(lib.datasets.len(), 4);
        assert!(lib.dataset(GateTag::NorFo1).is_some());
    }

    #[test]
    fn serde_round_trip_preserves_models() {
        let lib = train_cell_library(&LibrarySpec::nor_only(), &tiny()).unwrap();
        let json = serde_json::to_string(&lib).unwrap();
        let back: CellLibrary = serde_json::from_str(&json).unwrap();
        // The reloaded library must be byte-identical when re-serialized
        // and must predict identically.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        assert_eq!(back.datasets.len(), lib.datasets.len());
        let q = sigtom::TransferQuery {
            t: 0.8,
            a_in: -11.0,
            a_prev_out: 9.0,
        };
        assert_eq!(
            lib.model(GateTag::Inverter).unwrap().transfer().predict(q),
            back.model(GateTag::Inverter).unwrap().transfer().predict(q)
        );
    }

    #[test]
    fn corrupt_cache_is_retrained_not_fatal() {
        let dir = std::env::temp_dir().join("sigsim_test_corrupt_cache");
        let path = dir.join("models.json");
        std::fs::create_dir_all(&dir).unwrap();
        for corrupt in ["", "{not json", "{\"inverter\": 3}"] {
            std::fs::write(&path, corrupt).unwrap();
            let lib = train_cell_library_cached(&path, &LibrarySpec::nor_only(), &tiny())
                .expect("retrain over corrupt cache");
            assert_eq!(lib.datasets.len(), 4);
            // The cache must have been replaced by a loadable artifact.
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(serde_json::from_str::<CellLibrary>(&text).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join("sigsim_test_nested_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a").join("b").join("models.json");
        let lib = train_cell_library_cached(&path, &LibrarySpec::nor_only(), &tiny())
            .expect("train into missing dirs");
        assert!(path.exists());
        assert_eq!(lib.datasets.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_spec() -> LibrarySpec {
        LibrarySpec {
            name: "tiny-native".to_string(),
            tags: vec![GateTag::NandFo1, GateTag::AndFo1],
        }
    }

    #[test]
    fn cell_library_trains_and_respects_polarity() {
        let lib = train_cell_library(&tiny_spec(), &tiny()).unwrap();
        assert_eq!(lib.name(), "tiny-native");
        assert_eq!(lib.tags(), vec![GateTag::NandFo1, GateTag::AndFo1]);
        let q = sigtom::TransferQuery {
            t: 2.0,
            a_in: 15.0,
            a_prev_out: 15.0,
        };
        let nand = lib.model(GateTag::NandFo1).unwrap().transfer().predict(q);
        assert!(nand.a_out < 0.0, "NAND inverts: {nand:?}");
        let and = lib
            .model(GateTag::AndFo1)
            .unwrap()
            .transfer()
            .predict(sigtom::TransferQuery {
                a_prev_out: -15.0,
                ..q
            });
        assert!(and.a_out > 0.0, "AND buffers: {and:?}");
        assert!(lib.model(GateTag::OrFo2).is_none(), "untrained tag");
        assert!(lib.dataset(GateTag::NandFo1).is_some());
    }

    #[test]
    fn cell_library_serde_round_trip() {
        let lib = train_cell_library(&tiny_spec(), &tiny()).unwrap();
        let json = serde_json::to_string(&lib).unwrap();
        let back: CellLibrary = serde_json::from_str(&json).unwrap();
        // Byte-identical re-serialization and identical predictions.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        assert_eq!(back.name(), lib.name());
        assert_eq!(back.tags(), lib.tags());
        let q = sigtom::TransferQuery {
            t: 0.9,
            a_in: -12.0,
            a_prev_out: 10.0,
        };
        assert_eq!(
            lib.model(GateTag::NandFo1).unwrap().transfer().predict(q),
            back.model(GateTag::NandFo1).unwrap().transfer().predict(q)
        );
    }

    #[test]
    fn cell_library_cache_invalidates_on_spec_growth() {
        let dir = std::env::temp_dir().join("sigsim_test_library_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("lib.json");
        let small = LibrarySpec {
            name: "grow".to_string(),
            tags: vec![GateTag::NandFo1],
        };
        let a = train_cell_library_cached(&path, &small, &tiny()).unwrap();
        assert_eq!(a.tags(), vec![GateTag::NandFo1]);
        // Same spec: served from cache (identical artifact bytes).
        let b = train_cell_library_cached(&path, &small, &tiny()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // Grown spec: the stale cache must be retrained, not served.
        let grown = LibrarySpec {
            name: "grow".to_string(),
            tags: vec![GateTag::NandFo1, GateTag::OrFo1],
        };
        let c = train_cell_library_cached(&path, &grown, &tiny()).unwrap();
        assert!(c.tags().contains(&GateTag::OrFo1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join("sigsim_test_models");
        let path = dir.join("models.json");
        let _ = std::fs::remove_file(&path);
        let spec = LibrarySpec::nor_only();
        let a = train_cell_library_cached(&path, &spec, &tiny()).unwrap();
        assert!(path.exists());
        let b = train_cell_library_cached(&path, &spec, &tiny()).unwrap();
        // The second load must come from cache and be identical.
        let q = sigtom::TransferQuery {
            t: 1.0,
            a_in: 10.0,
            a_prev_out: -12.0,
        };
        assert_eq!(
            a.model(GateTag::NorFo1).unwrap().transfer().predict(q),
            b.model(GateTag::NorFo1).unwrap().transfer().predict(q)
        );
        let _ = std::fs::remove_file(&path);
    }
}
