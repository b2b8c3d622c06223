//! The sigmoidal circuit simulator (Sec. V-A, extended): levelized
//! evaluation of library-cell circuits with per-cell TOM gate models.
//!
//! The engine schedules the circuit level by level
//! ([`Circuit::levels`]): all gates within one ASAP level are independent,
//! so their pending transfer-function queries are grouped by
//! [`CellModels`] slot and evaluated as one [`predict_batch_with`] call per
//! (model, round), on the calling thread. [`SigmoidSimConfig`] selects
//! batched or scalar evaluation; both produce bit-identical traces (see
//! `docs/architecture.md`).
//!
//! Cell sets are [`CellModels`]: one slot per trained cell variant, bound
//! to the gate signatures it serves. The paper's prototype set (inverter
//! and NOR at fan-out 1/2) is the `nor-only` library; the native library
//! adds NAND2/AND2/OR2 (see `docs/cell-libraries.md`).
//!
//! The engine is split compile/execute: [`CircuitProgram::compile`] does
//! every circuit-dependent step once (validation, slot resolution, plan
//! templates) and [`CircuitProgram::execute`] binds stimuli against the
//! resident tables with a reusable [`FleetScratch`]. A solo execution is
//! a fleet of one: [`CircuitProgram::execute`],
//! [`CircuitProgram::execute_fleet`] and the fused [`simulate_cells_with`]
//! all run the same batched level loop.
//!
//! On top of the split sits the **event-driven incremental engine**:
//! [`CircuitProgram::open_session`] captures a full execution in a
//! resident [`IncrementalState`], and [`CircuitProgram::execute_delta`]
//! re-simulates only the cone affected by a batch of [`StimulusEdit`]s —
//! a level-ordered dirty-set walk that stops wherever a recomputed trace
//! is bit-identical to the committed one (see `docs/architecture.md`
//! § Incremental engine).
//!
//! [`predict_batch_with`]: sigtom::GateModel::predict_batch_with

use std::collections::HashMap;
use std::sync::Arc;

use sigchar::GateTag;
use sigcircuit::{Circuit, GateKind, NetId};
use sigtom::{
    apply_plan, traces_bit_identical, CellFunction, GateModel, GatePlan, PlanScratch, PlanTemplate,
    SnapScratch, TomOptions, TransferPrediction, TransferQuery,
};
use sigwave::{Level, SigmoidTrace};

/// A runtime cell-model set: the models of one cell library, bound to
/// the gate signatures they serve.
///
/// Each slot holds one [`GateModel`]; the index maps a gate's
/// `(kind, single-input?, fan-out ≥ 2?)` signature to its slot. One slot
/// may serve several signatures (the inverter cell answers both
/// `GateKind::Inv` and single-input `GateKind::Nor`). The levelized
/// engine batches queries per slot, so the slot count — not the
/// signature count — bounds the number of `predict_batch` calls per
/// round.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use sigsim::CellModels;
/// use sigcircuit::GateKind;
/// use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};
///
/// struct Fixed;
/// impl TransferFunction for Fixed {
///     fn predict(&self, q: TransferQuery) -> TransferPrediction {
///         TransferPrediction { a_out: -q.a_in.signum() * 14.0, delay: 0.05 }
///     }
///     fn backend_name(&self) -> &'static str { "fixed" }
/// }
///
/// let mut cells = CellModels::empty("demo");
/// let slot = cells.push(GateModel::new(Arc::new(Fixed)));
/// cells.bind(slot, GateKind::Nand, false, false); // NAND2 at fan-out 1
/// assert_eq!(cells.slot_for(GateKind::Nand, 2, 1), Some(slot));
/// assert_eq!(cells.slot_for(GateKind::Nand, 2, 3), None); // FO2 unbound
/// ```
#[derive(Debug, Clone)]
pub struct CellModels {
    name: String,
    models: Vec<GateModel>,
    index: HashMap<(GateKind, bool, bool), usize>,
}

impl CellModels {
    /// An empty set with no slots. Invariant: every slot referenced by
    /// [`CellModels::bind`] must come from [`CellModels::push`] on the
    /// same set.
    #[must_use]
    pub fn empty(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            models: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The library name these models came from (`nor-only`, `native`, or
    /// a custom name) — reported by services so results are
    /// self-describing.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a model slot and returns its index.
    pub fn push(&mut self, model: GateModel) -> usize {
        self.models.push(model);
        self.models.len() - 1
    }

    /// Routes gates with the `(kind, single_input, fo2)` signature to a
    /// slot. Binding the same signature twice keeps the latest slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not returned by [`CellModels::push`].
    pub fn bind(&mut self, slot: usize, kind: GateKind, single_input: bool, fo2: bool) {
        assert!(slot < self.models.len(), "slot {slot} was never pushed");
        self.index.insert((kind, single_input, fo2), slot);
    }

    /// Number of model slots (the engine's batching width).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.models.len()
    }

    /// The model in a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slots()`.
    #[must_use]
    pub fn by_slot(&self, slot: usize) -> &GateModel {
        &self.models[slot]
    }

    /// The slot a gate of this kind/arity/fan-out resolves to, or `None`
    /// when the set has no model for it (the gate is unsimulable with
    /// these models). Arity legality is checked here too: NOR accepts
    /// 1–3 inputs, NAND/AND/OR exactly 2, INV/BUF exactly 1; XOR/XNOR
    /// always resolve to `None` — they must be decomposed by a
    /// [`sigcircuit::MappingPolicy`] first.
    #[must_use]
    pub fn slot_for(&self, kind: GateKind, arity: usize, fanout: usize) -> Option<usize> {
        let arity_ok = match kind {
            GateKind::Nor => (1..=3).contains(&arity),
            GateKind::Inv | GateKind::Buf => arity == 1,
            GateKind::Nand | GateKind::And | GateKind::Or => arity == 2,
            GateKind::Xor | GateKind::Xnor => false,
        };
        if !arity_ok {
            return None;
        }
        self.index.get(&(kind, arity == 1, fanout >= 2)).copied()
    }

    /// The Algorithm-1 cell function of a gate kind, or `None` for kinds
    /// the plan layer cannot drive (XOR/XNOR).
    #[must_use]
    pub fn cell_function(kind: GateKind) -> Option<CellFunction> {
        match kind {
            GateKind::Inv => Some(CellFunction::Inv),
            GateKind::Buf => Some(CellFunction::Buf),
            GateKind::Nor => Some(CellFunction::Nor),
            GateKind::Or => Some(CellFunction::Or),
            GateKind::Nand => Some(CellFunction::Nand),
            GateKind::And => Some(CellFunction::And),
            GateKind::Xor | GateKind::Xnor => None,
        }
    }

    /// The set of a cell library: one slot per `(tag, model)` pair, in
    /// the given order, bound to every gate signature the cell serves.
    /// Inverter cells answer both `GateKind::Inv` and single-input
    /// `GateKind::Nor` (a 1-input NOR *is* an inverter); NOR cells answer
    /// multi-input NORs (arities 2–3, like the prototype); NAND/AND/OR
    /// cells answer their two-input kinds. Fan-out-≥ 2 tags bind the
    /// fan-out-≥ 2 signatures. The slot order is the batching order, so
    /// the `nor-only` tags (Inverter, InverterFo2, NorFo1, NorFo2) give
    /// the prototype's four slots.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sigchar::GateTag;
    /// use sigcircuit::GateKind;
    /// use sigsim::CellModels;
    /// use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};
    ///
    /// struct Fixed;
    /// impl TransferFunction for Fixed {
    ///     fn predict(&self, q: TransferQuery) -> TransferPrediction {
    ///         TransferPrediction { a_out: -q.a_in.signum() * 14.0, delay: 0.05 }
    ///     }
    ///     fn backend_name(&self) -> &'static str { "fixed" }
    /// }
    ///
    /// let model = GateModel::new(Arc::new(Fixed));
    /// let cells = CellModels::from_cells(
    ///     "nor-only",
    ///     [GateTag::Inverter, GateTag::InverterFo2, GateTag::NorFo1, GateTag::NorFo2]
    ///         .map(|tag| (tag, model.clone())),
    /// );
    /// assert_eq!(cells.slots(), 4);
    /// assert_eq!(cells.slot_for(GateKind::Inv, 1, 1), Some(0));
    /// assert_eq!(cells.slot_for(GateKind::Nor, 1, 2), Some(1));
    /// assert_eq!(cells.slot_for(GateKind::Nor, 2, 1), Some(2));
    /// assert_eq!(cells.slot_for(GateKind::Nor, 3, 2), Some(3));
    /// assert_eq!(cells.slot_for(GateKind::Nand, 2, 1), None);
    /// ```
    #[must_use]
    pub fn from_cells(
        name: impl Into<String>,
        cells: impl IntoIterator<Item = (GateTag, GateModel)>,
    ) -> Self {
        let mut set = Self::empty(name);
        for (tag, model) in cells {
            let slot = set.push(model);
            let fo2 = tag.fanout() >= 2;
            match tag {
                GateTag::Inverter | GateTag::InverterFo2 => {
                    set.bind(slot, GateKind::Inv, true, fo2);
                    set.bind(slot, GateKind::Nor, true, fo2);
                }
                GateTag::NorFo1 | GateTag::NorFo2 => set.bind(slot, GateKind::Nor, false, fo2),
                GateTag::NandFo1 | GateTag::NandFo2 => set.bind(slot, GateKind::Nand, false, fo2),
                GateTag::AndFo1 | GateTag::AndFo2 => set.bind(slot, GateKind::And, false, fo2),
                GateTag::OrFo1 | GateTag::OrFo2 => set.bind(slot, GateKind::Or, false, fo2),
            }
        }
        set
    }

    /// One model cloned into a slot per native cell kind (INV, NOR,
    /// NAND, AND, OR), each bound at both fan-out classes, with the
    /// inverter slot also answering single-input NORs — a five-slot
    /// synthetic native set for tests and analytic-backend benchmarks.
    /// It binds the same signatures as [`CellModels::from_cells`] over
    /// every [`GateTag`], so a drift between the two is caught by the
    /// shared test suite instead of surfacing as a bench-only
    /// `UnsupportedGate`.
    #[must_use]
    pub fn uniform(name: impl Into<String>, model: GateModel) -> Self {
        let mut cells = Self::empty(name);
        for kind in [
            GateKind::Inv,
            GateKind::Nor,
            GateKind::Nand,
            GateKind::And,
            GateKind::Or,
        ] {
            let slot = cells.push(model.clone());
            let single = kind == GateKind::Inv;
            cells.bind(slot, kind, single, false);
            cells.bind(slot, kind, single, true);
            if single {
                cells.bind(slot, GateKind::Nor, true, false);
                cells.bind(slot, GateKind::Nor, true, true);
            }
        }
        cells
    }
}

/// Scheduling of the levelized simulator. Both settings produce
/// bit-identical traces. One execution always runs on the calling
/// thread; callers parallelize across independent executions (the
/// service runs one request per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigmoidSimConfig {
    /// `true`: group each level's pending queries by model slot and issue
    /// one [`GateModel::predict_batch_with`] per (model, round), evaluating
    /// duplicate gates once. `false`: evaluate each gate's plan with
    /// scalar predictions — the pre-levelization reference path.
    pub batch: bool,
}

impl Default for SigmoidSimConfig {
    fn default() -> Self {
        Self { batch: true }
    }
}

impl SigmoidSimConfig {
    /// The scalar reference configuration: no batching — the baseline
    /// the batched schedule must match bit-for-bit.
    #[must_use]
    pub fn scalar() -> Self {
        Self { batch: false }
    }
}

/// Error from the sigmoid circuit simulator. Unsupported gates are
/// rejected by an upfront validation pass over the whole circuit —
/// *before* any level is simulated — so a bad netlist fails with this
/// named error instead of part-way through (XOR/XNOR, which parse but
/// have no library cell, land here unless a [`sigcircuit::MappingPolicy`]
/// decomposed them first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigmoidSimError {
    /// A primary input has no stimulus trace.
    MissingStimulus {
        /// Input net name.
        net: String,
    },
    /// The circuit contains a gate the selected cell models cannot
    /// simulate (NOR-only models accept NOR with 1–3 inputs; the native
    /// library adds INV/NAND2/AND2/OR2; XOR/XNOR are never simulable
    /// directly).
    UnsupportedGate {
        /// Offending gate kind.
        kind: GateKind,
        /// Its arity.
        arity: usize,
    },
    /// A [`StimulusEdit`] targets a net that is not a primary input —
    /// only stimuli can be edited; internal nets are derived state.
    EditNotAnInput {
        /// Offending net name.
        net: String,
    },
}

impl std::fmt::Display for SigmoidSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingStimulus { net } => write!(f, "no stimulus for input {net:?}"),
            Self::UnsupportedGate { kind, arity } => {
                write!(
                    f,
                    "no cell model can simulate {kind} with {arity} inputs \
                     (map the circuit to a supported cell set first)"
                )
            }
            Self::EditNotAnInput { net } => {
                write!(f, "delta edit targets non-input net {net:?}")
            }
        }
    }
}

impl std::error::Error for SigmoidSimError {}

/// Result of a sigmoid circuit simulation: one sigmoidal trace per net.
///
/// Traces are reference-counted: primary-input slots share the caller's
/// stimulus traces instead of cloning them, and nets that no gate drives
/// (possible only in circuits bypassing [`sigcircuit::CircuitBuilder`]
/// validation, e.g. deserialized ones) share a single constant-Low filler
/// trace and are reported by [`SigmoidSimResult::undriven`].
#[derive(Debug, Clone)]
pub struct SigmoidSimResult {
    traces: Vec<Arc<SigmoidTrace>>,
    undriven: Vec<NetId>,
}

impl SigmoidSimResult {
    /// The trace on a net.
    #[must_use]
    pub fn trace(&self, net: NetId) -> &SigmoidTrace {
        &self.traces[net.0]
    }

    /// All traces, indexed by [`NetId`].
    #[must_use]
    pub fn traces(&self) -> &[Arc<SigmoidTrace>] {
        &self.traces
    }

    /// Nets that neither a stimulus nor any gate drives (ascending). Their
    /// [`SigmoidSimResult::trace`] is a fabricated constant-Low — check
    /// here before trusting it.
    #[must_use]
    pub fn undriven(&self) -> &[NetId] {
        &self.undriven
    }

    /// Whether a net's trace is fabricated (see
    /// [`SigmoidSimResult::undriven`]).
    #[must_use]
    pub fn is_undriven(&self, net: NetId) -> bool {
        self.undriven.binary_search(&net).is_ok()
    }
}

/// Simulates a library-cell circuit: input sigmoid traces propagate level
/// by level ([`Circuit::levels`]) through the TOM transfer functions.
///
/// This is the **fused** form of the compile/execute split: it compiles
/// the circuit's program tables ([`CircuitProgram`] holds the same tables
/// resident) and executes them once with a fresh [`FleetScratch`].
/// Traces are bit-identical to a compiled [`CircuitProgram::execute`] —
/// and to every `config` setting, including the sequential scalar
/// reference ([`SigmoidSimConfig::scalar`]). The crate docs show a
/// complete call.
///
/// # Errors
///
/// Returns [`SigmoidSimError`] on missing stimuli, or — from the upfront
/// validation pass, before any gate is evaluated — when a gate has no
/// slot in `cells` (wrong kind, arity, or an XOR/XNOR that was never
/// decomposed).
pub fn simulate_cells_with(
    circuit: &Circuit,
    stimuli: &HashMap<NetId, Arc<SigmoidTrace>>,
    cells: &CellModels,
    options: TomOptions,
    config: &SigmoidSimConfig,
) -> Result<SigmoidSimResult, SigmoidSimError> {
    let tables = ProgramTables::compile(circuit, cells)?;
    let mut results = execute_program(
        circuit,
        cells,
        &tables,
        options,
        std::slice::from_ref(stimuli),
        config.batch,
        &mut FleetScratch::new(),
    )?;
    Ok(results.pop().expect("one run"))
}

/// The largest input count any [`CellModels`] slot accepts (3-input NOR);
/// lets the sequential executor gather a gate's input traces on the stack
/// instead of allocating a `Vec` per gate per run.
const MAX_CELL_ARITY: usize = 3;

/// The circuit-dependent tables of a compiled program: everything the
/// executor needs that is derivable from `(circuit, cells)` alone —
/// resolved model slots, plan templates and duplicate gates per gate.
/// Compiling also *is* the upfront validation pass: a circuit with an
/// unsupported gate never produces tables.
#[derive(Debug)]
struct ProgramTables {
    /// Per gate index: the [`CellModels`] slot its queries batch into.
    slots: Vec<usize>,
    /// Per gate index: the circuit-only plan template
    /// ([`sigtom::PlanTemplate`]: cell function, arity, masking level).
    templates: Vec<PlanTemplate>,
    /// Per gate index: for a duplicate gate, the output net of the first
    /// gate in its level with the same evaluation identity; `None` for a
    /// gate the batched loop evaluates.
    ///
    /// The identity is the model slot, the cell function and the input
    /// nets in order (no commutativity assumed), each input replaced by
    /// its *canonical* net: the output of the gate a duplicate aliases,
    /// so duplicated cones collapse transitively. Gate evaluation is
    /// deterministic in (model, input traces, options), so a duplicate
    /// produces a bit-identical trace and shares its leader's `Arc`
    /// instead of being planned and predicted. NOR-mapped netlists
    /// duplicate gates across fan-out branches heavily: NOR-only c1355
    /// aliases 603 of its 2172 gates, and its batched execute evaluates
    /// the other 1569. The scalar reference evaluates every gate.
    alias_of: Vec<Option<NetId>>,
}

impl ProgramTables {
    fn compile(circuit: &Circuit, cells: &CellModels) -> Result<Self, SigmoidSimError> {
        let fanouts = circuit.fanout_counts();
        let unsupported = |gate: &sigcircuit::Gate| SigmoidSimError::UnsupportedGate {
            kind: gate.kind,
            arity: gate.inputs.len(),
        };
        let mut slots = Vec::with_capacity(circuit.gates().len());
        let mut templates = Vec::with_capacity(circuit.gates().len());
        for gate in circuit.gates() {
            let slot = cells
                .slot_for(gate.kind, gate.inputs.len(), fanouts[gate.output.0])
                .ok_or_else(|| unsupported(gate))?;
            let func = CellModels::cell_function(gate.kind).ok_or_else(|| unsupported(gate))?;
            slots.push(slot);
            templates.push(PlanTemplate::new(func, gate.inputs.len()));
        }
        // Walk the levels in the executor's order and group each level's
        // gates by evaluation identity. Sorting by (identity, gate index)
        // puts first the group's first gate in level order (a level lists
        // ascending indices), which the rest alias. Unused input lanes pad
        // with a net id no circuit has, so arity is part of the identity.
        let mut alias_of = vec![None; circuit.gates().len()];
        let mut canonical: Vec<NetId> = (0..circuit.net_count()).map(NetId).collect();
        let mut keyed = Vec::new();
        for level in circuit.levels() {
            keyed.clear();
            for &gi in level {
                let mut inputs = [NetId(usize::MAX); MAX_CELL_ARITY];
                for (lane, i) in circuit.gates()[gi].inputs.iter().enumerate() {
                    inputs[lane] = canonical[i.0];
                }
                keyed.push((slots[gi], templates[gi].function() as u8, inputs, gi));
            }
            keyed.sort_unstable();
            for group in keyed.chunk_by(|x, y| (x.0, x.1, x.2) == (y.0, y.1, y.2)) {
                let leader = circuit.gates()[group[0].3].output;
                for &(.., gi) in &group[1..] {
                    alias_of[gi] = Some(leader);
                    canonical[circuit.gates()[gi].output.0] = leader;
                }
            }
        }
        Ok(Self {
            slots,
            templates,
            alias_of,
        })
    }
}

/// The execution arena of the level loop: every scheduling buffer an
/// execution needs — the run-major per-run/per-net trace matrix, the
/// per-slot pending lists, the query/prediction batch matrices the round
/// loop ping-pongs between, and the plan-merge scratch. A solo
/// [`CircuitProgram::execute`] is a fleet of one, so one arena type
/// serves both. One instance serves any number of sequential executions
/// (of any program and any fleet width); buffers grow to the largest
/// fleet seen and stay allocated, so steady-state execution allocates
/// only the output traces themselves (plus one small per-level plan
/// list, whose elements borrow the arena and cannot outlive a level).
///
/// The arena also keeps two monotone counters the service layer reports:
/// total stimulus sets executed ([`FleetScratch::runs`]) and total query
/// rows issued through merged batches ([`FleetScratch::rows_merged`]).
#[derive(Debug, Default)]
pub struct FleetScratch {
    /// Run-major per-run/per-net resolved traces
    /// (`runs × net_count`, run `r` occupies `r*net_count ..`).
    nets: Vec<Option<Arc<SigmoidTrace>>>,
    /// Gathered queries of one (slot, round) batch — rows from *all*
    /// runs of the fleet.
    queries: Vec<TransferQuery>,
    /// The matching predictions, scattered back to the plans.
    predictions: Vec<TransferPrediction>,
    /// The in-region rows of a batch (see [`GateModel::predict_batch_with`]).
    snap: SnapScratch,
    /// Plan indices of the round being applied.
    round: Vec<usize>,
    /// Per-slot pending plan indices (indices into the fleet-wide,
    /// run-major plan list of the current level).
    pending: Vec<Vec<usize>>,
    /// Multi-input transition-merge buffers for sequential planning.
    plan: PlanScratch,
    /// Cumulative stimulus sets executed through this arena.
    runs: u64,
    /// Cumulative query rows issued through merged batches.
    rows_merged: u64,
}

impl FleetScratch {
    /// An empty arena; buffers are sized lazily by the first execution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total stimulus sets executed through this arena (a solo execution
    /// counts as one).
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total query rows issued through merged per-slot batches — the
    /// quantity that amortizes per-batch overhead; with a fleet of `K`
    /// runs each inference call sees up to `K×` the rows of a solo run.
    #[must_use]
    pub fn rows_merged(&self) -> u64 {
        self.rows_merged
    }

    /// The per-net slot capacity currently retained — the arena's
    /// dominant allocation, `runs × net_count` of the largest fleet
    /// executed. Pools use this to drop arenas grown by a one-off huge
    /// netlist instead of pinning their memory forever.
    #[must_use]
    pub fn net_capacity(&self) -> usize {
        self.nets.capacity()
    }

    /// Resets the cumulative [`FleetScratch::runs`] /
    /// [`FleetScratch::rows_merged`] counters to zero. The counters are
    /// monotone over the arena's lifetime, so a pool that hands one arena
    /// to unrelated requests must reset on acquire or per-request
    /// accounting over-reports (the buffers themselves are untouched —
    /// capacity reuse is the point of pooling).
    pub fn reset_counters(&mut self) {
        self.runs = 0;
        self.rows_merged = 0;
    }
}

/// The arena's name from before solo execution became a fleet of one;
/// kept for callers that still use it. New code names [`FleetScratch`].
pub type SimScratch = FleetScratch;

/// Engine latency histograms (nanoseconds) plus the merged inference
/// batch width per round. Span names mirror the operations: `program.*`
/// for whole calls, `execute.*` for intra-execution phases (see
/// `docs/observability.md` for the taxonomy).
static COMPILE_HIST: sigobs::Hist = sigobs::Hist::new("engine.compile");
static EXECUTE_HIST: sigobs::Hist = sigobs::Hist::new("engine.execute");
static FLEET_HIST: sigobs::Hist = sigobs::Hist::new("engine.execute_fleet");
static DELTA_HIST: sigobs::Hist = sigobs::Hist::new("engine.execute_delta");
static ROUND_ROWS: sigobs::Hist = sigobs::Hist::new("engine.round_rows");

/// A compiled circuit program: the compile-once / execute-many form of
/// the levelized engine.
///
/// [`CircuitProgram::compile`] performs all circuit-dependent work
/// exactly once — slot and cell-function resolution (including the
/// [`SigmoidSimError::UnsupportedGate`] rejection of bad netlists),
/// fan-out classification, and per-gate [`sigtom::PlanTemplate`]
/// construction. [`CircuitProgram::execute`] then binds a stimulus to the
/// resident tables; with a reused [`FleetScratch`] the steady state does no
/// per-level buffer allocation. Results are bit-identical to the fused
/// [`simulate_cells_with`] entry point at every scheduling setting
/// (property-tested on random DAGs).
///
/// The program shares its circuit and cell models (`Arc`), so a resident
/// service can cache programs and hand one instance to many concurrent
/// requests (each with its own scratch).
pub struct CircuitProgram {
    circuit: Arc<Circuit>,
    cells: Arc<CellModels>,
    options: TomOptions,
    tables: ProgramTables,
}

impl std::fmt::Debug for CircuitProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitProgram")
            .field("gates", &self.tables.slots.len())
            .field("cells", &self.cells.name())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl CircuitProgram {
    /// Compiles a circuit against a cell-model set: validates every gate
    /// (slot + cell function, with the named [`SigmoidSimError`] on
    /// unsupported kinds/arities) and precomputes the per-gate tables the
    /// executor reads. The compiled program is immutable and shareable
    /// across threads.
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::UnsupportedGate`] when a gate resolves
    /// to no slot in `cells` — the same upfront rejection the fused entry
    /// points perform per call.
    pub fn compile(
        circuit: Arc<Circuit>,
        cells: Arc<CellModels>,
        options: TomOptions,
    ) -> Result<Self, SigmoidSimError> {
        let sw = sigobs::stopwatch();
        let tables = ProgramTables::compile(&circuit, &cells)?;
        sw.observe_span(&COMPILE_HIST, "program.compile");
        Ok(Self {
            circuit,
            cells,
            options,
            tables,
        })
    }

    /// The compiled circuit.
    #[must_use]
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The cell models the program was compiled against.
    #[must_use]
    pub fn cells(&self) -> &Arc<CellModels> {
        &self.cells
    }

    /// The TOM options baked into the program (part of any cache key).
    #[must_use]
    pub fn options(&self) -> TomOptions {
        self.options
    }

    /// Executes the program with the default scheduling
    /// ([`SigmoidSimConfig::default`]). See [`CircuitProgram::execute_with`].
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::MissingStimulus`] when an input net has
    /// no stimulus trace (the only stimulus-dependent failure — gate
    /// validation already happened at compile time).
    pub fn execute(
        &self,
        stimuli: &HashMap<NetId, Arc<SigmoidTrace>>,
        scratch: &mut FleetScratch,
    ) -> Result<SigmoidSimResult, SigmoidSimError> {
        self.execute_with(stimuli, &SigmoidSimConfig::default(), scratch)
    }

    /// Executes the program against one stimulus set: the
    /// stimulus-dependent half of the engine only — template binding,
    /// transition queries and model inference — scheduled per `config`
    /// exactly like [`simulate_cells_with`], with every buffer drawn from
    /// `scratch`. A batched execution is a fleet of one: it runs the
    /// level loop of [`CircuitProgram::execute_fleet`] with `K = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::MissingStimulus`] when an input net has
    /// no stimulus trace.
    pub fn execute_with(
        &self,
        stimuli: &HashMap<NetId, Arc<SigmoidTrace>>,
        config: &SigmoidSimConfig,
        scratch: &mut FleetScratch,
    ) -> Result<SigmoidSimResult, SigmoidSimError> {
        let sw = sigobs::stopwatch();
        let mut results = execute_program(
            &self.circuit,
            &self.cells,
            &self.tables,
            self.options,
            std::slice::from_ref(stimuli),
            config.batch,
            scratch,
        )?;
        sw.observe_span(&EXECUTE_HIST, "program.execute");
        Ok(results.pop().expect("one run"))
    }

    /// Executes the program against `K` stimulus sets in lockstep with the
    /// default scheduling. See [`CircuitProgram::execute_fleet_with`].
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::MissingStimulus`] when any run's input
    /// net has no stimulus trace.
    pub fn execute_fleet(
        &self,
        stimuli: &[HashMap<NetId, Arc<SigmoidTrace>>],
        scratch: &mut FleetScratch,
    ) -> Result<Vec<SigmoidSimResult>, SigmoidSimError> {
        self.execute_fleet_with(stimuli, &SigmoidSimConfig::default(), scratch)
    }

    /// Executes the program against `K` stimulus sets **in lockstep**: per
    /// level, the plan templates of *all* runs are bound and their pending
    /// queries merged per model slot, so each inference round issues one
    /// wide batch of up to `K×` the rows of a solo execution — the
    /// fleet form that amortizes per-batch overhead across a Monte-Carlo
    /// campaign or a batched service request.
    ///
    /// Every run's result is **bit-identical** to an independent
    /// [`CircuitProgram::execute_with`] of the same stimulus set, including
    /// the scalar reference (property-tested on random DAGs): each plan's
    /// own query/prediction sequence is unchanged by the merge, and
    /// batched inference is row-independent — regrouping rows never
    /// changes a row's arithmetic.
    ///
    /// The fleet always batches, so the config selects nothing here
    /// (both settings give the same bits); it keeps the solo and fleet
    /// signatures alike. Results are returned in run order. An empty
    /// `stimuli` slice returns an empty vector.
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::MissingStimulus`] when any run's input
    /// net has no stimulus trace — unlike the independent path, the whole
    /// fleet fails upfront (no partial results).
    pub fn execute_fleet_with(
        &self,
        stimuli: &[HashMap<NetId, Arc<SigmoidTrace>>],
        _config: &SigmoidSimConfig,
        scratch: &mut FleetScratch,
    ) -> Result<Vec<SigmoidSimResult>, SigmoidSimError> {
        if stimuli.is_empty() {
            return Ok(Vec::new());
        }
        let sw = sigobs::stopwatch();
        let results = execute_program(
            &self.circuit,
            &self.cells,
            &self.tables,
            self.options,
            stimuli,
            true,
            scratch,
        )?;
        sw.observe_span(&FLEET_HIST, "program.execute_fleet");
        Ok(results)
    }

    /// Opens an incremental session: runs one full execution of `stimuli`
    /// (bit-identical to [`CircuitProgram::execute`]) and captures the
    /// committed per-net traces in a resident [`IncrementalState`] that
    /// subsequent [`CircuitProgram::execute_delta`] calls mutate in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::MissingStimulus`] when an input net has
    /// no stimulus trace (same contract as a full execution).
    pub fn open_session(
        &self,
        stimuli: &HashMap<NetId, Arc<SigmoidTrace>>,
        scratch: &mut FleetScratch,
    ) -> Result<IncrementalState, SigmoidSimError> {
        let baseline = self.execute(stimuli, scratch)?;
        let circuit = &self.circuit;
        let mut level_of = vec![0usize; circuit.gates().len()];
        for (li, level) in circuit.levels().iter().enumerate() {
            for &gi in level {
                level_of[gi] = li;
            }
        }
        let mut is_input = vec![false; circuit.net_count()];
        for &input in circuit.inputs() {
            is_input[input.0] = true;
        }
        Ok(IncrementalState {
            circuit: Arc::clone(circuit),
            committed: baseline.traces,
            undriven: baseline.undriven,
            level_of,
            is_input,
            dirty_levels: vec![Vec::new(); circuit.levels().len()],
            gate_marked: vec![false; circuit.gates().len()],
            plan: PlanScratch::default(),
            deltas: 0,
            gates_reeval: 0,
            last_reeval: 0,
        })
    }

    /// Applies a batch of stimulus edits to a session and re-simulates
    /// **only the affected cone**: the event-driven half of the engine.
    ///
    /// Dirtiness seeds from each edited input's consumer gates
    /// ([`Circuit::fanouts`]) and the scheduler walks the dirty set in
    /// ASAP-level order, re-planning and re-predicting each dirty gate
    /// with the compiled [`sigtom::PlanTemplate`] (the exact per-gate
    /// computation of the scalar executor). Propagation **stops** at any
    /// gate whose recomputed output trace is bit-identical
    /// ([`sigtom::traces_bit_identical`] — exact `f64` bits, not a
    /// tolerance) to the committed one, so the result is provably equal
    /// to a cold full [`CircuitProgram::execute`] of the final stimuli:
    /// every skipped gate's inputs are unchanged bit-for-bit, and gate
    /// evaluation is deterministic in its inputs.
    ///
    /// Edits whose trace is bit-identical to the committed stimulus are
    /// no-ops (they seed no dirtiness); an empty `changed` slice returns
    /// the committed result unchanged. The returned
    /// [`SigmoidSimResult`] shares the state's traces (`Arc` clones).
    ///
    /// # Errors
    ///
    /// Returns [`SigmoidSimError::EditNotAnInput`] when an edit targets a
    /// net that is not a primary input; the state is untouched in that
    /// case (validation happens before any commit).
    ///
    /// # Panics
    ///
    /// Panics if `state` was opened from a program compiled for a
    /// different circuit (the session pins the circuit identity).
    pub fn execute_delta(
        &self,
        state: &mut IncrementalState,
        changed: &[StimulusEdit],
    ) -> Result<SigmoidSimResult, SigmoidSimError> {
        assert!(
            Arc::ptr_eq(&self.circuit, &state.circuit),
            "IncrementalState belongs to a program compiled for a different circuit"
        );
        let circuit = &*self.circuit;
        for edit in changed {
            if !state.is_input[edit.net.0] {
                return Err(SigmoidSimError::EditNotAnInput {
                    net: circuit.net_name(edit.net).to_string(),
                });
            }
        }
        let sw = sigobs::stopwatch();
        state.deltas += 1;
        state.last_reeval = 0;
        let fanouts = circuit.fanouts();
        for edit in changed {
            if traces_bit_identical(&edit.trace, &state.committed[edit.net.0]) {
                continue;
            }
            state.committed[edit.net.0] = Arc::clone(&edit.trace);
            for &gi in &fanouts[edit.net.0] {
                state.mark_dirty(gi);
            }
        }
        for li in 0..state.dirty_levels.len() {
            let mut gates = std::mem::take(&mut state.dirty_levels[li]);
            // Dirt from several sources lands in marking order; sort so
            // the walk (and the reeval counters) are deterministic.
            gates.sort_unstable();
            for gi in gates.drain(..) {
                state.gate_marked[gi] = false;
                let gate = &circuit.gates()[gi];
                let first = &*state.committed[gate.inputs[0].0];
                let mut ins: [&SigmoidTrace; MAX_CELL_ARITY] = [first; MAX_CELL_ARITY];
                for (k, i) in gate.inputs.iter().enumerate().skip(1) {
                    ins[k] = &state.committed[i.0];
                }
                let plan = self.tables.templates[gi].bind_with(
                    &ins[..gate.inputs.len()],
                    self.options,
                    &mut state.plan,
                );
                let trace = apply_plan(plan, self.cells.by_slot(self.tables.slots[gi]));
                state.gates_reeval += 1;
                state.last_reeval += 1;
                if traces_bit_identical(&trace, &state.committed[gate.output.0]) {
                    // Converged: the output did not change a single bit,
                    // so every downstream gate would recompute exactly
                    // its committed trace — propagation stops here.
                    continue;
                }
                state.committed[gate.output.0] = Arc::new(trace);
                for &consumer in &fanouts[gate.output.0] {
                    state.mark_dirty(consumer);
                }
            }
            // Hand the (drained) buffer back so its capacity is reused.
            state.dirty_levels[li] = gates;
        }
        sw.observe_span(&DELTA_HIST, "program.execute_delta");
        Ok(state.result())
    }
}

/// One stimulus edit of an incremental session: replaces the committed
/// trace on a primary-input net (see [`CircuitProgram::execute_delta`]).
#[derive(Debug, Clone)]
pub struct StimulusEdit {
    /// The primary-input net whose stimulus changes.
    pub net: NetId,
    /// The replacement trace (shared, never cloned).
    pub trace: Arc<SigmoidTrace>,
}

/// The resident state of one incremental simulation session: the last
/// committed per-net traces (stimuli *and* gate outputs) of one
/// [`CircuitProgram`], plus the dirty-set bookkeeping and counters of the
/// event-driven scheduler.
///
/// Created by [`CircuitProgram::open_session`]; mutated in place by
/// [`CircuitProgram::execute_delta`]. The invariant maintained across any
/// edit sequence: the committed traces equal a cold full
/// [`CircuitProgram::execute`] of the committed stimuli, bit for bit.
#[derive(Debug)]
pub struct IncrementalState {
    /// The circuit this state was opened for (identity-checked by
    /// `execute_delta`).
    circuit: Arc<Circuit>,
    /// Committed per-net traces, indexed by [`NetId`]. Always fully
    /// populated (undriven nets hold the constant-Low filler).
    committed: Vec<Arc<SigmoidTrace>>,
    /// Undriven nets of the baseline execution (stimulus-independent).
    undriven: Vec<NetId>,
    /// Gate index → ASAP level index (the scheduler's priority key).
    level_of: Vec<usize>,
    /// Per-net: is it a primary input (the only editable nets)?
    is_input: Vec<bool>,
    /// Per-level dirty gate lists (the level-ordered work queue).
    dirty_levels: Vec<Vec<usize>>,
    /// Per-gate dedup flag for the dirty set.
    gate_marked: Vec<bool>,
    /// Reusable transition-merge buffers for per-gate re-planning.
    plan: PlanScratch,
    /// Completed `execute_delta` calls.
    deltas: u64,
    /// Cumulative gates re-evaluated across all deltas.
    gates_reeval: u64,
    /// Gates re-evaluated by the most recent delta.
    last_reeval: u64,
}

impl IncrementalState {
    /// The circuit this session simulates.
    #[must_use]
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The committed simulation result (`Arc`-shared with the state; the
    /// same value the last [`CircuitProgram::execute_delta`] returned).
    #[must_use]
    pub fn result(&self) -> SigmoidSimResult {
        SigmoidSimResult {
            traces: self.committed.clone(),
            undriven: self.undriven.clone(),
        }
    }

    /// Completed [`CircuitProgram::execute_delta`] calls on this session.
    #[must_use]
    pub fn deltas(&self) -> u64 {
        self.deltas
    }

    /// Cumulative gates re-evaluated across all deltas — the honest cost
    /// of the session (a full execution costs `gates().len()` per run).
    #[must_use]
    pub fn gates_reeval(&self) -> u64 {
        self.gates_reeval
    }

    /// Gates re-evaluated by the most recent delta (`0` when every edit
    /// was bit-identical to the committed stimulus).
    #[must_use]
    pub fn last_reeval(&self) -> u64 {
        self.last_reeval
    }

    /// Marks a gate dirty, deduplicating via the per-gate flag.
    fn mark_dirty(&mut self, gi: usize) {
        if !self.gate_marked[gi] {
            self.gate_marked[gi] = true;
            self.dirty_levels[self.level_of[gi]].push(gi);
        }
    }
}

/// The one executor behind [`CircuitProgram::execute_with`],
/// [`CircuitProgram::execute_fleet_with`] and the fused
/// [`simulate_cells_with`]: binds `K` stimulus sets to compiled tables
/// and returns the `K` results in run order.
///
/// `batch` selects the schedule. Batched: per level, the plan templates
/// of every run are bound (run-major, skipping the duplicate gates of
/// `ProgramTables::alias_of`); the engine then repeatedly gathers each
/// plan's next pending query, groups the queries of all runs by
/// [`CellModels`] slot, and issues one [`GateModel::predict_batch_with`]
/// per (model, round). Scalar: each gate's plan runs with one-shot
/// predictions — the reference the batched schedule must match bit for
/// bit. Everything runs on the calling thread.
fn execute_program(
    circuit: &Circuit,
    cells: &CellModels,
    tables: &ProgramTables,
    options: TomOptions,
    stimuli: &[HashMap<NetId, Arc<SigmoidTrace>>],
    batch: bool,
    scratch: &mut FleetScratch,
) -> Result<Vec<SigmoidSimResult>, SigmoidSimError> {
    let k = stimuli.len();
    let nc = circuit.net_count();
    // Reset the arena to this program's exact sizes (idempotent for
    // repeated executions of the same program; defensive against a
    // previous run that died mid-level).
    let FleetScratch {
        nets,
        queries,
        predictions,
        snap,
        round,
        pending,
        plan,
        runs,
        rows_merged,
    } = scratch;
    nets.clear();
    nets.resize(k * nc, None);
    for member in pending.iter_mut() {
        member.clear();
    }
    pending.resize_with(cells.slots(), Vec::new);
    for (r, stim) in stimuli.iter().enumerate() {
        for &input in circuit.inputs() {
            let t = stim
                .get(&input)
                .ok_or_else(|| SigmoidSimError::MissingStimulus {
                    net: circuit.net_name(input).to_string(),
                })?;
            nets[r * nc + input.0] = Some(Arc::clone(t));
        }
    }

    for level in circuit.levels() {
        if !batch {
            // Scalar mode: per-gate one-shot predictions. Gates within a
            // level are independent, so outputs publish as they finish.
            for r in 0..k {
                let base = r * nc;
                for &gi in level {
                    let gate = &circuit.gates()[gi];
                    let ins: Vec<&SigmoidTrace> = gate
                        .inputs
                        .iter()
                        .map(|i| nets[base + i.0].as_deref().expect("level order"))
                        .collect();
                    let model = cells.by_slot(tables.slots[gi]);
                    let trace = apply_plan(tables.templates[gi].bind(&ins, options), model);
                    nets[base + gate.output.0] = Some(Arc::new(trace));
                }
            }
            continue;
        }
        // Bind the level's templates for every run (run-major, so a plan
        // index identifies both the run and the gate). Plans borrow the
        // input traces out of the net matrix; outputs are published only
        // after the level's plans are consumed.
        let mut bind_span = sigobs::span("execute.bind");
        let mut plans: Vec<(usize, usize, NetId, GatePlan)> = Vec::with_capacity(k * level.len());
        // Duplicate gates (`ProgramTables::alias_of`) are not bound: they
        // share their leader's output `Arc` once the level finalizes.
        for r in 0..k {
            let base = r * nc;
            for &gi in level {
                if tables.alias_of[gi].is_some() {
                    continue;
                }
                let gate = &circuit.gates()[gi];
                let slot = tables.slots[gi];
                let template = &tables.templates[gi];
                // Compiled arities are <= MAX_CELL_ARITY (slot resolution
                // enforces it), so the gather fits a fixed stack buffer.
                let first = nets[base + gate.inputs[0].0]
                    .as_deref()
                    .expect("level order");
                let mut ins: [&SigmoidTrace; MAX_CELL_ARITY] = [first; MAX_CELL_ARITY];
                for (j, i) in gate.inputs.iter().enumerate().skip(1) {
                    ins[j] = nets[base + i.0].as_deref().expect("level order");
                }
                plans.push((
                    slot,
                    r,
                    gate.output,
                    template.bind_with(&ins[..gate.inputs.len()], options, plan),
                ));
            }
        }
        bind_span.set_arg("plans", plans.len() as u64);
        drop(bind_span);
        // Group the still-pending plans by model slot *across runs*, then
        // evaluate in rounds: one batched inference per (model, round)
        // serves the whole fleet, scattered back to the plans; exhausted
        // plans drop out of their slot's list so each is polled exactly
        // once per query. Each plan's own query sequence is untouched by
        // the interleaving, so traces match the scalar path bit for bit.
        for (pi, (slot, _, _, plan)) in plans.iter().enumerate() {
            if plan.pending() > 0 {
                pending[*slot].push(pi);
            }
        }
        loop {
            let mut progressed = false;
            for (slot, member) in pending.iter_mut().enumerate() {
                if member.is_empty() {
                    continue;
                }
                progressed = true;
                queries.clear();
                for &pi in member.iter() {
                    queries.push(plans[pi].3.next_query().expect("pending plan"));
                }
                *rows_merged += queries.len() as u64;
                ROUND_ROWS.record(queries.len() as u64);
                let mut infer_span = sigobs::span("execute.infer");
                infer_span.set_arg("rows", queries.len() as u64);
                cells
                    .by_slot(slot)
                    .predict_batch_with(queries, predictions, snap);
                drop(infer_span);
                round.clear();
                std::mem::swap(member, round);
                for (&pi, &p) in round.iter().zip(predictions.iter()) {
                    plans[pi].3.apply(p);
                    if plans[pi].3.pending() > 0 {
                        member.push(pi);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let finalize_span = sigobs::span("execute.finalize");
        let finished: Vec<(usize, NetId, SigmoidTrace)> = plans
            .into_iter()
            .map(|(_, r, output, plan)| (r, output, plan.into_trace()))
            .collect();
        for (r, output, trace) in finished {
            nets[r * nc + output.0] = Some(Arc::new(trace));
        }
        for r in 0..k {
            for &gi in level {
                if let Some(leader) = tables.alias_of[gi] {
                    let shared = nets[r * nc + leader.0].clone().expect("leader ran");
                    nets[r * nc + circuit.gates()[gi].output.0] = Some(shared);
                }
            }
        }
        drop(finalize_span);
    }

    *runs += k as u64;
    let mut results = Vec::with_capacity(k);
    let mut filler: Option<Arc<SigmoidTrace>> = None;
    for r in 0..k {
        let mut undriven = Vec::new();
        let traces = nets[r * nc..(r + 1) * nc]
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| match slot.take() {
                Some(t) => t,
                None => {
                    undriven.push(NetId(i));
                    Arc::clone(filler.get_or_insert_with(|| {
                        Arc::new(SigmoidTrace::constant(Level::Low, options.vdd))
                    }))
                }
            })
            .collect();
        results.push(SigmoidSimResult { traces, undriven });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcircuit::CircuitBuilder;
    use sigtom::{TransferFunction, TransferPrediction, ValidRegion};
    use sigwave::{Sigmoid, VDD_DEFAULT};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Fixed(f64);
    impl TransferFunction for Fixed {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            TransferPrediction {
                a_out: -q.a_in.signum() * 14.0,
                delay: self.0,
            }
        }
        fn backend_name(&self) -> &'static str {
            "fixed"
        }
    }

    /// The four-slot `nor-only` set over the given inverter, inverter
    /// FO2, NOR FO1 and NOR FO2 models.
    fn nor_only(models: [GateModel; 4]) -> CellModels {
        CellModels::from_cells(
            "nor-only",
            crate::LibrarySpec::nor_only().tags.into_iter().zip(models),
        )
    }

    fn models(inv_d: f64, fo1_d: f64, fo2_d: f64) -> CellModels {
        nor_only([inv_d, inv_d, fo1_d, fo2_d].map(|d| GateModel::new(Arc::new(Fixed(d)))))
    }

    /// The valid region of every random-DAG slot: a grid over the history
    /// and slope ranges the random stimuli and [`HistoryTransfer`]
    /// produce, with a threshold of about half a grid step, so some queries
    /// fall inside and the rest snap onto a grid point.
    fn history_region() -> Arc<ValidRegion> {
        let mut pts = Vec::new();
        for t in [0.1, 0.6, 1.2, 2.0, 3.0] {
            for a_in in [-24.0, -16.0, -8.0, 8.0, 16.0, 24.0] {
                for a_prev in [-25.0, -16.0, -8.0, 8.0, 16.0, 25.0] {
                    pts.push([t, a_in, a_prev]);
                }
            }
        }
        Arc::new(ValidRegion::build(&pts, 0.5))
    }

    /// The distinct per-slot models the random-DAG properties use, so a
    /// slot mix-up changes results, each projecting onto
    /// [`history_region`] so both snapped and in-region rows occur.
    fn history_models() -> CellModels {
        tallied_history_models(&Arc::default())
    }

    /// [`history_models`] whose transfers report to `tally`; the snap
    /// table builds are not counted.
    fn tallied_history_models(tally: &Arc<Tally>) -> CellModels {
        let region = history_region();
        let model = |inner: Arc<dyn TransferFunction + Send + Sync>| {
            GateModel::new(Arc::new(Tallied {
                inner,
                tally: Arc::clone(tally),
            }))
            .with_region(Arc::clone(&region))
        };
        let cells = nor_only([
            model(Arc::new(HistoryTransfer)),
            model(Arc::new(Fixed(0.09))),
            model(Arc::new(HistoryTransfer)),
            model(Arc::new(Fixed(0.13))),
        ]);
        tally.reset();
        cells
    }

    /// What reached a transfer: scalar calls (one per query on the scalar
    /// path) and batch rows (every query of the batched path without a
    /// region, only the in-region ones with a region).
    #[derive(Default)]
    struct Tally {
        scalar: AtomicU64,
        batched: AtomicU64,
    }

    impl Tally {
        fn reset(&self) -> (u64, u64) {
            (
                self.scalar.swap(0, Ordering::Relaxed),
                self.batched.swap(0, Ordering::Relaxed),
            )
        }
    }

    /// A transfer that counts its calls into a [`Tally`].
    struct Tallied {
        inner: Arc<dyn TransferFunction + Send + Sync>,
        tally: Arc<Tally>,
    }
    impl TransferFunction for Tallied {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            self.tally.scalar.fetch_add(1, Ordering::Relaxed);
            self.inner.predict(q)
        }
        fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
            self.tally
                .batched
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            self.inner.predict_batch(queries, out);
        }
        fn backend_name(&self) -> &'static str {
            "tallied"
        }
    }

    /// Batched simulation with default options.
    fn simulate(
        circuit: &Circuit,
        stimuli: &HashMap<NetId, Arc<SigmoidTrace>>,
        cells: &CellModels,
    ) -> Result<SigmoidSimResult, SigmoidSimError> {
        simulate_cells_with(
            circuit,
            stimuli,
            cells,
            TomOptions::default(),
            &SigmoidSimConfig::default(),
        )
    }

    fn rising_input() -> Arc<SigmoidTrace> {
        Arc::new(
            SigmoidTrace::from_transitions(
                Level::Low,
                vec![Sigmoid::rising(12.0, 1.0)],
                VDD_DEFAULT,
            )
            .unwrap(),
        )
    }

    fn constant(level: Level) -> Arc<SigmoidTrace> {
        Arc::new(SigmoidTrace::constant(level, VDD_DEFAULT))
    }

    #[test]
    fn inverter_chain_accumulates_delay() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let n1 = b.add_gate(GateKind::Nor, &[a], "n1");
        let n2 = b.add_gate(GateKind::Nor, &[n1], "n2");
        b.mark_output(n2);
        let c = b.build().unwrap();
        let mut stim = HashMap::new();
        stim.insert(a, rising_input());
        let res = simulate(&c, &stim, &models(0.05, 0.1, 0.2)).unwrap();
        let out = res.trace(n2);
        assert_eq!(out.len(), 1);
        assert!((out.transitions()[0].b - 1.10).abs() < 1e-9);
        assert!(out.transitions()[0].is_rising());
        assert_eq!(out.initial(), Level::Low);
        assert!(res.undriven().is_empty());
    }

    #[test]
    fn fanout_selects_model() {
        // One NOR2 drives two loads: it must use the FO2 model (delay 0.2).
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let z = b.add_input("z");
        let n1 = b.add_gate(GateKind::Nor, &[a, z], "n1");
        let l1 = b.add_gate(GateKind::Nor, &[n1], "l1");
        let l2 = b.add_gate(GateKind::Nor, &[n1], "l2");
        b.mark_output(l1);
        b.mark_output(l2);
        let c = b.build().unwrap();
        let mut stim = HashMap::new();
        stim.insert(a, rising_input());
        stim.insert(z, constant(Level::Low));
        let res = simulate(&c, &stim, &models(0.05, 0.1, 0.2)).unwrap();
        // n1 falls at 1.0 + 0.2 (FO2 model).
        assert!((res.trace(n1).transitions()[0].b - 1.2).abs() < 1e-9);
        // loads are single-input NORs -> inverter model, +0.05.
        assert!((res.trace(l1).transitions()[0].b - 1.25).abs() < 1e-9);
    }

    #[test]
    fn unsupported_gate_rejected() {
        // The nor-only set has no NAND cell.
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let z = b.add_input("z");
        let n1 = b.add_gate(GateKind::Nand, &[a, z], "n1");
        b.mark_output(n1);
        let c = b.build().unwrap();
        let mut stim = HashMap::new();
        stim.insert(a, rising_input());
        stim.insert(z, constant(Level::High));
        let err = simulate(&c, &stim, &models(0.1, 0.1, 0.1)).unwrap_err();
        assert_eq!(
            err,
            SigmoidSimError::UnsupportedGate {
                kind: GateKind::Nand,
                arity: 2
            }
        );
    }

    #[test]
    fn missing_stimulus_rejected() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let n1 = b.add_gate(GateKind::Nor, &[a], "n1");
        b.mark_output(n1);
        let c = b.build().unwrap();
        let err = simulate(&c, &HashMap::new(), &models(0.1, 0.1, 0.1)).unwrap_err();
        assert!(matches!(err, SigmoidSimError::MissingStimulus { .. }));
    }

    #[test]
    fn c17_nor_mapped_simulates() {
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let c = &bench.nor_mapped;
        let mut stim = HashMap::new();
        for (i, &input) in c.inputs().iter().enumerate() {
            let t = if i == 2 {
                rising_input()
            } else {
                constant(Level::Low)
            };
            stim.insert(input, t);
        }
        let res = simulate(c, &stim, &models(0.05, 0.08, 0.12)).unwrap();
        // Final levels must match the boolean evaluation.
        let mut bits = vec![false; 5];
        bits[2] = true;
        let expect = c.eval(&bits);
        for (o, e) in c.outputs().iter().zip(expect) {
            assert_eq!(
                res.trace(*o).final_level().is_high(),
                e,
                "output {} disagrees with boolean evaluation",
                c.net_name(*o)
            );
        }
    }

    #[test]
    fn input_traces_are_shared_not_cloned() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let n1 = b.add_gate(GateKind::Nor, &[a], "n1");
        b.mark_output(n1);
        let c = b.build().unwrap();
        let stimulus = rising_input();
        let mut stim = HashMap::new();
        stim.insert(a, Arc::clone(&stimulus));
        let res = simulate(&c, &stim, &models(0.05, 0.1, 0.2)).unwrap();
        // The result's input slot is the same allocation as the stimulus.
        assert!(Arc::ptr_eq(&res.traces()[a.0], &stimulus));
    }

    #[test]
    fn all_configs_bit_identical_on_c17() {
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let c = &bench.nor_mapped;
        let mut stim = HashMap::new();
        for (i, &input) in c.inputs().iter().enumerate() {
            let t = if i % 2 == 0 {
                Arc::new(
                    SigmoidTrace::from_transitions(
                        Level::Low,
                        vec![
                            Sigmoid::rising(12.0, 1.0 + 0.3 * i as f64),
                            Sigmoid::falling(9.0, 2.0 + 0.4 * i as f64),
                            Sigmoid::rising(15.0, 4.0 + 0.2 * i as f64),
                        ],
                        VDD_DEFAULT,
                    )
                    .unwrap(),
                )
            } else {
                constant(Level::Low)
            };
            stim.insert(input, t);
        }
        let m = models(0.05, 0.08, 0.12);
        let opts = TomOptions::default();
        let reference =
            simulate_cells_with(c, &stim, &m, opts, &SigmoidSimConfig::scalar()).unwrap();
        for config in [SigmoidSimConfig::scalar(), SigmoidSimConfig::default()] {
            let got = simulate_cells_with(c, &stim, &m, opts, &config).unwrap();
            for net in 0..c.net_count() {
                assert_eq!(
                    got.trace(NetId(net)),
                    reference.trace(NetId(net)),
                    "net {net} differs under {config:?}"
                );
            }
        }
    }

    /// A transfer with history (`T`) and slope dependence so interleaving
    /// bugs would actually change the numbers. Rising inputs are slower
    /// than falling ones (the paper trains separate `F↑`/`F↓` networks),
    /// so a prediction taken for the wrong polarity changes the trace too.
    struct HistoryTransfer;
    impl TransferFunction for HistoryTransfer {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            let degradation = 1.0 - (-q.t / 0.25).exp();
            let rising = if q.a_in > 0.0 { 0.02 } else { 0.0 };
            TransferPrediction {
                a_out: -q.a_in.signum() * (10.0 + 0.2 * q.a_prev_out.abs()) * degradation.max(0.04),
                delay: 0.05 + rising + 0.01 * (-q.t / 0.4).exp() + 0.3 / q.a_in.abs().max(1.0),
            }
        }
        fn backend_name(&self) -> &'static str {
            "history"
        }
    }

    /// One case of `batched_matches_scalar_on_random_dags`. Returns the
    /// queries the case issued and how many of them were in-region.
    fn batched_matches_scalar_case(seed: u64) -> (u64, u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Random NOR-only DAG: 1–4 primary inputs, up to 14 gates of
        // arity 1–3 reading any earlier net (so fan-outs of 0, 1 and
        // ≥ 2 all occur and exercise every model slot).
        let mut b = CircuitBuilder::new();
        let n_inputs = rng.gen_range(1..5usize);
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| b.add_input(&format!("i{i}")))
            .collect();
        let n_gates = rng.gen_range(1..15usize);
        for g in 0..n_gates {
            let arity = rng.gen_range(1..4usize);
            let mut ins: Vec<NetId> = Vec::new();
            for _ in 0..arity {
                let pick = nets[rng.gen_range(0..nets.len())];
                if !ins.contains(&pick) {
                    ins.push(pick);
                }
            }
            let out = b.add_gate(GateKind::Nor, &ins, &format!("g{g}"));
            nets.push(out);
        }
        b.mark_output(*nets.last().expect("at least one net"));
        let c = b.build().expect("random DAG is valid");

        // Random stimuli: 0–5 alternating transitions per input with
        // random slopes, spacings and initial levels.
        let mut stim = HashMap::new();
        for &input in c.inputs() {
            let initial = if rng.gen::<bool>() {
                Level::High
            } else {
                Level::Low
            };
            let mut rising = !initial.is_high();
            let mut t = 0.0;
            let mut transitions = Vec::new();
            for _ in 0..rng.gen_range(0..6usize) {
                t += rng.gen_range(0.03..1.5f64);
                let a = rng.gen_range(5.0..25.0f64);
                transitions.push(if rising {
                    Sigmoid::rising(a, t)
                } else {
                    Sigmoid::falling(a, t)
                });
                rising = !rising;
            }
            let trace = SigmoidTrace::from_transitions(initial, transitions, VDD_DEFAULT).unwrap();
            stim.insert(input, Arc::new(trace));
        }

        let tally = Arc::new(Tally::default());
        let m = tallied_history_models(&tally);
        let opts = TomOptions::default();
        let reference =
            simulate_cells_with(&c, &stim, &m, opts, &SigmoidSimConfig::scalar()).unwrap();
        let (queries, _) = tally.reset();
        let mut in_region = 0;
        for config in [SigmoidSimConfig::scalar(), SigmoidSimConfig::default()] {
            let got = simulate_cells_with(&c, &stim, &m, opts, &config).unwrap();
            in_region = tally.reset().1;
            for net in 0..c.net_count() {
                assert_eq!(
                    got.trace(NetId(net)),
                    reference.trace(NetId(net)),
                    "net {net} differs under {config:?} (seed {seed})"
                );
            }
        }
        (queries, in_region)
    }

    proptest::proptest! {
        #[test]
        fn batched_matches_scalar_on_random_dags(seed in 0u64..u64::MAX) {
            batched_matches_scalar_case(seed);
        }
    }

    /// Buffering synthetic transfer (what trained AND/OR cells produce).
    struct Buffering(f64);
    impl TransferFunction for Buffering {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            TransferPrediction {
                a_out: q.a_in.signum() * 14.0,
                delay: self.0,
            }
        }
        fn backend_name(&self) -> &'static str {
            "buffering"
        }
    }

    /// A synthetic native cell set: inverting models for INV/NOR/NAND,
    /// buffering models for AND/OR, distinct per-cell delays so slot
    /// mix-ups change results.
    fn native_cells() -> CellModels {
        let mut cells = CellModels::empty("native");
        let invert = |cells: &mut CellModels, kind, delay| {
            let slot = cells.push(GateModel::new(Arc::new(Fixed(delay))));
            cells.bind(slot, kind, kind == GateKind::Inv, false);
            cells.bind(slot, kind, kind == GateKind::Inv, true);
        };
        invert(&mut cells, GateKind::Inv, 0.05);
        invert(&mut cells, GateKind::Nor, 0.08);
        invert(&mut cells, GateKind::Nand, 0.09);
        // The inverter cell also serves single-input NORs.
        let inv_slot = cells.slot_for(GateKind::Inv, 1, 1).unwrap();
        cells.bind(inv_slot, GateKind::Nor, true, false);
        cells.bind(inv_slot, GateKind::Nor, true, true);
        let buffer = |cells: &mut CellModels, kind, delay| {
            let slot = cells.push(GateModel::new(Arc::new(Buffering(delay))));
            cells.bind(slot, kind, false, false);
            cells.bind(slot, kind, false, true);
        };
        buffer(&mut cells, GateKind::And, 0.11);
        buffer(&mut cells, GateKind::Or, 0.12);
        cells
    }

    fn random_trace(rng: &mut rand::rngs::StdRng) -> Arc<SigmoidTrace> {
        use rand::Rng;
        let initial = if rng.gen::<bool>() {
            Level::High
        } else {
            Level::Low
        };
        let mut rising = !initial.is_high();
        let mut t = 0.0;
        let mut transitions = Vec::new();
        for _ in 0..rng.gen_range(0..5usize) {
            t += rng.gen_range(0.05..1.2f64);
            let a = rng.gen_range(6.0..22.0f64);
            transitions.push(if rising {
                Sigmoid::rising(a, t)
            } else {
                Sigmoid::falling(a, t)
            });
            rising = !rising;
        }
        Arc::new(SigmoidTrace::from_transitions(initial, transitions, VDD_DEFAULT).unwrap())
    }

    fn random_native_stimuli(circuit: &Circuit, seed: u64) -> HashMap<NetId, Arc<SigmoidTrace>> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        circuit
            .inputs()
            .iter()
            .map(|&input| (input, random_trace(&mut rng)))
            .collect()
    }

    #[test]
    fn xor_xnor_rejected_by_named_error_before_simulation() {
        // XOR/XNOR parse fine but no cell set simulates them: both the
        // NOR-only and the native models must reject them with the named
        // UnsupportedGate error from the upfront validation pass — never
        // a panic, and never after part of the circuit already simulated.
        for kind in [GateKind::Xor, GateKind::Xnor] {
            let mut b = CircuitBuilder::new();
            let a = b.add_input("a");
            let z = b.add_input("z");
            let y = b.add_gate(kind, &[a, z], "y");
            b.mark_output(y);
            let c = b.build().unwrap();
            let mut stim = HashMap::new();
            stim.insert(a, rising_input());
            stim.insert(z, constant(Level::Low));
            let nor = simulate(&c, &stim, &models(0.1, 0.1, 0.1)).unwrap_err();
            assert_eq!(nor, SigmoidSimError::UnsupportedGate { kind, arity: 2 });
            let native = simulate_cells_with(
                &c,
                &stim,
                &native_cells(),
                TomOptions::default(),
                &SigmoidSimConfig::default(),
            )
            .unwrap_err();
            assert_eq!(native, SigmoidSimError::UnsupportedGate { kind, arity: 2 });
        }
    }

    #[test]
    fn native_c17_matches_boolean_eval_and_nor_parity() {
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        assert_eq!(bench.native.gates().len(), 6, "c17 stays 6 native NAND2s");
        let cells = native_cells();
        let mut bits = vec![false; 5];
        bits[2] = true;
        let mut stim = HashMap::new();
        for (i, &input) in bench.native.inputs().iter().enumerate() {
            let t = if i == 2 {
                rising_input()
            } else {
                constant(Level::Low)
            };
            stim.insert(input, t);
        }
        let res = simulate_cells_with(
            &bench.native,
            &stim,
            &cells,
            TomOptions::default(),
            &SigmoidSimConfig::default(),
        )
        .unwrap();
        let expect = bench.native.eval(&bits);
        for (o, e) in bench.native.outputs().iter().zip(&expect) {
            assert_eq!(
                res.trace(*o).final_level().is_high(),
                *e,
                "native output {} disagrees with boolean evaluation",
                bench.native.net_name(*o)
            );
        }
        // Policy parity: the NOR-mapped form under the same stimuli (by
        // input position) settles to the same output levels.
        let mut nor_stim = HashMap::new();
        for (i, &input) in bench.nor_mapped.inputs().iter().enumerate() {
            let t = if i == 2 {
                rising_input()
            } else {
                constant(Level::Low)
            };
            nor_stim.insert(input, t);
        }
        let nor_res = simulate(&bench.nor_mapped, &nor_stim, &models(0.05, 0.08, 0.12)).unwrap();
        for (no, o) in bench
            .nor_mapped
            .outputs()
            .iter()
            .zip(bench.native.outputs())
        {
            assert_eq!(
                nor_res.trace(*no).final_level(),
                res.trace(*o).final_level(),
                "policies disagree on a settled output level"
            );
        }
    }

    #[test]
    fn native_c1355_bit_reproducible_across_runs_and_configs() {
        // The acceptance headline: native-library c1355 end-to-end, batched
        // twice against the scalar reference — every trace bit-identical.
        let bench = sigcircuit::Benchmark::by_name("c1355").unwrap();
        let c = &bench.native;
        let cells = native_cells();
        let stim = random_native_stimuli(c, 20250728);
        let opts = TomOptions::default();
        let reference =
            simulate_cells_with(c, &stim, &cells, opts, &SigmoidSimConfig::scalar()).unwrap();
        for config in [
            SigmoidSimConfig::default(),
            SigmoidSimConfig::default(), // a second identical run
        ] {
            let got = simulate_cells_with(c, &stim, &cells, opts, &config).unwrap();
            for net in 0..c.net_count() {
                assert_eq!(
                    got.trace(NetId(net)),
                    reference.trace(NetId(net)),
                    "net {net} differs under {config:?}"
                );
            }
        }
        // Digital parity with the boolean evaluation on settled levels.
        let bits: Vec<bool> = c
            .inputs()
            .iter()
            .map(|&i| {
                let t = &stim[&i];
                t.final_level().is_high()
            })
            .collect();
        let expect = c.eval(&bits);
        for (o, e) in c.outputs().iter().zip(&expect) {
            assert_eq!(reference.trace(*o).final_level().is_high(), *e);
        }
    }

    /// Builds a random multi-kind DAG out of native-simulable cells
    /// (INV, NOR1–3, NAND2, AND2, OR2) reading any earlier net.
    fn random_native_dag(seed: u64) -> Circuit {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CircuitBuilder::new();
        let n_inputs = rng.gen_range(1..5usize);
        let mut nets: Vec<NetId> = (0..n_inputs)
            .map(|i| b.add_input(&format!("i{i}")))
            .collect();
        let n_gates = rng.gen_range(1..15usize);
        for g in 0..n_gates {
            let kind = match rng.gen_range(0..5u32) {
                0 => GateKind::Inv,
                1 => GateKind::Nor,
                2 => GateKind::Nand,
                3 => GateKind::And,
                _ => GateKind::Or,
            };
            let arity = match kind {
                GateKind::Inv => 1,
                GateKind::Nor => rng.gen_range(1..4usize),
                _ => 2,
            };
            let mut ins: Vec<NetId> = Vec::new();
            while ins.len() < arity {
                let pick = nets[rng.gen_range(0..nets.len())];
                if !ins.contains(&pick) {
                    ins.push(pick);
                } else if nets.len() <= ins.len() {
                    break; // not enough distinct nets for this arity
                }
            }
            if ins.len() < arity.min(2) || ins.is_empty() {
                continue;
            }
            let out = b.add_gate(kind, &ins, &format!("g{g}"));
            nets.push(out);
        }
        if nets.len() == n_inputs {
            // Every roll skipped (tiny net pool vs 2-input kinds): make
            // the DAG non-trivial so the output is gate-driven.
            nets.push(b.add_gate(GateKind::Inv, &[nets[0]], "g_fallback"));
        }
        b.mark_output(*nets.last().expect("at least one net"));
        b.build().expect("random DAG is valid")
    }

    proptest::proptest! {
        /// The acceptance-criterion parity property: on random DAGs under
        /// BOTH mapping policies, a compiled program executed at every
        /// scheduling setting — through one reused scratch arena — and
        /// the fused entry point are bit-identical to the fused scalar
        /// reference.
        #[test]
        fn program_execute_matches_fused_path_on_random_dags(seed in 0u64..u64::MAX) {
            let native = random_native_dag(seed);
            let nor = sigcircuit::map_with_policy(
                &native,
                sigcircuit::MappingPolicy::NorOnly,
                sigcircuit::NorMappingOptions::default(),
            );
            let nor_cells = history_models();
            let opts = TomOptions::default();
            let mut scratch = FleetScratch::new();
            for (circuit, cells) in [(&native, native_cells()), (&nor, nor_cells)] {
                let stim = random_native_stimuli(circuit, seed ^ 0x5eed);
                let program = CircuitProgram::compile(
                    Arc::new(circuit.clone()),
                    Arc::new(cells.clone()),
                    opts,
                )
                .expect("simulable DAG compiles");
                let reference =
                    simulate_cells_with(circuit, &stim, &cells, opts, &SigmoidSimConfig::scalar())
                        .unwrap();
                for config in [SigmoidSimConfig::scalar(), SigmoidSimConfig::default()] {
                    let fused =
                        simulate_cells_with(circuit, &stim, &cells, opts, &config).unwrap();
                    let executed = program.execute_with(&stim, &config, &mut scratch).unwrap();
                    for net in 0..circuit.net_count() {
                        for got in [&executed, &fused] {
                            proptest::prop_assert_eq!(
                                got.trace(NetId(net)),
                                reference.trace(NetId(net)),
                                "net {} differs under {:?} (seed {}, cells {})",
                                net,
                                config,
                                seed,
                                cells.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// One case of `fleet_matches_independent_runs_on_random_dags`.
    /// Returns the queries the NOR-mapped fleet issued and how many of
    /// them were in-region.
    fn fleet_matches_independent_runs_case(seed: u64) -> (u64, u64) {
        let native = random_native_dag(seed);
        let nor = sigcircuit::map_with_policy(
            &native,
            sigcircuit::MappingPolicy::NorOnly,
            sigcircuit::NorMappingOptions::default(),
        );
        let tally = Arc::new(Tally::default());
        let nor_cells = tallied_history_models(&tally);
        let opts = TomOptions::default();
        let mut solo = FleetScratch::new();
        let mut fleet = FleetScratch::new();
        for (circuit, cells) in [(&native, native_cells()), (&nor, nor_cells)] {
            let program = CircuitProgram::compile(Arc::new(circuit.clone()), Arc::new(cells), opts)
                .expect("simulable DAG compiles");
            let sets: Vec<HashMap<NetId, Arc<SigmoidTrace>>> = (0..4)
                .map(|r| random_native_stimuli(circuit, seed ^ (r as u64) << 17))
                .collect();
            let results = program
                .execute_fleet_with(&sets, &SigmoidSimConfig::default(), &mut fleet)
                .unwrap();
            assert_eq!(results.len(), sets.len());
            for (r, (stim, got)) in sets.iter().zip(&results).enumerate() {
                let independent = program
                    .execute_with(stim, &SigmoidSimConfig::scalar(), &mut solo)
                    .unwrap();
                assert_eq!(
                    &got.undriven, &independent.undriven,
                    "run {r} undriven set differs (seed {seed})"
                );
                for net in 0..circuit.net_count() {
                    assert!(
                        traces_bit_identical(got.trace(NetId(net)), independent.trace(NetId(net)),),
                        "run {r} net {net} differs from independent execution \
                         (seed {seed}, cells {})",
                        program.cells().name()
                    );
                }
            }
        }
        tally.reset()
    }

    proptest::proptest! {
        /// The fleet parity property: on random DAGs under BOTH mapping
        /// policies, one `execute_fleet` of K independently-seeded
        /// stimulus sets is bit-identical, run for run and net for net,
        /// to K independent scalar-reference executions — the merged
        /// per-slot batches never change a row's arithmetic. (A batched
        /// `execute_with` runs this same loop with K = 1, so the scalar
        /// path is the independent oracle.)
        #[test]
        fn fleet_matches_independent_runs_on_random_dags(seed in 0u64..u64::MAX) {
            fleet_matches_independent_runs_case(seed);
        }
    }

    #[test]
    fn random_dag_properties_see_snapped_and_in_region_rows() {
        // The two parity properties above reach both kinds of row: rows
        // answered from the snap table and rows sent to the transfer.
        for (name, case) in [
            (
                "batched_matches_scalar",
                batched_matches_scalar_case as fn(u64) -> (u64, u64),
            ),
            (
                "fleet_matches_independent_runs",
                fleet_matches_independent_runs_case,
            ),
        ] {
            let (queries, in_region) = (0..32u64)
                .map(case)
                .fold((0, 0), |acc, (q, i)| (acc.0 + q, acc.1 + i));
            assert!(in_region > 0, "{name}: no in-region rows in {queries}");
            assert!(in_region < queries, "{name}: no snapped rows in {queries}");
        }
    }

    #[test]
    fn fleet_scratch_reuse_is_bit_identical_and_counts() {
        // Run the same fleet twice through one arena: the second pass
        // reuses every grown buffer and must reproduce each trace bit for
        // bit; the arena counters advance by the fleet width each time.
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let program = CircuitProgram::compile(
            Arc::new(bench.native.clone()),
            Arc::new(native_cells()),
            TomOptions::default(),
        )
        .unwrap();
        let sets: Vec<HashMap<NetId, Arc<SigmoidTrace>>> = (0..3)
            .map(|r| random_native_stimuli(&bench.native, 7000 + r))
            .collect();
        let mut scratch = FleetScratch::new();
        assert_eq!(scratch.runs(), 0);
        assert_eq!(scratch.rows_merged(), 0);
        let first = program.execute_fleet(&sets, &mut scratch).unwrap();
        assert_eq!(scratch.runs(), 3);
        let rows_first = scratch.rows_merged();
        assert!(rows_first > 0, "merged batches must issue rows");
        let second = program.execute_fleet(&sets, &mut scratch).unwrap();
        assert_eq!(scratch.runs(), 6);
        assert_eq!(
            scratch.rows_merged(),
            2 * rows_first,
            "identical fleets issue identical row counts"
        );
        assert!(scratch.net_capacity() >= 3 * bench.native.net_count());
        for (a, b) in first.iter().zip(&second) {
            for net in 0..bench.native.net_count() {
                assert!(
                    traces_bit_identical(a.trace(NetId(net)), b.trace(NetId(net))),
                    "net {net} differs between arena reuses"
                );
            }
        }
        // An empty fleet is a no-op that returns no results.
        let empty = program.execute_fleet(&[], &mut scratch).unwrap();
        assert!(empty.is_empty());
        assert_eq!(scratch.runs(), 6);
    }

    #[test]
    fn compiled_c1355_aliases_its_duplicate_gates() {
        // The batched loop of the served NOR-only c1355 evaluates 1569
        // gates and aliases the other 603. A weaker dedup would add
        // inference rows without changing a bit, so the count is pinned.
        let bench = sigcircuit::Benchmark::by_name("c1355").unwrap();
        let tables = ProgramTables::compile(&bench.nor_mapped, &models(0.05, 0.05, 0.05)).unwrap();
        let aliased = tables.alias_of.iter().flatten().count();
        assert_eq!(bench.nor_mapped.gates().len(), 2172);
        assert_eq!(aliased, 603);
        // Every leader is an evaluated gate of the same level.
        for level in bench.nor_mapped.levels() {
            for &gi in level {
                if let Some(leader) = tables.alias_of[gi] {
                    let lead = level
                        .iter()
                        .find(|&&g| bench.nor_mapped.gates()[g].output == leader)
                        .expect("leader in the same level");
                    assert!(tables.alias_of[*lead].is_none());
                    assert_eq!(tables.slots[*lead], tables.slots[gi]);
                }
            }
        }
    }

    #[test]
    fn solo_execute_infers_as_many_rows_as_a_fleet_of_one_on_c1355() {
        // Duplicate-gate elimination covers every level of a solo
        // execute, wide ones included: on NOR-mapped c1355 (62 levels,
        // each with >= 8 gates) it infers exactly the rows of a fleet of
        // one.
        let bench = sigcircuit::Benchmark::by_name("c1355").unwrap();
        let tally = Arc::new(Tally::default());
        let counting = GateModel::new(Arc::new(Tallied {
            inner: Arc::new(HistoryTransfer),
            tally: Arc::clone(&tally),
        }));
        let program = CircuitProgram::compile(
            Arc::new(bench.nor_mapped.clone()),
            Arc::new(nor_only([(); 4].map(|()| counting.clone()))),
            TomOptions::default(),
        )
        .unwrap();
        let stim = random_native_stimuli(&bench.nor_mapped, 20251017);
        program
            .execute_with(
                &stim,
                &SigmoidSimConfig::default(),
                &mut FleetScratch::new(),
            )
            .unwrap();
        let (_, solo) = tally.reset();
        let mut fleet = FleetScratch::new();
        program
            .execute_fleet(std::slice::from_ref(&stim), &mut fleet)
            .unwrap();
        assert_eq!(tally.reset().1, fleet.rows_merged());
        assert!(solo > 0);
        assert_eq!(solo, fleet.rows_merged(), "solo vs fleet-of-one rows");
    }

    #[test]
    fn fleet_missing_stimulus_fails_whole_fleet() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let n1 = b.add_gate(GateKind::Nor, &[a], "n1");
        b.mark_output(n1);
        let c = b.build().unwrap();
        let cells = models(0.05, 0.1, 0.2);
        let program =
            CircuitProgram::compile(Arc::new(c), Arc::new(cells), TomOptions::default()).unwrap();
        let mut good = HashMap::new();
        good.insert(a, rising_input());
        let sets = vec![good, HashMap::new()];
        let err = program
            .execute_fleet(&sets, &mut FleetScratch::new())
            .unwrap_err();
        assert!(matches!(err, SigmoidSimError::MissingStimulus { .. }));
    }

    #[test]
    fn delta_matches_cold_execute_and_stops_at_converged_gates() {
        // NOR(a, z) with z held High masks a: an edit on a re-evaluates
        // the NOR once, finds a bit-identical constant-Low output, and
        // stops — the downstream inverter is never touched.
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let z = b.add_input("z");
        let n1 = b.add_gate(GateKind::Nor, &[a, z], "n1");
        let n2 = b.add_gate(GateKind::Nor, &[n1], "n2");
        b.mark_output(n2);
        let c = b.build().unwrap();
        let cells = models(0.05, 0.1, 0.2);
        let program =
            CircuitProgram::compile(Arc::new(c), Arc::new(cells), TomOptions::default()).unwrap();
        let mut stim = HashMap::new();
        stim.insert(a, constant(Level::Low));
        stim.insert(z, constant(Level::High));
        let mut scratch = FleetScratch::new();
        let mut state = program.open_session(&stim, &mut scratch).unwrap();
        assert_eq!(state.deltas(), 0);
        assert_eq!(state.gates_reeval(), 0);

        let edit = StimulusEdit {
            net: a,
            trace: rising_input(),
        };
        stim.insert(a, Arc::clone(&edit.trace));
        let res = program.execute_delta(&mut state, &[edit]).unwrap();
        assert_eq!(state.deltas(), 1);
        assert_eq!(state.last_reeval(), 1, "only the masked NOR re-evaluates");
        let cold = program
            .execute_with(&stim, &SigmoidSimConfig::scalar(), &mut scratch)
            .unwrap();
        for net in 0..program.circuit().net_count() {
            assert!(
                traces_bit_identical(res.trace(NetId(net)), cold.trace(NetId(net))),
                "net {net} differs from cold execution"
            );
        }
        // The edited input trace is shared into the state, not cloned.
        assert!(Arc::ptr_eq(&res.traces()[a.0], &stim[&a]));

        // A bit-identical edit (same content, fresh allocation) is a
        // no-op: no gate re-evaluates, the result is unchanged.
        let res2 = program
            .execute_delta(
                &mut state,
                &[StimulusEdit {
                    net: a,
                    trace: rising_input(),
                }],
            )
            .unwrap();
        assert_eq!(state.deltas(), 2);
        assert_eq!(state.last_reeval(), 0);
        assert_eq!(state.gates_reeval(), 1);
        for net in 0..program.circuit().net_count() {
            assert!(traces_bit_identical(
                res2.trace(NetId(net)),
                res.trace(NetId(net))
            ));
        }
        // An empty edit batch is likewise a committed-state read.
        let res3 = program.execute_delta(&mut state, &[]).unwrap();
        assert_eq!(state.last_reeval(), 0);
        assert!(traces_bit_identical(res3.trace(n2), res.trace(n2)));
    }

    #[test]
    fn delta_rejects_edits_on_internal_nets() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let n1 = b.add_gate(GateKind::Nor, &[a], "n1");
        b.mark_output(n1);
        let c = b.build().unwrap();
        let cells = models(0.05, 0.1, 0.2);
        let program =
            CircuitProgram::compile(Arc::new(c), Arc::new(cells), TomOptions::default()).unwrap();
        let mut stim = HashMap::new();
        stim.insert(a, constant(Level::Low));
        let mut scratch = FleetScratch::new();
        let mut state = program.open_session(&stim, &mut scratch).unwrap();
        let err = program
            .execute_delta(
                &mut state,
                &[StimulusEdit {
                    net: n1,
                    trace: rising_input(),
                }],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SigmoidSimError::EditNotAnInput {
                net: "n1".to_string()
            }
        );
        // Validation precedes any commit: the state is untouched.
        assert_eq!(state.deltas(), 0);
        assert_eq!(state.gates_reeval(), 0);
    }

    #[test]
    fn single_edit_delta_reevaluates_only_affected_cone_on_c1355() {
        // The acceptance claim behind the `delta_c1355/1edit` bench row:
        // one edited input re-evaluates only its fan-out cone — a small
        // fraction of the 546-gate netlist — and stays bit-identical to
        // a cold full execution of the edited stimuli.
        let bench = sigcircuit::Benchmark::by_name("c1355").unwrap();
        let c = &bench.native;
        let program = CircuitProgram::compile(
            Arc::new(c.clone()),
            Arc::new(native_cells()),
            TomOptions::default(),
        )
        .unwrap();
        let mut stim = random_native_stimuli(c, 20250807);
        let mut scratch = FleetScratch::new();
        let mut state = program.open_session(&stim, &mut scratch).unwrap();
        let input = c.inputs()[0];
        let edit = StimulusEdit {
            net: input,
            trace: rising_input(),
        };
        stim.insert(input, Arc::clone(&edit.trace));
        let res = program.execute_delta(&mut state, &[edit]).unwrap();
        let gate_count = c.gates().len() as u64;
        assert!(state.last_reeval() > 0, "the edit must change something");
        assert!(
            state.last_reeval() * 4 < gate_count,
            "cone of one input ({} gates) should be \u{226a} the {} total",
            state.last_reeval(),
            gate_count
        );
        let cold = program
            .execute_with(&stim, &SigmoidSimConfig::scalar(), &mut scratch)
            .unwrap();
        for net in 0..c.net_count() {
            assert!(
                traces_bit_identical(res.trace(NetId(net)), cold.trace(NetId(net))),
                "net {net} differs from cold execution after cone-only delta"
            );
        }
    }

    proptest::proptest! {
        /// The incremental-engine parity property: on random DAGs under
        /// BOTH mapping policies, a chain of random edit batches applied
        /// through `execute_delta` equals a cold full `execute` of the
        /// final stimuli after every step, bit for bit on every net.
        #[test]
        fn delta_chain_matches_cold_execute_on_random_dags(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let native = random_native_dag(seed);
            let nor = sigcircuit::map_with_policy(
                &native,
                sigcircuit::MappingPolicy::NorOnly,
                sigcircuit::NorMappingOptions::default(),
            );
            let nor_cells = history_models();
            let opts = TomOptions::default();
            let mut scratch = FleetScratch::new();
            for (circuit, cells) in [(&native, native_cells()), (&nor, nor_cells)] {
                let mut stim = random_native_stimuli(circuit, seed ^ 0x5eed);
                let program = CircuitProgram::compile(
                    Arc::new(circuit.clone()),
                    Arc::new(cells),
                    opts,
                )
                .expect("simulable DAG compiles");
                let mut state = program.open_session(&stim, &mut scratch).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xde17a);
                for step in 0..3 {
                    let mut edits = Vec::new();
                    for &input in circuit.inputs() {
                        if rng.gen::<bool>() {
                            let trace = random_trace(&mut rng);
                            stim.insert(input, Arc::clone(&trace));
                            edits.push(StimulusEdit { net: input, trace });
                        }
                    }
                    let incremental = program.execute_delta(&mut state, &edits).unwrap();
                    let cold = program
                        .execute_with(&stim, &SigmoidSimConfig::scalar(), &mut scratch)
                        .unwrap();
                    for net in 0..circuit.net_count() {
                        proptest::prop_assert!(
                            traces_bit_identical(
                                incremental.trace(NetId(net)),
                                cold.trace(NetId(net)),
                            ),
                            "net {} differs after delta step {} (seed {}, cells {})",
                            net,
                            step,
                            seed,
                            program.cells().name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_program_reused_across_stimuli_matches_fresh_runs() {
        // Compile once, execute twice with different stimuli through the
        // same scratch: each execution must equal a fresh fused run — the
        // program holds no per-run state.
        let bench = sigcircuit::Benchmark::by_name("c17").unwrap();
        let cells = native_cells();
        let opts = TomOptions::default();
        let program = CircuitProgram::compile(
            Arc::new(bench.native.clone()),
            Arc::new(cells.clone()),
            opts,
        )
        .unwrap();
        assert_eq!(program.options(), opts);
        assert_eq!(program.cells().name(), "native");
        let mut scratch = FleetScratch::new();
        for seed in [1u64, 20250728] {
            let stim = random_native_stimuli(&bench.native, seed);
            let executed = program.execute(&stim, &mut scratch).unwrap();
            let fresh = simulate_cells_with(
                &bench.native,
                &stim,
                &cells,
                opts,
                &SigmoidSimConfig::default(),
            )
            .unwrap();
            for net in 0..bench.native.net_count() {
                assert_eq!(
                    executed.trace(NetId(net)),
                    fresh.trace(NetId(net)),
                    "seed {seed}: net {net} differs after program reuse"
                );
            }
            // Input traces are shared, not copied, through the program
            // path too.
            let first_input = bench.native.inputs()[0];
            assert!(Arc::ptr_eq(
                &executed.traces()[first_input.0],
                &stim[&first_input]
            ));
        }
    }

    #[test]
    fn program_compile_rejects_unsupported_gates() {
        let mut b = CircuitBuilder::new();
        let a = b.add_input("a");
        let z = b.add_input("z");
        let y = b.add_gate(GateKind::Xor, &[a, z], "y");
        b.mark_output(y);
        let c = b.build().unwrap();
        let err =
            CircuitProgram::compile(Arc::new(c), Arc::new(native_cells()), TomOptions::default())
                .unwrap_err();
        assert_eq!(
            err,
            SigmoidSimError::UnsupportedGate {
                kind: GateKind::Xor,
                arity: 2
            }
        );
    }

    #[test]
    fn cell_models_slot_resolution() {
        let cells = native_cells();
        // Single-input NOR resolves to the inverter cell's slot.
        assert_eq!(
            cells.slot_for(GateKind::Nor, 1, 1),
            cells.slot_for(GateKind::Inv, 1, 1)
        );
        // Arity rules.
        assert_eq!(cells.slot_for(GateKind::Nand, 3, 1), None);
        assert_eq!(cells.slot_for(GateKind::Nor, 4, 1), None);
        assert_eq!(cells.slot_for(GateKind::Xor, 2, 1), None);
        assert!(cells.slot_for(GateKind::Nor, 3, 1).is_some());
        // The nor-only library: four slots in training order, NOR2 at
        // fan-out 1 and 3 in slots 2 and 3, and the inverter cells answer
        // `GateKind::Inv` as well as single-input NORs.
        let nor = models(0.05, 0.1, 0.2);
        assert_eq!(nor.name(), "nor-only");
        assert_eq!(nor.slots(), 4);
        assert_eq!(
            crate::LibrarySpec::nor_only().tags,
            vec![
                GateTag::Inverter,
                GateTag::InverterFo2,
                GateTag::NorFo1,
                GateTag::NorFo2
            ]
        );
        assert_eq!(nor.slot_for(GateKind::Nor, 1, 1), Some(0));
        assert_eq!(nor.slot_for(GateKind::Inv, 1, 1), Some(0));
        assert_eq!(nor.slot_for(GateKind::Nor, 1, 2), Some(1));
        assert_eq!(nor.slot_for(GateKind::Inv, 1, 3), Some(1));
        assert_eq!(nor.slot_for(GateKind::Nor, 2, 1), Some(2));
        assert_eq!(nor.slot_for(GateKind::Nor, 2, 3), Some(3));
        assert_eq!(nor.slot_for(GateKind::Nor, 3, 0), Some(2));
        assert_eq!(nor.slot_for(GateKind::Nand, 2, 1), None);
        assert_eq!(nor.slot_for(GateKind::Buf, 1, 1), None);
    }

    #[test]
    fn undriven_nets_reported() {
        // Deserialization bypasses CircuitBuilder validation, so a net can
        // exist that nothing drives; the simulator must say so instead of
        // silently backfilling.
        let json = r#"{
            "net_names": ["a", "y", "ghost"],
            "inputs": [[0]],
            "outputs": [[1]],
            "gates": [{"kind": "Nor", "inputs": [[0]], "output": [1]}],
            "topo": [0],
            "levels": [[0]]
        }"#;
        let c: Circuit = serde_json::from_str(json).expect("circuit JSON");
        let ghost = c.find_net("ghost").unwrap();
        let mut stim = HashMap::new();
        stim.insert(c.find_net("a").unwrap(), rising_input());
        let res = simulate(&c, &stim, &models(0.05, 0.1, 0.2)).unwrap();
        assert_eq!(res.undriven(), &[ghost]);
        assert!(res.is_undriven(ghost));
        assert!(!res.is_undriven(c.find_net("y").unwrap()));
        // The fabricated trace is the documented constant-Low filler.
        assert_eq!(res.trace(ghost).initial(), Level::Low);
        assert!(res.trace(ghost).is_empty());
    }
}
