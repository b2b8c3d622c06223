//! The prototype sigmoidal circuit simulator and the Sec. V experiment
//! harness.
//!
//! This crate assembles the whole reproduction of *Signal Prediction for
//! Digital Circuits by Sigmoidal Approximations using Neural Networks*
//! (DATE 2025):
//!
//! * [`simulate_cells_with`] — the prototype simulator: sigmoid traces
//!   in, sigmoid traces out, through per-cell TOM models. The paper's
//!   NOR-only circuits use separate models for inverters, fan-out-1 and
//!   fan-out-≥2 NOR gates (Sec. V-A); native circuits add NAND2, AND2 and
//!   OR2 cells ([`CellModels`]). The engine is levelized: gates are
//!   scheduled per ASAP level and their queries batched per model on the
//!   calling thread ([`SigmoidSimConfig`]; results are bit-identical at
//!   either setting — see `docs/architecture.md` § Levelized batched
//!   engine).
//! * [`CircuitProgram`] — the compile-once / execute-many engine core:
//!   [`CircuitProgram::compile`] resolves slots, validates gates and
//!   builds plan templates exactly once per `(circuit, cells, options)`;
//!   [`CircuitProgram::execute`] binds stimuli against the resident
//!   tables with a reusable [`FleetScratch`] arena. A solo execution is
//!   a fleet of one: [`CircuitProgram::execute_fleet`] runs the same
//!   level loop over `K` stimulus sets in lockstep (see
//!   `docs/architecture.md` § Compile/execute split).
//! * [`IncrementalState`] — the event-driven incremental engine:
//!   [`CircuitProgram::open_session`] captures a full execution,
//!   [`CircuitProgram::execute_delta`] applies [`StimulusEdit`] batches
//!   by re-simulating only the affected cone, bit-identical to a cold
//!   full execution of the final stimuli (see `docs/architecture.md`
//!   § Incremental engine).
//! * [`train_cell_library`]/[`train_cell_library_cached`] — the
//!   end-to-end pipeline: analog characterization sweeps → waveform
//!   fitting → four ANNs per cell variant → valid regions, for a
//!   [`LibrarySpec`] (`nor-only` is the paper's prototype set).
//! * [`StimulusSpec`] — Table I's randomized stimuli (normal
//!   inter-transition times).
//! * [`compare_circuit_cells`] — the three-way comparison: analog
//!   reference, digital baseline with extracted inertial delays, sigmoid
//!   prototype; produces `t_err` totals, wall-clock times and per-output
//!   traces.
//!
//! # Example
//!
//! Training is expensive; see `examples/quickstart.rs` for the full
//! pipeline. Simulating with an already-built model:
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use sigsim::{simulate_cells_with, CellModels, LibrarySpec, SigmoidSimConfig};
//! use sigcircuit::{CircuitBuilder, GateKind};
//! use sigtom::{GateModel, TomOptions, TransferFunction,
//!              TransferPrediction, TransferQuery};
//! use sigwave::{Level, Sigmoid, SigmoidTrace, VDD_DEFAULT};
//!
//! struct Fixed;
//! impl TransferFunction for Fixed {
//!     fn predict(&self, q: TransferQuery) -> TransferPrediction {
//!         TransferPrediction { a_out: -q.a_in.signum() * 14.0, delay: 0.06 }
//!     }
//!     fn backend_name(&self) -> &'static str { "fixed" }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new();
//! let a = b.add_input("a");
//! let y = b.add_gate(GateKind::Nor, &[a], "y");
//! b.mark_output(y);
//! let circuit = b.build()?;
//!
//! // One model in all four slots of the paper's nor-only set.
//! let model = GateModel::new(Arc::new(Fixed));
//! let cells = CellModels::from_cells(
//!     "nor-only",
//!     LibrarySpec::nor_only().tags.into_iter().map(|tag| (tag, model.clone())),
//! );
//! let mut stimuli = HashMap::new();
//! // Stimuli are shared by reference (`Arc`), never cloned per run.
//! stimuli.insert(a, Arc::new(SigmoidTrace::from_transitions(
//!     Level::Low, vec![Sigmoid::rising(12.0, 1.0)], VDD_DEFAULT)?));
//! let result = simulate_cells_with(
//!     &circuit, &stimuli, &cells, TomOptions::default(), &SigmoidSimConfig::default())?;
//! assert_eq!(result.trace(y).len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod models;
mod simulator;
mod stimulus;

pub use harness::{
    compare_circuit_cells, compare_circuit_monte_carlo_cells, constant_stimuli, digital_to_sigmoid,
    final_levels_agree, random_stimuli, ComparisonOutcome, HarnessConfig, HarnessError, McStats,
    McSummary, MonteCarloConfig, SigmoidInputMode, TraceBundle, SAME_STIMULUS_SLOPE,
};
pub use models::{
    library_cache_path, train_cell_library, train_cell_library_cached, CellLibrary, LibrarySpec,
    PipelineConfig, PipelineError, StoredModel,
};
pub use simulator::{
    simulate_cells_with, CellModels, CircuitProgram, FleetScratch, IncrementalState,
    SigmoidSimConfig, SigmoidSimError, SigmoidSimResult, SimScratch, StimulusEdit,
};
pub use stimulus::StimulusSpec;

// Compile-time audit: everything the `sigserve` registry shares across
// long-lived worker threads (`Arc<CellModels>`, `Arc<CellLibrary>`, the
// harness inputs and outputs) must be `Send + Sync`. `CellModels` holds
// `Arc<dyn TransferFunction + Send + Sync>` transfer backends, so the
// bounds propagate to every implementation; a regression (e.g. an `Rc` or
// `RefCell` slipping into a model) fails compilation here rather than
// deep inside the service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CellModels>();
    assert_send_sync::<CircuitProgram>();
    assert_send_sync::<FleetScratch>();
    assert_send_sync::<IncrementalState>();
    assert_send_sync::<StimulusEdit>();
    assert_send_sync::<CellLibrary>();
    assert_send_sync::<SigmoidSimResult>();
    assert_send_sync::<ComparisonOutcome>();
    assert_send_sync::<McSummary>();
    assert_send_sync::<HarnessConfig>();
    assert_send_sync::<StimulusSpec>();
    assert_send_sync::<sigcircuit::Circuit>();
    assert_send_sync::<sigchar::DelayTable>();
    assert_send_sync::<sigwave::SigmoidTrace>();
};
