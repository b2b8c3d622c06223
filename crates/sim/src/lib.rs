//! The prototype sigmoidal circuit simulator and the Sec. V experiment
//! harness.
//!
//! This crate assembles the whole reproduction of *Signal Prediction for
//! Digital Circuits by Sigmoidal Approximations using Neural Networks*
//! (DATE 2025):
//!
//! * [`simulate_sigmoid`] — the prototype simulator: NOR-only circuits,
//!   sigmoid traces in, sigmoid traces out, with separate models for
//!   inverters, fan-out-1 and fan-out-≥2 NOR gates (Sec. V-A). The engine
//!   is levelized: gates are scheduled per ASAP level and their queries
//!   batched per model on the calling thread
//!   ([`simulate_sigmoid_with`] + [`SigmoidSimConfig`]; results are
//!   bit-identical at either setting — see `docs/architecture.md` § Levelized batched
//!   engine).
//! * [`CircuitProgram`] — the compile-once / execute-many engine core:
//!   [`CircuitProgram::compile`] resolves slots, validates gates and
//!   builds plan templates exactly once per `(circuit, cells, options)`;
//!   [`CircuitProgram::execute`] binds stimuli against the resident
//!   tables with a reusable [`SimScratch`] arena. The fused entry points
//!   above are thin wrappers and stay bit-identical (see
//!   `docs/architecture.md` § Compile/execute split).
//! * [`IncrementalState`] — the event-driven incremental engine:
//!   [`CircuitProgram::open_session`] captures a full execution,
//!   [`CircuitProgram::execute_delta`] applies [`StimulusEdit`] batches
//!   by re-simulating only the affected cone, bit-identical to a cold
//!   full execution of the final stimuli (see `docs/architecture.md`
//!   § Incremental engine).
//! * [`train_models`]/[`train_models_cached`] — the end-to-end pipeline:
//!   analog characterization sweeps → waveform fitting → four ANNs per
//!   gate variant → valid regions.
//! * [`StimulusSpec`] — Table I's randomized stimuli (normal
//!   inter-transition times).
//! * [`compare_circuit`] — the three-way comparison: analog reference,
//!   digital baseline with extracted inertial delays, sigmoid prototype;
//!   produces `t_err` totals, wall-clock times and per-output traces.
//!
//! # Example
//!
//! Training is expensive; see `examples/quickstart.rs` for the full
//! pipeline. Simulating with an already-built model:
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use sigsim::{simulate_sigmoid, GateModels};
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
//! let models = GateModels::uniform(GateModel::new(Arc::new(Fixed)));
//! let mut stimuli = HashMap::new();
//! // Stimuli are shared by reference (`Arc`), never cloned per run.
//! stimuli.insert(a, Arc::new(SigmoidTrace::from_transitions(
//!     Level::Low, vec![Sigmoid::rising(12.0, 1.0)], VDD_DEFAULT)?));
//! let result = simulate_sigmoid(&circuit, &stimuli, &models, TomOptions::default())?;
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
    compare_circuit, compare_circuit_cells, compare_circuit_monte_carlo,
    compare_circuit_monte_carlo_cells, constant_stimuli, digital_to_sigmoid, final_levels_agree,
    random_stimuli, ComparisonOutcome, HarnessConfig, HarnessError, McStats, McSummary,
    MonteCarloConfig, SigmoidInputMode, TraceBundle, SAME_STIMULUS_SLOPE,
};
pub use models::{
    native_cache_path, train_cell_library, train_cell_library_cached, train_models,
    train_models_cached, CellLibrary, LibrarySpec, PipelineConfig, PipelineError, StoredModel,
    TrainedModels,
};
pub use simulator::{
    simulate_cells_with, simulate_sigmoid, simulate_sigmoid_with, CellModels, CircuitProgram,
    FleetScratch, GateModels, IncrementalState, SigmoidSimConfig, SigmoidSimError,
    SigmoidSimResult, SimScratch, StimulusEdit, MODEL_SLOTS,
};
pub use stimulus::StimulusSpec;

// Compile-time audit: everything the `sigserve` registry shares across
// long-lived worker threads (`Arc<TrainedModels>`, `Arc<GateModels>`, the
// harness inputs and outputs) must be `Send + Sync`. `GateModels` holds
// `Arc<dyn TransferFunction + Send + Sync>` transfer backends, so the
// bounds propagate to every implementation; a regression (e.g. an `Rc` or
// `RefCell` slipping into a model) fails compilation here rather than
// deep inside the service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GateModels>();
    assert_send_sync::<CellModels>();
    assert_send_sync::<CircuitProgram>();
    assert_send_sync::<SimScratch>();
    assert_send_sync::<FleetScratch>();
    assert_send_sync::<IncrementalState>();
    assert_send_sync::<StimulusEdit>();
    assert_send_sync::<CellLibrary>();
    assert_send_sync::<TrainedModels>();
    assert_send_sync::<SigmoidSimResult>();
    assert_send_sync::<ComparisonOutcome>();
    assert_send_sync::<McSummary>();
    assert_send_sync::<HarnessConfig>();
    assert_send_sync::<StimulusSpec>();
    assert_send_sync::<sigcircuit::Circuit>();
    assert_send_sync::<sigchar::DelayTable>();
    assert_send_sync::<sigwave::SigmoidTrace>();
};
