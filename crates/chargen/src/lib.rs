//! Gate characterization: training-data generation for TOM transfer
//! functions (Sec. IV-A of the paper).
//!
//! The flow mirrors the paper exactly:
//!
//! 1. [`CharChain`] builds the Fig. 3 chains — pulse shaping, identical
//!    target gates `G1 … GN`, termination — for inverters and NOR gates at
//!    fan-out 1 and 2.
//! 2. [`PulseSweep`] enumerates the Fig. 4 stimulus family: four Heaviside
//!    transitions governed by `TA`, `TB`, `TC` (the paper sweeps 5–20 ps in
//!    1 ps steps; [`PulseSweep::coarse`] is a CI-friendly subset).
//! 3. [`run_chain`] simulates the chain in the analog substrate and records
//!    every stage boundary waveform.
//! 4. [`extract_from_pair`] fits sigmoids to each input/output waveform
//!    pair and emits [`TransferSample`]s `(T, a_in, a_prev_out) → (a_out,
//!    delay)` into a [`Dataset`].
//! 5. [`characterize`] drives the whole campaign for one [`GateTag`].
//!
//! [`DelayTable`]/[`measure_gate_delays`] additionally extract classic
//! rise/fall delays per cell class, fan-out and load from the same
//! substrate — the delays the digital ("ModelSim") baseline consumes,
//! standing in for the paper's Genus/Innovus extraction.
//!
//! [`build_analog`] is the shared gate-level → transistor-level translator,
//! also used by the comparison harness for the benchmark circuits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analog;
mod chain;
mod dataset;
mod delays;
mod extract;
mod pulses;
mod sweep;

pub use analog::{
    build_analog, wire_cap_multiplier, AnalogCircuit, AnalogOptions, BuildAnalogError,
};
pub use chain::{ChainGate, CharChain};
pub use dataset::{Dataset, GateTag, TransferSample, DUMMY_SLOPE, T_FAR};
pub use delays::{
    measure_gate_delays, DelayTable, GateDelays, LEGACY_DELAY_CELLS, NATIVE_DELAY_CELLS,
};
pub use extract::{
    extract_from_pair, extract_from_pair_cell, extract_from_traces, extract_from_traces_cell,
    run_chain, ChainRun, CharError, ExtractionStats,
};
pub use pulses::{PulseSpec, PulseSweep};
pub use sweep::{characterize, CharacterizationConfig, CharacterizationOutcome};
