//! The Third-Order Model (TOM): the core contribution of *Signal Prediction
//! for Digital Circuits by Sigmoidal Approximations using Neural Networks*
//! (DATE 2025).
//!
//! Signal traces are sums of sigmoids (see the `sigwave` crate); a gate is
//! described by a *transfer function* (Eq. 3) predicting the next output
//! sigmoid's slope and delay from the current input sigmoid and the
//! previous output sigmoid:
//!
//! `(a_out, b_out − b_in) = F_G(b_in − b_prev_out, a_in, a_prev_out)`
//!
//! This crate provides:
//!
//! * [`TransferFunction`] — the abstraction, with three backends:
//!   [`AnnTransfer`] (the paper's four 3→10→10→5→1 ReLU MLPs),
//!   [`LutTransfer`] and [`PolyTransfer`] (the look-up-table and
//!   interpolation-polynomial comparisons the paper mentions).
//! * [`ValidRegion`] — concave-hull-style containment of queries to the
//!   trained domain with projection (Sec. IV-B).
//! * [`predict_single_input`] — Algorithm 1, including sub-threshold pulse
//!   removal and transition cancellation (Sec. III).
//! * [`plan_cell`]/[`GatePlan`]/[`apply_plan`] — the plan → apply split of
//!   Algorithm 1, generalized to every library cell ([`CellFunction`]:
//!   INV/BUF/NOR/OR/NAND/AND): planning resolves the relevant input
//!   transitions under the cell's masking rule (others low for NOR/OR,
//!   others high for NAND/AND), the query/apply loop lets a
//!   level-scheduled simulator batch the pending queries of many gates
//!   through one [`TransferFunction::predict_batch`] call per model
//!   (bit-identical to the scalar loop; see `docs/architecture.md`).
//!   `plan_cell(CellFunction::Nor, ..)` is the paper's multi-input
//!   decision procedure, reducing a NOR gate to per-input single-input
//!   predictions.
//! * [`PlanTemplate`] — the compile/execute split of planning: the
//!   circuit-only half (cell function, arity, masking/pass level) is
//!   resolved once per gate, and [`PlanTemplate::bind`] instantiates the
//!   per-run plan from the stimulus without recomputing masks —
//!   bit-identical to [`plan_cell`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sigtom::{GateModel, TomOptions, predict_single_input,
//!              TransferFunction, TransferPrediction, TransferQuery};
//! use sigwave::{Level, Sigmoid, SigmoidTrace, VDD_DEFAULT};
//!
//! // A toy transfer function: constant 5 ps delay, fixed output slope.
//! struct Fixed;
//! impl TransferFunction for Fixed {
//!     fn predict(&self, q: TransferQuery) -> TransferPrediction {
//!         TransferPrediction { a_out: -q.a_in.signum() * 14.0, delay: 0.05 }
//!     }
//!     fn backend_name(&self) -> &'static str { "fixed" }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = GateModel::new(Arc::new(Fixed));
//! let input = SigmoidTrace::from_transitions(
//!     Level::Low, vec![Sigmoid::rising(12.0, 1.0)], VDD_DEFAULT)?;
//! let out = predict_single_input(&model, &input, Level::High, TomOptions::default());
//! assert_eq!(out.len(), 1);
//! assert!((out.transitions()[0].b - 1.05).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod ann;
mod baselines;
mod region;
mod transfer;

pub use algorithm::{
    apply_plan, plan_cell, plan_single_input, predict_single_input, traces_bit_identical,
    CellFunction, GateModel, GatePlan, PlanScratch, PlanTemplate, SnapScratch, TomOptions,
};
pub use ann::{AnnTrainConfig, AnnTransfer, TrainTransferError};
pub use baselines::{LutTransfer, PolyTransfer};
pub use region::ValidRegion;
pub use transfer::{
    polarity_samples, Polarity, TransferFunction, TransferPrediction, TransferQuery,
};
