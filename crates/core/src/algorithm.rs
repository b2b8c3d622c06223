//! Algorithm 1: output parameter prediction for single-input gates, plus
//! the sub-threshold pulse removal and the multi-input decision procedure
//! described in Sec. III.

use std::borrow::Cow;
use std::sync::Arc;

use sigwave::{Level, Sigmoid, SigmoidTrace};

use sigchar::{DUMMY_SLOPE, T_FAR};

use crate::region::ValidRegion;
use crate::transfer::{TransferFunction, TransferQuery};

/// A gate model: a transfer function plus (optionally) its valid region.
#[derive(Clone)]
pub struct GateModel {
    /// The transfer backend (ANN in the paper, LUT/poly for comparison).
    pub transfer: Arc<dyn TransferFunction + Send + Sync>,
    /// Valid-region containment (Sec. IV-B); `None` disables projection
    /// (an ablation the benchmarks exercise).
    pub region: Option<Arc<ValidRegion>>,
}

impl std::fmt::Debug for GateModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateModel")
            .field("backend", &self.transfer.backend_name())
            .field("region", &self.region.as_ref().map(|r| r.len()))
            .finish()
    }
}

impl GateModel {
    /// A model without valid-region projection.
    #[must_use]
    pub fn new(transfer: Arc<dyn TransferFunction + Send + Sync>) -> Self {
        Self {
            transfer,
            region: None,
        }
    }

    /// Attaches a valid region.
    #[must_use]
    pub fn with_region(mut self, region: Arc<ValidRegion>) -> Self {
        self.region = Some(region);
        self
    }

    /// Clamps a raw query to the trained domain and (when a region is
    /// attached) projects it into the valid region — the per-query
    /// preparation shared by the scalar and batch paths.
    fn prepare(&self, query: TransferQuery) -> TransferQuery {
        match &self.region {
            Some(r) => {
                // Keep the true polarity even if projection moved a_in
                // across zero (it cannot for per-polarity regions, but be
                // defensive).
                let projected = r.project(query.clamped());
                TransferQuery {
                    a_in: projected.a_in.abs() * query.a_in.signum(),
                    ..projected
                }
            }
            None => query.clamped(),
        }
    }

    fn predict(&self, query: TransferQuery) -> crate::transfer::TransferPrediction {
        self.transfer.predict(self.prepare(query))
    }

    /// Predicts a batch of independent queries: each is clamped/projected
    /// **in place** exactly as the scalar [`GateModel`] prediction does
    /// (the batch buffer is the scratch, so nothing is allocated per
    /// call), then the whole batch goes through
    /// [`TransferFunction::predict_batch`] in one call. `out` is
    /// overwritten with one prediction per query, in order,
    /// bit-identical to per-query [`TransferFunction::predict`] calls.
    pub fn predict_batch(
        &self,
        queries: &mut [TransferQuery],
        out: &mut Vec<crate::transfer::TransferPrediction>,
    ) {
        for q in queries.iter_mut() {
            *q = self.prepare(*q);
        }
        self.transfer.predict_batch(queries, out);
    }
}

/// Options of the prediction algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TomOptions {
    /// Supply voltage (sub-threshold check threshold is `vdd/2`).
    pub vdd: f64,
    /// Remove output transition pairs whose pulse never crosses `vdd/2`
    /// (Sec. III); disabling this is an ablation knob.
    pub cancel_subthreshold: bool,
}

impl Default for TomOptions {
    fn default() -> Self {
        Self {
            vdd: sigwave::VDD_DEFAULT,
            cancel_subthreshold: true,
        }
    }
}

/// Internal running state of Algorithm 1 (the `Prev` variable plus the
/// accumulated output list).
#[derive(Debug)]
struct OutputState {
    transitions: Vec<Sigmoid>,
    initial: Level,
    options: TomOptions,
}

impl OutputState {
    fn new(initial: Level, options: TomOptions) -> Self {
        Self {
            transitions: Vec::new(),
            initial,
            options,
        }
    }

    /// The `Prev` tuple: the last surviving output transition, or the
    /// dummy `(±s, −∞)` whose polarity matches the initial output level
    /// (line 1-2 of Algorithm 1).
    fn prev(&self) -> (f64, f64) {
        match self.transitions.last() {
            Some(s) => (s.a, s.b),
            None => {
                let a = if self.initial.is_high() {
                    DUMMY_SLOPE
                } else {
                    -DUMMY_SLOPE
                };
                (a, f64::NEG_INFINITY)
            }
        }
    }

    /// The polarity the *next* output transition must have.
    fn expected_rising(&self) -> bool {
        match self.transitions.last() {
            Some(s) => !s.is_rising(),
            None => !self.initial.is_high(),
        }
    }

    /// Appends a predicted transition, enforcing alternation/monotonicity
    /// and applying sub-threshold pulse removal.
    fn push(&mut self, a_out: f64, b_out: f64) {
        let expected = self.expected_rising();
        // Defensive polarity repair: the ANN predicts a signed slope; if
        // the sign came out wrong (far outside training data), coerce it.
        let a = if expected { a_out.abs() } else { -a_out.abs() };
        let a = if a == 0.0 {
            if expected {
                1e-3
            } else {
                -1e-3
            }
        } else {
            a
        };

        if let Some(last) = self.transitions.last().copied() {
            if b_out <= last.b {
                // Out-of-order schedule: the pulse collapsed entirely —
                // remove the previous transition and drop this one (the
                // cancellation rule of single-history models).
                self.transitions.pop();
                return;
            }
        }
        self.transitions.push(Sigmoid { a, b: b_out });

        if self.options.cancel_subthreshold {
            self.cancel_tail_pulses();
        }
    }

    /// Removes trailing transition pairs that form sub-threshold pulses
    /// ("removing two adjacent tuples that would form such a sub-threshold
    /// pulse", Sec. III).
    fn cancel_tail_pulses(&mut self) {
        while self.transitions.len() >= 2 {
            let s2 = self.transitions[self.transitions.len() - 1];
            let s1 = self.transitions[self.transitions.len() - 2];
            // Positive pulse (rising/falling pair) visible iff the pair
            // sum exceeds 1.5 (trace = vdd (sum - offset) crosses
            // vdd/2); negative pulse visible iff it drops below 0.5.
            let threshold = if s1.is_rising() { 1.5 } else { 0.5 };
            if s1.pair_crosses(&s2, threshold) {
                break;
            }
            self.transitions.pop();
            self.transitions.pop();
        }
    }

    fn into_trace(self, vdd: f64) -> SigmoidTrace {
        SigmoidTrace::from_transitions(self.initial, self.transitions, vdd)
            .expect("state maintains trace invariants")
    }
}

/// The boolean family of a simulated cell — everything [`plan_cell`]
/// needs to know about a gate: its truth function (for the initial output
/// level) and its non-controlling input value (for the Sec. III relevance
/// masking). The *polarity* of output transitions is not encoded here; it
/// comes from the transfer function's trained `a_out` sign plus the
/// output state's alternation repair, so one plan type serves inverting
/// (INV/NOR/NAND) and buffering (AND/OR) cells alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellFunction {
    /// Inverter (single input).
    Inv,
    /// Buffer (single input).
    Buf,
    /// NOR: output high iff all inputs low; others masked unless low.
    Nor,
    /// OR: output high iff any input high; others masked unless low.
    Or,
    /// NAND: output low iff all inputs high; others masked unless high.
    Nand,
    /// AND: output high iff all inputs high; others masked unless high.
    And,
}

impl CellFunction {
    /// The level the *other* inputs must hold for a transition on one
    /// input to reach the output (the cell's non-controlling value):
    /// low for NOR/OR, high for NAND/AND.
    #[must_use]
    pub fn pass_level(self) -> Level {
        match self {
            CellFunction::Inv | CellFunction::Buf | CellFunction::Nor | CellFunction::Or => {
                Level::Low
            }
            CellFunction::Nand | CellFunction::And => Level::High,
        }
    }

    /// The cell's boolean function.
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            CellFunction::Inv => !inputs[0],
            CellFunction::Buf => inputs[0],
            CellFunction::Nor => !inputs.iter().any(|&b| b),
            CellFunction::Or => inputs.iter().any(|&b| b),
            CellFunction::Nand => !inputs.iter().all(|&b| b),
            CellFunction::And => inputs.iter().all(|&b| b),
        }
    }

    /// `true` when, with every other input at the pass level, the output
    /// transition has the opposite polarity of the input transition.
    #[must_use]
    pub fn inverting(self) -> bool {
        matches!(
            self,
            CellFunction::Inv | CellFunction::Nor | CellFunction::Nand
        )
    }
}

/// A planned cell prediction: the model-independent half of Algorithm 1,
/// separated from the transfer-function evaluation so queries from many
/// gates can be batched together. The same plan drives every library
/// cell via [`plan_cell`].
///
/// Planning resolves everything that does **not** depend on predictions:
/// the initial output level and the *relevant* input transitions (for a
/// multi-input cell, the transitions arriving while every other input
/// holds the cell's non-controlling level — the Sec. III decision
/// procedure, generalized from "others low" for NOR to "others high" for
/// NAND/AND). What remains is inherently sequential per gate — each
/// query's history interval and previous-output slope come from the
/// preceding prediction — so the plan is driven as a query/apply loop:
///
/// 1. [`GatePlan::next_query`] yields the query for the next relevant
///    transition (or `None` when the plan is exhausted),
/// 2. the caller evaluates it — alone, or batched with the pending queries
///    of *other* gates via [`GateModel::predict_batch`] —
/// 3. [`GatePlan::apply`] consumes the prediction, advancing Algorithm 1's
///    output state (alternation repair, out-of-order cancellation,
///    sub-threshold pulse removal),
/// 4. [`GatePlan::into_trace`] finalizes the output trace.
///
/// [`apply_plan`] packages the single-gate loop; the one-shot
/// [`predict_single_input`] wrapper is plan + apply and remains
/// bit-identical to driving the plan any other way.
#[derive(Debug)]
pub struct GatePlan<'a> {
    /// The relevant input transitions, in arrival order: borrowed straight
    /// from the input trace for single-input gates (no copy), owned only
    /// when a multi-input merge had to build the list.
    relevant: Cow<'a, [Sigmoid]>,
    /// Index of the next unconsumed transition in `relevant`.
    cursor: usize,
    state: OutputState,
}

impl GatePlan<'_> {
    /// Number of relevant input transitions still awaiting a prediction.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.relevant.len() - self.cursor
    }

    /// The query for the next relevant input transition, or `None` when
    /// every transition has been applied. Stable until the next
    /// [`GatePlan::apply`] call.
    #[must_use]
    pub fn next_query(&self) -> Option<TransferQuery> {
        let sin = self.relevant.get(self.cursor)?;
        let (a_prev, b_prev) = self.state.prev();
        let t = if b_prev == f64::NEG_INFINITY {
            T_FAR
        } else {
            sin.b - b_prev
        };
        Some(TransferQuery {
            t,
            a_in: sin.a,
            a_prev_out: a_prev,
        })
    }

    /// Consumes the prediction for the query returned by
    /// [`GatePlan::next_query`]: schedules the output transition and runs
    /// the cancellation bookkeeping (Algorithm 1's loop body).
    ///
    /// # Panics
    ///
    /// Panics if the plan is already exhausted.
    pub fn apply(&mut self, prediction: crate::transfer::TransferPrediction) {
        let sin = self.relevant[self.cursor];
        self.cursor += 1;
        let b_out = sin.b + prediction.delay;
        self.state.push(prediction.a_out, b_out);
    }

    /// Finalizes the predicted output trace.
    ///
    /// # Panics
    ///
    /// Panics if relevant transitions are still pending — a finished trace
    /// with queries unconsumed would silently drop transitions.
    #[must_use]
    pub fn into_trace(self) -> SigmoidTrace {
        assert_eq!(
            self.cursor,
            self.relevant.len(),
            "plan finalized with {} transitions pending",
            self.relevant.len() - self.cursor
        );
        let vdd = self.state.options.vdd;
        self.state.into_trace(vdd)
    }
}

/// Plans Algorithm 1 for a single-input gate with a known settled output:
/// every input transition is relevant.
///
/// `initial_output` is the gate's settled output level before the first
/// input transition; for an inverter it is the inverse of the input's
/// initial level.
#[must_use]
pub fn plan_single_input(
    input: &SigmoidTrace,
    initial_output: Level,
    options: TomOptions,
) -> GatePlan<'_> {
    GatePlan {
        relevant: Cow::Borrowed(input.transitions()),
        cursor: 0,
        state: OutputState::new(initial_output, options),
    }
}

/// The circuit-dependent half of planning one cell: everything
/// [`plan_cell`] resolves that does **not** depend on the stimulus — the
/// cell function (driving the boolean initial-output evaluation), its
/// arity, and the precomputed masking/pass level the Sec. III relevance
/// decision compares against. A compile-once simulator builds one
/// template per gate when the circuit is compiled and then calls
/// [`PlanTemplate::bind`] per run, so the per-stimulus work is only the
/// transition merge itself — the masks and function checks are never
/// recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTemplate {
    function: CellFunction,
    arity: usize,
    /// `function.pass_level().is_high()`, resolved once at template
    /// construction.
    pass_high: bool,
}

impl PlanTemplate {
    /// Builds the template of a cell with the given function and arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero, or if a single-input function (INV/BUF)
    /// is given more than one input — the same contract [`plan_cell`]
    /// enforces per call.
    #[must_use]
    pub fn new(function: CellFunction, arity: usize) -> Self {
        assert!(arity > 0, "cell needs at least one input");
        if matches!(function, CellFunction::Inv | CellFunction::Buf) {
            assert_eq!(arity, 1, "{function:?} takes exactly one input");
        }
        Self {
            function,
            arity,
            pass_high: function.pass_level().is_high(),
        }
    }

    /// The cell function this template plans.
    #[must_use]
    pub fn function(&self) -> CellFunction {
        self.function
    }

    /// The input count the template was compiled for.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The stimulus-binding step: instantiates the per-run plan from this
    /// template. Bit-identical to [`plan_cell`] with the same function
    /// and inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the template's arity.
    #[must_use]
    pub fn bind<'a>(&self, inputs: &[&'a SigmoidTrace], options: TomOptions) -> GatePlan<'a> {
        self.bind_with(inputs, options, &mut PlanScratch::default())
    }

    /// Like [`PlanTemplate::bind`], reusing the caller's merge buffers so
    /// a hot loop binding many gates allocates nothing for the event
    /// merge (the relevant-transition list of a multi-input plan is still
    /// owned by the returned plan).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the template's arity.
    #[must_use]
    pub fn bind_with<'a>(
        &self,
        inputs: &[&'a SigmoidTrace],
        options: TomOptions,
        scratch: &mut PlanScratch,
    ) -> GatePlan<'a> {
        assert_eq!(
            inputs.len(),
            self.arity,
            "template compiled for arity {}, bound with {} inputs",
            self.arity,
            inputs.len()
        );
        if inputs.len() == 1 {
            let initial = Level::from_bool(self.function.eval(&[inputs[0].initial().is_high()]));
            return plan_single_input(inputs[0], initial, options);
        }
        // Merge transitions from all inputs, tagged with their source.
        let events = &mut scratch.events;
        events.clear();
        for (i, tr) in inputs.iter().enumerate() {
            for s in tr.transitions() {
                events.push((i, *s));
            }
        }
        events.sort_by(|a, b| a.1.b.total_cmp(&b.1.b));

        // Track digital levels of all inputs (by crossing time); relevance
        // depends only on the input traces, never on predictions.
        let levels = &mut scratch.levels;
        levels.clear();
        levels.extend(inputs.iter().map(|t| t.initial().is_high()));
        let initial_out = Level::from_bool(self.function.eval(levels));
        let mut relevant = Vec::new();
        for &(src, sin) in events.iter() {
            let others_pass = levels
                .iter()
                .enumerate()
                .all(|(i, &l)| i == src || l == self.pass_high);
            if others_pass {
                relevant.push(sin);
            }
            levels[src] = sin.is_rising();
        }
        GatePlan {
            relevant: Cow::Owned(relevant),
            cursor: 0,
            state: OutputState::new(initial_out, options),
        }
    }
}

/// Reusable buffers for [`PlanTemplate::bind_with`]'s multi-input event
/// merge. One instance serves any number of sequential binds; the buffers
/// grow to the largest merge seen and stay allocated.
#[derive(Debug, Default)]
pub struct PlanScratch {
    events: Vec<(usize, Sigmoid)>,
    levels: Vec<bool>,
}

/// Plans any library cell: merges the input transitions in time order and
/// keeps those arriving while every *other* input holds the cell's
/// non-controlling ("pass") level — low for NOR/OR, high for NAND/AND.
/// Transitions on a masked input never reach the output, so they produce
/// no query at all. The initial output level is the cell's boolean
/// function of the inputs' initial levels; output transition polarity is
/// left to the transfer model plus the plan's alternation repair, which
/// is what lets buffering cells share the machinery.
///
/// This is the fused form of [`PlanTemplate::new`] + [`PlanTemplate::bind`]
/// — per-call template construction for call sites that plan a gate once.
/// Compile-once simulators keep the template instead.
///
/// # Panics
///
/// Panics if `inputs` is empty, or if a single-input function (INV/BUF)
/// is given more than one input.
#[must_use]
pub fn plan_cell<'a>(
    function: CellFunction,
    inputs: &[&'a SigmoidTrace],
    options: TomOptions,
) -> GatePlan<'a> {
    assert!(!inputs.is_empty(), "cell needs at least one input");
    PlanTemplate::new(function, inputs.len()).bind(inputs, options)
}

/// Drives a plan to completion against one model: the scalar
/// query→predict→apply loop. (A level-scheduled simulator instead
/// interleaves the loops of many plans through
/// [`GateModel::predict_batch`]; both produce identical traces.)
#[must_use]
pub fn apply_plan(mut plan: GatePlan<'_>, model: &GateModel) -> SigmoidTrace {
    while let Some(query) = plan.next_query() {
        plan.apply(model.predict(query));
    }
    plan.into_trace()
}

/// Exact bit-level equality of two sigmoid traces: same initial level,
/// same `vdd` bit pattern, and the same transition list compared by the
/// `a`/`b` bit patterns. Stricter than `PartialEq`, which follows IEEE
/// float semantics (`-0.0 == 0.0`, `NaN != NaN`): this predicate is the
/// convergence cutoff of the incremental engine, where "unchanged" must
/// mean "a full re-execution would have produced these exact bytes" —
/// true bit-identity, not numeric closeness.
#[must_use]
pub fn traces_bit_identical(a: &SigmoidTrace, b: &SigmoidTrace) -> bool {
    a.initial() == b.initial()
        && a.vdd().to_bits() == b.vdd().to_bits()
        && a.transitions().len() == b.transitions().len()
        && a.transitions()
            .iter()
            .zip(b.transitions())
            .all(|(x, y)| x.a.to_bits() == y.a.to_bits() && x.b.to_bits() == y.b.to_bits())
}

/// Algorithm 1: predicts the output sigmoid trace of a single-input
/// inverting gate (inverter, or NOR with all other inputs low). Thin
/// wrapper over [`plan_single_input`] + [`apply_plan`].
///
/// `initial_output` is the gate's settled output level before the first
/// input transition; for an inverter it is the inverse of the input's
/// initial level.
#[must_use]
pub fn predict_single_input(
    model: &GateModel,
    input: &SigmoidTrace,
    initial_output: Level,
    options: TomOptions,
) -> SigmoidTrace {
    apply_plan(plan_single_input(input, initial_output, options), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::{TransferFunction, TransferPrediction};
    use sigwave::VDD_DEFAULT;

    /// A deterministic mock transfer: fixed delay, slope mirrors input
    /// with degradation for small T.
    struct MockTransfer {
        delay: f64,
    }

    impl TransferFunction for MockTransfer {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            let degradation = 1.0 - (-q.t / 0.2).exp();
            TransferPrediction {
                a_out: -q.a_in.signum() * 15.0 * degradation.max(0.05),
                delay: self.delay,
            }
        }
        fn backend_name(&self) -> &'static str {
            "mock"
        }
    }

    fn model(delay: f64) -> GateModel {
        GateModel::new(Arc::new(MockTransfer { delay }))
    }

    fn trace(transitions: Vec<Sigmoid>, initial: Level) -> SigmoidTrace {
        SigmoidTrace::from_transitions(initial, transitions, VDD_DEFAULT).unwrap()
    }

    #[test]
    fn single_transition_prediction() {
        let input = trace(vec![Sigmoid::rising(10.0, 1.0)], Level::Low);
        let out = predict_single_input(&model(0.06), &input, Level::High, TomOptions::default());
        assert_eq!(out.initial(), Level::High);
        assert_eq!(out.len(), 1);
        let s = out.transitions()[0];
        assert!(!s.is_rising());
        assert!((s.b - 1.06).abs() < 1e-12);
    }

    #[test]
    fn wide_pulse_passes_through() {
        let input = trace(
            vec![Sigmoid::rising(20.0, 1.0), Sigmoid::falling(20.0, 2.0)],
            Level::Low,
        );
        let out = predict_single_input(&model(0.05), &input, Level::High, TomOptions::default());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn subthreshold_pulse_is_cancelled() {
        // Input transitions 4 ps apart: T for the second is tiny, the mock
        // degrades the output slope to near zero -> the output pulse never
        // develops and must be removed.
        let input = trace(
            vec![Sigmoid::rising(20.0, 1.0), Sigmoid::falling(20.0, 1.04)],
            Level::Low,
        );
        let out = predict_single_input(&model(0.05), &input, Level::High, TomOptions::default());
        assert!(
            out.is_empty(),
            "degenerate pulse should cancel, got {:?}",
            out.transitions()
        );
        // Ablation: with cancellation off the transitions remain.
        let opts = TomOptions {
            cancel_subthreshold: false,
            ..TomOptions::default()
        };
        let out = predict_single_input(&model(0.05), &input, Level::High, opts);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn out_of_order_schedule_cancels() {
        // Make the second event schedule before the first: huge delay for
        // the first input transition only.
        struct WeirdTransfer;
        impl TransferFunction for WeirdTransfer {
            fn predict(&self, q: TransferQuery) -> TransferPrediction {
                let delay = if q.a_in > 0.0 { 0.5 } else { 0.01 };
                TransferPrediction {
                    a_out: -q.a_in.signum() * 10.0,
                    delay,
                }
            }
            fn backend_name(&self) -> &'static str {
                "weird"
            }
        }
        let m = GateModel::new(Arc::new(WeirdTransfer));
        let input = trace(
            vec![Sigmoid::rising(20.0, 1.0), Sigmoid::falling(20.0, 1.1)],
            Level::Low,
        );
        // First: out falls at 1.5; second: out would rise at 1.11 <= 1.5 ->
        // both cancel.
        let out = predict_single_input(&m, &input, Level::High, TomOptions::default());
        assert!(out.is_empty(), "got {:?}", out.transitions());
    }

    #[test]
    fn polarity_repair_keeps_alternation() {
        // A transfer that always predicts positive slopes: the state must
        // still produce an alternating, valid trace.
        struct BrokenSign;
        impl TransferFunction for BrokenSign {
            fn predict(&self, _q: TransferQuery) -> TransferPrediction {
                TransferPrediction {
                    a_out: 42.0,
                    delay: 0.05,
                }
            }
            fn backend_name(&self) -> &'static str {
                "broken"
            }
        }
        let m = GateModel::new(Arc::new(BrokenSign));
        let input = trace(
            vec![Sigmoid::rising(20.0, 1.0), Sigmoid::falling(20.0, 2.0)],
            Level::Low,
        );
        let out = predict_single_input(&m, &input, Level::High, TomOptions::default());
        assert_eq!(out.len(), 2);
        assert!(!out.transitions()[0].is_rising());
        assert!(out.transitions()[1].is_rising());
    }

    #[test]
    fn nor_relevant_input_selection() {
        // I2 stays low: I1 transitions drive the output (inverted).
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 2.0)],
            Level::Low,
        );
        let i2 = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&i1, &i2], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(out.initial(), Level::High);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nor_masked_input_is_ignored() {
        // I2 high the whole time: I1 transitions are irrelevant, output
        // stays low.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 2.0)],
            Level::Low,
        );
        let i2 = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&i1, &i2], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(out.initial(), Level::Low);
        assert!(out.is_empty());
    }

    #[test]
    fn nor_handover_between_inputs() {
        // I1 rises (output falls); then I2 rises while I1 high (masked);
        // I1 falls while I2 high (masked); I2 falls last with I1 low ->
        // output rises again.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 3.0)],
            Level::Low,
        );
        let i2 = trace(
            vec![Sigmoid::rising(15.0, 2.0), Sigmoid::falling(15.0, 4.0)],
            Level::Low,
        );
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&i1, &i2], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(out.initial(), Level::High);
        assert_eq!(out.len(), 2, "{:?}", out.transitions());
        assert!(!out.transitions()[0].is_rising());
        assert!((out.transitions()[0].b - 1.05).abs() < 1e-9);
        assert!((out.transitions()[1].b - 4.05).abs() < 1e-9);
    }

    #[test]
    fn nor3_only_relevant_when_both_others_low() {
        // Three inputs; I2 and I3 trade places being high: only windows
        // where BOTH are low let I1 drive the output.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 5.0)],
            Level::Low,
        );
        let i2 = trace(
            vec![Sigmoid::rising(15.0, 2.0), Sigmoid::falling(15.0, 3.0)],
            Level::Low,
        );
        let i3 = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&i1, &i2, &i3], TomOptions::default()),
            &model(0.05),
        );
        // I1 rise at 1.0 -> out falls; I2 pulse 2..3 is masked by I1 high;
        // I1 fall at 5.0 -> out rises.
        assert_eq!(out.len(), 2, "{:?}", out.transitions());
        assert!((out.transitions()[0].b - 1.05).abs() < 1e-9);
        assert!((out.transitions()[1].b - 5.05).abs() < 1e-9);
    }

    #[test]
    fn nor_initial_level_from_inputs() {
        // Any input initially high -> output initially low.
        let hi = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let lo = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&hi, &lo], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(out.initial(), Level::Low);
        let out = apply_plan(
            plan_cell(CellFunction::Nor, &[&lo, &lo], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(out.initial(), Level::High);
    }

    /// A buffering mock: output slope mirrors the input polarity (what an
    /// AND/OR cell's trained transfer produces).
    struct BufferMock {
        delay: f64,
    }
    impl TransferFunction for BufferMock {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            TransferPrediction {
                a_out: q.a_in.signum() * 14.0,
                delay: self.delay,
            }
        }
        fn backend_name(&self) -> &'static str {
            "buffer-mock"
        }
    }

    #[test]
    fn nand_masks_while_other_input_low() {
        // NAND: transitions pass while the *other* input is high; a low
        // other input pins the output high and masks everything.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 2.0)],
            Level::Low,
        );
        let hi = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let lo = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let passed = apply_plan(
            plan_cell(CellFunction::Nand, &[&i1, &hi], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(passed.initial(), Level::High);
        assert_eq!(passed.len(), 2, "{:?}", passed.transitions());
        assert!(!passed.transitions()[0].is_rising());
        let masked = apply_plan(
            plan_cell(CellFunction::Nand, &[&i1, &lo], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(masked.initial(), Level::High);
        assert!(masked.is_empty(), "{:?}", masked.transitions());
    }

    #[test]
    fn and_passes_polarity_through() {
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 2.0)],
            Level::Low,
        );
        let hi = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let m = GateModel::new(Arc::new(BufferMock { delay: 0.07 }));
        let out = apply_plan(
            plan_cell(CellFunction::And, &[&i1, &hi], TomOptions::default()),
            &m,
        );
        assert_eq!(out.initial(), Level::Low);
        assert_eq!(out.len(), 2, "{:?}", out.transitions());
        assert!(out.transitions()[0].is_rising(), "AND buffers polarity");
        assert!((out.transitions()[0].b - 1.07).abs() < 1e-9);
        assert!((out.transitions()[1].b - 2.07).abs() < 1e-9);
    }

    #[test]
    fn or_handover_mirrors_nor() {
        // Same handover scenario as `nor_handover_between_inputs`, but the
        // OR output follows the relevant input instead of inverting it.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 3.0)],
            Level::Low,
        );
        let i2 = trace(
            vec![Sigmoid::rising(15.0, 2.0), Sigmoid::falling(15.0, 4.0)],
            Level::Low,
        );
        let m = GateModel::new(Arc::new(BufferMock { delay: 0.05 }));
        let out = apply_plan(
            plan_cell(CellFunction::Or, &[&i1, &i2], TomOptions::default()),
            &m,
        );
        assert_eq!(out.initial(), Level::Low);
        assert_eq!(out.len(), 2, "{:?}", out.transitions());
        assert!(out.transitions()[0].is_rising());
        assert!((out.transitions()[0].b - 1.05).abs() < 1e-9);
        assert!(!out.transitions()[1].is_rising());
        assert!((out.transitions()[1].b - 4.05).abs() < 1e-9);
    }

    #[test]
    fn plan_cell_single_input_functions() {
        let input = trace(vec![Sigmoid::rising(12.0, 1.0)], Level::Low);
        let inv = plan_cell(CellFunction::Inv, &[&input], TomOptions::default());
        assert_eq!(inv.pending(), 1);
        let inv = apply_plan(inv, &model(0.05));
        assert_eq!(inv.initial(), Level::High);
        let m = GateModel::new(Arc::new(BufferMock { delay: 0.05 }));
        let buf = apply_plan(
            plan_cell(CellFunction::Buf, &[&input], TomOptions::default()),
            &m,
        );
        assert_eq!(buf.initial(), Level::Low);
        assert!(buf.transitions()[0].is_rising());
        // NOR with a single input degenerates to the inverter plan.
        let nor1 = apply_plan(
            plan_cell(CellFunction::Nor, &[&input], TomOptions::default()),
            &model(0.05),
        );
        assert_eq!(nor1, inv);
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn multi_input_inverter_rejected() {
        let i1 = trace(vec![Sigmoid::rising(15.0, 1.0)], Level::Low);
        let i2 = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let _ = plan_cell(CellFunction::Inv, &[&i1, &i2], TomOptions::default());
    }

    #[test]
    fn plan_apply_matches_one_shot_prediction() {
        // Drive a plan manually through the batch entry point (as the
        // levelized simulator does): it must equal apply_plan exactly.
        let m = model(0.07);
        let i1 = trace(
            vec![
                Sigmoid::rising(15.0, 1.0),
                Sigmoid::falling(15.0, 1.04), // sub-threshold pulse: cancels
                Sigmoid::rising(15.0, 3.0),
                Sigmoid::falling(15.0, 5.0),
            ],
            Level::Low,
        );
        let i2 = trace(
            vec![Sigmoid::rising(15.0, 3.5), Sigmoid::falling(15.0, 4.0)],
            Level::Low,
        );
        let opts = TomOptions::default();
        let one_shot = apply_plan(plan_cell(CellFunction::Nor, &[&i1, &i2], opts), &m);

        let mut plan = plan_cell(CellFunction::Nor, &[&i1, &i2], opts);
        let mut queries_seen = 0;
        let mut batch = Vec::new();
        while let Some(q) = plan.next_query() {
            // Route through the batch entry point one query at a time.
            let mut one = [q];
            m.predict_batch(&mut one, &mut batch);
            plan.apply(batch[0]);
            queries_seen += 1;
        }
        assert!(queries_seen >= 2, "multi-transition plan expected");
        assert_eq!(plan.pending(), 0);
        assert_eq!(plan.into_trace(), one_shot);
    }

    #[test]
    fn plan_masks_irrelevant_transitions() {
        // I2 high the whole time: no transition is relevant, no query is
        // ever emitted, and the trace settles low.
        let i1 = trace(
            vec![Sigmoid::rising(15.0, 1.0), Sigmoid::falling(15.0, 2.0)],
            Level::Low,
        );
        let i2 = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let plan = plan_cell(CellFunction::Nor, &[&i1, &i2], TomOptions::default());
        assert_eq!(plan.pending(), 0);
        assert!(plan.next_query().is_none());
        let out = plan.into_trace();
        assert_eq!(out.initial(), Level::Low);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "transitions pending")]
    fn unfinished_plan_cannot_finalize() {
        let input = trace(vec![Sigmoid::rising(15.0, 1.0)], Level::Low);
        let plan = plan_single_input(&input, Level::High, TomOptions::default());
        let _ = plan.into_trace();
    }

    #[test]
    fn gate_model_predict_batch_applies_region() {
        use crate::region::ValidRegion;
        use sigchar::TransferSample;
        let mut samples = Vec::new();
        for i in 0..30 {
            let t = 0.2 + 0.1 * f64::from(i);
            for s in [1.0, -1.0] {
                samples.push(TransferSample {
                    t,
                    a_in: s * (8.0 + 0.2 * f64::from(i)),
                    a_prev_out: -s * 10.0,
                    a_out: -s * 12.0,
                    delay: 0.05,
                });
            }
        }
        let region = Arc::new(ValidRegion::from_samples(&samples, 2.0));
        let m = GateModel::new(Arc::new(MockTransfer { delay: 0.05 })).with_region(region);
        // Far outside the trained slopes: projection must kick in, and the
        // batch path must match the scalar path bit for bit.
        let queries = [
            TransferQuery {
                t: 0.5,
                a_in: 500.0,
                a_prev_out: -9.0,
            },
            TransferQuery {
                t: 2.0,
                a_in: -0.01,
                a_prev_out: 9.0,
            },
        ];
        let mut prepared = queries;
        let mut out = Vec::new();
        m.predict_batch(&mut prepared, &mut out);
        for (q, p) in queries.iter().zip(&out) {
            assert_eq!(*p, m.predict(*q));
        }
    }

    #[test]
    fn template_bind_matches_plan_cell() {
        // The compile/execute split of planning must be bit-identical to
        // the fused form for every cell function, including reused-scratch
        // binds across gates of different shapes.
        let i1 = trace(
            vec![
                Sigmoid::rising(15.0, 1.0),
                Sigmoid::falling(15.0, 1.04),
                Sigmoid::rising(15.0, 3.0),
            ],
            Level::Low,
        );
        let i2 = trace(
            vec![Sigmoid::rising(15.0, 2.0), Sigmoid::falling(15.0, 4.0)],
            Level::Low,
        );
        let hi = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        let opts = TomOptions::default();
        let m = model(0.06);
        let buf = GateModel::new(Arc::new(BufferMock { delay: 0.06 }));
        let mut scratch = PlanScratch::default();
        let cases: Vec<(CellFunction, Vec<&SigmoidTrace>)> = vec![
            (CellFunction::Inv, vec![&i1]),
            (CellFunction::Buf, vec![&i1]),
            (CellFunction::Nor, vec![&i1, &i2]),
            (CellFunction::Nand, vec![&i1, &hi]),
            (CellFunction::And, vec![&i1, &hi]),
            (CellFunction::Or, vec![&i1, &i2]),
            (CellFunction::Nor, vec![&i1, &i2, &hi]),
        ];
        for (function, inputs) in cases {
            let template = PlanTemplate::new(function, inputs.len());
            assert_eq!(template.function(), function);
            assert_eq!(template.arity(), inputs.len());
            let use_buffer = matches!(
                function,
                CellFunction::Buf | CellFunction::And | CellFunction::Or
            );
            let chosen = if use_buffer { &buf } else { &m };
            let fused = apply_plan(plan_cell(function, &inputs, opts), chosen);
            let bound = apply_plan(template.bind(&inputs, opts), chosen);
            let reused = apply_plan(template.bind_with(&inputs, opts, &mut scratch), chosen);
            assert_eq!(fused, bound, "{function:?}: bind differs from plan_cell");
            assert_eq!(fused, reused, "{function:?}: bind_with differs");
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn template_rejects_arity_mismatch() {
        let input = trace(vec![Sigmoid::rising(15.0, 1.0)], Level::Low);
        let template = PlanTemplate::new(CellFunction::Nor, 2);
        let _ = template.bind(&[&input], TomOptions::default());
    }

    #[test]
    fn trace_bit_identity_is_stricter_than_partial_eq() {
        let base = trace(
            vec![Sigmoid::rising(12.0, 1.0), Sigmoid::falling(10.0, 2.0)],
            Level::Low,
        );
        assert!(traces_bit_identical(&base, &base.clone()));
        // Different slope, different time, different length, different
        // initial level, different vdd: all distinguishable.
        let other = trace(
            vec![Sigmoid::rising(12.5, 1.0), Sigmoid::falling(10.0, 2.0)],
            Level::Low,
        );
        assert!(!traces_bit_identical(&base, &other));
        let shorter = trace(vec![Sigmoid::rising(12.0, 1.0)], Level::Low);
        assert!(!traces_bit_identical(&base, &shorter));
        assert!(!traces_bit_identical(
            &SigmoidTrace::constant(Level::Low, VDD_DEFAULT),
            &SigmoidTrace::constant(Level::High, VDD_DEFAULT)
        ));
        assert!(!traces_bit_identical(
            &SigmoidTrace::constant(Level::Low, VDD_DEFAULT),
            &SigmoidTrace::constant(Level::Low, 1.0)
        ));
        // −0.0 == 0.0 under IEEE comparison, but the bit patterns differ:
        // bit-identity must see through PartialEq here.
        let at_zero = trace(vec![Sigmoid::rising(12.0, 0.0)], Level::Low);
        let at_neg_zero = trace(vec![Sigmoid::rising(12.0, -0.0)], Level::Low);
        assert_eq!(at_zero, at_neg_zero, "IEEE equality treats ±0.0 as equal");
        assert!(!traces_bit_identical(&at_zero, &at_neg_zero));
    }

    #[test]
    fn empty_input_empty_output() {
        let input = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        let out = predict_single_input(&model(0.05), &input, Level::High, TomOptions::default());
        assert!(out.is_empty());
        assert_eq!(out.initial(), Level::High);
    }
}
