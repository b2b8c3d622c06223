//! Algorithm 1: output parameter prediction for single-input gates, plus
//! the sub-threshold pulse removal and the multi-input decision procedure
//! described in Sec. III.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

use sigwave::{Level, Sigmoid, SigmoidTrace};

use sigchar::{DUMMY_SLOPE, T_FAR};

use crate::memo::{LineMemo, MEMO_BYTES};
use crate::region::ValidRegion;
use crate::transfer::{TransferFunction, TransferPrediction, TransferQuery};

/// A gate model: a transfer function plus (optionally) its valid region.
///
/// With a region attached the model also holds a *snap table*: the
/// transfer's prediction for every training point at both `a_in` signs,
/// so a batched query that snaps onto a training point is a lookup (see
/// [`GateModel::with_region`]), and a *line memo* of certified nearest
/// points, which lets most batched rows skip the nearest search (see
/// [`GateModel::predict_batch_with`]). The fields are private because the
/// table and the memo must stay in step with the region.
#[derive(Clone)]
pub struct GateModel {
    transfer: Arc<dyn TransferFunction + Send + Sync>,
    region: Option<Arc<ValidRegion>>,
    /// Row `2·node` holds the prediction for a query snapped onto the
    /// region's training point `node` with a non-negative `a_in`, row
    /// `2·node + 1` for a negative one. Empty without a region.
    snapped: Arc<[TransferPrediction]>,
    /// The region's line memo, shared by every clone of the model.
    memo: Arc<Mutex<LineMemo>>,
}

impl std::fmt::Debug for GateModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateModel")
            .field("backend", &self.transfer.backend_name())
            .field("region", &self.region.as_ref().map(|r| r.len()))
            .finish()
    }
}

/// Reusable buffers of [`GateModel::predict_batch_with`]: the row index
/// and the prediction of each in-region query of a batch, and two monotone
/// counters of the rows that went through a valid region.
#[derive(Debug, Default)]
pub struct SnapScratch {
    rows: Vec<usize>,
    predictions: Vec<TransferPrediction>,
    memo_hits: u64,
    memo_searches: u64,
}

impl SnapScratch {
    /// Rows the line memo answered without a nearest search.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Rows that ran the nearest search: memo misses, and every row of a
    /// batch that found the memo busy.
    #[must_use]
    pub fn memo_searches(&self) -> u64 {
        self.memo_searches
    }

    /// Resets both counters to zero; the buffers stay.
    pub fn reset_counters(&mut self) {
        self.memo_hits = 0;
        self.memo_searches = 0;
    }
}

impl GateModel {
    /// The most heap bytes one line memo holds (62 KiB): it learns at most
    /// 512 lines and 2,048 intervals, then only widens the intervals it
    /// has. A model set holds at most one memo per slot.
    pub const SNAP_MEMO_BUDGET: usize = MEMO_BYTES;

    /// A model without valid-region projection.
    #[must_use]
    pub fn new(transfer: Arc<dyn TransferFunction + Send + Sync>) -> Self {
        Self {
            transfer,
            region: None,
            snapped: Arc::new([]),
            memo: Arc::default(),
        }
    }

    /// Attaches a valid region and builds its snap table with one
    /// [`TransferFunction::predict_batch`] over 2·N rows: each training
    /// point as the query a snapped query becomes, at both `a_in` signs.
    ///
    /// The table replaces later transfer calls, so it requires a *pure*
    /// transfer: its prediction must depend on the query bits alone (no
    /// interior state, no randomness). Batched predictions are
    /// bit-identical to scalar ones (the [`TransferFunction::predict_batch`]
    /// contract), so a table row equals what the scalar path computes for
    /// the same snapped query.
    #[must_use]
    pub fn with_region(mut self, region: Arc<ValidRegion>) -> Self {
        let rows: Vec<TransferQuery> = (0..region.len())
            .flat_map(|node| {
                let p = region.node_query(node);
                [1.0, -1.0].map(|sign| TransferQuery {
                    a_in: p.a_in.abs() * sign,
                    ..p
                })
            })
            .collect();
        let mut table = Vec::new();
        self.transfer.predict_batch(&rows, &mut table);
        self.snapped = table.into();
        self.region = Some(region);
        self.memo = Arc::default();
        self
    }

    /// The transfer backend (ANN in the paper, LUT/poly for comparison).
    #[must_use]
    pub fn transfer(&self) -> &Arc<dyn TransferFunction + Send + Sync> {
        &self.transfer
    }

    /// The valid region (Sec. IV-B); `None` disables projection (an
    /// ablation the benchmarks exercise).
    #[must_use]
    pub fn region(&self) -> Option<&Arc<ValidRegion>> {
        self.region.as_ref()
    }

    /// The heap bytes of the line memo, which clones share; at most
    /// [`GateModel::SNAP_MEMO_BUDGET`].
    #[must_use]
    pub fn snap_memo_bytes(&self) -> usize {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes()
    }

    /// Clamps a raw query to the trained domain and (when a region is
    /// attached) projects it into the valid region.
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

    /// The scalar prediction: prepare, then one transfer call. It never
    /// reads the snap table, so it is the oracle the batched path is
    /// tested against.
    fn predict(&self, query: TransferQuery) -> TransferPrediction {
        self.transfer.predict(self.prepare(query))
    }

    /// [`GateModel::predict_batch_with`] with buffers of its own, which
    /// it allocates only when some rows are in-region. Loops keep a
    /// [`SnapScratch`] and call `predict_batch_with` instead.
    pub fn predict_batch(&self, queries: &mut [TransferQuery], out: &mut Vec<TransferPrediction>) {
        self.predict_batch_with(queries, out, &mut SnapScratch::default());
    }

    /// Predicts a batch of independent queries, overwriting `out` with one
    /// prediction per query, in order, bit-identical to the scalar
    /// prediction of each.
    ///
    /// Without a region every query is clamped in place and the batch goes
    /// to [`TransferFunction::predict_batch`] in one call. With a region,
    /// a query that snaps onto a training point is answered from the snap
    /// table; the in-region queries are compacted to the front of
    /// `queries` and go to the transfer as one batch. `queries` is
    /// scratch: its contents afterwards are unspecified.
    ///
    /// The nearest training point of each clamped query comes from the
    /// model's line memo when the memo holds a certified interval around
    /// it, and from the search otherwise, which may widen the memo; both
    /// give the same node and membership bit for bit. The memo is locked
    /// once per call with `try_lock`: a batch that finds it busy searches
    /// every row.
    pub fn predict_batch_with(
        &self,
        queries: &mut [TransferQuery],
        out: &mut Vec<TransferPrediction>,
        scratch: &mut SnapScratch,
    ) {
        let Some(region) = &self.region else {
            for q in queries.iter_mut() {
                *q = q.clamped();
            }
            self.transfer.predict_batch(queries, out);
            return;
        };
        let SnapScratch {
            rows,
            predictions,
            memo_hits,
            memo_searches,
        } = scratch;
        rows.clear();
        out.clear();
        // A row that panicked (a non-finite query) left the memo whole:
        // panics come before or after a lookup or an update, not within.
        let mut memo = match self.memo.try_lock() {
            Ok(memo) => Some(memo),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        for i in 0..queries.len() {
            let q = queries[i].clamped();
            let (node, hit) = region.snap_node(&q, memo.as_deref_mut());
            if hit {
                *memo_hits += 1;
            } else {
                *memo_searches += 1;
            }
            match node {
                // The scalar path's snapped query takes `a_in`'s sign from
                // `signum`, which is -1 exactly for the negative sign bit.
                Some(node) => {
                    out.push(self.snapped[2 * node + usize::from(q.a_in.is_sign_negative())]);
                }
                // Inside, `prepare` keeps the clamped query's bits
                // (`|a|·signum(a) == a`, also for ±0.0).
                None => {
                    queries[rows.len()] = q;
                    rows.push(i);
                    out.push(TransferPrediction {
                        a_out: f64::NAN,
                        delay: f64::NAN,
                    });
                }
            }
        }
        // Other batches may use the memo while the transfer runs.
        drop(memo);
        if rows.is_empty() {
            return;
        }
        self.transfer
            .predict_batch(&queries[..rows.len()], predictions);
        for (&i, &p) in rows.iter().zip(predictions.iter()) {
            out[i] = p;
        }
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
    /// `capacity` is the number of relevant input transitions: each adds
    /// at most one output transition, so the list never reallocates.
    fn new(initial: Level, options: TomOptions, capacity: usize) -> Self {
        Self {
            transitions: Vec::with_capacity(capacity),
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
///    of *other* gates via [`GateModel::predict_batch_with`] —
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
        state: OutputState::new(initial_output, options, input.transitions().len()),
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
        let capacity = relevant.len();
        GatePlan {
            relevant: Cow::Owned(relevant),
            cursor: 0,
            state: OutputState::new(initial_out, options, capacity),
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
/// [`GateModel::predict_batch_with`]; both produce identical traces.)
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

    /// A transfer whose output depends on every query field and the sign
    /// of `a_in`, counting the rows that reach its batch path.
    #[derive(Default)]
    struct Probe {
        rows: std::sync::atomic::AtomicUsize,
    }

    impl TransferFunction for Probe {
        fn predict(&self, q: TransferQuery) -> TransferPrediction {
            TransferPrediction {
                a_out: -q.a_in.signum() * (10.0 + q.t + 0.1 * q.a_prev_out.abs()),
                delay: 0.05 + 0.01 * q.t + 0.001 * q.a_in + 0.0001 * q.a_prev_out,
            }
        }
        fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
            self.rows
                .fetch_add(queries.len(), std::sync::atomic::Ordering::Relaxed);
            out.clear();
            out.extend(queries.iter().map(|&q| self.predict(q)));
        }
        fn backend_name(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn predict_batch_matches_scalar_on_snapped_and_in_region_rows() {
        use crate::region::ValidRegion;
        use std::sync::atomic::Ordering;
        // Training points whose slopes straddle zero, so `a_in = ±0.0`
        // lands both inside the region and (far off in T) outside it.
        let mut pts = Vec::new();
        for t in [0.5, 1.0, 1.5, 2.0] {
            for a_in in [-1.0, -0.5, 0.0, 0.5, 1.0] {
                for a_prev in [-1.0, 0.0, 1.0] {
                    pts.push([t, a_in, a_prev]);
                }
            }
        }
        let region = Arc::new(ValidRegion::build(&pts, 1.0));
        let probe = Arc::new(Probe::default());
        let m = GateModel::new(Arc::clone(&probe) as _).with_region(Arc::clone(&region));
        assert_eq!(probe.rows.swap(0, Ordering::Relaxed), 2 * pts.len());
        let mut queries = Vec::new();
        for t in [0.5, 1.26, 2.0, 40.0] {
            for a_in in [0.0, -0.0, 0.5, -0.5, 0.77, -0.77, 30.0, -30.0] {
                for a_prev in [-1.0, 0.4, 9.0] {
                    queries.push(TransferQuery {
                        t,
                        a_in,
                        a_prev_out: a_prev,
                    });
                }
            }
        }
        let inside = |q: &TransferQuery| region.contains(&q.clamped());
        for sign in [false, true] {
            for kind in [false, true] {
                assert!(
                    queries
                        .iter()
                        .any(|q| q.a_in.is_sign_negative() == sign && inside(q) == kind),
                    "no {} row with negative a_in = {sign}",
                    if kind { "in-region" } else { "snapped" }
                );
            }
        }
        for zero in [0.0f64, -0.0] {
            let rows = queries
                .iter()
                .filter(|q| q.a_in.to_bits() == zero.to_bits());
            let kinds: Vec<bool> = rows.map(inside).collect();
            assert!(
                kinds.contains(&true) && kinds.contains(&false),
                "a_in = {zero:?}"
            );
        }

        let mut scratch = SnapScratch::default();
        let mut out = Vec::new();
        // Twice through one scratch, then a shorter batch: reused buffers
        // must not leak rows between calls.
        for batch in [&queries[..], &queries[..], &queries[5..17]] {
            let mut rows = batch.to_vec();
            m.predict_batch_with(&mut rows, &mut out, &mut scratch);
            assert_eq!(out.len(), batch.len());
            for (q, p) in batch.iter().zip(&out) {
                let scalar = m.predict(*q);
                assert_eq!(
                    [p.a_out.to_bits(), p.delay.to_bits()],
                    [scalar.a_out.to_bits(), scalar.delay.to_bits()],
                    "{q:?}: batch {p:?} vs scalar {scalar:?}"
                );
            }
            // Only the in-region rows reach the transfer.
            assert_eq!(
                probe.rows.swap(0, Ordering::Relaxed),
                batch.iter().filter(|q| inside(q)).count()
            );
        }
        let mut rows = queries.clone();
        let mut convenience = Vec::new();
        m.predict_batch(&mut rows, &mut convenience);
        m.predict_batch_with(&mut queries, &mut out, &mut scratch);
        assert_eq!(convenience, out);
    }

    /// Runs `rows` through `m` in batches of random sizes (cut by `rng`)
    /// and checks every row against the scalar prediction, bit for bit.
    fn assert_batches_match_scalar(
        m: &GateModel,
        rows: &[TransferQuery],
        scratch: &mut SnapScratch,
        rng: &mut rand::rngs::StdRng,
    ) {
        use rand::Rng;
        let mut out = Vec::new();
        let mut at = 0;
        while at < rows.len() {
            let end = (at + rng.gen_range(1..64usize)).min(rows.len());
            let mut batch = rows[at..end].to_vec();
            m.predict_batch_with(&mut batch, &mut out, scratch);
            for (q, p) in rows[at..end].iter().zip(&out) {
                let scalar = m.predict(*q);
                assert_eq!(
                    [p.a_out.to_bits(), p.delay.to_bits()],
                    [scalar.a_out.to_bits(), scalar.delay.to_bits()],
                    "{q:?}: memo {p:?} vs scalar {scalar:?}"
                );
            }
            at = end;
        }
    }

    /// The normalization of the regions the memo tests build: anchors at
    /// `[0, -4, -4]` and `[4, 4, 4]` make every axis scale a power of two,
    /// so normalized coordinates are exact and ties stay ties.
    const MEMO_SCALES: [f64; 3] = [4.0, 8.0, 8.0];
    const MEMO_ANCHORS: [[f64; 3]; 2] = [[0.0, -4.0, -4.0], [4.0, 4.0, 4.0]];

    fn memo_dist2(p: [f64; 3], q: TransferQuery) -> f64 {
        let q = q.clamped();
        let d = [q.t, q.a_in, q.a_prev_out]
            .iter()
            .zip(p)
            .zip(MEMO_SCALES)
            .map(|((&c, p), s)| p / s - c / s)
            .collect::<Vec<_>>();
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    proptest::proptest! {
        #[test]
        fn memo_rows_match_scalar_on_cold_and_warm_memos(seed in 0u64..u64::MAX) {
            use crate::region::ValidRegion;
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Grid points, so repeated points and exact ties are common;
            // t covers 0..=T_FAR.
            let steps = [4u32, 8, 16][rng.gen_range(0..3usize)];
            let grid = |rng: &mut rand::rngs::StdRng| -> [f64; 3] {
                [
                    f64::from(rng.gen_range(0..13u32)) * 0.25,
                    f64::from(rng.gen_range(0..steps)) * 8.0 / f64::from(steps) - 4.0,
                    f64::from(rng.gen_range(0..steps)) * 8.0 / f64::from(steps) - 4.0,
                ]
            };
            let count = [20, 200, 900][rng.gen_range(0..3usize)];
            let mut pts: Vec<[f64; 3]> = MEMO_ANCHORS.to_vec();
            pts.extend((0..rng.gen_range(1..count)).map(|_| grid(&mut rng)));
            for _ in 0..rng.gen_range(0..8usize) {
                let again = pts[rng.gen_range(0..pts.len())];
                pts.push(again);
            }
            let region = Arc::new(ValidRegion::build(&pts, rng.gen_range(0.3..4.0f64)));
            let m = GateModel::new(Arc::new(Probe::default())).with_region(region);

            // Lines through grid values, midway between them and off the
            // grid; each `a_in` also on a second `a_prev_out`.
            let mut lines = Vec::new();
            for _ in 0..12 {
                let base = grid(&mut rng);
                let other = grid(&mut rng);
                let (a_in, a_prev) = match rng.gen_range(0..3u32) {
                    0 => (base[1], base[2]),
                    1 => ((base[1] + other[1]) / 2.0, (base[2] + other[2]) / 2.0),
                    _ => (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)),
                };
                lines.push((a_in, a_prev));
                lines.push((a_in, other[2]));
            }
            lines.push((0.0, -0.0));
            lines.push((-0.0, 1.0));
            let mut rows = Vec::new();
            for &(a_in, a_prev_out) in &lines {
                let row = |t: f64| TransferQuery { t, a_in, a_prev_out };
                // Samples along the line, clamped rows past T_FAR, and
                // the breakpoints between consecutive nearest points with
                // one ulp either side.
                let mut ts: Vec<f64> = (0..24).map(|_| rng.gen_range(-0.5..3.5)).collect();
                ts.extend([T_FAR, T_FAR.next_up(), 7.0]);
                ts.sort_by(f64::total_cmp);
                let nearest = |t: f64| {
                    (0..pts.len())
                        .min_by(|&i, &j| memo_dist2(pts[i], row(t)).total_cmp(&memo_dist2(pts[j], row(t))))
                        .expect("points")
                };
                for pair in ts.clone().windows(2) {
                    let (p, r) = (pts[nearest(pair[0])], pts[nearest(pair[1])]);
                    let x = |c: [f64; 3]| c[0] / MEMO_SCALES[0];
                    if x(p) == x(r) {
                        continue;
                    }
                    let yz = |c: [f64; 3]| {
                        let q = row(0.0);
                        let dy = c[1] / MEMO_SCALES[1] - q.a_in / MEMO_SCALES[1];
                        let dz = c[2] / MEMO_SCALES[2] - q.a_prev_out / MEMO_SCALES[2];
                        dy * dy + dz * dz
                    };
                    let cut = (x(r) * x(r) - x(p) * x(p) + yz(r) - yz(p)) / (2.0 * (x(r) - x(p)));
                    let t = cut * MEMO_SCALES[0];
                    ts.extend([t.next_down(), t, t.next_up()]);
                }
                rows.extend(ts.into_iter().map(row));
            }
            let mut scratch = SnapScratch::default();
            for _pass in 0..3 {
                rows.shuffle(&mut rng);
                assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
            }
            proptest::prop_assert_eq!(
                scratch.memo_hits() + scratch.memo_searches(),
                3 * rows.len() as u64
            );
        }
    }

    #[test]
    fn warm_memo_answers_rows_without_searching() {
        use crate::region::ValidRegion;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut pts: Vec<[f64; 3]> = MEMO_ANCHORS.to_vec();
        pts.extend((0..300).map(|_| {
            [
                rng.gen_range(0.0..3.0),
                rng.gen_range(-4.0..4.0),
                rng.gen_range(-4.0..4.0),
            ]
        }));
        let region = Arc::new(ValidRegion::build(&pts, 1.0));
        let m = GateModel::new(Arc::new(Probe::default())).with_region(region);
        let rows: Vec<TransferQuery> = (0..2000)
            .map(|i| TransferQuery {
                t: rng.gen_range(-0.2..3.4),
                a_in: [-3.0, 1.5, 2.25][i % 3],
                a_prev_out: [0.5, -1.0][i % 2],
            })
            .collect();
        let mut scratch = SnapScratch::default();
        assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
        let cold = (scratch.memo_hits(), scratch.memo_searches());
        scratch.reset_counters();
        assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
        // Six lines: after one pass every row but those near a cell
        // boundary or beyond the extent of the training t is certified.
        assert!(cold.0 > 0 && cold.1 > 0, "{cold:?}");
        assert!(
            scratch.memo_hits() > 20 * scratch.memo_searches(),
            "{} hits, {} searches",
            scratch.memo_hits(),
            scratch.memo_searches()
        );
        // Clones share the memo.
        let clone = m.clone();
        assert!(Arc::ptr_eq(&clone.memo, &m.memo));
        scratch.reset_counters();
        assert_batches_match_scalar(&clone, &rows[..100], &mut scratch, &mut rng);
        assert!(scratch.memo_hits() > 90, "{}", scratch.memo_hits());
        // A busy memo leaves every row of the batch to the search.
        let held = m.memo.lock().unwrap();
        scratch.reset_counters();
        assert_batches_match_scalar(&clone, &rows[..100], &mut scratch, &mut rng);
        assert_eq!((scratch.memo_hits(), scratch.memo_searches()), (0, 100));
        drop(held);
    }

    #[test]
    fn a_line_equidistant_from_two_points_is_never_certified() {
        use crate::region::ValidRegion;
        use rand::{Rng, SeedableRng};
        // Along the line (a_in, a_prev_out) = (1, 1), points p and r are
        // exactly equally far in every normalized coordinate sum:
        // 0.1875² + 0.25² = 0.3125². Their rounded distances differ by an
        // ulp either way or tie, depending on t, so only the rounding
        // margin keeps the memo from bracketing rows where the other
        // point is the nearest.
        let (p, r) = ([1.0, 2.5, 3.0], [1.0, 3.5, 1.0]);
        let mut pts: Vec<[f64; 3]> = MEMO_ANCHORS.to_vec();
        pts.extend([p, r]);
        let region = Arc::new(ValidRegion::build(&pts, 0.01));
        let m = GateModel::new(Arc::new(Probe::default())).with_region(region);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Up to t = 2.5 no anchor comes nearer than p or r.
        let rows: Vec<TransferQuery> = (0..4000)
            .map(|_| TransferQuery {
                t: rng.gen_range(0.0..2.5),
                a_in: 1.0,
                a_prev_out: 1.0,
            })
            .collect();
        let nearer = |t: f64| {
            let q = TransferQuery {
                t,
                a_in: 1.0,
                a_prev_out: 1.0,
            };
            memo_dist2(p, q).total_cmp(&memo_dist2(r, q))
        };
        let sides: Vec<_> = rows.iter().map(|q| nearer(q.t)).collect();
        for side in [
            std::cmp::Ordering::Less,
            std::cmp::Ordering::Equal,
            std::cmp::Ordering::Greater,
        ] {
            assert!(sides.contains(&side), "no row with p {side:?} r");
        }
        let mut scratch = SnapScratch::default();
        for _pass in 0..2 {
            assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
        }
        assert_eq!(scratch.memo_hits(), 0);
    }

    #[test]
    fn a_flood_of_lines_stays_within_the_budget() {
        use crate::region::ValidRegion;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut pts: Vec<[f64; 3]> = MEMO_ANCHORS.to_vec();
        pts.extend((0..400).map(|_| {
            [
                rng.gen_range(0.0..3.0),
                rng.gen_range(-4.0..4.0),
                rng.gen_range(-4.0..4.0),
            ]
        }));
        let region = Arc::new(ValidRegion::build(&pts, 1.0));
        let m = GateModel::new(Arc::new(Probe::default())).with_region(region);
        let line =
            |rng: &mut rand::rngs::StdRng| (rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0));
        let rows_of = |(a_in, a_prev_out): (f64, f64), rng: &mut rand::rngs::StdRng| {
            (0..6)
                .map(|_| TransferQuery {
                    t: rng.gen_range(0.0..3.0),
                    a_in,
                    a_prev_out,
                })
                .collect::<Vec<_>>()
        };
        let mut scratch = SnapScratch::default();
        // Every row of a distinct line: far more lines than the memo
        // holds, and many more intervals.
        for _ in 0..40 {
            let rows: Vec<TransferQuery> = (0..200)
                .flat_map(|_| rows_of(line(&mut rng), &mut rng))
                .collect();
            assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
            assert!(m.snap_memo_bytes() <= GateModel::SNAP_MEMO_BUDGET);
        }
        assert!(m.snap_memo_bytes() > GateModel::SNAP_MEMO_BUDGET / 4);
        // Traffic that settles on a few new lines gets them learned: the
        // certified searches the full memo refuses make it sweep out the
        // flood's lines, and rows stay exact throughout.
        let settled: Vec<(f64, f64)> = (0..8).map(|_| line(&mut rng)).collect();
        for _pass in 0..40 {
            scratch.reset_counters();
            let rows: Vec<TransferQuery> =
                settled.iter().flat_map(|&l| rows_of(l, &mut rng)).collect();
            assert_batches_match_scalar(&m, &rows, &mut scratch, &mut rng);
            assert!(m.snap_memo_bytes() <= GateModel::SNAP_MEMO_BUDGET);
        }
        assert!(
            scratch.memo_hits() > scratch.memo_searches(),
            "{} hits, {} searches",
            scratch.memo_hits(),
            scratch.memo_searches()
        );
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
