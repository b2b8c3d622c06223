//! Sigmoidal traces: waveforms represented as sums of sigmoids (Eq. 2).

use serde::{Deserialize, Serialize};

use crate::{to_scaled_time, DigitalTrace, Level, Sigmoid, Waveform};

/// A waveform expressed as the joint model function of Eq. 2:
///
/// `F_T(t) = VDD · ( Σᵢ Fs(t, aᵢ, bᵢ) − k )`
///
/// where the offset `k` makes the trace start at the initial logic level
/// (the paper supplies `F_T − k · VDD` to the fitting algorithm because a
/// sum of `N` sigmoids settles between `k·VDD` and `(k+1)·VDD`).
///
/// Transitions must alternate in polarity, starting with the polarity that
/// leaves the initial level — this is the invariant every well-formed signal
/// trace in the paper satisfies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SigmoidTrace {
    initial: Level,
    transitions: Vec<Sigmoid>,
    vdd: f64,
}

/// Error constructing a [`SigmoidTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildTraceError {
    /// Transition `index` has the same polarity as its predecessor (or, for
    /// index 0, does not leave the initial level).
    PolarityViolation {
        /// Index of the offending transition.
        index: usize,
    },
    /// Crossing times `b` are not non-decreasing.
    OutOfOrder {
        /// Index of the offending transition.
        index: usize,
    },
    /// `vdd` must be positive and finite.
    InvalidVdd(f64),
}

impl std::fmt::Display for BuildTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PolarityViolation { index } => write!(
                f,
                "transition {index} does not alternate polarity with its predecessor"
            ),
            Self::OutOfOrder { index } => {
                write!(f, "transition {index} is earlier than its predecessor")
            }
            Self::InvalidVdd(v) => write!(f, "vdd must be positive and finite, got {v}"),
        }
    }
}

impl std::error::Error for BuildTraceError {}

impl SigmoidTrace {
    /// Creates a trace from an initial level and alternating transitions.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTraceError`] if polarities do not alternate starting
    /// away from `initial`, if the crossing times are not sorted, or if
    /// `vdd` is invalid.
    pub fn from_transitions(
        initial: Level,
        transitions: Vec<Sigmoid>,
        vdd: f64,
    ) -> Result<Self, BuildTraceError> {
        if !vdd.is_finite() || vdd <= 0.0 {
            return Err(BuildTraceError::InvalidVdd(vdd));
        }
        let mut expect_rising = matches!(initial, Level::Low);
        for (i, s) in transitions.iter().enumerate() {
            if s.is_rising() != expect_rising {
                return Err(BuildTraceError::PolarityViolation { index: i });
            }
            expect_rising = !expect_rising;
            if i > 0 && transitions[i - 1].b > s.b {
                return Err(BuildTraceError::OutOfOrder { index: i });
            }
        }
        Ok(Self {
            initial,
            transitions,
            vdd,
        })
    }

    /// A constant trace at the given level with no transitions.
    #[must_use]
    pub fn constant(level: Level, vdd: f64) -> Self {
        Self {
            initial: level,
            transitions: Vec::new(),
            vdd,
        }
    }

    /// The initial logic level (value at `t = -∞`).
    #[must_use]
    pub fn initial(&self) -> Level {
        self.initial
    }

    /// The supply voltage scaling the trace.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The sigmoid transitions, ordered by crossing time.
    #[must_use]
    pub fn transitions(&self) -> &[Sigmoid] {
        &self.transitions
    }

    /// Number of transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// `true` if the trace has no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The offset `k` of Eq. 2: the number of falling sigmoids minus one if
    /// the trace starts high (each falling sigmoid contributes 1 at `-∞`).
    #[must_use]
    pub fn offset_k(&self) -> f64 {
        let falling = self.transitions.iter().filter(|s| !s.is_rising()).count() as f64;
        match self.initial {
            Level::Low => falling,
            Level::High => falling - 1.0,
        }
    }

    /// Evaluates the trace voltage at scaled time `x = t · 10^10`.
    #[must_use]
    pub fn value_at_scaled(&self, x: f64) -> f64 {
        self.value_with_offset(x, self.offset_k())
    }

    /// [`Self::value_at_scaled`] with the offset `k` computed once by the
    /// caller.
    fn value_with_offset(&self, x: f64, k: f64) -> f64 {
        #[cfg(test)]
        tests::count(1, 0);
        let sum: f64 = self.transitions.iter().map(|s| s.eval_scaled(x)).sum();
        self.vdd * (sum - k)
    }

    /// Evaluates the trace voltage at a time in seconds.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        self.value_at_scaled(to_scaled_time(t))
    }

    /// The final logic level after all transitions.
    #[must_use]
    pub fn final_level(&self) -> Level {
        if self.transitions.len().is_multiple_of(2) {
            self.initial
        } else {
            self.initial.inverted()
        }
    }

    /// Appends a transition.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTraceError`] if the polarity does not alternate or the
    /// crossing time precedes the last transition.
    pub fn push(&mut self, s: Sigmoid) -> Result<(), BuildTraceError> {
        let expect_rising = !self.final_level().is_high();
        let index = self.transitions.len();
        if s.is_rising() != expect_rising {
            return Err(BuildTraceError::PolarityViolation { index });
        }
        if let Some(last) = self.transitions.last() {
            if last.b > s.b {
                return Err(BuildTraceError::OutOfOrder { index });
            }
        }
        self.transitions.push(s);
        Ok(())
    }

    /// Digitizes the trace at `threshold` volts into Heaviside transitions.
    ///
    /// The trace is read on a uniform grid of scaled times, padded by the
    /// widest transition and dense enough to resolve the steepest one.
    /// Every side change between neighbouring samples becomes one toggle,
    /// refined by up to 60 bisection steps, so overlapping transitions
    /// (degraded pulses) resolve correctly and sub-threshold pulses
    /// produce *no* digital transitions.
    ///
    /// The grid is not evaluated sample by sample. A certify-or-split scan
    /// bounds whole index ranges from their endpoints (each logistic term
    /// is monotone in time) and skips every range whose bound clears the
    /// threshold by a rounding margin; only the samples and bisection
    /// midpoints the margin cannot settle are evaluated exactly. The
    /// result is bit-identical to evaluating every sample (see
    /// `docs/architecture.md` § Response path).
    #[must_use]
    pub fn digitize(&self, threshold: f64) -> DigitalTrace {
        if self.transitions.is_empty() {
            return DigitalTrace::constant(self.initial);
        }
        let (x0, dt, n) = self.grid();
        Digitizer::new(self, threshold, x0, dt).run(n)
    }

    /// The sampling grid of [`Self::digitize`]: the first sample `x0`, the
    /// spacing `dt` and the sample count `n` (scaled time units).
    fn grid(&self) -> (f64, f64, usize) {
        // Sampling window: pad by the widest transition.
        let first = self.transitions.first().expect("non-empty");
        let last = self.transitions.last().expect("non-empty");
        let max_width = self
            .transitions
            .iter()
            .map(|s| 20.0 / s.a.abs())
            .fold(0.0f64, f64::max);
        let x0 = first.b - max_width;
        let x1 = last.b + max_width;
        // Dense enough to catch the narrowest pulse: resolve each sigmoid's
        // width with several samples.
        let min_width = self
            .transitions
            .iter()
            .map(|s| 1.0 / s.a.abs())
            .fold(f64::INFINITY, f64::min);
        let step = (min_width / 4.0).min((x1 - x0) / 256.0);
        let n = (((x1 - x0) / step).ceil() as usize).clamp(257, 2_000_000) + 1;
        let dt = (x1 - x0) / (n - 1) as f64;
        (x0, dt, n)
    }

    /// Renders the trace into a sampled [`Waveform`] on `[t0, t1]` seconds
    /// with `n` points.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t0 >= t1`.
    #[must_use]
    pub fn to_waveform(&self, t0: f64, t1: f64, n: usize) -> Waveform {
        Waveform::from_fn(t0, t1, n, |t| self.value_at(t))
    }

    /// Consumes the trace and returns its transitions.
    #[must_use]
    pub fn into_transitions(self) -> Vec<Sigmoid> {
        self.transitions
    }
}

/// Terms whose exponent `z = a (x − b)` reaches `±SATURATED` enter the
/// scan's estimates as exactly 1 or 0, without an `exp`. `e^-37 < 2^-53`,
/// so the reference evaluates such a term to exactly 1.0, or to at most
/// `2^-53`.
const SATURATED: f64 = 37.0;

/// One term's estimate at scaled time `x`: the reference value
/// ([`Sigmoid::eval_scaled`]), or exactly 0 or 1 once saturated.
fn estimate(s: &Sigmoid, x: f64) -> f64 {
    #[cfg(test)]
    tests::count(0, 1);
    let z = s.a * (x - s.b);
    if z >= SATURATED {
        1.0
    } else if z <= -SATURATED {
        0.0
    } else {
        crate::sigmoid::logistic(z)
    }
}

/// The rounding margin on a sum of `m` term estimates.
///
/// The reference decides a sample's side as `fl(vdd · fl(S − k)) >
/// threshold`, where `S` sums the `m` computed terms left to right. Each
/// rounding step is monotone, so the decision is monotone in `S`: where
/// it agrees at both ends of an interval of sums, it holds on the whole
/// interval. With `u = 2^-53`, the sum `S` at any sample of a grid range
/// lies within `u (m + 4)²` of the bounds built from the range's
/// endpoints:
///
/// * a computed term lies within `3u` of the exact logistic of its
///   rounded exponent (`exp` within one ulp, then one addition and one
///   division), and a saturated estimate within `u` of it;
/// * the rounded exponent `fl(a · fl(x − b))` is monotone in `x`, and the
///   grid samples are monotone in their index, so a term's exact logistic
///   at an interior sample lies between its endpoint values: the smaller
///   (larger) endpoint estimate bounds the computed term to within `6u`;
/// * summing `m` terms in `[0, 1]` rounds by at most `u · m(m+1)/2`, once
///   in the reference and once in the bound, and widening the bound by
///   the margin rounds by at most `u · m`.
///
/// That totals `u (m² + 8m) ≤ u (m + 4)²`; the margin is eight times it.
fn sum_margin(m: usize) -> f64 {
    let w = m as f64 + 4.0;
    4.0 * f64::EPSILON * w * w
}

/// The certify-or-split scan of [`SigmoidTrace::digitize`] over the grid
/// samples `x0 + i·dt`.
struct Digitizer<'a> {
    trace: &'a SigmoidTrace,
    threshold: f64,
    /// The offset `k` of Eq. 2, computed once.
    k: f64,
    x0: f64,
    dt: f64,
    /// [`sum_margin`] for the trace's transition count.
    margin: f64,
    /// Term estimates, one slot of `m` per grid index the recursion
    /// holds: slots 0 and 1 are the grid's ends, slot `d + 2` the
    /// midpoint split at depth `d`.
    slots: Vec<f64>,
    toggles: Vec<f64>,
}

impl<'a> Digitizer<'a> {
    fn new(trace: &'a SigmoidTrace, threshold: f64, x0: f64, dt: f64) -> Self {
        Self {
            trace,
            threshold,
            k: trace.offset_k(),
            x0,
            dt,
            margin: sum_margin(trace.len()),
            slots: Vec::new(),
            toggles: Vec::new(),
        }
    }

    /// Digitizes grid samples `0..n`.
    fn run(mut self, n: usize) -> DigitalTrace {
        // Halving `n - 1` down to single steps takes at most this many
        // splits, each holding one midpoint slot.
        let depth = (usize::BITS - (n - 1).leading_zeros()) as usize;
        self.slots = vec![0.0; (depth + 2) * self.trace.len()];
        self.estimate_into(0, self.x(0));
        self.estimate_into(1, self.x(n - 1));
        let initial = self.side(self.x(0), self.sum(0));
        self.scan(0, n - 1, (0, 1), 2, initial);
        DigitalTrace::new(Level::from_bool(initial), self.toggles)
            .expect("bisection times increase")
    }

    /// Grid sample `i`, computed exactly as a sample-by-sample loop does.
    fn x(&self, i: usize) -> f64 {
        if i == 0 {
            self.x0
        } else {
            self.x0 + i as f64 * self.dt
        }
    }

    fn slot(&self, s: usize) -> &[f64] {
        let m = self.trace.len();
        &self.slots[s * m..(s + 1) * m]
    }

    fn estimate_into(&mut self, s: usize, x: f64) {
        let m = self.trace.len();
        let slot = &mut self.slots[s * m..(s + 1) * m];
        for (e, t) in slot.iter_mut().zip(&self.trace.transitions) {
            *e = estimate(t, x);
        }
    }

    fn sum(&self, s: usize) -> f64 {
        self.slot(s).iter().sum()
    }

    /// `Some(side)` when every term sum in `[lo, hi]`, widened by the
    /// margin, lies on the same side of the threshold.
    fn certify(&self, lo: f64, hi: f64) -> Option<bool> {
        let above = |s: f64| self.trace.vdd * (s - self.k) > self.threshold;
        let side = above(lo - self.margin);
        (side == above(hi + self.margin)).then_some(side)
    }

    /// The side of the point `x` whose term estimates sum to `estimate`:
    /// certified when the margin allows, else the reference value's.
    fn side(&self, x: f64, estimate: f64) -> bool {
        self.certify(estimate, estimate)
            .unwrap_or_else(|| self.trace.value_with_offset(x, self.k) > self.threshold)
    }

    /// Scans grid samples `l..=r` given the side of sample `l`, pushes one
    /// toggle per side change, and returns the side of sample `r`. `ends`
    /// names the slots holding the estimates at `l` and `r`; `free` is the
    /// first slot this call may overwrite.
    fn scan(
        &mut self,
        l: usize,
        r: usize,
        ends: (usize, usize),
        free: usize,
        side_l: bool,
    ) -> bool {
        let (lo, hi) = self
            .slot(ends.0)
            .iter()
            .zip(self.slot(ends.1))
            .fold((0.0, 0.0), |(lo, hi), (&a, &b)| {
                (lo + a.min(b), hi + a.max(b))
            });
        if let Some(side) = self.certify(lo, hi) {
            return side;
        }
        if r == l + 1 {
            let side_r = self.side(self.x(r), self.sum(ends.1));
            if side_r != side_l {
                let t = self.bisect(self.x(l), self.x(r), side_l, ends);
                self.toggles.push(t);
            }
            return side_r;
        }
        let mid = l + (r - l) / 2;
        self.estimate_into(free, self.x(mid));
        let side_mid = self.scan(l, mid, (ends.0, free), free + 1, side_l);
        self.scan(mid, r, (free, ends.1), free + 1, side_mid)
    }

    /// A bound on how fast the term sum moves between the grid samples
    /// whose estimates sit in slots `ends`: term `i` moves at most
    /// `|a_i| σ'(z)`, and `σ' = σ (1 − σ)` is largest at the end nearer
    /// `z = 0`, or `1/4` where `z` changes sign in between. The `4ε` per
    /// term covers rounding and saturated estimates.
    fn slope_bound(&self, ends: (usize, usize)) -> f64 {
        let peak = |t: f64| t * (1.0 - t);
        self.trace
            .transitions
            .iter()
            .zip(self.slot(ends.0).iter().zip(self.slot(ends.1)))
            .map(|(s, (&p, &q))| {
                let d = if (p >= 0.5) == (q >= 0.5) {
                    peak(p).max(peak(q))
                } else {
                    0.25
                };
                s.a.abs() * (d + 4.0 * f64::EPSILON)
            })
            .sum()
    }

    /// Bisects between grid samples `lo` and `hi` (estimates in slots
    /// `ends`), which lie on opposite sides, for the crossing: the
    /// reference's 60 steps, stopped early at their fixed point.
    ///
    /// An estimate that clears the threshold by `reach` plus the margin
    /// settles its neighbourhood too. The sum moves at most `slope` per
    /// scaled time unit between the samples, so every point within
    /// `reach / slope` of the midpoint has its side; later midpoints that
    /// close take that side without an evaluation. The rounding this adds
    /// (rounded exponents, the slope's own sum, the distance check) stays
    /// below `2u (m + 4)²`, a quarter of the margin. Every other midpoint
    /// is decided as a grid sample is ([`Self::side`]).
    fn bisect(&self, mut lo: f64, mut hi: f64, lo_above: bool, ends: (usize, usize)) -> f64 {
        let slope = self.slope_bound(ends);
        // The threshold in sum units, up to rounding: it only sizes a
        // reach, which `certify` then checks.
        let target = self.threshold / self.trace.vdd + self.k;
        // The last certified midpoint on each side and its reach.
        let mut near_lo = (lo, 0.0);
        let mut near_hi = (hi, 0.0);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            // `lo` keeps the side `lo_above` and `hi` the other one, so a
            // midpoint equal to either end leaves both unchanged, now and
            // in every remaining step.
            if mid == lo || mid == hi {
                break;
            }
            let above = if slope * (mid - near_lo.0) <= near_lo.1 {
                lo_above
            } else if slope * (near_hi.0 - mid) <= near_hi.1 {
                !lo_above
            } else {
                let estimate: f64 = self
                    .trace
                    .transitions
                    .iter()
                    .map(|s| estimate(s, mid))
                    .sum();
                let reach = (estimate - target).abs() - 2.0 * self.margin;
                match self.certify(estimate - reach, estimate + reach) {
                    Some(side) if reach > 0.0 => {
                        if side == lo_above {
                            near_lo = (mid, reach);
                        } else {
                            near_hi = (mid, reach);
                        }
                        side
                    }
                    _ => self.side(mid, estimate),
                }
            };
            if above == lo_above {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        crate::to_seconds(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VDD_DEFAULT;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// `(exact trace evaluations, term estimates)` made on this thread.
        static EVALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count(exact: u64, terms: u64) {
        EVALS.with(|c| {
            let (e, t) = c.get();
            c.set((e + exact, t + terms));
        });
    }

    /// Runs `f` and returns its result with the `(exact, terms)`
    /// evaluations it made.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        EVALS.with(|c| c.set((0, 0)));
        let out = f();
        (out, EVALS.with(Cell::get))
    }

    /// The reference digitizer: evaluates every sample of `digitize`'s
    /// grid exactly and bisects each crossing for all 60 steps.
    fn digitize_oracle(trace: &SigmoidTrace, threshold: f64) -> DigitalTrace {
        if trace.transitions.is_empty() {
            return DigitalTrace::constant(trace.initial);
        }
        let (x0, dt, n) = trace.grid();
        let mut toggles = Vec::new();
        let mut prev_x = x0;
        let mut prev_v = trace.value_at_scaled(x0);
        for i in 1..n {
            let x = x0 + i as f64 * dt;
            let v = trace.value_at_scaled(x);
            if (prev_v > threshold) != (v > threshold) {
                // Bisect for the crossing.
                let (mut lo, mut hi) = (prev_x, x);
                let lo_above = prev_v > threshold;
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if (trace.value_at_scaled(mid) > threshold) == lo_above {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                toggles.push(crate::to_seconds(0.5 * (lo + hi)));
            }
            prev_x = x;
            prev_v = v;
        }
        let initial = Level::from_bool(trace.value_at_scaled(x0) > threshold);
        DigitalTrace::new(initial, toggles).expect("bisection times increase")
    }

    /// Asserts that `digitize` returns the oracle's initial level and the
    /// bits of every oracle toggle; returns the toggle count.
    fn assert_matches_oracle(trace: &SigmoidTrace, threshold: f64) -> usize {
        let want = digitize_oracle(trace, threshold);
        let got = trace.digitize(threshold);
        let bits = |d: &DigitalTrace| d.toggles().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (got.initial(), bits(&got)),
            (want.initial(), bits(&want)),
            "threshold {threshold:e} on {trace:?}"
        );
        want.len()
    }

    /// Alternating transitions away from `initial`, one per
    /// `(log10 slope, log10 gap to the next)` row, the first at `start`.
    fn trace_from(initial: Level, start: f64, rows: &[(f64, f64)]) -> SigmoidTrace {
        let mut b = start;
        let mut rising = initial == Level::Low;
        let transitions = rows
            .iter()
            .map(|&(log_a, log_gap)| {
                let a = 10f64.powf(log_a);
                let s = if rising {
                    Sigmoid::rising(a, b)
                } else {
                    Sigmoid::falling(a, b)
                };
                rising = !rising;
                b += 10f64.powf(log_gap);
                s
            })
            .collect();
        SigmoidTrace::from_transitions(initial, transitions, VDD_DEFAULT).unwrap()
    }

    fn pulse(a: f64, b1: f64, b2: f64) -> SigmoidTrace {
        SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(a, b1), Sigmoid::falling(a, b2)],
            VDD_DEFAULT,
        )
        .unwrap()
    }

    #[test]
    fn constant_trace() {
        let t = SigmoidTrace::constant(Level::High, VDD_DEFAULT);
        assert!((t.value_at(0.0) - VDD_DEFAULT).abs() < 1e-12);
        assert!(t.digitize(0.4).is_empty());
        assert_eq!(t.digitize(0.4).initial(), Level::High);
    }

    #[test]
    fn polarity_validation() {
        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::falling(5.0, 1.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::PolarityViolation { index: 0 });

        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(5.0, 1.0), Sigmoid::rising(5.0, 2.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::PolarityViolation { index: 1 });
    }

    #[test]
    fn ordering_validation() {
        let err = SigmoidTrace::from_transitions(
            Level::Low,
            vec![Sigmoid::rising(5.0, 2.0), Sigmoid::falling(5.0, 1.0)],
            VDD_DEFAULT,
        )
        .unwrap_err();
        assert_eq!(err, BuildTraceError::OutOfOrder { index: 1 });
    }

    #[test]
    fn invalid_vdd() {
        assert!(matches!(
            SigmoidTrace::from_transitions(Level::Low, vec![], 0.0),
            Err(BuildTraceError::InvalidVdd(_))
        ));
    }

    #[test]
    fn wide_pulse_values() {
        let t = pulse(20.0, 1.0, 4.0);
        assert!(t.value_at_scaled(-5.0).abs() < 1e-3);
        assert!((t.value_at_scaled(2.5) - VDD_DEFAULT).abs() < 1e-3);
        assert!(t.value_at_scaled(10.0).abs() < 1e-3);
        assert_eq!(t.final_level(), Level::Low);
    }

    #[test]
    fn starts_high_offset() {
        let t = SigmoidTrace::from_transitions(
            Level::High,
            vec![Sigmoid::falling(20.0, 1.0), Sigmoid::rising(20.0, 4.0)],
            VDD_DEFAULT,
        )
        .unwrap();
        assert!((t.value_at_scaled(-5.0) - VDD_DEFAULT).abs() < 1e-3);
        assert!(t.value_at_scaled(2.5).abs() < 1e-3);
        assert!((t.value_at_scaled(10.0) - VDD_DEFAULT).abs() < 1e-3);
    }

    #[test]
    fn digitize_wide_pulse() {
        let t = pulse(20.0, 1.0, 4.0);
        let d = t.digitize(VDD_DEFAULT / 2.0);
        assert_eq!(d.len(), 2);
        assert!((d.toggles()[0] - 1.0e-10).abs() < 1e-13);
        assert!((d.toggles()[1] - 4.0e-10).abs() < 1e-13);
    }

    #[test]
    fn digitize_subthreshold_pulse_vanishes() {
        // Overlapping rise/fall that never reaches VDD/2.
        let t = pulse(4.0, 1.0, 1.1);
        let peak = t.transitions()[0].pair_extremum(&t.transitions()[1]);
        assert!(peak.sum < 1.5);
        let d = t.digitize(VDD_DEFAULT / 2.0);
        assert!(d.is_empty(), "sub-threshold pulse must not digitize");
    }

    #[test]
    fn push_maintains_invariants() {
        let mut t = SigmoidTrace::constant(Level::Low, VDD_DEFAULT);
        t.push(Sigmoid::rising(5.0, 1.0)).unwrap();
        assert!(t.push(Sigmoid::rising(5.0, 2.0)).is_err());
        t.push(Sigmoid::falling(5.0, 2.0)).unwrap();
        assert!(t.push(Sigmoid::rising(5.0, 1.5)).is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn to_waveform_round_trip() {
        let t = pulse(20.0, 1.0, 4.0);
        let w = t.to_waveform(0.0, 6e-10, 600);
        let d_trace = t.digitize(0.4);
        let d_wave = w.digitize(0.4);
        assert_eq!(d_trace.len(), d_wave.len());
        for (a, b) in d_trace.toggles().iter().zip(d_wave.toggles()) {
            assert!((a - b).abs() < 2e-12);
        }
    }

    #[test]
    fn tiny_thresholds_on_falling_first_traces_match_oracle() {
        // After a leading fall the partial sums are tiny, so even terms
        // far past saturation change the sum's bits near a threshold
        // close to 0 V: an estimate that drops them must defer to the
        // exact sum there.
        let traces = [
            trace_from(
                Level::High,
                1.0,
                &[(1.0, -0.3), (1.0, 0.0), (1.2, -0.5), (0.7, 0.0)],
            ),
            trace_from(
                Level::High,
                0.0,
                &[(0.5, 0.4), (1.5, -1.0), (0.3, -2.0), (2.0, 0.0)],
            ),
            trace_from(Level::High, 3.0, &[(2.0, -1.5), (2.0, -1.5), (2.0, -1.5)]),
        ];
        for trace in &traces {
            for e in 1..=16 {
                assert_matches_oracle(trace, VDD_DEFAULT * 10f64.powi(-e));
                assert_matches_oracle(trace, VDD_DEFAULT * (1.0 - 10f64.powi(-e)));
            }
        }
    }

    #[test]
    fn clamped_grid_matches_oracle() {
        // A 100 µs span at slope 8 asks for 3.2e7 samples; the grid
        // clamps to 2,000,001, so dt is about 0.5 scaled units (50 ps).
        // The 40 ps pulse at 4e5 is narrower than dt: whether a sample
        // lands inside it is up to the grid, for both digitizers alike.
        let trace = SigmoidTrace::from_transitions(
            Level::Low,
            vec![
                Sigmoid::rising(1.0, 0.0),
                Sigmoid::falling(1.0, 8.0),
                Sigmoid::rising(8.0, 4.0e5),
                Sigmoid::falling(8.0, 4.0e5 + 0.4),
                Sigmoid::rising(1.0, 1.0e6),
                Sigmoid::falling(2.0, 1.0e6 + 40.0),
            ],
            VDD_DEFAULT,
        )
        .unwrap();
        assert_eq!(trace.grid().2, 2_000_001);
        let toggles: usize = [0.1, 0.5, 0.9]
            .iter()
            .map(|f| assert_matches_oracle(&trace, f * VDD_DEFAULT))
            .sum();
        assert!(toggles >= 12, "{toggles} toggles");
    }

    #[test]
    fn digitize_cost_tracks_crossings_not_samples() {
        // At the grid clamp the oracle evaluates all 2,000,001 samples;
        // the scan needs a few term estimates per split and per bisection
        // step, and exact values only next to each crossing.
        let long = trace_from(
            Level::Low,
            0.0,
            &[(0.0, 5.5), (0.0, 5.5), (0.0, 5.5), (0.0, 0.0)],
        );
        let (want, (oracle_exact, _)) = counted(|| digitize_oracle(&long, 0.4));
        assert!(oracle_exact > 2_000_000, "{oracle_exact}");
        let (got, (exact, terms)) = counted(|| long.digitize(0.4));
        assert_eq!(got, want);
        assert!(
            exact <= 12 * got.len() as u64 && terms <= 4_000,
            "{exact} exact, {terms} terms"
        );

        // A served-like output: transitions 60 ps apart, slopes 10-16.
        // Bisection midpoints next to a crossing need exact values until
        // the bracket reaches adjacent doubles, where the search stops.
        let served = trace_from(
            Level::Low,
            2.0,
            &[(1.0, -0.22), (1.2, -0.22), (1.0, -0.22), (1.1, 0.0)],
        );
        let (got, (exact, _)) = counted(|| served.digitize(0.4));
        assert_eq!(got.len(), 4);
        assert!(exact <= 12 * 4, "{exact} exact evaluations for 4 crossings");
    }

    proptest! {
        #[test]
        fn digitize_matches_oracle_bit_for_bit(
            rows in proptest::collection::vec((-0.52..2.47f64, -4.0..0.47f64), 1..17),
            start_high in any::<bool>(),
            start in -5.0..40.0f64,
            (level, tail) in (0.0..1.0f64, -15.0..-1.0f64),
        ) {
            // Slopes 0.3–300, gaps 1e-4–3 scaled units: overlapping and
            // sub-threshold pulses, thresholds across (0, vdd) and close
            // to either rail.
            let initial = Level::from_bool(start_high);
            let trace = trace_from(initial, start, &rows);
            for f in [level, 0.5, 10f64.powf(tail), 1.0 - 10f64.powf(tail)] {
                assert_matches_oracle(&trace, f * VDD_DEFAULT);
            }
        }

        #[test]
        fn digitize_matches_transition_count_when_separated(
            n in 1usize..6,
            gap in 1.0..3.0f64,
            a in 4.0..40.0f64,
        ) {
            // Well-separated transitions: digitization recovers exactly n toggles
            // at the sigmoid crossing times.
            let mut trs = Vec::new();
            for i in 0..n {
                let b = i as f64 * gap * (40.0 / a).max(1.0);
                let s = if i % 2 == 0 { Sigmoid::rising(a, b) } else { Sigmoid::falling(a, b) };
                trs.push(s);
            }
            let t = SigmoidTrace::from_transitions(Level::Low, trs.clone(), VDD_DEFAULT).unwrap();
            let d = t.digitize(VDD_DEFAULT / 2.0);
            prop_assert_eq!(d.len(), n);
            for (tog, s) in d.toggles().iter().zip(&trs) {
                prop_assert!((tog - s.crossing_seconds()).abs() < 1e-12,
                    "toggle {} vs crossing {}", tog, s.crossing_seconds());
            }
        }

        #[test]
        fn value_bounded_for_alternating_traces(
            n in 0usize..8,
            a in 2.0..50.0f64,
            x in -10.0..50.0f64,
        ) {
            let mut trs = Vec::new();
            for i in 0..n {
                let b = i as f64 * 3.0;
                trs.push(if i % 2 == 0 { Sigmoid::rising(a, b) } else { Sigmoid::falling(a, b) });
            }
            let t = SigmoidTrace::from_transitions(Level::Low, trs, VDD_DEFAULT).unwrap();
            let v = t.value_at_scaled(x);
            prop_assert!(v > -0.2 * VDD_DEFAULT && v < 1.2 * VDD_DEFAULT,
                "trace value {} out of physical range", v);
        }
    }
}
