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
        tests::count(|c| c.exact += 1);
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
    tests::count(|c| c.terms += 1);
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

/// The margin by which a fence's estimate sum must clear the threshold
/// ([`Digitizer::fences`]): twice the `u (m + 5)²` its error argument
/// needs for `m` terms, and a third to a quarter of [`sum_margin`], which
/// bounds a whole grid range and not a single point. The narrower the
/// margin, the fewer bisection midpoints between the fences need the
/// reference.
fn fence_margin(m: usize) -> f64 {
    let w = m as f64 + 5.0;
    f64::EPSILON * w * w
}

/// How many Newton steps [`Digitizer::fences`] takes toward a crossing
/// before it leaves the grid step to the reach loop.
const NEWTON_STEPS: usize = 8;

/// How many times [`Digitizer::fences`] moves a fence that does not clear
/// the fence margin four times as far out before it leaves the grid step
/// to the reach loop.
const FENCE_WIDENINGS: usize = 3;

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
    /// [`fence_margin`] for the trace's transition count.
    fence_margin: f64,
    /// The grid indices `⌊(b − x0)/dt⌋` and the one after it for every
    /// transition, sorted and distinct: where a range that does not
    /// certify splits first.
    guides: Vec<usize>,
    /// Term estimates, one slot of `m` per grid index the recursion
    /// holds: slots 0 and 1 are the grid's ends, slot `d + 2` the
    /// split at depth `d`.
    slots: Vec<f64>,
    toggles: Vec<f64>,
}

impl<'a> Digitizer<'a> {
    fn new(trace: &'a SigmoidTrace, threshold: f64, x0: f64, dt: f64) -> Self {
        let mut guides: Vec<usize> = trace
            .transitions
            .iter()
            .flat_map(|s| {
                let i = ((s.b - x0) / dt).floor() as usize;
                [i, i.saturating_add(1)]
            })
            .collect();
        guides.sort_unstable();
        guides.dedup();
        Self {
            trace,
            threshold,
            k: trace.offset_k(),
            x0,
            dt,
            margin: sum_margin(trace.len()),
            fence_margin: fence_margin(trace.len()),
            guides,
            slots: Vec::new(),
            toggles: Vec::new(),
        }
    }

    /// Digitizes grid samples `0..n`.
    fn run(mut self, n: usize) -> DigitalTrace {
        // Each split holds one slot. A split at a guide leaves at most
        // half of its range's inner guides inside either part, and only a
        // range with no guide inside splits at its middle index; halving
        // `n - 1` down to single steps takes at most `bits(n - 1)` of those.
        let bits = |v: usize| (usize::BITS - v.leading_zeros()) as usize;
        let depth = bits(self.guides.len()) + bits(n - 1);
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

    /// The term estimates at `x` summed left to right, and their slope
    /// `Σ a σ (1 − σ)`.
    fn estimate_at(&self, x: f64) -> (f64, f64) {
        self.trace
            .transitions
            .iter()
            .fold((0.0, 0.0), |(sum, slope), s| {
                let e = estimate(s, x);
                (sum + e, slope + s.a * e * (1.0 - e))
            })
    }

    /// `Some(side)` when every term sum in `[lo, hi]`, widened by
    /// `margin`, lies on the same side of the threshold.
    fn certify(&self, lo: f64, hi: f64, margin: f64) -> Option<bool> {
        let above = |s: f64| self.trace.vdd * (s - self.k) > self.threshold;
        let side = above(lo - margin);
        (side == above(hi + margin)).then_some(side)
    }

    /// The side of the point `x` whose term estimates sum to `estimate`:
    /// certified when the margin allows, else the reference value's.
    fn side(&self, x: f64, estimate: f64) -> bool {
        self.certify(estimate, estimate, self.margin)
            .unwrap_or_else(|| self.exact_side(x))
    }

    /// The reference's side at `x`.
    fn exact_side(&self, x: f64) -> bool {
        self.trace.value_with_offset(x, self.k) > self.threshold
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
        if let Some(side) = self.certify(lo, hi, self.margin) {
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
        let mid = self.split(l, r);
        self.estimate_into(free, self.x(mid));
        let side_mid = self.scan(l, mid, (ends.0, free), free + 1, side_l);
        self.scan(mid, r, (free, ends.1), free + 1, side_mid)
    }

    /// Where a range `[l, r]` of at least two steps splits: at the middle
    /// one of the guides strictly inside it, so the steps that hold a
    /// crossing come apart from the ranges that certify, else at its
    /// middle index. The toggles are one per side change between
    /// neighbouring samples whatever the order of splits.
    fn split(&self, l: usize, r: usize) -> usize {
        let from = self.guides.partition_point(|&g| g <= l);
        let to = self.guides.partition_point(|&g| g < r);
        if from < to {
            self.guides[from + (to - from) / 2]
        } else {
            l + (r - l) / 2
        }
    }

    /// Per term, its slope `a` and the range of `σ (1 − σ)` at the ends of
    /// the grid step whose estimates sit in slots `ends`: the smaller end
    /// value, and the larger one, or `1/4` where the estimates put the
    /// ends on both sides of 0.5. `σ (1 − σ)` is unimodal in time, so
    /// over the step it stays within the first bound from below and the
    /// second from above, up to the error of the estimates.
    fn peaks(&self, ends: (usize, usize)) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let peak = |t: f64| t * (1.0 - t);
        self.trace
            .transitions
            .iter()
            .zip(self.slot(ends.0).iter().zip(self.slot(ends.1)))
            .map(move |(s, (&p, &q))| {
                let most = if (p >= 0.5) == (q >= 0.5) {
                    peak(p).max(peak(q))
                } else {
                    0.25
                };
                (s.a, peak(p).min(peak(q)), most)
            })
    }

    /// A bound on how fast the term sum moves between the grid samples
    /// whose estimates sit in slots `ends`: term `i` moves at most
    /// `|a_i| σ'(z)`, and `σ' = σ (1 − σ)` is largest at the end nearer
    /// `z = 0`, or `1/4` where `z` changes sign in between. The `4ε` per
    /// term covers rounding and saturated estimates.
    fn slope_bound(&self, ends: (usize, usize)) -> f64 {
        self.peaks(ends)
            .map(|(a, _, most)| a.abs() * (most + 4.0 * f64::EPSILON))
            .sum()
    }

    /// `Some(true)` when the exact term sum `G(x) = Σ σ(aᵢ (x − bᵢ))`
    /// certainly rises over the whole grid step whose estimates sit in
    /// slots `ends`, `Some(false)` when it certainly falls, and `None`
    /// when the bound cannot tell.
    ///
    /// `G' = Σ aᵢ σᵢ (1 − σᵢ)`. A rising term adds at least `a` times its
    /// smaller [`Self::peaks`] bound and a falling term at least `a` times
    /// its larger one, so their sum bounds `G'` from below; the mirror sum
    /// bounds it from above. An endpoint estimate lies within `3.5u` of
    /// the exact logistic at the endpoint (`u = 2^-53`, see
    /// [`Self::fences`]), so `σ (1 − σ)` computed from it is within `4.5u`
    /// of the exact value. Where the estimates miss that a term passes 0.5
    /// in the step, one of them lies within `3.5u` of 0.5, and its
    /// `σ (1 − σ)` within `u` of `1/4`. So each bound takes `8u` of slack
    /// per term. The signed sums round by less than `(m + 1) u Σ|aᵢ| / 3`;
    /// a bound must clear `0` by `(m + 2) 2u Σ|aᵢ|`.
    fn monotone(&self, ends: (usize, usize)) -> Option<bool> {
        const SLACK: f64 = 4.0 * f64::EPSILON;
        let (mut low, mut high, mut scale) = (0.0, 0.0, 0.0);
        for (a, least, most) in self.peaks(ends) {
            let (least, most) = (least - SLACK, most + SLACK);
            if a > 0.0 {
                low += a * least;
                high += a * most;
            } else {
                low += a * most;
                high += a * least;
            }
            scale += a.abs();
        }
        let rounding = (self.trace.len() + 2) as f64 * f64::EPSILON * scale;
        if low > rounding {
            Some(true)
        } else if high < -rounding {
            Some(false)
        } else {
            None
        }
    }

    /// Fences `(before, after)` around the crossing in the grid step
    /// `[lo, hi]` (estimates in slots `ends`), which lie on opposite
    /// sides: the reference puts every point of the step up to `before`
    /// on `lo`'s side and every point from `after` on on the other one.
    /// `None` when the step is not certified monotone
    /// ([`Self::monotone`]) in the direction its ends ask for, or when
    /// Newton or a fence fails.
    ///
    /// Newton on the estimate sum, from the secant through the step's
    /// ends and kept inside the step, stops once an estimate lies within
    /// the fence margin ([`fence_margin`]) of the threshold, or the next
    /// step is within an ulp, and takes that step to `c`. Each fence
    /// starts where the estimate's slope says the sum clears the
    /// threshold by twice the fence margin, at least an ulp from `c`, and
    /// moves out fourfold until
    /// [`Self::certify`] puts its estimate on the fence's side by that
    /// margin, or it passes the step's end, whose side is known. So both
    /// fences lie in `[lo, hi]`.
    ///
    /// Why a certified fence holds, with `u = 2^-53`, `m` terms and
    /// `G(x) = Σ σ(aᵢ (x − bᵢ))` the exact sum at the exact point:
    ///
    /// * *Rounded exponents.* The reference rounds the exponent
    ///   `z = a (x − b)` to `z̃ = fl(a · fl(x − b))`, with
    ///   `|z̃ − z| ≤ 2u |z|` up to second order. As `σ' ≤ 1/4`,
    ///   `|σ(z̃) − σ(z)| ≤ |z| · u/2`, and since `|z| σ'(z) < 0.23` for
    ///   every `z`, the same step gives less than `u/2` everywhere.
    /// * *The reference sum.* A computed term lies within `3u` of
    ///   `σ(z̃)` (see [`sum_margin`]), so within `3.5u` of `σ(z)`; summing
    ///   `m` terms in `[0, 1]` rounds by at most `u m (m + 1) / 2`. So the
    ///   reference's sum `S̃(x)` lies within `ε = u m (m + 8) / 2` of `G(x)`.
    /// * *Saturated estimates.* An estimate is the reference term, or
    ///   exactly 1 (0) once `z̃ ≥ 37` (`≤ −37`), where the exact logistic
    ///   lies within `e^-36.99 < u` of it. So a term estimate is within
    ///   `3.5u` of `σ(z)` too, and the estimate sum `E(p)` lies within `ε`
    ///   of `G(p)`: the bound holds for both sums.
    /// * *The certificate.* [`Self::certify`] widens `E(p)` by the fence
    ///   margin `μ`, which rounds by at most `u (m + 1)` as `E(p) ≤ m`, and
    ///   applies the reference's decision `Φ(S) = fl(vdd · fl(S − k)) >
    ///   threshold`, which is monotone in `S`.
    ///
    /// Take a fence `p` certified below on a rising `G`. Every point
    /// `x ≤ p` of the step has `S̃(x) ≤ G(x) + ε ≤ G(p) + ε ≤ E(p) + 2ε`.
    /// `2ε + u (m + 1) = u (m² + 9m + 1) < u (m + 5)²`, half of `μ`, so
    /// `S̃(x) ≤ fl(E(p) + μ)`, and `Φ` puts `x` below. The fence above a
    /// rising `G`, and both fences of a falling one, are mirror images.
    /// The reference at a midpoint between the fences is evaluated as it
    /// is.
    fn fences(&self, lo: f64, hi: f64, lo_above: bool, ends: (usize, usize)) -> Option<(f64, f64)> {
        // A rising sum must start below, a falling one above.
        if self.monotone(ends)? == lo_above {
            return None;
        }
        // The threshold in sum units, up to rounding: it only steers the
        // search, and `certify` checks every fence.
        let target = self.threshold / self.trace.vdd + self.k;
        let (at_lo, at_hi) = (self.sum(ends.0), self.sum(ends.1));
        let mut c = (lo + (target - at_lo) / (at_hi - at_lo) * (hi - lo)).clamp(lo, hi);
        let mut steps = 0;
        // One to two ulps of `c`: Newton stops once its step is this
        // small, and a fence goes at least this far out, so it differs
        // from `c`.
        let ulp = |c: f64| c.abs() * f64::EPSILON;
        let slope = loop {
            let (sum, slope) = self.estimate_at(c);
            let next = c - (sum - target) / slope;
            let done = (sum - target).abs() <= self.fence_margin || (next - c).abs() <= ulp(c);
            if !done && (steps == NEWTON_STEPS || !next.is_finite()) {
                return None;
            }
            c = next.clamp(lo, hi);
            if done {
                break slope;
            }
            steps += 1;
        };
        let reach = (2.0 * self.fence_margin / slope.abs()).max(ulp(c));
        if !reach.is_finite() {
            return None;
        }
        let before = self.fence(c, -reach, lo, lo_above)?;
        let after = self.fence(c, reach, hi, !lo_above)?;
        Some((before, after))
    }

    /// The first of `c + h`, `c + 4h`, … whose estimate [`Self::certify`]
    /// puts on `side` by the fence margin, or the step's end `end` once
    /// one reaches it.
    fn fence(&self, c: f64, mut h: f64, end: f64, side: bool) -> Option<f64> {
        for _ in 0..=FENCE_WIDENINGS {
            let p = c + h;
            if (p - end) * h.signum() >= 0.0 {
                return Some(end);
            }
            let (sum, _) = self.estimate_at(p);
            if self.certify(sum, sum, self.fence_margin) == Some(side) {
                return Some(p);
            }
            h *= 4.0;
        }
        None
    }

    /// Bisects between grid samples `lo` and `hi` (estimates in slots
    /// `ends`), which lie on opposite sides, for the crossing: the
    /// reference's 60 steps, stopped early at their fixed point.
    ///
    /// Where [`Self::fences`] finds fences, a midpoint outside them takes
    /// its side by comparison, and one between them runs the reference
    /// expression, with no estimate first. Any other step runs the reach
    /// loop: an estimate that clears the threshold by `reach` plus the
    /// margin settles its neighbourhood too. The sum moves at most `slope`
    /// per scaled time unit between the samples, so every point within
    /// `reach / slope` of the midpoint has its side; later midpoints that
    /// close take that side without an evaluation. The rounding this adds
    /// (rounded exponents, the slope's own sum, the distance check) stays
    /// below `2u (m + 4)²`, a quarter of the margin. Every other midpoint
    /// is decided as a grid sample is ([`Self::side`]).
    fn bisect(&self, lo: f64, hi: f64, lo_above: bool, ends: (usize, usize)) -> f64 {
        if let Some((before, after)) = self.fences(lo, hi, lo_above, ends) {
            #[cfg(test)]
            tests::count(|c| c.fenced += 1);
            return halve(lo, hi, lo_above, |mid| {
                if mid <= before {
                    lo_above
                } else if mid >= after {
                    !lo_above
                } else {
                    self.exact_side(mid)
                }
            });
        }
        #[cfg(test)]
        tests::count(|c| c.reached += 1);
        let slope = self.slope_bound(ends);
        let target = self.threshold / self.trace.vdd + self.k;
        // The last certified midpoint on each side and its reach.
        let mut near_lo = (lo, 0.0);
        let mut near_hi = (hi, 0.0);
        halve(lo, hi, lo_above, |mid| {
            if slope * (mid - near_lo.0) <= near_lo.1 {
                return lo_above;
            }
            if slope * (near_hi.0 - mid) <= near_hi.1 {
                return !lo_above;
            }
            let estimate: f64 = self
                .trace
                .transitions
                .iter()
                .map(|s| estimate(s, mid))
                .sum();
            let reach = (estimate - target).abs() - 2.0 * self.margin;
            match self.certify(estimate - reach, estimate + reach, self.margin) {
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
        })
    }
}

/// The reference's 60 bisection steps between `lo` and `hi`, with `above`
/// deciding each midpoint's side. `lo` keeps the side `lo_above` and `hi`
/// the other one, so a midpoint equal to either end leaves both
/// unchanged, now and in every remaining step: the search stops there.
fn halve(mut lo: f64, mut hi: f64, lo_above: bool, mut above: impl FnMut(f64) -> bool) -> f64 {
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if above(mid) == lo_above {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    crate::to_seconds(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VDD_DEFAULT;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// What the digitizer did on this thread.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Evals {
        /// Exact trace evaluations.
        pub exact: u64,
        /// Term estimates.
        pub terms: u64,
        /// Crossings bisected between fences.
        pub fenced: u64,
        /// Crossings bisected by the reach loop.
        pub reached: u64,
    }

    thread_local! {
        static EVALS: Cell<Evals> = const {
            Cell::new(Evals { exact: 0, terms: 0, fenced: 0, reached: 0 })
        };
    }

    thread_local! {
        /// The served-like proptest's crossings so far on this thread:
        /// `(fenced, all)`.
        static SERVED_LIKE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count(add: impl FnOnce(&mut Evals)) {
        EVALS.with(|c| {
            let mut evals = c.get();
            add(&mut evals);
            c.set(evals);
        });
    }

    /// Runs `f` and returns its result with what the digitizer did.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, Evals) {
        EVALS.with(|c| c.set(Evals::default()));
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
        let (want, oracle) = counted(|| digitize_oracle(&long, 0.4));
        assert!(oracle.exact > 2_000_000, "{oracle:?}");
        let (got, evals) = counted(|| long.digitize(0.4));
        assert_eq!(got, want);
        assert!(
            evals.exact <= 12 * got.len() as u64 && evals.terms <= 4_000,
            "{evals:?}"
        );

        // A served-like output: transitions 60 ps apart, slopes 10-16.
        // Every crossing is bisected between fences, and only the
        // midpoints between them, next to the crossing, need exact values
        // (the reach loop takes about 12 per crossing here).
        let served = trace_from(
            Level::Low,
            2.0,
            &[(1.0, -0.22), (1.2, -0.22), (1.0, -0.22), (1.1, 0.0)],
        );
        let (got, evals) = counted(|| served.digitize(0.4));
        assert_eq!(got.len(), 4);
        assert_eq!((evals.fenced, evals.reached), (4, 0), "{evals:?}");
        assert!(evals.exact <= 7 * 4, "{evals:?} for 4 crossings");
    }

    #[test]
    fn digitize_runs_the_reach_loop_on_a_step_holding_three_crossings() {
        // Past the grid clamp a step spans about 0.5 scaled units, so one
        // step can hold a slow rise crossing vdd/2 and a steep low glitch
        // right after it: three crossings, one toggle. The sum is not
        // monotone over that step, and the step's first bisection
        // midpoint lands inside the glitch, where fences around the
        // rise's crossing would give it the wrong side.
        let b0 = 3.0;
        let trace = SigmoidTrace::from_transitions(
            Level::Low,
            vec![
                Sigmoid::rising(1.0, b0),
                Sigmoid::falling(300.0, b0 + 0.2),
                Sigmoid::rising(300.0, b0 + 0.25),
                Sigmoid::falling(1.0, b0 + 998_460.0),
            ],
            VDD_DEFAULT,
        )
        .unwrap();
        // Sample 40 sits at b0 - 0.03, so the step after it holds all
        // three crossings, and its midpoint b0 + 0.22 the glitch.
        let (x0, dt, n) = trace.grid();
        assert_eq!(n, 2_000_001);
        assert!((x0 + 40.0 * dt - (b0 - 0.03)).abs() < 1e-9, "{x0} {dt}");
        let (toggles, evals) = counted(|| assert_matches_oracle(&trace, VDD_DEFAULT / 2.0));
        assert_eq!(toggles, 2);
        assert!(evals.reached >= 1, "{evals:?}");
    }

    #[test]
    fn digitize_fences_lie_past_the_reference_noise() {
        // Near x = 0 the doubles are far finer than the rounding of the
        // reference sum, whose rising and falling terms move in opposite
        // directions, so the reference's side changes back and forth
        // within ~1e-16 of the crossing at 0. Whatever reach a fence
        // starts from, every point from it to the step's end must have
        // its side.
        let trace = SigmoidTrace::from_transitions(
            Level::Low,
            vec![
                Sigmoid::rising(20.0, -0.01),
                Sigmoid::falling(20.0, 0.05),
                Sigmoid::rising(20.0, 0.07),
                Sigmoid::falling(20.0, 0.2),
            ],
            VDD_DEFAULT,
        )
        .unwrap();
        let threshold = trace.value_at_scaled(0.0);
        let (x0, dt, _) = trace.grid();
        let d = Digitizer::new(&trace, threshold, x0, dt);
        let slope = d.estimate_at(0.0).1;
        assert!(slope > 1.0, "{slope}");
        // Reaches that start inside the noise, and the one `fences` takes.
        let served = 2.0 * d.fence_margin / slope;
        for h in (1..640).map(|j| f64::from(j) * 1e-19).chain([served]) {
            let Some(p) = d.fence(0.0, h, 1.0, true) else {
                assert!(h < served, "no fence from the reach fences() takes");
                continue;
            };
            for j in 0..1_000 {
                let x = p + f64::from(j) * 1e-19;
                assert!(d.exact_side(x), "{x:e} is below past the fence {p:e}");
            }
        }
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
        fn digitize_matches_oracle_between_fences_on_served_like_traces(
            rows in proptest::collection::vec((0.9..1.31f64, -1.0..0.08f64), 2..13),
            start_high in any::<bool>(),
            start in 0.0..10.0f64,
            level in 0.02..0.98f64,
        ) {
            // The served outputs: slopes 8–20, gaps 0.1–1.2 scaled units
            // (10–120 ps), at vdd/2 and at a random threshold. Most
            // crossings must take the fenced bisection; overlapping
            // transitions whose sum peaks near the threshold may not, so
            // the share is checked over all cases run so far.
            let trace = trace_from(Level::from_bool(start_high), start, &rows);
            for f in [0.5, level] {
                let (crossings, evals) =
                    counted(|| assert_matches_oracle(&trace, f * VDD_DEFAULT));
                prop_assert_eq!(evals.fenced + evals.reached, crossings as u64);
                let (fenced, all) = SERVED_LIKE.with(|c| {
                    let (fenced, all) = c.get();
                    c.set((fenced + evals.fenced, all + crossings as u64));
                    c.get()
                });
                prop_assert!(all < 100 || 10 * fenced >= 9 * all, "{} of {} fenced", fenced, all);
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
