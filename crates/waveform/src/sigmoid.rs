//! The single-transition logistic model function `Fs` of Eq. 1.

use serde::{Deserialize, Serialize};

use crate::{to_scaled_time, to_seconds};

/// A single sigmoidal transition (Eq. 1 of the paper):
///
/// `Fs(t, a, b) = 1 / (1 + exp(-a (t·10^10 - b)))`
///
/// * `a` controls the slope and the polarity: `a > 0` is a rising transition
///   (0 → 1), `a < 0` a falling transition (1 → 0).
/// * `b` is the threshold-crossing time in scaled units (100 ps), i.e. the
///   instant at which the transition crosses 50 %.
///
/// # Example
///
/// ```
/// use sigwave::Sigmoid;
/// let s = Sigmoid::new(10.0, 2.0); // rising, crossing 50% at 200 ps
/// assert!((s.eval_seconds(2.0e-10) - 0.5).abs() < 1e-12);
/// assert!(s.is_rising());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sigmoid {
    /// Slope parameter. Positive: rising transition; negative: falling.
    pub a: f64,
    /// Threshold-crossing time in scaled units (`t · 10^10`, i.e. 100 ps).
    pub b: f64,
}

impl Sigmoid {
    /// Creates a sigmoid from its slope `a` and scaled crossing time `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` or either parameter is not finite: a zero-slope
    /// "transition" never switches and cannot appear in a valid trace.
    #[must_use]
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a != 0.0, "sigmoid slope must be non-zero");
        assert!(a.is_finite() && b.is_finite(), "parameters must be finite");
        Self { a, b }
    }

    /// Creates a rising sigmoid (`|a|`) crossing 50 % at `b` scaled units.
    #[must_use]
    pub fn rising(a_magnitude: f64, b: f64) -> Self {
        Self::new(a_magnitude.abs(), b)
    }

    /// Creates a falling sigmoid (`-|a|`) crossing 50 % at `b` scaled units.
    #[must_use]
    pub fn falling(a_magnitude: f64, b: f64) -> Self {
        Self::new(-a_magnitude.abs(), b)
    }

    /// `true` if the transition is rising (`a > 0`).
    #[must_use]
    pub fn is_rising(&self) -> bool {
        self.a > 0.0
    }

    /// The crossing time in seconds (where the sigmoid reaches 50 %).
    #[must_use]
    pub fn crossing_seconds(&self) -> f64 {
        to_seconds(self.b)
    }

    /// Evaluates `Fs` at a scaled time `x = t · 10^10`.
    ///
    /// Numerically robust for large `|a (x - b)|` (saturates to 0 or 1
    /// without producing NaN).
    #[must_use]
    pub fn eval_scaled(&self, x: f64) -> f64 {
        logistic(self.a * (x - self.b))
    }

    /// Evaluates `Fs` at a time in seconds.
    #[must_use]
    pub fn eval_seconds(&self, t: f64) -> f64 {
        self.eval_scaled(to_scaled_time(t))
    }

    /// Derivative `dFs/dx` at scaled time `x` (per scaled time unit).
    ///
    /// The logistic derivative is `a · Fs · (1 - Fs)`; its magnitude peaks at
    /// `|a| / 4` at the inflection point `x = b`.
    #[must_use]
    pub fn derivative_scaled(&self, x: f64) -> f64 {
        let f = self.eval_scaled(x);
        self.a * f * (1.0 - f)
    }

    /// Derivative `dFs/dt` at a time in seconds (per second).
    #[must_use]
    pub fn derivative_seconds(&self, t: f64) -> f64 {
        self.derivative_scaled(to_scaled_time(t)) * crate::TIME_SCALE
    }

    /// The scaled time at which the sigmoid reaches `level ∈ (0, 1)`.
    ///
    /// Solving `Fs(x) = level` gives `x = b - ln(1/level - 1) / a`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside the open interval `(0, 1)` — the
    /// logistic function only attains those values in the limit.
    #[must_use]
    pub fn time_at_level_scaled(&self, level: f64) -> f64 {
        assert!(
            level > 0.0 && level < 1.0,
            "level must be strictly between 0 and 1, got {level}"
        );
        self.b - ((1.0 / level - 1.0).ln()) / self.a
    }

    /// The time in seconds at which the sigmoid reaches `level ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `(0, 1)`.
    #[must_use]
    pub fn time_at_level_seconds(&self, level: f64) -> f64 {
        to_seconds(self.time_at_level_scaled(level))
    }

    /// The 20 %–80 % transition duration in seconds (a common slope measure
    /// in gate characterization; for a logistic this is `2 ln 4 / |a|`
    /// scaled units).
    #[must_use]
    pub fn transition_time_20_80(&self) -> f64 {
        let lo = self.time_at_level_scaled(0.2);
        let hi = self.time_at_level_scaled(0.8);
        to_seconds((hi - lo).abs())
    }

    /// Finds the extremum of the *pair sum* `Fs(self) + Fs(other)` on the
    /// pulse formed by this transition followed by `other` of the opposite
    /// polarity, as needed for the sub-threshold pulse check of Sec. III.
    ///
    /// For a rising/falling pair the sum is unimodal with a maximum between
    /// the two crossing times; for falling/rising it has a minimum. Returns
    /// the location (scaled time) and value of that extremum, found by
    /// golden-section search on `[b₁ - w, b₂ + w]`.
    ///
    /// # Panics
    ///
    /// Panics if both sigmoids have the same polarity: a "pulse" requires
    /// opposite transitions.
    #[must_use]
    pub fn pair_extremum(&self, other: &Sigmoid) -> PairExtremum {
        assert!(
            self.is_rising() != other.is_rising(),
            "pulse pair must have opposite polarities"
        );
        let maximize = self.is_rising();
        // Window: extend a few slope widths beyond the crossings.
        let w1 = 10.0 / self.a.abs();
        let w2 = 10.0 / other.a.abs();
        let (mut lo, mut hi) = (self.b.min(other.b) - w1, self.b.max(other.b) + w2);
        let f = |x: f64| {
            let v = self.eval_scaled(x) + other.eval_scaled(x);
            if maximize {
                v
            } else {
                -v
            }
        };
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let mut c = hi - (hi - lo) * INV_PHI;
        let mut d = lo + (hi - lo) * INV_PHI;
        let (mut fc, mut fd) = (f(c), f(d));
        for _ in 0..200 {
            if (hi - lo).abs() < 1e-12 {
                break;
            }
            if fc > fd {
                hi = d;
                d = c;
                fd = fc;
                c = hi - (hi - lo) * INV_PHI;
                fc = f(c);
            } else {
                lo = c;
                c = d;
                fc = fd;
                d = lo + (hi - lo) * INV_PHI;
                fd = f(d);
            }
        }
        let x = 0.5 * (lo + hi);
        PairExtremum {
            scaled_time: x,
            sum: self.eval_scaled(x) + other.eval_scaled(x),
            is_maximum: maximize,
        }
    }

    /// Answers the only question the sub-threshold pulse check asks of
    /// [`Sigmoid::pair_extremum`]: does the pulse sum cross `threshold`
    /// (exceed it for a rising/falling pair's maximum, fall below it for
    /// a falling/rising pair's minimum)?
    ///
    /// For the canonical half-swing thresholds (`1.5` for a maximum,
    /// `0.5` for a minimum — anything at least one half-swing away from
    /// the settled rails) the decision is made by branch-and-bound
    /// instead of the golden-section search. A falling/rising pair first
    /// reflects to the rising/falling form via `σ(-z) = 1 - σ(z)`
    /// (`min S < thr  ⟺  max (2 - S) > 2 - thr`). Then, writing `r` for
    /// the rising and `f` for the falling transition:
    ///
    /// * outside `(r.b, f.b)` one of the two logistics is below its
    ///   crossing point, so `S < 1.5` and the threshold is unreachable —
    ///   only that interval needs searching (and `f.b ≤ r.b` decides
    ///   `false` outright);
    /// * on any segment `[l, u]`, monotonicity gives the sound bound
    ///   `S ≤ σ_r(u) + σ_f(l)`: a segment whose bound stays at or below
    ///   the threshold is discarded whole;
    /// * any sample with `S > thr` is a witness: the maximum is at least
    ///   every sample.
    ///
    /// Narrow sub-threshold pulses discard the whole interval after a
    /// handful of evaluations and wide visible pulses find a witness just
    /// as fast, so the common cases cost a few logistic evaluations
    /// instead of the search's hundreds. Only near-threshold pulses
    /// recurse, and a work cap falls back to [`Sigmoid::pair_extremum`]
    /// (as does a non-canonical threshold), so the decision always
    /// terminates.
    ///
    /// # Panics
    ///
    /// Panics if both sigmoids have the same polarity, as in
    /// [`Sigmoid::pair_extremum`].
    #[must_use]
    pub fn pair_crosses(&self, other: &Sigmoid, threshold: f64) -> bool {
        assert!(
            self.is_rising() != other.is_rising(),
            "pulse pair must have opposite polarities"
        );
        // Reduce to the maximum form: rising `r` followed by falling `f`.
        let (r, f, thr) = if self.is_rising() {
            (*self, *other, threshold)
        } else {
            (
                Sigmoid {
                    a: -self.a,
                    b: self.b,
                },
                Sigmoid {
                    a: -other.a,
                    b: other.b,
                },
                2.0 - threshold,
            )
        };
        if thr < 1.5 {
            // Below the canonical threshold the tail argument no longer
            // holds; answer with the search.
            return self.decide_by_extremum(other, threshold);
        }
        let (lo, hi) = (r.b, f.b);
        if hi <= lo {
            // The logistics never overlap above their crossing points:
            // S < 1.5 ≤ thr everywhere.
            return false;
        }
        let (sr_lo, sr_hi) = (r.eval_scaled(lo), r.eval_scaled(hi));
        let (sf_lo, sf_hi) = (f.eval_scaled(lo), f.eval_scaled(hi));
        if sr_lo + sf_lo > thr || sr_hi + sf_hi > thr {
            return true;
        }
        if sr_hi + sf_lo <= thr {
            // Whole-interval bound: the pulse cannot reach the threshold.
            return false;
        }
        // Branch-and-bound over segments (l, u, σr(l), σr(u), σf(l), σf(u)).
        let mut stack: Vec<(f64, f64, f64, f64, f64, f64)> = Vec::with_capacity(16);
        stack.push((lo, hi, sr_lo, sr_hi, sf_lo, sf_hi));
        let mut evals = 0usize;
        while let Some((l, u, srl, sru, sfl, sfu)) = stack.pop() {
            if u - l < 1e-12 {
                // Narrower than the search's own convergence window and
                // still no witness: treat as not crossing.
                continue;
            }
            evals += 1;
            if evals > 256 {
                // Near-threshold plateau: hand the call to the search
                // rather than refining indefinitely.
                return self.decide_by_extremum(other, threshold);
            }
            let m = 0.5 * (l + u);
            let (srm, sfm) = (r.eval_scaled(m), f.eval_scaled(m));
            if srm + sfm > thr {
                return true;
            }
            if srm + sfl > thr {
                stack.push((l, m, srl, srm, sfl, sfm));
            }
            if sru + sfm > thr {
                stack.push((m, u, srm, sru, sfm, sfu));
            }
        }
        false
    }

    /// The golden-section fallback of [`Sigmoid::pair_crosses`]: compares
    /// the searched extremum against the threshold on the original
    /// (unreflected) pair.
    fn decide_by_extremum(&self, other: &Sigmoid, threshold: f64) -> bool {
        let ext = self.pair_extremum(other);
        if ext.is_maximum {
            ext.sum > threshold
        } else {
            ext.sum < threshold
        }
    }
}

/// The logistic `1 / (1 + e^-z)` of an exponent `z = a (x - b)`, exactly
/// as [`Sigmoid::eval_scaled`] evaluates it. Stable: the `exp` argument is
/// never positive, so it cannot overflow for very negative `z`.
#[inline]
pub(crate) fn logistic(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl std::fmt::Display for Sigmoid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fs(a={:.4}, b={:.4})", self.a, self.b)
    }
}

/// The extremum of a two-sigmoid pulse sum, see [`Sigmoid::pair_extremum`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairExtremum {
    /// Location of the extremum, in scaled time units.
    pub scaled_time: f64,
    /// Value of `Fs₁ + Fs₂` at the extremum (in units of 1, not volts).
    pub sum: f64,
    /// `true` if this is a maximum (positive pulse), `false` for a minimum.
    pub is_maximum: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_closed_form() {
        let s = Sigmoid::new(7.3, 1.5);
        for &x in &[-3.0f64, 0.0, 1.5, 2.0, 9.0] {
            let expect = 1.0 / (1.0 + (-7.3 * (x - 1.5)).exp());
            assert!((s.eval_scaled(x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn saturates_without_nan() {
        let s = Sigmoid::new(50.0, 0.0);
        assert_eq!(s.eval_scaled(1e6), 1.0);
        assert_eq!(s.eval_scaled(-1e6), 0.0);
        assert!(s.derivative_scaled(1e6).abs() < 1e-12);
    }

    #[test]
    fn falling_polarity() {
        let s = Sigmoid::falling(5.0, 1.0);
        assert!(!s.is_rising());
        assert!(s.eval_scaled(-10.0) > 0.999);
        assert!(s.eval_scaled(10.0) < 0.001);
    }

    #[test]
    fn crossing_time_is_b() {
        let s = Sigmoid::new(-4.2, 3.3);
        assert!((s.eval_scaled(3.3) - 0.5).abs() < 1e-12);
        assert!((s.crossing_seconds() - 3.3e-10).abs() < 1e-22);
    }

    #[test]
    fn time_at_level_inverts_eval() {
        let s = Sigmoid::new(6.0, 2.0);
        for &lvl in &[0.1, 0.2, 0.5, 0.8, 0.99] {
            let x = s.time_at_level_scaled(lvl);
            assert!((s.eval_scaled(x) - lvl).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn time_at_level_rejects_bounds() {
        let _ = Sigmoid::new(1.0, 0.0).time_at_level_scaled(1.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_slope_rejected() {
        let _ = Sigmoid::new(0.0, 1.0);
    }

    #[test]
    fn transition_time_formula() {
        let s = Sigmoid::new(8.0, 0.0);
        // 2 ln(4) / 8 scaled units = 2*1.386/8 * 100ps
        let expect = 2.0 * 4.0_f64.ln() / 8.0 * 1e-10;
        assert!((s.transition_time_20_80() - expect).abs() < 1e-15);
    }

    #[test]
    fn derivative_peak_at_inflection() {
        let s = Sigmoid::new(9.0, 1.0);
        let at_b = s.derivative_scaled(1.0);
        assert!((at_b - 9.0 / 4.0).abs() < 1e-12);
        assert!(s.derivative_scaled(0.5) < at_b);
        assert!(s.derivative_scaled(1.5) < at_b);
    }

    #[test]
    fn wide_pulse_peak_reaches_two() {
        // Far-apart rise/fall: the sum plateaus near 2.
        let r = Sigmoid::rising(20.0, 0.0);
        let f = Sigmoid::falling(20.0, 5.0);
        let ext = r.pair_extremum(&f);
        assert!(ext.is_maximum);
        assert!(ext.sum > 1.999, "sum {}", ext.sum);
        assert!(ext.scaled_time > 0.0 && ext.scaled_time < 5.0);
    }

    #[test]
    fn narrow_pulse_peak_degrades() {
        // Overlapping rise/fall: the pulse never develops fully.
        let r = Sigmoid::rising(5.0, 0.0);
        let f = Sigmoid::falling(5.0, 0.1);
        let ext = r.pair_extremum(&f);
        assert!(
            ext.sum < 1.5,
            "sub-threshold pulse expected, sum {}",
            ext.sum
        );
    }

    #[test]
    fn negative_pulse_minimum() {
        let f = Sigmoid::falling(20.0, 0.0);
        let r = Sigmoid::rising(20.0, 4.0);
        let ext = f.pair_extremum(&r);
        assert!(!ext.is_maximum);
        assert!(ext.sum < 0.001, "deep low pulse, sum {}", ext.sum);
    }

    #[test]
    #[should_panic(expected = "opposite polarities")]
    fn pair_extremum_rejects_same_polarity() {
        let a = Sigmoid::rising(1.0, 0.0);
        let b = Sigmoid::rising(1.0, 1.0);
        let _ = a.pair_extremum(&b);
    }

    #[test]
    fn display_formats() {
        let s = Sigmoid::new(1.0, 2.0);
        assert_eq!(format!("{s}"), "Fs(a=1.0000, b=2.0000)");
    }

    #[test]
    fn pair_crosses_wide_positive_pulse() {
        let r = Sigmoid::rising(20.0, 0.0);
        let f = Sigmoid::falling(20.0, 5.0);
        assert!(r.pair_crosses(&f, 1.5));
    }

    #[test]
    fn pair_crosses_narrow_positive_pulse_cancelled() {
        let r = Sigmoid::rising(5.0, 0.0);
        let f = Sigmoid::falling(5.0, 0.1);
        assert!(!r.pair_crosses(&f, 1.5));
    }

    #[test]
    fn pair_crosses_negative_pulse() {
        // Falling-then-rising pair: "crosses" means the sum dips below
        // the threshold. A deep low pulse does, a shallow one does not.
        let deep_f = Sigmoid::falling(20.0, 0.0);
        let deep_r = Sigmoid::rising(20.0, 4.0);
        assert!(deep_f.pair_crosses(&deep_r, 0.5));
        let shallow_f = Sigmoid::falling(5.0, 0.0);
        let shallow_r = Sigmoid::rising(5.0, 0.1);
        assert!(!shallow_f.pair_crosses(&shallow_r, 0.5));
    }

    #[test]
    fn pair_crosses_non_canonical_threshold_falls_back() {
        // Thresholds below 1.5 in max form bypass the tail argument and
        // defer to the extremum search; both must agree.
        let r = Sigmoid::rising(6.0, 0.0);
        let f = Sigmoid::falling(6.0, 0.4);
        let ext = r.pair_extremum(&f);
        assert_eq!(r.pair_crosses(&f, 1.2), ext.sum > 1.2);
    }

    #[test]
    #[should_panic(expected = "opposite polarities")]
    fn pair_crosses_rejects_same_polarity() {
        let a = Sigmoid::rising(1.0, 0.0);
        let b = Sigmoid::rising(1.0, 1.0);
        let _ = a.pair_crosses(&b, 1.5);
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pair_crosses_agrees_with_extremum_search(
            a1 in 2.0..50.0f64,
            a2 in 2.0..50.0f64,
            b1 in -5.0..5.0f64,
            gap in -1.0..8.0f64,
            falling_first in any::<bool>(),
        ) {
            // The branch-and-bound decision must match the golden-section
            // extremum search at the engine's canonical thresholds (1.5
            // for positive pulses, 0.5 for negative), for both pair
            // polarities. Skip the measure-zero band where the extremum
            // sits within the iterative search's own tolerance of the
            // threshold — there the two methods may legitimately differ.
            let (first, second, threshold) = if falling_first {
                (Sigmoid::falling(a1, b1), Sigmoid::rising(a2, b1 + gap), 0.5)
            } else {
                (Sigmoid::rising(a1, b1), Sigmoid::falling(a2, b1 + gap), 1.5)
            };
            let ext = first.pair_extremum(&second);
            if (ext.sum - threshold).abs() >= 1e-9 {
                let expect = if ext.is_maximum {
                    ext.sum > threshold
                } else {
                    ext.sum < threshold
                };
                prop_assert_eq!(first.pair_crosses(&second, threshold), expect,
                    "pair ({}, {}) threshold {}", first, second, threshold);
            }
        }
    }
}
