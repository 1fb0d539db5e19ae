//! Graded endpoint comparators `equals` and `greater` (paper Figure 3).
//!
//! A scored temporal predicate approximates the Boolean (in)equalities on
//! interval endpoints with *degrees of satisfaction* in `[0, 1]`. Both
//! comparators are piecewise-linear functions of the difference
//! `d = a - b` of the two compared endpoint expressions, shaped by a
//! [`Tolerance`] `(λ, ρ)`:
//!
//! * `equals(a, b)` is `1` on the plateau `|d| ≤ λ`, decays linearly to `0`
//!   at `|d| = λ + ρ`.
//! * `greater(a, b)` is `0` for `d ≤ λ`, climbs linearly, and saturates at
//!   `1` for `d ≥ λ + ρ`.
//!
//! Setting `λ = ρ = 0` degenerates to the Boolean semantics (strict
//! equality / strict inequality), which is how the paper obtains the `PB`
//! parameterization used to compare against Boolean competitors.
//!
//! Besides forward evaluation this module provides the two ingredients the
//! rest of the system needs:
//!
//! * **threshold regions** ([`Tolerance::equals_region`],
//!   [`Tolerance::greater_region`]): the exact set `{d : f(d) ≥ v}`, used to
//!   translate score thresholds into index windows (paper §4, "local query
//!   execution ... returns only intervals x_j s.t. s-p(x_i, x_j) ≥ v"), and
//! * **range enclosures** ([`Tolerance::equals_range`],
//!   [`Tolerance::greater_range`]): the exact image of an interval of `d`
//!   values, the building block of the bound solver (paper §3.3).

/// Tolerance parameters `(λ, ρ)` of one comparator (paper Fig. 3).
///
/// `λ` widens the region considered a perfect match; `ρ` controls how fast
/// the score decays outside it (`ρ = 0` is a step function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tolerance {
    /// Plateau half-width λ ≥ 0.
    pub lambda: i64,
    /// Decay width ρ ≥ 0.
    pub rho: i64,
}

/// An inclusive range of `d = a - b` values, possibly unbounded on either
/// side. Used to report threshold regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DRange {
    /// Lower bound on `d` (−∞ if `None`).
    pub lo: Option<f64>,
    /// Upper bound on `d` (+∞ if `None`).
    pub hi: Option<f64>,
}

impl DRange {
    /// The full real line (no constraint).
    pub const UNBOUNDED: DRange = DRange { lo: None, hi: None };

    /// Whether `d` lies in the range.
    pub fn contains(&self, d: f64) -> bool {
        self.lo.is_none_or(|lo| d >= lo) && self.hi.is_none_or(|hi| d <= hi)
    }
}

impl Tolerance {
    /// Creates a tolerance; both parameters must be non-negative.
    pub fn new(lambda: i64, rho: i64) -> Self {
        assert!(lambda >= 0 && rho >= 0, "tolerance parameters must be ≥ 0");
        Tolerance { lambda, rho }
    }

    /// The Boolean degeneration `(0, 0)`.
    pub const ZERO: Tolerance = Tolerance { lambda: 0, rho: 0 };

    /// `equals(a, b)` evaluated on the difference `d = a - b` (Fig. 3 left).
    #[inline]
    pub fn equals(&self, d: i64) -> f64 {
        let ad = d.abs();
        if ad <= self.lambda {
            1.0
        } else if self.rho == 0 || ad >= self.lambda + self.rho {
            0.0
        } else {
            (self.lambda + self.rho - ad) as f64 / self.rho as f64
        }
    }

    /// `greater(a, b)` evaluated on the difference `d = a - b` (Fig. 3
    /// right): the degree to which `a > b`.
    #[inline]
    pub fn greater(&self, d: i64) -> f64 {
        if self.rho == 0 {
            // Step function: the Boolean `a > b` with slack λ.
            return if d > self.lambda { 1.0 } else { 0.0 };
        }
        if d <= self.lambda {
            0.0
        } else if d >= self.lambda + self.rho {
            1.0
        } else {
            (d - self.lambda) as f64 / self.rho as f64
        }
    }

    /// Exact region `{d : equals(d) ≥ v}` for a threshold `v ∈ (0, 1]`.
    ///
    /// Returns `None` when the region is empty (cannot happen for
    /// `v ≤ 1`), and [`DRange::UNBOUNDED`] when `v ≤ 0` (every `d`
    /// qualifies).
    pub fn equals_region(&self, v: f64) -> DRange {
        if v <= 0.0 {
            return DRange::UNBOUNDED;
        }
        let v = v.min(1.0);
        // equals(d) ≥ v  ⇔  |d| ≤ λ + ρ·(1 − v).
        let half = self.lambda as f64 + self.rho as f64 * (1.0 - v);
        DRange { lo: Some(-half), hi: Some(half) }
    }

    /// Exact region `{d : greater(d) ≥ v}` for a threshold `v ∈ (0, 1]`.
    pub fn greater_region(&self, v: f64) -> DRange {
        if v <= 0.0 {
            return DRange::UNBOUNDED;
        }
        let v = v.min(1.0);
        if self.rho == 0 {
            // Step function: score ≥ v > 0 ⇔ score = 1 ⇔ d > λ ⇔ d ≥ λ + 1
            // on integer differences.
            return DRange { lo: Some(self.lambda as f64 + 1.0), hi: None };
        }
        // greater(d) ≥ v ⇔ d ≥ λ + ρ·v.
        DRange { lo: Some(self.lambda as f64 + self.rho as f64 * v), hi: None }
    }

    /// Exact image `[min, max]` of `equals` over all integer `d` in
    /// `[d_lo, d_hi]`.
    ///
    /// `equals` is unimodal with its peak at `d = 0`, so the maximum is
    /// attained at the point of `[d_lo, d_hi]` closest to zero and the
    /// minimum at one of the ends.
    pub fn equals_range(&self, d_lo: i64, d_hi: i64) -> (f64, f64) {
        debug_assert!(d_lo <= d_hi);
        let peak = d_lo.max(0).min(d_hi);
        let max = self.equals(peak);
        let min = self.equals(d_lo).min(self.equals(d_hi));
        (min, max)
    }

    /// Exact image `[min, max]` of `greater` (non-decreasing in `d`) over
    /// all integer `d` in `[d_lo, d_hi]`.
    pub fn greater_range(&self, d_lo: i64, d_hi: i64) -> (f64, f64) {
        debug_assert!(d_lo <= d_hi);
        (self.greater(d_lo), self.greater(d_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equals_plateau_slope_zero() {
        let t = Tolerance::new(4, 16);
        // Plateau.
        assert_eq!(t.equals(0), 1.0);
        assert_eq!(t.equals(4), 1.0);
        assert_eq!(t.equals(-4), 1.0);
        // Slope: |d| = λ + ρ/2 ⇒ 0.5.
        assert!((t.equals(12) - 0.5).abs() < 1e-12);
        assert!((t.equals(-12) - 0.5).abs() < 1e-12);
        // Zero region.
        assert_eq!(t.equals(20), 0.0);
        assert_eq!(t.equals(-20), 0.0);
        assert_eq!(t.equals(1000), 0.0);
    }

    #[test]
    fn greater_zero_slope_saturation() {
        let t = Tolerance::new(0, 10);
        assert_eq!(t.greater(0), 0.0);
        assert_eq!(t.greater(-5), 0.0);
        assert!((t.greater(5) - 0.5).abs() < 1e-12);
        assert_eq!(t.greater(10), 1.0);
        assert_eq!(t.greater(99), 1.0);
    }

    #[test]
    fn greater_with_lambda_slack() {
        let t = Tolerance::new(2, 8);
        assert_eq!(t.greater(2), 0.0, "d = λ still scores 0");
        assert!((t.greater(6) - 0.5).abs() < 1e-12);
        assert_eq!(t.greater(10), 1.0);
    }

    #[test]
    fn boolean_degeneration() {
        let t = Tolerance::ZERO;
        assert_eq!(t.equals(0), 1.0);
        assert_eq!(t.equals(1), 0.0);
        assert_eq!(t.equals(-1), 0.0);
        assert_eq!(t.greater(1), 1.0);
        assert_eq!(t.greater(0), 0.0);
        assert_eq!(t.greater(-1), 0.0);
    }

    #[test]
    fn rho_zero_equals_is_step_with_plateau() {
        let t = Tolerance::new(3, 0);
        assert_eq!(t.equals(3), 1.0);
        assert_eq!(t.equals(4), 0.0);
    }

    #[test]
    fn paper_example_meets_bounds() {
        // §3.3 example: s-meets with (λ_e, ρ_e) = (4, 8); x ends in
        // [20, 30], y starts in [20, 30] ⇒ d ∈ [-10, 10];
        // min score 0.25 (|d| = 10), max score 1.
        let t = Tolerance::new(4, 8);
        let (lo, hi) = t.equals_range(-10, 10);
        assert!((hi - 1.0).abs() < 1e-12);
        assert!((lo - 0.25).abs() < 1e-12);
    }

    #[test]
    fn regions_unbounded_below_zero_threshold() {
        let t = Tolerance::new(4, 16);
        assert_eq!(t.equals_region(0.0), DRange::UNBOUNDED);
        assert_eq!(t.greater_region(-1.0), DRange::UNBOUNDED);
    }

    #[test]
    fn greater_region_step_function_uses_integer_successor() {
        let t = Tolerance::new(2, 0);
        let r = t.greater_region(0.5);
        assert_eq!(r.lo, Some(3.0));
        assert!(r.contains(3.0) && !r.contains(2.0));
    }

    proptest! {
        /// Forward evaluation and the threshold region agree:
        /// `f(d) ≥ v  ⇔  d ∈ region(v)` for every integer d.
        #[test]
        fn region_inverse_consistency(
            lambda in 0i64..20, rho in 0i64..30,
            d in -100i64..100, v in 0.01f64..1.0,
        ) {
            let t = Tolerance::new(lambda, rho);
            let eq_in = t.equals_region(v).contains(d as f64);
            prop_assert_eq!(t.equals(d) >= v - 1e-9, eq_in);
            let gt_in = t.greater_region(v).contains(d as f64);
            prop_assert_eq!(t.greater(d) >= v - 1e-9, gt_in);
        }

        /// Range enclosures are exact: they contain every attained value
        /// and their ends are attained.
        #[test]
        fn range_enclosures_are_tight(
            lambda in 0i64..20, rho in 0i64..30,
            a in -100i64..100, w in 0i64..80,
        ) {
            let t = Tolerance::new(lambda, rho);
            let (lo, hi) = t.equals_range(a, a + w);
            let (glo, ghi) = t.greater_range(a, a + w);
            let mut seen_eq = (f64::MAX, f64::MIN);
            let mut seen_gt = (f64::MAX, f64::MIN);
            for d in a..=a + w {
                let e = t.equals(d);
                let g = t.greater(d);
                prop_assert!(e >= lo - 1e-12 && e <= hi + 1e-12);
                prop_assert!(g >= glo - 1e-12 && g <= ghi + 1e-12);
                seen_eq = (seen_eq.0.min(e), seen_eq.1.max(e));
                seen_gt = (seen_gt.0.min(g), seen_gt.1.max(g));
            }
            prop_assert!((seen_eq.0 - lo).abs() < 1e-12 && (seen_eq.1 - hi).abs() < 1e-12);
            prop_assert!((seen_gt.0 - glo).abs() < 1e-12 && (seen_gt.1 - ghi).abs() < 1e-12);
        }

        /// Scores always stay within [0, 1] and `equals` is symmetric.
        #[test]
        fn scores_bounded_and_equals_symmetric(
            lambda in 0i64..50, rho in 0i64..50, d in -1000i64..1000,
        ) {
            let t = Tolerance::new(lambda, rho);
            for s in [t.equals(d), t.greater(d)] {
                prop_assert!((0.0..=1.0).contains(&s));
            }
            prop_assert_eq!(t.equals(d), t.equals(-d));
        }
    }
}
