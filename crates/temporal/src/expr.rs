//! Affine expressions over the endpoints of an interval pair.
//!
//! A temporal predicate compares *expressions* of the four endpoints of a
//! pair `(x, y)`. For the Allen predicates (paper Fig. 2) the expressions
//! are single endpoints, but the generalized predicates of Fig. 4 compare
//! derived quantities: `shiftMeets` compares `x̄ + avg` with `y̲`, and
//! `sparks` compares the lengths `ȳ − y̲` and `10·(x̄ − x̲)`. All of those
//! are affine combinations of endpoints, which is exactly what
//! [`EndpointExpr`] captures. Affinity is what makes interval-arithmetic
//! enclosures (and therefore the bound solver) exact per expression.

use crate::interval::{Interval, Timestamp};
use std::fmt;

/// Which interval of the pair an endpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first interval of the predicate (the paper's `x`).
    Left,
    /// The second interval of the predicate (the paper's `y`).
    Right,
}

/// Which endpoint of an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The start timestamp (the paper's underlined `x`).
    Start,
    /// The end timestamp (the paper's overlined `x`).
    End,
}

/// The symbols of the four coefficient slots, in slot order.
const SLOT_NAMES: [&str; 4] = ["x.start", "x.end", "y.start", "y.end"];

/// The coefficient slot of `side.endpoint`: `x̲`, `x̄`, `y̲`, `ȳ` are 0–3.
const fn slot(side: Side, endpoint: Endpoint) -> usize {
    2 * side as usize + endpoint as usize
}

/// An affine expression `c₀·x̲ + c₁·x̄ + c₂·y̲ + c₃·ȳ + constant` over the
/// endpoints of an interval pair.
///
/// A plain value with one coefficient slot per endpoint, so like terms
/// merge by construction. The coefficients' absolute sum fits in `i64`
/// (every constructor checks it), so `constant + Σ cᵢ·vᵢ` over `i64`
/// endpoints fits in `i128` and evaluation can be exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointExpr {
    /// Coefficients of `x̲`, `x̄`, `y̲`, `ȳ`, in that order (e.g. the `10`s
    /// of `10·(x̄ − x̲)` in `sparks`). Private, so that only the checking
    /// constructors can set them.
    coeffs: [i64; 4],
    /// Additive constant (e.g. the average length in `shiftMeets`).
    constant: i64,
}

impl EndpointExpr {
    /// Builds an expression from possibly overflowed parts, panicking
    /// unless they and the coefficients' absolute sum fit in `i64`.
    fn checked(coeffs: [Option<i64>; 4], constant: Option<i64>) -> Self {
        let l1 = coeffs.into_iter().try_fold(0i64, |l1, c| l1.checked_add(c?.checked_abs()?));
        match (l1, constant) {
            (Some(_), Some(constant)) => {
                EndpointExpr { coeffs: coeffs.map(|c| c.unwrap_or_default()), constant }
            }
            _ => panic!("endpoint expression overflows i64"),
        }
    }

    /// The single endpoint `side.endpoint`.
    pub fn endpoint(side: Side, endpoint: Endpoint) -> Self {
        let mut coeffs = [0; 4];
        coeffs[slot(side, endpoint)] = 1;
        EndpointExpr { coeffs, constant: 0 }
    }

    /// Start of the given side: `x̲` or `y̲`.
    pub fn start(side: Side) -> Self {
        Self::endpoint(side, Endpoint::Start)
    }

    /// End of the given side: `x̄` or `ȳ`.
    pub fn end(side: Side) -> Self {
        Self::endpoint(side, Endpoint::End)
    }

    /// Interval length `end − start` of the given side.
    pub fn length(side: Side) -> Self {
        Self::end(side).minus(Self::start(side))
    }

    /// Adds a constant offset (e.g. `x̄ + avg` in `shiftMeets`).
    pub fn plus(self, c: i64) -> Self {
        Self::checked(self.coeffs.map(Some), self.constant.checked_add(c))
    }

    /// The same expression with the two sides exchanged: every `x`
    /// endpoint becomes the corresponding `y` endpoint and vice versa.
    /// Used to derive inverse Allen relations (`p⁻¹(x, y) = p(y, x)`).
    pub fn swap_sides(self) -> Self {
        let [xs, xe, ys, ye] = self.coeffs;
        EndpointExpr { coeffs: [ys, ye, xs, xe], ..self }
    }

    /// The affine difference `self − other`.
    ///
    /// A comparator applied to `(lhs, rhs)` only ever depends on this
    /// difference, so the solver and the index layer reason about the
    /// combined expression.
    pub fn minus(self, other: EndpointExpr) -> Self {
        Self::checked(
            std::array::from_fn(|i| self.coeffs[i].checked_sub(other.coeffs[i])),
            self.constant.checked_sub(other.constant),
        )
    }

    /// Multiplies every coefficient and the constant by `k`
    /// (e.g. `10·(x̄ − x̲)` in `sparks`).
    pub fn scaled(self, k: i64) -> Self {
        Self::checked(self.coeffs.map(|c| c.checked_mul(k)), self.constant.checked_mul(k))
    }

    /// The expression at endpoint values `v` (in slot order), exact and
    /// clamped to `±i64::MAX`.
    ///
    /// Clamping loses nothing a comparator can see: `equals` and
    /// `greater` are constant beyond `λ + ρ`, and `−i64::MAX` keeps
    /// `equals`' `abs` in range. The sum stays in `i64` while that is
    /// exact and moves to `i128` only when a step would overflow: a
    /// single `i128` fold made the benchmark's `join-dense` queries 8–17 %
    /// slower (median p50) on a 2-vCPU x86-64 host.
    #[inline]
    fn at(&self, v: [i64; 4]) -> i64 {
        let mut acc = self.constant;
        for (c, e) in self.coeffs.into_iter().zip(v) {
            match c.checked_mul(e).and_then(|t| acc.checked_add(t)) {
                Some(sum) => acc = sum,
                None => return self.at_wide(v),
            }
        }
        acc.max(-i64::MAX)
    }

    /// [`Self::at`] in `i128`, for the sums that leave `i64`. It cannot
    /// overflow: the coefficients' absolute sum fits in `i64`.
    #[cold]
    fn at_wide(&self, v: [i64; 4]) -> i64 {
        let sum = (0..4)
            .fold(self.constant as i128, |acc, i| acc + self.coeffs[i] as i128 * v[i] as i128);
        sum.clamp(-(i64::MAX as i128), i64::MAX as i128) as i64
    }

    /// Evaluates the expression on a concrete pair, exactly, clamped to
    /// `±i64::MAX` (beyond which both comparators are constant).
    #[inline]
    pub fn eval(&self, x: &Interval, y: &Interval) -> i64 {
        self.at([x.start, x.end, y.start, y.end])
    }

    /// Range of the expression when each endpoint independently ranges over
    /// the given boxes (`[start_lo, start_hi]`, `[end_lo, end_hi]` per
    /// side). Exact (up to the clamp of [`EndpointExpr::eval`]) because the
    /// expression is affine: each end is the value at one corner.
    pub fn range(&self, left: &EndpointBox, right: &EndpointBox) -> (i64, i64) {
        let axes = [left.start, left.end, right.start, right.end];
        let corner = |low: bool| {
            std::array::from_fn(
                |i| if (self.coeffs[i] >= 0) == low { axes[i].0 } else { axes[i].1 },
            )
        };
        (self.at(corner(true)), self.at(corner(false)))
    }

    /// The endpoint through which the `free` side enters the expression
    /// and its coefficient, if that is exactly one endpoint with
    /// coefficient ±1.
    ///
    /// Used by the index layer: when `x` is bound, a constraint on
    /// `expr(x, y)` that touches a single `y`-endpoint linearly translates
    /// into an axis-aligned range on that endpoint.
    pub fn single_free_endpoint(&self, free: Side) -> Option<(Endpoint, i64)> {
        let start = slot(free, Endpoint::Start);
        match (self.coeffs[start], self.coeffs[start + 1]) {
            (c @ (1 | -1), 0) => Some((Endpoint::Start, c)),
            (0, c @ (1 | -1)) => Some((Endpoint::End, c)),
            _ => None,
        }
    }

    /// Evaluates only the terms of `side` against a concrete interval, plus
    /// the constant when `with_constant`; exact and clamped like
    /// [`EndpointExpr::eval`].
    pub fn eval_side(&self, side: Side, iv: &Interval, with_constant: bool) -> i64 {
        let start = slot(side, Endpoint::Start);
        let mut part = EndpointExpr { coeffs: [0; 4], constant: 0 };
        part.coeffs[start..start + 2].copy_from_slice(&self.coeffs[start..start + 2]);
        if with_constant {
            part.constant = self.constant;
        }
        part.at([iv.start, iv.end, iv.start, iv.end])
    }
}

/// Independent ranges for the two endpoints of one interval variable:
/// `start ∈ [start.0, start.1]`, `end ∈ [end.0, end.1]`.
///
/// This is the domain shape induced by a bucket `b = (g_l, g_l')` (paper
/// Def. 1 constraints (1) and (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointBox {
    /// Inclusive range of the start endpoint.
    pub start: (Timestamp, Timestamp),
    /// Inclusive range of the end endpoint.
    pub end: (Timestamp, Timestamp),
}

impl EndpointBox {
    /// Builds a box, asserting well-formed ranges.
    pub fn new(start: (Timestamp, Timestamp), end: (Timestamp, Timestamp)) -> Self {
        assert!(start.0 <= start.1 && end.0 <= end.1, "malformed endpoint box");
        EndpointBox { start, end }
    }

    /// The degenerate box holding exactly one interval.
    pub fn point(iv: &Interval) -> Self {
        EndpointBox { start: (iv.start, iv.start), end: (iv.end, iv.end) }
    }

    /// Whether a concrete interval falls inside the box.
    pub fn contains(&self, iv: &Interval) -> bool {
        self.start.0 <= iv.start
            && iv.start <= self.start.1
            && self.end.0 <= iv.end
            && iv.end <= self.end.1
    }
}

impl fmt::Display for EndpointExpr {
    /// Writes the non-zero terms in slot order, then the constant.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (c, sym) in self.coeffs.into_iter().zip(SLOT_NAMES) {
            if c == 0 {
                continue;
            }
            if first {
                if c == 1 {
                    write!(f, "{sym}")?;
                } else {
                    write!(f, "{c}*{sym}")?;
                }
                first = false;
            } else if c >= 0 {
                write!(f, " + {c}*{sym}")?;
            } else {
                write!(f, " - {}*{sym}", c.unsigned_abs())?;
            }
        }
        if self.constant != 0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant > 0 {
                write!(f, " + {}", self.constant)?;
            } else {
                write!(f, " - {}", self.constant.unsigned_abs())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    #[test]
    fn eval_single_endpoints() {
        let x = iv(0, 10, 20);
        let y = iv(1, 30, 45);
        assert_eq!(EndpointExpr::start(Side::Left).eval(&x, &y), 10);
        assert_eq!(EndpointExpr::end(Side::Left).eval(&x, &y), 20);
        assert_eq!(EndpointExpr::start(Side::Right).eval(&x, &y), 30);
        assert_eq!(EndpointExpr::end(Side::Right).eval(&x, &y), 45);
    }

    #[test]
    fn eval_lengths_and_offsets() {
        let x = iv(0, 10, 20);
        let y = iv(1, 30, 45);
        assert_eq!(EndpointExpr::length(Side::Left).eval(&x, &y), 10);
        assert_eq!(EndpointExpr::length(Side::Right).eval(&x, &y), 15);
        assert_eq!(EndpointExpr::end(Side::Left).plus(54).eval(&x, &y), 74);
        assert_eq!(EndpointExpr::length(Side::Left).scaled(10).eval(&x, &y), 100);
    }

    #[test]
    fn single_free_endpoint_detection() {
        let e = EndpointExpr::start(Side::Right);
        assert_eq!(e.single_free_endpoint(Side::Right), Some((Endpoint::Start, 1)));
        assert_eq!(e.single_free_endpoint(Side::Left), None);
        let len = EndpointExpr::length(Side::Right);
        assert_eq!(len.single_free_endpoint(Side::Right), None, "touches both endpoints");
        let scaled = EndpointExpr::start(Side::Right).scaled(10);
        assert_eq!(scaled.single_free_endpoint(Side::Right), None, "non-unit coefficient");
    }

    #[test]
    fn minus_merges_like_terms() {
        let x = iv(0, 10, 20);
        let y = iv(1, 30, 45);
        // (x̄ + 5) − x̄ = 5: terms cancel entirely.
        let d = EndpointExpr::end(Side::Left).plus(5).minus(EndpointExpr::end(Side::Left));
        assert_eq!((d.coeffs, d.constant), ([0; 4], 5));
        assert_eq!(d.eval(&x, &y), 5);
        // len(y) − 10·len(x) touches all four slots and evaluates consistently.
        let d =
            EndpointExpr::length(Side::Right).minus(EndpointExpr::length(Side::Left).scaled(10));
        assert_eq!(d.eval(&x, &y), 15 - 100);
        assert_eq!(d.coeffs, [10, -10, -1, 1]);
        assert_eq!(d.swap_sides().coeffs, [-1, 1, 10, -10]);
    }

    #[test]
    fn display_is_readable() {
        let e = EndpointExpr::length(Side::Left).scaled(10);
        assert_eq!(e.to_string(), "-10*x.start + 10*x.end");
        let c = EndpointExpr::end(Side::Left).plus(54);
        assert_eq!(c.to_string(), "x.end + 54");
    }

    #[test]
    fn evaluation_is_exact_and_clamped_at_the_i64_extremes() {
        const E: i64 = 9_000_000_000_000_000_000;
        let x = iv(0, -E, -E + 5);
        let y = iv(1, E, E + 5);
        // y̲ − x̄ = 1.8·10¹⁹ − 5 overflows i64: it clamps to i64::MAX.
        let gap = EndpointExpr::start(Side::Right).minus(EndpointExpr::end(Side::Left));
        assert_eq!(gap.eval(&x, &y), i64::MAX);
        assert_eq!(gap.swap_sides().eval(&x, &y), -i64::MAX, "never i64::MIN");
        // Overflowing intermediate terms that cancel stay exact.
        let lengths = EndpointExpr::length(Side::Right).minus(EndpointExpr::length(Side::Left));
        assert_eq!(lengths.eval(&x, &y), 0);
        assert_eq!(gap.eval_side(Side::Right, &y, true), E);
        let back = gap.swap_sides().plus(-i64::MAX);
        assert_eq!(back.eval_side(Side::Right, &y, true), -i64::MAX);
        let (lo, hi) = gap.range(&EndpointBox::point(&x), &EndpointBox::point(&y));
        assert_eq!((lo, hi), (i64::MAX, i64::MAX));
        let wide = EndpointBox::new((-E, E), (-E, E));
        assert_eq!(gap.range(&wide, &wide), (-i64::MAX, i64::MAX));
    }

    #[test]
    #[should_panic(expected = "overflows i64")]
    fn coefficients_whose_absolute_sum_leaves_i64_are_rejected() {
        let _ = EndpointExpr::length(Side::Left).scaled(i64::MAX / 2 + 1);
    }

    proptest! {
        /// The affine range enclosure is sound and tight at its corners.
        #[test]
        fn range_encloses_all_points(
            s1 in 0i64..50, w1 in 0i64..50, s2 in 0i64..50, w2 in 0i64..50,
            ds in 0i64..30, de in 0i64..30,
        ) {
            // Box: start ∈ [s, s+ds], end ∈ [s+w, s+w+de] per side.
            let lb = EndpointBox::new((s1, s1 + ds), (s1 + w1, s1 + w1 + de));
            let rb = EndpointBox::new((s2, s2 + ds), (s2 + w2, s2 + w2 + de));
            let exprs = [
                EndpointExpr::start(Side::Left),
                EndpointExpr::end(Side::Right),
                EndpointExpr::length(Side::Right),
                EndpointExpr::length(Side::Left).scaled(10),
                EndpointExpr::end(Side::Left).plus(7),
            ];
            for expr in &exprs {
                let (lo, hi) = expr.range(&lb, &rb);
                // Sample corner intervals (clamped to validity).
                for &(xs, xe) in &[(lb.start.0, lb.end.0), (lb.start.1, lb.end.1), (lb.start.0, lb.end.1)] {
                    for &(ys, ye) in &[(rb.start.0, rb.end.0), (rb.start.1, rb.end.1), (rb.start.0, rb.end.1)] {
                        if xe >= xs && ye >= ys {
                            let v = expr.eval(&iv(0, xs, xe), &iv(1, ys, ye));
                            prop_assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
                        }
                    }
                }
            }
        }

        /// `eval` decomposes into per-side partial sums.
        #[test]
        fn eval_side_decomposition(s1 in -100i64..100, w1 in 0i64..50, s2 in -100i64..100, w2 in 0i64..50) {
            let x = iv(0, s1, s1 + w1);
            let y = iv(1, s2, s2 + w2);
            let exprs = [
                EndpointExpr::length(Side::Right),
                EndpointExpr::end(Side::Left).plus(13),
                EndpointExpr::start(Side::Right).scaled(-3),
            ];
            for e in &exprs {
                let whole = e.eval(&x, &y);
                let parts = e.eval_side(Side::Left, &x, true) + e.eval_side(Side::Right, &y, false);
                prop_assert_eq!(whole, parts);
            }
        }
    }
}
