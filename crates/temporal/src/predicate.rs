//! Scored temporal predicates and their Boolean degeneration (paper
//! Figures 2–4, Table 2).
//!
//! A temporal predicate relates two intervals through graded comparisons
//! of affine expressions of their endpoints. Each relation is written
//! once, as a function of its [`PredicateParams`] returning the graded
//! [`Primitive`] comparators (`equals` / `greater` of Fig. 3) whose
//! minimum is the relation's score. A [`TemporalPredicate`] keeps that
//! function's output twice:
//!
//! * at the caller's parameterization — the **scored** form
//!   `s-p(x, y) ∈ [0, 1]`, which is what TKIJ evaluates and bounds, and
//! * at [`PredicateParams::PB`] — the **crisp** form. With `λ = ρ = 0`
//!   every comparator is a step function of its endpoint difference, so
//!   the Boolean predicate `p(x, y)` is *derived*: it holds iff every
//!   crisp primitive scores `1.0`. The Boolean competitors (RCCIS,
//!   All-Matrix) and the tests use this form; that is how the paper runs
//!   TKIJ-PB against them.
//!
//! The tests check the derived Boolean form against plain endpoint
//! comparisons taken from each constructor's doc line.

use crate::comparators::Tolerance;
use crate::expr::{Endpoint, EndpointBox, EndpointExpr, Side};
use crate::interval::Interval;
use crate::params::PredicateParams;
use std::fmt;

/// The comparator applied to the difference of the two expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// Graded equality (plateau around 0).
    Equals,
    /// Graded strict inequality `lhs > rhs`.
    Greater,
}

/// One graded comparator `kind(lhs, rhs)` with its tolerance, kept as the
/// one endpoint difference `d = lhs − rhs` it grades (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    /// Which comparator shape.
    pub kind: PrimitiveKind,
    /// The graded difference `lhs − rhs`.
    pub diff: EndpointExpr,
    /// Tolerance `(λ, ρ)` of this primitive.
    pub tol: Tolerance,
}

impl Primitive {
    /// Builds a graded-equality primitive.
    pub fn equals(lhs: EndpointExpr, rhs: EndpointExpr, tol: Tolerance) -> Self {
        Primitive { kind: PrimitiveKind::Equals, diff: lhs.minus(rhs), tol }
    }

    /// Builds a graded `lhs > rhs` primitive.
    pub fn greater(lhs: EndpointExpr, rhs: EndpointExpr, tol: Tolerance) -> Self {
        Primitive { kind: PrimitiveKind::Greater, diff: lhs.minus(rhs), tol }
    }

    /// Score of the primitive on a concrete pair.
    #[inline]
    pub fn score(&self, x: &Interval, y: &Interval) -> f64 {
        let d = self.diff.eval(x, y);
        match self.kind {
            PrimitiveKind::Equals => self.tol.equals(d),
            PrimitiveKind::Greater => self.tol.greater(d),
        }
    }

    /// Sound (and per-primitive exact) score range over endpoint boxes.
    pub fn score_range(&self, left: &EndpointBox, right: &EndpointBox) -> (f64, f64) {
        let (dlo, dhi) = self.diff.range(left, right);
        match self.kind {
            PrimitiveKind::Equals => self.tol.equals_range(dlo, dhi),
            PrimitiveKind::Greater => self.tol.greater_range(dlo, dhi),
        }
    }

    /// If the free side appears in the difference through exactly one
    /// endpoint with unit coefficient, returns the axis-aligned range that
    /// endpoint must lie in for this primitive to score at least `v`.
    ///
    /// Returns `None` when the primitive does not constrain a single axis
    /// (then callers fall back to the enclosing bucket window and re-check
    /// scores exactly). The range may be unbounded on either side
    /// (`±f64::INFINITY`).
    pub fn free_axis_window(
        &self,
        anchor: &Interval,
        anchor_side: Side,
        v: f64,
    ) -> Option<(Endpoint, f64, f64)> {
        let free_side = match anchor_side {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        };
        let (endpoint, coeff) = self.diff.single_free_endpoint(free_side)?;
        // d = coeff·f + K, where K gathers the anchored terms + constant.
        let k = self.diff.eval_side(anchor_side, anchor, true);
        let (dlo, dhi) = match self.kind {
            PrimitiveKind::Equals => self.tol.equals_region(v),
            PrimitiveKind::Greater => self.tol.greater_region(v),
        };
        // d is an integer, so coeff·f ∈ [⌈dlo⌉ − K, ⌊dhi⌋ − K] exactly. The
        // integer bounds saturate in i64, which excludes no i64 endpoint,
        // and are cast once: the cast is monotone and the index compares
        // `endpoint as f64`, so every endpoint inside the exact window
        // passes (subtracting K in f64 would round the window away once K
        // passes 2^53). ⌈d⌉ and ⌊d⌋ come from the truncating cast and one
        // compare: `f64::ceil`/`floor` are libm calls on baseline x86-64,
        // and read slower on the threshold-window micro-benchmark.
        let shift = |d: f64, up: bool| {
            if !d.is_finite() {
                return d;
            }
            let t = d as i64;
            let t = if up && (t as f64) < d {
                t.saturating_add(1)
            } else if !up && (t as f64) > d {
                t.saturating_sub(1)
            } else {
                t
            };
            t.saturating_sub(k) as f64
        };
        let (lo, hi) = (shift(dlo, true), shift(dhi, false));
        let (flo, fhi) = if coeff > 0 { (lo, hi) } else { (-hi, -lo) };
        Some((endpoint, flo, fhi))
    }
}

/// Identifies the predicate family (used for display, query naming and
/// baseline routing). The paper's Fig. 2 lists 7 Allen relations; the 6
/// inverse relations complete the full 13-relation Allen algebra and are
/// derived mechanically (`p⁻¹(x, y) = p(y, x)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateKind {
    /// Allen `before`.
    Before,
    /// Allen `equals`.
    Equals,
    /// Allen `meets`.
    Meets,
    /// Allen `overlaps`.
    Overlaps,
    /// Allen `contains`.
    Contains,
    /// Allen `starts`.
    Starts,
    /// Allen `finishedBy`.
    FinishedBy,
    /// Allen `after` — inverse of `before`.
    After,
    /// Allen `metBy` — inverse of `meets`.
    MetBy,
    /// Allen `overlappedBy` — inverse of `overlaps`.
    OverlappedBy,
    /// Allen `during` — inverse of `contains`.
    During,
    /// Allen `startedBy` — inverse of `starts`.
    StartedBy,
    /// Allen `finishes` — inverse of `finishedBy`.
    Finishes,
    /// Paper Fig. 4 `justBefore` (gap bounded by the average length).
    JustBefore,
    /// Paper Fig. 4 `shiftMeets` (gap equal to the average length).
    ShiftMeets,
    /// Paper Fig. 4 `sparks` (a short interval igniting a much longer one).
    Sparks,
}

impl PredicateKind {
    /// Abbreviation used in the paper's query names (Table 1).
    pub fn short_name(&self) -> &'static str {
        match self {
            PredicateKind::Before => "b",
            PredicateKind::Equals => "e",
            PredicateKind::Meets => "m",
            PredicateKind::Overlaps => "o",
            PredicateKind::Contains => "c",
            PredicateKind::Starts => "s",
            PredicateKind::FinishedBy => "f",
            PredicateKind::After => "a",
            PredicateKind::MetBy => "mB",
            PredicateKind::OverlappedBy => "oB",
            PredicateKind::During => "d",
            PredicateKind::StartedBy => "sB",
            PredicateKind::Finishes => "fi",
            PredicateKind::JustBefore => "jB",
            PredicateKind::ShiftMeets => "sM",
            PredicateKind::Sparks => "sp",
        }
    }

    /// The relation's name as the paper spells it, e.g. `finishedBy`.
    pub fn long_name(&self) -> &'static str {
        match self {
            PredicateKind::Before => "before",
            PredicateKind::Equals => "equals",
            PredicateKind::Meets => "meets",
            PredicateKind::Overlaps => "overlaps",
            PredicateKind::Contains => "contains",
            PredicateKind::Starts => "starts",
            PredicateKind::FinishedBy => "finishedBy",
            PredicateKind::After => "after",
            PredicateKind::MetBy => "metBy",
            PredicateKind::OverlappedBy => "overlappedBy",
            PredicateKind::During => "during",
            PredicateKind::StartedBy => "startedBy",
            PredicateKind::Finishes => "finishes",
            PredicateKind::JustBefore => "justBefore",
            PredicateKind::ShiftMeets => "shiftMeets",
            PredicateKind::Sparks => "sparks",
        }
    }

    /// All kinds, for exhaustive tests and harness sweeps.
    pub fn all() -> [PredicateKind; 16] {
        [
            PredicateKind::Before,
            PredicateKind::Equals,
            PredicateKind::Meets,
            PredicateKind::Overlaps,
            PredicateKind::Contains,
            PredicateKind::Starts,
            PredicateKind::FinishedBy,
            PredicateKind::After,
            PredicateKind::MetBy,
            PredicateKind::OverlappedBy,
            PredicateKind::During,
            PredicateKind::StartedBy,
            PredicateKind::Finishes,
            PredicateKind::JustBefore,
            PredicateKind::ShiftMeets,
            PredicateKind::Sparks,
        ]
    }

    /// The 13 Boolean Allen relations (which partition the configurations
    /// of two *proper* intervals — property-tested).
    pub fn allen() -> [PredicateKind; 13] {
        [
            PredicateKind::Before,
            PredicateKind::After,
            PredicateKind::Meets,
            PredicateKind::MetBy,
            PredicateKind::Overlaps,
            PredicateKind::OverlappedBy,
            PredicateKind::Starts,
            PredicateKind::StartedBy,
            PredicateKind::During,
            PredicateKind::Contains,
            PredicateKind::Finishes,
            PredicateKind::FinishedBy,
            PredicateKind::Equals,
        ]
    }

    /// The inverse relation, if this kind has one in the algebra.
    pub fn inverse(&self) -> Option<PredicateKind> {
        Some(match self {
            PredicateKind::Before => PredicateKind::After,
            PredicateKind::After => PredicateKind::Before,
            PredicateKind::Meets => PredicateKind::MetBy,
            PredicateKind::MetBy => PredicateKind::Meets,
            PredicateKind::Overlaps => PredicateKind::OverlappedBy,
            PredicateKind::OverlappedBy => PredicateKind::Overlaps,
            PredicateKind::Starts => PredicateKind::StartedBy,
            PredicateKind::StartedBy => PredicateKind::Starts,
            PredicateKind::During => PredicateKind::Contains,
            PredicateKind::Contains => PredicateKind::During,
            PredicateKind::Finishes => PredicateKind::FinishedBy,
            PredicateKind::FinishedBy => PredicateKind::Finishes,
            PredicateKind::Equals => PredicateKind::Equals,
            _ => return None,
        })
    }
}

/// Coarse classification used by the Boolean baselines of Chawda et al.:
/// RCCIS supports colocation predicates (the intervals of a Boolean match
/// share a timestamp), All-Matrix supports sequence predicates (`x`
/// entirely precedes `y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateClass {
    /// Boolean matches intersect (meets, overlaps, starts, …).
    Colocation,
    /// Boolean matches are strictly ordered in time (before, justBefore, …).
    Sequence,
}

/// A temporal predicate: one relation, kept at the caller's
/// parameterization (scored) and at `PB` (crisp, i.e. Boolean).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalPredicate {
    /// Predicate family.
    pub kind: PredicateKind,
    /// Min-combined graded primitives defining the scored form.
    pub primitives: Vec<Primitive>,
    /// The same relation at [`PredicateParams::PB`]: the Boolean form
    /// holds iff every one of these scores `1.0`.
    pub crisp: Vec<Primitive>,
}

impl TemporalPredicate {
    /// Evaluates a relation, written once as a function of its
    /// parameterization, at `p` (the scored form) and at `PB` (the crisp
    /// form).
    fn derive(
        kind: PredicateKind,
        p: PredicateParams,
        relation: impl Fn(PredicateParams) -> Vec<Primitive>,
    ) -> Self {
        TemporalPredicate { kind, primitives: relation(p), crisp: relation(PredicateParams::PB) }
    }

    /// `before(x, y) ⇔ x̄ < y̲`; `s-before = greater(y̲, x̄)`.
    pub fn before(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Before, p, |p| {
            vec![Primitive::greater(
                EndpointExpr::start(Side::Right),
                EndpointExpr::end(Side::Left),
                p.greater,
            )]
        })
    }

    /// `equals(x, y) ⇔ x̲ = y̲ ∧ x̄ = ȳ`;
    /// `s-equals = min{equals(x̲, y̲), equals(x̄, ȳ)}`.
    pub fn equals(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Equals, p, |p| {
            vec![
                Primitive::equals(
                    EndpointExpr::start(Side::Left),
                    EndpointExpr::start(Side::Right),
                    p.equals,
                ),
                Primitive::equals(
                    EndpointExpr::end(Side::Left),
                    EndpointExpr::end(Side::Right),
                    p.equals,
                ),
            ]
        })
    }

    /// `meets(x, y) ⇔ x̄ = y̲`; `s-meets = equals(x̄, y̲)`.
    pub fn meets(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Meets, p, |p| {
            vec![Primitive::equals(
                EndpointExpr::end(Side::Left),
                EndpointExpr::start(Side::Right),
                p.equals,
            )]
        })
    }

    /// `overlaps(x, y) ⇔ x̲ < y̲ ∧ x̄ > y̲ ∧ x̄ < ȳ`;
    /// `s-overlaps = min{greater(y̲, x̲), greater(x̄, y̲), greater(ȳ, x̄)}`.
    pub fn overlaps(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Overlaps, p, |p| {
            vec![
                Primitive::greater(
                    EndpointExpr::start(Side::Right),
                    EndpointExpr::start(Side::Left),
                    p.greater,
                ),
                Primitive::greater(
                    EndpointExpr::end(Side::Left),
                    EndpointExpr::start(Side::Right),
                    p.greater,
                ),
                Primitive::greater(
                    EndpointExpr::end(Side::Right),
                    EndpointExpr::end(Side::Left),
                    p.greater,
                ),
            ]
        })
    }

    /// `contains(x, y) ⇔ x̲ < y̲ ∧ x̄ > ȳ`;
    /// `s-contains = min{greater(y̲, x̲), greater(x̄, ȳ)}`.
    pub fn contains(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Contains, p, |p| {
            vec![
                Primitive::greater(
                    EndpointExpr::start(Side::Right),
                    EndpointExpr::start(Side::Left),
                    p.greater,
                ),
                Primitive::greater(
                    EndpointExpr::end(Side::Left),
                    EndpointExpr::end(Side::Right),
                    p.greater,
                ),
            ]
        })
    }

    /// `starts(x, y) ⇔ x̲ = y̲ ∧ x̄ < ȳ`;
    /// `s-starts = min{equals(x̲, y̲), greater(ȳ, x̄)}`.
    pub fn starts(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::Starts, p, |p| {
            vec![
                Primitive::equals(
                    EndpointExpr::start(Side::Left),
                    EndpointExpr::start(Side::Right),
                    p.equals,
                ),
                Primitive::greater(
                    EndpointExpr::end(Side::Right),
                    EndpointExpr::end(Side::Left),
                    p.greater,
                ),
            ]
        })
    }

    /// `finishedBy(x, y) ⇔ x̲ < y̲ ∧ x̄ = ȳ`;
    /// `s-finishedBy = min{greater(y̲, x̲), equals(x̄, ȳ)}`.
    pub fn finished_by(p: PredicateParams) -> Self {
        Self::derive(PredicateKind::FinishedBy, p, |p| {
            vec![
                Primitive::greater(
                    EndpointExpr::start(Side::Right),
                    EndpointExpr::start(Side::Left),
                    p.greater,
                ),
                Primitive::equals(
                    EndpointExpr::end(Side::Left),
                    EndpointExpr::end(Side::Right),
                    p.equals,
                ),
            ]
        })
    }

    /// Fig. 4 `justBefore(x, y) ⇔ x̄ < y̲ ∧ y̲ − x̄ ≤ avg`, where `avg` is
    /// the average interval length.
    ///
    /// Scored form per the paper: `min{greater(y̲, x̄), equals(x̄, y̲)}` with
    /// `λ_greater = ρ_greater = 0`, `λ_equals = avg` and `ρ_equals` taken
    /// from `p` (any positive value). The plateau `λ_equals = avg` is
    /// structural, so it stays at `PB` and bounds the crisp gap by `avg`.
    pub fn just_before(p: PredicateParams, avg: i64) -> Self {
        Self::derive(PredicateKind::JustBefore, p, |p| {
            vec![
                Primitive::greater(
                    EndpointExpr::start(Side::Right),
                    EndpointExpr::end(Side::Left),
                    Tolerance::ZERO,
                ),
                Primitive::equals(
                    EndpointExpr::end(Side::Left),
                    EndpointExpr::start(Side::Right),
                    Tolerance::new(avg.max(0), p.equals.rho),
                ),
            ]
        })
    }

    /// Fig. 4 `shiftMeets(x, y) ⇔ y̲ = x̄ + avg`;
    /// `s-shiftMeets = equals(x̄ + avg, y̲)`.
    pub fn shift_meets(p: PredicateParams, avg: i64) -> Self {
        Self::derive(PredicateKind::ShiftMeets, p, |p| {
            vec![Primitive::equals(
                EndpointExpr::end(Side::Left).plus(avg),
                EndpointExpr::start(Side::Right),
                p.equals,
            )]
        })
    }

    /// Fig. 4 `sparks(x, y) ⇔ x̄ < y̲ ∧ (ȳ − y̲) > factor·(x̄ − x̲)`;
    /// `s-sparks = min{greater(y̲, x̄), greater(ȳ − y̲, factor·(x̄ − x̲))}`.
    ///
    /// The paper fixes `factor = 10` ("the preceding hashtag lasted 10
    /// times shorter").
    pub fn sparks(p: PredicateParams, factor: i64) -> Self {
        Self::derive(PredicateKind::Sparks, p, |p| {
            vec![
                Primitive::greater(
                    EndpointExpr::start(Side::Right),
                    EndpointExpr::end(Side::Left),
                    p.greater,
                ),
                Primitive::greater(
                    EndpointExpr::length(Side::Right),
                    EndpointExpr::length(Side::Left).scaled(factor),
                    p.greater,
                ),
            ]
        })
    }

    /// The inverse relation `p⁻¹(x, y) = p(y, x)`: every primitive has the
    /// sides of its difference exchanged and the kind is mapped through
    /// [`PredicateKind::inverse`]. Completes the 13-relation Allen
    /// algebra from the paper's 7 base relations.
    ///
    /// Panics for the extended predicates (`justBefore`, `shiftMeets`,
    /// `sparks`), which have no named inverse in the algebra.
    pub fn inverse(&self) -> Self {
        let kind = self.kind.inverse().unwrap_or_else(|| panic!("{self} has no inverse relation"));
        let swap = |prims: &[Primitive]| {
            prims.iter().map(|&pr| Primitive { diff: pr.diff.swap_sides(), ..pr }).collect()
        };
        TemporalPredicate { kind, primitives: swap(&self.primitives), crisp: swap(&self.crisp) }
    }

    /// Allen `after(x, y) ⇔ before(y, x)`.
    pub fn after(p: PredicateParams) -> Self {
        Self::before(p).inverse()
    }

    /// Allen `metBy(x, y) ⇔ meets(y, x)`.
    pub fn met_by(p: PredicateParams) -> Self {
        Self::meets(p).inverse()
    }

    /// Allen `overlappedBy(x, y) ⇔ overlaps(y, x)`.
    pub fn overlapped_by(p: PredicateParams) -> Self {
        Self::overlaps(p).inverse()
    }

    /// Allen `during(x, y) ⇔ contains(y, x)`.
    pub fn during(p: PredicateParams) -> Self {
        Self::contains(p).inverse()
    }

    /// Allen `startedBy(x, y) ⇔ starts(y, x)`.
    pub fn started_by(p: PredicateParams) -> Self {
        Self::starts(p).inverse()
    }

    /// Allen `finishes(x, y) ⇔ finishedBy(y, x)`.
    pub fn finishes(p: PredicateParams) -> Self {
        Self::finished_by(p).inverse()
    }

    /// Builds a predicate by kind. `avg` parameterizes `justBefore` and
    /// `shiftMeets` (ignored elsewhere); `sparks` uses the paper's
    /// factor 10.
    pub fn from_kind(kind: PredicateKind, p: PredicateParams, avg: i64) -> Self {
        match kind {
            PredicateKind::Before => Self::before(p),
            PredicateKind::Equals => Self::equals(p),
            PredicateKind::Meets => Self::meets(p),
            PredicateKind::Overlaps => Self::overlaps(p),
            PredicateKind::Contains => Self::contains(p),
            PredicateKind::Starts => Self::starts(p),
            PredicateKind::FinishedBy => Self::finished_by(p),
            PredicateKind::After => Self::after(p),
            PredicateKind::MetBy => Self::met_by(p),
            PredicateKind::OverlappedBy => Self::overlapped_by(p),
            PredicateKind::During => Self::during(p),
            PredicateKind::StartedBy => Self::started_by(p),
            PredicateKind::Finishes => Self::finishes(p),
            PredicateKind::JustBefore => Self::just_before(p, avg),
            PredicateKind::ShiftMeets => Self::shift_meets(p, avg),
            PredicateKind::Sparks => Self::sparks(p, 10),
        }
    }

    /// Scored evaluation `s-p(x, y)`: minimum over the graded primitives.
    #[inline]
    pub fn score(&self, x: &Interval, y: &Interval) -> f64 {
        let mut s = 1.0f64;
        for prim in &self.primitives {
            s = s.min(prim.score(x, y));
            if s == 0.0 {
                break;
            }
        }
        s
    }

    /// Boolean evaluation `p(x, y)`: every crisp primitive scores `1.0`.
    #[inline]
    pub fn holds(&self, x: &Interval, y: &Interval) -> bool {
        self.crisp.iter().all(|c| c.score(x, y) == 1.0)
    }

    /// Sound score enclosure over endpoint boxes: interval min of the
    /// per-primitive (exact) ranges. May be loose when primitives share
    /// endpoints; the solver tightens it by branch-and-bound.
    pub fn score_range(&self, left: &EndpointBox, right: &EndpointBox) -> (f64, f64) {
        let mut lo = 1.0f64;
        let mut hi = 1.0f64;
        for prim in &self.primitives {
            let (plo, phi) = prim.score_range(left, right);
            lo = lo.min(plo);
            hi = hi.min(phi);
        }
        (lo, hi)
    }

    /// Baseline routing class of the Boolean form.
    pub fn class(&self) -> PredicateClass {
        match self.kind {
            PredicateKind::Before
            | PredicateKind::After
            | PredicateKind::JustBefore
            | PredicateKind::ShiftMeets
            | PredicateKind::Sparks => PredicateClass::Sequence,
            _ => PredicateClass::Colocation,
        }
    }

    /// Axis-aligned window the *free* interval's endpoints must satisfy for
    /// `s-p ≥ v`, given the anchored interval. Conservative: a primitive
    /// that does not constrain a single axis contributes no bound. Callers
    /// must still verify scores exactly.
    pub fn threshold_window(
        &self,
        anchor: &Interval,
        anchor_side: Side,
        v: f64,
    ) -> ThresholdWindow {
        let mut w = ThresholdWindow::unbounded();
        if v <= 0.0 {
            return w;
        }
        for prim in &self.primitives {
            if let Some((endpoint, lo, hi)) = prim.free_axis_window(anchor, anchor_side, v) {
                w.tighten(endpoint, lo, hi);
            }
        }
        w
    }
}

/// Conservative per-axis bounds on the free interval's endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdWindow {
    /// Range the free start must lie in.
    pub start: (f64, f64),
    /// Range the free end must lie in.
    pub end: (f64, f64),
}

impl ThresholdWindow {
    /// A window that admits everything.
    pub fn unbounded() -> Self {
        ThresholdWindow {
            start: (f64::NEG_INFINITY, f64::INFINITY),
            end: (f64::NEG_INFINITY, f64::INFINITY),
        }
    }

    /// Intersects a new per-axis constraint in.
    pub fn tighten(&mut self, endpoint: Endpoint, lo: f64, hi: f64) {
        let axis = match endpoint {
            Endpoint::Start => &mut self.start,
            Endpoint::End => &mut self.end,
        };
        axis.0 = axis.0.max(lo);
        axis.1 = axis.1.min(hi);
    }

    /// Whether no interval can satisfy the window.
    pub fn is_empty(&self) -> bool {
        self.start.0 > self.start.1 || self.end.0 > self.end.1
    }

    /// Whether a concrete interval satisfies the window.
    pub fn admits(&self, iv: &Interval) -> bool {
        let s = iv.start as f64;
        let e = iv.end as f64;
        s >= self.start.0 && s <= self.start.1 && e >= self.end.0 && e <= self.end.1
    }
}

impl fmt::Display for TemporalPredicate {
    /// Writes the scored name, e.g. `s-overlaps`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s-{}", self.kind.long_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    /// Offsets that move a test's intervals to extreme timestamps: none,
    /// a nanosecond epoch (~1.7·10¹⁸, where one `f64` ulp is 256) on an
    /// `f64` rounding midpoint, so that nearby endpoints round apart, and
    /// both ends of `i64`.
    const FAR: [i64; 4] =
        [0, 1_700_000_000_000_000_128, -9_200_000_000_000_000_000, 9_200_000_000_000_000_000];

    /// The Boolean oracle: each relation as the plain endpoint comparisons
    /// of its constructor's doc line, independent of the primitives.
    fn reference_holds(kind: PredicateKind, x: &Interval, y: &Interval, avg: i64) -> bool {
        let (xs, xe, ys, ye) = (x.start, x.end, y.start, y.end);
        match kind {
            PredicateKind::Before => xe < ys,
            PredicateKind::Equals => xs == ys && xe == ye,
            PredicateKind::Meets => xe == ys,
            PredicateKind::Overlaps => xs < ys && xe > ys && xe < ye,
            PredicateKind::Contains => xs < ys && xe > ye,
            PredicateKind::Starts => xs == ys && xe < ye,
            PredicateKind::FinishedBy => xs < ys && xe == ye,
            PredicateKind::After => ye < xs,
            PredicateKind::MetBy => ye == xs,
            PredicateKind::OverlappedBy => ys < xs && ye > xs && ye < xe,
            PredicateKind::During => ys < xs && ye > xe,
            PredicateKind::StartedBy => ys == xs && ye < xe,
            PredicateKind::Finishes => ys < xs && ye == xe,
            PredicateKind::JustBefore => xe < ys && ys - xe <= avg,
            PredicateKind::ShiftMeets => ys == xe + avg,
            PredicateKind::Sparks => xe < ys && ye - ys > 10 * (xe - xs),
        }
    }

    #[test]
    fn boolean_allen_semantics() {
        let p = PredicateParams::P1;
        let x = iv(0, 10, 20);
        assert!(TemporalPredicate::before(p).holds(&x, &iv(1, 25, 30)));
        assert!(
            !TemporalPredicate::before(p).holds(&x, &iv(1, 20, 30)),
            "touching is meets, not before"
        );
        assert!(TemporalPredicate::meets(p).holds(&x, &iv(1, 20, 30)));
        assert!(TemporalPredicate::equals(p).holds(&x, &iv(1, 10, 20)));
        assert!(TemporalPredicate::overlaps(p).holds(&x, &iv(1, 15, 30)));
        assert!(
            !TemporalPredicate::overlaps(p).holds(&x, &iv(1, 10, 30)),
            "needs strict start order"
        );
        assert!(TemporalPredicate::contains(p).holds(&x, &iv(1, 12, 18)));
        assert!(TemporalPredicate::starts(p).holds(&x, &iv(1, 10, 25)));
        assert!(TemporalPredicate::finished_by(p).holds(&x, &iv(1, 15, 20)));
    }

    #[test]
    fn boolean_extended_semantics() {
        let p = PredicateParams::P1;
        let x = iv(0, 10, 20);
        let jb = TemporalPredicate::just_before(p, 5);
        assert!(jb.holds(&x, &iv(1, 23, 30)), "gap 3 ≤ avg 5");
        assert!(jb.holds(&x, &iv(1, 25, 30)), "gap 5 ≤ avg 5");
        assert!(!jb.holds(&x, &iv(1, 26, 30)), "gap 6 > avg 5");
        assert!(!jb.holds(&x, &iv(1, 20, 30)), "must start strictly after");

        let sm = TemporalPredicate::shift_meets(p, 5);
        assert!(sm.holds(&x, &iv(1, 25, 30)));
        assert!(!sm.holds(&x, &iv(1, 24, 30)));

        let sp = TemporalPredicate::sparks(p, 10);
        // len(x) = 10, need len(y) > 100 and y after x.
        assert!(sp.holds(&x, &iv(1, 21, 130)));
        assert!(!sp.holds(&x, &iv(1, 21, 121)), "len exactly 100 is not >");
        assert!(!sp.holds(&x, &iv(1, 15, 200)), "y must start after x ends");
    }

    #[test]
    fn scored_meets_matches_figure3() {
        // (λ_e, ρ_e) = (4, 8): score 1 when |gap| ≤ 4, 0.5 at |gap| = 8.
        let p = PredicateParams::new(4, 8, 0, 0);
        let m = TemporalPredicate::meets(p);
        let x = iv(0, 0, 100);
        assert_eq!(m.score(&x, &iv(1, 100, 150)), 1.0);
        assert_eq!(m.score(&x, &iv(1, 104, 150)), 1.0);
        assert!((m.score(&x, &iv(1, 108, 150)) - 0.5).abs() < 1e-12);
        assert_eq!(m.score(&x, &iv(1, 112, 150)), 0.0);
    }

    #[test]
    fn scored_starts_uses_min() {
        let p = PredicateParams::new(4, 16, 0, 10);
        let s = TemporalPredicate::starts(p);
        let x = iv(0, 100, 200);
        // Perfect start equality but weak end inequality → min limits.
        let y = iv(1, 100, 205);
        let expected = p.greater.greater(5); // 0.5
        assert!((s.score(&x, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        let p = PredicateParams::P1;
        assert_eq!(TemporalPredicate::overlaps(p).to_string(), "s-overlaps");
        assert_eq!(TemporalPredicate::just_before(p, 3).to_string(), "s-justBefore");
        assert_eq!(PredicateKind::ShiftMeets.short_name(), "sM");
    }

    #[test]
    fn classes_route_to_baselines() {
        let p = PredicateParams::PB;
        assert_eq!(TemporalPredicate::before(p).class(), PredicateClass::Sequence);
        assert_eq!(TemporalPredicate::sparks(p, 10).class(), PredicateClass::Sequence);
        assert_eq!(TemporalPredicate::meets(p).class(), PredicateClass::Colocation);
        assert_eq!(TemporalPredicate::overlaps(p).class(), PredicateClass::Colocation);
    }

    #[test]
    fn threshold_window_meets() {
        // s-meets(x, y) = equals(x̄, y̲) with (λ, ρ) = (4, 8); anchor x ends
        // at 100; v = 0.5 ⇒ |x̄ − y̲| ≤ 4 + 8·0.5 = 8 ⇒ y̲ ∈ [92, 108].
        let p = PredicateParams::new(4, 8, 0, 0);
        let m = TemporalPredicate::meets(p);
        let x = iv(0, 0, 100);
        let w = m.threshold_window(&x, Side::Left, 0.5);
        assert_eq!(w.start, (92.0, 108.0));
        assert_eq!(w.end, (f64::NEG_INFINITY, f64::INFINITY));
        assert!(w.admits(&iv(1, 100, 500)));
        assert!(!w.admits(&iv(1, 110, 500)));
    }

    #[test]
    fn threshold_window_anchoring_right_side() {
        // Anchor y, free x: s-meets constrains x̄.
        let p = PredicateParams::new(4, 8, 0, 0);
        let m = TemporalPredicate::meets(p);
        let y = iv(1, 100, 150);
        let w = m.threshold_window(&y, Side::Right, 1.0);
        assert_eq!(w.end, (96.0, 104.0));
        assert!(w.admits(&iv(0, 0, 100)));
        assert!(!w.admits(&iv(0, 0, 90)));
    }

    #[test]
    fn sparks_window_is_conservative_not_empty() {
        // The length primitive touches both free endpoints → only the
        // first primitive (y̲ > x̄) contributes.
        let p = PredicateParams::P1;
        let sp = TemporalPredicate::sparks(p, 10);
        let x = iv(0, 10, 20);
        let w = sp.threshold_window(&x, Side::Left, 1.0);
        assert!(w.start.0 >= 20.0);
        assert_eq!(w.end, (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn inverse_relations_swap_sides() {
        let p = PredicateParams::P1;
        let x = iv(0, 10, 20);
        let y = iv(1, 12, 30);
        for base in [
            TemporalPredicate::before(p),
            TemporalPredicate::meets(p),
            TemporalPredicate::overlaps(p),
            TemporalPredicate::contains(p),
            TemporalPredicate::starts(p),
            TemporalPredicate::finished_by(p),
            TemporalPredicate::equals(p),
        ] {
            let inv = base.inverse();
            assert_eq!(base.holds(&x, &y), inv.holds(&y, &x), "{base}");
            assert_eq!(base.score(&x, &y), inv.score(&y, &x), "{base}");
            assert_eq!(inv.inverse().kind, base.kind, "double inverse");
        }
        // Spot semantics: during(x, y) ⇔ contains(y, x).
        let during = TemporalPredicate::during(p);
        assert!(during.holds(&iv(0, 14, 18), &iv(1, 10, 20)));
        assert!(!during.holds(&iv(0, 10, 20), &iv(1, 14, 18)));
        // after(x, y) ⇔ before(y, x).
        let after = TemporalPredicate::after(p);
        assert!(after.holds(&iv(0, 30, 40), &iv(1, 0, 10)));
        assert!(!after.holds(&iv(0, 0, 10), &iv(1, 30, 40)));
        assert_eq!(after.class(), PredicateClass::Sequence);
    }

    #[test]
    fn scores_stay_exact_when_the_endpoint_difference_leaves_i64() {
        // y̲ − x̄ ≈ 1.8·10¹⁹ overflows i64; it clamps to i64::MAX, where
        // both comparators have long saturated.
        let x = iv(0, FAR[2], FAR[2] + 5);
        let y = iv(1, FAR[3], FAR[3] + 5);
        let before = TemporalPredicate::before(PredicateParams::P1);
        assert_eq!(before.score(&x, &y), 1.0);
        assert!(before.holds(&x, &y));
        assert_eq!(before.score(&y, &x), 0.0);
        assert_eq!(TemporalPredicate::meets(PredicateParams::P1).score(&x, &y), 0.0);
        let (lo, hi) = before.score_range(&EndpointBox::point(&x), &EndpointBox::point(&y));
        assert_eq!((lo, hi), (1.0, 1.0));
    }

    #[test]
    fn threshold_window_keeps_its_width_beyond_2_pow_53() {
        // x̄ = e sits 127 above a multiple of 256, one ulp at this
        // magnitude; y̲ = e + 3 meets it within λ = 4. Subtracting e in
        // f64 would collapse the window onto e's rounding and drop y.
        let e = 6_640_625_000_000_000 * 256 + 127;
        let m = TemporalPredicate::meets(PredicateParams::P1);
        let (x, y) = (iv(0, e - 10, e), iv(1, e + 3, e + 20));
        assert_eq!(m.score(&x, &y), 1.0);
        assert!(m.threshold_window(&x, Side::Left, 1.0).admits(&y));
        assert!(m.threshold_window(&y, Side::Right, 1.0).admits(&x));
    }

    #[test]
    #[should_panic(expected = "no inverse relation")]
    fn extended_predicates_have_no_inverse() {
        let _ = TemporalPredicate::sparks(PredicateParams::P1, 10).inverse();
    }

    proptest! {
        /// Allen's theorem: for two *proper* intervals, exactly one of the
        /// 13 relations holds. This pins every Boolean definition at once.
        #[test]
        fn thirteen_relations_partition_proper_pairs(
            xs in -50i64..50, xw in 1i64..30, xfar in 0usize..4,
            ys in -50i64..50, yw in 1i64..30, yfar in 0usize..4,
        ) {
            let p = PredicateParams::PB;
            let x = iv(0, FAR[xfar] + xs, FAR[xfar] + xs + xw);
            let y = iv(1, FAR[yfar] + ys, FAR[yfar] + ys + yw);
            let holding: Vec<&str> = PredicateKind::allen()
                .iter()
                .filter(|k| TemporalPredicate::from_kind(**k, p, 0).holds(&x, &y))
                .map(|k| k.short_name())
                .collect();
            prop_assert_eq!(
                holding.len(),
                1,
                "exactly one Allen relation must hold for {:?}/{:?}: {:?}",
                x,
                y,
                holding
            );
        }

        /// With PB, the scored form is the Boolean indicator, and both it
        /// and the derived `holds` (at any parameterization) agree with
        /// the plain endpoint comparisons, for every predicate kind, at
        /// ordinary and at extreme timestamps. Every `y` near `x` is
        /// checked, so each relation's boundaries (endpoint ties, a gap of
        /// exactly `avg`, a length of exactly `10·|x|`) are.
        #[test]
        fn pb_scored_equals_boolean(
            xs in -50i64..50, xw in 0i64..5, avg in 1i64..6, far in 0usize..4,
        ) {
            let far = FAR[far];
            let x = iv(0, far + xs, far + xs + xw);
            for kind in PredicateKind::all() {
                let pb = TemporalPredicate::from_kind(kind, PredicateParams::PB, avg);
                let p1 = TemporalPredicate::from_kind(kind, PredicateParams::P1, avg);
                for ys in xs - 4..=xs + xw + avg + 4 {
                    for yw in 0..=10 * xw + 2 {
                        let y = iv(1, far + ys, far + ys + yw);
                        let expected = reference_holds(kind, &x, &y, avg);
                        let s = pb.score(&x, &y);
                        prop_assert!(s == 0.0 || s == 1.0, "PB must be crisp, got {s}");
                        prop_assert_eq!(s == 1.0, expected, "PB score, {:?} {:?}", kind, y);
                        prop_assert_eq!(pb.holds(&x, &y), expected, "PB holds, {:?} {:?}", kind, y);
                        prop_assert_eq!(p1.holds(&x, &y), expected, "P1 holds, {:?} {:?}", kind, y);
                    }
                }
            }
        }

        /// Scores are within [0,1] and score_range encloses the score at
        /// the point box.
        #[test]
        fn score_range_soundness(
            kind_idx in 0usize..16,
            xs in -50i64..50, xw in 0i64..30,
            ys in -50i64..50, yw in 0i64..30,
        ) {
            let kind = PredicateKind::all()[kind_idx];
            let pred = TemporalPredicate::from_kind(kind, PredicateParams::P1, 5);
            let x = iv(0, xs, xs + xw);
            let y = iv(1, ys, ys + yw);
            let s = pred.score(&x, &y);
            prop_assert!((0.0..=1.0).contains(&s));
            let (lo, hi) = pred.score_range(&EndpointBox::point(&x), &EndpointBox::point(&y));
            prop_assert!(lo - 1e-12 <= s && s <= hi + 1e-12);
        }

        /// Any interval scoring ≥ v is admitted by the threshold window, at
        /// ordinary and at extreme timestamps. Every `y` starting near `x`
        /// is checked, so the window's edges are.
        #[test]
        fn threshold_window_soundness(
            kind_idx in 0usize..16,
            xs in -50i64..50, xw in 0i64..30, yw in 0i64..30,
            v in 0.05f64..1.0,
        ) {
            let kind = PredicateKind::all()[kind_idx];
            let pred = TemporalPredicate::from_kind(kind, PredicateParams::P2, 5);
            for far in FAR {
                let x = iv(0, far + xs, far + xs + xw);
                for ys in xs - 25..=xs + xw + 25 {
                    let y = iv(1, far + ys, far + ys + yw);
                    if pred.score(&x, &y) >= v {
                        let w = pred.threshold_window(&x, Side::Left, v);
                        prop_assert!(w.admits(&y), "window {w:?} must admit scoring {x:?} {y:?}");
                        let w = pred.threshold_window(&y, Side::Right, v);
                        prop_assert!(w.admits(&x), "window {w:?} must admit scoring {x:?} {y:?}");
                    }
                }
            }
        }
    }
}
