//! Vectorized sweep lanes: the chunked, structure-of-arrays in-window
//! scan behind [`crate::SweepIndex`]'s hot loop.
//!
//! A sweep probe binary-searches an endpoint run and then tests the
//! *other* coordinate of every item in the run against the window. Since
//! PR 2 that test was one scalar, branchy compare per item; this module
//! replaces it with the batched formulation Piatov-style sweep joins
//! exploit: the run's filter coordinates live in a gapless
//! structure-of-arrays lane, scanned in fixed-width chunks of
//! [`LANE_WIDTH`] values. Each chunk is compared branch-free into a hit
//! *mask* (one bit per lane slot, assembled with integer shifts), and
//! matching slots are drained from the mask in ascending bit order; a
//! trailing partial chunk falls back to an explicit scalar tail. The
//! chunk body is a fixed-trip-count, branch-free loop over `[f64;
//! LANE_WIDTH]` — exactly the shape LLVM's autovectorizer turns into
//! packed `cmppd`/`vcmppd` compares on every x86-64 baseline.
//!
//! # Why `f64` key lanes (and not raw `u64` endpoint keys)
//!
//! The reference semantics every backend must reproduce is
//! [`Window::contains`]: `(endpoint as f64)` compared against `f64`
//! window bounds (which may be infinite). Storing the *cast* endpoint in
//! the lane makes the chunked compare bit-identical to the scalar
//! reference by construction — the cast is performed once at build time
//! instead of per probe, and no bound-to-integer conversion (with its
//! rounding edge cases near `2^63`) is ever needed. Packed `f64`
//! compares are also the portably vectorizable choice: SSE2 has
//! `cmppd`, while 64-bit integer compares only arrive with SSE4.2.
//!
//! # Determinism contract
//!
//! [`SweepScanKind::Scalar`] and [`SweepScanKind::Chunked`] visit the
//! **same slots in the same ascending order** and examine the same run
//! (the caller's `items_scanned` telemetry is the run length for both).
//! The kinds differ only in instruction schedule — wall clock moves,
//! counters cannot. `tests/sweep_scan_equivalence.rs` locks this with a
//! scalar-oracle battery over every tail path.
//!
//! [`Window::contains`]: crate::rtree::Window::contains

use std::ops::Range;

/// Lane slots per fixed-width chunk of the chunked scan — 8 × 64-bit
/// values, one 64-byte cache line per chunk load. The chunked scan's
/// mask loop has this fixed trip count, and the scalar tail handles at
/// most `LANE_WIDTH - 1` trailing slots.
pub const LANE_WIDTH: usize = 8;

/// How [`crate::SweepIndex`] tests a swept run against the window: the
/// scalar reference (one branchy compare per item, PR-2 behavior) or
/// the chunked lane scan ([`LANE_WIDTH`]-wide hit masks with a scalar
/// tail). Both kinds visit the identical set in the identical order and
/// report the identical scan count — the knob trades nothing but wall
/// clock, which is why `Chunked` is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepScanKind {
    /// One compare-and-branch per run item — the bit-identical
    /// reference the equivalence battery checks `Chunked` against.
    Scalar,
    /// Fixed-width `[f64; LANE_WIDTH]` compares producing a hit mask,
    /// drained in ascending bit order, with an explicit scalar tail.
    #[default]
    Chunked,
}

impl SweepScanKind {
    /// All scan kinds with display names, for harness sweeps.
    pub fn all() -> [(&'static str, SweepScanKind); 2] {
        [("scalar", SweepScanKind::Scalar), ("chunked", SweepScanKind::Chunked)]
    }

    /// Display name of the scan kind.
    pub fn name(&self) -> &'static str {
        match self {
            SweepScanKind::Scalar => "scalar",
            SweepScanKind::Chunked => "chunked",
        }
    }
}

/// One endpoint order of a sweep store, as gapless structure-of-arrays
/// lanes: a sorted **key** lane (binary-search target) and an aligned
/// **filter** lane holding the other coordinate of the same item (sweep
/// test). Both lanes store the `as f64` cast of the endpoint, computed
/// once at build time, so probes compare exactly what
/// [`Window::contains`] would — see the module docs.
///
/// [`Window::contains`]: crate::rtree::Window::contains
#[derive(Debug, Clone, Default)]
pub struct EndpointLanes {
    keys: Vec<f64>,
    filters: Vec<f64>,
}

impl EndpointLanes {
    /// Builds the lanes from aligned `(key, filter)` endpoint pairs.
    /// `keys` must be non-decreasing (the caller sorts items).
    pub fn new(keys: Vec<f64>, filters: Vec<f64>) -> Self {
        debug_assert_eq!(keys.len(), filters.len());
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "key lane must be sorted");
        EndpointLanes { keys, filters }
    }

    /// Number of lane slots.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the lanes are empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The contiguous run of slots whose key lies in `[lo, hi]`. Always
    /// a well-formed (possibly empty) range: reversed bounds (`lo > hi`)
    /// clamp to an empty run, so the result can be sliced or iterated
    /// directly.
    pub fn run(&self, lo: f64, hi: f64) -> Range<usize> {
        let i0 = self.keys.partition_point(|&k| k < lo);
        let i1 = self.keys.partition_point(|&k| k <= hi);
        i0..i1.max(i0)
    }

    /// Sweeps `run` of the filter lane for values in `[lo, hi]`,
    /// invoking `on_hit` with each matching **absolute** slot index in
    /// ascending order. The visit set, order, and (caller-counted) run
    /// length are identical for both kinds.
    #[inline]
    pub fn sweep(
        &self,
        kind: SweepScanKind,
        run: Range<usize>,
        lo: f64,
        hi: f64,
        mut on_hit: impl FnMut(usize),
    ) {
        let base = run.start;
        let lane = &self.filters[run];
        match kind {
            SweepScanKind::Scalar => scan_scalar(lane, lo, hi, |i| on_hit(base + i)),
            SweepScanKind::Chunked => scan_chunked(lane, lo, hi, |i| on_hit(base + i)),
        }
    }
}

/// The scalar reference scan: one compare-and-branch per slot, in slot
/// order — byte-for-byte the PR-2 sweep loop.
#[inline]
pub fn scan_scalar(lane: &[f64], lo: f64, hi: f64, mut on_hit: impl FnMut(usize)) {
    for (i, &v) in lane.iter().enumerate() {
        if v >= lo && v <= hi {
            on_hit(i);
        }
    }
}

/// The chunked lane scan: full [`LANE_WIDTH`]-slot chunks are compared
/// branch-free into a hit mask (bit `j` ⇔ slot `base + j` inside the
/// window) whose set bits are drained in ascending order; the trailing
/// partial chunk runs the explicit scalar tail. Equivalent to
/// [`scan_scalar`] in visit set *and* order for every input — the
/// property the scalar-oracle battery pins.
#[inline]
pub fn scan_chunked(lane: &[f64], lo: f64, hi: f64, mut on_hit: impl FnMut(usize)) {
    let mut chunks = lane.chunks_exact(LANE_WIDTH);
    let mut base = 0usize;
    for chunk in chunks.by_ref() {
        let c: &[f64; LANE_WIDTH] = chunk.try_into().expect("chunks_exact yields full chunks");
        // Fixed trip count, no data-dependent branches: `>=`/`<=` fold
        // to packed compares and the mask assembles with shifts — the
        // autovectorizer-friendly shape. NaN bounds compare false, so a
        // degenerate window produces an all-zero mask, like the scalar
        // reference.
        let mut mask = 0u32;
        for (j, &v) in c.iter().enumerate() {
            mask |= (((v >= lo) & (v <= hi)) as u32) << j;
        }
        const FULL: u32 = (1 << LANE_WIDTH) - 1;
        if mask == FULL {
            // Saturated chunk — the common case in the dense regime,
            // where swept runs are nearly pure hit sets: visit straight
            // through without the bit-drain loop.
            for j in 0..LANE_WIDTH {
                on_hit(base + j);
            }
        } else {
            // Drain set bits lowest-first: visit order stays slot order.
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                on_hit(base + j);
                mask &= mask - 1;
            }
        }
        base += LANE_WIDTH;
    }
    // Explicit scalar tail: at most LANE_WIDTH - 1 trailing slots.
    scan_scalar(chunks.remainder(), lo, hi, |i| on_hit(base + i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hits(kind: SweepScanKind, lane: &[f64], lo: f64, hi: f64) -> Vec<usize> {
        let lanes = EndpointLanes::new(vec![0.0; lane.len()], lane.to_vec());
        let mut out = Vec::new();
        lanes.sweep(kind, 0..lane.len(), lo, hi, |i| out.push(i));
        out
    }

    #[test]
    fn names_match_the_registry() {
        for (name, kind) in SweepScanKind::all() {
            assert_eq!(kind.name(), name);
        }
        assert_eq!(SweepScanKind::default(), SweepScanKind::Chunked);
    }

    #[test]
    fn every_tail_length_matches_the_scalar_reference() {
        // Run lengths pinning each code path: empty, pure tail (1,
        // LANE_WIDTH-1), exactly one chunk, one chunk + 1-slot tail, and
        // many chunks + a 3-slot tail.
        for n in [0, 1, LANE_WIDTH - 1, LANE_WIDTH, LANE_WIDTH + 1, 8 * LANE_WIDTH + 3] {
            let lane: Vec<f64> = (0..n).map(|i| ((i * 7) % 10) as f64).collect();
            for (lo, hi) in [(2.0, 6.0), (0.0, 9.0), (11.0, 20.0), (5.0, 5.0), (6.0, 2.0)] {
                assert_eq!(
                    hits(SweepScanKind::Chunked, &lane, lo, hi),
                    hits(SweepScanKind::Scalar, &lane, lo, hi),
                    "n={n} window=[{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn infinite_and_nan_bounds_match_scalar() {
        let lane: Vec<f64> = (0..27).map(|i| i as f64 - 13.0).collect();
        let inf = f64::INFINITY;
        for (lo, hi) in [
            (-inf, inf),
            (-inf, 0.0),
            (0.0, inf),
            (inf, -inf), // inverted infinite bounds: no hits
            (f64::NAN, 5.0),
            (0.0, f64::NAN),
        ] {
            let chunked = hits(SweepScanKind::Chunked, &lane, lo, hi);
            assert_eq!(chunked, hits(SweepScanKind::Scalar, &lane, lo, hi), "[{lo}, {hi}]");
            if lo.is_nan() || hi.is_nan() {
                assert!(chunked.is_empty(), "NaN bounds admit nothing");
            }
        }
        assert_eq!(hits(SweepScanKind::Chunked, &lane, -inf, inf).len(), 27);
    }

    #[test]
    fn run_search_is_the_partition_point_pair() {
        let lanes =
            EndpointLanes::new(vec![0.0, 1.0, 1.0, 3.0, 7.0], vec![9.0, 8.0, 7.0, 6.0, 5.0]);
        assert_eq!(lanes.len(), 5);
        assert!(!lanes.is_empty());
        assert_eq!(lanes.run(1.0, 3.0), 1..4);
        assert_eq!(lanes.run(1.0, 1.0), 1..3);
        assert_eq!(lanes.run(4.0, 6.0), 4..4, "empty run between keys");
        let inverted = lanes.run(8.0, 2.0);
        assert!(inverted.is_empty(), "reversed bounds clamp to an empty run: {inverted:?}");
        assert_eq!((inverted.start, inverted.end), (5, 5));
        // A clamped (empty) run is safe to sweep directly.
        lanes.sweep(SweepScanKind::Chunked, inverted, 0.0, 10.0, |_| panic!("no slots"));
        assert!(EndpointLanes::default().is_empty());
        assert_eq!(EndpointLanes::default().run(f64::NEG_INFINITY, f64::INFINITY), 0..0);
    }

    #[test]
    fn sweep_reports_absolute_indices() {
        let filters: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let keys = filters.clone();
        let lanes = EndpointLanes::new(keys, filters);
        for kind in [SweepScanKind::Scalar, SweepScanKind::Chunked] {
            let mut out = Vec::new();
            lanes.sweep(kind, 10..20, 0.0, 14.0, |i| out.push(i));
            assert_eq!(out, vec![10, 11, 12, 13, 14], "{kind:?}");
        }
    }

    proptest! {
        /// Chunked and scalar scans agree on visit set AND order for
        /// arbitrary lanes and windows, at arbitrary run offsets.
        #[test]
        fn chunked_equals_scalar(
            lane in proptest::collection::vec(-50i64..50, 0..100),
            lo in -60i64..60,
            width in -10i64..60,
            cut in 0usize..100,
        ) {
            let lane: Vec<f64> = lane.into_iter().map(|v| v as f64).collect();
            let (lo, hi) = (lo as f64, (lo + width) as f64);
            prop_assert_eq!(
                hits(SweepScanKind::Chunked, &lane, lo, hi),
                hits(SweepScanKind::Scalar, &lane, lo, hi)
            );
            // Sub-runs starting mid-lane exercise misaligned chunk bases.
            let cut = cut.min(lane.len());
            let lanes = EndpointLanes::new(vec![0.0; lane.len()], lane);
            let mut a = Vec::new();
            let mut b = Vec::new();
            lanes.sweep(SweepScanKind::Chunked, cut..lanes.len(), lo, hi, |i| a.push(i));
            lanes.sweep(SweepScanKind::Scalar, cut..lanes.len(), lo, hi, |i| b.push(i));
            prop_assert_eq!(a, b);
        }
    }
}
