//! Vectorized sweep lanes: the chunked, structure-of-arrays in-window
//! scan behind [`crate::SweepIndex`]'s hot loop.
//!
//! A sweep probe binary-searches an endpoint run and then tests the
//! *other* coordinate of every item in the run against the window, in the
//! batched formulation Piatov-style sweep joins exploit: the run's filter
//! coordinates live in a gapless structure-of-arrays lane, scanned in
//! fixed-width chunks of [`LANE_WIDTH`] values. Each chunk is compared
//! branch-free into a hit *mask* (one bit per lane slot, assembled with
//! integer shifts), and matching slots are drained from the mask in
//! ascending bit order; a trailing partial chunk falls back to the scalar
//! tail, [`scan_scalar`]. The chunk body is a fixed-trip-count,
//! branch-free loop over `[f64; LANE_WIDTH]` — exactly the shape LLVM's
//! autovectorizer turns into packed `cmppd`/`vcmppd` compares on every
//! x86-64 baseline.
//!
//! # Why `f64` key lanes (and not raw `u64` endpoint keys)
//!
//! The reference semantics the sweep must reproduce is
//! [`ThresholdWindow::admits`]: `(endpoint as f64)` compared against
//! `f64` window bounds (which may be infinite). Storing the *cast*
//! endpoint in the lane makes the chunked compare bit-identical to that
//! reference by construction, with the cast performed once at build time
//! instead of per probe. The bounds are exact integer bounds on the
//! endpoint, worked out in saturating `i64` and cast to `f64` once
//! (`Primitive::free_axis_window`). The cast is monotone, so every
//! endpoint inside the exact window passes, at any magnitude. Beyond
//! `2^53` an endpoint just outside it may pass too, because it rounds to
//! the same `f64`; the exact score check rejects it. Packed `f64`
//! compares are also the portably vectorizable choice: SSE2 has `cmppd`,
//! while 64-bit integer compares only arrive with SSE4.2.
//!
//! # The scalar oracle
//!
//! [`scan_scalar`] — one compare-and-branch per slot — is both the
//! chunked scan's tail and the oracle its tests compare against:
//! [`scan_chunked`] must visit the **same slots in the same ascending
//! order** for every lane and window. The tests below and
//! `tests/sweep_scan_equivalence.rs` pin that over every tail path.
//!
//! [`ThresholdWindow::admits`]: crate::ThresholdWindow::admits

use std::ops::Range;

/// Lane slots per fixed-width chunk of the chunked scan — 8 × 64-bit
/// values, one 64-byte cache line per chunk load. The chunked scan's
/// mask loop has this fixed trip count, and the scalar tail handles at
/// most `LANE_WIDTH - 1` trailing slots.
pub const LANE_WIDTH: usize = 8;

/// One endpoint order of a sweep store, as gapless structure-of-arrays
/// lanes: a sorted **key** lane (binary-search target) and an aligned
/// **filter** lane holding the other coordinate of the same item (sweep
/// test). Both lanes store the `as f64` cast of the endpoint, computed
/// once at build time, so probes compare exactly what
/// [`ThresholdWindow::admits`] would — see the module docs.
///
/// [`ThresholdWindow::admits`]: crate::ThresholdWindow::admits
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

    /// Sweeps `run` of the filter lane for values in `[lo, hi]` with
    /// [`scan_chunked`], invoking `on_hit` with each matching
    /// **absolute** slot index in ascending order.
    #[inline]
    pub fn sweep(&self, run: Range<usize>, lo: f64, hi: f64, mut on_hit: impl FnMut(usize)) {
        let base = run.start;
        scan_chunked(&self.filters[run], lo, hi, |i| on_hit(base + i));
    }
}

/// The scalar scan: one compare-and-branch per slot, in slot order — the
/// chunked scan's tail and the oracle its tests compare against.
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
/// property the scalar-oracle tests pin.
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
        // scan.
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

    fn scalar(lane: &[f64], lo: f64, hi: f64) -> Vec<usize> {
        let mut out = Vec::new();
        scan_scalar(lane, lo, hi, |i| out.push(i));
        out
    }

    fn chunked(lane: &[f64], lo: f64, hi: f64) -> Vec<usize> {
        let mut out = Vec::new();
        scan_chunked(lane, lo, hi, |i| out.push(i));
        out
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
                    chunked(&lane, lo, hi),
                    scalar(&lane, lo, hi),
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
            let hits = chunked(&lane, lo, hi);
            assert_eq!(hits, scalar(&lane, lo, hi), "[{lo}, {hi}]");
            if lo.is_nan() || hi.is_nan() {
                assert!(hits.is_empty(), "NaN bounds admit nothing");
            }
        }
        assert_eq!(chunked(&lane, -inf, inf).len(), 27);
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
        lanes.sweep(inverted, 0.0, 10.0, |_| panic!("no slots"));
        assert!(EndpointLanes::default().is_empty());
        assert_eq!(EndpointLanes::default().run(f64::NEG_INFINITY, f64::INFINITY), 0..0);
    }

    #[test]
    fn sweep_reports_absolute_indices() {
        let filters: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let keys = filters.clone();
        let lanes = EndpointLanes::new(keys, filters);
        let mut out = Vec::new();
        lanes.sweep(10..20, 0.0, 14.0, |i| out.push(i));
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    proptest! {
        /// The chunked scan agrees with the scalar scan on visit set AND
        /// order for arbitrary lanes and windows, and a sweep at an
        /// arbitrary run offset reports the scalar scan's hits shifted to
        /// absolute slots.
        #[test]
        fn chunked_equals_scalar(
            lane in proptest::collection::vec(-50i64..50, 0..100),
            lo in -60i64..60,
            width in -10i64..60,
            cut in 0usize..100,
        ) {
            let lane: Vec<f64> = lane.into_iter().map(|v| v as f64).collect();
            let (lo, hi) = (lo as f64, (lo + width) as f64);
            prop_assert_eq!(chunked(&lane, lo, hi), scalar(&lane, lo, hi));
            // Sub-runs starting mid-lane exercise misaligned chunk bases.
            let cut = cut.min(lane.len());
            let want: Vec<usize> =
                scalar(&lane[cut..], lo, hi).into_iter().map(|i| cut + i).collect();
            let lanes = EndpointLanes::new(vec![0.0; lane.len()], lane);
            let mut got = Vec::new();
            lanes.sweep(cut..lanes.len(), lo, hi, |i| got.push(i));
            prop_assert_eq!(got, want);
        }
    }
}
