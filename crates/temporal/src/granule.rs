//! Uniform time partitioning into granules (paper §3.2).
//!
//! TKIJ partitions the time range of each collection into `g` contiguous
//! granules of equal width. The paper adopts uniform (range) partitioning,
//! "shown to be appropriate for temporal joins". Granule ranges here are
//! disjoint inclusive integer ranges `[origin + l·width, origin +
//! (l+1)·width − 1]` (the paper's example writes touching real ranges;
//! integer timestamps make disjointness exact).

use crate::error::TemporalError;
use crate::interval::Timestamp;

/// A uniform partitioning of a time range into `count` granules of `width`
/// timestamps each, starting at `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimePartitioning {
    /// First timestamp of granule 0.
    pub origin: Timestamp,
    /// Granule width (> 0).
    pub width: i64,
    /// Number of granules `g` (> 0).
    pub count: u32,
}

impl TimePartitioning {
    /// Builds a partitioning covering `[min, max]` with `g` granules.
    ///
    /// The width is the smallest integer such that `g` granules cover the
    /// range; the last granule may extend past `max`. A range whose span
    /// or covered end (`min + g·width − 1`) overflows `i64` is rejected.
    pub fn from_range(min: Timestamp, max: Timestamp, g: u32) -> Result<Self, TemporalError> {
        if g == 0 {
            return Err(TemporalError::InvalidPartitioning("zero granules".into()));
        }
        if max < min {
            return Err(TemporalError::InvalidPartitioning(format!(
                "empty time range [{min}, {max}]"
            )));
        }
        let overflow = || {
            TemporalError::InvalidPartitioning(format!(
                "time range [{min}, {max}] with {g} granules overflows i64"
            ))
        };
        let span = max.checked_sub(min).and_then(|d| d.checked_add(1)).ok_or_else(overflow)?;
        // `span ≥ 1`, so the unsigned round-trip is lossless.
        let width = (span as u64).div_ceil(g as u64) as i64;
        (g as i64)
            .checked_mul(width)
            .and_then(|covered| min.checked_add(covered - 1))
            .ok_or_else(overflow)?;
        Ok(TimePartitioning { origin: min, width, count: g })
    }

    /// The granule index containing `t`, clamped to `[0, g)` so that
    /// out-of-range timestamps still map to a granule. A clamped
    /// timestamp lies outside its granule's range, so bucket statistics
    /// only ever count in-range intervals
    /// (`PreparedDataset::insert` rejects the others).
    #[inline]
    pub fn granule_of(&self, t: Timestamp) -> u32 {
        if t < self.origin {
            return 0;
        }
        if t > self.end() {
            return self.count - 1;
        }
        ((t - self.origin) / self.width) as u32
    }

    /// Inclusive timestamp range `[lo, hi]` of granule `l`.
    #[inline]
    pub fn range(&self, l: u32) -> (Timestamp, Timestamp) {
        debug_assert!(l < self.count);
        let lo = self.origin + l as i64 * self.width;
        (lo, lo + self.width - 1)
    }

    /// Number of granules `g`.
    #[inline]
    pub fn g(&self) -> u32 {
        self.count
    }

    /// Last timestamp covered by the partitioning.
    pub fn end(&self) -> Timestamp {
        self.origin + self.count as i64 * self.width - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_division() {
        let p = TimePartitioning::from_range(0, 99, 10).unwrap();
        assert_eq!(p.width, 10);
        assert_eq!(p.range(0), (0, 9));
        assert_eq!(p.range(9), (90, 99));
        assert_eq!(p.granule_of(0), 0);
        assert_eq!(p.granule_of(9), 0);
        assert_eq!(p.granule_of(10), 1);
        assert_eq!(p.granule_of(99), 9);
    }

    #[test]
    fn ragged_division_rounds_up() {
        let p = TimePartitioning::from_range(0, 100, 3).unwrap();
        assert_eq!(p.width, 34);
        assert_eq!(p.granule_of(100), 2);
        assert!(p.end() >= 100);
    }

    #[test]
    fn clamping_out_of_range() {
        let p = TimePartitioning::from_range(10, 109, 10).unwrap();
        assert_eq!(p.granule_of(5), 0, "below origin clamps to 0");
        assert_eq!(p.granule_of(10_000), 9, "beyond end clamps to g-1");
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(TimePartitioning::from_range(0, 10, 0).is_err());
        assert!(TimePartitioning::from_range(10, 0, 4).is_err());
    }

    #[test]
    fn overflowing_ranges_rejected() {
        for g in [1, 4] {
            let full = TimePartitioning::from_range(i64::MIN, i64::MAX, g);
            assert!(matches!(full, Err(TemporalError::InvalidPartitioning(_))), "g = {g}");
        }
        // The span fits, but 4 granules of width ⌈span / 4⌉ end past i64::MAX.
        let tail = TimePartitioning::from_range(0, i64::MAX - 1, 4);
        assert!(matches!(tail, Err(TemporalError::InvalidPartitioning(_))));
        // A range that fits clamps timestamps past `end()` to the last
        // granule, where `t − origin` would overflow.
        let p = TimePartitioning::from_range(-10, i64::MAX - 12, 2).unwrap();
        assert_eq!(p.end(), i64::MAX - 12);
        assert_eq!(p.granule_of(i64::MAX), 1);
    }

    #[test]
    fn single_point_range() {
        let p = TimePartitioning::from_range(7, 7, 4).unwrap();
        assert_eq!(p.width, 1);
        assert_eq!(p.granule_of(7), 0);
    }

    proptest! {
        /// Granule ranges tile the covered span disjointly, and
        /// `granule_of` agrees with `range`.
        #[test]
        fn tiling_consistency(min in -1000i64..1000, span in 1i64..5000, g in 1u32..64) {
            let p = TimePartitioning::from_range(min, min + span - 1, g).unwrap();
            // Ranges are contiguous and ordered.
            for l in 0..g {
                let (lo, hi) = p.range(l);
                prop_assert_eq!(hi - lo + 1, p.width);
                if l > 0 {
                    prop_assert_eq!(p.range(l - 1).1 + 1, lo);
                }
            }
            // Every in-range timestamp maps to the granule whose range
            // contains it.
            for t in [min, min + span / 2, min + span - 1] {
                let l = p.granule_of(t);
                let (lo, hi) = p.range(l);
                prop_assert!(lo <= t && t <= hi);
            }
            // The partitioning covers the requested max.
            prop_assert!(p.end() >= min + span - 1);
        }
    }
}
