//! Synthetic interval workload (paper §4.2).
//!
//! "We use a pseudo-random uniform generator to get intervals' startpoints
//! and lengths in specified ranges (respectively s = [0, 10⁵] and
//! w = [1, 100]). Intervals' endpoints are integers."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tkij_temporal::collection::{CollectionId, IntervalCollection};
use tkij_temporal::interval::Interval;

/// Parameters of the uniform generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticConfig {
    /// Number of intervals `|C_i|`.
    pub size: usize,
    /// Inclusive startpoint range (the paper's `s = [0, 10⁵]`).
    pub start_range: (i64, i64),
    /// Inclusive length range (the paper's `w = [1, 100]`).
    pub length_range: (i64, i64),
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's parameters at a given size and seed.
    pub fn paper(size: usize, seed: u64) -> Self {
        SyntheticConfig { size, start_range: (0, 100_000), length_range: (1, 100), seed }
    }
}

/// Generates one collection.
pub fn uniform_collection(id: CollectionId, cfg: &SyntheticConfig) -> IntervalCollection {
    assert!(cfg.size > 0, "cannot generate an empty collection");
    assert!(cfg.length_range.0 >= 0, "length_range.0 must not be negative: {:?}", cfg.length_range);
    assert!(
        cfg.start_range.1.checked_add(cfg.length_range.1).is_some(),
        "start_range.1 + length_range.1 overflows i64: {:?} + {:?}",
        cfg.start_range,
        cfg.length_range
    );
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let intervals = (0..cfg.size)
        .map(|i| {
            let start = rng.gen_range(cfg.start_range.0..=cfg.start_range.1);
            let len = rng.gen_range(cfg.length_range.0..=cfg.length_range.1);
            Interval::new_unchecked(i as u64, start, start + len)
        })
        .collect();
    IntervalCollection::new(id, intervals).expect("size > 0")
}

/// Generates `m` collections with the paper's parameters, sizes `size`
/// each, deterministically derived from `seed`.
pub fn uniform_collections(m: usize, size: usize, seed: u64) -> Vec<IntervalCollection> {
    (0..m as u32)
        .map(|i| uniform_collection(CollectionId(i), &SyntheticConfig::paper(size, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_ranges() {
        let cfg = SyntheticConfig::paper(5_000, 42);
        let c = uniform_collection(CollectionId(0), &cfg);
        assert_eq!(c.len(), 5_000);
        for iv in c.intervals() {
            assert!((0..=100_000).contains(&iv.start));
            assert!((1..=100).contains(&iv.length()));
        }
    }

    #[test]
    #[should_panic(expected = "length_range.0 must not be negative")]
    fn rejects_negative_lengths() {
        let cfg = SyntheticConfig { length_range: (-5, -1), ..SyntheticConfig::paper(5, 1) };
        uniform_collection(CollectionId(0), &cfg);
    }

    #[test]
    #[should_panic(expected = "start_range.1 + length_range.1 overflows i64")]
    fn rejects_end_points_beyond_i64() {
        let cfg = SyntheticConfig {
            start_range: (i64::MAX - 10, i64::MAX - 1),
            ..SyntheticConfig::paper(5, 1)
        };
        uniform_collection(CollectionId(0), &cfg);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::paper(100, 7);
        let a = uniform_collection(CollectionId(0), &cfg);
        let b = uniform_collection(CollectionId(0), &cfg);
        assert_eq!(a, b);
        let c = uniform_collection(CollectionId(0), &SyntheticConfig::paper(100, 8));
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn collections_differ_by_id() {
        let cs = uniform_collections(3, 50, 1);
        assert_eq!(cs.len(), 3);
        assert_ne!(cs[0].intervals(), cs[1].intervals());
        assert_eq!(cs[2].id, CollectionId(2));
    }

    #[test]
    fn ids_are_dense_from_zero() {
        let c = uniform_collection(CollectionId(0), &SyntheticConfig::paper(10, 3));
        let ids: Vec<u64> = c.intervals().iter().map(|i| i.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn startpoint_spread_is_uniform_ish() {
        let c = uniform_collection(CollectionId(0), &SyntheticConfig::paper(20_000, 9));
        let below_half =
            c.intervals().iter().filter(|i| i.start < 50_000).count() as f64 / 20_000.0;
        assert!((below_half - 0.5).abs() < 0.02, "fraction {below_half}");
    }
}
