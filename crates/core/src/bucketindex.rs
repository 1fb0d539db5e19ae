//! Which index serves a bucket: the per-bucket backend selector of
//! [`LocalJoinBackend::Auto`], the one index type every reducer bucket
//! is held in ([`BucketIndex`]), and the serving layer's shared pool of
//! them ([`IndexPools`]).

use crate::config::{LocalJoinBackend, SweepScanKind};
use crate::stats::BucketProfile;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use tkij_index::{CandidateSource, RTree, SweepIndex, Window};
use tkij_temporal::bucket::BucketId;
use tkij_temporal::interval::Interval;

/// Density at or above which a bucket always uses the sweeping store
/// under [`LocalJoinBackend::Auto`]: window populations converge to the
/// swept run lengths, so the sweep examines essentially only the hit set
/// while the R-tree still touches whole leaf stripes.
pub const AUTO_DENSITY_THRESHOLD: f64 = 40.0;

/// Lower density edge of the R-tree band (see [`select_backend`]).
pub const AUTO_RTREE_BAND_MIN_DENSITY: f64 = 8.0;

/// Minimum bucket cardinality for the R-tree band: below it the window
/// runs are shorter than the R-tree's per-probe leaf floor (`FANOUT`
/// items per touched leaf), so sweeping always examines less.
pub const AUTO_RTREE_MIN_CARDINALITY: u64 = 256;

/// The per-bucket backend selector of [`LocalJoinBackend::Auto`]. Never
/// returns [`LocalJoinBackend::Auto`].
///
/// Calibrated against the fig15 density sweep's per-point scan effort
/// (`items_scanned`), whose crossover is **banded**, not monotone:
///
/// * small buckets (`cardinality < 256`) → **sweep**: probe runs are
///   shorter than the R-tree's touched-leaf floor (16 items per leaf),
///   so the sweep examines strictly less at every density measured;
/// * populous mid-density buckets (density in `[8, 40)`) → **R-tree**:
///   with enough items the STR tiling resolves two-axis windows finer
///   than any single endpoint run, and measured scans undercut the sweep
///   by up to ~15%;
/// * very dense buckets (density ≥ 40) → **sweep**: runs ≈ hit sets, and
///   the sweep's advantage grows with density (fig15's dense regime);
/// * sparse populous buckets (density < 8) → **sweep**: the backends tie
///   within a few percent and the sweep's linear lanes are cheaper per
///   examined item.
///
/// The profile can come from the collected statistics
/// ([`crate::stats::PreparedDataset::bucket_profile`]) or from the
/// bucket's shipped interval slice ([`BucketProfile::from_intervals`]) —
/// the two are identical by construction (tested), so selection is
/// deterministic wherever it runs.
pub fn select_backend(profile: &BucketProfile) -> LocalJoinBackend {
    let density = profile.density();
    if profile.cardinality >= AUTO_RTREE_MIN_CARDINALITY
        && (AUTO_RTREE_BAND_MIN_DENSITY..AUTO_DENSITY_THRESHOLD).contains(&density)
    {
        LocalJoinBackend::RTree
    } else {
        LocalJoinBackend::Sweep
    }
}

/// The per-bucket backend plan of one [`LocalJoinBackend::Auto`] join:
/// the fixed backend chosen for each (vertex, bucket). The engine builds
/// it **once** from the collected statistics
/// ([`crate::stats::PreparedDataset::bucket_profile`]) and every reducer
/// reads it, so replicated buckets are not re-profiled per reducer.
pub type BackendChoices = BTreeMap<(u16, BucketId), LocalJoinBackend>;

/// The index serving one bucket's probes: whichever fixed backend was
/// chosen for the bucket. With a fixed [`LocalJoinBackend`] every bucket
/// of a join holds that variant; under [`LocalJoinBackend::Auto`] each
/// bucket holds the one [`select_backend`] picks for its profile.
#[derive(Debug, Clone)]
pub enum BucketIndex {
    /// The paper's R-tree access path.
    RTree(RTree),
    /// The sweeping endpoint store.
    Sweep(SweepIndex),
}

impl BucketIndex {
    /// Builds the index for an already-made fixed-backend choice.
    /// [`LocalJoinBackend::Auto`] as `choice` is treated as "decide here"
    /// from the slice profile. `scan` only reaches the sweep arm: the
    /// kind a bucket's store sweeps its runs with (never a selection
    /// input — both kinds do identical work by contract).
    pub fn build_chosen(
        choice: LocalJoinBackend,
        items: Vec<Interval>,
        scan: SweepScanKind,
    ) -> Self {
        let choice = match choice {
            LocalJoinBackend::Auto => select_backend(&BucketProfile::from_intervals(&items)),
            fixed => fixed,
        };
        match choice {
            LocalJoinBackend::RTree => BucketIndex::RTree(RTree::bulk_load(items)),
            _ => BucketIndex::Sweep(SweepIndex::build_with_scan(items, scan)),
        }
    }

    /// The fixed backend serving this bucket's probes (never
    /// [`LocalJoinBackend::Auto`]) — what the join records in
    /// [`crate::localjoin::LocalJoinStats`]' `buckets_rtree` / `buckets_sweep`.
    pub fn backend(&self) -> LocalJoinBackend {
        match self {
            BucketIndex::RTree(_) => LocalJoinBackend::RTree,
            BucketIndex::Sweep(_) => LocalJoinBackend::Sweep,
        }
    }
}

impl CandidateSource for BucketIndex {
    fn build(items: Vec<Interval>) -> Self {
        Self::build_chosen(LocalJoinBackend::Auto, items, SweepScanKind::default())
    }

    fn items(&self) -> &[Interval] {
        match self {
            BucketIndex::RTree(t) => t.items(),
            BucketIndex::Sweep(s) => s.items(),
        }
    }

    fn probe<'t>(&'t self, window: &Window, visit: &mut dyn FnMut(&'t Interval)) -> u64 {
        match self {
            BucketIndex::RTree(t) => t.probe(window, visit),
            BucketIndex::Sweep(s) => s.probe(window, visit),
        }
    }
}

/// The serving layer's shared, read-only index pool: one immutable
/// [`BucketIndex`] per (collection, bucket), built on first use and
/// reused by every subsequent query and reducer that ships the same
/// bucket. One pool serves one backend configuration (its entries carry
/// that configuration's choices), which is why only the crate's own
/// serving layer can hand a pool to the join.
///
/// Sharing is sound because the contents of a pooled index are
/// *query-independent*: the join-phase mapper ships **every** interval of
/// a collection whose bucket the assignment needs, and the closure that
/// builds an index (`local_topk_join_planned`) sorts its copy of the
/// slice by `(start, end, id)` first — so any two queries (or reducers)
/// that would build an index for the same (collection, bucket) build it
/// from the identical canonical interval sequence. A pool hit therefore
/// returns an index bit-identical to the one a cold build would produce,
/// including probe visit order and every examined-item counter — and may
/// skip the sort (and the copy), because it never reads the slice it was
/// shipped.
///
/// Keys use the *collection* id (not the query-vertex index) so self
/// -joins and different queries over the same collection share entries.
/// Concurrent first requests for one key may race to build; both builds
/// are identical by the argument above and the first insert wins, so the
/// race is benign (a little duplicated build work, never a different
/// index).
#[derive(Debug, Default)]
pub struct IndexPools {
    indexes: RwLock<BTreeMap<(u32, BucketId), Arc<BucketIndex>>>,
}

impl IndexPools {
    /// An empty pool; indexes are built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached indexes.
    pub fn len(&self) -> usize {
        self.indexes.read().len()
    }

    /// Whether no index has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pooled index of `key`, built with `build` on a miss.
    pub(crate) fn get_or_build(
        &self,
        key: (u32, BucketId),
        build: impl FnOnce() -> BucketIndex,
    ) -> Arc<BucketIndex> {
        if let Some(found) = self.indexes.read().get(&key) {
            return Arc::clone(found);
        }
        // Built outside the write lock: a concurrent builder produces the
        // identical index (see the type-level soundness argument), and
        // `or_insert` keeps whichever landed first.
        let built = Arc::new(build());
        Arc::clone(self.indexes.write().entry(key).or_insert(built))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_is_density_and_cardinality_driven() {
        // Very dense → sweep, at any cardinality.
        let dense = BucketProfile { cardinality: 1_000, duration_sum: 90_000, span: 1_000 };
        assert!(dense.density() >= AUTO_DENSITY_THRESHOLD);
        assert_eq!(select_backend(&dense), LocalJoinBackend::Sweep);
        // Populous mid-density band → rtree.
        let banded = BucketProfile { cardinality: 300, duration_sum: 15_000, span: 1_000 };
        assert!(banded.density() >= AUTO_RTREE_BAND_MIN_DENSITY);
        assert!(banded.density() < AUTO_DENSITY_THRESHOLD);
        assert_eq!(select_backend(&banded), LocalJoinBackend::RTree);
        // Mid-density but small → sweep (below the R-tree leaf floor).
        let small = BucketProfile { cardinality: 100, duration_sum: 15_000, span: 1_000 };
        assert_eq!(select_backend(&small), LocalJoinBackend::Sweep);
        // Sparse populous → sweep (backends tie; sweep is cheaper/item).
        let sparse = BucketProfile { cardinality: 10_000, duration_sum: 10_000, span: 1_000_000 };
        assert_eq!(select_backend(&sparse), LocalJoinBackend::Sweep);
        // Band edges are half-open: density exactly 40 flips to sweep.
        let at_edge = BucketProfile { cardinality: 1_000, duration_sum: 40_000, span: 1_000 };
        assert_eq!(at_edge.density(), AUTO_DENSITY_THRESHOLD);
        assert_eq!(select_backend(&at_edge), LocalJoinBackend::Sweep);
        // Empty → a fixed backend, never Auto.
        assert_eq!(select_backend(&BucketProfile::default()), LocalJoinBackend::Sweep);
    }

    #[test]
    fn auto_index_dispatches_to_the_selected_backend() {
        // A very dense bucket builds the sweep store; a populous
        // mid-density one the R-tree.
        let dense: Vec<Interval> =
            (0..100).map(|i| Interval::new_unchecked(i, i as i64, i as i64 + 80)).collect();
        let banded: Vec<Interval> =
            (0..300).map(|i| Interval::new_unchecked(i, i as i64, i as i64 + 14)).collect();
        let d = BucketIndex::build(dense);
        let b = BucketIndex::build(banded.clone());
        assert_eq!(d.backend(), LocalJoinBackend::Sweep);
        assert_eq!(
            select_backend(&BucketProfile::from_intervals(&banded)),
            LocalJoinBackend::RTree
        );
        assert_eq!(b.backend(), LocalJoinBackend::RTree);
        assert_eq!(d.len(), 100);
        assert_eq!(b.len(), 300);
    }
}
