//! Which index serves a bucket: the one index type every reducer
//! bucket is held in ([`BucketIndex`]), and the serving layer's shared
//! pool of them ([`IndexPools`]).

use crate::config::{LocalJoinBackend, SweepScanKind};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use tkij_index::{CandidateSource, RTree, SweepIndex, Window};
use tkij_temporal::bucket::BucketId;
use tkij_temporal::interval::Interval;

/// The index serving one bucket's probes: every bucket of a join holds
/// the variant of the configured [`LocalJoinBackend`].
#[derive(Debug, Clone)]
pub enum BucketIndex {
    /// The paper's R-tree access path.
    RTree(RTree),
    /// The sweeping endpoint store.
    Sweep(SweepIndex),
}

impl BucketIndex {
    /// Builds `backend`'s index over a bucket's items. `scan` only
    /// reaches the sweep arm: the kind the bucket's store sweeps its
    /// runs with (both kinds do identical work by contract).
    pub fn build(backend: LocalJoinBackend, items: Vec<Interval>, scan: SweepScanKind) -> Self {
        match backend {
            LocalJoinBackend::RTree => BucketIndex::RTree(RTree::bulk_load(items)),
            LocalJoinBackend::Sweep => BucketIndex::Sweep(SweepIndex::build_with_scan(items, scan)),
        }
    }

    /// The backend serving this bucket's probes — what the join records
    /// in [`crate::localjoin::LocalJoinStats`]' `buckets_rtree` /
    /// `buckets_sweep`.
    pub fn backend(&self) -> LocalJoinBackend {
        match self {
            BucketIndex::RTree(_) => LocalJoinBackend::RTree,
            BucketIndex::Sweep(_) => LocalJoinBackend::Sweep,
        }
    }
}

impl CandidateSource for BucketIndex {
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
/// bucket. One pool serves one backend configuration (its entries are
/// that configuration's backend), which is why only the crate's own
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
