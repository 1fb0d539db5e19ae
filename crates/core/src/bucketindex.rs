//! The serving layer's shared pool of bucket indexes ([`IndexPools`]).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use tkij_index::SweepIndex;
use tkij_temporal::bucket::BucketId;

/// The serving layer's shared, read-only index pool: one immutable
/// [`SweepIndex`] per (collection, bucket), built the first time a
/// reducer's combination opens that bucket and reused by every later
/// query and reducer that opens it. A bucket that is shipped but never
/// opened gets no entry, so the pool holds only opened buckets. Only the
/// crate's own serving layer can hand a pool to the join.
///
/// Sharing is sound because the contents of a pooled index are
/// *query-independent*: the join-phase mapper ships **every** interval of
/// a collection whose bucket the assignment needs, and
/// [`SweepIndex::build`] sorts whatever order it is given into the one
/// canonical `(start, end, id)` sequence — so any two queries (or
/// reducers) that open the same (collection, bucket) would build the
/// identical index, whichever opens it first. A pool hit therefore returns an index
/// bit-identical to the one a cold build would produce, including probe
/// visit order and every examined-item counter — and skips the copy and
/// the sort, because it never reads the slice it was shipped.
///
/// Keys use the *collection* id (not the query-vertex index) so self
/// -joins and different queries over the same collection share entries.
/// Concurrent first requests for one key may race to build; both builds
/// are identical by the argument above and the first insert wins, so the
/// race is benign (a little duplicated build work, never a different
/// index).
#[derive(Debug, Default)]
pub struct IndexPools {
    indexes: RwLock<BTreeMap<(u32, BucketId), Arc<SweepIndex>>>,
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
        build: impl FnOnce() -> SweepIndex,
    ) -> Arc<SweepIndex> {
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
