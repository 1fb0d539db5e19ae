//! A sweeping-style, endpoint-sorted candidate store — the one index
//! type of the local-join hot path.
//!
//! Piatov et al. ("Cache-Efficient Sweeping-Based Interval Joins for
//! Extended Allen Relation Predicates") observe that for interval joins,
//! endpoint-sorted arrays scanned sequentially beat tree structures by
//! large factors: every probe reads one contiguous run instead of
//! chasing node pointers. TKIJ's local join only ever asks one question
//! of its per-bucket index — "which intervals lie inside an axis-aligned
//! window of the (start, end) endpoint plane?" (the score-threshold
//! window of [`crate::threshold_candidates`]) — which maps directly onto
//! that layout:
//!
//! * the bucket is kept twice, sorted by `(start, end, id)` and by
//!   `(end, start, id)`;
//! * a probe binary-searches each copy for the window's range on that
//!   copy's leading endpoint, picks the *shorter* of the two runs, and
//!   sweeps it, visiting every interval [`ThresholdWindow::admits`].
//!
//! The run search compares the `as f64` cast of the leading endpoint,
//! which is what `admits` compares. The cast is monotone
//! (non-decreasing), so each copy stays sorted under it and a run holds
//! exactly the intervals whose leading endpoint the window admits —
//! beyond `2^53`, where distinct endpoints share one `f64`, the whole
//! plateau at a bound included.

use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::ThresholdWindow;

/// The sweep store's former run-scan kind, ignored by
/// [`SweepIndex::build_with_scan`]. The type and the engine configuration
/// field carrying it remain only because the repository's `benchmark/`
/// still spells them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepScanKind {
    /// The only value; it selects nothing.
    #[default]
    Chunked,
}

/// An endpoint-sorted interval store answering window queries by
/// sweeping the shorter endpoint run.
#[derive(Debug, Clone)]
pub struct SweepIndex {
    /// The intervals in `(start, end, id)` order, also exposed through
    /// [`SweepIndex::items`].
    by_start: Vec<Interval>,
    /// The same intervals in `(end, start, id)` order.
    by_end: Vec<Interval>,
}

impl SweepIndex {
    /// Builds the index. Input order does not matter: each copy is sorted
    /// by a key that is the whole interval, so the sorted sequences are
    /// unique and any permutation of one bucket's intervals builds the
    /// identical index: same item order, same probe visit order, same
    /// examined-item counts. That is what lets a reducer build from a
    /// slice in arrival order, and the serving layer's pool hand one
    /// build to every later query.
    pub fn build(mut by_start: Vec<Interval>) -> Self {
        by_start.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
        let mut by_end = by_start.clone();
        by_end.sort_unstable_by_key(|iv| (iv.end, iv.start, iv.id));
        SweepIndex { by_start, by_end }
    }

    /// [`SweepIndex::build`]; the scan kind is ignored.
    pub fn build_with_scan(items: Vec<Interval>, _scan: SweepScanKind) -> Self {
        Self::build(items)
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// All indexed intervals in `(start, end, id)` order.
    pub fn items(&self) -> &[Interval] {
        &self.by_start
    }

    /// Visits every interval the window admits — in `(start, end, id)`
    /// order when the start run is the shorter (ties included), else in
    /// `(end, start, id)` order — and returns the number of stored items
    /// examined (the swept run's length), the local join's scan-effort
    /// telemetry.
    pub fn window_query<'t>(
        &'t self,
        window: &ThresholdWindow,
        mut visit: impl FnMut(&'t Interval),
    ) -> u64 {
        if window.is_empty() {
            return 0;
        }
        let start_run = run(&self.by_start, window.start, |iv| iv.start);
        let end_run = run(&self.by_end, window.end, |iv| iv.end);
        let swept = if start_run.len() <= end_run.len() { start_run } else { end_run };
        for iv in swept.iter().filter(|iv| window.admits(iv)) {
            visit(iv);
        }
        swept.len() as u64
    }
}

/// The run of `sorted` (ordered by `key`) whose key, cast to `f64`, lies
/// in `[lo, hi]`; empty when the bounds are reversed.
fn run(sorted: &[Interval], (lo, hi): (f64, f64), key: impl Fn(&Interval) -> i64) -> &[Interval] {
    let first = sorted.partition_point(|iv| (key(iv) as f64) < lo);
    let end = sorted.partition_point(|iv| (key(iv) as f64) <= hi);
    &sorted[first..end.max(first)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::FAR;
    use proptest::prelude::*;

    /// An unbounded axis.
    const ANY: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    fn window(start: (f64, f64), end: (f64, f64)) -> ThresholdWindow {
        ThresholdWindow { start, end }
    }

    /// The intervals a probe visits, in visit order.
    fn collect(s: &SweepIndex, w: &ThresholdWindow) -> Vec<Interval> {
        let mut out = Vec::new();
        s.window_query(w, |iv| out.push(*iv));
        out
    }

    fn sample(n: u64) -> Vec<Interval> {
        (0..n)
            .map(|i| iv(i, (i as i64 * 37) % 500, (i as i64 * 37) % 500 + (i as i64 % 40)))
            .collect()
    }

    #[test]
    fn empty_index_queries_nothing() {
        let s = SweepIndex::build(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.items().is_empty());
        assert_eq!(collect(&s, &ThresholdWindow::unbounded()), vec![]);
    }

    #[test]
    fn full_window_returns_everything() {
        let items = sample(100);
        let s = SweepIndex::build(items.clone());
        let mut got = collect(&s, &ThresholdWindow::unbounded());
        got.sort_by_key(|i| i.id);
        let mut want = items;
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_window_returns_nothing_and_scans_nothing() {
        let s = SweepIndex::build(sample(50));
        let w = window((10.0, 5.0), (0.0, 100.0));
        assert!(w.is_empty());
        assert_eq!(s.window_query(&w, |_| panic!("no visits")), 0);
    }

    #[test]
    fn items_are_start_sorted() {
        let s = SweepIndex::build(sample(200));
        assert!(s
            .items()
            .windows(2)
            .all(|w| (w[0].start, w[0].end, w[0].id) <= (w[1].start, w[1].end, w[1].id)));
    }

    #[test]
    fn scan_count_is_the_shorter_run() {
        // 100 items, all ending at distinct points; a window constraining
        // starts to a 1-wide range must sweep at most that run.
        let items: Vec<Interval> = (0..100).map(|i| iv(i, i as i64, i as i64 + 500)).collect();
        let s = SweepIndex::build(items);
        let mut hits = 0;
        let scanned = s.window_query(&window((10.0, 11.0), ANY), |_| hits += 1);
        assert_eq!(hits, 2);
        assert_eq!(scanned, 2, "start run is the tighter lane");
        // Ends falling as starts rise: a window constraining ends to a
        // 1-wide range sweeps the end run, in (end, start, id) order.
        let items: Vec<Interval> = (0..100).map(|i| iv(i, i as i64, 600 - i as i64)).collect();
        let s = SweepIndex::build(items);
        let mut ids = Vec::new();
        let scanned = s.window_query(&window(ANY, (510.0, 511.0)), |i| ids.push(i.id));
        assert_eq!(ids, vec![90, 89]);
        assert_eq!(scanned, 2, "end run is the tighter lane");
    }

    #[test]
    fn empty_index_scans_zero_for_any_window() {
        let s = SweepIndex::build(vec![]);
        for w in [
            ThresholdWindow::unbounded(),
            window((5.0, 5.0), ANY),
            window((10.0, 0.0), (0.0, 10.0)), // reversed
        ] {
            let mut visits = 0u32;
            let scanned = s.window_query(&w, |_| visits += 1);
            assert_eq!((visits, scanned), (0, 0), "{w:?}");
        }
    }

    #[test]
    fn zero_width_window_hits_exact_endpoint_only() {
        // Items with starts 0, 10, 10, 10, 20; a zero-width start window
        // at exactly 10 must visit precisely the three 10-starters and
        // examine exactly that run (it is the tighter lane).
        let s = SweepIndex::build(vec![
            iv(0, 0, 100),
            iv(1, 10, 40),
            iv(2, 10, 50),
            iv(3, 10, 60),
            iv(4, 20, 70),
        ]);
        let mut got = Vec::new();
        let scanned = s.window_query(&window((10.0, 10.0), ANY), |i| got.push(i.id));
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(scanned, 3, "examines exactly the zero-width run");
        // Zero-width on the end axis, between runs: nothing visited,
        // nothing examined.
        let mut visits = 0u32;
        let scanned = s.window_query(&window(ANY, (45.0, 45.0)), |_| visits += 1);
        assert_eq!((visits, scanned), (0, 0));
    }

    #[test]
    fn window_touching_exactly_one_endpoint_run() {
        // Three start runs at 0, 50, 100 (4 items each, distinct ends).
        // A window covering only the middle run — via either boundary
        // touch — visits all 4 members and examines exactly 4 items.
        let mut items = Vec::new();
        for (run, s0) in [(0u64, 0i64), (1, 50), (2, 100)] {
            for j in 0..4u64 {
                items.push(iv(run * 4 + j, s0, s0 + 200 + (run * 4 + j) as i64));
            }
        }
        let s = SweepIndex::build(items);
        for start in [(50.0, 50.0), (1.0, 99.0), (50.0, 99.0), (1.0, 50.0)] {
            let w = window(start, ANY);
            let mut got = Vec::new();
            let scanned = s.window_query(&w, |i| got.push(i.id));
            got.sort_unstable();
            assert_eq!(got, vec![4, 5, 6, 7], "{w:?}");
            assert_eq!(scanned, 4, "{w:?}: examined exactly the touched run");
        }
    }

    #[test]
    fn reversed_and_degenerate_windows_scan_nothing() {
        let s = SweepIndex::build(sample(60));
        for w in [
            // Reversed start axis.
            window((20.0, 10.0), ANY),
            // Reversed end axis.
            window(ANY, (90.0, 2.0)),
            // Both reversed.
            window((5.0, 1.0), (9.0, 3.0)),
            // Disjoint from the data on the start axis.
            window((10_000.0, 20_000.0), ANY),
            // Inverted infinite bounds.
            window((f64::INFINITY, f64::NEG_INFINITY), (0.0, 100.0)),
        ] {
            let mut visits = 0u32;
            let scanned = s.window_query(&w, |_| visits += 1);
            assert_eq!(visits, 0, "{w:?}");
            assert_eq!(scanned, 0, "{w:?}: degenerate windows must not sweep");
        }
    }

    #[test]
    fn all_identical_endpoints_form_one_run() {
        // Every item at (5, 5): one endpoint run holds the whole index,
        // and a probe visits everything in id order while examining
        // exactly the run.
        let n = 19;
        let items: Vec<Interval> = (0..n as u64).map(|id| iv(id, 5, 5)).collect();
        let s = SweepIndex::build(items.clone());
        let hit = window((5.0, 5.0), (5.0, 5.0));
        assert_eq!(collect(&s, &hit), items, "all visited, in (start, end, id) order");
        let mut visits = 0u32;
        let scanned = s.window_query(&hit, |_| visits += 1);
        assert_eq!((visits as usize, scanned as usize), (n, n));
        // Zero-width windows just off the point: nothing visited,
        // nothing examined (the runs are empty).
        for w in [window((4.0, 4.0), ANY), window((6.0, 6.0), ANY), window((5.0, 5.0), (6.0, 6.0))]
        {
            let mut visits = 0u32;
            let scanned = s.window_query(&w, |_| visits += 1);
            assert_eq!((visits, scanned), (0, 0), "{w:?}");
        }
    }

    #[test]
    fn half_open_infinite_windows() {
        let s = SweepIndex::build(vec![iv(0, 0, 5), iv(1, 10, 15), iv(2, 20, 25)]);
        let got = collect(&s, &window((9.0, f64::INFINITY), ANY));
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![1, 2]);
        let got = collect(&s, &window(ANY, (f64::NEG_INFINITY, 6.0)));
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![0]);
    }

    proptest! {
        /// Sweep window queries agree exactly with a linear `admits`
        /// filter on bounded, reversed (negative-width) and unbounded
        /// axes, at every `FAR` offset: beyond `2^53` distinct endpoints
        /// share one `f64`, and each run must keep the whole plateau at
        /// its bounds.
        #[test]
        fn matches_linear_scan(
            points in proptest::collection::vec((0i64..200, 0i64..60), 0..300),
            ws in 0i64..200, ww in -20i64..100,
            we in 0i64..260, wh in -20i64..100,
            open_start in proptest::bool::ANY,
            open_end in proptest::bool::ANY,
            far in 0usize..4,
        ) {
            let far = FAR[far];
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, far + s, far + s + w))
                .collect();
            let s = SweepIndex::build(items.clone());
            let axis = |lo: i64, width: i64| ((far + lo) as f64, (far + lo + width) as f64);
            let w = window(
                if open_start { ANY } else { axis(ws, ww) },
                if open_end { ANY } else { axis(we, wh) },
            );
            let mut got = collect(&s, &w);
            got.sort_by_key(|i| i.id);
            let want: Vec<Interval> = items.iter().filter(|i| w.admits(i)).copied().collect();
            prop_assert_eq!(got, want);
        }
    }
}
