//! A sweeping-style, endpoint-sorted candidate store — the one index
//! type of the local-join hot path.
//!
//! Piatov et al. ("Cache-Efficient Sweeping-Based Interval Joins for
//! Extended Allen Relation Predicates") observe that for interval joins,
//! endpoint-sorted arrays scanned sequentially beat tree structures by
//! large factors: every probe touches a contiguous run of a flat lane
//! instead of chasing node pointers. TKIJ's local join only ever asks one
//! question of its per-bucket index — "which intervals lie inside an
//! axis-aligned window of the (start, end) endpoint plane?" (the
//! score-threshold window of [`crate::threshold_candidates`]) — which maps
//! directly onto that layout:
//!
//! * intervals are kept sorted by start; a parallel **gapless lane** of
//!   starts supports binary-searching the window's start range into one
//!   contiguous run;
//! * a second permutation sorted by end, with its own gapless end/start
//!   lanes, serves windows that constrain the end axis more tightly;
//! * a probe binary-searches both lanes, picks the *shorter* run, and
//!   sweeps it linearly, testing the other coordinate against the window.
//!
//! Both endpoint orders live in [`EndpointLanes`] — structure-of-arrays
//! `f64` key/filter lanes (the `as f64` cast [`ThresholdWindow::admits`]
//! compares, hoisted to build time), holding raw endpoints only (no ids,
//! no padding), so a sweep reads 8 bytes per examined item in strictly
//! ascending addresses — the access pattern hardware prefetchers are
//! built for. The in-window test of a swept run is the chunked-mask scan
//! of [`crate::lanes`]; matching items are resolved back to full
//! [`Interval`]s on hit only.

use crate::lanes::EndpointLanes;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::ThresholdWindow;

/// The sweep store's run-scan kind. There is one: the chunked-mask scan
/// of [`crate::lanes`]. The type, [`SweepIndex::build_with_scan`] and
/// the engine configuration field carrying it remain only because the
/// repository's `benchmark/` still spells them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepScanKind {
    /// Fixed-width `[f64; LANE_WIDTH]` compares producing a hit mask,
    /// drained in ascending bit order, with a scalar tail.
    #[default]
    Chunked,
}

/// An endpoint-sorted interval store answering window queries by lane
/// sweeping.
#[derive(Debug, Clone)]
pub struct SweepIndex {
    /// Intervals sorted by `(start, end, id)` — the primary order, also
    /// exposed through [`SweepIndex::items`].
    items: Vec<Interval>,
    /// Start-order lanes: keys = starts (sorted), filters = ends.
    by_start: EndpointLanes,
    /// Item indexes sorted by `(end, start, id)` — the end-axis sweep
    /// order.
    by_end: Vec<u32>,
    /// End-order lanes: keys = ends in `by_end` order (sorted), filters
    /// = starts in `by_end` order.
    end_lanes: EndpointLanes,
}

impl SweepIndex {
    /// Builds the index. Input order does not matter: the items are
    /// sorted here into the canonical `(start, end, id)` sequence — a
    /// key that is the whole interval, so the sorted sequence is unique —
    /// and any permutation of one bucket's intervals builds the identical
    /// index: same item order, same probe visit order, same
    /// examined-item counts. That is what lets a reducer build from a
    /// slice in arrival order, and the serving layer's pool hand one
    /// build to every later query.
    pub fn build(mut items: Vec<Interval>) -> Self {
        items.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));
        let by_start = EndpointLanes::new(
            items.iter().map(|iv| iv.start as f64).collect(),
            items.iter().map(|iv| iv.end as f64).collect(),
        );
        let mut by_end: Vec<u32> = (0..items.len() as u32).collect();
        by_end.sort_unstable_by_key(|&i| {
            let iv = &items[i as usize];
            (iv.end, iv.start, iv.id)
        });
        let end_lanes = EndpointLanes::new(
            by_end.iter().map(|&i| items[i as usize].end as f64).collect(),
            by_end.iter().map(|&i| items[i as usize].start as f64).collect(),
        );
        SweepIndex { items, by_start, by_end, end_lanes }
    }

    /// [`SweepIndex::build`]; `SweepScanKind` has one kind.
    pub fn build_with_scan(items: Vec<Interval>, _scan: SweepScanKind) -> Self {
        Self::build(items)
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All indexed intervals in `(start, end, id)` order.
    pub fn items(&self) -> &[Interval] {
        &self.items
    }

    /// Visits every interval whose endpoint point lies in the window and
    /// returns the number of stored items examined (the swept run
    /// length) — the local join's scan-effort telemetry.
    pub fn window_query<'t>(
        &'t self,
        window: &ThresholdWindow,
        mut visit: impl FnMut(&'t Interval),
    ) -> u64 {
        if window.is_empty() || self.items.is_empty() {
            return 0;
        }
        let (s_lo, s_hi) = window.start;
        let (e_lo, e_hi) = window.end;
        // `i64 → f64` is monotone (non-decreasing), so binary-searching
        // the cast key lanes mirrors `ThresholdWindow::admits` exactly.
        let start_run = self.by_start.run(s_lo, s_hi);
        let end_run = self.end_lanes.run(e_lo, e_hi);
        if start_run.is_empty() || end_run.is_empty() {
            return 0;
        }
        if start_run.len() <= end_run.len() {
            // Start axis is the tighter constraint: sweep the start run.
            let scanned = start_run.len() as u64;
            self.by_start.sweep(start_run, e_lo, e_hi, |i| visit(&self.items[i]));
            scanned
        } else {
            // End axis is tighter: sweep the end-sorted run.
            let scanned = end_run.len() as u64;
            self.end_lanes
                .sweep(end_run, s_lo, s_hi, |j| visit(&self.items[self.by_end[j] as usize]));
            scanned
        }
    }

    /// Collects matching intervals (window query convenience).
    pub fn window_collect(&self, window: &ThresholdWindow) -> Vec<Interval> {
        let mut out = Vec::new();
        self.window_query(window, |iv| out.push(*iv));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An unbounded axis.
    const ANY: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
    }

    fn window(start: (f64, f64), end: (f64, f64)) -> ThresholdWindow {
        ThresholdWindow { start, end }
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
        assert_eq!(s.window_collect(&ThresholdWindow::unbounded()), vec![]);
    }

    #[test]
    fn full_window_returns_everything() {
        let items = sample(100);
        let s = SweepIndex::build(items.clone());
        let mut got = s.window_collect(&ThresholdWindow::unbounded());
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
        // exactly the run — through the chunked path and its tail.
        let n = 2 * crate::lanes::LANE_WIDTH + 3;
        let items: Vec<Interval> = (0..n as u64).map(|id| iv(id, 5, 5)).collect();
        let s = SweepIndex::build(items.clone());
        let hit = window((5.0, 5.0), (5.0, 5.0));
        assert_eq!(s.window_collect(&hit), items, "all visited, in (start, end, id) order");
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
        let got = s.window_collect(&window((9.0, f64::INFINITY), ANY));
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![1, 2]);
        let got = s.window_collect(&window(ANY, (f64::NEG_INFINITY, 6.0)));
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![0]);
    }

    proptest! {
        /// Sweep window queries agree exactly with a linear scan, on
        /// bounded and unbounded axes (the shapes `threshold_window`
        /// produces).
        #[test]
        fn matches_linear_scan(
            points in proptest::collection::vec((0i64..200, 0i64..60), 0..300),
            ws in 0i64..200, ww in 0i64..100,
            we in 0i64..260, wh in 0i64..100,
            open_start in proptest::bool::ANY,
            open_end in proptest::bool::ANY,
        ) {
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, *s, s + w))
                .collect();
            let s = SweepIndex::build(items.clone());
            let w = window(
                if open_start { ANY } else { (ws as f64, (ws + ww) as f64) },
                if open_end { ANY } else { (we as f64, (we + wh) as f64) },
            );
            let mut got = s.window_collect(&w);
            got.sort_by_key(|i| i.id);
            let mut want: Vec<Interval> =
                items.iter().filter(|i| w.admits(i)).copied().collect();
            want.sort_by_key(|i| i.id);
            prop_assert_eq!(got, want);
        }
    }
}
