//! A sweeping-style, endpoint-sorted candidate store — the cache-friendly
//! alternative to the R-tree on the local-join hot path.
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
//!   bare `i64` starts supports binary-searching the window's start range
//!   into one contiguous run;
//! * a second permutation sorted by end, with its own gapless end/start
//!   lanes, serves windows that constrain the end axis more tightly;
//! * a probe binary-searches both lanes, picks the *shorter* run, and
//!   sweeps it linearly, testing the other coordinate against the window.
//!
//! The lanes hold raw endpoints only (no ids, no padding), so a sweep
//! reads 8 bytes per examined item in strictly ascending addresses — the
//! access pattern hardware prefetchers are built for. Matching items are
//! resolved back to full [`Interval`]s on hit only.
//!
//! Since the vectorized-lanes rework, both endpoint orders live in
//! [`EndpointLanes`] — structure-of-arrays `f64` key/filter lanes (the
//! `as f64` cast [`Window::contains`] compares, hoisted to build time) —
//! and the in-window test of a swept run is delegated to the chunked or
//! scalar scan selected by [`SweepScanKind`] (see [`crate::lanes`] for
//! the mask protocol and the bit-identity contract between the kinds).

use crate::lanes::{EndpointLanes, SweepScanKind};
use crate::rtree::Window;
use tkij_temporal::interval::Interval;

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
    /// How swept runs are tested against the window.
    scan: SweepScanKind,
}

impl SweepIndex {
    /// Builds the index with the default ([`SweepScanKind::Chunked`])
    /// scan kind. Input order does not matter; probes visit items in
    /// deterministic endpoint order.
    pub fn build(items: Vec<Interval>) -> Self {
        Self::build_with_scan(items, SweepScanKind::default())
    }

    /// Builds the index with an explicit scan kind. The kind cannot
    /// change what a probe visits, in which order, or how many items it
    /// examines — only how fast (see [`crate::lanes`]).
    pub fn build_with_scan(mut items: Vec<Interval>, scan: SweepScanKind) -> Self {
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
        SweepIndex { items, by_start, by_end, end_lanes, scan }
    }

    /// The scan kind probes run with.
    pub fn scan_kind(&self) -> SweepScanKind {
        self.scan
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
    /// length) — the backend's scan-effort telemetry.
    pub fn window_query<'t>(&'t self, window: &Window, mut visit: impl FnMut(&'t Interval)) -> u64 {
        if window.is_empty() || self.items.is_empty() {
            return 0;
        }
        let (s_lo, s_hi) = window.start;
        let (e_lo, e_hi) = window.end;
        // `i64 → f64` is monotone (non-decreasing), so binary-searching
        // the cast key lanes mirrors `Window::contains` exactly.
        let start_run = self.by_start.run(s_lo, s_hi);
        let end_run = self.end_lanes.run(e_lo, e_hi);
        if start_run.is_empty() || end_run.is_empty() {
            return 0;
        }
        if start_run.len() <= end_run.len() {
            // Start axis is the tighter constraint: sweep the start run.
            let scanned = start_run.len() as u64;
            self.by_start.sweep(self.scan, start_run, e_lo, e_hi, |i| visit(&self.items[i]));
            scanned
        } else {
            // End axis is tighter: sweep the end-sorted run.
            let scanned = end_run.len() as u64;
            self.end_lanes.sweep(self.scan, end_run, s_lo, s_hi, |j| {
                visit(&self.items[self.by_end[j] as usize])
            });
            scanned
        }
    }

    /// Collects matching intervals (window query convenience).
    pub fn window_collect(&self, window: &Window) -> Vec<Interval> {
        let mut out = Vec::new();
        self.window_query(window, |iv| out.push(*iv));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree::RTree;
    use proptest::prelude::*;

    fn iv(id: u64, s: i64, e: i64) -> Interval {
        Interval::new(id, s, e).unwrap()
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
        assert_eq!(s.window_collect(&Window::all()), vec![]);
    }

    #[test]
    fn full_window_returns_everything() {
        let items = sample(100);
        let s = SweepIndex::build(items.clone());
        let mut got = s.window_collect(&Window::all());
        got.sort_by_key(|i| i.id);
        let mut want = items;
        want.sort_by_key(|i| i.id);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_window_returns_nothing_and_scans_nothing() {
        let s = SweepIndex::build(sample(50));
        let w = Window { start: (10.0, 5.0), end: (0.0, 100.0) };
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
        let w = Window { start: (10.0, 11.0), end: (f64::NEG_INFINITY, f64::INFINITY) };
        let mut hits = 0;
        let scanned = s.window_query(&w, |_| hits += 1);
        assert_eq!(hits, 2);
        assert_eq!(scanned, 2, "start run is the tighter lane");
    }

    #[test]
    fn empty_index_scans_zero_for_any_window() {
        let s = SweepIndex::build(vec![]);
        for w in [
            Window::all(),
            Window { start: (5.0, 5.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            Window { start: (10.0, 0.0), end: (0.0, 10.0) }, // reversed
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
        let w = Window { start: (10.0, 10.0), end: (f64::NEG_INFINITY, f64::INFINITY) };
        let mut got = Vec::new();
        let scanned = s.window_query(&w, |i| got.push(i.id));
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(scanned, 3, "examines exactly the zero-width run");
        // Zero-width on the end axis, between runs: nothing visited,
        // nothing examined.
        let w = Window { start: (f64::NEG_INFINITY, f64::INFINITY), end: (45.0, 45.0) };
        let mut visits = 0u32;
        let scanned = s.window_query(&w, |_| visits += 1);
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
        for w in [
            Window { start: (50.0, 50.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            Window { start: (1.0, 99.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            Window { start: (50.0, 99.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            Window { start: (1.0, 50.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
        ] {
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
            Window { start: (20.0, 10.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            // Reversed end axis.
            Window { start: (f64::NEG_INFINITY, f64::INFINITY), end: (90.0, 2.0) },
            // Both reversed.
            Window { start: (5.0, 1.0), end: (9.0, 3.0) },
            // Disjoint from the data on the start axis.
            Window { start: (10_000.0, 20_000.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            // Inverted infinite bounds.
            Window { start: (f64::INFINITY, f64::NEG_INFINITY), end: (0.0, 100.0) },
        ] {
            let mut visits = 0u32;
            let scanned = s.window_query(&w, |_| visits += 1);
            assert_eq!(visits, 0, "{w:?}");
            assert_eq!(scanned, 0, "{w:?}: degenerate windows must not sweep");
        }
    }

    #[test]
    fn empty_build_is_total_under_both_scan_kinds() {
        // `build` on an empty Vec must leave every accessor and probe
        // path well-defined — collection and the chunked scan (whose
        // chunk loop and tail both see zero slots).
        for (name, kind) in SweepScanKind::all() {
            let s = SweepIndex::build_with_scan(vec![], kind);
            assert!(s.is_empty(), "{name}");
            assert_eq!(s.len(), 0, "{name}");
            assert_eq!(s.scan_kind(), kind);
            assert_eq!(s.window_collect(&Window::all()), vec![], "{name}");
            let mut visits = 0u32;
            let scanned = s.window_query(&Window::all(), |_| visits += 1);
            assert_eq!((visits, scanned), (0, 0), "{name}");
            assert!(s.items().is_empty());
        }
    }

    #[test]
    fn all_identical_endpoints_form_one_run() {
        // Every item at (5, 5): one endpoint run holds the whole index,
        // and both scan kinds visit everything in id order while
        // examining exactly the run.
        let n = 2 * crate::lanes::LANE_WIDTH + 3; // chunked path + tail
        let items: Vec<Interval> = (0..n as u64).map(|id| iv(id, 5, 5)).collect();
        for (name, kind) in SweepScanKind::all() {
            let s = SweepIndex::build_with_scan(items.clone(), kind);
            let hit = Window { start: (5.0, 5.0), end: (5.0, 5.0) };
            let got = s.window_collect(&hit);
            assert_eq!(got, items, "{name}: all visited, in (start, end, id) order");
            let mut visits = 0u32;
            let scanned = s.window_query(&hit, |_| visits += 1);
            assert_eq!((visits as usize, scanned as usize), (n, n), "{name}");
            // Zero-width windows just off the point: nothing visited,
            // nothing examined (the runs are empty).
            for w in [
                Window { start: (4.0, 4.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
                Window { start: (6.0, 6.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
                Window { start: (5.0, 5.0), end: (6.0, 6.0) },
            ] {
                let mut visits = 0u32;
                let scanned = s.window_query(&w, |_| visits += 1);
                assert_eq!((visits, scanned), (0, 0), "{name} {w:?}");
            }
        }
    }

    #[test]
    fn scan_kinds_agree_on_visits_order_and_scanned() {
        // Unit-level spot check of the bit-identity contract (the full
        // battery lives in tests/sweep_scan_equivalence.rs): same visit
        // sequence and scan count on a workload exercising both axes.
        let items = sample(150);
        let scalar = SweepIndex::build_with_scan(items.clone(), SweepScanKind::Scalar);
        let chunked = SweepIndex::build_with_scan(items, SweepScanKind::Chunked);
        for w in [
            Window::all(),
            Window { start: (40.0, 160.0), end: (f64::NEG_INFINITY, f64::INFINITY) },
            Window { start: (f64::NEG_INFINITY, f64::INFINITY), end: (100.0, 140.0) },
            Window { start: (30.0, 470.0), end: (55.0, 90.0) },
        ] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            let sa = scalar.window_query(&w, |i| a.push(i.id));
            let sb = chunked.window_query(&w, |i| b.push(i.id));
            assert_eq!(a, b, "{w:?}: visit sequences diverge");
            assert_eq!(sa, sb, "{w:?}: scan counts diverge");
        }
        assert_eq!(SweepIndex::build(sample(3)).scan_kind(), SweepScanKind::Chunked, "default");
    }

    #[test]
    fn item_chunks_partition_the_probe_stream() {
        use crate::CandidateSource;
        let s = SweepIndex::build(sample(100));
        // Every chunk size — including 1, a non-divisor, the exact run
        // length, longer than the run, and the degenerate 0 (clamped to
        // 1) — partitions items() exactly, in order.
        for chunk_items in [0usize, 1, 3, 64, 100, 1_000] {
            let chunks: Vec<&[Interval]> = s.item_chunks(chunk_items).collect();
            let rebuilt: Vec<Interval> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(rebuilt, s.items(), "chunk_items = {chunk_items}");
            let expect = 100usize.div_ceil(chunk_items.max(1));
            assert_eq!(chunks.len(), expect, "chunk_items = {chunk_items}");
            // Fixed-size contract: every chunk but the last is full.
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(c.len(), chunk_items.max(1));
            }
        }
        assert_eq!(SweepIndex::build(vec![]).item_chunks(8).count(), 0);
    }

    #[test]
    fn chunked_probing_equals_whole_run_probing() {
        use crate::CandidateSource;
        // Probing with every item of every chunk as an anchor visits the
        // same multiset, chunk by chunk, as iterating the whole run —
        // the equivalence the sharded local join rests on.
        let s = SweepIndex::build(sample(120));
        let w = Window { start: (40.0, 160.0), end: (f64::NEG_INFINITY, f64::INFINITY) };
        let mut whole = Vec::new();
        let whole_scanned = s.window_query(&w, |i| whole.push(i.id));
        for chunk_items in [1usize, 7, 50, 120, 500] {
            let mut ids = Vec::new();
            let mut anchors = 0usize;
            for chunk in s.item_chunks(chunk_items) {
                anchors += chunk.len();
                // Each chunk issues its own identical probe; results and
                // scan counts are per-probe properties, not per-chunk.
                let mut got = Vec::new();
                let scanned = s.window_query(&w, |i| got.push(i.id));
                assert_eq!(scanned, whole_scanned);
                assert_eq!(got, whole);
                ids.extend(chunk.iter().map(|i| i.id));
            }
            assert_eq!(anchors, s.len(), "chunks cover every probe anchor exactly once");
            let items_ids: Vec<u64> = s.items().iter().map(|i| i.id).collect();
            assert_eq!(ids, items_ids, "chunk order is the item order");
        }
    }

    #[test]
    fn half_open_infinite_windows() {
        let s = SweepIndex::build(vec![iv(0, 0, 5), iv(1, 10, 15), iv(2, 20, 25)]);
        let w = Window { start: (9.0, f64::INFINITY), end: (f64::NEG_INFINITY, f64::INFINITY) };
        let got = s.window_collect(&w);
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![1, 2]);
        let w = Window { start: (f64::NEG_INFINITY, f64::INFINITY), end: (f64::NEG_INFINITY, 6.0) };
        let got = s.window_collect(&w);
        assert_eq!(got.iter().map(|i| i.id).collect::<Vec<_>>(), vec![0]);
    }

    proptest! {
        /// Sweep window queries agree exactly with a linear scan.
        #[test]
        fn matches_linear_scan(
            points in proptest::collection::vec((0i64..200, 0i64..60), 0..300),
            ws in 0i64..200, ww in 0i64..100,
            we in 0i64..260, wh in 0i64..100,
        ) {
            let items: Vec<Interval> = points
                .iter()
                .enumerate()
                .map(|(i, (s, w))| iv(i as u64, *s, s + w))
                .collect();
            let s = SweepIndex::build(items.clone());
            let w = Window {
                start: (ws as f64, (ws + ww) as f64),
                end: (we as f64, (we + wh) as f64),
            };
            let mut got = s.window_collect(&w);
            got.sort_by_key(|i| i.id);
            let mut want: Vec<Interval> =
                items.iter().filter(|i| w.contains(i)).copied().collect();
            want.sort_by_key(|i| i.id);
            prop_assert_eq!(got, want);
        }

        /// Sweep and R-tree agree on arbitrary windows, including
        /// unbounded axes (the shapes threshold_window produces).
        #[test]
        fn matches_rtree(
            points in proptest::collection::vec((0i64..200, 0i64..60), 0..250),
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
            let sweep = SweepIndex::build(items.clone());
            let tree = RTree::bulk_load(items);
            let w = Window {
                start: if open_start {
                    (f64::NEG_INFINITY, f64::INFINITY)
                } else {
                    (ws as f64, (ws + ww) as f64)
                },
                end: if open_end {
                    (f64::NEG_INFINITY, f64::INFINITY)
                } else {
                    (we as f64, (we + wh) as f64)
                },
            };
            let mut a = sweep.window_collect(&w);
            let mut b = tree.window_collect(&w);
            a.sort_by_key(|i| i.id);
            b.sort_by_key(|i| i.id);
            prop_assert_eq!(a, b);
        }
    }
}
