//! Probe battery for the sweep store: a `SweepIndex::window_query` (and
//! `threshold_candidates`, the join's probe) must visit exactly the items
//! a linear `ThresholdWindow::admits` filter keeps, in one of the two
//! canonical endpoint orders, examining exactly the swept run, and a
//! build must not depend on the order its items arrive in.
//!
//! Coverage: randomized interval sets (duplicates, zero-width intervals,
//! touching runs) × randomized windows (zero-width, reversed, half-open
//! infinite), at small timestamps and at offsets beyond `2^53` where
//! distinct endpoints share one `f64`; plus start- and end-axis runs of
//! pinned lengths `0`, `1`, `2` and `67`, each swept exactly and visited
//! in its copy's endpoint order, and runs of equal length, where the
//! start copy is swept.

use proptest::prelude::*;
use tkij::index::{threshold_candidates, SweepIndex, ThresholdWindow};
use tkij::prelude::*;
use tkij::temporal::expr::Side;

/// An unbounded axis.
const ANY: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Offsets that move a case to extreme timestamps: a nanosecond epoch on
/// an `f64` rounding midpoint, and both ends of `i64`.
const FAR: [i64; 3] =
    [1_700_000_000_000_000_128, -9_200_000_000_000_000_000, 9_200_000_000_000_000_000];

fn iv(id: u64, s: i64, e: i64) -> Interval {
    Interval::new(id, s, e).unwrap()
}

/// One probe's full observable behavior — ids in visit order and the
/// examined-items count — after asserting its visit set is exactly the
/// linear filter's.
fn probe(items: &[Interval], w: &ThresholdWindow) -> (Vec<u64>, u64) {
    let index = SweepIndex::build(items.to_vec());
    let mut ids = Vec::new();
    let scanned = index.window_query(w, |i| ids.push(i.id));
    let mut got = ids.clone();
    got.sort_unstable();
    let mut want: Vec<u64> = items.iter().filter(|i| w.admits(i)).map(|i| i.id).collect();
    want.sort_unstable();
    assert_eq!(got, want, "visit set diverges from the linear filter for {w:?}");
    (ids, scanned)
}

/// Probes whose swept run has *exactly* `run_len` items, with mixed
/// hits and misses: `run_len` intervals share `end = 1000` (the end-axis
/// run the probe sweeps), every third one with a start outside the start
/// window (a miss), and enough filler (distinct ends, in-window starts)
/// that the start run stays strictly longer — so the probe must pick the
/// end run, scan exactly `run_len` items and visit its hits in
/// `(end, start, id)` order.
#[test]
fn end_runs_sweep_exactly_the_run() {
    for run_len in [0u64, 1, 2, 67] {
        let mut items = Vec::new();
        for i in 0..run_len {
            let start = if i % 3 == 0 { -10 - i as i64 } else { 2 * i as i64 };
            items.push(iv(i, start, 1_000));
        }
        for f in 0..run_len + 2 {
            items.push(iv(1_000 + f, (f as i64 * 3) % 500, 2_000 + f as i64));
        }
        let w = ThresholdWindow { start: (0.0, 1_000.0), end: (1_000.0, 1_000.0) };
        let (ids, scanned) = probe(&items, &w);
        assert_eq!(scanned, run_len, "swept run length must be exactly {run_len}");
        let expect: Vec<u64> = (0..run_len).filter(|i| i % 3 != 0).collect();
        assert_eq!(ids, expect, "run_len = {run_len}: in-window subset in (end, start, id) order");
    }
}

/// The start-axis twin of `end_runs_sweep_exactly_the_run`: `run_len`
/// intervals share `start = 0`, every third one with an end outside the
/// end window, and the filler's ends keep the end run strictly longer —
/// so the probe sweeps exactly the start run and visits its hits in
/// `(start, end, id)` order.
#[test]
fn start_runs_sweep_exactly_the_run() {
    for run_len in [0u64, 1, 2, 67] {
        let mut items = Vec::new();
        for i in 0..run_len {
            let end = if i % 3 == 0 { 5_000 + i as i64 } else { 100 + 2 * i as i64 };
            items.push(iv(i, 0, end));
        }
        for f in 0..run_len + 2 {
            items.push(iv(1_000 + f, 10 + f as i64, 100 + (f as i64 * 3) % 500));
        }
        let w = ThresholdWindow { start: (0.0, 0.0), end: (0.0, 1_000.0) };
        let (ids, scanned) = probe(&items, &w);
        assert_eq!(scanned, run_len, "swept run length must be exactly {run_len}");
        let expect: Vec<u64> = (0..run_len).filter(|i| i % 3 != 0).collect();
        assert_eq!(ids, expect, "run_len = {run_len}: in-window subset in (start, end, id) order");
    }
}

/// When the start and end runs are equally long, the probe sweeps the
/// start copy: ends fall as starts rise, so the two copies order the
/// same hits oppositely, and the visits come in start order.
#[test]
fn tied_runs_sweep_the_start_copy() {
    let items: Vec<Interval> = (0..10).map(|i| iv(i, i as i64, 100 - i as i64)).collect();
    for (w, run) in [
        (ThresholdWindow::unbounded(), 10),
        (ThresholdWindow { start: (2.0, 5.0), end: (95.0, 98.0) }, 4),
        (ThresholdWindow { start: (2.0, 5.0), end: (94.0, 97.0) }, 4),
    ] {
        let (ids, scanned) = probe(&items, &w);
        assert_eq!(scanned, run, "{w:?}: sweeps one run of {run}");
        let mut expect = ids.clone();
        expect.sort_unstable();
        assert_eq!(ids, expect, "{w:?}: visits in (start, end, id) order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The window battery at extreme timestamps: beyond `2^53` distinct
    /// `i64` endpoints share one `f64`, so a run's bounds fall inside a
    /// plateau of equal keys. A probe still visits exactly the linear
    /// filter's set (checked inside `probe`) and sweeps no more than the
    /// index holds.
    #[test]
    fn far_probes_match_the_linear_filter(
        points in proptest::collection::vec((0i64..3_000, 0i64..1_500), 0..200),
        ws in 0i64..3_000, ww in -500i64..2_000,
        we in 0i64..4_500, wh in -500i64..2_000,
        open_start in proptest::bool::ANY,
        open_end in proptest::bool::ANY,
        far in 0usize..3,
    ) {
        let far = FAR[far];
        let items: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, (s, w))| iv(i as u64, far + s, far + s + w))
            .collect();
        let axis = |lo: i64, width: i64| ((far + lo) as f64, (far + lo + width) as f64);
        let w = ThresholdWindow {
            start: if open_start { ANY } else { axis(ws, ww) },
            end: if open_end { ANY } else { axis(we, wh) },
        };
        let (ids, scanned) = probe(&items, &w);
        prop_assert!(ids.len() as u64 <= scanned && scanned as usize <= items.len());
    }

    /// Random interval sets — duplicates (small value space), zero-width
    /// and touching intervals — × random windows, including zero-width
    /// and reversed axes: a probe visits exactly the linear filter's set
    /// (checked inside `probe`), in one of the two canonical endpoint
    /// orders, examining at least every visit and at most the index.
    #[test]
    fn window_probes_match_the_linear_filter(
        points in proptest::collection::vec((0i64..60, 0i64..20), 0..250),
        ws in -5i64..70, ww in -10i64..40,
        we in -5i64..90, wh in -10i64..40,
        open_start in proptest::bool::ANY,
        open_end in proptest::bool::ANY,
    ) {
        let items: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, (s, w))| iv(i as u64, *s, s + w))
            .collect();
        // Negative widths produce reversed (empty) axes on purpose.
        let w = ThresholdWindow {
            start: if open_start { ANY } else { (ws as f64, (ws + ww) as f64) },
            end: if open_end { ANY } else { (we as f64, (we + wh) as f64) },
        };
        let (ids, scanned) = probe(&items, &w);
        prop_assert!(ids.len() as u64 <= scanned && scanned as usize <= items.len());
        let visited: Vec<&Interval> = ids.iter().map(|&id| &items[id as usize]).collect();
        let by_start = visited.windows(2).all(|p| {
            (p[0].start, p[0].end, p[0].id) <= (p[1].start, p[1].end, p[1].id)
        });
        let by_end = visited.windows(2).all(|p| {
            (p[0].end, p[0].start, p[0].id) <= (p[1].end, p[1].start, p[1].id)
        });
        prop_assert!(by_start || by_end, "visit order is neither endpoint order: {:?}", ids);
    }

    /// The join-facing probe: `threshold_candidates` over random
    /// predicates, anchors, sides and thresholds visits exactly the items
    /// the predicate's threshold window admits.
    #[test]
    fn threshold_probes_match_the_linear_filter(
        kind_idx in 0usize..16,
        points in proptest::collection::vec((0i64..150, 0i64..40), 1..120),
        a_s in 0i64..150, a_w in 0i64..40,
        v in 0.0f64..1.0,
        anchor_left in proptest::bool::ANY,
    ) {
        let kind = PredicateKind::all()[kind_idx];
        let pred = TemporalPredicate::from_kind(kind, PredicateParams::P2, 8);
        let items: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, (s, w))| iv(i as u64, *s, s + w))
            .collect();
        let index = SweepIndex::build(items.clone());
        let anchor = iv(9_999, a_s, a_s + a_w);
        let side = if anchor_left { Side::Left } else { Side::Right };
        let window = pred.threshold_window(&anchor, side, v);
        let mut got = Vec::new();
        threshold_candidates(&index, &pred, &anchor, side, v, |c| got.push(c.id));
        got.sort_unstable();
        let mut want: Vec<u64> =
            items.iter().filter(|c| window.admits(c)).map(|c| c.id).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want, "{:?} side={:?} v={}", kind, side, v);
    }

    /// Any arrival order of one item set builds the identical index —
    /// the same items in the same canonical order, and the same visits
    /// and scan count for every probe — which is what lets reducers
    /// build from slices in arrival order and the serving pool share one
    /// build between queries.
    #[test]
    fn build_is_input_order_independent(
        points in proptest::collection::vec((0i64..40, 0i64..10), 0..150),
        rotate in 0usize..150,
        ws in 0i64..40, ww in 0i64..20,
    ) {
        let items: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, (s, w))| iv(i as u64, *s, s + w))
            .collect();
        let mut arrived = items.clone();
        arrived.reverse();
        let shift = rotate.min(arrived.len());
        arrived.rotate_left(shift);
        let (a, b) = (SweepIndex::build(items), SweepIndex::build(arrived));
        prop_assert_eq!(a.items(), b.items());
        for w in [
            ThresholdWindow { start: (ws as f64, (ws + ww) as f64), end: ANY },
            ThresholdWindow { start: ANY, end: (ws as f64, (ws + ww) as f64) },
        ] {
            let (mut va, mut vb) = (Vec::new(), Vec::new());
            let sa = a.window_query(&w, |i| va.push(i.id));
            let sb = b.window_query(&w, |i| vb.push(i.id));
            prop_assert_eq!((va, sa), (vb, sb), "{:?}", w);
        }
    }
}
