//! Scalar-oracle battery for the sweep store: the chunked in-window scan
//! (`lanes::scan_chunked`) must be **indistinguishable** from the scalar
//! scan (`lanes::scan_scalar`) — identical visit set and visit *order* —
//! a `SweepIndex::window_query` (and `threshold_candidates`, the join's
//! probe) must visit exactly the items a linear `ThresholdWindow::admits`
//! filter keeps, examining exactly the swept run, and a build must not
//! depend on the order its items arrive in.
//!
//! Coverage: randomized interval sets (duplicates, zero-width intervals,
//! touching runs) × randomized windows (zero-width, reversed, degenerate,
//! half-open infinite), plus pinned swept-run lengths `0`, `1`,
//! `LANE_WIDTH − 1`, `LANE_WIDTH`, `LANE_WIDTH + 1`, and
//! `8 × LANE_WIDTH + 3` — one run per chunk/tail code path of the mask
//! scan.

use proptest::prelude::*;
use tkij::index::lanes::{scan_chunked, scan_scalar, LANE_WIDTH};
use tkij::index::{threshold_candidates, SweepIndex, ThresholdWindow};
use tkij::prelude::*;
use tkij::temporal::expr::Side;

/// An unbounded axis.
const ANY: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

fn iv(id: u64, s: i64, e: i64) -> Interval {
    Interval::new(id, s, e).unwrap()
}

/// The slots each scan visits, in visit order.
fn scans(lane: &[f64], lo: f64, hi: f64) -> (Vec<usize>, Vec<usize>) {
    let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
    scan_chunked(lane, lo, hi, |i| chunked.push(i));
    scan_scalar(lane, lo, hi, |i| scalar.push(i));
    (chunked, scalar)
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

/// Pins a probe whose swept run has *exactly* `run_len` items, with a
/// mixed hit/miss mask pattern: `run_len` intervals share `end = 1000`
/// (the end-axis run the probe sweeps), every third one with a start
/// outside the start window (mask misses), and enough filler (distinct
/// ends, in-window starts) that the start run stays strictly longer —
/// so the probe must pick the end run and scan exactly `run_len` items.
fn pinned_run(run_len: usize) {
    let mut items = Vec::new();
    for i in 0..run_len as u64 {
        let start = if i % 3 == 0 { -10 - i as i64 } else { 2 * i as i64 };
        items.push(iv(i, start, 1_000));
    }
    for f in 0..(run_len as u64 + 2) {
        items.push(iv(1_000 + f, (f as i64 * 3) % 500, 2_000 + f as i64));
    }
    let w = ThresholdWindow { start: (0.0, 1_000.0), end: (1_000.0, 1_000.0) };
    let (ids, scanned) = probe(&items, &w);
    assert_eq!(scanned as usize, run_len, "swept run length must be exactly {run_len}");
    let expect: Vec<u64> = (0..run_len as u64).filter(|i| i % 3 != 0).collect();
    assert_eq!(ids, expect, "run_len = {run_len}: in-window subset in (end, start, id) order");
    // The same run as a bare filter lane: the chunked and scalar scans
    // agree slot for slot.
    let lane: Vec<f64> = items[..run_len].iter().map(|i| i.start as f64).collect();
    let (chunked, scalar) = scans(&lane, 0.0, 1_000.0);
    assert_eq!(chunked, scalar, "run_len = {run_len}");
}

#[test]
fn every_chunk_and_tail_path_is_pinned() {
    // 0: empty run (early return); 1 and LANE_WIDTH-1: pure scalar tail;
    // LANE_WIDTH: exactly one full chunk, no tail; LANE_WIDTH+1: chunk +
    // 1-slot tail; 8*LANE_WIDTH+3: many chunks + 3-slot tail.
    for run_len in [0, 1, LANE_WIDTH - 1, LANE_WIDTH, LANE_WIDTH + 1, 8 * LANE_WIDTH + 3] {
        pinned_run(run_len);
    }
}

#[test]
fn degenerate_windows_are_scan_free() {
    let items: Vec<Interval> = (0..100)
        .map(|i| iv(i, (i as i64 * 7) % 40, (i as i64 * 7) % 40 + (i as i64 % 5)))
        .collect();
    for (start, end) in [
        ((20.0, 10.0), ANY),                               // reversed
        (ANY, (30.0, 1.0)),                                // reversed
        ((5.0, 1.0), (9.0, 3.0)),                          // both reversed
        ((f64::INFINITY, f64::NEG_INFINITY), (0.0, 50.0)), // inverted ∞
        ((10_000.0, 20_000.0), ANY),                       // disjoint
    ] {
        let w = ThresholdWindow { start, end };
        let (ids, scanned) = probe(&items, &w);
        assert_eq!((ids.len(), scanned), (0, 0), "{w:?}: degenerate windows never sweep");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random lanes × random windows, bounded, reversed and half-open:
    /// the chunked scan visits the scalar scan's slots in its order.
    #[test]
    fn chunked_scan_equals_scalar_scan(
        lane in proptest::collection::vec(-60i64..60, 0..120),
        lo in -70i64..70, width in -10i64..80,
        open_lo in proptest::bool::ANY,
        open_hi in proptest::bool::ANY,
    ) {
        let lane: Vec<f64> = lane.into_iter().map(|v| v as f64).collect();
        let lo_b = if open_lo { f64::NEG_INFINITY } else { lo as f64 };
        let hi_b = if open_hi { f64::INFINITY } else { (lo + width) as f64 };
        let (chunked, scalar) = scans(&lane, lo_b, hi_b);
        prop_assert_eq!(chunked, scalar);
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
