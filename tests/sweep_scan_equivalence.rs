//! Scalar-oracle battery for the vectorized sweep lanes: the chunked
//! in-window scan (`SweepScanKind::Chunked`) must be **indistinguishable**
//! from the scalar reference (`SweepScanKind::Scalar`) in everything but
//! wall clock — identical visit set, identical visit *order*, identical
//! hit counts, and an identical `items_scanned` telemetry count, for
//! `window_query`, `item_chunks`, and `threshold_candidates` alike.
//!
//! This is the contract that lets the chunked kind be the engine default
//! without moving a single `tests/pinned_counters.rs` pin or
//! determinism fingerprint: if any of these assertions can fail, the
//! kinds are not interchangeable and the knob is broken.
//!
//! Coverage: randomized interval sets (duplicates, zero-width intervals,
//! touching runs) × randomized windows (zero-width, reversed, degenerate,
//! half-open infinite), plus pinned swept-run lengths `0`, `1`,
//! `LANE_WIDTH − 1`, `LANE_WIDTH`, `LANE_WIDTH + 1`, and
//! `8 × LANE_WIDTH + 3` — one run per chunk/tail code path of the mask
//! scan.

use proptest::prelude::*;
use tkij::index::lanes::LANE_WIDTH;
use tkij::index::{threshold_candidates, SweepIndex, SweepScanKind, Window};
use tkij::prelude::*;
use tkij::temporal::expr::Side;
use tkij::temporal::predicate::{PredicateKind, TemporalPredicate};

fn iv(id: u64, s: i64, e: i64) -> Interval {
    Interval::new(id, s, e).unwrap()
}

/// One probe's full observable behavior: ids in visit order + the
/// examined-items count.
fn probe(index: &SweepIndex, w: &Window) -> (Vec<u64>, u64) {
    let mut ids = Vec::new();
    let scanned = index.window_query(w, |i| ids.push(i.id));
    (ids, scanned)
}

/// Builds both kinds over the same items and asserts a window probe is
/// observationally identical; returns the (shared) observation.
fn assert_probe_identical(items: &[Interval], w: &Window) -> (Vec<u64>, u64) {
    let scalar = SweepIndex::build_with_scan(items.to_vec(), SweepScanKind::Scalar);
    let chunked = SweepIndex::build_with_scan(items.to_vec(), SweepScanKind::Chunked);
    let (ids_s, scanned_s) = probe(&scalar, w);
    let (ids_c, scanned_c) = probe(&chunked, w);
    assert_eq!(ids_c, ids_s, "visit sequence diverges for {w:?}");
    assert_eq!(scanned_c, scanned_s, "items_scanned diverges for {w:?}");
    (ids_c, scanned_c)
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
    let w = Window { start: (0.0, 1_000.0), end: (1_000.0, 1_000.0) };
    let (ids, scanned) = assert_probe_identical(&items, &w);
    assert_eq!(scanned as usize, run_len, "swept run length must be exactly {run_len}");
    let expect: Vec<u64> = (0..run_len as u64).filter(|i| i % 3 != 0).collect();
    assert_eq!(ids, expect, "run_len = {run_len}: in-window subset in (end, start, id) order");
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
fn degenerate_windows_are_identical_and_scan_free() {
    let items: Vec<Interval> = (0..100)
        .map(|i| iv(i, (i as i64 * 7) % 40, (i as i64 * 7) % 40 + (i as i64 % 5)))
        .collect();
    for w in [
        Window { start: (20.0, 10.0), end: (f64::NEG_INFINITY, f64::INFINITY) }, // reversed
        Window { start: (f64::NEG_INFINITY, f64::INFINITY), end: (30.0, 1.0) },  // reversed
        Window { start: (5.0, 1.0), end: (9.0, 3.0) },                           // both reversed
        Window { start: (f64::INFINITY, f64::NEG_INFINITY), end: (0.0, 50.0) },  // inverted ∞
        Window { start: (10_000.0, 20_000.0), end: (f64::NEG_INFINITY, f64::INFINITY) }, // disjoint
    ] {
        let (ids, scanned) = assert_probe_identical(&items, &w);
        assert_eq!((ids.len(), scanned), (0, 0), "{w:?}: degenerate windows never sweep");
    }
}

#[test]
fn item_chunks_are_kind_independent() {
    // The probe-stream sharding unit reads the backend's item order,
    // which the scan kind must not touch: chunk boundaries and contents
    // are identical, so the intra-join chunk plan cannot move.
    use tkij::index::CandidateSource;
    let items: Vec<Interval> =
        (0..70).map(|i| iv(i, (i as i64 * 13) % 90, (i as i64 * 13) % 90 + 20)).collect();
    let scalar = SweepIndex::build_with_scan(items.clone(), SweepScanKind::Scalar);
    let chunked = SweepIndex::build_with_scan(items, SweepScanKind::Chunked);
    assert_eq!(scalar.items(), chunked.items(), "item order is kind-independent");
    for chunk_items in [1usize, 7, 16, 70, 500] {
        let a: Vec<&[Interval]> = scalar.item_chunks(chunk_items).collect();
        let b: Vec<&[Interval]> = chunked.item_chunks(chunk_items).collect();
        assert_eq!(a, b, "chunk_items = {chunk_items}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interval sets — duplicates (small value space), zero-width
    /// and touching intervals — × random windows, including zero-width
    /// and reversed axes: both kinds report the identical visit
    /// sequence, hit count, and scan count.
    #[test]
    fn window_probes_identical(
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
        let scalar = SweepIndex::build_with_scan(items.clone(), SweepScanKind::Scalar);
        let chunked = SweepIndex::build_with_scan(items.clone(), SweepScanKind::Chunked);
        let (ids_s, scanned_s) = probe(&scalar, &w);
        let (ids_c, scanned_c) = probe(&chunked, &w);
        prop_assert_eq!(&ids_c, &ids_s, "visit order diverges");
        prop_assert_eq!(scanned_c, scanned_s, "items_scanned diverges");
        // Both equal the linear-scan oracle as a *set* (order is the
        // backend's deterministic endpoint order, checked above).
        let mut got = ids_c;
        got.sort_unstable();
        let mut want: Vec<u64> =
            items.iter().filter(|i| w.contains(i)).map(|i| i.id).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want, "visit set diverges from the linear oracle");
    }

    /// The join-facing probe path: `threshold_candidates` over random
    /// predicates, anchors, sides, and thresholds reports the identical
    /// candidate sequence and scan count for both kinds.
    #[test]
    fn threshold_probes_identical(
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
        let scalar = SweepIndex::build_with_scan(items.clone(), SweepScanKind::Scalar);
        let chunked = SweepIndex::build_with_scan(items, SweepScanKind::Chunked);
        let anchor = iv(9_999, a_s, a_s + a_w);
        let side = if anchor_left { Side::Left } else { Side::Right };
        let mut a = Vec::new();
        let mut b = Vec::new();
        let scanned_s =
            threshold_candidates(&scalar, &pred, &anchor, side, v, |c| a.push(c.id));
        let scanned_c =
            threshold_candidates(&chunked, &pred, &anchor, side, v, |c| b.push(c.id));
        prop_assert_eq!(b, a, "{:?} side={:?} v={}: candidate order", kind, side, v);
        prop_assert_eq!(scanned_c, scanned_s, "{:?} side={:?} v={}: scan count", kind, side, v);
    }
}
