//! Figure 15 (extension) — local-join candidate-source backends across
//! selectivities.
//!
//! Not a figure of the TKIJ paper: this harness quantifies the swap of
//! the reducer-local R-tree for the sweeping-based endpoint store
//! (Piatov et al., "Cache-Efficient Sweeping-Based Interval Joins"),
//! holding the join logic fixed (both backends run the identical generic
//! rank-join) and varying workload density — and with it the selectivity
//! of the score-threshold windows the join issues.
//!
//! Expectation: at paper density (startpoints over 10⁵) windows are
//! sparse and the backends are close; as density grows the R-tree
//! examines entire STR slice stripes per probe while the sweep store
//! examines essentially only the true candidates, so its advantage
//! widens. Join-level speedup is bounded by the backend-independent
//! scoring/sorting share (Amdahl); probe-level speedup shows the raw
//! index gap.

use std::time::{Duration, Instant};
use tkij_bench::{header, print_table, Scale};
use tkij_core::{LocalJoinBackend, Tkij, TkijConfig};
use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
use tkij_index::{threshold_candidates, CandidateSource, RTree, SweepIndex, SweepScanKind};
use tkij_temporal::collection::CollectionId;
use tkij_temporal::expr::Side;
use tkij_temporal::interval::Interval;
use tkij_temporal::params::PredicateParams;
use tkij_temporal::predicate::TemporalPredicate;
use tkij_temporal::query::table1;

/// Best-of repetitions for each timed section.
const RUNS: usize = 3;

struct JoinRun {
    best: Duration,
    probes: u64,
    scanned: u64,
}

fn join_time(backend: LocalJoinBackend, size: usize, span: i64, seed: u64) -> JoinRun {
    let cfg = SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed };
    let collections: Vec<_> =
        (0..3u32).map(|i| uniform_collection(CollectionId(i), &cfg)).collect();
    let engine = Tkij::new(
        TkijConfig::default().with_granules(20).with_reducers(4).with_local_backend(backend),
    );
    let dataset = engine.prepare(collections).expect("prepare");
    let query = table1::q_om(PredicateParams::P1);
    let mut run = JoinRun { best: Duration::MAX, probes: 0, scanned: 0 };
    for rep in 0..=RUNS {
        let report = engine.execute(&dataset, &query, 100).expect("execute");
        if rep == 0 {
            continue; // warm-up
        }
        run.best = run.best.min(report.join.reduce_durations.iter().sum());
        run.probes = report.index_probes();
        run.scanned = report.items_scanned();
    }
    run
}

fn probe_time<C: CandidateSource>(
    size: usize,
    span: i64,
    seed: u64,
    build: impl FnOnce(Vec<Interval>) -> C,
) -> (Duration, u64) {
    let cfg = SyntheticConfig { size, start_range: (0, span), length_range: (1, 100), seed };
    let items = uniform_collection(CollectionId(0), &cfg).intervals().to_vec();
    let anchors: Vec<_> = items.iter().step_by(10).copied().collect();
    let index = build(items);
    let pred = TemporalPredicate::meets(PredicateParams::P1);
    let mut best = Duration::MAX;
    let mut scanned = 0u64;
    for rep in 0..=RUNS {
        let mut s = 0u64;
        let t = Instant::now();
        for a in &anchors {
            s += threshold_candidates(&index, &pred, a, Side::Left, 0.8, |_| {});
        }
        if rep > 0 {
            best = best.min(t.elapsed());
        }
        scanned = s;
    }
    (best, scanned)
}

fn ms(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let scale = Scale::from_env();
    let size = scale.size(300_000).min(60_000);
    header(
        "Figure 15 (extension) — local-join backends across selectivities",
        "Qo,m, k = 100, P = P1, g = 20, r = 4; startpoint span swept (density sweep)",
        "backends tie when sparse; sweep pulls ahead as density (window population) grows",
    );
    println!("|Ci| -> {size}; spans swept: 100000 (paper), 40000, 20000, 10000\n");

    let mut join_rows = Vec::new();
    let mut probe_rows = Vec::new();
    for &span in &[100_000i64, 40_000, 20_000, 10_000] {
        let density = size as f64 * 50.5 / span as f64; // avg concurrent intervals
        let rt = join_time(LocalJoinBackend::RTree, size, span, 7);
        let sw = join_time(LocalJoinBackend::Sweep, size, span, 7);
        join_rows.push(vec![
            format!("{span}"),
            format!("{density:.0}"),
            ms(rt.best),
            ms(sw.best),
            format!("{:.2}x", rt.best.as_secs_f64() / sw.best.as_secs_f64().max(1e-12)),
            format!("{}", rt.scanned),
            format!("{}", sw.scanned),
        ]);
        let (rtp, rtp_scanned) = probe_time(size, span, 7, RTree::bulk_load);
        let (swp, swp_scanned) =
            probe_time(size, span, 7, |i| SweepIndex::build_with_scan(i, SweepScanKind::Chunked));
        let (scp, scp_scanned) =
            probe_time(size, span, 7, |i| SweepIndex::build_with_scan(i, SweepScanKind::Scalar));
        // The scan-kind axis: identical work by contract, so the scan
        // counts must agree and only the times may differ.
        assert_eq!(scp_scanned, swp_scanned, "scan kinds diverge on examined items");
        probe_rows.push(vec![
            format!("{span}"),
            ms(rtp),
            ms(swp),
            ms(scp),
            format!("{:.2}x", rtp.as_secs_f64() / swp.as_secs_f64().max(1e-12)),
            format!("{:.2}x", scp.as_secs_f64() / swp.as_secs_f64().max(1e-12)),
            format!("{rtp_scanned}"),
            format!("{swp_scanned}"),
        ]);
    }
    println!("(15a) Join-phase reduce time and scan effort per backend (same exact top-k):");
    print_table(
        &["span", "~density", "rtree", "sweep", "speedup", "rt scanned", "sw scanned"],
        &join_rows,
    );
    println!("\n(15b) Probe-level s-meets threshold retrieval (v = 0.8), scan-kind axis:");
    print_table(
        &[
            "span",
            "rtree",
            "sweep(chunked)",
            "sweep(scalar)",
            "rt/sw spd",
            "chunk spd",
            "rtree scanned",
            "sweep scanned",
        ],
        &probe_rows,
    );
    let last = &probe_rows[probe_rows.len() - 1];
    println!(
        "\nshape check: dense-regime probe speedup {} with sweep examining {} items vs rtree {}; \
         chunked-lane speedup over the scalar scan {}",
        last[4], last[7], last[6], last[5]
    );
}
