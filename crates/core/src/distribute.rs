//! Workload distribution: `DistributeTopBuckets` (paper Algorithms 3–4)
//! and the LPT baseline of §4.2.2.
//!
//! DTB walks `Ω_{k,S}` in descending upper-bound order so that every
//! reducer receives a fair share of *high-scoring* combinations (which is
//! what lets local top-k joins terminate early), balances worst-case load
//! with the `2 × avgRes` cap, and secondarily minimizes replication by
//! favoring reducers that already hold a combination's buckets.
//!
//! **A note on `inCost`.** The paper's Algorithm 4 defines
//! `inCost(r_j, ω) = Σ |b| · Φ(r_j, b)` with `Φ = 1` if `b` was *already*
//! assigned to `r_j` — but minimizing that expression would pick the
//! reducer with the least overlap, contradicting both the surrounding
//! prose ("selects the reducer that was already assigned the largest
//! fraction of current ω") and the stated goal ("favors assignments that
//! reduce replication cost"). We therefore implement the evident intent:
//! `inCost` charges the buckets **not yet** present on the reducer (the
//! new input that the assignment would ship), and picks the minimum.

use crate::combos::{BucketSlots, ComboSet};
use crate::config::DistributionPolicy;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tkij_temporal::bucket::{BucketId, BucketMatrix};
use tkij_temporal::query::Query;

/// A (query vertex, bucket) pair — the unit of data shipment: an interval
/// is sent to a reducer once per vertex role whose bucket the reducer
/// needs.
pub type VertexBucket = (u16, BucketId);

/// The output of workload distribution: which reducer processes each
/// combination, and which reducers need each (vertex, bucket).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Number of reducers `r`.
    pub num_reducers: usize,
    /// Reducer of each combination (indexed like the input `ComboSet`).
    pub combo_reducer: Vec<u32>,
    /// Combinations per reducer, in assignment order (descending UB for
    /// DTB).
    pub reducer_combos: Vec<Vec<u32>>,
    /// Potential results (`Σ nbRes`) per reducer.
    pub reducer_results: Vec<u128>,
    /// The shipment map `M`: reducers needing each (vertex, bucket),
    /// sorted and deduplicated.
    pub bucket_map: BTreeMap<VertexBucket, Vec<u32>>,
    /// Σ over (vertex, bucket) of `|b| × #reducers` — the records the
    /// join-phase shuffle will move.
    pub estimated_shuffle_records: u64,
    /// `estimated_shuffle_records / Σ |b|` over distinct needed buckets:
    /// the average number of reducers each needed record is shipped to.
    pub replication_factor: f64,
    /// (combo, reducer) candidacies scored while assigning: DTB counts
    /// every eligible reducer whose input cost was evaluated, LPT every
    /// reducer scanned by its least-loaded search. Deterministic work
    /// counter of the distribution phase.
    pub assignments_scored: u64,
    /// Times the `2 × avgRes` worst-case cap excluded every reducer and
    /// the least-loaded fallback decided (Algorithm 4's degenerate case).
    pub cap_fallbacks: u64,
    /// Wall time of the distribution phase.
    pub duration: Duration,
}

impl Assignment {
    /// Worst-case result imbalance: `max / avg` of `reducer_results`,
    /// the average taken over all `num_reducers` (idle reducers count as
    /// zero load); `1.0` when no reducer received work.
    pub fn result_imbalance(&self) -> f64 {
        let max = self.reducer_results.iter().copied().max().unwrap_or(0);
        let busy = self.reducer_results.iter().filter(|&&r| r > 0).count();
        if busy == 0 {
            return 1.0;
        }
        let avg = self.reducer_results.iter().sum::<u128>() as f64 / self.num_reducers as f64;
        if avg <= 0.0 {
            1.0
        } else {
            max as f64 / avg
        }
    }
}

/// Distributes `Ω_{k,S}` over `r` reducers with the chosen policy.
pub fn distribute(
    combos: &ComboSet,
    policy: DistributionPolicy,
    r: usize,
    query: &Query,
    matrices: &[BucketMatrix],
) -> Assignment {
    assert!(r >= 1, "need at least one reducer");
    #[allow(clippy::disallowed_methods, reason = "feeds only Assignment::duration, a timing field")]
    let started = Instant::now();
    let order = match policy {
        // Alg. 3 line 1: descending score upper-bound. `run_topbuckets`
        // already returns this order, so the sort only detects one run.
        DistributionPolicy::Dtb => combos.indices_by_ub_desc(),
        // LPT: descending number of results.
        DistributionPolicy::Lpt => combos.indices_by_nbres_desc(),
    };
    let total: u128 = combos.total_results();
    let avg_res = total as f64 / r as f64; // Alg. 3 line 2

    let mut combo_reducer = vec![0u32; combos.len()];
    let mut reducer_combos: Vec<Vec<u32>> = vec![Vec::new(); r];
    let mut reducer_results: Vec<u128> = vec![0; r];
    // `present[slot · r + j]`: reducer `j` already holds that (vertex,
    // bucket). `under_cap[j]` caches the `2 × avgRes` test; it only
    // changes when `j`'s load does.
    let slots = BucketSlots::new(query, matrices);
    let mut present = vec![false; slots.len() * r];
    let mut under_cap = vec![is_under_cap(0, avg_res); r];
    let mut assignments_scored = 0u64;
    let mut cap_fallbacks = 0u64;
    let bucket_count =
        |v: usize, b: BucketId| -> u64 { matrices[query.vertices[v].0 as usize].count(b) };
    // The current combination's (slot, |b|) per vertex.
    let mut inputs: Vec<(usize, u64)> = Vec::with_capacity(combos.arity());

    for &ci in &order {
        let ci = ci as usize;
        inputs.clear();
        inputs.extend(
            combos
                .buckets(ci)
                .iter()
                .enumerate()
                .map(|(v, &b)| (slots.slot(v, b), bucket_count(v, b))),
        );
        let rj = match policy {
            DistributionPolicy::Dtb => {
                let pick =
                    get_reducer(&inputs, &reducer_combos, &reducer_results, &under_cap, &present);
                assignments_scored += pick.scored;
                cap_fallbacks += pick.fell_back as u64;
                pick.reducer
            }
            DistributionPolicy::Lpt => {
                // Least loaded by potential results; ties → lowest index.
                assignments_scored += r as u64;
                (0..r).min_by_key(|&j| (reducer_results[j], j)).expect("r ≥ 1")
            }
        };
        combo_reducer[ci] = rj as u32;
        reducer_combos[rj].push(ci as u32);
        reducer_results[rj] += combos.nb_res(ci) as u128;
        under_cap[rj] = is_under_cap(reducer_results[rj], avg_res);
        for &(slot, _) in &inputs {
            present[slot * r + rj] = true;
        }
    }

    // The shipment map and its statistics, read off the presence table.
    let mut shuffle = 0u64;
    let mut distinct = 0u64;
    let mut bucket_map = BTreeMap::new();
    for ((v, b), slot) in slots.keys() {
        let reducers: Vec<u32> =
            (0..r).filter(|&j| present[slot * r + j]).map(|j| j as u32).collect();
        if reducers.is_empty() {
            continue;
        }
        let c = bucket_count(v as usize, b);
        shuffle += c * reducers.len() as u64;
        distinct += c;
        bucket_map.insert((v, b), reducers);
    }
    Assignment {
        num_reducers: r,
        combo_reducer,
        reducer_combos,
        reducer_results,
        bucket_map,
        estimated_shuffle_records: shuffle,
        replication_factor: if distinct == 0 { 1.0 } else { shuffle as f64 / distinct as f64 },
        assignments_scored,
        cap_fallbacks,
        duration: started.elapsed(),
    }
}

/// Algorithm 4's worst-case cap: a reducer stays eligible while its
/// potential results are under `2 × avgRes`.
fn is_under_cap(load: u128, avg_res: f64) -> bool {
    (load as f64) < 2.0 * avg_res || avg_res == 0.0
}

/// One `getReducer` decision plus its work accounting.
struct ReducerPick {
    /// The chosen reducer.
    reducer: usize,
    /// Candidate reducers whose assignment was scored (cost evaluations,
    /// or reducers scanned by a fallback search).
    scored: u64,
    /// Whether the `2 × avgRes` cap excluded everyone.
    fell_back: bool,
}

/// Algorithm 4 (`getReducer`): among reducers under the `2 × avgRes`
/// worst-case cap, pick those with the fewest assigned combinations, then
/// minimize the new-input cost; ties break on the lowest index. Falls
/// back to the least-loaded reducer if the cap excludes everyone.
///
/// `inputs` are the combination's (slot, `|b|`) pairs; `present` is the
/// `slot · r + j` table of buckets each reducer already holds.
fn get_reducer(
    inputs: &[(usize, u64)],
    reducer_combos: &[Vec<u32>],
    reducer_results: &[u128],
    under_cap: &[bool],
    present: &[bool],
) -> ReducerPick {
    let r = reducer_combos.len();
    // Lines 1–4: minimum number of assigned combinations among eligible.
    let min_assigned = (0..r).filter(|&j| under_cap[j]).map(|j| reducer_combos[j].len()).min();
    let Some(min_assigned) = min_assigned else {
        // Every reducer is past the cap: least-loaded fallback.
        let reducer = (0..r).min_by_key(|&j| (reducer_results[j], j)).expect("r ≥ 1");
        return ReducerPick { reducer, scored: r as u64, fell_back: true };
    };
    // Lines 5–10: minimize the cost of input not yet present.
    let mut best = usize::MAX;
    let mut best_cost = u64::MAX;
    let mut scored = 0u64;
    for (j, combos_j) in reducer_combos.iter().enumerate() {
        if !under_cap[j] || combos_j.len() != min_assigned {
            continue;
        }
        scored += 1;
        let cost: u64 =
            inputs.iter().filter(|&&(slot, _)| !present[slot * r + j]).map(|&(_, c)| c).sum();
        if cost < best_cost {
            best_cost = cost;
            best = j;
        }
    }
    debug_assert!(best != usize::MAX);
    ReducerPick { reducer: best, scored, fell_back: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributionPolicy::{Dtb, Lpt};
    use tkij_temporal::aggregate::Aggregation;
    use tkij_temporal::collection::CollectionId;
    use tkij_temporal::granule::TimePartitioning;
    use tkij_temporal::interval::Interval;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::predicate::TemporalPredicate;
    use tkij_temporal::query::QueryEdge;

    /// Two-vertex query over one shared collection with intervals placed
    /// so each diagonal bucket (g, g) holds `per_bucket` intervals.
    fn setup(per_bucket: u64, granules: u32) -> (Query, Vec<BucketMatrix>) {
        let part = TimePartitioning::from_range(0, granules as i64 * 10 - 1, granules).unwrap();
        let mut intervals = Vec::new();
        let mut id = 0;
        for g in 0..granules as i64 {
            for _ in 0..per_bucket {
                intervals.push(Interval::new(id, g * 10 + 1, g * 10 + 5).unwrap());
                id += 1;
            }
        }
        let m = BucketMatrix::build(part, &intervals);
        let q = Query::new(
            vec![CollectionId(0), CollectionId(0)],
            vec![QueryEdge {
                src: 0,
                dst: 1,
                predicate: TemporalPredicate::meets(PredicateParams::P1),
            }],
            Aggregation::NormalizedSum,
        )
        .unwrap();
        (q, vec![m])
    }

    fn combos_with_bounds(granules: u32, per_bucket: u64) -> ComboSet {
        // One combination per (g, g) diagonal pair, UB descending in g.
        let mut set = ComboSet::new(2);
        for g in 0..granules {
            let b = BucketId::new(g, g);
            set.push(&[b, b], per_bucket * per_bucket, 0.1, 1.0 - g as f64 * 0.01);
        }
        set
    }

    #[test]
    fn every_combo_assigned_exactly_once() {
        let (q, m) = setup(3, 8);
        let combos = combos_with_bounds(8, 3);
        for policy in [Dtb, Lpt] {
            let a = distribute(&combos, policy, 4, &q, &m);
            assert_eq!(a.combo_reducer.len(), combos.len());
            let spread: usize = a.reducer_combos.iter().map(Vec::len).sum();
            assert_eq!(spread, combos.len());
            // Reducer lists and combo_reducer agree.
            for (rj, list) in a.reducer_combos.iter().enumerate() {
                for &ci in list {
                    assert_eq!(a.combo_reducer[ci as usize] as usize, rj);
                }
            }
        }
    }

    #[test]
    fn bucket_map_covers_all_combo_buckets() {
        let (q, m) = setup(2, 6);
        let combos = combos_with_bounds(6, 2);
        let a = distribute(&combos, Dtb, 3, &q, &m);
        for ci in 0..combos.len() {
            let rj = a.combo_reducer[ci];
            for (v, &b) in combos.buckets(ci).iter().enumerate() {
                let rs = &a.bucket_map[&(v as u16, b)];
                assert!(rs.contains(&rj), "combo {ci}: bucket missing its reducer");
                assert!(rs.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            }
        }
    }

    #[test]
    fn dtb_spreads_top_combos_breadth_first() {
        // With equal nbRes, the first r combinations (highest UB) must go
        // to r distinct reducers: that is the even spread of high-scoring
        // results the paper argues for.
        let (q, m) = setup(2, 8);
        let combos = combos_with_bounds(8, 2);
        let a = distribute(&combos, Dtb, 4, &q, &m);
        let order = combos.indices_by_ub_desc();
        let first_four: std::collections::BTreeSet<u32> =
            order[..4].iter().map(|&i| a.combo_reducer[i as usize]).collect();
        assert_eq!(first_four.len(), 4, "top-UB combos must hit distinct reducers");
    }

    #[test]
    fn dtb_prefers_overlapping_reducer() {
        // 3 combos: A = (b0, b1), B = (b2, b3), C = (b0, b1) again.
        // With 2 reducers: A → r0, B → r1 (fewest combos), C ties on
        // |Ω_rj| = 1 and must co-locate with A (zero new input) on r0.
        let (q, m) = setup(2, 8);
        let mut set = ComboSet::new(2);
        set.push(&[BucketId::new(0, 0), BucketId::new(1, 1)], 4, 0.0, 0.9);
        set.push(&[BucketId::new(2, 2), BucketId::new(3, 3)], 4, 0.0, 0.8);
        set.push(&[BucketId::new(0, 0), BucketId::new(1, 1)], 4, 0.0, 0.7);
        let a = distribute(&set, Dtb, 2, &q, &m);
        assert_eq!(a.combo_reducer[0], a.combo_reducer[2], "C co-locates with A");
        assert_ne!(a.combo_reducer[0], a.combo_reducer[1]);
        // No replication happened: each bucket lives on exactly 1 reducer.
        assert!((a.replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dtb_worst_case_cap_diverts_large_loads() {
        // One giant combination (UB highest) then many small ones; the
        // giant's reducer is past 2×avg and must receive nothing else.
        let (q, m) = setup(2, 8);
        let mut set = ComboSet::new(2);
        set.push(&[BucketId::new(0, 0), BucketId::new(0, 0)], 1_000_000, 0.5, 1.0);
        for g in 1..8 {
            let b = BucketId::new(g, g);
            set.push(&[b, b], 4, 0.1, 0.9 - g as f64 * 0.01);
        }
        let a = distribute(&set, Dtb, 4, &q, &m);
        let giant_reducer = a.combo_reducer[0] as usize;
        assert_eq!(a.reducer_combos[giant_reducer].len(), 1, "cap must divert small combos");
    }

    #[test]
    fn lpt_assigns_to_least_loaded_by_results() {
        let (q, m) = setup(2, 8);
        let mut set = ComboSet::new(2);
        set.push(&[BucketId::new(0, 0), BucketId::new(0, 0)], 100, 0.0, 1.0);
        set.push(&[BucketId::new(1, 1), BucketId::new(1, 1)], 60, 0.0, 0.9);
        set.push(&[BucketId::new(2, 2), BucketId::new(2, 2)], 50, 0.0, 0.8);
        let a = distribute(&set, Lpt, 2, &q, &m);
        // LPT order: 100 → r0, 60 → r1, 50 → r1 (60+50=110 vs 100... no:
        // after 100→r0 and 60→r1, least loaded is r1 (60 < 100) → 50→r1).
        assert_eq!(a.reducer_results[a.combo_reducer[0] as usize], 100);
        assert_eq!(a.combo_reducer[1], a.combo_reducer[2]);
    }

    #[test]
    fn shuffle_estimates_count_replication() {
        let (q, m) = setup(3, 8); // 3 intervals per diagonal bucket
        let mut set = ComboSet::new(2);
        // Same bucket pair assigned twice to different reducers via cap=0?
        // Simpler: two combos sharing bucket (0,0) on vertex 0 but
        // differing on vertex 1 → if they land on different reducers,
        // bucket (0,0) ships twice.
        set.push(&[BucketId::new(0, 0), BucketId::new(1, 1)], 9, 0.0, 1.0);
        set.push(&[BucketId::new(0, 0), BucketId::new(2, 2)], 9, 0.0, 0.9);
        let a = distribute(&set, Dtb, 2, &q, &m);
        // Vertex-0 bucket (0,0) is needed by both reducers (breadth-first
        // spread on |Ω_rj| wins over inCost here).
        assert_eq!(a.bucket_map[&(0u16, BucketId::new(0, 0))].len(), 2);
        // Records: (0,0)×2 reducers ×3 + (1,1)×3 + (2,2)×3 = 12.
        assert_eq!(a.estimated_shuffle_records, 12);
        assert!((a.replication_factor - 12.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn work_counters_are_filled_and_bounded() {
        let (q, m) = setup(2, 8);
        let combos = combos_with_bounds(8, 2);
        for policy in [Dtb, Lpt] {
            let a = distribute(&combos, policy, 4, &q, &m);
            assert!(a.assignments_scored > 0, "{policy:?}");
            // Never more candidacies than combos × reducers.
            assert!(a.assignments_scored <= combos.len() as u64 * 4, "{policy:?}");
            assert_eq!(a.cap_fallbacks, 0, "{policy:?}: balanced load never trips the cap");
        }
        // LPT scans every reducer for every combination, exactly.
        let lpt = distribute(&combos, Lpt, 4, &q, &m);
        assert_eq!(lpt.assignments_scored, combos.len() as u64 * 4);
    }

    #[test]
    fn cap_fallback_path_is_counted() {
        // Through `distribute` the fallback is unreachable (all reducers
        // past 2×avgRes would sum past the total), so `cap_fallbacks`
        // gates as a constant 0 — but the defensive path itself must
        // still decide correctly. Exercise it directly with a doctored
        // load vector where every reducer is past the cap.
        let loads = [100u128, 50];
        let avg_res = 1.0; // cap 2; both reducers are far past it
        let under_cap = loads.map(|l| is_under_cap(l, avg_res));
        assert_eq!(under_cap, [false, false]);
        let pick = get_reducer(
            &[(0, 2), (1, 2)],
            &[vec![0], vec![1]],
            &loads,
            &under_cap,
            &[false; 4], // 2 slots × 2 reducers, nothing shipped yet
        );
        assert!(pick.fell_back);
        assert_eq!(pick.reducer, 1, "least-loaded fallback");
        assert_eq!(pick.scored, 2, "fallback scans every reducer");
    }

    #[test]
    fn result_imbalance_sane() {
        let (q, m) = setup(2, 4);
        let combos = combos_with_bounds(4, 2);
        let a = distribute(&combos, Dtb, 4, &q, &m);
        assert!((a.result_imbalance() - 1.0).abs() < 1e-9, "equal combos spread evenly");
    }

    /// Everything an `Assignment` decides: `combo_reducer`, `reducer_combos`,
    /// `bucket_map`, and `[assignments_scored, cap_fallbacks,
    /// estimated_shuffle_records, replication_factor bits]`.
    type Decisions = (Vec<u32>, Vec<Vec<u32>>, BTreeMap<VertexBucket, Vec<u32>>, [u64; 4]);

    /// Oracle — Algorithms 3–4 with a map of reducer lists per bucket.
    fn oracle_distribute(
        combos: &ComboSet,
        policy: DistributionPolicy,
        r: usize,
        query: &Query,
        matrices: &[BucketMatrix],
    ) -> Decisions {
        let count = |v: usize, b: BucketId| matrices[query.vertices[v].0 as usize].count(b);
        let avg_res = combos.total_results() as f64 / r as f64;
        let order = match policy {
            Dtb => combos.indices_by_ub_desc(),
            Lpt => combos.indices_by_nbres_desc(),
        };
        let (mut combo_reducer, mut lists) = (vec![0; combos.len()], vec![Vec::new(); r]);
        let (mut loads, mut scored, mut fallbacks) = (vec![0u128; r], 0u64, 0u64);
        let mut holders: BTreeMap<VertexBucket, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for ci in order {
            let buckets = combos.buckets(ci as usize);
            let open: Vec<usize> =
                (0..r).filter(|&j| (loads[j] as f64) < 2.0 * avg_res || avg_res == 0.0).collect();
            let rj = if policy == Lpt || open.is_empty() {
                scored += r as u64;
                fallbacks += (policy == Dtb) as u64;
                (0..r).min_by_key(|&j| (loads[j], j)).unwrap()
            } else {
                let fewest = open.iter().map(|&j| lists[j].len()).min().unwrap();
                let held =
                    |v: usize, b, j| holders.get(&(v as u16, b)).is_some_and(|h| h.contains(&j));
                let new_input = |j: usize| -> u64 {
                    let missing =
                        buckets.iter().enumerate().filter(|&(v, &b)| !held(v, b, j as u32));
                    missing.map(|(v, &b)| count(v, b)).sum()
                };
                let tied = open.iter().filter(|&&j| lists[j].len() == fewest);
                scored += tied.clone().count() as u64;
                *tied.min_by_key(|&&j| (new_input(j), j)).unwrap()
            };
            combo_reducer[ci as usize] = rj as u32;
            lists[rj].push(ci);
            loads[rj] += combos.nb_res(ci as usize) as u128;
            for (v, &b) in buckets.iter().enumerate() {
                holders.entry((v as u16, b)).or_default().insert(rj as u32);
            }
        }
        let shipped: u64 =
            holders.iter().map(|(&(v, b), h)| count(v as usize, b) * h.len() as u64).sum();
        let distinct: u64 = holders.keys().map(|&(v, b)| count(v as usize, b)).sum();
        let replication = if distinct == 0 { 1.0 } else { shipped as f64 / distinct as f64 };
        let bucket_map =
            holders.into_iter().map(|(key, h)| (key, h.into_iter().collect())).collect();
        (combo_reducer, lists, bucket_map, [scored, fallbacks, shipped, replication.to_bits()])
    }

    #[test]
    fn distribute_equals_the_reducer_list_oracle() {
        use crate::config::Strategy;
        use crate::topbuckets::run_topbuckets;
        use crate::topbuckets::tests::{random_matrices, xorshift};
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let chain = tkij_temporal::query::table1::q_om(PredicateParams::P1);
        // The self-join puts one bucket in two vertex roles (two slots).
        let (self_join, _) = setup(1, 1);
        for trial in 0..8 {
            let matrices = random_matrices(&mut next, 3, 3 + trial % 3);
            let query = if trial % 2 == 0 { &chain } else { &self_join };
            let k = [1, 20, u64::MAX][trial as usize % 3];
            let cfg = tkij_solver::SolverConfig::default();
            let (mut combos, _) = run_topbuckets(query, &matrices, k, Strategy::Loose, &cfg, 2);
            if trial >= 6 {
                // One giant combination first: drives reducers past the cap.
                combos.set_bounds(0, 0.0, 2.0);
                let buckets = combos.buckets(0).to_vec();
                combos.push(&buckets, 1 << 40, 0.0, 3.0);
            }
            for policy in [Dtb, Lpt] {
                for r in [1, 3, 24, 70] {
                    let a = distribute(&combos, policy, r, query, &matrices);
                    let got: Decisions = (
                        a.combo_reducer,
                        a.reducer_combos,
                        a.bucket_map,
                        [
                            a.assignments_scored,
                            a.cap_fallbacks,
                            a.estimated_shuffle_records,
                            a.replication_factor.to_bits(),
                        ],
                    );
                    let want = oracle_distribute(&combos, policy, r, query, &matrices);
                    assert_eq!(got, want, "trial {trial} {policy:?} r={r}");
                }
            }
        }
    }
}
