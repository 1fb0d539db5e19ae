//! All-Matrix — the Boolean sequence-join competitor (Chawda et al.,
//! EDBT'14), adapted to top-k as in the paper's §4.2.5.
//!
//! Sequence queries (`before`-style edges) imply unavoidable replication,
//! so All-Matrix focuses on load balancing: each collection is
//! range-partitioned by **start granule**, and one reducer is created per
//! feasible granule signature — a tuple `(l_1, …, l_n)` with `l_i ≤ l_j`
//! for every sequence edge `(i, j)` (with `g = 4` granules and `n = 3`
//! chain queries this yields the paper's 20 reducers). Every result tuple
//! has exactly one signature, so no de-duplication is needed; reducers
//! run a Boolean nested-loop join and stop at `k` results.

use crate::common::{shared_partitioning, BaselineReport};
use tkij_mapreduce::{run_map_reduce, ClusterConfig, CodecError, FrameReader, Record, SizeOf};
use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::PredicateClass;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

/// Shuffle record: an interval tagged with its query vertex.
struct VRec(u16, Interval);

impl SizeOf for VRec {
    fn size_bytes(&self) -> usize {
        2 + 24
    }
}

impl Record for VRec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.id.encode(out);
        self.1.start.encode(out);
        self.1.end.encode(out);
    }

    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        let v = u16::decode(reader)?;
        let id = u64::decode(reader)?;
        let start = i64::decode(reader)?;
        let end = i64::decode(reader)?;
        let iv = Interval::new(id, start, end)
            .map_err(|e| CodecError { detail: format!("invalid interval in VRec: {e}") })?;
        Ok(VRec(v, iv))
    }
}

/// Enumerates the feasible granule signatures: all `(l_1, …, l_n)` in
/// `[0, g)^n` with `l_i ≤ l_j` for every edge `(i, j)`.
pub fn feasible_signatures(query: &Query, g: u32) -> Vec<Vec<u32>> {
    let n = query.n();
    let mut out = Vec::new();
    let mut sig = vec![0u32; n];
    loop {
        let ok = query.edges.iter().all(|e| sig[e.src] <= sig[e.dst]);
        if ok {
            out.push(sig.clone());
        }
        // Odometer.
        let mut v = n - 1;
        loop {
            sig[v] += 1;
            if sig[v] < g {
                break;
            }
            sig[v] = 0;
            if v == 0 {
                return out;
            }
            v -= 1;
        }
    }
}

/// Runs All-Matrix on a sequence query with `g` start-granules per
/// collection (the paper uses `g = 4` for `n = 3`). `k` caps each
/// reducer's output.
pub fn run_all_matrix(
    query: &Query,
    collections: &[IntervalCollection],
    k: usize,
    g: u32,
    cluster: &ClusterConfig,
) -> Result<BaselineReport, String> {
    for e in &query.edges {
        if e.predicate.class() != PredicateClass::Sequence {
            return Err(format!(
                "All-Matrix handles only sequence predicates; {} is not",
                e.predicate
            ));
        }
    }
    let n = query.n();
    let part = shared_partitioning(
        query.vertices.iter().map(|c| collections[c.0 as usize].time_range()),
        g,
    );
    let signatures = feasible_signatures(query, g);
    // (vertex, granule) → reducers whose signature has that granule there.
    let mut routing: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); g as usize]; n];
    for (r, sig) in signatures.iter().enumerate() {
        for (v, &l) in sig.iter().enumerate() {
            routing[v][l as usize].push(r as u32);
        }
    }

    let mut inputs: Vec<(u16, Interval)> = Vec::new();
    for (v, cid) in query.vertices.iter().enumerate() {
        inputs.extend(collections[cid.0 as usize].intervals().iter().map(|iv| (v as u16, *iv)));
    }

    let (tuples, metrics) = run_map_reduce(
        &inputs,
        cluster.map_slots.max(1) * 2,
        signatures.len().max(1),
        |_, chunk, em| {
            for (v, iv) in chunk {
                let l = part.granule_of(iv.start);
                for &r in &routing[*v as usize][l as usize] {
                    em.emit(r, VRec(*v, *iv));
                }
            }
        },
        |r| *r as usize,
        |_, groups| {
            let mut per_vertex: Vec<Vec<Interval>> = vec![Vec::new(); n];
            for (_, recs) in groups {
                for VRec(v, iv) in recs {
                    per_vertex[v as usize].push(iv);
                }
            }
            for list in &mut per_vertex {
                list.sort_unstable_by_key(|iv| (iv.id, iv.start));
            }
            // Boolean nested-loop join, stop at k.
            let mut out: Vec<Vec<u64>> = Vec::new();
            let mut tuple: Vec<Interval> = Vec::with_capacity(n);
            boolean_join(query, &per_vertex, &mut tuple, &mut out, k);
            out
        },
        cluster,
    );

    let mut results: Vec<MatchTuple> =
        tuples.into_iter().map(|ids| MatchTuple::new(ids, 1.0)).collect();
    results.sort_by(MatchTuple::rank_cmp);
    results.truncate(k);
    Ok(BaselineReport {
        algorithm: "All-Matrix",
        results,
        phases: vec![("join".to_string(), metrics)],
    })
}

/// Depth-first Boolean join in vertex order, checking every edge as soon
/// as both endpoints are bound; stops once `k` results are collected.
fn boolean_join(
    query: &Query,
    per_vertex: &[Vec<Interval>],
    tuple: &mut Vec<Interval>,
    out: &mut Vec<Vec<u64>>,
    k: usize,
) {
    if out.len() >= k {
        return;
    }
    let v = tuple.len();
    if v == query.n() {
        out.push(tuple.iter().map(|iv| iv.id).collect());
        return;
    }
    'cand: for iv in &per_vertex[v] {
        for e in &query.edges {
            // Edges fully bound once vertex v is assigned.
            let hi = e.src.max(e.dst);
            if hi != v {
                continue;
            }
            let (x, y) = if e.src == v { (iv, &tuple[e.dst]) } else { (&tuple[e.src], iv) };
            if !e.predicate.holds(x, y) {
                continue 'cand;
            }
        }
        tuple.push(*iv);
        boolean_join(query, per_vertex, tuple, out, k);
        tuple.pop();
        if out.len() >= k {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_core::naive_boolean;
    use tkij_datagen::uniform_collections;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn boolean_ids(report: &BaselineReport) -> Vec<Vec<u64>> {
        let mut ids: Vec<Vec<u64>> = report.results.iter().map(|t| t.ids.clone()).collect();
        ids.sort();
        ids
    }

    #[test]
    fn paper_reducer_count_g4_n3() {
        let q = table1::q_bb(PredicateParams::PB);
        // Chain l1 ≤ l2 ≤ l3 over 4 granules: C(4+2, 3) = 20 reducers.
        assert_eq!(feasible_signatures(&q, 4).len(), 20);
    }

    #[test]
    fn star_signature_count() {
        let q = table1::q_b_star(3, PredicateParams::PB);
        // l1 ≤ l2 and l1 ≤ l3 (no order among leaves):
        // Σ_{l1} (g - l1)² = 16 + 9 + 4 + 1 = 30.
        assert_eq!(feasible_signatures(&q, 4).len(), 30);
    }

    #[test]
    fn matches_naive_boolean_on_sequence_queries() {
        let collections = uniform_collections(3, 60, 17);
        let avg = collections[0].avg_length();
        let cluster = ClusterConfig::default();
        for (name, q) in [
            ("Qb,b", table1::q_bb(PredicateParams::PB)),
            ("Qb*", table1::q_b_star(3, PredicateParams::PB)),
            ("QjB,jB", table1::q_jbjb(PredicateParams::PB, avg)),
            ("QsM,sM", table1::q_smsm(PredicateParams::PB, avg)),
        ] {
            let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
            let expected = naive_boolean(&q, &refs);
            let report = run_all_matrix(&q, &collections, usize::MAX, 4, &cluster).expect(name);
            assert_eq!(boolean_ids(&report), expected, "{name}");
        }
    }

    #[test]
    fn no_duplicates_across_granularities() {
        let collections = uniform_collections(3, 50, 29);
        let q = table1::q_bb(PredicateParams::PB);
        let cluster = ClusterConfig::default();
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for g in [1, 2, 5] {
            let report = run_all_matrix(&q, &collections, usize::MAX, g, &cluster).unwrap();
            let ids = boolean_ids(&report);
            let dedup: std::collections::BTreeSet<_> = ids.iter().cloned().collect();
            assert_eq!(dedup.len(), ids.len(), "g={g}");
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "g={g}"),
            }
        }
    }

    #[test]
    fn rejects_colocation_predicates() {
        let collections = uniform_collections(3, 10, 1);
        let q = table1::q_oo(PredicateParams::PB);
        assert!(run_all_matrix(&q, &collections, 5, 4, &ClusterConfig::default()).is_err());
    }

    #[test]
    fn stop_at_k_caps_results() {
        let collections = uniform_collections(3, 100, 13);
        let q = table1::q_bb(PredicateParams::PB);
        let report = run_all_matrix(&q, &collections, 7, 4, &ClusterConfig::default()).unwrap();
        assert_eq!(report.results.len(), 7);
    }
}
