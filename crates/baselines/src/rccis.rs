//! RCCIS — the Boolean colocation-join competitor (Chawda et al.,
//! EDBT'14), adapted to top-k as in the paper's §4.2.5.
//!
//! RCCIS ("reduce-side cascaded colocation interval strategy") evaluates
//! multi-way *colocation* queries — every edge predicate implies the two
//! intervals share at least one timestamp (`meets`, `overlaps`, `starts`,
//! `equals`, `finishedBy`, `contains`) — as a **cascade of binary
//! Map-Reduce joins** over a shared granule partitioning:
//!
//! * each stage replicates its left input (intermediate tuples, keyed by
//!   the anchor interval) and the next collection to every granule they
//!   overlap;
//! * a reducer joins within its granule, checking the Boolean predicate
//!   and de-duplicating by the *reference granule* rule: a pair is
//!   reported only in the granule containing `max(x̲, y̲)` — a timestamp
//!   guaranteed to lie in both intervals of any colocation match, so each
//!   pair is emitted exactly once;
//! * the earlier stages are exactly the paper's "first Map-Reduce phase
//!   \[that\] builds intermediate results", whose cost grows with `|C_i|`
//!   (the behavior Fig. 11b attributes to RCCIS);
//! * the final stage checks any remaining (cycle) edges, and its
//!   reducers stop after emitting `k` matches, as the paper imposes.

use crate::common::{granule_span, shared_partitioning, BaselineReport};
use tkij_mapreduce::{run_map_reduce, ClusterConfig, CodecError, FrameReader, Record, SizeOf};
use tkij_temporal::collection::IntervalCollection;
use tkij_temporal::granule::TimePartitioning;
use tkij_temporal::interval::Interval;
use tkij_temporal::predicate::PredicateClass;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

/// Shuffle record of one cascade stage: either an intermediate tuple
/// (tagged by its anchor interval) or a probe interval of the new vertex.
enum StageRec {
    /// Partial tuple: intervals bound so far (by plan order).
    Tuple(Vec<Interval>),
    /// An interval of the vertex being joined in.
    Probe(Interval),
}

impl SizeOf for StageRec {
    fn size_bytes(&self) -> usize {
        match self {
            StageRec::Tuple(t) => 1 + t.len() * 24,
            StageRec::Probe(_) => 1 + 24,
        }
    }
}

fn encode_interval(iv: &Interval, out: &mut Vec<u8>) {
    iv.id.encode(out);
    iv.start.encode(out);
    iv.end.encode(out);
}

fn decode_interval(reader: &mut FrameReader<'_>) -> Result<Interval, CodecError> {
    let id = u64::decode(reader)?;
    let start = i64::decode(reader)?;
    let end = i64::decode(reader)?;
    Interval::new(id, start, end)
        .map_err(|e| CodecError { detail: format!("invalid interval in StageRec: {e}") })
}

impl Record for StageRec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StageRec::Tuple(t) => {
                out.push(0);
                for iv in t {
                    encode_interval(iv, out);
                }
            }
            StageRec::Probe(iv) => {
                out.push(1);
                encode_interval(iv, out);
            }
        }
    }

    // A tuple's arity carries no prefix: the record is the frame's whole
    // value, so the bound-interval count is `remaining / 24`.
    fn decode(reader: &mut FrameReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(reader)? {
            0 => {
                let rem = reader.remaining();
                if rem % 24 != 0 {
                    return Err(CodecError {
                        detail: format!("StageRec tuple payload of {rem} bytes is not intervals"),
                    });
                }
                let mut tuple = Vec::with_capacity(rem / 24);
                for _ in 0..rem / 24 {
                    tuple.push(decode_interval(reader)?);
                }
                Ok(StageRec::Tuple(tuple))
            }
            1 => Ok(StageRec::Probe(decode_interval(reader)?)),
            tag => Err(CodecError { detail: format!("invalid StageRec tag {tag}") }),
        }
    }
}

/// Runs RCCIS on a colocation query. `g` granules (the paper sets
/// `g = 24`, one reducer per granule). `k` caps each final reducer's
/// output. Collections are indexed by the query's collection ids.
pub fn run_rccis(
    query: &Query,
    collections: &[IntervalCollection],
    k: usize,
    g: u32,
    cluster: &ClusterConfig,
) -> Result<BaselineReport, String> {
    for e in &query.edges {
        if e.predicate.class() != PredicateClass::Colocation {
            return Err(format!(
                "RCCIS handles only colocation predicates; {} is not",
                e.predicate
            ));
        }
    }
    let plan = query.plan();
    let part = shared_partitioning(
        query.vertices.iter().map(|c| collections[c.0 as usize].time_range()),
        g,
    );
    let mut phases = Vec::new();

    // Seed: single-interval "tuples" of the first plan vertex, in a map
    // keyed by the vertex order bound so far.
    let first_vertex = plan.steps[0].vertex;
    let mut bound_order = vec![first_vertex];
    let mut intermediates: Vec<Vec<Interval>> = collections
        [query.vertices[first_vertex].0 as usize]
        .intervals()
        .iter()
        .map(|iv| vec![*iv])
        .collect();

    for (stage, step) in plan.steps.iter().enumerate().skip(1) {
        let anchor = step.anchor.expect("cascade steps have anchors");
        let anchor_pos = bound_order
            .iter()
            .position(|&v| v == anchor.bound_vertex)
            .expect("anchor already bound");
        let probe_coll = &collections[query.vertices[step.vertex].0 as usize];
        let is_final = stage == plan.steps.len() - 1;
        let edge = &query.edges[anchor.edge];
        // Check edges whose endpoints are all bound after this stage.
        let checks: Vec<usize> = step.checks.clone();
        let bound_order_snapshot = bound_order.clone();

        // Build the stage's mixed input.
        let mut inputs: Vec<StageRec> = intermediates.drain(..).map(StageRec::Tuple).collect();
        inputs.extend(probe_coll.intervals().iter().map(|iv| StageRec::Probe(*iv)));

        let (outputs, metrics) = run_map_reduce(
            &inputs,
            cluster.map_slots.max(1) * 2,
            g as usize,
            |_, chunk, em| {
                for rec in chunk {
                    match rec {
                        StageRec::Tuple(t) => {
                            let (lo, hi) = granule_span(&part, &t[anchor_pos]);
                            for l in lo..=hi {
                                em.emit(l, StageRec::Tuple(t.clone()));
                            }
                        }
                        StageRec::Probe(iv) => {
                            let (lo, hi) = granule_span(&part, iv);
                            for l in lo..=hi {
                                em.emit(l, StageRec::Probe(*iv));
                            }
                        }
                    }
                }
            },
            |l| *l as usize,
            |granule, recs| {
                let mut tuples: Vec<Vec<Interval>> = Vec::new();
                let mut probes: Vec<Interval> = Vec::new();
                for rec in recs {
                    match rec {
                        StageRec::Tuple(t) => tuples.push(t),
                        StageRec::Probe(iv) => probes.push(iv),
                    }
                }
                // Deterministic order regardless of shuffle interleaving.
                tuples.sort_by(|a, b| {
                    a.iter()
                        .map(|i| i.id)
                        .collect::<Vec<_>>()
                        .cmp(&b.iter().map(|i| i.id).collect::<Vec<_>>())
                });
                probes.sort_by_key(|iv| iv.id);
                let mut out: Vec<Vec<Interval>> = Vec::new();
                'outer: for t in &tuples {
                    let x = &t[anchor_pos];
                    for y in &probes {
                        let (a, b) = match anchor.anchor_side {
                            tkij_temporal::expr::Side::Left => (x, y),
                            tkij_temporal::expr::Side::Right => (y, x),
                        };
                        if !edge.predicate.holds(a, b) {
                            continue;
                        }
                        // Reference-granule de-duplication.
                        let reference = part.granule_of(x.start.max(y.start));
                        if reference != granule as u32 {
                            continue;
                        }
                        let mut extended = t.clone();
                        extended.push(*y);
                        // Remaining (cycle) edges among bound vertices.
                        let ok = checks.iter().all(|&ce| {
                            let e = &query.edges[ce];
                            let find = |v: usize| -> &Interval {
                                if v == step.vertex {
                                    extended.last().expect("just pushed")
                                } else {
                                    let pos = bound_order_snapshot
                                        .iter()
                                        .position(|&b| b == v)
                                        .expect("check endpoints bound");
                                    &extended[pos]
                                }
                            };
                            e.predicate.holds(find(e.src), find(e.dst))
                        });
                        if !ok {
                            continue;
                        }
                        out.push(extended);
                        if is_final && out.len() >= k {
                            break 'outer; // stop-at-k (paper's adaptation)
                        }
                    }
                }
                out
            },
            cluster,
        );
        phases.push((format!("join-stage-{stage}"), metrics));
        bound_order.push(step.vertex);
        intermediates = outputs;
    }

    // Final merge: cap at k and normalize tuple order to query-vertex
    // order (like TKIJ's merge phase).
    let results = finalize(query, &bound_order, intermediates, k, &part);
    Ok(BaselineReport { algorithm: "RCCIS", results, phases })
}

/// Reorders tuples from plan order to vertex order, converts them into
/// score-1.0 [`MatchTuple`]s, sorts deterministically and caps at `k`.
fn finalize(
    query: &Query,
    bound_order: &[usize],
    tuples: Vec<Vec<Interval>>,
    k: usize,
    _part: &TimePartitioning,
) -> Vec<MatchTuple> {
    let mut out: Vec<MatchTuple> = tuples
        .into_iter()
        .map(|t| {
            let mut ids = vec![0u64; query.n()];
            for (pos, &v) in bound_order.iter().enumerate() {
                ids[v] = t[pos].id;
            }
            MatchTuple::new(ids, 1.0)
        })
        .collect();
    out.sort_by(MatchTuple::rank_cmp);
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_core::naive_boolean;
    use tkij_datagen::synthetic::{uniform_collection, SyntheticConfig};
    use tkij_temporal::collection::CollectionId;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn boolean_ids(report: &BaselineReport) -> Vec<Vec<u64>> {
        let mut ids: Vec<Vec<u64>> = report.results.iter().map(|t| t.ids.clone()).collect();
        ids.sort();
        ids
    }

    /// Dense collections (short time range) so colocation matches exist.
    fn dense_collections(m: usize, size: usize, seed: u64) -> Vec<IntervalCollection> {
        (0..m as u32)
            .map(|i| {
                uniform_collection(
                    CollectionId(i),
                    &SyntheticConfig { size, start_range: (0, 1500), length_range: (1, 100), seed },
                )
            })
            .collect()
    }

    #[test]
    fn matches_naive_boolean_on_colocation_queries() {
        let collections = dense_collections(3, 120, 31);
        let cluster = ClusterConfig::default();
        for (name, q) in [
            ("Qo,o", table1::q_oo(PredicateParams::PB)),
            ("Qf,f", table1::q_ff(PredicateParams::PB)),
            ("Qs,s", table1::q_ss(PredicateParams::PB)),
            ("Qs,f,m", table1::q_sfm(PredicateParams::PB)),
            ("Qm*", table1::q_m_star(3, PredicateParams::PB)),
        ] {
            let refs: Vec<_> = q.vertices.iter().map(|c| &collections[c.0 as usize]).collect();
            let expected = naive_boolean(&q, &refs);
            let report = run_rccis(&q, &collections, usize::MAX, 8, &cluster).expect(name);
            assert_eq!(boolean_ids(&report), expected, "{name}");
        }
    }

    #[test]
    fn duplicate_free_across_granule_counts() {
        let collections = dense_collections(3, 80, 7);
        let q = table1::q_oo(PredicateParams::PB);
        let cluster = ClusterConfig::default();
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for g in [1, 4, 24] {
            let report = run_rccis(&q, &collections, usize::MAX, g, &cluster).unwrap();
            let ids = boolean_ids(&report);
            let dedup: std::collections::BTreeSet<_> = ids.iter().cloned().collect();
            assert_eq!(dedup.len(), ids.len(), "g={g}: duplicates emitted");
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "g={g}"),
            }
        }
    }

    #[test]
    fn rejects_sequence_predicates() {
        let collections = dense_collections(3, 10, 1);
        let q = table1::q_bb(PredicateParams::PB);
        assert!(run_rccis(&q, &collections, 5, 4, &ClusterConfig::default()).is_err());
    }

    #[test]
    fn stop_at_k_caps_results() {
        let collections = dense_collections(3, 150, 3);
        let q = table1::q_oo(PredicateParams::PB);
        let report = run_rccis(&q, &collections, 5, 8, &ClusterConfig::default()).unwrap();
        assert_eq!(report.results.len(), 5);
        assert!(report.results.iter().all(|t| t.score == 1.0));
        assert!(!report.phases.is_empty());
        assert!(report.total_wall() > std::time::Duration::ZERO);
    }
}
