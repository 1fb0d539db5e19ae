//! Hybrid queries: temporal predicates plus attribute constraints.
//!
//! The paper's conclusion names this as future work: "the integration of
//! interval attributes (e.g. IP address for a connection) in the join
//! conditions, to build hybrid queries". This module implements it on top
//! of the TKIJ machinery:
//!
//! * every query vertex carries an attribute table (interval id →
//!   attribute value, e.g. the client IP of a connection);
//! * edge-level [`AttrConstraint`]s require equality or inequality of the
//!   joined intervals' attributes;
//! * evaluation is the engine's one pipeline: the planning phases with
//!   static pruning off, then the same `execute_planned_impl` every
//!   plain query ends in, handed a monotone [`TupleFilter`] that rejects
//!   partial tuples as soon as a constraint between bound vertices
//!   fails.
//!
//! **Pruning note.** TopBuckets score bounds do not model attribute
//! selectivity: a pruned combination's k cover tuples might all be
//! filtered out, which would break exactness. Hybrid execution therefore
//! keeps the *ordering* benefits of bounds (UB-descending access, runtime
//! early termination — both remain sound on filtered subsets) but skips
//! the static `getTopBuckets` pruning. Making bounds selectivity-aware is
//! the natural next step the paper alludes to.

use crate::engine::{ExecutionReport, Tkij};
use crate::localjoin::TupleFilter;
use crate::stats::PreparedDataset;
use std::collections::BTreeMap;
use tkij_temporal::error::TemporalError;
use tkij_temporal::interval::Interval;
use tkij_temporal::query::Query;

/// Comparison applied to the two attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrPredicate {
    /// Attributes must be equal (e.g. same server IP).
    Equal,
    /// Attributes must differ (e.g. requests from different countries, as
    /// in the paper's introduction).
    NotEqual,
}

/// One attribute constraint between two query vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrConstraint {
    /// First vertex.
    pub src: usize,
    /// Second vertex.
    pub dst: usize,
    /// Required relation.
    pub predicate: AttrPredicate,
}

/// Attribute tables per *collection* (interval id → attribute value).
pub type AttributeTables = Vec<BTreeMap<u64, u64>>;

struct AttrFilter<'a> {
    query: &'a Query,
    tables: &'a AttributeTables,
    constraints: &'a [AttrConstraint],
}

impl AttrFilter<'_> {
    fn attr(&self, vertex: usize, iv: &Interval) -> Option<u64> {
        let c = self.query.vertices[vertex].0 as usize;
        self.tables[c].get(&iv.id).copied()
    }
}

impl TupleFilter for AttrFilter<'_> {
    fn admits(&self, tuple: &[Option<Interval>]) -> bool {
        for c in self.constraints {
            let (Some(x), Some(y)) = (&tuple[c.src], &tuple[c.dst]) else { continue };
            let (Some(a), Some(b)) = (self.attr(c.src, x), self.attr(c.dst, y)) else {
                return false; // missing attribute: reject conservatively
            };
            let ok = match c.predicate {
                AttrPredicate::Equal => a == b,
                AttrPredicate::NotEqual => a != b,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Executes a hybrid query: the exact top-k among tuples satisfying every
/// attribute constraint, ranked by the temporal score.
pub fn execute_hybrid(
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    tables: &AttributeTables,
    constraints: &[AttrConstraint],
    k: usize,
) -> Result<ExecutionReport, TemporalError> {
    engine.validate(dataset, query, k)?;
    if tables.len() != dataset.collections.len() {
        return Err(TemporalError::InvalidQuery(
            "one attribute table per collection is required".into(),
        ));
    }
    for c in constraints {
        if c.src >= query.n() || c.dst >= query.n() || c.src == c.dst {
            return Err(TemporalError::InvalidQuery(format!(
                "attribute constraint ({}, {}) is out of range",
                c.src, c.dst
            )));
        }
    }

    // Static pruning off (see the module docs): every combination is
    // bounded and kept, so UB ordering and early termination still apply.
    let plan = engine.plan_unchecked(dataset, query, k, false);
    let filter = AttrFilter { query, tables, constraints };
    let mut report = engine.execute_planned_impl(dataset, query, k, &plan, Some(&filter), None);
    report.query_name = format!("{}+{}attr", query.name(), constraints.len());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TkijConfig;
    use crate::naive::naive_topk_where;
    use tkij_datagen::uniform_collections;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    /// Attribute = interval id modulo `m` (deterministic, collection-wide).
    fn mod_tables(dataset: &PreparedDataset, m: u64) -> AttributeTables {
        dataset
            .collections
            .iter()
            .map(|c| c.intervals().iter().map(|iv| (iv.id, iv.id % m)).collect())
            .collect()
    }

    fn engine() -> Tkij {
        Tkij::new(TkijConfig::default().with_granules(5).with_reducers(3))
    }

    #[test]
    fn equal_attr_matches_filtered_naive() {
        let tk = engine();
        let dataset = tk.prepare(uniform_collections(3, 30, 321)).unwrap();
        let q = table1::q_om(PredicateParams::P1);
        let tables = mod_tables(&dataset, 3);
        let constraints = [AttrConstraint { src: 0, dst: 1, predicate: AttrPredicate::Equal }];
        let report = execute_hybrid(&tk, &dataset, &q, &tables, &constraints, 6).unwrap();
        let refs: Vec<_> = q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk_where(&q, &refs, 6, |t| t[0].id % 3 == t[1].id % 3);
        assert_eq!(report.results.len(), expected.len());
        for (g, e) in report.results.iter().zip(&expected) {
            assert!((g.score - e.score).abs() < 1e-9, "{g:?} vs {e:?}");
            // Returned tuples must satisfy the attribute constraint.
            assert_eq!(g.ids[0] % 3, g.ids[1] % 3);
        }
    }

    #[test]
    fn not_equal_attr_matches_filtered_naive() {
        let tk = engine();
        let dataset = tk.prepare(uniform_collections(3, 24, 654)).unwrap();
        let q = table1::q_bb(PredicateParams::P1);
        let tables = mod_tables(&dataset, 2);
        let constraints = [
            AttrConstraint { src: 0, dst: 1, predicate: AttrPredicate::NotEqual },
            AttrConstraint { src: 1, dst: 2, predicate: AttrPredicate::NotEqual },
        ];
        let report = execute_hybrid(&tk, &dataset, &q, &tables, &constraints, 5).unwrap();
        let refs: Vec<_> = q.vertices.iter().map(|c| &dataset.collections[c.0 as usize]).collect();
        let expected = naive_topk_where(&q, &refs, 5, |t| {
            t[0].id % 2 != t[1].id % 2 && t[1].id % 2 != t[2].id % 2
        });
        assert_eq!(report.results.len(), expected.len());
        for (g, e) in report.results.iter().zip(&expected) {
            assert!((g.score - e.score).abs() < 1e-9, "{g:?} vs {e:?}");
            assert_ne!(g.ids[0] % 2, g.ids[1] % 2);
            assert_ne!(g.ids[1] % 2, g.ids[2] % 2);
        }
    }

    #[test]
    fn no_constraints_degenerates_to_plain_rtj() {
        // Hybrid *is* the pipeline: with nothing to filter it runs the
        // unpruned plan through the same join, so results and every
        // counter equal the `without_pruning` engine's.
        let q = table1::q_sm(PredicateParams::P2);
        let config = TkijConfig::default().with_granules(5).with_reducers(3);
        let tk = Tkij::new(config.clone());
        let dataset = tk.prepare(uniform_collections(3, 20, 11)).unwrap();
        let tables = mod_tables(&dataset, 5);
        let hybrid = execute_hybrid(&tk, &dataset, &q, &tables, &[], 4).unwrap();
        let unpruned = Tkij::new(config.without_pruning()).execute(&dataset, &q, 4).unwrap();
        assert_eq!(hybrid.fingerprint(), unpruned.fingerprint());
    }

    #[test]
    fn spill_threshold_is_honoured_and_transparent() {
        let config = TkijConfig::default().with_granules(5).with_reducers(3);
        let in_mem = Tkij::new(config.clone());
        let spilled = Tkij::new(config.with_shuffle_spill_threshold_bytes(0));
        let dataset = in_mem.prepare(uniform_collections(3, 30, 321)).unwrap();
        let q = table1::q_om(PredicateParams::P1);
        let tables = mod_tables(&dataset, 3);
        let constraints = [AttrConstraint { src: 0, dst: 1, predicate: AttrPredicate::Equal }];
        let a = execute_hybrid(&in_mem, &dataset, &q, &tables, &constraints, 6).unwrap();
        let b = execute_hybrid(&spilled, &dataset, &q, &tables, &constraints, 6).unwrap();
        assert_eq!(a.shuffle_stats().records_spilled, 0, "in-memory spills nothing");
        assert!(b.shuffle_stats().records_spilled > 0, "threshold 0 serializes the shuffle");
        assert!(!a.results.is_empty());
        assert_eq!(a.fingerprint().results, b.fingerprint().results, "ids and score bits");
    }

    #[test]
    fn missing_collection_is_an_error_not_a_panic() {
        let tk = engine();
        let dataset = tk.prepare(uniform_collections(2, 10, 1)).unwrap();
        let tables = mod_tables(&dataset, 2);
        let q3 = table1::q_bb(PredicateParams::P1); // reads collections 0, 1 and 2
        let constraints = [AttrConstraint { src: 0, dst: 2, predicate: AttrPredicate::Equal }];
        let got = execute_hybrid(&tk, &dataset, &q3, &tables, &constraints, 3);
        assert!(matches!(got, Err(TemporalError::InvalidQuery(_))), "{got:?}");
    }

    #[test]
    fn validates_inputs() {
        let tk = engine();
        let dataset = tk.prepare(uniform_collections(2, 10, 1)).unwrap();
        let q = {
            use tkij_temporal::{
                aggregate::Aggregation, collection::CollectionId, query::QueryEdge,
            };
            Query::new(
                vec![CollectionId(0), CollectionId(1)],
                vec![QueryEdge {
                    src: 0,
                    dst: 1,
                    predicate: tkij_temporal::predicate::TemporalPredicate::before(
                        PredicateParams::P1,
                    ),
                }],
                Aggregation::NormalizedSum,
            )
            .unwrap()
        };
        let tables = mod_tables(&dataset, 2);
        let bad = [AttrConstraint { src: 0, dst: 0, predicate: AttrPredicate::Equal }];
        assert!(execute_hybrid(&tk, &dataset, &q, &tables, &bad, 3).is_err());
        assert!(execute_hybrid(&tk, &dataset, &q, &tables[..1].to_vec(), &[], 3).is_err());
        assert!(execute_hybrid(&tk, &dataset, &q, &tables, &[], 0).is_err());
    }

    #[test]
    fn missing_attributes_reject_conservatively() {
        let tk = engine();
        let dataset = tk.prepare(uniform_collections(2, 10, 77)).unwrap();
        let q = {
            use tkij_temporal::{
                aggregate::Aggregation, collection::CollectionId, query::QueryEdge,
            };
            Query::new(
                vec![CollectionId(0), CollectionId(1)],
                vec![QueryEdge {
                    src: 0,
                    dst: 1,
                    predicate: tkij_temporal::predicate::TemporalPredicate::before(
                        PredicateParams::P1,
                    ),
                }],
                Aggregation::NormalizedSum,
            )
            .unwrap()
        };
        // Empty tables: with a constraint, nothing qualifies.
        let tables: AttributeTables = vec![BTreeMap::new(), BTreeMap::new()];
        let constraints = [AttrConstraint { src: 0, dst: 1, predicate: AttrPredicate::Equal }];
        let report = execute_hybrid(&tk, &dataset, &q, &tables, &constraints, 3).unwrap();
        assert!(report.results.is_empty());
    }
}
