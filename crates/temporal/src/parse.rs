//! A small textual syntax for RTJ queries.
//!
//! Queries are written as comma-separated predicate applications over
//! 1-based collection indexes, mirroring the paper's notation:
//!
//! ```text
//! starts(1, 2), finishedBy(2, 3), meets(1, 3)
//! before(1,2), before(1,3)            # the star query Qb*
//! justBefore(1,2), justBefore(2,3)
//! ```
//!
//! Predicate names are the long forms of [`PredicateKind`] (case
//! insensitive) or the paper's short names (`b`, `m`, `o`, `s`, `f`, `c`,
//! `e`, `jB`, `sM`, `sp`, and the inverses `a`, `mB`, `oB`, `d`, `sB`,
//! `fi`). The scored parameterization and the dataset-dependent `avg`
//! constant are supplied by the caller; aggregation defaults to the
//! paper's normalized sum.

use crate::aggregate::Aggregation;
use crate::collection::CollectionId;
use crate::error::TemporalError;
use crate::params::PredicateParams;
use crate::predicate::{PredicateKind, TemporalPredicate};
use crate::query::{Query, QueryEdge};

/// Resolves a predicate name: a short name (case-sensitive: `sB` vs
/// `sp`) or a [`PredicateKind::long_name`] (case-insensitive).
pub fn predicate_kind(name: &str) -> Option<PredicateKind> {
    let kinds = PredicateKind::all();
    kinds
        .into_iter()
        .find(|k| k.short_name() == name)
        .or_else(|| kinds.into_iter().find(|k| k.long_name().eq_ignore_ascii_case(name)))
}

/// Parses the textual query syntax into a validated [`Query`].
///
/// `params` applies to every predicate; `avg` feeds `justBefore` /
/// `shiftMeets` (pass the collection's average length, or 0 when unused).
pub fn parse_query(text: &str, params: PredicateParams, avg: i64) -> Result<Query, TemporalError> {
    let mut edges: Vec<QueryEdge> = Vec::new();
    // The largest 0-based vertex named so far, and its term's line.
    let mut widest = (0usize, 1usize);
    for (i, raw) in split_terms(text).into_iter().enumerate() {
        let term = raw.trim();
        if term.is_empty() {
            continue;
        }
        let err = |msg: String| TemporalError::Parse { line: i + 1, message: msg };
        let open =
            term.find('(').ok_or_else(|| err(format!("expected `pred(i, j)`, got `{term}`")))?;
        if !term.ends_with(')') {
            return Err(err(format!("missing `)` in `{term}`")));
        }
        let name = term[..open].trim();
        let kind =
            predicate_kind(name).ok_or_else(|| err(format!("unknown predicate `{name}`")))?;
        let args: Vec<&str> = term[open + 1..term.len() - 1].split(',').collect();
        if args.len() != 2 {
            return Err(err(format!("`{name}` takes exactly 2 vertices")));
        }
        let parse_vertex = |s: &str| -> Result<usize, TemporalError> {
            let v: usize =
                s.trim().parse().map_err(|e| err(format!("bad vertex `{}`: {e}", s.trim())))?;
            if v == 0 {
                return Err(err("vertices are 1-based".into()));
            }
            Ok(v - 1)
        };
        let src = parse_vertex(args[0])?;
        let dst = parse_vertex(args[1])?;
        if src.max(dst) > widest.0 {
            widest = (src.max(dst), i + 1);
        }
        edges.push(QueryEdge {
            src,
            dst,
            predicate: TemporalPredicate::from_kind(kind, params, avg),
        });
    }
    if edges.is_empty() {
        return Err(TemporalError::Parse { line: 1, message: "no predicates given".into() });
    }
    // A connected query over E predicates has at most E + 1 vertices:
    // reject a larger vertex before building one id per number up to it.
    let (max_vertex, line) = widest;
    let err = |message: String| TemporalError::Parse { line, message };
    if max_vertex > edges.len() {
        return Err(err(format!(
            "vertex {} is above {}, the most vertices a connected query over {} predicate(s) has",
            max_vertex + 1,
            edges.len() + 1,
            edges.len()
        )));
    }
    let vertices = (0..=max_vertex)
        .map(|v| u32::try_from(v).map(CollectionId))
        .collect::<Result<_, _>>()
        .map_err(|_| err(format!("vertex {} does not fit a collection id", max_vertex + 1)))?;
    Query::new(vertices, edges, Aggregation::NormalizedSum)
}

/// Splits on commas that are *outside* parentheses.
fn split_terms(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in text.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::table1;

    #[test]
    fn parses_paper_queries() {
        let p = PredicateParams::P1;
        let q = parse_query("starts(1,2), finishedBy(2,3), meets(1,3)", p, 0).unwrap();
        assert_eq!(q, table1::q_sfm(p));
        let q = parse_query("before(1,2), before(1,3), before(1,4)", p, 0).unwrap();
        assert_eq!(q, table1::q_b_star(4, p));
        let q = parse_query("justBefore(1,2), justBefore(2,3)", p, 54).unwrap();
        assert_eq!(q, table1::q_jbjb(p, 54));
    }

    #[test]
    fn short_names_work() {
        let p = PredicateParams::P2;
        let q = parse_query("o(1,2), m(2,3)", p, 0).unwrap();
        assert_eq!(q, table1::q_om(p));
        let q = parse_query("sB(1,2)", p, 0).unwrap();
        assert_eq!(q.edges[0].predicate.kind, PredicateKind::StartedBy);
        let q = parse_query("sp(1,2)", p, 0).unwrap();
        assert_eq!(q.edges[0].predicate.kind, PredicateKind::Sparks);
    }

    #[test]
    fn long_names_case_insensitive() {
        let p = PredicateParams::P1;
        let q = parse_query("OVERLAPS(1,2), MetBy(2,3)", p, 0).unwrap();
        assert_eq!(q.edges[0].predicate.kind, PredicateKind::Overlaps);
        assert_eq!(q.edges[1].predicate.kind, PredicateKind::MetBy);
    }

    #[test]
    fn whitespace_tolerant() {
        let p = PredicateParams::P1;
        let q = parse_query("  meets( 1 ,  2 ) ,  before(2, 3)  ", p, 0).unwrap();
        assert_eq!(q.n(), 3);
    }

    #[test]
    fn error_messages_are_actionable() {
        let p = PredicateParams::P1;
        for (text, needle) in [
            ("", "no predicates"),
            ("frobnicates(1,2)", "unknown predicate"),
            ("meets(1)", "exactly 2"),
            ("meets(0,1)", "1-based"),
            ("meets(1,2", "missing `)`"),
            ("meets(a,b)", "bad vertex"),
            ("meets", "expected `pred(i, j)`"),
            ("meets(1,5000000)", "vertex 5000000"),
            ("meets(1,4294967297)", "vertex 4294967297"),
        ] {
            let e = parse_query(text, p, 0).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{text}` should mention `{needle}`, got `{e}`"
            );
        }
    }

    #[test]
    fn structural_validation_still_applies() {
        let p = PredicateParams::P1;
        // Self loops, anti-parallel edges and disconnected graphs are
        // caught by Query::new after parsing.
        assert!(parse_query("meets(1,1)", p, 0).is_err());
        assert!(parse_query("meets(1,2), before(2,1)", p, 0).is_err());
        assert!(parse_query("meets(1,2), meets(3,4)", p, 0).is_err(), "two components");
    }
}
