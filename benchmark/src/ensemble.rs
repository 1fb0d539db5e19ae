//! Set-up: everything before the first timed query — data generation,
//! `Tkij::prepare`, (serving) `Tkij::serve`, and one untimed warm-up
//! execution of each query shape on each ensemble member. The warm-up
//! answers become the reference every later answer must equal bit for
//! bit.

use crate::check::{verify_against_oracle, verify_results, Fingerprint, Tally};
use crate::workloads::{Workload, TWIN_K};
use std::time::{Duration, Instant};
use tkij_core::{PreparedDataset, Tkij, TkijServer};
use tkij_temporal::query::Query;

/// Where a member's prepared dataset lives.
pub enum Holder {
    /// Batch workloads own the dataset.
    Solo(Box<PreparedDataset>),
    /// The serving workload hands it to a server.
    Served(TkijServer),
}

/// One ensemble member: a prepared dataset, the workload's query shapes
/// over it, and each shape's reference fingerprint.
pub struct Member {
    /// The dataset (or the server owning it).
    pub holder: Holder,
    /// Query shapes with display names.
    pub queries: Vec<(&'static str, Query)>,
    /// Reference fingerprint per query shape, from the warm-up.
    pub reference: Vec<Fingerprint>,
    /// Wall of `Tkij::prepare` (the statistics job).
    pub prepare: Duration,
}

impl Member {
    /// The member's prepared dataset.
    pub fn dataset(&self) -> &PreparedDataset {
        match &self.holder {
            Holder::Solo(dataset) => dataset,
            Holder::Served(server) => server.dataset(),
        }
    }

    /// The member's server (serving workload only).
    pub fn server(&self) -> &TkijServer {
        match &self.holder {
            Holder::Served(server) => server,
            Holder::Solo(_) => panic!("batch workloads have no server"),
        }
    }
}

/// A workload's ensemble, set up and warm.
pub struct Ensemble {
    /// The engine every member was prepared with.
    pub engine: Tkij,
    /// The members, in generation order.
    pub members: Vec<Member>,
}

impl Ensemble {
    /// `(member, query)` index pairs in round order.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.members
            .iter()
            .enumerate()
            .flat_map(|(m, member)| (0..member.queries.len()).map(move |q| (m, q)))
            .collect()
    }
}

/// Sets the workload up once; returns the ensemble and the set-up wall.
/// Warm-up answers are verified (complete, ordered, genuine) after the
/// clock stops.
pub fn set_up(w: &Workload, seed: u64, tally: &mut Tally) -> (Ensemble, Duration) {
    let started = Instant::now();
    let engine = w.engine();
    let mut members = Vec::with_capacity(w.datasets);
    let mut warmups = Vec::with_capacity(w.datasets);
    for m in 0..w.datasets {
        let collections = w.collections(seed, m);
        let prepare_started = Instant::now();
        let dataset = engine.prepare(collections).expect("generated collections are valid");
        let prepare = prepare_started.elapsed();
        let queries = w.queries(dataset.collections[0].avg_length());
        let (holder, reports) = if w.served() {
            let server = engine.clone().serve(dataset);
            let reports: Vec<_> =
                queries.iter().map(|(_, q)| server.query(q, w.k).expect("valid query")).collect();
            (Holder::Served(server), reports)
        } else {
            let reports: Vec<_> = queries
                .iter()
                .map(|(_, q)| engine.execute(&dataset, q, w.k).expect("valid query"))
                .collect();
            (Holder::Solo(Box::new(dataset)), reports)
        };
        let reference = reports.iter().map(Fingerprint::of).collect();
        warmups.push(reports);
        members.push(Member { holder, queries, reference, prepare });
    }
    let elapsed = started.elapsed();
    for (member, reports) in members.iter().zip(&warmups) {
        for ((name, query), report) in member.queries.iter().zip(reports) {
            tally.record(
                format_args!("{} warm-up {name}", w.name),
                verify_results(query, member.dataset(), &report.results, w.k),
            );
        }
    }
    (Ensemble { engine, members }, elapsed)
}

/// Checks the workload's scaled-down twin against the naive oracle:
/// same generator, query shapes and engine settings, small enough for
/// the cubic reference.
pub fn check_twin(w: &Workload, seed: u64, tally: &mut Tally) {
    let engine = w.engine();
    let dataset = engine.prepare(w.twin_collections(seed)).expect("valid twin collections");
    for (name, query) in w.queries(dataset.collections[0].avg_length()) {
        let outcome = engine
            .execute(&dataset, &query, TWIN_K)
            .map_err(|e| e.to_string())
            .and_then(|r| verify_against_oracle(&query, &dataset, &r.results, TWIN_K));
        tally.record(format_args!("{} twin {name}", w.name), outcome);
    }
}

/// Serving only: member 0's served warm-up answers must equal a solo
/// `Tkij::execute` of the same shapes.
pub fn check_served_equals_solo(w: &Workload, ensemble: &Ensemble, tally: &mut Tally) {
    let member = &ensemble.members[0];
    for ((name, query), reference) in member.queries.iter().zip(&member.reference) {
        let outcome = ensemble
            .engine
            .execute(member.dataset(), query, w.k)
            .map_err(|e| e.to_string())
            .and_then(|solo| crate::check::same_fingerprint(&Fingerprint::of(&solo), reference));
        tally.record(format_args!("{} solo {name}", w.name), outcome);
    }
}
