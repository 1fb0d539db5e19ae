//! The two passes of a run: the **timed pass** (tracing off) that
//! yields the end-to-end metrics, and the **traced pass** that replays
//! the same inputs through the pipeline recomposed from the engine's
//! public phase functions, with a span around each call, and yields the
//! per-layer metrics.

use crate::check::{same_fingerprint, verify_results, Fingerprint, Tally};
use crate::ensemble::{Ensemble, Member};
use crate::metrics::Report;
use crate::replay;
use crate::stats::{mean, mean_of_medians, median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{Workload, FRESH_EVERY, SERVE_CLIENTS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tkij_core::{
    distribute, run_join_phase_with, run_merge_phase, run_topbuckets, Assignment, LocalJoinStats,
    PreparedDataset, ReducerOutput, ShuffleMode, Tkij, TopBucketsStats,
};
use tkij_mapreduce::JobMetrics;
use tkij_temporal::query::Query;
use tkij_temporal::result::MatchTuple;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies of a timed pass, and its wall.
pub struct Timed {
    /// Per-query latency samples, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Wall of the whole pass (all clients), seconds.
    pub wall_s: f64,
}

impl Timed {
    /// Fills the latency and throughput metrics.
    pub fn report(&self, report: &mut Report) {
        let s = sorted(self.latencies_ms.clone());
        report.set("query_p50_ms", percentile(&s, 0.5).expect("a timed pass has samples"));
        report.set("query_p90_ms", percentile(&s, 0.9).expect("a timed pass has samples"));
        report.set("queries_per_s", s.len() as f64 / self.wall_s);
    }
}

/// Batch timed pass: one caller cycles a cold `Tkij::execute` over the
/// ensemble for `seconds` (whole rounds), checking each answer against
/// its reference.
pub fn timed_batch(w: &Workload, ensemble: &Ensemble, seconds: f64, tally: &mut Tally) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let mut latencies_ms = Vec::new();
    let started = Instant::now();
    loop {
        for member in &ensemble.members {
            for ((name, query), reference) in member.queries.iter().zip(&member.reference) {
                let query_started = Instant::now();
                let report = ensemble.engine.execute(member.dataset(), query, w.k);
                latencies_ms.push(ms(query_started.elapsed()));
                let outcome = report
                    .map_err(|e| e.to_string())
                    .and_then(|r| same_fingerprint(&Fingerprint::of(&r), reference));
                tally.record(format_args!("{} {name}", w.name), outcome);
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    Timed { latencies_ms, wall_s: started.elapsed().as_secs_f64() }
}

/// One request of a serving client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Ensemble member (server) asked.
    pub member: usize,
    /// Query shape asked for.
    pub shape: usize,
    /// Result budget: the workload's `k` for a base shape, a `k` no
    /// request to this server used before for a fresh one.
    pub k: usize,
    /// Whether the shape is fresh (a plan-cache miss by construction).
    pub fresh: bool,
}

/// Request `i` of client `client`: the shape advances with every
/// request (clients start four shapes apart), the server after each
/// sweep over the shapes, and every [`FRESH_EVERY`]-th request is fresh.
pub fn request(client: usize, i: usize, members: usize, shapes: usize, base_k: usize) -> Request {
    let fresh = i % FRESH_EVERY == FRESH_EVERY - 1;
    // A client asks each (server, shape) pair once per sweep over all of
    // them, so (sweep, client) names a k no other request to that pair
    // carries, and the band of k values stays narrow.
    let sweep = i / (shapes * members);
    Request {
        member: (i / shapes) % members,
        shape: (i + client * 4) % shapes,
        k: if fresh { base_k + 1 + sweep * SERVE_CLIENTS + client } else { base_k },
        fresh,
    }
}

/// One served query as a client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// When the request was sent.
    pub sent: Instant,
    /// When the reply arrived.
    pub done: Instant,
    /// Whether it asked for a fresh shape.
    pub fresh: bool,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }
}

/// Serving timed pass: `clients` closed-loop clients (each sends its
/// next request when the previous reply arrives) query the ensemble's
/// servers for `seconds`. Base shapes must equal their reference bit
/// for bit; fresh shapes must be complete, ordered and genuine, and
/// agree with the base shape on the scores both contain.
pub fn serve(
    w: &Workload,
    ensemble: &Ensemble,
    clients: usize,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<Served>, f64) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let per_client: Vec<(Vec<Served>, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let handles: Vec<_> =
                        ensemble.members.iter().map(|m| m.server().handle()).collect();
                    let shapes = ensemble.members[0].queries.len();
                    let mut served = Vec::new();
                    let mut tally = Tally::default();
                    for i in 0.. {
                        if started.elapsed() >= budget {
                            break;
                        }
                        let rq = request(client, i, ensemble.members.len(), shapes, w.k);
                        let member = &ensemble.members[rq.member];
                        let (name, query) = &member.queries[rq.shape];
                        let sent = Instant::now();
                        let reply = handles[rq.member].query(query, rq.k);
                        served.push(Served { sent, done: Instant::now(), fresh: rq.fresh });
                        let outcome = reply.map_err(|e| e.to_string()).and_then(|r| {
                            check_served(member, rq, &r.results, &Fingerprint::of(&r))
                        });
                        tally.record(format_args!("{} {name} k={}", w.name, rq.k), outcome);
                    }
                    (served, tally)
                })
            })
            .collect();
        workers.into_iter().map(|worker| worker.join().expect("client thread")).collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for (served, client_tally) in per_client {
        all.extend(served);
        tally.absorb(client_tally);
    }
    (all, wall_s)
}

fn check_served(
    member: &Member,
    rq: Request,
    results: &[MatchTuple],
    fingerprint: &Fingerprint,
) -> Result<(), String> {
    let reference = &member.reference[rq.shape];
    if !rq.fresh {
        return same_fingerprint(fingerprint, reference);
    }
    verify_results(&member.queries[rq.shape].1, member.dataset(), results, rq.k)?;
    // The exact top-k score sequence is unique, so a larger k extends
    // the base shape's scores.
    let shared = reference.results.len().min(results.len());
    let agree = results[..shared]
        .iter()
        .zip(&reference.results[..shared])
        .all(|(t, (_, bits))| t.score.to_bits() == *bits);
    if agree {
        Ok(())
    } else {
        Err("a fresh shape's scores disagree with the base shape's".into())
    }
}

/// The serving timed pass as end-to-end samples.
pub fn timed_serve(w: &Workload, ensemble: &Ensemble, seconds: f64, tally: &mut Tally) -> Timed {
    let (served, wall_s) = serve(w, ensemble, SERVE_CLIENTS, seconds, tally);
    Timed { latencies_ms: served.iter().map(Served::latency_ms).collect(), wall_s }
}

/// Repetition samples per time metric and `(member, query)` pair.
struct Samples {
    pairs: usize,
    by_metric: BTreeMap<&'static str, Vec<Vec<f64>>>,
}

impl Samples {
    fn new(pairs: usize) -> Self {
        Samples { pairs, by_metric: BTreeMap::new() }
    }

    fn add(&mut self, metric: &'static str, pair: usize, value: f64) {
        let pairs = self.pairs;
        self.by_metric.entry(metric).or_insert_with(|| vec![Vec::new(); pairs])[pair].push(value);
    }

    /// The ensemble mean of the per-pair medians (0 when never sampled).
    fn aggregate(&self, metric: &str) -> f64 {
        self.by_metric.get(metric).map_or(0.0, |per_pair| mean_of_medians(per_pair))
    }
}

/// One query run through the pipeline recomposed from the public phase
/// functions: what each phase returned and how long each call took.
struct Recomposed {
    topbuckets: TopBucketsStats,
    assignment: Assignment,
    outputs: Vec<ReducerOutput>,
    join: JobMetrics,
    merge: JobMetrics,
    results: Vec<MatchTuple>,
    topbuckets_wall: Duration,
    distribute_wall: Duration,
    joinphase_wall: Duration,
    merge_wall: Duration,
    query_wall: Duration,
}

/// Runs `run_topbuckets` → `distribute` → `run_join_phase_with` →
/// `run_merge_phase` — exactly what `Tkij::execute` composes — with a
/// span around each call and the counts read at each boundary.
fn recompose(
    w: &Workload,
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    tracer: &mut Tracer,
    query_id: u32,
) -> Recomposed {
    let config = &engine.config;
    let cluster = engine.job_cluster();
    let root = tracer.begin("query", None, query_id);
    let span = tracer.begin("topbuckets", Some(root), query_id);
    let (selected, topbuckets) = run_topbuckets(
        query,
        &dataset.matrices,
        w.k as u64,
        config.strategy,
        &config.solver,
        config.topbuckets_workers,
    );
    let topbuckets_wall = tracer.end(
        span,
        vec![
            ("candidates", topbuckets.candidates as u64),
            ("selected", topbuckets.selected as u64),
            ("solver_calls", topbuckets.solver_calls as u64),
        ],
    );
    let span = tracer.begin("distribute", Some(root), query_id);
    let assignment =
        distribute(&selected, config.distribution, config.reducers, query, &dataset.matrices);
    let distribute_wall =
        tracer.end(span, vec![("assignments_scored", assignment.assignments_scored)]);
    let join_span = tracer.begin("joinphase", Some(root), query_id);
    let (outputs, join) = run_join_phase_with(
        dataset,
        query,
        &selected,
        &assignment,
        w.k,
        &cluster,
        config.local_backend,
        config.sweep_scan,
        None,
        engine.intra_join(),
    );
    let joinphase_wall = tracer.end(
        join_span,
        vec![
            ("shuffle_records", join.total_shuffle_records()),
            ("spill_segments", join.shuffle.spill_segments),
            ("items_scanned", outputs.iter().map(|o| o.stats.items_scanned).sum()),
        ],
    );
    let span = tracer.begin("merge", Some(root), query_id);
    let (results, merge) = run_merge_phase(&outputs, w.k, &cluster);
    let merge_wall = tracer.end(span, vec![("shuffle_records", merge.total_shuffle_records())]);
    let query_wall = tracer.end(root, Vec::new());
    tracer.job_tasks(
        join_span,
        join.wall,
        &join.map_durations,
        &join.reduce_durations,
        w.worker_threads.max(1),
    );
    Recomposed {
        topbuckets,
        assignment,
        outputs,
        join,
        merge,
        results,
        topbuckets_wall,
        distribute_wall,
        joinphase_wall,
        merge_wall,
        query_wall,
    }
}

/// The exact counts of one `(member, query)` pair's execution.
#[derive(Default, Clone, Copy)]
struct Counts {
    candidates: f64,
    selected: f64,
    pruned_local: f64,
    solver_calls: f64,
    assignments_scored: f64,
    cap_fallbacks: f64,
    replication_factor: f64,
    result_imbalance: f64,
    estimated_shuffle_records: f64,
    shuffle_records: f64,
    shuffle_bytes: f64,
    spill_segments: f64,
    spill_bytes: f64,
    index_probes: f64,
    items_scanned: f64,
    candidates_visited: f64,
    tuples_scored: f64,
    combos_processed: f64,
    combos_assigned: f64,
}

impl Counts {
    fn of(r: &Recomposed) -> Counts {
        let total = |f: fn(&LocalJoinStats) -> u64| {
            r.outputs.iter().map(|o| f(&o.stats)).sum::<u64>() as f64
        };
        Counts {
            candidates: r.topbuckets.candidates as f64,
            selected: r.topbuckets.selected as f64,
            pruned_local: r.topbuckets.pruned_local as f64,
            solver_calls: r.topbuckets.solver_calls as f64,
            assignments_scored: r.assignment.assignments_scored as f64,
            cap_fallbacks: r.assignment.cap_fallbacks as f64,
            replication_factor: r.assignment.replication_factor,
            result_imbalance: r.assignment.result_imbalance(),
            estimated_shuffle_records: r.assignment.estimated_shuffle_records as f64,
            shuffle_records: r.join.total_shuffle_records() as f64,
            shuffle_bytes: r.join.total_shuffle_bytes() as f64,
            spill_segments: r.join.shuffle.spill_segments as f64,
            spill_bytes: r.join.shuffle.spill_bytes as f64,
            index_probes: total(|s| s.index_probes),
            items_scanned: total(|s| s.items_scanned),
            candidates_visited: total(|s| s.candidates_visited),
            tuples_scored: total(|s| s.tuples_scored),
            combos_processed: total(|s| s.combos_processed as u64),
            combos_assigned: total(|s| s.combos_assigned as u64),
        }
    }
}

/// The three layer replays on one recomposed query's inputs.
fn replay_layers(
    w: &Workload,
    engine: &Tkij,
    dataset: &PreparedDataset,
    query: &Query,
    r: &Recomposed,
    mut add: impl FnMut(&'static str, f64),
    tally: &mut Tally,
) {
    add(
        "solver.ns_per_call",
        replay::solver_ns_per_call(engine, dataset, query, r.topbuckets.solver_calls),
    );
    let builds: u64 = r.outputs.iter().map(|o| o.stats.buckets_sweep).sum();
    let shipped = r.join.total_shuffle_records();
    let build = replay::index_build(engine, dataset, query, &r.assignment, builds, shipped, 3);
    add("index.build_ms", ms(build));
    if w.shuffle != ShuffleMode::InMemory {
        match replay::transport(engine, dataset, query, &r.assignment, &r.join) {
            Ok(times) => {
                add("mapreduce.accept_ms", ms(times.accept));
                add("mapreduce.gather_ms", ms(times.gather));
            }
            Err(e) => tally.record(format_args!("{} transport replay", w.name), Err(e.to_string())),
        }
    }
}

/// Traced pass. For about `seconds`, whole rounds over the ensemble;
/// each round runs every `(dataset, query)` pair twice back to back: an
/// untraced `Tkij::execute` (the tracing-overhead reference, close in
/// time to what it is compared with) and the traced recomposition,
/// whose answer must equal the reference bit for bit. The first round
/// also runs the layer replays.
pub fn traced(
    w: &Workload,
    ensemble: &Ensemble,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) {
    let engine = &ensemble.engine;
    let pairs = ensemble.pairs();
    let mut samples = Samples::new(pairs.len());
    let mut counts = vec![Counts::default(); pairs.len()];
    let budget = Duration::from_secs_f64(seconds * 0.8);
    let mut spent = Duration::ZERO;
    let mut query_id = 0u32;
    let mut first_round = true;
    while spent < budget {
        for (p, &(m, q)) in pairs.iter().enumerate() {
            let member = &ensemble.members[m];
            let (name, query) = &member.queries[q];
            let dataset = member.dataset();

            let untraced_started = Instant::now();
            let untraced = engine.execute(dataset, query, w.k);
            let untraced_wall = untraced_started.elapsed();
            let outcome = untraced
                .map_err(|e| e.to_string())
                .and_then(|r| same_fingerprint(&Fingerprint::of(&r), &member.reference[q]));
            tally.record(format_args!("{} untraced {name}", w.name), outcome);

            let r = recompose(w, engine, dataset, query, tracer, query_id);
            query_id += 1;
            spent += untraced_wall + r.query_wall;
            let fingerprint = Fingerprint::from_phases(
                &r.topbuckets,
                &r.assignment,
                &r.outputs,
                &r.join,
                &r.merge,
                &r.results,
            );
            tally.record(
                format_args!("{} traced {name}", w.name),
                same_fingerprint(&fingerprint, &member.reference[q]),
            );

            let map_busy: Duration = r.join.map_durations.iter().sum();
            let reduce_busy: Duration = r.join.reduce_durations.iter().sum();
            let phases = r.topbuckets_wall + r.distribute_wall + r.joinphase_wall + r.merge_wall;
            let mut add = |metric, value| samples.add(metric, p, value);
            add("untraced.ms", ms(untraced_wall));
            add("query.ms", ms(r.query_wall));
            add("topbuckets.ms", ms(r.topbuckets_wall));
            add("distribute.ms", ms(r.distribute_wall));
            add("joinphase.ms", ms(r.joinphase_wall));
            add("joinphase.input_assembly_ms", ms(r.joinphase_wall.saturating_sub(r.join.wall)));
            add("merge.ms", ms(r.merge_wall));
            add("mapreduce.wall_ms", ms(r.join.wall));
            add("mapreduce.map_busy_ms", ms(map_busy));
            add("mapreduce.reduce_busy_ms", ms(reduce_busy));
            add("mapreduce.reduce_max_ms", ms(r.join.max_reduce()));
            add("mapreduce.reduce_imbalance", r.join.imbalance());
            add("engine.coverage", phases.as_secs_f64() / r.query_wall.as_secs_f64());
            if first_round {
                counts[p] = Counts::of(&r);
                replay_layers(w, engine, dataset, query, &r, add, tally);
            }
        }
        first_round = false;
    }
    fill_layer_report(w, ensemble, &samples, &counts, report);
}

/// Aggregates the traced pass: times as the ensemble mean of per-pair
/// medians, counts as the ensemble mean of the (exact, repeatable)
/// per-pair counts.
fn fill_layer_report(
    w: &Workload,
    ensemble: &Ensemble,
    samples: &Samples,
    counts: &[Counts],
    report: &mut Report,
) {
    let count =
        |f: fn(&Counts) -> f64| mean(&counts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for metric in [
        "topbuckets.ms",
        "distribute.ms",
        "joinphase.ms",
        "joinphase.input_assembly_ms",
        "merge.ms",
        "mapreduce.map_busy_ms",
        "mapreduce.reduce_busy_ms",
        "mapreduce.reduce_max_ms",
        "mapreduce.reduce_imbalance",
        "mapreduce.accept_ms",
        "mapreduce.gather_ms",
        "solver.ns_per_call",
        "index.build_ms",
        "engine.coverage",
    ] {
        report.set(metric, samples.aggregate(metric));
    }
    let prepare: Vec<f64> = ensemble.members.iter().map(|m| ms(m.prepare)).collect();
    report.set("stats.prepare_ms", mean(&prepare).expect("an ensemble has members"));
    let per_member = |f: fn(&Member) -> f64| {
        mean(&ensemble.members.iter().map(f).collect::<Vec<_>>()).expect("an ensemble has members")
    };
    report.set(
        "stats.nonempty_buckets",
        per_member(|m| m.dataset().matrices.iter().map(|x| x.nonempty_len()).sum::<usize>() as f64),
    );
    report.set(
        "stats.shuffle_bytes",
        per_member(|m| m.dataset().stats_metrics.total_shuffle_bytes() as f64),
    );

    let topbuckets_ms = samples.aggregate("topbuckets.ms");
    let candidates = count(|c| c.candidates);
    report.set("topbuckets.candidates", candidates);
    report.set("topbuckets.selected", count(|c| c.selected));
    report.set("topbuckets.pruned_local", count(|c| c.pruned_local));
    report.set("topbuckets.solver_calls", count(|c| c.solver_calls));
    report.set("topbuckets.ns_per_candidate", ratio(topbuckets_ms * 1e6, candidates));
    report.set("topbuckets.selected_ratio", ratio(count(|c| c.selected), candidates));
    report.set(
        "solver.est_share",
        ratio(
            count(|c| c.solver_calls) * samples.aggregate("solver.ns_per_call"),
            topbuckets_ms * 1e6,
        ),
    );
    report.set("distribute.assignments_scored", count(|c| c.assignments_scored));
    report.set("distribute.cap_fallbacks", count(|c| c.cap_fallbacks));
    report.set("distribute.replication_factor", count(|c| c.replication_factor));
    report.set("distribute.result_imbalance", count(|c| c.result_imbalance));
    let shuffle_records = count(|c| c.shuffle_records);
    report.set(
        "distribute.shuffle_estimate_ratio",
        ratio(count(|c| c.estimated_shuffle_records), shuffle_records),
    );

    let wall = samples.aggregate("mapreduce.wall_ms");
    let map_busy = samples.aggregate("mapreduce.map_busy_ms");
    let reduce_busy = samples.aggregate("mapreduce.reduce_busy_ms");
    let shuffle_bytes = count(|c| c.shuffle_bytes);
    if w.worker_threads <= 1 {
        // Tasks run one after another, so what the job's wall holds
        // beyond them is the shuffle's gather.
        let gather = (wall - map_busy - reduce_busy).max(0.0);
        report.set("mapreduce.shuffle_gather_ms", gather);
        report.set(
            "mapreduce.shuffle_mb_per_s",
            ratio(shuffle_bytes / 1e6, (map_busy + gather) / 1e3),
        );
    } else {
        report.set(
            "mapreduce.parallel_efficiency",
            ratio(map_busy + reduce_busy, w.worker_threads as f64 * wall),
        );
    }
    report.set("mapreduce.shuffle_records", shuffle_records);
    report.set("mapreduce.shuffle_bytes", shuffle_bytes);
    report.set("mapreduce.spill_segments", count(|c| c.spill_segments));
    report.set("mapreduce.spill_bytes", count(|c| c.spill_bytes));
    report.set("mapreduce.spill_write_amp", ratio(count(|c| c.spill_bytes), shuffle_bytes));

    let items_scanned = count(|c| c.items_scanned);
    report.set(
        "index.ns_per_item_scanned",
        ratio((reduce_busy - samples.aggregate("index.build_ms")).max(0.0) * 1e6, items_scanned),
    );
    report.set("localjoin.index_probes", count(|c| c.index_probes));
    report.set("localjoin.items_scanned", items_scanned);
    report.set("localjoin.candidates_visited", count(|c| c.candidates_visited));
    report.set("localjoin.tuples_scored", count(|c| c.tuples_scored));
    report.set("localjoin.scan_efficiency", ratio(count(|c| c.candidates_visited), items_scanned));
    report.set(
        "localjoin.combos_processed_ratio",
        ratio(count(|c| c.combos_processed), count(|c| c.combos_assigned)),
    );
    report.set(
        "trace.overhead_ratio",
        ratio(samples.aggregate("query.ms"), samples.aggregate("untraced.ms")) - 1.0,
    );
}

/// Serving layer metrics, from a two-client segment, a one-client
/// segment over the same request stream on fresh servers, and the
/// servers' own counters. Each served query becomes a `serving.query`
/// span tagged with its plan-cache class.
pub fn serving_layer(
    w: &Workload,
    concurrent: &Ensemble,
    solo: &Ensemble,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) {
    // Read before the segment: fresh shapes may pull further buckets in.
    let pools: Vec<f64> =
        concurrent.members.iter().map(|m| m.server().index_pool_len() as f64).collect();
    report.set("serving.index_pool_len", mean(&pools).expect("an ensemble has members"));
    let stats_of = |e: &Ensemble| e.members.iter().map(|m| m.server().stats()).collect::<Vec<_>>();
    let warm = stats_of(concurrent);
    let (served, _) = serve(w, concurrent, SERVE_CLIENTS, seconds * 0.5, tally);
    for (i, s) in served.iter().enumerate() {
        let class = if s.fresh { "serving.query.miss" } else { "serving.query.hit" };
        tracer.observed(class, u32::MAX - i as u32, s.sent, s.done);
    }
    let class_p50 = |fresh: bool| {
        let class: Vec<f64> =
            served.iter().filter(|s| s.fresh == fresh).map(Served::latency_ms).collect();
        median(&class).unwrap_or(0.0)
    };
    let all = sorted(served.iter().map(Served::latency_ms).collect());
    let p50 = percentile(&all, 0.5).unwrap_or(0.0);
    report.set("serving.hit_p50_ms", class_p50(false));
    report.set("serving.miss_p50_ms", class_p50(true));
    report.set("serving.p99_ms", percentile(&all, 0.99).unwrap_or(0.0));

    // The servers' own counters over the segment (warm-up excluded).
    let stats = stats_of(concurrent);
    let grown = |f: fn(&tkij_core::ServingStats) -> u64| {
        stats.iter().zip(&warm).map(|(now, then)| f(now) - f(then)).sum::<u64>() as f64
    };
    report.set(
        "serving.plan_cache_hit_ratio",
        grown(|s| s.plan_cache_hits) / grown(|s| s.queries).max(1.0),
    );
    report.set(
        "serving.plan_cache_evictions",
        grown(|s| s.plan_cache_evictions) / grown(|s| s.queries).max(1.0),
    );

    let (served_solo, _) = serve(w, solo, 1, seconds * 0.3, tally);
    let solo_all = sorted(served_solo.iter().map(Served::latency_ms).collect());
    let solo_p50 = percentile(&solo_all, 0.5).unwrap_or(0.0);
    report.set("serving.solo_p50_ms", solo_p50);
    report.set("serving.concurrency_slowdown", if solo_p50 > 0.0 { p50 / solo_p50 } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_rotate_servers_and_shapes() {
        let (members, shapes, k) = (5, 9, 100);
        let stream: Vec<_> = (0..members * shapes * FRESH_EVERY)
            .map(|i| request(0, i, members, shapes, k))
            .collect();
        // Every fourth request is fresh.
        assert_eq!(stream.iter().filter(|r| r.fresh).count() * FRESH_EVERY, stream.len());
        // Every (server, shape) pair is asked, base and fresh.
        for fresh in [false, true] {
            let mut seen: Vec<_> =
                stream.iter().filter(|r| r.fresh == fresh).map(|r| (r.member, r.shape)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), members * shapes, "fresh = {fresh}");
        }
        assert!(stream.iter().filter(|r| !r.fresh).all(|r| r.k == k));
        // Clients start four shapes apart.
        assert_eq!(request(1, 0, members, shapes, k).shape, 4);
    }

    #[test]
    fn fresh_shapes_never_repeat_on_a_server() {
        let (members, shapes, k) = (5, 9, 100);
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..SERVE_CLIENTS {
            for i in 0..2_000 {
                let r = request(client, i, members, shapes, k);
                if r.fresh {
                    assert!(r.k > k);
                    assert!(seen.insert((r.member, r.shape, r.k)), "{r:?} repeats");
                }
            }
        }
        // The band of fresh k values stays narrow: it grows by two per
        // sweep over the (server, shape) pairs.
        let widest = seen.iter().map(|&(_, _, k)| k).max().unwrap();
        assert!(widest <= k + SERVE_CLIENTS * (2_000 / (members * shapes) + 1));
    }
}
