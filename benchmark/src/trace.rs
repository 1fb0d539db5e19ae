//! Spans recorded from outside the engine: one around each call into a
//! layer, kept in memory and written out when the run ends.
//!
//! The engine exposes task *durations* ([`JobMetrics`]) but not task
//! start times, so map/reduce task spans are laid out in task order
//! inside their job (one lane per worker thread) and marked
//! `synthetic`; real task timestamps need tracing inside the program,
//! which is a later change.
//!
//! [`JobMetrics`]: tkij_mapreduce::JobMetrics

use crate::json;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span that caused this one (`None` for a query's root).
    pub parent: Option<SpanId>,
    /// Shared by every span of one query.
    pub query_id: u32,
    /// Layer name (`query`, `topbuckets`, `mapreduce.reduce[3]`, …).
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Whether the offsets were laid out from durations, not observed.
    pub synthetic: bool,
    /// Counts read at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, query_id: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            query_id,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            synthetic: false,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span now, attaching the counts read at its boundary, and
    /// returns its duration.
    pub fn end(&mut self, id: SpanId, counts: Vec<(&'static str, u64)>) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts = counts;
        Duration::from_nanos(span.duration_ns())
    }

    /// Records a root span observed elsewhere (a client thread's request).
    pub fn observed(&mut self, name: &str, query_id: u32, start: Instant, end: Instant) {
        let since_epoch = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            parent: None,
            query_id,
            name: name.to_string(),
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            synthetic: false,
            counts: Vec::new(),
        });
    }

    /// Records a span whose offsets were computed, not observed.
    fn synthetic(&mut self, name: String, parent: SpanId, start_ns: u64, end_ns: u64) {
        let query_id = self.spans[parent].query_id;
        self.spans.push(Span {
            parent: Some(parent),
            query_id,
            name,
            start_ns,
            end_ns,
            synthetic: true,
            counts: Vec::new(),
        });
    }

    /// Lays a job's task spans out inside `parent`: the job is taken to
    /// end when `parent` ends and to last `wall`; map tasks fill `lanes`
    /// lanes in task order from the job's start, reduce tasks likewise
    /// up to the job's end, and whatever lies between the two waves is
    /// the shuffle.
    pub fn job_tasks(
        &mut self,
        parent: SpanId,
        wall: Duration,
        map: &[Duration],
        reduce: &[Duration],
        lanes: usize,
    ) {
        let job_end = self.spans[parent].end_ns;
        let job_start =
            job_end.saturating_sub(wall.as_nanos() as u64).max(self.spans[parent].start_ns);
        let map_wave = lay_out(map, lanes);
        let reduce_wave = lay_out(reduce, lanes);
        let map_end = map_wave.iter().map(|&(_, e)| e).max().unwrap_or(0);
        let reduce_len = reduce_wave.iter().map(|&(_, e)| e).max().unwrap_or(0);
        let reduce_start = job_end.saturating_sub(reduce_len).max(job_start + map_end);
        for (i, &(s, e)) in map_wave.iter().enumerate() {
            self.synthetic(format!("mapreduce.map[{i}]"), parent, job_start + s, job_start + e);
        }
        self.synthetic("mapreduce.shuffle".into(), parent, job_start + map_end, reduce_start);
        for (j, &(s, e)) in reduce_wave.iter().enumerate() {
            self.synthetic(
                format!("mapreduce.reduce[{j}]"),
                parent,
                reduce_start + s,
                reduce_start + e,
            );
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children — two
    /// reduce lanes — are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for child in &self.spans {
            if let Some(parent) = child.parent {
                children[parent].push((child.start_ns, child.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"ns\", \"spans\": [",
            json::string(workload)
        );
        let self_ns = self.self_times_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> =
                s.counts.iter().map(|(k, v)| format!("{}: {v}", json::string(k))).collect();
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"query_id\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"synthetic\": {}, \
                 \"counts\": {{{}}}}}",
                s.query_id,
                json::string(&s.name),
                s.start_ns,
                s.end_ns,
                self_ns[id],
                s.synthetic,
                counts.join(", ")
            );
            out.push_str(if id + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// List-schedules `tasks` onto `lanes` lanes in task order (each task
/// goes to the lane that frees first), returning `(start, end)` offsets
/// in nanoseconds from the wave's start.
fn lay_out(tasks: &[Duration], lanes: usize) -> Vec<(u64, u64)> {
    let mut free = vec![0u64; lanes.max(1)];
    tasks
        .iter()
        .map(|d| {
            let lane = free.iter_mut().min().expect("at least one lane");
            let start = *lane;
            *lane += d.as_nanos() as u64;
            (start, *lane)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            query_id: 0,
            name: "s".into(),
            start_ns,
            end_ns,
            synthetic: false,
            counts: Vec::new(),
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer { epoch: Instant::now(), spans }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer(vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(1), 12, 20), // a grandchild does not count against the root
        ]);
        assert_eq!(t.self_times_ns()[0], 100 - 20 - 40);
        assert_eq!(t.self_times_ns()[1], 20 - 8);
        assert_eq!(t.self_times_ns()[3], 8, "a leaf's self time is its duration");
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two lanes running side by side cover [10, 60) together.
        let t = tracer(vec![span(None, 0, 100), span(Some(0), 10, 50), span(Some(0), 20, 60)]);
        assert_eq!(t.self_times_ns()[0], 50);
        // A child nested inside a sibling's interval adds nothing.
        let t = tracer(vec![span(None, 0, 100), span(Some(0), 10, 90), span(Some(0), 20, 30)]);
        assert_eq!(t.self_times_ns()[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = tracer(vec![span(None, 10, 50), span(Some(0), 0, 20), span(Some(0), 40, 80)]);
        assert_eq!(t.self_times_ns()[0], 40 - 10 - 10);
        // A child wholly outside covers nothing.
        let t = tracer(vec![span(None, 10, 50), span(Some(0), 60, 80)]);
        assert_eq!(t.self_times_ns()[0], 40);
    }

    #[test]
    fn lanes_are_filled_in_task_order() {
        let ns = Duration::from_nanos;
        assert_eq!(lay_out(&[ns(10), ns(20), ns(30)], 1), vec![(0, 10), (10, 30), (30, 60)]);
        // Two lanes: 10 → A, 20 → B, 30 → A (frees at 10).
        assert_eq!(lay_out(&[ns(10), ns(20), ns(30)], 2), vec![(0, 10), (0, 20), (10, 40)]);
        assert_eq!(lay_out(&[ns(5)], 0), vec![(0, 5)], "lanes clamp to one");
    }

    #[test]
    fn job_tasks_sit_inside_the_job_and_leave_the_shuffle_between_waves() {
        let ns = Duration::from_nanos;
        let mut t = tracer(vec![span(None, 0, 1_000), span(Some(0), 100, 1_000)]);
        // Job wall 800 ⇒ starts at 200 (the first 100 of the parent is
        // input assembly). Maps 100 + 50, reduces 300 + 200, one lane.
        t.job_tasks(1, ns(800), &[ns(100), ns(50)], &[ns(300), ns(200)], 1);
        let by_name = |n: &str| t.spans().iter().find(|s| s.name == n).cloned().unwrap();
        assert_eq!(
            (by_name("mapreduce.map[0]").start_ns, by_name("mapreduce.map[1]").end_ns),
            (200, 350)
        );
        assert_eq!(
            (by_name("mapreduce.shuffle").start_ns, by_name("mapreduce.shuffle").end_ns),
            (350, 500)
        );
        assert_eq!(by_name("mapreduce.reduce[0]").start_ns, 500);
        assert_eq!(by_name("mapreduce.reduce[1]").end_ns, 1_000);
        assert!(t.spans()[2..].iter().all(|s| s.synthetic && s.parent == Some(1)));
        // Self time of the join phase = input assembly only.
        assert_eq!(t.self_times_ns()[1], 100);
    }

    #[test]
    fn begin_end_record_real_time_and_counts() {
        let mut t = Tracer::new();
        let q = t.begin("query", None, 7);
        let c = t.begin("topbuckets", Some(q), 7);
        let d = t.end(c, vec![("candidates", 42)]);
        t.end(q, Vec::new());
        assert_eq!(t.spans()[c].counts, vec![("candidates", 42)]);
        assert_eq!(t.spans()[c].query_id, 7);
        assert_eq!(d.as_nanos() as u64, t.spans()[c].duration_ns());
        assert!(t.spans()[q].start_ns <= t.spans()[c].start_ns);
        assert!(t.spans()[q].end_ns >= t.spans()[c].end_ns);
        assert!(t.self_times_ns()[q] <= t.spans()[q].duration_ns());
    }
}
