//! Harness-side spans, kept in memory and written out when the run ends.
//!
//! The program under test is not touched: a span is recorded by the
//! harness around a call into a public function of a layer. With tracing
//! off every method here only forwards, so the end-to-end numbers are
//! taken without it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::write_string;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one request share this identifier; 0 outside requests.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span ids of lane `l` start at `l << LANE_SHIFT`, so client threads
/// number their spans without sharing a counter.
const LANE_SHIFT: u32 = 40;

/// Spans one lane keeps over a run; later ones are counted in `dropped`,
/// not stored, so a traced run's memory and trace file stay bounded.
const LANE_CAPACITY: usize = 400_000;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: u64,
    open: Vec<u64>,
    request: u64,
    spans: Vec<Span>,
    /// How many of `spans` came from other lanes; they were held to their
    /// own lane's capacity and do not count against this one's.
    absorbed: usize,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::at(enabled, Instant::now(), 0)
    }

    fn at(enabled: bool, origin: Instant, lane: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            next: (lane << LANE_SHIFT) + 1,
            open: Vec::new(),
            request: 0,
            spans: Vec::new(),
            absorbed: 0,
            dropped: 0,
        }
    }

    /// A tracer for client thread `lane` (≥ 1) on the same time axis. The
    /// thread keeps it for the whole run, so its ids never repeat, and
    /// hands it back with [`Tracer::absorb`].
    pub fn lane(&self, lane: u64) -> Tracer {
        Tracer::at(self.enabled, self.origin, lane)
    }

    pub fn absorb(&mut self, lane: Tracer) {
        self.dropped += lane.dropped;
        self.absorbed += lane.spans.len();
        self.spans.extend(lane.spans);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording; returns the previous setting.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `at` on this tracer's time axis.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` under a span named `name`; spans opened inside are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next;
        self.next += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a leaf span whose name is known only once it has ended
    /// (a wait that turns out to be a cache hit or a miss).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next;
        self.next += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() - self.absorbed < LANE_CAPACITY {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per span name: count, total duration and self time (duration minus
    /// the part covered by child spans), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *children.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let total = span.end_ns - span.start_ns;
            let covered = children.get(&span.id).copied().unwrap_or(0);
            let row = table.entry(span.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(covered);
        }
        table
    }

    /// Writes one JSON object per span, ordered by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for span in &self.spans {
            line.clear();
            write!(
                line,
                "{{\"span\":{},\"parent\":{},\"request\":{},\"name\":",
                span.id, span.parent, span.request
            )
            .expect("write to String");
            write_string(&mut line, span.name);
            writeln!(
                line,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                span.start_ns, span.end_ns
            )
            .expect("write to String");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let t0 = tr.now_ns();
            tr.record("leaf", t0, t0 + 10);
        });
        let outer = tr.spans.iter().find(|s| s.name == "outer").unwrap();
        for child in ["inner", "leaf"] {
            let span = tr.spans.iter().find(|s| s.name == child).unwrap();
            assert_eq!(span.parent, outer.id);
            assert_eq!(span.request, 7);
        }
        let table = tr.self_times();
        let (count, total, own) = table["outer"];
        assert_eq!(count, 1);
        assert!(own < total && total - own >= 2_000_000);
        assert_eq!(table["inner"].1, table["inner"].2);
    }

    #[test]
    fn disabled_tracer_only_forwards() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a", |tr| tr.span("b", |_| 5)), 5);
        tr.record("c", 0, 1);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn lanes_do_not_share_ids() {
        let mut tr = Tracer::new(true);
        tr.record("x", 0, 100);
        let (mut one, mut two) = (tr.lane(1), tr.lane(2));
        one.record("x", 0, 7);
        two.record("x", 0, 9);
        one.record("y", 0, 1);
        tr.absorb(one);
        tr.absorb(two);
        let mut ids: Vec<u64> = tr.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert_eq!(tr.durations_ns("x"), vec![100.0, 7.0, 9.0]);
        assert!(tr.durations_ns("missing").is_empty());
    }

    /// A 20 s run of `serve_refresh` hands back more client spans than one
    /// lane may keep; the layer probe that follows must still be recorded.
    #[test]
    fn absorbed_spans_leave_the_lane_its_own_capacity() {
        let mut tr = Tracer::new(true);
        let mut client = tr.lane(1);
        for _ in 0..LANE_CAPACITY + 3 {
            client.record("serve.submit", 0, 1);
        }
        tr.absorb(client);
        tr.record("rdf.turtle_parse", 0, 5);
        assert_eq!(tr.dropped, 3);
        assert_eq!(tr.durations_ns("rdf.turtle_parse"), vec![5.0]);
    }

    #[test]
    fn trace_file_is_json_lines() {
        let mut tr = Tracer::new(true);
        tr.span("web.crawl", |tr| tr.record("rdf.turtle_parse", 1, 2));
        let path =
            std::env::temp_dir().join(format!("semrec-perf-trace-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        for key in ["span", "parent", "request", "name", "start_ns", "end_ns"] {
            assert!(lines[0].get(key).is_some(), "missing {key}");
        }
    }
}
