//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that caused it and the id of the operation it belongs to. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans reserved up front when recording starts: enough for a traced
/// run's sampled operations and its replays.
const RESERVED_SPANS: usize = 256 * 1024;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pubsub.matcher.matches`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (equal to `start` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id shared by every span of one request (0: none).
    pub op: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so untraced runs share the traced code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled {
            // Growing the span buffer mid-run would stall whichever traced
            // operation triggered the copy.
            self.spans.reserve(RESERVED_SPANS);
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span starting at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.ns(start);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Close an open span at `end`.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = self.ns(end);
            let span = &mut self.spans[id as usize];
            span.end = end.max(span.start);
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        let id = self.open(name, start, parent, op);
        self.close(id, end);
        id
    }

    /// Time `f` as a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), None, op);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| {
                let duration = span.end - span.start;
                duration - covered(span.start, span.end, kids)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start, span.end, span.op
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end]` covered by the union of
/// `intervals` (each clipped to it).
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(tracer: &Tracer, ns: u64) -> Instant {
        tracer.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record("op", at(&t, 0), at(&t, 100), None, 1);
        // Two overlapping children cover [10, 40]; a third covers [60, 70].
        t.record("a", at(&t, 10), at(&t, 30), root, 1);
        t.record("b", at(&t, 20), at(&t, 40), root, 1);
        t.record("c", at(&t, 60), at(&t, 70), root, 1);
        assert_eq!(t.self_times(), vec![60, 20, 20, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Tracer::new(true);
        let root = t.record("op", at(&t, 100), at(&t, 200), None, 7);
        t.record("early", at(&t, 50), at(&t, 120), root, 7);
        t.record("late", at(&t, 190), at(&t, 400), root, 7);
        assert_eq!(t.self_times()[0], 70);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut t = Tracer::new(true);
        let root = t.record("op", at(&t, 0), at(&t, 100), None, 1);
        let child = t.record("child", at(&t, 0), at(&t, 50), root, 1);
        t.record("grandchild", at(&t, 0), at(&t, 50), child, 1);
        assert_eq!(t.self_times(), vec![50, 0, 50]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.record("op", Instant::now(), Instant::now(), None, 0);
        assert!(id.is_none());
        assert_eq!(t.time("x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_are_written_one_per_line() {
        let mut t = Tracer::new(true);
        let root = t.record("op", at(&t, 0), at(&t, 10), None, 3);
        t.record("child", at(&t, 2), at(&t, 4), root, 3);
        let dir = std::env::temp_dir().join(format!("reefbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"), "{}", lines[1]);
        assert!(lines[0].contains("\"self_ns\":8"), "{}", lines[0]);
    }
}
