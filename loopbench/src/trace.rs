//! Spans around the benchmark's calls into the program's public functions.
//!
//! Every call the benchmark times goes through [`Tracer::begin`] /
//! [`Tracer::end`], which always return the wall time. With tracing on, each
//! call is also kept in memory as a [`Span`] (name, tag, start, end, parent,
//! work done) and written out as JSON lines when the benchmark ends. No span
//! is recorded inside the program itself.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Units of work a span covered, counted where the work happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Inputs executed (or mutated, or offered to the corpus).
    pub execs: u64,
    /// Model iterations executed.
    pub ticks: u64,
    /// Test cases emitted (campaigns) or replayed (replays).
    pub cases: u64,
}

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Which of the workload's models the call worked on.
    pub tag: usize,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub work: Work,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A call in progress (returned by [`Tracer::begin`]).
#[must_use = "a begun span must be ended"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// The in-memory span store.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Starts timing a call named `name` on model `tag`.
    pub fn begin(&mut self, name: &'static str, tag: usize) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = self.nanos(start);
            self.spans.push(Span {
                name,
                tag,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                work: Work::default(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Ends a call, recording the work it did; returns its wall time.
    pub fn end(&mut self, open: Open, work: Work) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(i), "spans end in the order they began");
            let at = self.nanos(end);
            let span = &mut self.spans[i];
            span.end_ns = at;
            span.work = work;
        }
        end.saturating_duration_since(open.start)
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Adds a finished span directly (synthetic traces in tests).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans called `name` on model `tag`.
    pub fn named<'a>(&'a self, name: &'a str, tag: usize) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name && s.tag == tag)
    }

    /// The distinct tags of spans called `name`, ascending.
    pub fn tags(&self, name: &str) -> Vec<usize> {
        let mut tags: Vec<usize> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// For every span called `parent`, the summed duration (seconds) of its
    /// direct children called `child`.
    pub fn child_sums_s(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, u64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(slot) = sums.iter_mut().find(|(i, _)| Some(*i) == s.parent) {
                slot.1 += s.ns();
            }
        }
        sums.into_iter().map(|(_, ns)| ns as f64 / 1e9).collect()
    }

    /// A span's self time: its duration minus the part its direct children
    /// cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(Span::ns).sum();
        self.spans[index].ns().saturating_sub(children)
    }

    /// The spans as JSON lines, in the order they began.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"parent\":{parent},\"execs\":{},\"ticks\":{},\"cases\":{}}}",
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.work.execs,
                s.work.ticks,
                s.work.cases
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("setup", 0);
        let inner = tr.begin("model.load", 0);
        tr.end(inner, Work::default());
        let outer_time = tr.end(outer, Work { execs: 1, ..Work::default() });
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].work.execs, 1);
        assert!(tr.spans()[0].ns() as u128 <= outer_time.as_nanos());
        assert_eq!(tr.self_ns(0), tr.spans()[0].ns() - tr.spans()[1].ns());
        assert_eq!(tr.child_sums_s("setup", "model.load").len(), 1);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_still_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("fuzz.campaign", 0);
        std::thread::sleep(Duration::from_millis(1));
        assert!(tr.end(open, Work::default()) >= Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }
}
