//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live only in the benchmark: each one wraps a call into a public
//! function of one layer.  They are kept in memory and written out once,
//! when the run ends, so recording costs a clock read and a push.

use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage` name.
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; children opened in between
    /// can name it as their parent.
    pub fn open(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span buffer lock poisoned")[id].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Writes the spans as JSON lines, with their self times.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in spans.iter().enumerate() {
            let line = SpanLine {
                id: i,
                name: span.name.to_string(),
                request: span.request,
                parent: span.parent,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                self_ns: self_ns[i],
            };
            let json = serde_json::to_string(&line).expect("spans hold no floats");
            writeln!(out, "{json}")?;
        }
        out.flush()
    }
}

/// One line of the span file.
#[derive(Serialize)]
struct SpanLine {
    id: SpanId,
    name: String,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once, parts
/// outside the parent ignored).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name summary lines: span count, median duration and median self
/// time (milliseconds).
pub fn summary(spans: &[Span]) -> Vec<String> {
    let self_ns = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_ns() as f64 / 1e6);
        entry.1.push(own as f64 / 1e6);
    }
    by_name
        .into_iter()
        .map(|(name, (durations, own))| {
            format!(
                "span {name}: {} spans, median {:.3} ms, median self {:.3} ms",
                durations.len(),
                crate::stats::median(&durations),
                crate::stats::median(&own)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns, not 50.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A child running past its parent counts only inside it.
            span("c", Some(0), 90, 130),
            // A grandchild is not subtracted from the root.
            span("d", Some(1), 15, 25),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 30 - 10, 20, 40, 10]
        );
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let spans = vec![span("solo", None, 5_000_000, 17_000_000)];
        assert_eq!(self_times_ns(&spans), vec![12_000_000]);
        assert_eq!(
            summary(&spans),
            vec!["span solo: 1 spans, median 12.000 ms, median self 12.000 ms"]
        );
    }

    #[test]
    fn open_and_close_nest_spans() {
        let tracer = Tracer::new();
        let root = tracer.open("root", 1, None);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.record("child", 1, Some(root), start, Instant::now());
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        let own = self_times_ns(&spans);
        assert!(own[0] < spans[0].end_ns - spans[0].start_ns);
        assert_eq!(own[1], spans[1].end_ns - spans[1].start_ns);
    }
}
