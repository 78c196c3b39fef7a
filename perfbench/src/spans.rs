//! In-memory span log written out as Chrome/Perfetto trace-event JSON.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer, kept in memory while the run measures, and serialized once at
//! the end, in the same `{"displayTimeUnit": "ms", "traceEvents": [...]}`
//! envelope that `ocin`'s telemetry exporter emits.

use std::fmt::Write as _;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call group: name, interval in nanoseconds since the log's
/// origin, and the index of the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `network.step`.
    pub name: &'static str,
    /// Start, ns since the log origin.
    pub start_ns: u64,
    /// End, ns since the log origin.
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Forgets every span after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace-event JSON of the first `max_events` spans (complete
    /// `"X"` events on one track, microsecond timestamps), with each
    /// span's index and parent in its `args`.
    pub fn to_perfetto_json(&self, max_events: usize) -> String {
        const PID: u32 = 1;
        let written = self.spans.len().min(max_events);
        let mut s = String::with_capacity(256 + written * 128);
        s.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            s,
            "  {{\"ph\": \"M\", \"pid\": {PID}, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"ocin-perfbench spans ({written} of {} written)\"}}}}",
            self.spans.len()
        );
        for (i, sp) in self.spans.iter().take(written).enumerate() {
            let parent = if sp.parent == ROOT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                ",\n  {{\"ph\": \"X\", \"pid\": {PID}, \"tid\": 1, \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfetto_json_caps_events_and_links_parents() {
        let mut log = SpanLog::new();
        let p = log.push("runner.cycle", 0, 1_000, ROOT);
        log.push("network.step", 100, 900, p);
        log.push("runner.cycle", 1_000, 2_000, ROOT);
        let json = log.to_perfetto_json(2);
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(json.contains("\"name\": \"network.step\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("(2 of 3 written)"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    }
}
