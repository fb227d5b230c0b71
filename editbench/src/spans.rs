//! In-memory spans of the traced run, written out when the run ends.
//!
//! A span is one call into a layer, timed from the benchmark's side of the
//! call. Spans of one event share its request id (pass, path, event index);
//! the root span of an event is `event`, and a cold completion's shadow
//! phases are children of its `session.query` span.

use std::fmt::Write as _;
use std::time::Instant;

use crate::workload::Path;

pub type SpanId = u32;

/// The id of "no parent".
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub pass: u32,
    pub path: Path,
    pub request: u32,
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pass: u32,
    path: Path,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            pass: 0,
            path: Path::Library,
        }
    }

    /// Tags the spans recorded from now on with `pass` and `path`.
    pub fn begin(&mut self, pass: u32, path: Path) {
        self.pass = pass;
        self.path = path;
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(
        &mut self,
        request: usize,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            pass: self.pass,
            path: self.path,
            request: request as u32,
            id,
            parent,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated, one span per line, with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("pass\tpath\trequest\tid\tparent\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.pass,
                s.path.name(),
                s.request,
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}
