//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this crate's code, around calls into the
//! program's public functions. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    name: u16,
    /// Index of the enclosing span, or [`NO_PARENT`].
    parent: u32,
    /// The operation (event index) the span belongs to; spans of one
    /// operation share it.
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Count, total time and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    /// While `false`, `begin`/`end` do nothing (set-up is not traced).
    pub enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty, enabled tracer.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// An empty, enabled tracer measuring from `origin` (threads that are
    /// merged later share one).
    pub fn with_origin(origin: Instant) -> Self {
        Self { origin, names: Vec::new(), spans: Vec::new(), stack: Vec::new(), enabled: true }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends another thread's spans, re-basing their timestamps onto
    /// this tracer's origin.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        let names: Vec<u16> = other.names.iter().map(|n| self.name_id(n)).collect();
        let shift = self.ns_of(other.origin);
        for s in other.spans {
            self.spans.push(Span {
                name: names[s.name as usize],
                parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + base },
                op: s.op,
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
            });
        }
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u32) {
        if !self.enabled {
            return;
        }
        let name = self.name_id(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, op, start_ns, end_ns: start_ns });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.stack.pop().expect("end without begin");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records an already-measured root span.
    pub fn record(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let name = self.name_id(name);
        let (start_ns, end_ns) = (self.ns_of(start), self.ns_of(end));
        self.spans.push(Span { name, parent: NO_PARENT, op, start_ns, end_ns });
    }

    /// Per-name totals; a span's self time is its duration minus the
    /// durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        assert!(self.stack.is_empty(), "totals with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(self.names[s.name as usize]).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes the trace as one JSON object: a `names` table and a `spans`
    /// array of `[name index, start ns, end ns, parent span or -1, op]`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"names\":[")?;
        for (i, n) in self.names.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
        }
        writeln!(w, "],\"columns\":[\"name\",\"start\",\"end\",\"parent\",\"op\"],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(w, "[{},{},{},{},{}]{sep}", s.name, s.start_ns, s.end_ns, parent, s.op)?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer", 0);
        t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.enabled = false;
        t.begin("x", 1);
        t.end();
        assert!(t.totals().is_empty());
    }
}
