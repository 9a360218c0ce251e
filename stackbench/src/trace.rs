//! In-memory span recorder for traced runs.
//!
//! A span is a name, a start, an end, its parent span and the burst or phase
//! it belongs to. Spans stay in memory while the workload runs; per-layer
//! metrics are computed from them, and they are written out as TSV once the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Burst or phase id the span belongs to.
    pub group: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, group: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (a client thread's burst).
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            group,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.push(span);
    }

    /// Total duration in ns and number of spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Writes every span as `id name group parent start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tgroup\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Opens a span when `t` holds a tracer.
pub fn open(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    group: u64,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    t.as_deref_mut().map(|t| t.begin(name, group, parent))
}

/// Closes a span opened by [`open`].
pub fn close(t: &mut Option<&mut Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
        t.end(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new();
        let outer = t.begin("phase", 0, None);
        let a = t.begin("chunk", 0, Some(outer));
        t.end(a);
        let b = t.begin("chunk", 0, Some(outer));
        t.end(b);
        t.end(outer);
        let (outer_ns, n) = t.total("phase");
        let (chunk_ns, m) = t.total("chunk");
        assert_eq!((n, m), (1, 2));
        assert!(chunk_ns <= outer_ns);
    }
}
