//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, the request or step id it served, the span
//! that caused it, and its start and end on the tracer's clock.  Spans
//! stay in memory while the workload runs and are written out once, as
//! JSON lines, when it ends.  A disabled tracer records nothing and
//! reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `fmm.plan`.
    pub name: &'static str,
    /// The request, step or pass id the span served.
    pub key: u64,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Wall-clock seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The span store.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn clock(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, key: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.clock(Instant::now());
        self.spans.push(Span { name, key, parent, start_s: now, end_s: now });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_s = self.clock(Instant::now());
        }
    }

    /// Records a span whose ends were stamped elsewhere, e.g. on another
    /// thread.
    pub fn record(
        &mut self,
        name: &'static str,
        key: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let (start_s, end_s) = (self.clock(start), self.clock(end));
        self.spans.push(Span { name, key, parent, start_s, end_s });
        self.spans.len() - 1
    }

    /// Records `dur_s` seconds from `start_s` on the tracer's clock — a
    /// phase a layer timed itself.
    pub fn record_at(
        &mut self,
        name: &'static str,
        key: u64,
        parent: SpanId,
        start_s: f64,
        dur_s: f64,
    ) {
        if self.enabled {
            self.spans.push(Span { name, key, parent, start_s, end_s: start_s + dur_s });
        }
    }

    /// Start of span `id` on the tracer's clock (0 for [`NO_SPAN`]).
    pub fn start_of(&self, id: SpanId) -> f64 {
        self.spans.get(id).map_or(0.0, |s| s.start_s)
    }

    /// Each span's self time: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                children[s.parent].push((s.start_s, s.end_s));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, span.start_s);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(span.end_s));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (span.duration_s() - covered).max(0.0)
            })
            .collect()
    }

    /// `(count, total seconds, self seconds)` per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_s();
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON line, then `rows` verbatim.
    pub fn write_jsonl(&self, path: &Path, rows: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent =
                if s.parent == NO_SPAN { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_s\":{},\"dur_s\":{},\"self_s\":{own}}}",
                s.name,
                s.key,
                s.start_s,
                s.duration_s()
            )?;
        }
        for row in rows {
            writeln!(out, "{row}")?;
        }
        out.flush()
    }
}
