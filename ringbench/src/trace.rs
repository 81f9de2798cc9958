//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries a name, start and end (ns since the tracer's origin),
//! the index of the span that was open when it began (its parent) and the
//! id of the fault event or operation it served. Spans stay in memory and
//! are written out once, when the run ends. When tracing is off, `begin`,
//! `end` and `record` do nothing, so the untraced run pays one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marker for "no span": what `begin` returns when tracing is off.
pub const NO_SPAN: usize = usize::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub event: u64,
}

/// Count, total and self time of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, event: u64) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            event,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a closed span from instants the caller already took, as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, event: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            event,
        };
        self.spans.push(span);
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part of its interval that its child
    /// spans cover (overlapping children are counted once).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Span counts, total and self time per span name.
    #[must_use]
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations in ns of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes one JSON object per span (with its self time) to `path`,
    /// after a first line holding `header`.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"event\":{}}}",
                s.name, s.start_ns, s.end_ns, s.event
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            event: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, None),
            // Overlapping children count once: [10,40) covers 30 ns.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A child running past its parent is clipped to [90,100).
            span("c", 90, 120, Some(0)),
            // A grandchild is charged to its own parent only.
            span("a.inner", 12, 18, Some(1)),
        ];
        assert_eq!(t.self_times(), vec![60, 14, 20, 30, 6]);
        let by = t.totals_by_name();
        assert_eq!(
            by["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(by["a"].self_ns, 14);
    }

    #[test]
    fn begin_end_nest_and_record_attach_to_the_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        let now = Instant::now();
        t.record("leaf", 9, now, now);
        t.end(outer);
        let s = t.spans();
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!(s[2].event, 9);
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        let self_times = t.self_times();
        assert!(self_times[0] <= s[0].end_ns - s[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
