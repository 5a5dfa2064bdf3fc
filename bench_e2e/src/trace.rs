//! Spans recorded around each call into a layer, from the benchmark's side
//! of the call. Spans stay in memory until the run ends and are written as
//! JSON lines; self time and the per-layer metrics are derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The unit of work the span belongs to (`Q5`, `SQL-CS@20000`), if any.
    pub unit: Option<String>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span: kernel events, operations, rows.
    pub count: u64,
    /// Reference-only work (reference executors, replays, probed reruns):
    /// run for comparison, never part of the timed region.
    pub reference: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder; a disabled one records nothing and costs nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`. Children of a
    /// reference span are reference spans too. Returns the span's id (0
    /// when disabled, which is never read).
    pub fn span(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        unit: Option<&str>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.span_ns(parent, name, unit, s, e, count)
    }

    /// [`Tracer::span`] on the tracer's own nanosecond axis, for spans that
    /// aggregate many calls and are laid end to end inside their parent.
    pub fn span_ns(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        unit: Option<&str>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let reference = parent.is_some_and(|p| self.spans[p].reference);
        self.spans.push(Span {
            id,
            parent,
            unit: unit.map(str::to_string),
            name,
            start_ns,
            end_ns,
            count,
            reference,
        });
        id
    }

    /// Open a span whose end is not known yet; [`Tracer::close`] sets it.
    pub fn open(&mut self, parent: Option<usize>, name: &'static str, reference: bool) -> usize {
        let now = Instant::now();
        let id = self.span(parent, name, None, now, now, 0);
        if self.enabled {
            self.spans[id].reference |= reference;
        }
        id
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Start of span `id` on the tracer's axis (for laying out aggregates).
    pub fn start_ns(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, |s| s.start_ns)
    }

    /// One JSON object per line, in recording order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"ref\":{}}}",
                s.id,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.unit.as_ref().map(|u| format!("\"{u}\""))),
                s.name,
                s.start_ns,
                s.end_ns,
                s.count,
                s.reference
            );
        }
        out
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it that its children cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }
}

/// Nanoseconds in `d`, for aggregates kept as integers.
pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.span_ns(None, "root", None, 0, 100, 0);
        t.span_ns(Some(root), "a", None, 10, 40, 0);
        t.span_ns(Some(root), "b", None, 30, 60, 0); // overlaps a by 10
        let selfs = t.self_secs();
        assert!((selfs["root"] - 50e-9).abs() < 1e-15);
        assert!((selfs["a"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn children_of_reference_spans_are_reference() {
        let mut t = Tracer::new(true);
        let r = t.open(None, "refs", true);
        let c = t.span_ns(Some(r), "child", None, 0, 1, 0);
        t.close(r);
        assert!(t.spans()[c].reference);
        let d = t.span_ns(None, "timed", None, 0, 1, 0);
        assert!(!t.spans()[d].reference);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.open(None, "rep", false);
        t.span_ns(Some(r), "x", None, 0, 1, 0);
        t.close(r);
        assert!(t.spans().is_empty());
        assert!(t.jsonl().is_empty());
    }
}
