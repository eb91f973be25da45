//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written as a Chrome trace when the run ends.
//!
//! The program under test is not instrumented: a span is the harness timing
//! one public call (or, under `core.execute`, a phase laid out from the
//! `JobMetrics` that call returned). A disabled tracer records nothing, which
//! is what the end-to-end runs use.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// The repetition (or request) this span belongs to.
    pub id: usize,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    /// The trace-viewer row: the nesting depth, or for concurrent requests
    /// the client that sent them, so spans on one row never half-overlap.
    pub track: usize,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    id: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans of the repetition that starts now carry `id`, and are recorded
    /// only if it is `traced`.
    pub fn begin_repetition(&mut self, id: usize, traced: bool) {
        self.id = id;
        self.enabled = traced;
    }

    /// Times `f` as a span named `name`, a child of the span open around it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            id: self.id,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            track: self.open.len(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[index].dur_us = end - self.spans[index].start_us;
        out
    }

    /// Lays `phases` (name, seconds) out back to back as children of the
    /// most recently closed span named `parent`, starting at its start: how
    /// the phase timers a call returned become spans.
    pub fn children_from_phases(&mut self, parent: &str, phases: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(index) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let mut start_us = self.spans[index].start_us;
        for (name, secs) in phases {
            self.spans.push(Span {
                name: name.to_string(),
                id: self.spans[index].id,
                start_us,
                dur_us: secs * 1e6,
                parent: Some(index),
                track: self.spans[index].track + 1,
            });
            start_us += secs * 1e6;
        }
    }

    /// Records an interval measured elsewhere (a client thread's request)
    /// as a top-level span of the current repetition on row `track`.
    pub fn record(&mut self, name: &str, track: usize, start: Instant, secs: f64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                id: self.id,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
                parent: None,
                track,
            });
        }
    }

    /// Seconds spent in spans named `name`, summed per repetition: their
    /// durations, or with `self_time` their self times.
    pub fn per_repetition(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut totals: Vec<(usize, f64)> = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let us = if self_time {
                self_time_us(&self.spans, index)
            } else {
                span.dur_us
            };
            match totals.last_mut() {
                Some((id, total)) if *id == span.id => *total += us / 1e6,
                _ => totals.push((span.id, us / 1e6)),
            }
        }
        totals.into_iter().map(|(_, total)| total).collect()
    }

    /// Writes the spans in Chrome-trace format (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"self_us\":{:.3}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(""),
                span.start_us,
                span.dur_us,
                span.track + 1,
                span.id,
                self_time_us(&self.spans, i),
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children are clipped to the parent's interval and may not overlap each
/// other twice: overlapping stretches count once.
pub fn self_time_us(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let (lo, hi) = (parent.start_us, parent.start_us + parent.dur_us);
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_us.max(lo), (s.start_us + s.dur_us).min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur_us - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, dur_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            id: 0,
            start_us,
            dur_us,
            parent,
            track: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("rep", 0.0, 100.0, None),
            span("load", 0.0, 10.0, Some(0)),
            span("execute", 20.0, 70.0, Some(0)),
            span("map", 20.0, 30.0, Some(2)),
            span("reduce", 50.0, 35.0, Some(2)),
        ];
        assert_eq!(self_time_us(&spans, 0), 20.0);
        assert_eq!(self_time_us(&spans, 2), 5.0);
        assert_eq!(self_time_us(&spans, 3), 30.0);
    }

    #[test]
    fn overlapping_and_overrunning_children_count_once_and_are_clipped() {
        let spans = vec![
            span("execute", 0.0, 100.0, None),
            span("a", 10.0, 50.0, Some(0)),
            span("b", 40.0, 40.0, Some(0)),  // overlaps a on [40, 60)
            span("c", 90.0, 30.0, Some(0)),  // overruns the parent by 20
            span("other", 0.0, 100.0, None), // not a child
        ];
        // covered = [10, 80) + [90, 100) = 80
        assert_eq!(self_time_us(&spans, 0), 20.0);
    }

    #[test]
    fn tracer_nests_spans_and_lays_out_phase_children() {
        let mut tracer = Tracer::new(true);
        tracer.begin_repetition(3, true);
        tracer.span("rep", |t| {
            t.span("core.execute", |_| {});
            t.children_from_phases("core.execute", &[("map", 0.5), ("reduce", 0.25)]);
        });
        let names: Vec<&str> = tracer.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rep", "core.execute", "map", "reduce"]);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[2].parent, Some(1));
        let tracks: Vec<usize> = tracer.spans.iter().map(|s| s.track).collect();
        assert_eq!(tracks, [0, 1, 2, 2]);
        assert_eq!(tracer.spans[3].start_us, tracer.spans[2].start_us + 0.5e6);
        assert!(tracer.spans.iter().all(|s| s.id == 3));
        assert_eq!(tracer.per_repetition("reduce", false), [0.25]);
    }

    #[test]
    fn per_repetition_sums_spans_that_share_an_identifier() {
        let mut tracer = Tracer::new(true);
        for (id, plans) in [(1, 2), (3, 1)] {
            tracer.begin_repetition(id, true);
            for _ in 0..plans {
                tracer.span("core.plan", |_| {});
                tracer.spans.last_mut().unwrap().dur_us = 1.5e6;
            }
        }
        assert_eq!(tracer.per_repetition("core.plan", false), [3.0, 1.5]);
        assert_eq!(tracer.per_repetition("core.plan", true), [3.0, 1.5]);
        assert!(tracer.per_repetition("absent", false).is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("rep", |t| t.span("inner", |_| 7)), 7);
        tracer.children_from_phases("rep", &[("map", 1.0)]);
        assert!(tracer.spans.is_empty());
    }
}
