//! Spans the driver records around its calls into each layer.
//!
//! The program under test is measured from outside, so these are the
//! driver's own spans: one per child run, per micro-op, per set-up step.
//! They are kept in memory and written out once, when the run ends.

use pivot_cli::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Single-threaded span recorder: spans nest by call order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .with("id", id)
                        .with("name", s.name.clone())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map(|p| p as u64))
                        .with("self_ns", self_time_ns(&self.spans, id))
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_child_covered_interval_once() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns: the union covers 10..60.
            span("b", 30, 60, Some(0)),
            // A grandchild takes nothing from `run`.
            span("a.inner", 15, 20, Some(1)),
            // A child that overruns its parent is clipped to it.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 5);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn scopes_nest_by_call_order() {
        let mut rec = Recorder::new();
        rec.scope("outer", |rec| {
            rec.scope("first", |_| ());
            rec.scope("second", |rec| rec.scope("leaf", |_| ()));
        });
        let parents: Vec<_> = rec
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2)),
            ]
        );
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
