//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions. Kept in memory; written out once, when the run ends.

use crate::json::Json;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One timed interval: what ran, when, and which span caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one workload's traced run. Spans nest by call
/// structure: a span opened inside another's closure is its child.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer records nothing: end-to-end numbers are measured
    /// with tracing off, through the same code as the traced run.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// Time `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Like [`Self::span`], also returning how long `f` took. The duration is
    /// measured whether or not spans are being recorded.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let started = Instant::now();
            let out = f();
            return (out, started.elapsed());
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            st.open.push(id);
            id
        };
        // Clock reads sit as close to `f` as possible, inside the bookkeeping.
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        let mut st = self.state.borrow_mut();
        st.spans[id].start_ns = start.as_nanos() as u64;
        st.spans[id].end_ns = end.as_nanos() as u64;
        st.open.pop();
        (out, end - start)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// How many spans have been opened so far: pass it to [`Self::total_ms`]
    /// later to sum only the spans of one phase.
    pub fn mark(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Summed duration, in milliseconds, of every span with this name opened
    /// at or after `mark`.
    pub fn total_ms(&self, name: &str, mark: usize) -> f64 {
        let st = self.state.borrow();
        let ns: u64 = st.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Every span with its self time, tagged with the workload.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans();
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Json::obj([
                                ("id", Json::Int(id as u64)),
                                ("name", Json::str(s.name)),
                                ("workload", Json::str(workload)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                                ),
                                ("start_ns", Json::Int(s.start_ns)),
                                ("end_ns", Json::Int(s.end_ns)),
                                ("self_ns", Json::Int(self_time_ns(&spans, id))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut cover: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in cover {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.duration_ns() - covered
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
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 100, 1100, None),
            span("a", 200, 400, Some(0)),
            // Overlaps `a` by 100: the union covers 200..600.
            span("b", 300, 600, Some(0)),
            // Sticks out past the parent's end: clipped to 1000..1100.
            span("c", 1000, 1300, Some(0)),
            // A grandchild takes nothing from the root.
            span("a1", 250, 350, Some(1)),
            span("other-root", 0, 5000, None),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 400 - 100);
        assert_eq!(self_time_ns(&spans, 1), 200 - 100);
        assert_eq!(self_time_ns(&spans, 2), 300);
        assert_eq!(self_time_ns(&spans, 5), 5000);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let off = Tracer::new(false);
        assert_eq!(off.span("unrecorded", || 3), 3);
        assert_eq!(off.timed("unrecorded", || 4).0, 4);
        assert!(off.spans().is_empty());
        let tracer = Tracer::new(true);
        let value = tracer.span("outer", || {
            tracer.span("inner", || ());
            tracer.span("inner", || 7)
        });
        assert_eq!(value, 7);
        let ((), took) = tracer.timed("sibling", || ());
        let spans = tracer.spans();
        assert_eq!(took.as_nanos() as u64, spans[3].duration_ns());
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("sibling", None)
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let inner_ms = (spans[1].duration_ns() + spans[2].duration_ns()) as f64 / 1e6;
        assert_eq!(tracer.total_ms("inner", 0), inner_ms);
        assert_eq!(
            tracer.total_ms("inner", 2),
            spans[2].duration_ns() as f64 / 1e6
        );
        assert_eq!(tracer.mark(), 4);
    }
}
