//! In-memory spans recorded around the benchmark's own calls into the
//! program's public API. A disabled tracer records nothing and reads no
//! clock, so untraced runs pay a branch per call.

use darklight_obs::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The timed unit (job or query index) the span belongs to;
    /// set-up spans carry the set-up repetition instead.
    pub unit: u64,
    pub parent: Option<usize>,
    pub start: f64,
    /// `None` while open; a span left open by a panic is closed when its
    /// nearest finished ancestor closes.
    pub end: Option<f64>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end.unwrap_or(self.start) - self.start
    }
}

/// Records spans when enabled. Interior mutability lets workload code
/// open nested spans through a shared reference.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&self, name: &'static str, unit: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            unit,
            parent: stack.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: None,
        });
        stack.push(id);
        Some(id)
    }

    /// Closes `id` and any span still open inside it.
    pub fn end(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        while let Some(top) = stack.pop() {
            spans[top].end.get_or_insert(now);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, unit);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end) {
            children[p].push((s.start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start, s.end.unwrap_or(s.start));
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed duration of the spans named `name` inside the subtree of `root`.
pub fn total(spans: &[Span], root: usize, name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && within(spans, *i, root))
        .fold(0.0, |sum, (_, s)| sum + s.duration())
}

/// Whether span `i` is `root` or one of its descendants.
pub fn within(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// The spans as JSON, one object per span with its self time.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Array(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_s))| {
                let mut o = Json::object();
                o.set("id", Json::UInt(id as u64));
                o.set("name", Json::Str(s.name.to_string()));
                o.set("unit", Json::UInt(s.unit));
                o.set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                );
                o.set("start_s", Json::Float(s.start));
                o.set("end_s", Json::Float(s.end.unwrap_or(s.start)));
                o.set("self_s", Json::Float(self_s));
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            unit: 0,
            parent,
            start,
            end: Some(end),
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 5.0, 9.0),
            span("a.x", Some(1), 2.0, 3.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 4.0, 1.0]);
        assert_eq!(selfs.iter().sum::<f64>(), 10.0);
        assert_eq!(total(&spans, 0, "a"), 3.0);
        assert_eq!(total(&spans, 2, "a"), 0.0);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 6.0),
            span("b", Some(0), 4.0, 8.0),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 0);
        t.end(outer);
        let spans = t.spans();
        assert!(spans.iter().all(|s| s.end.is_some()));
        assert_eq!(spans[1].parent, Some(0));
    }
}
