//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! the workspace crates' public functions, or adopted from the span
//! events the crates already publish through `obs` ([`Tracer::adopt`]);
//! the program itself gets no new instrumentation. Every span carries a name (`<layer>.<what>`), start
//! and end offsets from the tracer's origin, and its parent; all spans
//! of one run share the tracer's run id. Counts read at the same
//! boundaries (obs counters, store accounting) are attached to the span
//! that was open when they were recorded. Nothing is written until the
//! run ends ([`Tracer::to_json`]).
//!
//! A disabled tracer ([`Tracer::off`]) records nothing, so untraced runs
//! share the code path at no cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Index in recording order (0 is the first span opened).
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<layer>.<what>`.
    pub name: String,
    /// Seconds from the tracer's origin.
    pub start_s: f64,
    /// Seconds from the tracer's origin.
    pub end_s: f64,
}

impl SpanRec {
    /// Wall-clock duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    counts: Vec<(Option<usize>, String, f64)>,
}

/// Records spans and counts for one run. Spans nest strictly (the
/// benchmark opens them from a single orchestration thread).
pub struct Tracer {
    run_id: String,
    origin: Instant,
    enabled: bool,
    state: RefCell<State>,
}

impl Tracer {
    /// A recording tracer; `run_id` names the run in every span.
    pub fn new(run_id: String) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            enabled: true,
            state: RefCell::default(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            run_id: String::new(),
            origin: Instant::now(),
            enabled: false,
            state: RefCell::default(),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let start_s = self.origin.elapsed().as_secs_f64();
            st.spans.push(SpanRec {
                id,
                parent,
                name: name.to_owned(),
                start_s,
                end_s: start_s,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must nest");
        out
    }

    /// Seconds from the tracer's origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record spans the program timed itself (closed, as `(name, start_s,
    /// end_s)` offsets from the tracer's origin) under the open span. A
    /// recorded span nests inside the innermost other recorded span that
    /// contains it. Returns the new spans' ids, in input order.
    pub fn adopt(&self, spans: &[(String, f64, f64)]) -> Vec<usize> {
        if !self.enabled {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..spans.len()).collect();
        // Outer spans first: by start, the longer of two equal starts first.
        order.sort_by(|&a, &b| {
            spans[a]
                .1
                .total_cmp(&spans[b].1)
                .then(spans[b].2.total_cmp(&spans[a].2))
        });
        let mut st = self.state.borrow_mut();
        let base = st.open.last().copied();
        let mut ids = vec![0; spans.len()];
        let mut enclosing: Vec<usize> = Vec::new();
        for k in order {
            let (name, start_s, end_s) = &spans[k];
            while let Some(&e) = enclosing.last() {
                if st.spans[e].end_s >= *end_s {
                    break;
                }
                enclosing.pop();
            }
            let id = st.spans.len();
            st.spans.push(SpanRec {
                id,
                parent: enclosing.last().copied().or(base),
                name: name.clone(),
                start_s: *start_s,
                end_s: *end_s,
            });
            enclosing.push(id);
            ids[k] = id;
        }
        ids
    }

    /// Record a count at the boundary of span `at`.
    pub fn count_in(&self, at: usize, name: &str, value: f64) {
        if self.enabled {
            self.state
                .borrow_mut()
                .counts
                .push((Some(at), name.to_owned(), value));
        }
    }

    /// Record a count at the current boundary (attached to the open span).
    pub fn count(&self, name: &str, value: f64) {
        if self.enabled {
            let mut st = self.state.borrow_mut();
            let at = st.open.last().copied();
            st.counts.push((at, name.to_owned(), value));
        }
    }

    /// Closed spans in recording order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.state.borrow().spans.clone()
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_s)
            .sum()
    }

    /// Summed self time of every span called `name`: its duration minus
    /// its children's.
    pub fn own_s(&self, name: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children: f64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(SpanRec::dur_s)
                    .sum();
                s.dur_s() - children
            })
            .sum()
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover, summed by layer. Over a tree of spans the values
    /// add up to the root spans' total duration.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_s = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            *out.entry(s.layer().to_owned()).or_insert(0.0) += s.dur_s() - child_s[s.id];
        }
        out
    }

    /// The whole trace as one JSON document: run id, spans, counts and
    /// the per-layer self-time summary.
    pub fn to_json(&self, self_times: &BTreeMap<String, f64>) -> String {
        use jsonlite::Value;
        let st = self.state.borrow();
        let spans = st
            .spans
            .iter()
            .map(|s| {
                Value::object()
                    .with("run", self.run_id.as_str())
                    .with("id", s.id)
                    .with("parent", s.parent.map(Value::from).unwrap_or(Value::Null))
                    .with("name", s.name.as_str())
                    .with("start_s", s.start_s)
                    .with("end_s", s.end_s)
            })
            .collect::<Vec<_>>();
        let counts = st
            .counts
            .iter()
            .map(|(at, name, v)| {
                Value::object()
                    .with("span", at.map(Value::from).unwrap_or(Value::Null))
                    .with("name", name.as_str())
                    .with("value", *v)
            })
            .collect::<Vec<_>>();
        let mut summary = Value::object();
        for (layer, s) in self_times {
            summary = summary.with(layer, *s);
        }
        jsonlite::to_string_pretty(
            &Value::object()
                .with("run", self.run_id.as_str())
                .with("spans", Value::Array(spans))
                .with("counts", Value::Array(counts))
                .with("self_s", summary),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_times_partition_the_root_span() {
        let t = Tracer::new("t".into());
        t.span("core.root", || {
            busy(5);
            t.span("crawler.a", || {
                busy(10);
                t.span("httpnet.b", || busy(10));
            });
            t.span("analysis.c", || busy(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        let selfs = t.self_times();
        let sum: f64 = selfs.values().sum();
        assert!((sum - t.total_s("core.root")).abs() < 1e-9, "{selfs:?}");
        assert!(selfs["crawler"] >= 0.009 && selfs["crawler"] < t.total_s("crawler.a"));
        assert!(selfs["core"] >= 0.004);
        assert!((t.own_s("core.root") - selfs["core"]).abs() < 1e-9);
    }

    #[test]
    fn adopted_spans_nest_by_containment() {
        let t = Tracer::new("t".into());
        t.span("core.root", || {
            let s = |n: &str, a: f64, b: f64| (n.to_owned(), a, b);
            let ids = t.adopt(&[
                s("crawler.phase", 0.2, 0.3),
                s("crawler.crawl", 0.1, 0.5),
                s("analysis.report", 0.5, 0.6),
            ]);
            let spans = t.spans();
            assert_eq!(spans[ids[0]].parent, Some(ids[1]));
            assert_eq!(spans[ids[1]].parent, Some(0));
            assert_eq!(spans[ids[2]].parent, Some(0));
        });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("core.x", || 7), 7);
        t.count("n", 1.0);
        assert!(t.spans().is_empty());
    }
}
