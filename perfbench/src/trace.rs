//! The in-memory span log of a traced run.
//!
//! A traced run records one *op* per session call or set-up (the parent
//! span) and one child span per layer call made on the op's behalf.
//! Everything stays in memory and is reduced to per-layer metrics when
//! the run ends. An untraced log records nothing and runs each closure
//! bare.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One session call.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Whether the op ran in the timed phase (set-up ops do not).
    pub timed: bool,
    /// Start, in ns since the log opened.
    pub start_ns: u64,
    /// End, in ns since the log opened.
    pub end_ns: u64,
}

/// One layer call made while replaying an op.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `cover.solve`.
    pub name: &'static str,
    /// Index of the op that caused it.
    pub op: usize,
    /// Start, in ns since the log opened.
    pub start_ns: u64,
    /// End, in ns since the log opened.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans, per-op records, value observations and counters of one run.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    ops: Vec<OpRecord>,
    spans: Vec<Span>,
    values: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// A log that records when `enabled`, and is inert otherwise.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            ops: Vec::new(),
            spans: Vec::new(),
            values: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an op; returns its index for [`end`](Self::end) and for the
    /// child spans.
    pub fn begin(&mut self, timed: bool) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.offset_ns(Instant::now());
        self.ops.push(OpRecord { timed, start_ns: now, end_ns: now });
        self.ops.len() - 1
    }

    /// Closes op `op`.
    pub fn end(&mut self, op: usize) {
        if self.enabled {
            self.ops[op].end_ns = self.offset_ns(Instant::now());
        }
    }

    /// Runs `f` as a span named `name` under op `op`.
    pub fn span<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.spans.push(Span { name, op, start_ns, end_ns });
        out
    }

    /// Records one observation of a per-call quantity.
    pub fn value(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.values.entry(name).or_default().push(value);
        }
    }

    /// Adds to a work counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += by;
        }
    }

    /// A counter's total (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Median of one quantity's observations.
    pub fn value_median(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|v| median(v))
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Median duration of the spans named `name`, in ms. Spans of timed
    /// ops alone count when there are any, so a layer the timed stream
    /// calls is measured on the stream, and one it never calls on set-up.
    pub fn span_median_ms(&self, name: &str) -> Option<f64> {
        let named = || self.spans.iter().filter(move |s| s.name == name);
        let timed: Vec<f64> = named().filter(|s| self.ops[s.op].timed).map(Span::ms).collect();
        if !timed.is_empty() {
            return median(&timed);
        }
        median(&named().map(Span::ms).collect::<Vec<_>>())
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).sum::<f64>() / 1e3
    }

    /// Median, over the ops that made at least one span named `name`, of
    /// that op's summed span time, in ms — the cost per op of a layer
    /// called once per cached pool.
    pub fn per_op_median_ms(&self, name: &str) -> Option<f64> {
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.ms();
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    }

    /// Mean self time of the timed ops, in ms: each op's duration minus
    /// its replayed child spans.
    pub fn mean_self_ms(&self) -> Option<f64> {
        let mut children = vec![0.0f64; self.ops.len()];
        for span in &self.spans {
            children[span.op] += span.ms();
        }
        let selves: Vec<f64> = self
            .ops
            .iter()
            .zip(&children)
            .filter(|(op, _)| op.timed)
            .map(|(op, child)| (op.end_ns - op.start_ns) as f64 / 1e6 - child)
            .collect();
        if selves.is_empty() {
            return None;
        }
        Some(selves.iter().sum::<f64>() / selves.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    #[test]
    fn inert_log_records_nothing() {
        let mut trace = Trace::new(false);
        let op = trace.begin(true);
        trace.end(op);
        assert_eq!(trace.span(op, "cover.solve", || 7), 7);
        trace.value("cover.pool_elements", 3.0);
        trace.count("model.walks", 5);
        assert_eq!(trace.span_count("cover.solve"), 0);
        assert_eq!(trace.counter("model.walks"), 0);
        assert_eq!(trace.value_median("cover.pool_elements"), None);
    }

    #[test]
    fn self_time_subtracts_children_of_timed_ops() {
        let mut trace = Trace::new(true);
        let setup = trace.begin(false);
        trace.span(setup, "datasets.load", || ());
        trace.end(setup);
        let op = trace.begin(true);
        std::thread::sleep(Duration::from_millis(10));
        trace.end(op);
        trace.span(op, "model.walk_index", || std::thread::sleep(Duration::from_millis(2)));
        trace.span(op, "model.walk_index", || std::thread::sleep(Duration::from_millis(2)));
        let self_ms = trace.mean_self_ms().unwrap();
        assert!(self_ms < 10.0 && self_ms > 0.0, "{self_ms}");
        assert!(trace.per_op_median_ms("model.walk_index").unwrap() >= 4.0);
        assert!(trace.span_median_ms("model.walk_index").unwrap() >= 2.0);
        assert_eq!(trace.span_count("datasets.load"), 1);
    }

    #[test]
    fn span_medians_prefer_timed_ops() {
        let mut trace = Trace::new(true);
        let setup = trace.begin(false);
        trace.span(setup, "graph.csr_build", || std::thread::sleep(Duration::from_millis(20)));
        trace.span(setup, "datasets.load", || std::thread::sleep(Duration::from_millis(2)));
        trace.end(setup);
        let op = trace.begin(true);
        trace.span(op, "graph.csr_build", || ());
        trace.end(op);
        assert!(trace.span_median_ms("graph.csr_build").unwrap() < 20.0);
        assert!(trace.span_median_ms("datasets.load").unwrap() >= 2.0);
        assert_eq!(trace.span_count("graph.csr_build"), 2);
    }
}
