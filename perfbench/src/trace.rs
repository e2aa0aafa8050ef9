//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates (nothing inside the program is instrumented), kept in
//! memory while the workload runs, and written out once at the end. Each
//! span has a name, start and end, the span that caused it, and, for
//! serving, the id of the request it belongs to.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `"pim.mvm"`.
    pub name: &'static str,
    /// When the span opened.
    pub start: Instant,
    /// When the span closed.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (serving only).
    pub request: Option<u64>,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Records nested spans: [`Tracer::open`] makes the innermost open span
/// the new span's parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span now, nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, request: None });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Records a span whose interval was measured elsewhere (e.g. on the
    /// serving batcher thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children (children of one span never overlap here).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration().saturating_sub(c)).collect()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::ms(s.duration()))
            .collect()
    }

    /// Self times in ms of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| crate::stats::ms(t))
            .collect()
    }

    /// For every span called `parent_name`, the summed duration in ms of
    /// its direct children called `child_name`.
    pub fn child_sums_ms(&self, parent_name: &str, child_name: &str) -> Vec<f64> {
        let mut sums = vec![Duration::ZERO; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.name == child_name) {
            if let Some(p) = span.parent {
                sums[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(sums)
            .filter(|(s, _)| s.name == parent_name)
            .map(|(_, d)| crate::stats::ms(d))
            .collect()
    }

    /// Renders the spans as a JSON array of
    /// `[name, start_ns, end_ns, parent, request]` rows, times relative
    /// to the tracer's creation.
    pub fn spans_json(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{}]",
                s.name,
                ns(s.start),
                ns(s.end),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let t0 = Instant::now();
        let root = t.record("root", t0, t0 + Duration::from_millis(10), None, None);
        t.record("child", t0, t0 + Duration::from_millis(3), Some(root), None);
        t.record(
            "child",
            t0 + Duration::from_millis(4),
            t0 + Duration::from_millis(8),
            Some(root),
            None,
        );
        assert_eq!(t.self_ms("root"), vec![3.0]);
        assert_eq!(t.child_sums_ms("root", "child"), vec![7.0]);
        assert_eq!(t.durations_ms("child").len(), 2);
    }

    #[test]
    fn open_nests_in_the_innermost_span() {
        let mut t = Tracer::default();
        let a = t.open("a");
        let b = t.open("b");
        t.close(b);
        t.close(a);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert_eq!(t.spans()[a].parent, None);
        assert!(t.spans_json().starts_with("[[\"a\","));
    }
}
