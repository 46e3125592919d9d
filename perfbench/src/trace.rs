//! In-memory spans and counters recorded by the benchmark around its
//! calls into each layer, written out at the end as Chrome trace-event
//! JSON (loadable in Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Which pass recorded it (one timeline row per pass).
    pub pass: u32,
}

/// Records spans relative to one origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        pass: u32,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            pass,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a root span timed elsewhere (e.g. on a caller thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
        request: u64,
        pass: u32,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: None,
            request,
            pass,
        });
    }

    /// Runs `f` inside a child span of `parent`; returns its result and
    /// duration in ns.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        pass: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, request, pass);
        let result = f();
        (result, self.end(id))
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span,
    /// timestamps in µs, parent span and request id under `args`.
    pub fn chrome_json(&self, pass_names: &[&str]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (pass, name) in pass_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{pass},\"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{id},\"parent\":{parent},\"request\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.pass,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request,
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Self time per span name: duration minus the part covered by the
    /// span's children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }
}

/// Per-layer samples, keyed by metric name.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::stats::median(v))
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_has_one_event_per_span_and_self_times_subtract_children() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("op", None, 7, 0);
        let ((), _) = tracer.time("stg.reach", Some(root), 7, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tracer.end(root);
        let json = tracer.chrome_json(&["flow"]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0,\"request\":7"));
        let selfs = tracer.self_times();
        assert!(selfs["stg.reach"].1 >= 2_000_000);
        assert!(selfs["op"].1 < selfs["stg.reach"].1);
    }
}
