//! Wall-clock spans around the calls the benchmark makes into each layer.
//!
//! Spans stay in memory until the workload process reports them; `perf
//! run` writes them once, at exit, as Chrome trace-event JSON (the format
//! `repro --trace-out` uses; open it in Perfetto or `chrome://tracing`).
//! Every span of one op shares the op id, which is also the track (`tid`)
//! it is drawn on. When tracing is off a span is a plain call: no clock
//! read, nothing recorded.

use crate::report::{json_num, json_str, Row};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u64,
    /// Layer (module) the call enters, e.g. `core.store_io`.
    pub layer: String,
    /// The function called.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every span a plain call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Every span recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Run `f` inside a span named `name` on `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            layer: layer.to_string(),
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Self time of every span of `op` named `name`, summed, in ms: each
    /// span's duration minus the time its direct children cover.
    pub fn self_ms(&self, op: u64, name: &str) -> f64 {
        let mut total_ns = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            if span.op != op || span.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::dur_ns)
                .sum();
            total_ns += span.dur_ns().saturating_sub(children);
        }
        total_ns as f64 / 1e6
    }
}

/// Render `spans` as a Chrome trace-event document. The workload's metric
/// rows ride along under `otherData`.
pub fn chrome_json(workload: &str, spans: &[Span], rows: &[Row]) -> String {
    let mut events = Vec::new();
    let mut ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
    ops.dedup();
    for op in ops {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{op},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("{workload} op {op}"))
        ));
    }
    for span in spans {
        let parent = span
            .parent
            .and_then(|p| spans.get(p))
            .map_or("", |p| p.name.as_str());
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":{},\
             \"name\":{},\"args\":{{\"op\":{},\"parent\":{}}}}}",
            span.op,
            micros(span.start_ns),
            micros(span.dur_ns()),
            json_str(&span.layer),
            json_str(&span.name),
            span.op,
            json_str(parent),
        ));
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                json_str(&row.metric),
                json_num(row.value),
                json_str(&row.unit),
                row.n
            )
        })
        .collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"workload\":{},\"metrics\":{{\n{}\n}}}}}}\n",
        events.join(",\n"),
        json_str(workload),
        metrics.join(",\n"),
    )
}

/// Nanoseconds as fractional microseconds, the trace-event time unit.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        tr.span("outer", "parent", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            tr.span("inner", "child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let parent = tr.self_ms(3, "parent");
        let child = tr.self_ms(3, "child");
        assert!(child >= 20.0, "{child}");
        assert!((1.0..20.0).contains(&parent), "{parent}");
        let row = Row {
            metric: "m".into(),
            value: 1.0,
            unit: "ms".into(),
            n: 1,
        };
        let doc = chrome_json("w", &tr.into_spans(), &[row]);
        let stats = dohperf_telemetry::perfetto::validate_chrome_trace(&doc).expect("valid");
        assert_eq!(stats.complete, 2);
        assert!(doc.contains("\"m\": {\"value\": 1, \"unit\": \"ms\", \"n\": 1}"));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("l", "n", |_| 7), 7);
        assert_eq!(tr.self_ms(0, "n"), 0.0);
        assert!(tr.into_spans().is_empty());
    }
}
