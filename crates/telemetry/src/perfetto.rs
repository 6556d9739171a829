//! Chrome trace-event (Perfetto-loadable) export and validation.
//!
//! [`to_chrome_trace`] renders a set of [`QueryTrace`] span trees as the
//! JSON object format of the Trace Event spec — `{"traceEvents": [...]}` —
//! which both `chrome://tracing` and [ui.perfetto.dev] open directly.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//!
//! Mapping:
//!
//! * each query becomes a **thread** (`tid` = client id, `pid` = 1), named
//!   by an `M` metadata event, so one query's span tree nests visually on
//!   one track;
//! * each span becomes an `X` complete event (`ts` + `dur`, microseconds);
//!   nesting is implied by containment on the same `tid`;
//! * each span point event becomes an `i` instant event (thread scope);
//! * span attributes land in `args`.
//!
//! The rendering is **byte-deterministic**: timestamps are simulated
//! nanoseconds formatted as fixed-point microseconds (`ns/1000` with a
//! three-digit fractional remainder) — no float formatting of times, no
//! wall clock, no map iteration of unstable order. Traces are sorted by
//! `(tid, ts, span id)` before rendering so the output is independent of
//! collection order and thus of `--threads`.
//!
//! [`validate_chrome_trace`] is the structural checker every trace row
//! of `repro gate` runs: well-formed JSON, mandatory keys, non-negative `dur`,
//! matched `B`/`E` pairs per thread, and per-thread monotonic `ts`.

use crate::flight::QueryTrace;
use crate::json::{escape_string, JsonValue};
use std::fmt::Write as _;

/// Render nanoseconds as fixed-point microseconds (`123.456`), the unit
/// the trace-event spec expects, without going through `f64`.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render `traces` as a Chrome trace-event JSON document.
///
/// The output is byte-identical for the same logical set of traces in any
/// order (they are re-sorted by client id internally).
pub fn to_chrome_trace(traces: &[QueryTrace]) -> String {
    let mut ordered: Vec<&QueryTrace> = traces.iter().collect();
    ordered.sort_by_key(|t| (t.client_id, t.trace_id.0));

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    for trace in &ordered {
        // Name the track after the query so Perfetto's timeline is legible.
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                trace.client_id,
                escape_string(&format!(
                    "client {} [{}] trace {}",
                    trace.client_id,
                    trace.country_iso,
                    trace.trace_id.to_hex()
                )),
            ),
        );
        // Collect the track's events, then stable-sort by timestamp:
        // span point events attach in recording order (often later than
        // child span starts), but the document must keep `ts`
        // monotonic per track. Ties keep creation order — stable.
        let mut lines: Vec<(u64, String)> = Vec::new();
        for span in &trace.spans {
            let mut line = format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":{},\"name\":{}",
                trace.client_id,
                micros(span.start_nanos),
                micros(span.end_nanos.saturating_sub(span.start_nanos)),
                escape_string(span.target),
                escape_string(&span.name),
            );
            if !span.attrs.is_empty() {
                line.push_str(",\"args\":{");
                for (i, (key, value)) in span.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{}:{}", escape_string(key), escape_string(value));
                }
                line.push('}');
            }
            line.push('}');
            lines.push((span.start_nanos, line));
            for event in &span.events {
                lines.push((
                    event.at_nanos,
                    format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"cat\":{},\"name\":{}}}",
                        trace.client_id,
                        micros(event.at_nanos),
                        escape_string(span.target),
                        escape_string(&event.label),
                    ),
                ));
            }
        }
        lines.sort_by_key(|&(at, _)| at);
        for (_, line) in lines {
            push(&mut out, line);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Summary statistics returned by a successful validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events of any phase.
    pub events: usize,
    /// `X` complete events.
    pub complete: usize,
    /// `i` instant events.
    pub instants: usize,
    /// Distinct `tid`s observed.
    pub tracks: usize,
}

/// Structurally validate a Chrome trace-event JSON document.
///
/// Checks, in order:
///
/// 1. the document parses and has a `traceEvents` array;
/// 2. every event is an object with string `ph` and `name`;
/// 3. every non-metadata event has a numeric, non-negative `ts`;
/// 4. `X` events have a non-negative `dur`;
/// 5. `B`/`E` events are properly nested per `tid` (every `E` matches the
///    innermost open `B` of the same name, none left open);
/// 6. per `tid`, `ts` never decreases in document order (metadata exempt).
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        Some(_) => return Err("traceEvents is not an array".to_string()),
        None => return Err("missing traceEvents array".to_string()),
    };

    let mut stats = TraceStats {
        events: 0,
        complete: 0,
        instants: 0,
        tracks: 0,
    };
    // Per-tid state: last ts seen and the open B-span name stack.
    let mut last_ts: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    let mut open: std::collections::BTreeMap<i64, Vec<String>> = std::collections::BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} missing ph"))?;
        obj.get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i} missing name"))?;
        stats.events += 1;
        if ph == "M" {
            continue;
        }
        let tid = obj
            .get("tid")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| format!("event {i} missing tid"))?;
        let ts = match obj.get("ts") {
            Some(JsonValue::Integer(n)) => *n as f64,
            Some(JsonValue::Float(f)) => *f,
            _ => return Err(format!("event {i} missing numeric ts")),
        };
        if ts < 0.0 {
            return Err(format!("event {i} has negative ts {ts}"));
        }
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i} on tid {tid}: ts {ts} decreases below {prev}"
            ));
        }
        *prev = ts;
        match ph {
            "X" => {
                stats.complete += 1;
                match obj.get("dur") {
                    Some(JsonValue::Integer(d)) if *d >= 0 => {}
                    Some(JsonValue::Float(d)) if *d >= 0.0 => {}
                    Some(_) => return Err(format!("event {i} has negative or bad dur")),
                    None => return Err(format!("X event {i} missing dur")),
                }
            }
            "i" | "I" => stats.instants += 1,
            "B" => {
                let name = obj.get("name").and_then(|v| v.as_str()).unwrap_or("");
                open.entry(tid).or_default().push(name.to_string());
            }
            "E" => {
                let name = obj.get("name").and_then(|v| v.as_str()).unwrap_or("");
                match open.entry(tid).or_default().pop() {
                    Some(opened) if opened == name || name.is_empty() => {}
                    Some(opened) => {
                        return Err(format!(
                            "event {i} on tid {tid}: E {name:?} does not match open B {opened:?}"
                        ))
                    }
                    None => return Err(format!("event {i} on tid {tid}: E without open B")),
                }
            }
            other => {
                return Err(format!("event {i} has unsupported phase {other:?}"));
            }
        }
    }
    for (tid, stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} B event(s) never closed ({:?})",
                stack.len(),
                stack.last().unwrap()
            ));
        }
    }
    stats.tracks = last_ts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{self, TraceId};

    fn sample_trace(client_id: u64) -> QueryTrace {
        flight::begin(TraceId(client_id * 7 + 1), client_id, "US");
        let root = flight::start_span("campaign", "query", 0);
        let child = flight::start_span("proxy", "doh google", 1_000);
        flight::attr(child, "t_doh_ms", "175");
        flight::event("T_B", 140_000_000);
        flight::end_span(child, 430_000_000);
        flight::end_span(root, 430_000_000);
        flight::take().unwrap()
    }

    #[test]
    fn export_validates_and_is_order_independent() {
        let a = sample_trace(3);
        let b = sample_trace(9);
        let fwd = to_chrome_trace(&[a.clone(), b.clone()]);
        let rev = to_chrome_trace(&[b, a]);
        assert_eq!(fwd, rev, "export must not depend on collection order");
        let stats = validate_chrome_trace(&fwd).unwrap();
        assert_eq!(stats.complete, 4);
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.tracks, 2);
        assert!(fwd.contains("\"dns\"") || fwd.contains("doh google"));
        assert!(fwd.contains("t_doh_ms"));
    }

    #[test]
    fn micros_is_fixed_point() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(430_000_000), "430000.000");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": 5}"#).is_err());
        // X without dur.
        let bad = r#"{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
        // Decreasing ts on one tid.
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":10,"dur":1,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":5,"dur":1,"name":"b"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("decreases"));
        // E without B, and unclosed B.
        let bad = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":1,"ts":0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("without open B"));
        let bad = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"ts":0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("never closed"));
    }

    #[test]
    fn validator_accepts_matched_b_e_pairs() {
        let ok = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":0,"name":"outer"},
            {"ph":"B","pid":1,"tid":1,"ts":1,"name":"inner"},
            {"ph":"E","pid":1,"tid":1,"ts":2,"name":"inner"},
            {"ph":"E","pid":1,"tid":1,"ts":3,"name":"outer"}]}"#;
        let stats = validate_chrome_trace(ok).unwrap();
        assert_eq!(stats.events, 4);
        // Different tids keep independent ts ordering.
        let ok = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":100,"dur":1,"name":"a"},
            {"ph":"X","pid":1,"tid":2,"ts":5,"dur":1,"name":"b"}]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }
}
