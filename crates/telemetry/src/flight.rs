//! The per-query flight recorder: deterministic span trees.
//!
//! The flight recorder captures the full life of **one query** as a tree
//! of spans — the structured trace the `repro --trace-out` Perfetto
//! export and the `repro explain` subcommand consume.
//!
//! # Determinism contract
//!
//! Nothing in this module reads a wall clock or mints random identifiers.
//!
//! * **Trace IDs** are supplied by the caller to [`begin`]. The campaign
//!   derives each one as a pure function of `(seed, country ISO, client
//!   id)` with the simulator RNG's FNV-1a + splitmix64 mixing, so this
//!   crate stays dependency-free.
//! * **Span IDs** are the 0-based creation ordinals within one query's
//!   recording. A query is always measured on a single worker thread
//!   (campaign shards are single-threaded internally), so creation order
//!   is a pure function of the simulation.
//! * **Timestamps** are simulated nanoseconds supplied by the caller.
//!
//! Consequently a recorded [`QueryTrace`] — and any byte stream rendered
//! from it — is identical for every `--threads` value.
//!
//! # Recording model
//!
//! The recorder is **thread-local and scoped**: [`begin`] arms recording
//! for the current thread, instrumentation sites call the free functions
//! ([`start_span`], [`end_span`], [`event`], [`attr`], …) which are cheap
//! no-ops while no recording is armed, and [`take`] disarms and returns
//! the finished tree. Instrumentation that must build strings should gate
//! on [`active`] so the un-sampled hot path pays one thread-local read.

use std::cell::RefCell;

/// Deterministic 64-bit trace identifier (one per recorded query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Stable hex rendering used in exports.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A span's position in its query's tree (creation ordinal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// Handle returned by [`start_span`]; pass it back to [`end_span`],
/// [`attr`] and [`event_on`]. The no-op token (returned while recording
/// is inactive) is accepted — and ignored — by every consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(u32);

impl SpanToken {
    /// The token handed out while recording is inactive.
    pub const NOOP: SpanToken = SpanToken(u32::MAX);
}

/// A point annotation inside a span (simulated time).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Simulated timestamp, nanoseconds.
    pub at_nanos: u64,
    /// Human-readable label (packet, header timestamp, scheduler step…).
    pub label: String,
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Creation ordinal within the query.
    pub id: SpanId,
    /// Parent span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Emitting subsystem (`"campaign"`, `"proxy"`, `"netsim"`, …).
    pub target: &'static str,
    /// Span name.
    pub name: String,
    /// Simulated start, nanoseconds.
    pub start_nanos: u64,
    /// Simulated end, nanoseconds (>= start; equal for instant spans).
    pub end_nanos: u64,
    /// Key/value annotations (equation lines, header values, leg timings).
    pub attrs: Vec<(&'static str, String)>,
    /// Point events that occurred while the span was open.
    pub events: Vec<SpanEvent>,
}

/// The finished span tree of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Deterministic identifier, supplied to [`begin`].
    pub trace_id: TraceId,
    /// Globally stable client id of the measured exit node.
    pub client_id: u64,
    /// Country the client was requested in.
    pub country_iso: &'static str,
    /// Spans in creation order; index == `SpanId.0`. Span 0 is the root.
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// The root span (panics on an empty trace, which [`take`] never
    /// returns).
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }

    /// Total simulated duration covered by the root span, milliseconds.
    pub fn duration_ms(&self) -> f64 {
        let r = self.root();
        (r.end_nanos.saturating_sub(r.start_nanos)) as f64 / 1e6
    }

    /// Children of `id` in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }
}

/// Decide 1-in-`every` sampling for a client, keyed off the query RNG
/// lineage without perturbing it: the caller passes a value drawn from a
/// *fork* of the client stream (forking is position-independent), and the
/// decision is a pure function of that draw.
pub fn sampled(fork_draw: u64, every: u64) -> bool {
    every > 0 && fork_draw.is_multiple_of(every)
}

struct Recorder {
    trace: QueryTrace,
    /// Indices of currently-open spans, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm recording for the current thread. Any previous unfinished
/// recording on this thread is discarded.
pub fn begin(trace_id: TraceId, client_id: u64, country_iso: &'static str) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Recorder {
            trace: QueryTrace {
                trace_id,
                client_id,
                country_iso,
                spans: Vec::new(),
            },
            open: Vec::new(),
        });
    });
}

/// Whether a recording is armed on this thread. Instrumentation sites
/// that build strings should check this first.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Open a span as a child of the innermost open span. Returns
/// [`SpanToken::NOOP`] when recording is inactive.
pub fn start_span(target: &'static str, name: impl Into<String>, at_nanos: u64) -> SpanToken {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(rec) = cur.as_mut() else {
            return SpanToken::NOOP;
        };
        let id = rec.trace.spans.len() as u32;
        let parent = rec.open.last().map(|&i| SpanId(i));
        rec.trace.spans.push(SpanRecord {
            id: SpanId(id),
            parent,
            target,
            name: name.into(),
            start_nanos: at_nanos,
            end_nanos: at_nanos,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        rec.open.push(id);
        SpanToken(id)
    })
}

/// Close a span. Out-of-order closes are tolerated (the span is removed
/// from the open stack wherever it sits). End times never precede starts.
pub fn end_span(token: SpanToken, at_nanos: u64) {
    if token == SpanToken::NOOP {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(rec) = cur.as_mut() else { return };
        if let Some(span) = rec.trace.spans.get_mut(token.0 as usize) {
            span.end_nanos = at_nanos.max(span.start_nanos);
        }
        rec.open.retain(|&i| i != token.0);
    });
}

/// Attach a key/value annotation to a span.
pub fn attr(token: SpanToken, key: &'static str, value: impl Into<String>) {
    if token == SpanToken::NOOP {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(rec) = cur.as_mut() else { return };
        if let Some(span) = rec.trace.spans.get_mut(token.0 as usize) {
            span.attrs.push((key, value.into()));
        }
    });
}

/// Record a point event on the innermost open span (no-op when nothing is
/// open or recording is inactive).
pub fn event(label: impl Into<String>, at_nanos: u64) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(rec) = cur.as_mut() else { return };
        let Some(&open) = rec.open.last() else { return };
        rec.trace.spans[open as usize].events.push(SpanEvent {
            at_nanos,
            label: label.into(),
        });
    });
}

/// Record a point event on a specific span.
pub fn event_on(token: SpanToken, label: impl Into<String>, at_nanos: u64) {
    if token == SpanToken::NOOP {
        return;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(rec) = cur.as_mut() else { return };
        if let Some(span) = rec.trace.spans.get_mut(token.0 as usize) {
            span.events.push(SpanEvent {
                at_nanos,
                label: label.into(),
            });
        }
    });
}

/// Disarm recording and return the finished tree, or `None` when nothing
/// was armed or no span was ever opened. Spans still open are closed at
/// the latest end time seen anywhere in the trace.
pub fn take() -> Option<QueryTrace> {
    CURRENT.with(|c| {
        let rec = c.borrow_mut().take()?;
        let mut trace = rec.trace;
        if trace.spans.is_empty() {
            return None;
        }
        let latest = trace
            .spans
            .iter()
            .map(|s| s.end_nanos)
            .chain(
                trace
                    .spans
                    .iter()
                    .flat_map(|s| s.events.iter().map(|e| e.at_nanos)),
            )
            .max()
            .unwrap_or(0);
        for idx in rec.open {
            if let Some(span) = trace.spans.get_mut(idx as usize) {
                span.end_nanos = latest.max(span.start_nanos);
            }
        }
        Some(trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Attach a key/value annotation to the query's root span.
    fn root_attr(key: &'static str, value: impl Into<String>) {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(rec) = cur.as_mut() else { return };
            if let Some(span) = rec.trace.spans.first_mut() {
                span.attrs.push((key, value.into()));
            }
        });
    }

    #[test]
    fn inactive_recording_is_a_noop() {
        assert!(!active());
        let tok = start_span("t", "phase", 0);
        assert_eq!(tok, SpanToken::NOOP);
        end_span(tok, 10);
        event("nothing", 5);
        assert!(take().is_none());
    }

    #[test]
    fn spans_nest_by_open_order() {
        begin(TraceId(1), 42, "US");
        let root = start_span("campaign", "query", 0);
        let child = start_span("proxy", "doh", 100);
        event("packet", 150);
        let grandchild = start_span("netsim", "rtt", 160);
        end_span(grandchild, 170);
        end_span(child, 200);
        end_span(root, 300);
        let trace = take().unwrap();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(SpanId(0)));
        assert_eq!(trace.spans[2].parent, Some(SpanId(1)));
        assert_eq!(trace.spans[1].events.len(), 1);
        assert_eq!(trace.spans[1].events[0].label, "packet");
        assert_eq!(trace.root().end_nanos, 300);
        assert_eq!(trace.children(SpanId(0)).count(), 1);
    }

    #[test]
    fn take_closes_dangling_spans_at_latest_time() {
        begin(TraceId(2), 1, "BR");
        let root = start_span("campaign", "query", 0);
        let _dangling = start_span("proxy", "never-closed", 50);
        end_span(root, 500);
        let trace = take().unwrap();
        assert_eq!(trace.spans[1].end_nanos, 500);
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_draw() {
        assert!(sampled(0, 4));
        assert!(!sampled(1, 4));
        assert!(sampled(8, 4));
        assert!(!sampled(8, 0), "every = 0 disables sampling");
        assert!(sampled(123, 1), "every = 1 records everything");
    }

    #[test]
    fn begin_discards_previous_recording() {
        begin(TraceId(3), 1, "ID");
        start_span("t", "old", 0);
        begin(TraceId(4), 2, "IN");
        let root = start_span("t", "new", 0);
        end_span(root, 1);
        let trace = take().unwrap();
        assert_eq!(trace.trace_id, TraceId(4));
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "new");
    }

    #[test]
    fn attrs_reach_their_spans() {
        begin(TraceId(5), 1, "US");
        let root = start_span("t", "query", 0);
        root_attr("country", "US");
        let child = start_span("t", "leg", 1);
        attr(child, "rtt_ms", "80");
        end_span(child, 2);
        end_span(root, 3);
        let trace = take().unwrap();
        assert_eq!(trace.spans[0].attrs, vec![("country", "US".to_string())]);
        assert_eq!(trace.spans[1].attrs, vec![("rtt_ms", "80".to_string())]);
    }

    #[test]
    fn empty_recording_yields_none() {
        begin(TraceId(6), 1, "US");
        assert!(take().is_none());
    }
}
