//! # dohperf-telemetry
//!
//! A dependency-light, thread-safe telemetry substrate for the `dohperf`
//! workspace: a metrics registry (atomic counters, gauges, and fixed-bucket
//! log-scale histograms) plus a per-query flight recorder.
//!
//! The paper this workspace reproduces is a measurement study; related
//! measurement pipelines (Böttger et al., Hounsel et al.) work because every
//! protocol stage is separately timed and counted. This crate gives the
//! reproduction the same property — and because the simulation is
//! deterministic, most of the telemetry is too.
//!
//! ## Determinism classes
//!
//! Every metric is registered as either
//!
//! * [`Determinism::Deterministic`] — the value is a pure function of the
//!   campaign seed and configuration. Counters of simulated events (queries
//!   issued, cache hits, fault drops) and histograms of *simulated-time*
//!   durations belong here. No wall clock ever feeds a deterministic
//!   metric, so the recorded values are identical for any worker-thread
//!   count: atomic `u64` addition is associative, so even racing updates
//!   merge to the same totals.
//! * [`Determinism::PerRun`] — anything touched by the host machine: worker
//!   wall-clock timings, benchmark medians, thread counts.
//!
//! [`Snapshot::to_json`] keeps the two classes in separate JSON sections so
//! CI can gate byte-exactly on the deterministic section while humans still
//! see the per-run numbers.
//!
//! ## Quick example
//!
//! ```
//! use dohperf_telemetry as telemetry;
//!
//! // Cached handle: the registry lookup happens once per call site.
//! telemetry::counter!("example.queries").add(3);
//! telemetry::histogram!("example.latency_ms").record_ms(12.5);
//!
//! let snap = telemetry::global().snapshot();
//! assert_eq!(snap.counter_value("example.queries"), Some(3));
//! let json = snap.to_json();
//! assert!(json.contains("example.queries"));
//! ```
//!
//! ## Flight recorder
//!
//! [`flight`] is the per-query structured tracer: span *trees* with
//! deterministic trace/span IDs and simulated-time stamps, recorded
//! thread-locally for sampled queries. [`perfetto`] renders collected
//! trees as Chrome trace-event JSON (and validates such documents), and
//! [`phases`] is the wall-clock (per-run) hierarchical phase profiler
//! that rides along in the metrics snapshot.
//!
//! ## Windowed series
//!
//! [`windows`] keys deterministic counters and latency histograms by
//! simulated-time window (`window.<index>.*` names), so longitudinal
//! per-hour series ride along in the ordinary snapshot/baseline
//! machinery instead of needing a parallel storage layer.

pub mod alloc;
pub mod flight;
mod json;
mod metrics;
pub mod perfetto;
pub mod phases;
mod registry;
pub mod scheduler;
mod snapshot;
pub mod windows;

pub use json::JsonValue;
pub use metrics::{
    bucket_index, bucket_lower_bound_micros, bucket_upper_bound_micros, Counter, Determinism,
    Gauge, Histogram, HISTOGRAM_BUCKETS,
};
pub use registry::{global, Registry};
pub use snapshot::{
    ComparisonReport, Drift, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot,
};

/// Write the global registry's snapshot as stable JSON to `path`.
///
/// Convenience used by the `repro` binary and the bench harness so both
/// emit the same schema.
pub fn write_snapshot(path: &std::path::Path) -> std::io::Result<Snapshot> {
    let snap = global().snapshot();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, snap.to_json())?;
    Ok(snap)
}

/// Cached deterministic [`Counter`] handle for a static call site.
///
/// Expands to a `OnceLock`-backed lookup: the registry mutex is taken once
/// per call site, after which increments are a single atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().counter($name))
    }};
    ($name:expr, per_run) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().per_run_counter($name))
    }};
}

/// Cached [`Gauge`] handle for a static call site (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().gauge($name))
    }};
    ($name:expr, per_run) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().per_run_gauge($name))
    }};
}

/// Cached [`Histogram`] handle for a static call site (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().histogram($name))
    }};
    ($name:expr, per_run) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().per_run_histogram($name))
    }};
}
