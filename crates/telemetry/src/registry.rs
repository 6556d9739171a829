//! The metric registry.
//!
//! One process-wide [`Registry`] (reachable via [`global`]) maps names to
//! leaked `'static` metric handles. Registration takes a mutex once per
//! call site (the `counter!`/`gauge!`/`histogram!` macros cache the
//! returned reference), after which every update is a single atomic op.

use crate::metrics::{Counter, Determinism, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

enum Entry {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, (Entry, Determinism)>>,
}

impl Registry {
    /// An empty registry. Most code wants [`global`] instead.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T, F, G>(&self, name: &str, det: Determinism, make: F, extract: G) -> &'static T
    where
        F: FnOnce() -> Entry,
        G: Fn(&Entry) -> Option<&'static T>,
    {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let (entry, have_det) = inner
            .entry(name.to_string())
            .or_insert_with(|| (make(), det));
        match extract(entry) {
            Some(metric) => {
                assert!(
                    *have_det == det,
                    "metric {name:?} registered as {have_det:?}, requested {det:?}"
                );
                metric
            }
            None => panic!(
                "metric {name:?} already registered as a {}, requested another kind",
                entry.kind()
            ),
        }
    }

    /// Register (or fetch) a deterministic counter.
    pub fn counter(&self, name: &str) -> &'static Counter {
        self.counter_with(name, Determinism::Deterministic)
    }

    /// Register (or fetch) a per-run counter.
    pub fn per_run_counter(&self, name: &str) -> &'static Counter {
        self.counter_with(name, Determinism::PerRun)
    }

    /// Register (or fetch) a counter with an explicit determinism class.
    fn counter_with(&self, name: &str, det: Determinism) -> &'static Counter {
        self.register(
            name,
            det,
            || Entry::Counter(Box::leak(Box::new(Counter::new()))),
            |e| match e {
                Entry::Counter(c) => Some(*c),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a deterministic gauge.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        self.gauge_with(name, Determinism::Deterministic)
    }

    /// Register (or fetch) a per-run gauge.
    pub fn per_run_gauge(&self, name: &str) -> &'static Gauge {
        self.gauge_with(name, Determinism::PerRun)
    }

    /// Register (or fetch) a gauge with an explicit determinism class.
    fn gauge_with(&self, name: &str, det: Determinism) -> &'static Gauge {
        self.register(
            name,
            det,
            || Entry::Gauge(Box::leak(Box::new(Gauge::new()))),
            |e| match e {
                Entry::Gauge(g) => Some(*g),
                _ => None,
            },
        )
    }

    /// Register (or fetch) a deterministic histogram.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        self.histogram_with(name, Determinism::Deterministic)
    }

    /// Register (or fetch) a per-run histogram.
    pub fn per_run_histogram(&self, name: &str) -> &'static Histogram {
        self.histogram_with(name, Determinism::PerRun)
    }

    /// Register (or fetch) a histogram with an explicit determinism class.
    fn histogram_with(&self, name: &str, det: Determinism) -> &'static Histogram {
        self.register(
            name,
            det,
            || Entry::Histogram(Box::leak(Box::new(Histogram::new()))),
            |e| match e {
                Entry::Histogram(h) => Some(*h),
                _ => None,
            },
        )
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut metrics = BTreeMap::new();
        for (name, (entry, det)) in inner.iter() {
            let value = match entry {
                Entry::Counter(c) => MetricValue::Counter(c.get()),
                Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                Entry::Histogram(h) => MetricValue::Histogram(HistogramSnapshot::of(h)),
            };
            metrics.insert(
                name.clone(),
                MetricSnapshot {
                    determinism: *det,
                    value,
                },
            );
        }
        Snapshot { metrics }
    }

    /// Zero every metric, keeping registrations (test/bench support).
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("registry poisoned");
        for (entry, _) in inner.values() {
            match entry {
                Entry::Counter(c) => c.reset(),
                Entry::Gauge(g) => g.reset(),
                Entry::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry all instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x") as *const Counter;
        let b = r.counter("x") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn determinism_conflict_panics() {
        let r = Registry::new();
        r.counter("x");
        r.per_run_counter("x");
    }

    #[test]
    fn snapshot_sees_updates() {
        let r = Registry::new();
        r.counter("c").add(2);
        r.gauge("g").set(-7);
        r.histogram("h").record_ms(1.0);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("c"), Some(2));
        assert_eq!(snap.gauge_value("g"), Some(-7));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        r.counter("c").add(2);
        r.reset();
        assert_eq!(r.snapshot().counter_value("c"), Some(0));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = Registry::new();
        let c = r.counter("racy");
        let h = r.histogram("racy_hist");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record_micros(i % 64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        assert_eq!(
            h.sum_micros(),
            8 * (0..10_000u64).map(|i| i % 64).sum::<u64>()
        );
    }
}
