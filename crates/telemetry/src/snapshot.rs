//! Point-in-time snapshots, their stable JSON form, and baseline diffing.
//!
//! The JSON layout is the contract CI gates on: metrics are split into a
//! `"deterministic"` and a `"per_run"` section, keys are sorted, and every
//! value is an exact integer, so two snapshots of the same deterministic
//! workload serialize byte-identically regardless of worker-thread count.

use crate::json::{escape_string, JsonValue};
use crate::metrics::{Determinism, Histogram, HISTOGRAM_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Schema tag embedded in every snapshot document.
const SCHEMA: &str = "dohperf-metrics/1";

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values in microseconds.
    pub sum_micros: u64,
    /// Smallest recorded value (0 when empty).
    pub min_micros: u64,
    /// Largest recorded value.
    pub max_micros: u64,
    /// Sparse bucket counts, keyed by bucket index.
    pub buckets: BTreeMap<usize, u64>,
}

impl HistogramSnapshot {
    /// Freeze a live histogram.
    pub fn of(h: &Histogram) -> Self {
        let mut buckets = BTreeMap::new();
        for i in 0..HISTOGRAM_BUCKETS {
            let n = h.bucket(i);
            if n > 0 {
                buckets.insert(i, n);
            }
        }
        HistogramSnapshot {
            count: h.count(),
            sum_micros: h.sum_micros(),
            min_micros: h.min_micros(),
            max_micros: h.max_micros(),
            buckets,
        }
    }

    /// Mean recorded value in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Combine two histograms recorded over the same bucket layout, as a
    /// merge of the underlying sample multisets.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets.clone();
        for (&i, &n) in &other.buckets {
            *buckets.entry(i).or_insert(0) += n;
        }
        let min_micros = match (self.count, other.count) {
            (0, _) => other.min_micros,
            (_, 0) => self.min_micros,
            _ => self.min_micros.min(other.min_micros),
        };
        HistogramSnapshot {
            count: self.count + other.count,
            sum_micros: self.sum_micros + other.sum_micros,
            min_micros,
            max_micros: self.max_micros.max(other.max_micros),
            buckets,
        }
    }

    /// Subtract an earlier snapshot of the *same* histogram, yielding the
    /// counts recorded in between. `min`/`max` cannot be un-merged, so the
    /// later snapshot's extremes are kept.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (&i, &n) in &self.buckets {
            let delta = n.saturating_sub(earlier.buckets.get(&i).copied().unwrap_or(0));
            if delta > 0 {
                buckets.insert(i, delta);
            }
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_micros: self.sum_micros.saturating_sub(earlier.sum_micros),
            min_micros: self.min_micros,
            max_micros: self.max_micros,
            buckets,
        }
    }
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Determinism class the metric was registered with.
    pub determinism: Determinism,
    /// Frozen value.
    pub value: MetricValue,
}

/// A point-in-time copy of a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricSnapshot>,
}

impl Snapshot {
    /// Counter value by name, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge value by name, if present.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram state by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.metrics.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Metrics of one determinism class, in name order.
    pub fn section(&self, det: Determinism) -> impl Iterator<Item = (&str, &MetricSnapshot)> {
        self.metrics
            .iter()
            .filter(move |(_, m)| m.determinism == det)
            .map(|(name, m)| (name.as_str(), m))
    }

    /// The changes since an `earlier` snapshot of the same registry:
    /// counters and histograms subtract, gauges keep their latest value.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut metrics = BTreeMap::new();
        for (name, m) in &self.metrics {
            let value = match (&m.value, earlier.metrics.get(name).map(|e| &e.value)) {
                (MetricValue::Counter(v), Some(MetricValue::Counter(e))) => {
                    MetricValue::Counter(v.saturating_sub(*e))
                }
                (MetricValue::Histogram(v), Some(MetricValue::Histogram(e))) => {
                    MetricValue::Histogram(v.since(e))
                }
                (value, _) => value.clone(),
            };
            metrics.insert(
                name.clone(),
                MetricSnapshot {
                    determinism: m.determinism,
                    value,
                },
            );
        }
        Snapshot { metrics }
    }

    /// Stable JSON for the whole snapshot (both sections).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", escape_string(SCHEMA));
        let _ = write!(
            out,
            "  \"deterministic\": {},\n  \"per_run\": {}\n}}\n",
            self.section_json(Determinism::Deterministic, 2),
            self.section_json(Determinism::PerRun, 2),
        );
        out
    }

    /// Stable JSON of just the deterministic section — the byte-exact
    /// comparison surface for the `--threads` invariance contract.
    pub fn deterministic_json(&self) -> String {
        self.section_json(Determinism::Deterministic, 0)
    }

    fn section_json(&self, det: Determinism, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let entries: Vec<(&str, &MetricSnapshot)> = self.section(det).collect();
        if entries.is_empty() {
            return "{}".to_string();
        }
        let mut out = String::from("{\n");
        for (i, (name, m)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}    {}: {}{comma}",
                escape_string(name),
                metric_json(m)
            );
        }
        let _ = write!(out, "{pad}  }}");
        out
    }

    /// Parse a snapshot previously written by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc.get("schema").and_then(|v| v.as_str());
        if schema != Some(SCHEMA) {
            return Err(format!("unsupported metrics schema {schema:?}"));
        }
        let mut metrics = BTreeMap::new();
        for det in [Determinism::Deterministic, Determinism::PerRun] {
            let section = doc
                .get(det.section())
                .and_then(|v| v.as_object())
                .ok_or_else(|| format!("missing section {:?}", det.section()))?;
            for (name, value) in section {
                metrics.insert(
                    name.clone(),
                    MetricSnapshot {
                        determinism: det,
                        value: metric_from_json(name, value)?,
                    },
                );
            }
        }
        Ok(Snapshot { metrics })
    }

    /// A human-readable table of every metric.
    pub fn render_table(&self) -> String {
        let mut out =
            String::from("metric                                    class          value\n");
        for det in [Determinism::Deterministic, Determinism::PerRun] {
            for (name, m) in self.section(det) {
                let class = match det {
                    Determinism::Deterministic => "deterministic",
                    Determinism::PerRun => "per-run",
                };
                let value = match &m.value {
                    MetricValue::Counter(v) => format!("counter   {v}"),
                    MetricValue::Gauge(v) => format!("gauge     {v}"),
                    MetricValue::Histogram(h) => format!(
                        "histogram n={} mean={:.3}ms min={:.3}ms max={:.3}ms",
                        h.count,
                        h.mean_ms(),
                        h.min_micros as f64 / 1_000.0,
                        h.max_micros as f64 / 1_000.0,
                    ),
                };
                let _ = writeln!(out, "{name:<41} {class:<14} {value}");
            }
        }
        out
    }

    /// Compare this snapshot's deterministic section against a `baseline`,
    /// exactly and field by field: a counter's or gauge's value, and a
    /// histogram's count, sum, min, max and every bucket count. Metrics
    /// present here but absent from the baseline are reported as new
    /// without failing the comparison — they signal that the baseline
    /// wants regenerating.
    pub fn compare_deterministic(&self, baseline: &Snapshot) -> ComparisonReport {
        let mut drifts = Vec::new();
        let mut new_metrics = Vec::new();
        for (name, base) in baseline.section(Determinism::Deterministic) {
            let mut drift = |field: String, baseline: i128, current: i128| {
                if baseline != current {
                    drifts.push(Drift {
                        metric: name.to_string(),
                        field,
                        baseline,
                        current,
                    });
                }
            };
            let Some(current) = self.metrics.get(name) else {
                drift("presence".into(), 1, 0);
                continue;
            };
            match (&base.value, &current.value) {
                (MetricValue::Counter(b), MetricValue::Counter(c)) => {
                    drift("value".into(), (*b).into(), (*c).into());
                }
                (MetricValue::Gauge(b), MetricValue::Gauge(c)) => {
                    drift("value".into(), (*b).into(), (*c).into());
                }
                (MetricValue::Histogram(b), MetricValue::Histogram(c)) => {
                    drift("count".into(), b.count.into(), c.count.into());
                    drift(
                        "sum_micros".into(),
                        b.sum_micros.into(),
                        c.sum_micros.into(),
                    );
                    drift(
                        "min_micros".into(),
                        b.min_micros.into(),
                        c.min_micros.into(),
                    );
                    drift(
                        "max_micros".into(),
                        b.max_micros.into(),
                        c.max_micros.into(),
                    );
                    let indices: BTreeSet<usize> =
                        b.buckets.keys().chain(c.buckets.keys()).copied().collect();
                    for i in indices {
                        let count = |h: &HistogramSnapshot| h.buckets.get(&i).copied().unwrap_or(0);
                        drift(format!("buckets[{i}]"), count(b).into(), count(c).into());
                    }
                }
                _ => drift("kind".into(), 0, 1),
            }
        }
        for (name, _) in self.section(Determinism::Deterministic) {
            if !baseline.metrics.contains_key(name) {
                new_metrics.push(name.to_string());
            }
        }
        ComparisonReport {
            drifts,
            new_metrics,
        }
    }
}

fn metric_json(m: &MetricSnapshot) -> String {
    match &m.value {
        MetricValue::Counter(v) => format!("{{\"kind\": \"counter\", \"value\": {v}}}"),
        MetricValue::Gauge(v) => format!("{{\"kind\": \"gauge\", \"value\": {v}}}"),
        MetricValue::Histogram(h) => {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(i, n)| format!("\"{i}\": {n}"))
                .collect();
            format!(
                "{{\"kind\": \"histogram\", \"count\": {}, \"sum_micros\": {}, \
                 \"min_micros\": {}, \"max_micros\": {}, \"buckets\": {{{}}}}}",
                h.count,
                h.sum_micros,
                h.min_micros,
                h.max_micros,
                buckets.join(", ")
            )
        }
    }
}

fn metric_from_json(name: &str, v: &JsonValue) -> Result<MetricValue, String> {
    let kind = v
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| format!("metric {name:?} missing kind"))?;
    let field = |f: &str| -> Result<u64, String> {
        v.get(f)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("metric {name:?} missing integer field {f:?}"))
    };
    match kind {
        "counter" => Ok(MetricValue::Counter(field("value")?)),
        "gauge" => Ok(MetricValue::Gauge(
            v.get("value")
                .and_then(|x| x.as_i64())
                .ok_or_else(|| format!("metric {name:?} missing integer value"))?,
        )),
        "histogram" => {
            let mut buckets = BTreeMap::new();
            let raw = v
                .get("buckets")
                .and_then(|b| b.as_object())
                .ok_or_else(|| format!("metric {name:?} missing buckets"))?;
            for (idx, n) in raw {
                let i: usize = idx
                    .parse()
                    .map_err(|e| format!("metric {name:?} bucket {idx:?}: {e}"))?;
                buckets.insert(
                    i,
                    n.as_u64()
                        .ok_or_else(|| format!("metric {name:?} bucket {idx:?} not integer"))?,
                );
            }
            Ok(MetricValue::Histogram(HistogramSnapshot {
                count: field("count")?,
                sum_micros: field("sum_micros")?,
                min_micros: field("min_micros")?,
                max_micros: field("max_micros")?,
                buckets,
            }))
        }
        other => Err(format!("metric {name:?} has unknown kind {other:?}")),
    }
}

/// One field of a deterministic metric that differs from the baseline
/// (or a metric that vanished).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Metric name.
    pub metric: String,
    /// Which field drifted: `value`, `count`, `sum_micros`,
    /// `min_micros`, `max_micros`, `buckets[i]`, `kind` or `presence`.
    pub field: String,
    /// Baseline value.
    pub baseline: i128,
    /// Current value.
    pub current: i128,
}

/// Result of [`Snapshot::compare_deterministic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonReport {
    /// Fields that differ from the baseline.
    pub drifts: Vec<Drift>,
    /// Deterministic metrics present now but absent from the baseline.
    pub new_metrics: Vec<String>,
}

impl ComparisonReport {
    /// Whether the comparison passed.
    pub fn ok(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Human-readable verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            out.push_str("metrics match baseline exactly\n");
        } else {
            out.push_str("METRICS DRIFT from baseline:\n");
            for d in &self.drifts {
                let _ = writeln!(
                    out,
                    "  {}.{}: baseline {} -> current {}",
                    d.metric, d.field, d.baseline, d.current
                );
            }
        }
        if !self.new_metrics.is_empty() {
            let _ = writeln!(
                out,
                "note: {} metric(s) not in baseline (regenerate it to cover them): {}",
                self.new_metrics.len(),
                self.new_metrics.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("a.queries").add(42);
        r.per_run_gauge("a.workers").set(8);
        let h = r.histogram("a.lat_ms");
        h.record_ms(1.0);
        h.record_ms(2.0);
        h.record_ms(1000.0);
        r
    }

    #[test]
    fn json_round_trips() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snap);
        // Re-serialisation is byte-stable.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn sections_are_separated() {
        let snap = sample_registry().snapshot();
        let det = snap.deterministic_json();
        assert!(det.contains("a.queries"));
        assert!(!det.contains("a.workers"));
        assert!(snap.to_json().contains("a.workers"));
    }

    #[test]
    fn since_subtracts_counters_and_histograms() {
        let r = sample_registry();
        let before = r.snapshot();
        r.counter("a.queries").add(8);
        r.histogram("a.lat_ms").record_ms(4.0);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counter_value("a.queries"), Some(8));
        let h = delta.histogram("a.lat_ms").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_micros, 4_000);
    }

    #[test]
    fn histogram_merge_combines_multisets() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum_micros: 30,
            min_micros: 10,
            max_micros: 20,
            buckets: BTreeMap::from([(4, 1), (5, 1)]),
        };
        let b = HistogramSnapshot {
            count: 1,
            sum_micros: 5,
            min_micros: 5,
            max_micros: 5,
            buckets: BTreeMap::from([(3, 1)]),
        };
        let m = a.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_micros, 35);
        assert_eq!(m.min_micros, 5);
        assert_eq!(m.max_micros, 20);
        assert_eq!(m.buckets, BTreeMap::from([(3, 1), (4, 1), (5, 1)]));
        // Merging with an empty histogram keeps the other side's extremes.
        a.count = 0;
        let m = a.merge(&b);
        assert_eq!(m.min_micros, 5);
    }

    #[test]
    fn comparison_flags_drift_exactly() {
        let base = sample_registry().snapshot();
        assert!(base.compare_deterministic(&base).ok());
        let r = sample_registry();
        r.counter("a.queries").add(2);
        let report = r.snapshot().compare_deterministic(&base);
        assert_eq!(
            report.drifts,
            [Drift {
                metric: "a.queries".into(),
                field: "value".into(),
                baseline: 42,
                current: 44,
            }]
        );
        assert!(report
            .render()
            .contains("a.queries.value: baseline 42 -> current 44"));
        // A missing metric fails.
        let report = Snapshot::default().compare_deterministic(&base);
        assert!(report
            .drifts
            .iter()
            .any(|d| d.field == "presence" && d.metric == "a.queries"));
    }

    #[test]
    fn histogram_drift_in_buckets_or_extremes_alone_is_caught() {
        let snapshot = |h: HistogramSnapshot| Snapshot {
            metrics: BTreeMap::from([(
                "h".to_string(),
                MetricSnapshot {
                    determinism: Determinism::Deterministic,
                    value: MetricValue::Histogram(h),
                },
            )]),
        };
        let base = HistogramSnapshot {
            count: 2,
            sum_micros: 30,
            min_micros: 10,
            max_micros: 20,
            buckets: BTreeMap::from([(4, 1), (5, 1)]),
        };
        // Same count, sum, min and max; one value moved to the next bucket.
        let moved = HistogramSnapshot {
            buckets: BTreeMap::from([(5, 2)]),
            ..base.clone()
        };
        let report = snapshot(moved).compare_deterministic(&snapshot(base.clone()));
        let fields: Vec<_> = report.drifts.iter().map(|d| d.field.as_str()).collect();
        assert_eq!(fields, ["buckets[4]", "buckets[5]"]);
        let widened = HistogramSnapshot {
            min_micros: 9,
            max_micros: 21,
            ..base.clone()
        };
        let report = snapshot(widened).compare_deterministic(&snapshot(base));
        let fields: Vec<_> = report.drifts.iter().map(|d| d.field.as_str()).collect();
        assert_eq!(fields, ["min_micros", "max_micros"]);
    }

    #[test]
    fn comparison_reports_new_metrics_without_failing() {
        let base = Snapshot::default();
        let cur = sample_registry().snapshot();
        let report = cur.compare_deterministic(&base);
        assert!(report.ok());
        assert!(report.new_metrics.contains(&"a.queries".to_string()));
        assert!(report.render().contains("regenerate"));
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let table = sample_registry().snapshot().render_table();
        for name in ["a.queries", "a.workers", "a.lat_ms"] {
            assert!(table.contains(name), "{table}");
        }
    }

    #[test]
    fn from_json_rejects_unknown_schema() {
        let err = Snapshot::from_json("{\"schema\": \"bogus/9\"}").unwrap_err();
        assert!(err.contains("unsupported metrics schema"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_sections_and_kinds() {
        let err = Snapshot::from_json("{\"schema\": \"dohperf-metrics/1\", \"per_run\": {}}")
            .unwrap_err();
        assert!(err.contains("missing section"), "{err}");
        let err = Snapshot::from_json(
            "{\"schema\": \"dohperf-metrics/1\", \
             \"deterministic\": {\"x\": {\"kind\": \"dial\", \"value\": 1}}, \"per_run\": {}}",
        )
        .unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
    }

    #[test]
    fn comparison_flags_kind_mismatch() {
        let base = sample_registry().snapshot();
        let r = Registry::new();
        r.gauge("a.queries").set(42); // was a counter in the baseline
        r.histogram("a.lat_ms").record_ms(1.0);
        let report = r.snapshot().compare_deterministic(&base);
        assert!(report
            .drifts
            .iter()
            .any(|d| d.metric == "a.queries" && d.field == "kind"));
    }

    #[test]
    fn since_keeps_latest_gauge_value() {
        let r = sample_registry();
        let before = r.snapshot();
        r.per_run_gauge("a.workers").set(3);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.gauge_value("a.workers"), Some(3));
    }

    #[test]
    fn histogram_since_subtracts_bucketwise() {
        let h = Histogram::new();
        h.record_ms(1.0);
        let early = HistogramSnapshot::of(&h);
        h.record_ms(1.0);
        h.record_ms(500.0);
        let late = HistogramSnapshot::of(&h);
        let delta = late.since(&early);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_micros, 501_000);
        assert_eq!(delta.buckets.values().sum::<u64>(), 2);
    }
}
