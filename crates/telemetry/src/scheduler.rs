//! Scheduler utilization observability for the work-stealing pool.
//!
//! The campaign's workers already log a throughput line each; this
//! module turns the pool's behaviour into *metrics*: per-worker busy and
//! idle wall-clock, ranges and clients processed, and successful steal
//! counts, all published under a structured per-run name prefix:
//!
//! ```text
//! scheduler.worker.<index>.busy_ms    gauge (per-run)
//! scheduler.worker.<index>.idle_ms    gauge (per-run)
//! scheduler.worker.<index>.ranges     gauge (per-run)
//! scheduler.worker.<index>.clients    gauge (per-run)
//! scheduler.worker.<index>.steals     gauge (per-run)
//! ```
//!
//! Everything here is wall-clock derived, so every metric is
//! [`Determinism::PerRun`] — the utilization report is a per-run
//! diagnostic, never part of the byte-exact baseline gate.
//!
//! [`Determinism::PerRun`]: crate::Determinism::PerRun

use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Canonical metric-name prefix for a worker index (zero-padded so the
/// pool sorts numerically in name-ordered snapshot sections).
pub fn prefix(worker: usize) -> String {
    format!("scheduler.worker.{worker:02}")
}

/// Publish one worker's utilization slice. `busy_ms` is wall-clock time
/// spent inside range bodies, `idle_ms` is the rest of the worker's
/// lifetime (queue pops, failed steal scans, exit).
pub fn publish_worker(
    worker: usize,
    busy_ms: f64,
    idle_ms: f64,
    ranges: u64,
    clients: u64,
    steals: u64,
) {
    let p = prefix(worker);
    let g = crate::global();
    g.per_run_gauge(&format!("{p}.busy_ms"))
        .set(busy_ms.round() as i64);
    g.per_run_gauge(&format!("{p}.idle_ms"))
        .set(idle_ms.round() as i64);
    g.per_run_gauge(&format!("{p}.ranges")).set(ranges as i64);
    g.per_run_gauge(&format!("{p}.clients")).set(clients as i64);
    g.per_run_gauge(&format!("{p}.steals")).set(steals as i64);
}

/// One worker's row, re-assembled from a snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerRow {
    /// Worker index in the pool.
    pub worker: u64,
    /// Wall-clock milliseconds inside range bodies.
    pub busy_ms: i64,
    /// Wall-clock milliseconds outside range bodies.
    pub idle_ms: i64,
    /// Ranges this worker executed.
    pub ranges: i64,
    /// Clients this worker measured.
    pub clients: i64,
    /// Ranges this worker stole from a peer's queue.
    pub steals: i64,
}

impl WorkerRow {
    /// Fraction of the worker's lifetime spent in range bodies
    /// (1.0 for a worker with no recorded lifetime).
    fn busy_fraction(&self) -> f64 {
        let total = self.busy_ms + self.idle_ms;
        if total <= 0 {
            1.0
        } else {
            self.busy_ms as f64 / total as f64
        }
    }
}

/// Extract the per-worker utilization rows from a snapshot, in worker
/// order. Unparsable `scheduler.worker.*` names are ignored.
pub fn workers(snap: &Snapshot) -> Vec<WorkerRow> {
    let mut rows: BTreeMap<u64, WorkerRow> = BTreeMap::new();
    for (name, m) in &snap.metrics {
        let Some(rest) = name.strip_prefix("scheduler.worker.") else {
            continue;
        };
        let Some((idx, field)) = rest.split_once('.') else {
            continue;
        };
        let Ok(worker) = idx.parse::<u64>() else {
            continue;
        };
        let MetricValue::Gauge(v) = m.value else {
            continue;
        };
        let row = rows.entry(worker).or_insert_with(|| WorkerRow {
            worker,
            ..WorkerRow::default()
        });
        match field {
            "busy_ms" => row.busy_ms = v,
            "idle_ms" => row.idle_ms = v,
            "ranges" => row.ranges = v,
            "clients" => row.clients = v,
            "steals" => row.steals = v,
            _ => {}
        }
    }
    rows.into_values().collect()
}

/// Human-readable utilization report (empty string when no scheduler
/// metrics were recorded, so callers can print it unconditionally).
pub fn report(snap: &Snapshot) -> String {
    let rows = workers(snap);
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "scheduler utilization (wall clock, per-run):\n\
           worker     busy-ms    idle-ms  busy%   ranges  clients  steals\n",
    );
    let mut busy = 0i64;
    let mut idle = 0i64;
    let mut ranges = 0i64;
    let mut clients = 0i64;
    let mut steals = 0i64;
    for row in &rows {
        let _ = writeln!(
            out,
            "  {:>6}  {:>9}  {:>9}  {:>5.1}  {:>7}  {:>7}  {:>6}",
            row.worker,
            row.busy_ms,
            row.idle_ms,
            row.busy_fraction() * 100.0,
            row.ranges,
            row.clients,
            row.steals,
        );
        busy += row.busy_ms;
        idle += row.idle_ms;
        ranges += row.ranges;
        clients += row.clients;
        steals += row.steals;
    }
    let total = busy + idle;
    let pool_busy = if total <= 0 {
        1.0
    } else {
        busy as f64 / total as f64
    };
    let _ = writeln!(
        out,
        "  pool: {} worker(s), {:.1}% busy, {} range(s), {} client(s), {} steal(s)",
        rows.len(),
        pool_busy * 100.0,
        ranges,
        clients,
        steals,
    );
    if let Some(h) = snap.histogram("campaign.shard_wall_ms") {
        let _ = writeln!(
            out,
            "  shard wall: {} shard(s), mean {:.3} ms, min {:.3} ms, max {:.3} ms",
            h.count,
            h.mean_ms(),
            h.min_micros as f64 / 1_000.0,
            h.max_micros as f64 / 1_000.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Determinism;

    #[test]
    fn published_workers_come_back_as_rows() {
        publish_worker(90, 900.0, 100.0, 12, 480, 3);
        publish_worker(91, 0.0, 1000.0, 0, 0, 0);
        let snap = crate::global().snapshot();
        let rows: Vec<WorkerRow> = workers(&snap)
            .into_iter()
            .filter(|r| r.worker == 90 || r.worker == 91)
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].worker, 90);
        assert_eq!(rows[0].busy_ms, 900);
        assert_eq!(rows[0].steals, 3);
        assert!((rows[0].busy_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(rows[1].ranges, 0);
        assert_eq!(rows[1].busy_fraction(), 0.0);
        // Wall-clock derived: never part of the deterministic gate.
        assert_eq!(
            snap.metrics["scheduler.worker.90.busy_ms"].determinism,
            Determinism::PerRun
        );
    }

    #[test]
    fn report_tabulates_workers_and_pool_totals() {
        publish_worker(92, 600.0, 400.0, 5, 200, 1);
        let text = report(&crate::global().snapshot());
        assert!(text.contains("scheduler utilization"), "{text}");
        assert!(text.contains("    92"), "{text}");
        assert!(text.contains("pool:"), "{text}");
    }

    #[test]
    fn report_is_empty_without_scheduler_metrics() {
        let empty = Snapshot::default();
        assert_eq!(report(&empty), "");
    }

    #[test]
    fn empty_lifetime_counts_as_fully_busy() {
        let row = WorkerRow::default();
        assert_eq!(row.busy_fraction(), 1.0);
    }
}
