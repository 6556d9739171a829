//! Hierarchical wall-clock phase profiler (per-run determinism class).
//!
//! Campaign-level phases (topology build, simulate, derive, export, store)
//! nest: a guard from [`phase`] pushes onto a thread-local stack and, on
//! drop, accounts its elapsed wall time to a process-global table keyed by
//! the `/`-joined phase path. *Self* time is elapsed minus the time spent
//! in child phases, so the report shows where time actually goes.
//!
//! Everything here reads the wall clock, so it is strictly
//! [`crate::Determinism::PerRun`]: [`publish`] registers per-run gauges
//! (`phase.<path>.total_ms` / `phase.<path>.self_ms`) which land in the
//! per-run section of the metrics snapshot the CI gate jobs archive
//! — and never in the deterministic section CI gates byte-exactly, nor in
//! the flight-recorder trace export.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregated timings for one phase path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Wall nanoseconds including child phases.
    pub total_ns: u64,
    /// Wall nanoseconds excluding child phases.
    pub self_ns: u64,
    /// Number of times the phase ran.
    pub count: u64,
}

static TABLE: Mutex<Option<BTreeMap<String, PhaseStat>>> = Mutex::new(None);

struct Frame {
    path: String,
    started: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Guard for an open phase; accounts its time when dropped.
#[must_use = "a phase is timed until this guard drops"]
pub struct PhaseGuard {
    // Non-Send by construction (the stack is thread-local); keep it that
    // way so a guard cannot close a frame on the wrong thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a phase nested under the innermost open phase on this thread.
pub fn phase(name: &str) -> PhaseGuard {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        stack.push(Frame {
            path,
            started: Instant::now(),
            child_ns: 0,
        });
    });
    PhaseGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else { return };
            let elapsed = frame.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
            }
            let mut table = TABLE.lock().expect("phase table poisoned");
            let entry = table
                .get_or_insert_with(BTreeMap::new)
                .entry(frame.path)
                .or_default();
            entry.total_ns = entry.total_ns.saturating_add(elapsed);
            entry.self_ns = entry
                .self_ns
                .saturating_add(elapsed.saturating_sub(frame.child_ns));
            entry.count += 1;
        });
    }
}

/// Snapshot the accumulated table (path → stat), sorted by path.
pub fn snapshot() -> BTreeMap<String, PhaseStat> {
    TABLE
        .lock()
        .expect("phase table poisoned")
        .clone()
        .unwrap_or_default()
}

/// Clear all accumulated phase timings (tests, repeated runs).
pub fn reset() {
    *TABLE.lock().expect("phase table poisoned") = None;
}

/// Human-readable report: one line per phase path, sorted by inclusive
/// wall-clock time descending (ties break by path) so the most
/// expensive phase reads first, closed by a total-accounted-for line.
pub fn report() -> String {
    render_report(&snapshot())
}

/// Pure renderer behind [`report`], separated so tests can feed a
/// hand-built table instead of racing on the process-global one.
fn render_report(table: &BTreeMap<String, PhaseStat>) -> String {
    use std::fmt::Write as _;
    if table.is_empty() {
        return String::new();
    }
    let mut rows: Vec<(&String, &PhaseStat)> = table.iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
    let mut out = String::from("phase profile (wall clock, per-run, heaviest first):\n");
    for (path, stat) in &rows {
        let _ = writeln!(
            out,
            "  {path:<32} total {:>9.3} ms  self {:>9.3} ms  x{}",
            stat.total_ns as f64 / 1e6,
            stat.self_ns as f64 / 1e6,
            stat.count,
        );
    }
    // Root phases already include their children's time, so summing
    // only depth-0 totals avoids double counting.
    let accounted: u64 = table
        .iter()
        .filter(|(path, _)| !path.contains('/'))
        .map(|(_, stat)| stat.total_ns)
        .sum();
    let _ = writeln!(
        out,
        "  total accounted: {:.3} ms across {} phase path(s)",
        accounted as f64 / 1e6,
        table.len(),
    );
    out
}

/// Publish the table as per-run gauges so it rides along in the metrics
/// snapshot (`phase.<path>.total_ms`, `phase.<path>.self_ms`).
pub fn publish() {
    for (path, stat) in snapshot() {
        crate::global()
            .per_run_gauge(&format!("phase.{path}.total_ms"))
            .set((stat.total_ns / 1_000_000) as i64);
        crate::global()
            .per_run_gauge(&format!("phase.{path}.self_ms"))
            .set((stat.self_ns / 1_000_000) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_and_total_time() {
        reset();
        {
            let _outer = phase("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = phase("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let table = snapshot();
        let outer = table.get("outer").expect("outer recorded");
        let inner = table.get("outer/inner").expect("inner nests under outer");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000,
            "self excludes child time (outer {outer:?}, inner {inner:?})"
        );
        let text = report();
        assert!(text.contains("outer"));
        assert!(text.contains("inner"));
        reset();
    }

    #[test]
    fn repeated_phases_accumulate() {
        reset();
        for _ in 0..3 {
            let _p = phase("loop");
        }
        assert_eq!(snapshot().get("loop").unwrap().count, 3);
        reset();
    }

    fn stat(total_ns: u64, self_ns: u64, count: u64) -> PhaseStat {
        PhaseStat {
            total_ns,
            self_ns,
            count,
        }
    }

    #[test]
    fn report_sorts_by_inclusive_time_descending() {
        let table = BTreeMap::from([
            ("cheap".to_string(), stat(1_000_000, 1_000_000, 1)),
            ("heavy".to_string(), stat(9_000_000, 4_000_000, 2)),
            ("heavy/child".to_string(), stat(5_000_000, 5_000_000, 2)),
        ]);
        let text = render_report(&table);
        let heavy = text.find("heavy ").expect("heavy line");
        let child = text.find("heavy/child").expect("child line");
        let cheap = text.find("cheap").expect("cheap line");
        assert!(
            heavy < child && child < cheap,
            "lines must sort by total desc:\n{text}"
        );
    }

    #[test]
    fn report_accounts_totals_from_root_phases_only() {
        // 9 ms root + 5 ms child: the child is inside the root's total,
        // so the accounted line must say 9 ms, not 14.
        let table = BTreeMap::from([
            ("run".to_string(), stat(9_000_000, 4_000_000, 1)),
            ("run/derive".to_string(), stat(5_000_000, 5_000_000, 1)),
        ]);
        let text = render_report(&table);
        assert!(
            text.contains("total accounted: 9.000 ms across 2 phase path(s)"),
            "{text}"
        );
    }

    #[test]
    fn report_ties_break_by_path() {
        let table = BTreeMap::from([
            ("b".to_string(), stat(1_000_000, 1_000_000, 1)),
            ("a".to_string(), stat(1_000_000, 1_000_000, 1)),
        ]);
        let text = render_report(&table);
        assert!(
            text.find("a ").unwrap() < text.find("b ").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn empty_table_renders_nothing() {
        assert_eq!(render_report(&BTreeMap::new()), "");
    }

    #[test]
    fn publish_lands_per_run_gauges() {
        reset();
        {
            let _p = phase("publish-probe");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        publish();
        let snap = crate::global().snapshot();
        let m = snap
            .metrics
            .get("phase.publish-probe.total_ms")
            .expect("published gauge");
        assert_eq!(m.determinism, crate::Determinism::PerRun);
        reset();
    }
}
