//! Per-window deterministic metric series.
//!
//! The registry collapses a campaign into one value per metric; the
//! windowed observability layer needs *series*: queries, failures,
//! timeouts, cache activity and per-transport success counts keyed by
//! simulated-time window. Rather than invent a second storage layer,
//! each window's counters live in the ordinary registry under a
//! structured name prefix:
//!
//! ```text
//! window.<index>.queries            counter
//! window.<index>.failures           counter
//! window.<index>.timeouts           counter
//! window.<index>.cache_lookups     counter
//! window.<index>.cache_hits        counter
//! window.<index>.success.<transport>  counter
//! window.<index>.latency_ms         histogram
//! ```
//!
//! so the series rides along in every snapshot, JSON export and
//! baseline comparison for free. All window metrics are
//! [`Determinism::Deterministic`]: callers must only record them from a
//! canonical (shard-layout-independent) walk, and must not register
//! them at all when windowing is disabled — otherwise legacy metric
//! baselines would grow new deterministic keys.
//!
//! [`Determinism::Deterministic`]: crate::Determinism::Deterministic

/// One sample batch observed inside a single window.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation<'a> {
    /// Transport label (e.g. `"doh"`, `"dot"`); becomes part of the
    /// per-transport success counter name.
    pub transport: &'a str,
    /// Resolutions attempted in the window.
    pub queries: u64,
    /// Resolutions that succeeded (failures = queries - successes).
    pub successes: u64,
    /// Resolutions that timed out (substrate for outage scenarios; the
    /// simulator currently always answers, so this stays 0).
    pub timeouts: u64,
    /// Cache probes issued.
    pub cache_lookups: u64,
    /// Cache probes that hit.
    pub cache_hits: u64,
    /// Representative latency for the batch, recorded into the
    /// window's histogram when present.
    pub latency_ms: Option<f64>,
}

/// Canonical metric-name prefix for a window index.
///
/// The index is zero-padded to three digits so a day of hourly windows
/// sorts numerically in the snapshot's name-ordered sections.
pub fn prefix(window: u64) -> String {
    format!("window.{window:03}")
}

/// Record one observation into the global registry's window series.
///
/// Counters are commutative, but the determinism contract still asks
/// callers to invoke this from the canonical merged record walk so the
/// set of registered names never depends on the shard layout.
pub fn observe(window: u64, obs: &Observation<'_>) {
    let p = prefix(window);
    let g = crate::global();
    g.counter(&format!("{p}.queries")).add(obs.queries);
    g.counter(&format!("{p}.failures"))
        .add(obs.queries.saturating_sub(obs.successes));
    g.counter(&format!("{p}.timeouts")).add(obs.timeouts);
    g.counter(&format!("{p}.cache_lookups"))
        .add(obs.cache_lookups);
    g.counter(&format!("{p}.cache_hits")).add(obs.cache_hits);
    g.counter(&format!("{p}.success.{}", obs.transport))
        .add(obs.successes);
    if let Some(ms) = obs.latency_ms {
        g.histogram(&format!("{p}.latency_ms")).record_ms(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Determinism;

    fn obs(transport: &str, queries: u64, successes: u64) -> Observation<'_> {
        Observation {
            transport,
            queries,
            successes,
            timeouts: 0,
            cache_lookups: 0,
            cache_hits: 0,
            latency_ms: None,
        }
    }

    #[test]
    fn observations_land_in_per_window_counters() {
        observe(
            900,
            &Observation {
                transport: "doh",
                queries: 10,
                successes: 9,
                timeouts: 1,
                cache_lookups: 20,
                cache_hits: 15,
                latency_ms: Some(12.5),
            },
        );
        observe(900, &obs("dot", 3, 3));
        observe(901, &obs("doh", 5, 5));

        let snap = crate::global().snapshot();
        assert_eq!(snap.counter_value("window.900.queries"), Some(13));
        assert_eq!(snap.counter_value("window.900.failures"), Some(1));
        assert_eq!(snap.counter_value("window.900.timeouts"), Some(1));
        assert_eq!(snap.counter_value("window.900.success.doh"), Some(9));
        assert_eq!(snap.counter_value("window.900.success.dot"), Some(3));
        assert_eq!(snap.counter_value("window.901.queries"), Some(5));
        assert_eq!(snap.histogram("window.900.latency_ms").unwrap().count, 1);
        // Windowed series are part of the deterministic gate.
        assert_eq!(
            snap.metrics["window.900.queries"].determinism,
            Determinism::Deterministic
        );
    }
}
