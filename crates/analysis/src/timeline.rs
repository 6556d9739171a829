//! Windowed time-series analysis for `repro timeline` (DESIGN.md §16).
//!
//! A windowed campaign (`window_nanos > 0`) tags every retained record
//! with per-(window, provider, transport) [`WindowSample`] summaries.
//! This module folds those into per-window series — exact p50/p95/p99
//! query latency (the type-7 [`quantile_sorted`] every other analysis
//! uses), availability (success fraction), and cache hit rate — per
//! (provider, transport) pair.
//!
//! # Determinism contract
//!
//! The fold walks the dataset's canonical retained-record sequence
//! single-threaded, in record order. Both dataset sources — the
//! in-memory campaign and `--from-store` — materialise records in the
//! same canonical order, so the rendered tables and `.dat` series are
//! bit-for-bit re-derivable from a store directory, for any
//! `--threads`/`--shard-size` the writing campaign used.

use dohperf_core::records::{Dataset, WindowSample};
use dohperf_netsim::connection::DnsTransport;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::quantile_sorted;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One (provider, transport, window) cell of the timeline.
#[derive(Debug, Clone)]
pub struct TimelineCell {
    /// Which provider.
    pub provider: ProviderKind,
    /// Which transport.
    pub transport: DnsTransport,
    /// Simulated-time window index.
    pub window: u32,
    /// Resolutions attempted in the window.
    pub queries: u64,
    /// Resolutions that succeeded.
    pub successes: u64,
    /// Cache probes issued (page-load cells only).
    pub cache_lookups: u64,
    /// Cache probes that hit.
    pub cache_hits: u64,
    /// Latency samples behind the quantiles (0 for cache-only cells).
    pub latency_samples: u64,
    /// Median query latency, ms (0 without latency samples).
    pub p50_ms: f64,
    /// 95th-percentile query latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile query latency, ms.
    pub p99_ms: f64,
}

impl TimelineCell {
    /// Success fraction (1.0 when the cell saw no queries).
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.successes as f64 / self.queries as f64
        }
    }

    /// Cache hit fraction (0.0 without lookups).
    fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// The full timeline: cells in canonical (provider, transport, window)
/// order. Empty for non-windowed datasets.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All populated cells.
    pub cells: Vec<TimelineCell>,
}

impl Timeline {
    /// Whether the dataset carried any window samples.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Distinct window indices, ascending.
    pub fn windows(&self) -> Vec<u32> {
        let mut ws: Vec<u32> = self.cells.iter().map(|c| c.window).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// One (provider, transport) pair's cells, in window order.
    fn series_for(&self, provider: ProviderKind, transport: DnsTransport) -> Vec<&TimelineCell> {
        self.cells
            .iter()
            .filter(|c| c.provider == provider && c.transport == transport)
            .collect()
    }
}

/// One cell's tallies and latency samples while the fold is in flight.
#[derive(Debug, Clone, Default)]
struct Tally {
    queries: u64,
    successes: u64,
    cache_lookups: u64,
    cache_hits: u64,
    latency: Vec<f64>,
}

/// Fold a dataset's window samples into the timeline.
///
/// Every (provider, transport, window) cell keeps integer tallies and
/// the latencies of its query-carrying samples, in record order; each
/// cell is sorted once at the end for its exact quantiles. Only cells
/// that actually saw a sample appear.
pub fn timeline(ds: &Dataset) -> Timeline {
    // Keyed by canonical ordinals so the output order never depends on
    // enum declaration details.
    let mut tallies: BTreeMap<(usize, usize, u32), Tally> = BTreeMap::new();
    for r in &ds.records {
        for s in &r.windows {
            let t = tallies
                .entry((provider_ordinal(s), transport_ordinal(s), s.window))
                .or_default();
            t.queries += u64::from(s.queries);
            t.successes += u64::from(s.successes);
            t.cache_lookups += u64::from(s.cache_lookups);
            t.cache_hits += u64::from(s.cache_hits);
            if s.queries > 0 {
                t.latency.push(s.latency_ms);
            }
        }
    }
    let cells = tallies
        .into_iter()
        .map(|((pi, ti, window), mut t)| {
            t.latency
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN window latency"));
            let q = |q: f64| {
                if t.latency.is_empty() {
                    0.0
                } else {
                    quantile_sorted(&t.latency, q)
                }
            };
            TimelineCell {
                provider: ALL_PROVIDERS[pi],
                transport: DnsTransport::ALL[ti],
                window,
                queries: t.queries,
                successes: t.successes,
                cache_lookups: t.cache_lookups,
                cache_hits: t.cache_hits,
                latency_samples: t.latency.len() as u64,
                p50_ms: q(0.5),
                p95_ms: q(0.95),
                p99_ms: q(0.99),
            }
        })
        .collect();
    Timeline { cells }
}

fn provider_ordinal(s: &WindowSample) -> usize {
    ALL_PROVIDERS
        .iter()
        .position(|&p| p == s.provider)
        .expect("window sample providers come from ALL_PROVIDERS")
}

fn transport_ordinal(s: &WindowSample) -> usize {
    DnsTransport::ALL
        .iter()
        .position(|&t| t == s.transport)
        .expect("window sample transports come from DnsTransport::ALL")
}

/// Render the timeline as the `repro timeline` tables: one block per
/// (provider, transport) pair, one row per window.
pub fn render(tl: &Timeline) -> String {
    let mut out = String::new();
    for &provider in ALL_PROVIDERS.iter() {
        for &transport in DnsTransport::ALL.iter() {
            let cells = tl.series_for(provider, transport);
            if cells.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "\n{} over {} ({} window(s)):",
                provider.name(),
                transport.name(),
                cells.len()
            );
            out += "  window  queries  p50 ms  p95 ms  p99 ms  avail%  cache-hit%\n";
            for c in cells {
                let _ = writeln!(
                    out,
                    "  {:>6}  {:>7}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6.2}  {:>9.2}",
                    c.window,
                    c.queries,
                    c.p50_ms,
                    c.p95_ms,
                    c.p99_ms,
                    c.availability() * 100.0,
                    c.cache_hit_rate() * 100.0,
                );
            }
        }
    }
    out
}

/// Plot-ready timeline data: one gnuplot block per (provider,
/// transport) pair with `window queries p50 p95 p99 availability
/// cache_hit_rate` rows.
pub fn timeline_dat(tl: &Timeline) -> String {
    let mut out = String::new();
    for &provider in ALL_PROVIDERS.iter() {
        for &transport in DnsTransport::ALL.iter() {
            let cells = tl.series_for(provider, transport);
            if cells.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "# {} {} window queries p50_ms p95_ms p99_ms availability cache_hit_rate",
                provider.name(),
                transport.name()
            );
            for c in cells {
                let _ = writeln!(
                    out,
                    "{} {} {:.3} {:.3} {:.3} {:.6} {:.6}",
                    c.window,
                    c.queries,
                    c.p50_ms,
                    c.p95_ms,
                    c.p99_ms,
                    c.availability(),
                    c.cache_hit_rate(),
                );
            }
            out.push_str("\n\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;
    use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
    use std::sync::OnceLock;

    /// A small windowed dataset shared by the timeline tests.
    fn windowed_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            Campaign::new(CampaignConfig {
                scale: 0.02,
                protocols: ProtocolSet::all(),
                pages_per_client: 2,
                window_nanos: 3_600_000_000_000,
                ..CampaignConfig::quick(42)
            })
            .run()
        })
    }

    #[test]
    fn legacy_datasets_have_no_timeline() {
        let tl = timeline(shared_dataset());
        assert!(tl.is_empty());
        assert_eq!(render(&tl), "");
        assert_eq!(timeline_dat(&tl), "");
    }

    #[test]
    fn cells_cover_every_pair_in_canonical_order() {
        let tl = timeline(windowed_dataset());
        assert!(!tl.is_empty());
        // Hourly windows over one simulated day.
        assert!(tl.windows().iter().all(|&w| w < 24));
        assert!(tl.windows().len() > 1, "one window would hide the series");
        // Cells arrive sorted by (provider, transport, window).
        let key = |c: &TimelineCell| {
            (
                ALL_PROVIDERS.iter().position(|&p| p == c.provider),
                DnsTransport::ALL.iter().position(|&t| t == c.transport),
                c.window,
            )
        };
        assert!(tl.cells.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        // The --protocols all campaign covers every (provider,
        // transport) pair with query-carrying cells.
        for &provider in ALL_PROVIDERS.iter() {
            for &transport in DnsTransport::ALL.iter() {
                let cells = tl.series_for(provider, transport);
                assert!(!cells.is_empty(), "{provider:?} {transport:?}");
                assert!(cells.iter().any(|c| c.queries > 0));
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_availability_is_full() {
        let tl = timeline(windowed_dataset());
        for c in &tl.cells {
            if c.latency_samples > 0 {
                assert!(c.p50_ms > 0.0, "{c:?}");
                assert!(c.p50_ms <= c.p95_ms, "{c:?}");
                assert!(c.p95_ms <= c.p99_ms, "{c:?}");
            } else {
                assert_eq!(c.p50_ms, 0.0);
            }
            // Today's simulator always answers; the availability axis is
            // the substrate for outage scenarios.
            assert_eq!(c.availability(), 1.0, "{c:?}");
            assert!(c.successes <= c.queries);
            assert!(c.cache_hits <= c.cache_lookups, "{c:?}");
        }
        // Page cells put real traffic on the cache axis.
        assert!(tl.cells.iter().any(|c| c.cache_lookups > 0));
    }

    #[test]
    fn cell_quantiles_equal_the_exact_quantiles_of_the_cell_samples() {
        let ds = windowed_dataset();
        let mut exact: BTreeMap<(usize, usize, u32), Vec<f64>> = BTreeMap::new();
        for r in &ds.records {
            for s in r.windows.iter().filter(|s| s.queries > 0) {
                exact
                    .entry((provider_ordinal(s), transport_ordinal(s), s.window))
                    .or_default()
                    .push(s.latency_ms);
            }
        }
        let tl = timeline(ds);
        let mut checked = 0;
        for c in tl.cells.iter().filter(|c| c.latency_samples > 0) {
            let key = (
                ALL_PROVIDERS.iter().position(|&p| p == c.provider).unwrap(),
                DnsTransport::ALL
                    .iter()
                    .position(|&t| t == c.transport)
                    .unwrap(),
                c.window,
            );
            let xs = &exact[&key];
            assert_eq!(xs.len() as u64, c.latency_samples, "{c:?}");
            for (q, v) in [(0.5, c.p50_ms), (0.95, c.p95_ms), (0.99, c.p99_ms)] {
                let want = dohperf_stats::desc::quantile(xs, q);
                assert_eq!(v.to_bits(), want.to_bits(), "{c:?}: q{q}");
            }
            checked += 1;
        }
        assert_eq!(checked, exact.len());
    }

    #[test]
    fn render_and_dat_carry_one_row_per_cell() {
        let tl = timeline(windowed_dataset());
        let text = render(&tl);
        assert!(text.contains("Cloudflare over doh"), "{text}");
        let dat = timeline_dat(&tl);
        let data_rows = dat
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(data_rows, tl.cells.len());
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_dataset() {
        let a = timeline(windowed_dataset());
        let b = timeline(windowed_dataset());
        assert_eq!(render(&a), render(&b));
        assert_eq!(timeline_dat(&a), timeline_dat(&b));
    }
}
