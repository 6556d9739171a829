//! Page-load-time analyses for the page-load workload.
//!
//! When a campaign runs with `pages_per_client >= 2`, every retained
//! record carries one [`PageSample`] per (transport, provider) pair —
//! the critical-path PLT of a synthetic dependency DAG resolved over
//! one multiplexed connection, cold (empty cache, cold connection) and
//! warm (live cache, kept-alive connection). This module reduces those
//! to what `repro pageload` renders: the per-transport PLT headline
//! table, the PLT-delta table against the Do53 baseline on the *same*
//! page, and cold/warm CDF panels.
//!
//! Deltas are paired: for each (client, provider) the transport's PLT
//! is compared against Do53's PLT for the same client, provider and
//! DAG, so page-shape and path-latency noise cancel and only the
//! protocol's contribution remains — the page-level analogue of the
//! paper's per-country DoH−Do53 deltas.

use crate::cdfs::CdfSeries;
use dohperf_core::records::{Dataset, PageSample};
use dohperf_netsim::connection::DnsTransport;
use dohperf_stats::desc::median;

/// One transport's page-load headline numbers across all
/// (client, provider) pairs.
#[derive(Debug, Clone)]
pub struct PageHeadline {
    /// Which transport.
    pub transport: DnsTransport,
    /// Median cold-visit PLT, ms.
    pub median_plt_cold_ms: f64,
    /// Median warm-revisit PLT, ms.
    pub median_plt_warm_ms: f64,
    /// Median cold-to-warm saving, ms (paired per sample).
    pub median_warm_savings_ms: f64,
    /// Median cache hits on the cold visit (intra-page duplicates).
    pub median_cold_cache_hits: f64,
    /// Median cache hits summed over warm revisits (cross-page reuse).
    pub median_warm_cache_hits: f64,
    /// Number of (client, provider) samples behind the medians.
    pub samples: usize,
}

/// Per-transport headline rows, in canonical [`DnsTransport::ALL`]
/// order. Legacy datasets (no page samples) contribute no rows.
pub fn page_headlines(ds: &Dataset) -> Vec<PageHeadline> {
    DnsTransport::ALL
        .iter()
        .filter_map(|&transport| {
            let mut cold = Vec::new();
            let mut warm = Vec::new();
            let mut savings = Vec::new();
            let mut cold_hits = Vec::new();
            let mut warm_hits = Vec::new();
            for r in &ds.records {
                for s in r.pages.iter().filter(|s| s.transport == transport) {
                    cold.push(s.plt_cold_ms);
                    warm.push(s.plt_warm_ms);
                    savings.push(s.warm_savings_ms());
                    cold_hits.push(f64::from(s.cold_cache_hits));
                    warm_hits.push(f64::from(s.warm_cache_hits));
                }
            }
            if cold.is_empty() {
                return None;
            }
            Some(PageHeadline {
                transport,
                median_plt_cold_ms: median(&cold),
                median_plt_warm_ms: median(&warm),
                median_warm_savings_ms: median(&savings),
                median_cold_cache_hits: median(&cold_hits),
                median_warm_cache_hits: median(&warm_hits),
                samples: cold.len(),
            })
        })
        .collect()
}

/// One encrypted transport's paired PLT delta against the Do53
/// baseline on the same (client, provider, page).
#[derive(Debug, Clone)]
pub struct PagePltDelta {
    /// Which transport (never Do53 — that is the baseline).
    pub transport: DnsTransport,
    /// Median of per-pair `plt_cold(transport) - plt_cold(Do53)`, ms.
    pub median_cold_delta_ms: f64,
    /// Median of per-pair `plt_warm(transport) - plt_warm(Do53)`, ms.
    pub median_warm_delta_ms: f64,
    /// Fraction of pairs where the transport's *warm* PLT beats Do53's.
    pub warm_wins_fraction: f64,
    /// Paired samples behind the medians.
    pub samples: usize,
}

/// Paired PLT deltas versus Do53, in canonical transport order. Rows
/// exist only for transports with at least one paired sample.
pub fn page_plt_deltas(ds: &Dataset) -> Vec<PagePltDelta> {
    DnsTransport::ALL
        .iter()
        .filter(|&&t| t != DnsTransport::Do53)
        .filter_map(|&transport| {
            let mut cold_deltas = Vec::new();
            let mut warm_deltas = Vec::new();
            let mut warm_wins = 0usize;
            for r in &ds.records {
                for s in r.pages.iter().filter(|s| s.transport == transport) {
                    let Some(base) = r.page_sample(DnsTransport::Do53, s.provider) else {
                        continue;
                    };
                    cold_deltas.push(s.plt_cold_ms - base.plt_cold_ms);
                    warm_deltas.push(s.plt_warm_ms - base.plt_warm_ms);
                    if s.plt_warm_ms < base.plt_warm_ms {
                        warm_wins += 1;
                    }
                }
            }
            if cold_deltas.is_empty() {
                return None;
            }
            Some(PagePltDelta {
                transport,
                median_cold_delta_ms: median(&cold_deltas),
                median_warm_delta_ms: median(&warm_deltas),
                warm_wins_fraction: warm_wins as f64 / cold_deltas.len() as f64,
                samples: cold_deltas.len(),
            })
        })
        .collect()
}

/// The cold/warm PLT curves of one per-transport CDF panel.
#[derive(Debug, Clone)]
pub struct PageCdfs {
    /// Which transport.
    pub transport: DnsTransport,
    /// Cold-visit PLTs.
    pub cold: CdfSeries,
    /// Warm-revisit PLTs.
    pub warm: CdfSeries,
}

/// Per-transport cold/warm PLT CDF panels, in canonical order; absent
/// transports contribute no panel.
pub fn page_cdfs(ds: &Dataset) -> Vec<PageCdfs> {
    DnsTransport::ALL
        .iter()
        .filter_map(|&transport| {
            let mut cold = Vec::new();
            let mut warm = Vec::new();
            for r in &ds.records {
                for s in r.pages.iter().filter(|s| s.transport == transport) {
                    cold.push(s.plt_cold_ms);
                    warm.push(s.plt_warm_ms);
                }
            }
            if cold.is_empty() {
                return None;
            }
            Some(PageCdfs {
                transport,
                cold: CdfSeries::of(&cold),
                warm: CdfSeries::of(&warm),
            })
        })
        .collect()
}

/// Shape of the synthetic pages behind a dataset's PLT numbers.
#[derive(Debug, Clone)]
pub struct PageShapeSummary {
    /// Median DAG node count per page.
    pub median_domains: f64,
    /// Median distinct hostnames per page.
    pub median_unique_names: f64,
    /// Median dependency depth.
    pub median_depth: f64,
    /// Pages summarised (one per client — shape is pair-invariant).
    pub pages: usize,
}

/// Per-client page-shape medians, or `None` for legacy datasets. Each
/// client contributes once: all sixteen pairs replay the same DAG.
pub fn page_shape_summary(ds: &Dataset) -> Option<PageShapeSummary> {
    let firsts: Vec<&PageSample> = ds.records.iter().filter_map(|r| r.pages.first()).collect();
    if firsts.is_empty() {
        return None;
    }
    Some(PageShapeSummary {
        median_domains: median(
            &firsts
                .iter()
                .map(|s| f64::from(s.domains))
                .collect::<Vec<_>>(),
        ),
        median_unique_names: median(
            &firsts
                .iter()
                .map(|s| f64::from(s.unique_names))
                .collect::<Vec<_>>(),
        ),
        median_depth: median(
            &firsts
                .iter()
                .map(|s| f64::from(s.depth))
                .collect::<Vec<_>>(),
        ),
        pages: firsts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;
    use dohperf_core::campaign::{Campaign, CampaignConfig};
    use std::sync::OnceLock;

    /// A small page-load dataset shared by the pageload tests.
    fn pageload_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            Campaign::new(CampaignConfig {
                scale: 0.02,
                pages_per_client: 2,
                ..CampaignConfig::quick(42)
            })
            .run()
        })
    }

    #[test]
    fn legacy_datasets_have_no_page_rows() {
        assert!(page_headlines(shared_dataset()).is_empty());
        assert!(page_plt_deltas(shared_dataset()).is_empty());
        assert!(page_cdfs(shared_dataset()).is_empty());
        assert!(page_shape_summary(shared_dataset()).is_none());
    }

    #[test]
    fn all_four_transports_report_in_canonical_order() {
        let rows = page_headlines(pageload_dataset());
        let order: Vec<_> = rows.iter().map(|r| r.transport).collect();
        assert_eq!(order, DnsTransport::ALL.to_vec());
        let n = pageload_dataset().records.len();
        for row in &rows {
            assert_eq!(row.samples, n * 4, "{:?}", row.transport);
            assert!(row.median_plt_cold_ms > 0.0);
            assert!(row.median_plt_warm_ms > 0.0);
        }
    }

    #[test]
    fn warm_cache_collapses_the_page_load_time() {
        // The workload's raison d'être: with the cache and connection
        // live, the bulk of the critical path disappears — for every
        // transport.
        for row in page_headlines(pageload_dataset()) {
            assert!(
                row.median_plt_warm_ms < row.median_plt_cold_ms / 2.0,
                "{:?}: warm {} vs cold {}",
                row.transport,
                row.median_plt_warm_ms,
                row.median_plt_cold_ms
            );
            assert!(row.median_warm_savings_ms > 0.0);
        }
    }

    #[test]
    fn cold_deltas_rank_encrypted_transports_above_do53() {
        // Cold pages pay the handshake on the critical path, so every
        // encrypted transport's paired cold delta is positive; DoQ's
        // one-round-trip handshake keeps it below DoH's.
        let deltas = page_plt_deltas(pageload_dataset());
        assert_eq!(deltas.len(), 3, "DoH, DoT, DoQ rows");
        let by = |t: DnsTransport| deltas.iter().find(|d| d.transport == t).unwrap();
        for t in [DnsTransport::DoH, DnsTransport::DoT, DnsTransport::DoQ] {
            assert!(by(t).median_cold_delta_ms > 0.0, "{t:?} cold delta");
        }
        assert!(
            by(DnsTransport::DoQ).median_cold_delta_ms < by(DnsTransport::DoH).median_cold_delta_ms,
            "QUIC's handshake should undercut TCP+TLS on the cold path"
        );
    }

    #[test]
    fn cdfs_and_shape_are_consistent_with_the_records() {
        let ds = pageload_dataset();
        let panels = page_cdfs(ds);
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.cold.values.len(), ds.records.len() * 4);
            assert_eq!(p.warm.values.len(), ds.records.len() * 4);
        }
        let shape = page_shape_summary(ds).unwrap();
        assert_eq!(shape.pages, ds.records.len());
        assert!((4.0..=32.0).contains(&shape.median_domains));
        assert!((1.0..=4.0).contains(&shape.median_depth));
        assert!(shape.median_unique_names <= shape.median_domains);
    }
}
