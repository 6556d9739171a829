//! Per-protocol lifecycle analyses for the extended-transport campaign.
//!
//! When a campaign runs with a non-empty
//! [`dohperf_core::campaign::ProtocolSet`], every retained record carries
//! one [`TransportSample`](dohperf_core::records::TransportSample) per
//! (transport, provider) pair. This module reduces those to the
//! per-protocol headline table and CDFs that
//! `repro --protocols ...` renders: cold (first-request), warm
//! (connection-reuse) and resumed (post-idle, session-ticket / 0-RTT)
//! query times, plus the bare handshake cost — the Eq T1–T6 analogues of
//! the paper's Eq 1–8-derived DoH numbers.

use crate::cdfs::CdfSeries;
use dohperf_core::records::Dataset;
use dohperf_netsim::connection::DnsTransport;
use dohperf_providers::provider::ProviderKind;
use dohperf_stats::desc::median;
use serde::Serialize;

/// One transport's headline numbers across all (client, provider) pairs.
#[derive(Debug, Clone, Serialize)]
pub struct TransportHeadline {
    /// Which transport.
    pub transport: DnsTransport,
    /// Median cold (first-request) time (Eq T3), ms.
    pub median_cold_ms: f64,
    /// Median warm (connection-reuse) query time (Eq T4), ms.
    pub median_warm_ms: f64,
    /// Median resumed query time after idle timeout (Eq T5), ms.
    pub median_resumed_ms: f64,
    /// Median cold connection-establishment time (Eq T2), ms.
    pub median_handshake_ms: f64,
    /// Median amortised per-query time over a 10-query connection, ms —
    /// the DoH-N analogue for this transport.
    pub median_amortized10_ms: f64,
    /// Number of (client, provider) samples behind the medians.
    pub samples: usize,
}

/// Per-transport headline rows, in canonical [`DnsTransport::ALL`] order.
/// Transports absent from the dataset (a legacy campaign, or a reduced
/// protocol set) contribute no row.
pub fn transport_headlines(ds: &Dataset) -> Vec<TransportHeadline> {
    DnsTransport::ALL
        .iter()
        .filter_map(|&transport| {
            let mut cold = Vec::new();
            let mut warm = Vec::new();
            let mut resumed = Vec::new();
            let mut handshake = Vec::new();
            let mut amortized = Vec::new();
            for r in &ds.records {
                for s in r.transports.iter().filter(|s| s.transport == transport) {
                    cold.push(s.cold_ms);
                    warm.push(s.warm_ms);
                    resumed.push(s.resumed_ms);
                    handshake.push(s.handshake_ms);
                    amortized.push(s.amortized_ms(10));
                }
            }
            if cold.is_empty() {
                return None;
            }
            Some(TransportHeadline {
                transport,
                median_cold_ms: median(&cold),
                median_warm_ms: median(&warm),
                median_resumed_ms: median(&resumed),
                median_handshake_ms: median(&handshake),
                median_amortized10_ms: median(&amortized),
                samples: cold.len(),
            })
        })
        .collect()
}

/// The three lifecycle curves of one per-protocol CDF panel.
#[derive(Debug, Clone, Serialize)]
pub struct TransportCdfs {
    /// Which transport.
    pub transport: DnsTransport,
    /// Cold (first-request) times.
    pub cold: CdfSeries,
    /// Warm (connection-reuse) times.
    pub warm: CdfSeries,
    /// Resumed (post-idle) times.
    pub resumed: CdfSeries,
}

/// Per-protocol CDF panels, in canonical order; absent transports
/// contribute no panel.
pub fn transport_cdfs(ds: &Dataset) -> Vec<TransportCdfs> {
    DnsTransport::ALL
        .iter()
        .filter_map(|&transport| {
            let mut cold = Vec::new();
            let mut warm = Vec::new();
            let mut resumed = Vec::new();
            for r in &ds.records {
                for s in r.transports.iter().filter(|s| s.transport == transport) {
                    cold.push(s.cold_ms);
                    warm.push(s.warm_ms);
                    resumed.push(s.resumed_ms);
                }
            }
            if cold.is_empty() {
                return None;
            }
            Some(TransportCdfs {
                transport,
                cold: CdfSeries::of(&cold),
                warm: CdfSeries::of(&warm),
                resumed: CdfSeries::of(&resumed),
            })
        })
        .collect()
}

/// One (transport, provider) cell of the per-provider breakdown table.
#[derive(Debug, Clone, Serialize)]
pub struct TransportProviderCell {
    /// Which transport.
    pub transport: DnsTransport,
    /// Which provider.
    pub provider: ProviderKind,
    /// Median cold time across clients, ms.
    pub median_cold_ms: f64,
    /// Median warm time across clients, ms.
    pub median_warm_ms: f64,
}

/// The (transport × provider) median grid, rows in canonical transport
/// order, columns in measurement (provider) order.
pub fn transport_provider_grid(ds: &Dataset) -> Vec<TransportProviderCell> {
    let mut cells = Vec::new();
    for &transport in DnsTransport::ALL.iter() {
        let mut providers: Vec<ProviderKind> = Vec::new();
        for r in &ds.records {
            for s in r.transports.iter().filter(|s| s.transport == transport) {
                if !providers.contains(&s.provider) {
                    providers.push(s.provider);
                }
            }
        }
        for provider in providers {
            let mut cold = Vec::new();
            let mut warm = Vec::new();
            for r in &ds.records {
                if let Some(s) = r.transport_sample(transport, provider) {
                    cold.push(s.cold_ms);
                    warm.push(s.warm_ms);
                }
            }
            cells.push(TransportProviderCell {
                transport,
                provider,
                median_cold_ms: median(&cold),
                median_warm_ms: median(&warm),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;
    use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
    use std::sync::OnceLock;

    /// A small 4-protocol dataset shared by the transport tests.
    fn extended_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            Campaign::new(CampaignConfig {
                scale: 0.02,
                protocols: ProtocolSet::all(),
                ..CampaignConfig::quick(42)
            })
            .run()
        })
    }

    #[test]
    fn legacy_datasets_have_no_transport_rows() {
        assert!(transport_headlines(shared_dataset()).is_empty());
        assert!(transport_cdfs(shared_dataset()).is_empty());
        assert!(transport_provider_grid(shared_dataset()).is_empty());
    }

    #[test]
    fn all_four_transports_report_in_canonical_order() {
        let rows = transport_headlines(extended_dataset());
        let order: Vec<_> = rows.iter().map(|r| r.transport).collect();
        assert_eq!(order, DnsTransport::ALL.to_vec());
        let n_records = extended_dataset().records.len();
        for row in &rows {
            assert_eq!(row.samples, n_records * 4, "{:?}", row.transport);
        }
    }

    #[test]
    fn handshake_economics_match_the_rfcs() {
        let rows = transport_headlines(extended_dataset());
        let by = |t: DnsTransport| rows.iter().find(|r| r.transport == t).unwrap();
        let do53 = by(DnsTransport::Do53);
        let doh = by(DnsTransport::DoH);
        let dot = by(DnsTransport::DoT);
        let doq = by(DnsTransport::DoQ);
        // Do53 is connectionless.
        assert_eq!(do53.median_handshake_ms, 0.0);
        // QUIC's combined transport+crypto handshake beats the
        // TCP-then-TLS two-step of DoT/DoH.
        assert!(doq.median_handshake_ms < dot.median_handshake_ms);
        assert!(doq.median_handshake_ms < doh.median_handshake_ms);
        // Cold cost dominates warm cost for every encrypted transport.
        for row in [doh, dot, doq] {
            assert!(row.median_cold_ms > row.median_warm_ms);
            // Resumption is always cheaper than a full cold start.
            assert!(row.median_resumed_ms < row.median_cold_ms);
        }
        // Session-ticket resumption still pays one TLS round trip on
        // TCP-based transports; QUIC 0-RTT pays none, so DoQ's resumed
        // query is statistically a warm query (not asserted ≥ warm — the
        // two draws differ only by jitter) and beats both TCP siblings.
        for row in [doh, dot] {
            assert!(row.median_resumed_ms > row.median_warm_ms);
        }
        assert!(doq.median_resumed_ms < doh.median_resumed_ms);
        assert!(doq.median_resumed_ms < dot.median_resumed_ms);
        // DoT's 2-byte length prefix is cheaper framing than H2.
        assert!(dot.median_warm_ms < doh.median_warm_ms);
    }

    #[test]
    fn cdf_panels_are_monotone_and_aligned() {
        let panels = transport_cdfs(extended_dataset());
        assert_eq!(panels.len(), 4);
        for p in &panels {
            for series in [&p.cold, &p.warm, &p.resumed] {
                assert!(!series.values.is_empty());
                for w in series.values.windows(2) {
                    assert!(w[0] <= w[1]);
                }
                assert!((series.probs.last().unwrap() - 1.0).abs() < 1e-9);
            }
            // Do53 is connectionless: its "cold" and "warm" draws differ
            // only by jitter, so the ordering is only meaningful where a
            // handshake exists.
            if p.transport.is_encrypted() {
                assert!(p.warm.median() <= p.cold.median(), "{:?}", p.transport);
            }
        }
    }

    #[test]
    fn provider_grid_covers_the_full_matrix() {
        let grid = transport_provider_grid(extended_dataset());
        assert_eq!(grid.len(), 4 * 4);
        for cell in &grid {
            assert!(cell.median_cold_ms > 0.0);
            assert!(cell.median_warm_ms > 0.0);
        }
    }
}
