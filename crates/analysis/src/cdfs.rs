//! Figure 4: resolution-time CDFs per provider.

use dohperf_core::records::Dataset;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::{ecdf, quantile_sorted};

/// One empirical CDF: values and cumulative probabilities.
#[derive(Debug, Clone)]
pub struct CdfSeries {
    /// Sorted sample values (ms).
    pub values: Vec<f64>,
    /// Cumulative probabilities, aligned with `values`.
    pub probs: Vec<f64>,
}

impl CdfSeries {
    pub(crate) fn of(samples: &[f64]) -> CdfSeries {
        let (values, probs) = ecdf(samples);
        CdfSeries { values, probs }
    }

    /// Median of the series.
    pub fn median(&self) -> f64 {
        quantile_sorted(&self.values, 0.5)
    }

    /// Value at a given cumulative probability.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.values, q)
    }
}

/// The three curves of one Figure 4 panel.
#[derive(Debug, Clone)]
pub struct ProviderCdfs {
    /// Which provider.
    pub provider: ProviderKind,
    /// First-request DoH times.
    pub doh1: CdfSeries,
    /// Reused-connection DoH times.
    pub dohr: CdfSeries,
    /// Default-resolver Do53 times (same across panels; repeated for
    /// plotting convenience).
    pub do53: CdfSeries,
}

/// Compute all four Figure 4 panels.
pub fn provider_cdfs(ds: &Dataset) -> Vec<ProviderCdfs> {
    let do53: Vec<f64> = ds.records.iter().filter_map(|r| r.do53_ms).collect();
    ALL_PROVIDERS
        .iter()
        .map(|&provider| {
            let mut doh1 = Vec::new();
            let mut dohr = Vec::new();
            for r in &ds.records {
                if let Some(s) = r.sample(provider) {
                    doh1.push(s.t_doh_ms);
                    dohr.push(s.t_dohr_ms);
                }
            }
            ProviderCdfs {
                provider,
                doh1: CdfSeries::of(&doh1),
                dohr: CdfSeries::of(&dohr),
                do53: CdfSeries::of(&do53),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn four_panels_with_monotone_curves() {
        let panels = provider_cdfs(shared_dataset());
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert!(!p.doh1.values.is_empty());
            for w in p.doh1.values.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!((p.doh1.probs.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cloudflare_dohr_tracks_do53() {
        // Figure 4a's key observation: Cloudflare DoHR ≈ Do53.
        let panels = provider_cdfs(shared_dataset());
        let cf = panels
            .iter()
            .find(|p| p.provider == ProviderKind::Cloudflare)
            .unwrap();
        let gap = (cf.dohr.median() - cf.do53.median()).abs();
        let rel = gap / cf.do53.median();
        assert!(rel < 0.45, "relative gap {rel}");
    }

    #[test]
    fn cloudflare_fastest_nextdns_slowest_doh1() {
        let panels = provider_cdfs(shared_dataset());
        let median_of = |kind: ProviderKind| {
            panels
                .iter()
                .find(|p| p.provider == kind)
                .unwrap()
                .doh1
                .median()
        };
        let cf = median_of(ProviderKind::Cloudflare);
        let nd = median_of(ProviderKind::NextDns);
        let gg = median_of(ProviderKind::Google);
        let q9 = median_of(ProviderKind::Quad9);
        assert!(
            cf < gg && cf < nd && cf < q9,
            "cf {cf} gg {gg} nd {nd} q9 {q9}"
        );
        assert!(nd > gg, "NextDNS should be slower than Google");
    }

    #[test]
    fn dohr_stochastically_faster_than_doh1() {
        let panels = provider_cdfs(shared_dataset());
        for p in &panels {
            for q in [0.25, 0.5, 0.75] {
                assert!(
                    p.dohr.quantile(q) < p.doh1.quantile(q),
                    "{} at q{q}",
                    p.provider
                );
            }
        }
    }
}
