//! Figure 5: per-country medians and PoP counts.

use dohperf_core::records::Dataset;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::median;

/// One country's medians for one provider.
#[derive(Debug, Clone)]
pub struct CountryMedian {
    /// Country ISO code.
    pub country: &'static str,
    /// Which provider.
    pub provider: ProviderKind,
    /// Median DoH1 (ms).
    pub median_doh1_ms: f64,
    /// Clients contributing.
    pub clients: usize,
}

/// Per-country median DoH1 for every provider (the choropleth data of
/// Figure 5).
pub fn country_medians(ds: &Dataset) -> Vec<CountryMedian> {
    let mut rows = Vec::new();
    for (idx, &iso) in ds.countries.iter().enumerate() {
        for &provider in &ALL_PROVIDERS {
            let samples: Vec<f64> = ds
                .records_in(idx)
                .filter_map(|r| r.sample(provider))
                .map(|s| s.t_doh_ms)
                .collect();
            if samples.is_empty() {
                continue;
            }
            rows.push(CountryMedian {
                country: iso,
                provider,
                median_doh1_ms: median(&samples),
                clients: samples.len(),
            });
        }
    }
    rows
}

/// Median DoH1 for one (country, provider), if measured.
pub fn country_median_for(
    rows: &[CountryMedian],
    iso: &str,
    provider: ProviderKind,
) -> Option<f64> {
    rows.iter()
        .find(|r| r.country == iso && r.provider == provider)
        .map(|r| r.median_doh1_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn medians_cover_countries_and_providers() {
        let ds = shared_dataset();
        let rows = country_medians(ds);
        // ~224 countries x 4 providers.
        assert!(rows.len() >= 4 * 200, "{}", rows.len());
        assert!(rows.iter().all(|r| r.median_doh1_ms > 0.0));
    }

    #[test]
    fn chad_much_slower_than_bermuda() {
        // §5.3: Chad's DoH1 ~2011ms vs Bermuda's ~204ms.
        let rows = country_medians(shared_dataset());
        let chad: Vec<f64> = ALL_PROVIDERS
            .iter()
            .filter_map(|&p| country_median_for(&rows, "TD", p))
            .collect();
        let bermuda: Vec<f64> = ALL_PROVIDERS
            .iter()
            .filter_map(|&p| country_median_for(&rows, "BM", p))
            .collect();
        if !chad.is_empty() && !bermuda.is_empty() {
            let chad_med = median(&chad);
            let bermuda_med = median(&bermuda);
            assert!(
                chad_med > 2.0 * bermuda_med,
                "Chad {chad_med} vs Bermuda {bermuda_med}"
            );
        }
    }

    #[test]
    fn cloudflare_beats_google_in_senegal() {
        // §5.2: Cloudflare's Dakar PoP gives it a clear edge in Senegal
        // (274ms vs Google's 381ms).
        let rows = country_medians(shared_dataset());
        let cf = country_median_for(&rows, "SN", ProviderKind::Cloudflare);
        let gg = country_median_for(&rows, "SN", ProviderKind::Google);
        if let (Some(cf), Some(gg)) = (cf, gg) {
            assert!(cf < gg, "Cloudflare {cf} vs Google {gg} in Senegal");
        }
    }
}
