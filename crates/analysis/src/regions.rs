//! Continent-level analysis.
//!
//! The paper's Related Work contrasts its country-level analysis against
//! Doan et al.'s continent-level DoT study, and claims that *all* four
//! resolvers — including Cloudflare — exhibit high regional variance
//! (§8). This module computes per-region medians and dispersion so that
//! claim is checkable.

use crate::covariates::countries_by_index;
use dohperf_core::records::Dataset;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::quantile_sorted;
use dohperf_world::countries::Region;

/// All regions in display order.
const ALL_REGIONS: [Region; 6] = [
    Region::Africa,
    Region::Asia,
    Region::Europe,
    Region::NorthAmerica,
    Region::SouthAmerica,
    Region::Oceania,
];

/// Readable region label.
pub fn region_name(r: Region) -> &'static str {
    match r {
        Region::Africa => "Africa",
        Region::Asia => "Asia",
        Region::Europe => "Europe",
        Region::NorthAmerica => "North America",
        Region::SouthAmerica => "South America",
        Region::Oceania => "Oceania",
    }
}

/// One (region, provider) summary.
#[derive(Debug, Clone)]
pub struct RegionSummary {
    /// Which region.
    pub region: Region,
    /// Which provider.
    pub provider: ProviderKind,
    /// Median DoH1 (ms).
    pub median_doh1_ms: f64,
    /// Interquartile range of DoH1 (ms).
    pub iqr_doh1_ms: f64,
    /// Clients contributing.
    pub clients: usize,
}

/// Compute per-region summaries for every provider.
///
/// One pass over the records buckets each DoH1 time by (region,
/// provider) in record order; each bucket is then sorted once for its
/// median and quartiles.
pub fn region_summaries(ds: &Dataset) -> Vec<RegionSummary> {
    let region_of: Vec<Option<usize>> = countries_by_index(ds)
        .into_iter()
        .map(|c| c.and_then(|c| ALL_REGIONS.iter().position(|&r| r == c.region)))
        .collect();
    let mut buckets = vec![Vec::new(); ALL_REGIONS.len() * ALL_PROVIDERS.len()];
    for r in &ds.records {
        debug_assert_eq!(ds.countries[r.country_index], r.country_iso);
        let Some(region) = region_of[r.country_index] else {
            continue;
        };
        for (p, &provider) in ALL_PROVIDERS.iter().enumerate() {
            if let Some(s) = r.sample(provider) {
                buckets[region * ALL_PROVIDERS.len() + p].push(s.t_doh_ms);
            }
        }
    }
    let cells = ALL_REGIONS.iter().flat_map(|&region| {
        ALL_PROVIDERS
            .iter()
            .map(move |&provider| (region, provider))
    });
    cells
        .zip(buckets)
        .filter(|(_, samples)| !samples.is_empty())
        .map(|((region, provider), mut samples)| {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
            RegionSummary {
                region,
                provider,
                median_doh1_ms: quantile_sorted(&samples, 0.5),
                iqr_doh1_ms: quantile_sorted(&samples, 0.75) - quantile_sorted(&samples, 0.25),
                clients: samples.len(),
            }
        })
        .collect()
}

/// Regional variance check (§8): the coefficient of variation of a
/// provider's per-region medians. The paper argues this is high for every
/// provider — "all resolvers (including Cloudflare) exhibit a high level
/// of regional variance", contradicting Doan et al.'s DoT finding.
pub fn regional_variation(summaries: &[RegionSummary], provider: ProviderKind) -> f64 {
    let medians: Vec<f64> = summaries
        .iter()
        .filter(|s| s.provider == provider)
        .map(|s| s.median_doh1_ms)
        .collect();
    if medians.len() < 2 {
        return f64::NAN;
    }
    let mean = medians.iter().sum::<f64>() / medians.len() as f64;
    let var = medians.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / medians.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn every_region_and_provider_summarised() {
        let summaries = region_summaries(shared_dataset());
        // 6 regions x 4 providers, all populated at campaign scale.
        assert_eq!(summaries.len(), 24);
        for s in &summaries {
            assert!(s.median_doh1_ms > 0.0);
            assert!(s.clients > 5, "{:?}/{}", s.region, s.provider);
        }
    }

    #[test]
    fn africa_slower_than_europe_for_every_provider() {
        let summaries = region_summaries(shared_dataset());
        for provider in ALL_PROVIDERS {
            let get = |region: Region| {
                summaries
                    .iter()
                    .find(|s| s.region == region && s.provider == provider)
                    .unwrap()
                    .median_doh1_ms
            };
            assert!(
                get(Region::Africa) > get(Region::Europe),
                "{provider}: Africa {} vs Europe {}",
                get(Region::Africa),
                get(Region::Europe)
            );
        }
    }

    #[test]
    fn all_providers_show_high_regional_variance() {
        // §8: even Cloudflare varies strongly across regions — the paper's
        // point against continent-level aggregation.
        let summaries = region_summaries(shared_dataset());
        for provider in ALL_PROVIDERS {
            let cv = regional_variation(&summaries, provider);
            assert!(cv > 0.10, "{provider}: CV {cv}");
        }
    }

    /// The straightforward definition: one filtered pass per (region,
    /// provider) cell, an ISO lookup per record, and a selection per quantile.
    fn naive_region_summaries(ds: &Dataset) -> Vec<RegionSummary> {
        use dohperf_stats::desc::{median, quantile};
        use dohperf_world::countries::country;
        let mut out = Vec::new();
        for &region in &ALL_REGIONS {
            for &provider in &ALL_PROVIDERS {
                let samples: Vec<f64> = ds
                    .records
                    .iter()
                    .filter(|r| country(r.country_iso).map(|c| c.region) == Some(region))
                    .filter_map(|r| r.sample(provider))
                    .map(|s| s.t_doh_ms)
                    .collect();
                if samples.is_empty() {
                    continue;
                }
                out.push(RegionSummary {
                    region,
                    provider,
                    median_doh1_ms: median(&samples),
                    iqr_doh1_ms: quantile(&samples, 0.75) - quantile(&samples, 0.25),
                    clients: samples.len(),
                });
            }
        }
        out
    }

    #[test]
    fn one_pass_equals_the_naive_definition() {
        let key = |s: &RegionSummary| {
            (
                s.region,
                s.provider,
                s.median_doh1_ms.to_bits(),
                s.iqr_doh1_ms.to_bits(),
                s.clients,
            )
        };
        let fast: Vec<_> = region_summaries(shared_dataset()).iter().map(key).collect();
        let naive: Vec<_> = naive_region_summaries(shared_dataset())
            .iter()
            .map(key)
            .collect();
        assert_eq!(fast, naive);
    }

    #[test]
    fn variation_is_nan_for_missing_provider_data() {
        assert!(regional_variation(&[], ProviderKind::Google).is_nan());
    }
}
