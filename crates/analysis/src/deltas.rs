//! Figure 7: per-country Do53→DoH10 deltas by resolver.
//!
//! For each country and provider, the delta between the country's median
//! DoH10 and its median Do53. The paper finds a median-country slowdown
//! of ~49.65ms for Cloudflare but ~159.62ms for NextDNS, and that 8.8% of
//! countries *benefit* from a switch to DoH.

use dohperf_core::records::Dataset;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::median;

/// One country's delta for one provider.
#[derive(Debug, Clone)]
pub struct CountryDelta {
    /// Country ISO code.
    pub country: &'static str,
    /// Which provider.
    pub provider: ProviderKind,
    /// Median DoH10 minus median Do53 (ms). Negative = DoH speedup.
    pub delta_ms: f64,
}

/// Compute per-country deltas. Countries without per-client Do53 use the
/// Atlas country median (§3.5 remedy).
pub fn country_deltas(ds: &Dataset, n_requests: u32) -> Vec<CountryDelta> {
    let mut rows = Vec::new();
    for (idx, &iso) in ds.countries.iter().enumerate() {
        // Country Do53 median: headers, or the Atlas remedy.
        let header: Vec<f64> = ds.records_in(idx).filter_map(|r| r.do53_ms).collect();
        let do53 = if !header.is_empty() {
            median(&header)
        } else if let Some(atlas) = ds.atlas_median_ms(idx) {
            atlas
        } else {
            continue;
        };
        for &provider in &ALL_PROVIDERS {
            let doh_n: Vec<f64> = ds
                .records_in(idx)
                .filter_map(|r| r.sample(provider))
                .map(|s| s.doh_n_ms(n_requests))
                .collect();
            if doh_n.is_empty() {
                continue;
            }
            rows.push(CountryDelta {
                country: iso,
                provider,
                delta_ms: median(&doh_n) - do53,
            });
        }
    }
    rows
}

/// Summary per resolver: median country delta and the fraction of
/// countries that speed up.
#[derive(Debug, Clone)]
pub struct ResolverDeltaSummary {
    /// Which provider.
    pub provider: ProviderKind,
    /// Median over countries of the delta (ms).
    pub median_delta_ms: f64,
    /// Fraction of countries with a negative delta (speedup).
    pub speedup_fraction: f64,
    /// Number of countries summarised.
    pub countries: usize,
}

/// Summarise deltas per resolver.
pub fn resolver_delta_summary(deltas: &[CountryDelta]) -> Vec<ResolverDeltaSummary> {
    ALL_PROVIDERS
        .iter()
        .map(|&provider| {
            let xs: Vec<f64> = deltas
                .iter()
                .filter(|d| d.provider == provider)
                .map(|d| d.delta_ms)
                .collect();
            let speedups = xs.iter().filter(|&&x| x < 0.0).count();
            ResolverDeltaSummary {
                provider,
                median_delta_ms: median(&xs),
                speedup_fraction: speedups as f64 / xs.len().max(1) as f64,
                countries: xs.len(),
            }
        })
        .collect()
}

/// The fraction of countries whose *best-case* (across providers) switch
/// to DoH is a speedup — the paper's 8.8% headline uses the provider used
/// for the initial DoH request; we report per-country mean delta < 0.
pub fn country_speedup_fraction(deltas: &[CountryDelta]) -> f64 {
    use std::collections::HashMap;
    let mut per_country: HashMap<&str, Vec<f64>> = HashMap::new();
    for d in deltas {
        per_country.entry(d.country).or_default().push(d.delta_ms);
    }
    if per_country.is_empty() {
        return f64::NAN;
    }
    let speedups = per_country.values().filter(|xs| median(xs) < 0.0).count();
    speedups as f64 / per_country.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn deltas_cover_most_countries() {
        let ds = shared_dataset();
        let deltas = country_deltas(ds, 10);
        let countries: std::collections::HashSet<&str> = deltas.iter().map(|d| d.country).collect();
        assert!(countries.len() >= 200, "{}", countries.len());
    }

    #[test]
    fn cloudflare_has_smallest_median_delta() {
        // Figure 7's ordering: Cloudflare < Quad9/Google < NextDNS.
        let deltas = country_deltas(shared_dataset(), 10);
        let summary = resolver_delta_summary(&deltas);
        let get = |p: ProviderKind| {
            summary
                .iter()
                .find(|s| s.provider == p)
                .unwrap()
                .median_delta_ms
        };
        let cf = get(ProviderKind::Cloudflare);
        let nd = get(ProviderKind::NextDns);
        assert!(cf < nd, "cf {cf} nd {nd}");
        for p in [
            ProviderKind::Google,
            ProviderKind::NextDns,
            ProviderKind::Quad9,
        ] {
            assert!(cf <= get(p) + 1e-9, "{p}");
        }
    }

    #[test]
    fn median_deltas_in_paper_regime() {
        // Cloudflare ~49.65ms, NextDNS ~159.62ms in the paper; require
        // positive medians of tens-to-hundreds of ms with NextDNS at
        // least ~2x Cloudflare.
        let deltas = country_deltas(shared_dataset(), 10);
        let summary = resolver_delta_summary(&deltas);
        let cf = summary
            .iter()
            .find(|s| s.provider == ProviderKind::Cloudflare)
            .unwrap()
            .median_delta_ms;
        let nd = summary
            .iter()
            .find(|s| s.provider == ProviderKind::NextDns)
            .unwrap()
            .median_delta_ms;
        assert!((5.0..300.0).contains(&cf), "cf {cf}");
        assert!(nd > 1.5 * cf, "nd {nd} cf {cf}");
    }

    #[test]
    fn some_countries_speed_up() {
        // Paper §5.3 / Figure 7: 8.8% of countries benefit from the
        // switch, measured on the per-query time of a 10-query connection.
        let deltas = country_deltas(shared_dataset(), 10);
        let frac = country_speedup_fraction(&deltas);
        assert!((0.02..0.35).contains(&frac), "{frac}");
    }

    #[test]
    fn more_requests_shrink_deltas() {
        let ds = shared_dataset();
        let d1 = resolver_delta_summary(&country_deltas(ds, 1));
        let d100 = resolver_delta_summary(&country_deltas(ds, 100));
        for (a, b) in d1.iter().zip(&d100) {
            assert!(b.median_delta_ms < a.median_delta_ms, "{}", a.provider);
        }
    }
}
