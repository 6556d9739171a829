//! Figures 6 and 9: PoP assignment quality.
//!
//! "Potential improvement" is the distance between a client and its
//! *servicing* PoP minus the distance to the *closest* PoP of the same
//! provider. The paper's medians: NextDNS 6mi, Google 44mi, Cloudflare
//! 46mi, Quad9 769mi; 26% of Cloudflare clients (but only 10% of Google
//! clients) could move ≥1000 miles closer; 21% of Quad9 clients sit on
//! their closest PoP.

use dohperf_core::records::Dataset;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_stats::desc::quantile_sorted;

/// Figure 6/9 statistics for one provider.
#[derive(Debug, Clone)]
pub struct PopImprovementStats {
    /// Which provider.
    pub provider: ProviderKind,
    /// All potential-improvement values (miles), sorted.
    pub improvements_miles: Vec<f64>,
    /// All client→servicing-PoP distances (miles), sorted (Figure 9).
    pub distances_miles: Vec<f64>,
    /// Median potential improvement.
    pub median_improvement_miles: f64,
    /// Fraction of clients that could move at least 1,000 miles closer.
    pub over_1000_miles_fraction: f64,
    /// Fraction of clients assigned to their closest PoP (<10 miles of
    /// improvement counts as optimal, absorbing geodesic rounding).
    pub optimal_fraction: f64,
    /// 90th percentile of the servicing distance.
    pub p90_distance_miles: f64,
}

/// Compute Figure 6/9 statistics for every provider.
pub fn pop_improvement(ds: &Dataset) -> Vec<PopImprovementStats> {
    ALL_PROVIDERS
        .iter()
        .map(|&provider| {
            let mut improvements = Vec::new();
            let mut distances = Vec::new();
            for r in &ds.records {
                if let Some(s) = r.sample(provider) {
                    improvements.push(s.potential_improvement_miles());
                    distances.push(s.pop_distance_miles);
                }
            }
            improvements.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            distances.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let n = improvements.len().max(1) as f64;
            let over_1000 = improvements.iter().filter(|&&x| x >= 1000.0).count() as f64 / n;
            let optimal = improvements.iter().filter(|&&x| x < 10.0).count() as f64 / n;
            PopImprovementStats {
                provider,
                median_improvement_miles: quantile_sorted(&improvements, 0.5),
                over_1000_miles_fraction: over_1000,
                optimal_fraction: optimal,
                p90_distance_miles: quantile_sorted(&distances, 0.9),
                improvements_miles: improvements,
                distances_miles: distances,
            }
        })
        .collect()
}

/// Look up one provider's stats.
pub fn stats_for(stats: &[PopImprovementStats], provider: ProviderKind) -> &PopImprovementStats {
    stats
        .iter()
        .find(|s| s.provider == provider)
        .expect("all providers computed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn quad9_is_the_outlier() {
        // Paper: Quad9's median improvement (769mi) dwarfs the others
        // (6–46mi).
        let stats = pop_improvement(shared_dataset());
        let q9 = stats_for(&stats, ProviderKind::Quad9).median_improvement_miles;
        for p in [
            ProviderKind::Cloudflare,
            ProviderKind::Google,
            ProviderKind::NextDns,
        ] {
            let other = stats_for(&stats, p).median_improvement_miles;
            assert!(q9 > 3.0 * other.max(10.0), "{p}: q9 {q9} vs {other}");
        }
        assert!(q9 > 300.0, "q9 median {q9}");
    }

    #[test]
    fn nextdns_is_near_optimal() {
        // Paper: NextDNS median improvement 6 miles — misassignments are
        // tiny because the deployment is dense.
        let stats = pop_improvement(shared_dataset());
        let nd = stats_for(&stats, ProviderKind::NextDns);
        assert!(
            nd.median_improvement_miles < 80.0,
            "{}",
            nd.median_improvement_miles
        );
        assert!(nd.optimal_fraction > 0.4, "{}", nd.optimal_fraction);
    }

    #[test]
    fn best_routed_fleets_have_small_nonzero_medians() {
        // Paper Figure 6: CF 46mi / GG 44mi / ND 6mi — small but nonzero,
        // vs Quad9's 769mi.
        let stats = pop_improvement(shared_dataset());
        for p in [ProviderKind::Cloudflare, ProviderKind::Google] {
            let m = stats_for(&stats, p).median_improvement_miles;
            assert!((1.0..400.0).contains(&m), "{p}: {m}");
        }
    }

    #[test]
    fn cloudflare_worse_tail_than_google() {
        // Paper: 26% of Cloudflare clients vs 10% of Google clients could
        // move >=1000mi closer.
        let stats = pop_improvement(shared_dataset());
        let cf = stats_for(&stats, ProviderKind::Cloudflare).over_1000_miles_fraction;
        let gg = stats_for(&stats, ProviderKind::Google).over_1000_miles_fraction;
        assert!(cf > gg, "cf {cf} gg {gg}");
    }

    #[test]
    fn quad9_optimal_fraction_near_paper() {
        // Paper: only 21% of Quad9 clients on their closest PoP.
        let stats = pop_improvement(shared_dataset());
        let q9 = stats_for(&stats, ProviderKind::Quad9).optimal_fraction;
        assert!((0.10..0.40).contains(&q9), "{q9}");
    }

    #[test]
    fn google_distances_larger_than_cloudflare() {
        // With 26 PoPs vs 146, Google clients sit farther from their
        // servicing PoP (Figure 9) even though assignment is cleaner.
        let stats = pop_improvement(shared_dataset());
        let gg = quantile_sorted(
            &stats_for(&stats, ProviderKind::Google).distances_miles,
            0.5,
        );
        let cf = quantile_sorted(
            &stats_for(&stats, ProviderKind::Cloudflare).distances_miles,
            0.5,
        );
        assert!(gg > cf, "google {gg} cloudflare {cf}");
    }

    #[test]
    fn improvements_never_negative() {
        let stats = pop_improvement(shared_dataset());
        for s in &stats {
            assert!(s.improvements_miles.iter().all(|&x| x >= 0.0));
        }
    }
}
