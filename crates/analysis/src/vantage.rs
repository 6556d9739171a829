//! Vantage-point bias analysis (the §7 limitation, quantified).
//!
//! The paper's clients follow BrightData's exit-node distribution, which
//! over-represents countries where HolaVPN is popular relative to their
//! real Internet populations. Reweighting each client by its country's
//! share of the global Internet ecosystem — proxied here by national AS
//! counts, the best ecosystem-size signal in the covariate table — shows
//! how much the headline numbers depend on the vantage distribution.

use dohperf_core::records::Dataset;
use dohperf_stats::desc::{median, weighted_median};
use dohperf_world::countries::country;

/// Headline medians under the original vs reweighted client distribution.
#[derive(Debug, Clone)]
pub struct VantageComparison {
    /// Unweighted median DoH1 (the paper's number).
    pub doh1_unweighted_ms: f64,
    /// Ecosystem-weighted median DoH1.
    pub doh1_weighted_ms: f64,
    /// Unweighted median Do53.
    pub do53_unweighted_ms: f64,
    /// Ecosystem-weighted median Do53.
    pub do53_weighted_ms: f64,
}

impl VantageComparison {
    /// How much the vantage distribution inflates the DoH1 median, as a
    /// fraction (positive = BrightData's distribution makes DoH look
    /// slower than an Internet-population-weighted view would).
    pub fn doh1_bias_fraction(&self) -> f64 {
        (self.doh1_unweighted_ms - self.doh1_weighted_ms) / self.doh1_weighted_ms
    }
}

/// Weight for a client: its country's AS count divided by the number of
/// sampled clients from that country (so a country's *total* weight is
/// proportional to its ecosystem size, regardless of how many exits
/// BrightData happened to have there).
fn client_weight(ds: &Dataset, country_iso: &str) -> f64 {
    let Some(c) = country(country_iso) else {
        return 0.0;
    };
    let clients_here = ds
        .records
        .iter()
        .filter(|r| r.country_iso == country_iso)
        .count()
        .max(1);
    f64::from(c.as_count) / clients_here as f64
}

/// Compare unweighted vs ecosystem-weighted headline medians.
pub fn vantage_comparison(ds: &Dataset) -> VantageComparison {
    let mut doh1 = Vec::new();
    let mut doh1_w = Vec::new();
    let mut do53 = Vec::new();
    let mut do53_w = Vec::new();
    for r in &ds.records {
        let w = client_weight(ds, r.country_iso);
        for s in &r.doh {
            doh1.push(s.t_doh_ms);
            doh1_w.push(w);
        }
        if let Some(v) = r.do53_ms {
            do53.push(v);
            do53_w.push(w);
        }
    }
    VantageComparison {
        doh1_unweighted_ms: median(&doh1),
        doh1_weighted_ms: weighted_median(&doh1, &doh1_w),
        do53_unweighted_ms: median(&do53),
        do53_weighted_ms: weighted_median(&do53, &do53_w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn weighting_shifts_medians_toward_big_ecosystems() {
        let cmp = vantage_comparison(shared_dataset());
        // Big-AS countries are well-connected: the weighted view is
        // faster than BrightData's country-uniform-ish sample.
        assert!(
            cmp.doh1_weighted_ms < cmp.doh1_unweighted_ms,
            "weighted {} unweighted {}",
            cmp.doh1_weighted_ms,
            cmp.doh1_unweighted_ms
        );
        assert!(cmp.do53_weighted_ms < cmp.do53_unweighted_ms);
        // The bias is substantial but not absurd.
        let bias = cmp.doh1_bias_fraction();
        assert!((0.02..2.0).contains(&bias), "bias {bias}");
    }

    #[test]
    fn all_medians_positive() {
        let cmp = vantage_comparison(shared_dataset());
        for v in [
            cmp.doh1_unweighted_ms,
            cmp.doh1_weighted_ms,
            cmp.do53_unweighted_ms,
            cmp.do53_weighted_ms,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
    }
}
