//! Robustness checks beyond the paper's point estimates.
//!
//! * Bootstrap confidence intervals on the headline medians — sanity that
//!   the reproduction's key comparisons are not sampling noise.
//! * Spearman rank correlations between country covariates and the
//!   country-median Do53→DoH delta — a nonparametric cross-check of the
//!   §6 linear model's signs that is immune to the outlier-sensitivity of
//!   min–max-scaled OLS coefficients.

use crate::deltas::CountryDelta;
use crate::fanout::fan_out;
use dohperf_core::records::Dataset;
use dohperf_stats::desc::median;
use dohperf_stats::resample::{median_ci, spearman, ConfidenceInterval};
use dohperf_world::countries::country;
use std::collections::HashMap;

/// Bootstrap CIs on the headline medians.
#[derive(Debug, Clone)]
pub struct HeadlineCis {
    /// Median DoH1 across all (client, provider) observations.
    pub doh1: ConfidenceInterval,
    /// Median DoHR.
    pub dohr: ConfidenceInterval,
    /// Median Do53 (per-client header values).
    pub do53: ConfidenceInterval,
}

impl HeadlineCis {
    /// True when the DoH1 and Do53 intervals do not overlap — the
    /// headline slowdown is then unambiguous at the chosen level.
    pub fn slowdown_is_significant(&self) -> bool {
        self.doh1.lo > self.do53.hi
    }
}

/// Compute 95% bootstrap CIs for the headline medians, on one thread.
pub fn headline_cis(ds: &Dataset, seed: u64) -> Option<HeadlineCis> {
    headline_cis_threads(ds, seed, 1)
}

/// [`headline_cis`] with the three bootstraps run concurrently on at most
/// `threads` threads (0 = one per core). Each CI has its own seed and
/// sample, so the result is bit-identical at every thread count.
pub fn headline_cis_threads(ds: &Dataset, seed: u64, threads: usize) -> Option<HeadlineCis> {
    let mut doh1 = Vec::new();
    let mut dohr = Vec::new();
    let mut do53 = Vec::new();
    for r in &ds.records {
        for s in &r.doh {
            doh1.push(s.t_doh_ms);
            dohr.push(s.t_dohr_ms);
        }
        if let Some(v) = r.do53_ms {
            do53.push(v);
        }
    }
    let samples = [
        (doh1, seed),
        (dohr, seed.wrapping_add(1)),
        (do53, seed.wrapping_add(2)),
    ];
    let [doh1, dohr, do53] = fan_out(&samples, threads, |(xs, seed)| median_ci(xs, 0.95, *seed))
        .try_into()
        .expect("one CI per sample");
    Some(HeadlineCis {
        doh1: doh1?,
        dohr: dohr?,
        do53: do53?,
    })
}

/// Spearman correlations of country covariates with the country-median
/// delta (DoH-N − Do53).
#[derive(Debug, Clone)]
pub struct CovariateCorrelations {
    /// ρ(bandwidth, delta) — expected strongly negative.
    pub bandwidth: f64,
    /// ρ(AS count, delta) — expected negative.
    pub as_count: f64,
    /// ρ(GDP per capita, delta) — expected weakly negative / null.
    pub gdp: f64,
    /// Countries included.
    pub n: usize,
}

/// Rank-correlate covariates against per-country median deltas.
pub fn covariate_correlations(deltas: &[CountryDelta]) -> Option<CovariateCorrelations> {
    let mut per_country: HashMap<&str, Vec<f64>> = HashMap::new();
    for d in deltas {
        per_country.entry(d.country).or_default().push(d.delta_ms);
    }
    let mut delta_v = Vec::new();
    let mut bw_v = Vec::new();
    let mut as_v = Vec::new();
    let mut gdp_v = Vec::new();
    for (iso, ds) in &per_country {
        let Some(c) = country(iso) else { continue };
        delta_v.push(median(ds));
        bw_v.push(c.bandwidth_mbps);
        as_v.push(f64::from(c.as_count));
        gdp_v.push(c.gdp_per_capita);
    }
    Some(CovariateCorrelations {
        bandwidth: spearman(&bw_v, &delta_v)?,
        as_count: spearman(&as_v, &delta_v)?,
        gdp: spearman(&gdp_v, &delta_v)?,
        n: delta_v.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltas::country_deltas;
    use crate::testutil::shared_dataset;

    #[test]
    fn headline_slowdown_is_statistically_unambiguous() {
        let cis = headline_cis(shared_dataset(), 11).unwrap();
        assert!(
            cis.slowdown_is_significant(),
            "DoH1 {:?} vs Do53 {:?}",
            cis.doh1,
            cis.do53
        );
        assert!(cis.doh1.contains(cis.doh1.estimate));
    }

    /// Pins every bit of the headline CIs. The bootstrap kernel may be
    /// rewritten only if these bits stay put.
    #[test]
    fn headline_cis_are_bit_stable() {
        let cis = headline_cis(shared_dataset(), 11).unwrap();
        let bits = |ci: ConfidenceInterval| [ci.estimate, ci.lo, ci.hi].map(f64::to_bits);
        assert_eq!(
            bits(cis.doh1),
            [0x407c21f6a619da9e, 0x407bdd07ce4572d1, 0x407c642db61bb05e]
        );
        assert_eq!(
            bits(cis.dohr),
            [0x407239b9ee88df38, 0x40721336049ecb32, 0x40726c41aceb85f6]
        );
        assert_eq!(
            bits(cis.do53),
            [0x406a719d80e496ee, 0x406a1591a3245cd7, 0x406ad218ae45f909]
        );
    }

    #[test]
    fn headline_cis_are_identical_at_any_thread_count() {
        let serial = headline_cis(shared_dataset(), 11).unwrap();
        for threads in [0, 1, 2, 3, 8] {
            let cis = headline_cis_threads(shared_dataset(), 11, threads).unwrap();
            for (a, b) in [
                (cis.doh1, serial.doh1),
                (cis.dohr, serial.dohr),
                (cis.do53, serial.do53),
            ] {
                let bits = |ci: ConfidenceInterval| [ci.estimate, ci.lo, ci.hi].map(f64::to_bits);
                assert_eq!(bits(a), bits(b), "threads {threads}");
            }
        }
    }

    #[test]
    fn dohr_sits_between_do53_and_doh1() {
        let cis = headline_cis(shared_dataset(), 11).unwrap();
        assert!(cis.dohr.estimate < cis.doh1.estimate);
        assert!(cis.dohr.estimate > cis.do53.estimate);
    }

    #[test]
    fn rank_correlations_confirm_the_linear_model_signs() {
        let deltas = country_deltas(shared_dataset(), 1);
        let corr = covariate_correlations(&deltas).unwrap();
        assert!(corr.n >= 150, "n {}", corr.n);
        // Bandwidth and AS count correlate negatively with the delta —
        // nonparametrically, so no scaled-coefficient caveats apply.
        assert!(corr.bandwidth < -0.2, "bandwidth rho {}", corr.bandwidth);
        assert!(corr.as_count < -0.1, "ases rho {}", corr.as_count);
    }

    #[test]
    fn correlations_shrink_with_reuse() {
        let c1 = covariate_correlations(&country_deltas(shared_dataset(), 1)).unwrap();
        let c100 = covariate_correlations(&country_deltas(shared_dataset(), 100)).unwrap();
        assert!(
            c100.bandwidth.abs() < c1.bandwidth.abs() + 0.15,
            "1: {} 100: {}",
            c1.bandwidth,
            c100.bandwidth
        );
    }
}
