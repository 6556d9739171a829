//! §6.1: the explanatory-variable join.
//!
//! Attaches to every (client, provider) observation the country-level
//! covariates — GDP per capita, national bandwidth, AS count, income
//! group — plus the two distance controls (client→nameserver and
//! client→resolver-PoP).

use dohperf_core::records::{ClientRecord, Dataset};
use dohperf_providers::provider::ProviderKind;
use dohperf_world::countries::{country, Country, IncomeGroup};

/// One fully joined observation.
#[derive(Debug, Clone)]
pub struct ClientCovariates {
    /// Country ISO.
    pub country: &'static str,
    /// Which provider.
    pub provider: ProviderKind,
    /// DoH-1 time (ms).
    pub t_doh1_ms: f64,
    /// Reuse time (ms).
    pub t_dohr_ms: f64,
    /// Do53 baseline (ms).
    pub do53_ms: f64,
    /// GDP per capita (US$).
    pub gdp_per_capita: f64,
    /// National fixed broadband speed (Mbps).
    pub bandwidth_mbps: f64,
    /// National AS count.
    pub as_count: f64,
    /// Income group.
    pub income: IncomeGroup,
    /// FCC fast-broadband flag (>25 Mbps).
    pub fast_internet: bool,
    /// Client→authoritative-NS geodesic distance (miles).
    pub nameserver_distance_miles: f64,
    /// Client→servicing-PoP geodesic distance (miles).
    pub resolver_distance_miles: f64,
}

impl ClientCovariates {
    /// The DoH-N / Do53 multiplier.
    pub fn multiplier(&self, n: u32) -> f64 {
        dohperf_core::equations::doh_n_ms(self.t_doh1_ms, self.t_dohr_ms, n) / self.do53_ms
    }

    /// The raw DoH-N − Do53 delta (ms).
    pub fn delta_ms(&self, n: u32) -> f64 {
        dohperf_core::equations::doh_n_ms(self.t_doh1_ms, self.t_dohr_ms, n) - self.do53_ms
    }
}

/// The joined observation table.
#[derive(Debug, Clone)]
pub struct CovariateTable {
    /// All (client, provider) observations with per-client Do53.
    pub rows: Vec<ClientCovariates>,
    /// Median AS count across countries (the paper's High/Low split is
    /// "more ASes than the median country, i.e. 25").
    pub median_as_count: f64,
}

/// Build the covariate table. Clients without per-client Do53 (the 11
/// Super Proxy countries) are excluded, matching §3.5's note that those
/// countries cannot support per-client comparisons.
pub fn build(ds: &Dataset) -> CovariateTable {
    let countries = countries_by_index(ds);
    let mut rows = Vec::new();
    for r in &ds.records {
        let Some(do53) = r.do53_ms else { continue };
        if do53 <= 0.0 {
            continue;
        }
        debug_assert_eq!(ds.countries[r.country_index], r.country_iso);
        let Some(c) = countries[r.country_index] else {
            continue;
        };
        for s in &r.doh {
            if s.t_doh_ms <= 0.0 {
                continue; // jitter-corrupted derivation; unusable ratio
            }
            rows.push(row_for(
                r,
                c,
                s.provider,
                s.t_doh_ms,
                s.t_dohr_ms,
                do53,
                s.pop_distance_miles,
            ));
        }
    }
    let mut as_counts: Vec<f64> = {
        let mut seen = std::collections::HashSet::new();
        rows.iter()
            .filter(|r| seen.insert(r.country))
            .map(|r| r.as_count)
            .collect()
    };
    as_counts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_as_count = if as_counts.is_empty() {
        25.0
    } else {
        as_counts[as_counts.len() / 2]
    };
    CovariateTable {
        rows,
        median_as_count,
    }
}

/// The embedded-table row of every `ds.countries` entry. Callers look a
/// record's country up by `r.country_index` in this, instead of a linear
/// ISO scan per record; a record's index names its own ISO code (checked
/// in debug builds by the callers, and by a test on a campaign dataset).
pub(crate) fn countries_by_index(ds: &Dataset) -> Vec<Option<&'static Country>> {
    ds.countries.iter().map(|iso| country(iso)).collect()
}

fn row_for(
    r: &ClientRecord,
    c: &Country,
    provider: ProviderKind,
    t_doh1_ms: f64,
    t_dohr_ms: f64,
    do53_ms: f64,
    resolver_distance_miles: f64,
) -> ClientCovariates {
    ClientCovariates {
        country: c.iso,
        provider,
        t_doh1_ms,
        t_dohr_ms,
        do53_ms,
        gdp_per_capita: c.gdp_per_capita,
        bandwidth_mbps: c.bandwidth_mbps,
        as_count: f64::from(c.as_count),
        income: c.income_group(),
        fast_internet: c.has_fast_internet(),
        nameserver_distance_miles: r.nameserver_distance_miles,
        resolver_distance_miles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn table_excludes_super_proxy_countries() {
        let table = build(shared_dataset());
        assert!(!table.rows.is_empty());
        for iso in dohperf_world::countries::SUPER_PROXY_COUNTRIES {
            assert!(
                table.rows.iter().all(|r| r.country != iso),
                "{iso} should lack per-client Do53"
            );
        }
    }

    #[test]
    fn every_record_indexes_its_own_country() {
        let ds = shared_dataset();
        for r in &ds.records {
            assert_eq!(ds.countries[r.country_index], r.country_iso);
        }
        let countries = countries_by_index(ds);
        assert!(countries.iter().all(Option::is_some));
    }

    #[test]
    fn multipliers_and_deltas_consistent() {
        let table = build(shared_dataset());
        for r in table.rows.iter().take(500) {
            let m1 = r.multiplier(1);
            assert!((m1 - r.t_doh1_ms / r.do53_ms).abs() < 1e-9);
            assert!(r.delta_ms(1) > r.delta_ms(1000) - 1e-9);
        }
    }

    #[test]
    fn median_as_count_plausible() {
        // The paper reports a median of ~25 ASes per country.
        let table = build(shared_dataset());
        assert!(
            (5.0..200.0).contains(&table.median_as_count),
            "{}",
            table.median_as_count
        );
    }

    #[test]
    fn covariates_match_country_table() {
        let table = build(shared_dataset());
        let row = table.rows.iter().find(|r| r.country == "TD");
        if let Some(r) = row {
            assert_eq!(r.income, IncomeGroup::Low);
            assert!(!r.fast_internet);
        }
    }
}
