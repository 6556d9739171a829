//! Dataset characterisation (Table 3, Figures 3 and 8).

use dohperf_core::records::Dataset;
use dohperf_netsim::topology::GeoPoint;
use dohperf_providers::provider::ALL_PROVIDERS;

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct CompositionRow {
    /// Resolver label ("Do53 (Default)" for the baseline row).
    pub resolver: String,
    /// Unique clients with a valid measurement.
    pub clients: usize,
    /// Unique countries represented.
    pub countries: usize,
}

/// Table 3: dataset composition per resolver.
pub fn composition(ds: &Dataset) -> Vec<CompositionRow> {
    let mut rows = Vec::new();
    for provider in ALL_PROVIDERS {
        let mut clients = 0usize;
        let mut seen = vec![false; ds.countries.len()];
        for r in &ds.records {
            if r.sample(provider).is_some() {
                clients += 1;
                seen[r.country_index] = true;
            }
        }
        rows.push(CompositionRow {
            resolver: provider.name().to_string(),
            clients,
            countries: seen.iter().filter(|&&s| s).count(),
        });
    }
    // Do53 row: header clients plus Atlas-remedy country coverage.
    let mut clients = 0usize;
    let mut seen = vec![false; ds.countries.len()];
    for r in &ds.records {
        clients += 1; // every client yields Do53 data (header or remedy)
        seen[r.country_index] = true;
    }
    rows.push(CompositionRow {
        resolver: "Do53 (Default)".to_string(),
        clients,
        countries: seen.iter().filter(|&&s| s).count(),
    });
    rows
}

/// Figure 3: sorted clients-per-country counts (the distribution the
/// paper plots as a CDF).
pub fn clients_per_country(ds: &Dataset) -> Vec<(usize, usize)> {
    let mut counts = vec![0usize; ds.countries.len()];
    for r in &ds.records {
        counts[r.country_index] += 1;
    }
    let mut rows: Vec<(usize, usize)> = counts
        .into_iter()
        .enumerate()
        .filter(|(_, n)| *n > 0)
        .collect();
    rows.sort_by_key(|&(_, n)| n);
    rows
}

/// Figure 8: the client scatter (positions only — no IPs, matching the
/// paper's ethics posture).
pub fn client_positions(ds: &Dataset) -> Vec<GeoPoint> {
    ds.records.iter().map(|r| r.position).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn composition_has_five_rows_with_full_coverage() {
        let ds = shared_dataset();
        let rows = composition(ds);
        assert_eq!(rows.len(), 5);
        // Every provider row covers (nearly) every country, like Table 3.
        for row in &rows {
            assert!(row.clients > 0);
            assert!(
                row.countries as f64 >= 0.95 * ds.country_count() as f64,
                "{}: {} countries",
                row.resolver,
                row.countries
            );
        }
        assert_eq!(rows[4].resolver, "Do53 (Default)");
        assert_eq!(rows[4].clients, ds.records.len());
    }

    #[test]
    fn clients_per_country_is_sorted_and_complete() {
        let ds = shared_dataset();
        let rows = clients_per_country(ds);
        assert_eq!(rows.len(), ds.country_count());
        for w in rows.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let total: usize = rows.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, ds.records.len());
    }

    #[test]
    fn client_positions_match_record_count() {
        let ds = shared_dataset();
        assert_eq!(client_positions(ds).len(), ds.records.len());
    }
}
