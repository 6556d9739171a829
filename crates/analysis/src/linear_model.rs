//! Tables 5 and 6: linear models of the raw Do53→DoH delta.
//!
//! Outcome: `delta_N = DoH-N − Do53` per (client, provider) observation,
//! for N ∈ {1, 10, 100}. Inputs: GDP per capita, national bandwidth,
//! national AS count, client→nameserver distance, client→resolver
//! distance. Scaled coefficients multiply each raw coefficient by the
//! feature's observed range, exactly as the paper's normalised columns.

use crate::covariates::CovariateTable;
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_stats::ols::OlsRegression;
use dohperf_stats::scale::MinMaxScaler;

/// One coefficient row.
#[derive(Debug, Clone)]
pub struct LinearCoefRow {
    /// Metric label as in Table 5.
    pub metric: &'static str,
    /// Raw coefficient (ms per unit).
    pub coef: f64,
    /// Scaled coefficient (ms across the feature's observed range).
    pub scaled_coef: f64,
    /// p-value.
    pub p_value: f64,
}

/// One fitted model (one "Output" block of Table 5, or one resolver block
/// of Table 6).
#[derive(Debug, Clone)]
pub struct LinearModelFit {
    /// Block label ("Delta", "Delta 10", "Delta 100", or a resolver name).
    pub output: String,
    /// Coefficient rows in the paper's metric order.
    pub rows: Vec<LinearCoefRow>,
    /// R².
    pub r_squared: f64,
    /// Observations.
    pub n: usize,
}

/// The full Table 5 (+ optionally Table 6) report.
#[derive(Debug, Clone)]
pub struct LinearModelReport {
    /// The three Table 5 blocks.
    pub table5: Vec<LinearModelFit>,
    /// The four per-resolver Table 6 blocks (delta-1 only).
    pub table6: Vec<LinearModelFit>,
}

const METRICS: [&str; 5] = [
    "GDP",
    "Bandwidth",
    "Num ASes",
    "Nameserver Dist.",
    "Resolver Dist.",
];

fn features_of(r: &crate::covariates::ClientCovariates) -> [f64; 5] {
    [
        r.gdp_per_capita,
        r.bandwidth_mbps,
        r.as_count,
        r.nameserver_distance_miles,
        r.resolver_distance_miles,
    ]
}

fn fit_block(
    label: String,
    rows: &[&crate::covariates::ClientCovariates],
    n_requests: u32,
) -> LinearModelFit {
    let mut reg = OlsRegression::new(&METRICS);
    let feature_rows: Vec<Vec<f64>> = rows.iter().map(|r| features_of(r).to_vec()).collect();
    for (r, f) in rows.iter().zip(&feature_rows) {
        reg.push(f, r.delta_ms(n_requests));
    }
    let fit = reg.fit().expect("Table 5 design must be full rank");
    let scaler = MinMaxScaler::fit(&feature_rows).expect("non-empty table");
    let out_rows = METRICS
        .iter()
        .enumerate()
        .map(|(j, &metric)| {
            let c = fit.coef(metric).expect("metric fitted");
            LinearCoefRow {
                metric,
                coef: c.estimate,
                scaled_coef: scaler.scaled_coefficient(j, c.estimate),
                p_value: c.p_value,
            }
        })
        .collect();
    LinearModelFit {
        output: label,
        rows: out_rows,
        r_squared: fit.r_squared,
        n: rows.len(),
    }
}

/// Fit the Table 5 blocks (all providers pooled, N ∈ {1, 10, 100}) and
/// the Table 6 per-resolver blocks (N = 1).
pub fn fit_linear_models(table: &CovariateTable) -> LinearModelReport {
    let all: Vec<&crate::covariates::ClientCovariates> = table.rows.iter().collect();
    let table5 = vec![
        fit_block("Delta".to_string(), &all, 1),
        fit_block("Delta 10".to_string(), &all, 10),
        fit_block("Delta 100".to_string(), &all, 100),
    ];
    let table6 = ALL_PROVIDERS
        .iter()
        .map(|&provider| {
            let subset: Vec<&crate::covariates::ClientCovariates> = table
                .rows
                .iter()
                .filter(|r| r.provider == provider)
                .collect();
            fit_block(provider.name().to_string(), &subset, 1)
        })
        .collect();
    LinearModelReport { table5, table6 }
}

/// Look up one metric row in a fit.
pub fn coef<'a>(fit: &'a LinearModelFit, metric: &str) -> &'a LinearCoefRow {
    fit.rows
        .iter()
        .find(|r| r.metric == metric)
        .expect("metric present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariates;
    use crate::testutil::shared_dataset;
    use std::sync::OnceLock;

    fn report() -> &'static LinearModelReport {
        static REPORT: OnceLock<LinearModelReport> = OnceLock::new();
        REPORT.get_or_init(|| fit_linear_models(&covariates::build(shared_dataset())))
    }

    #[test]
    fn bandwidth_is_negative_and_dominant() {
        // Paper: bandwidth scaled coef -134.5ms at Delta, the largest
        // infrastructure factor.
        let delta = &report().table5[0];
        let bw = coef(delta, "Bandwidth");
        assert!(bw.coef < 0.0, "bandwidth coef {}", bw.coef);
        assert!(bw.p_value < 0.001);
        assert!(bw.scaled_coef < -20.0, "scaled {}", bw.scaled_coef);
    }

    #[test]
    fn ases_negative_and_significant() {
        // Paper: Num ASes scaled coef -80.8ms.
        let delta = &report().table5[0];
        let ases = coef(delta, "Num ASes");
        assert!(ases.coef < 0.0);
        assert!(ases.p_value < 0.001);
    }

    #[test]
    fn resolver_distance_positive_and_large() {
        // Paper: +93.4ms scaled — second-largest factor overall.
        let delta = &report().table5[0];
        let rd = coef(delta, "Resolver Dist.");
        assert!(rd.coef > 0.0);
        assert!(rd.p_value < 0.001);
        assert!(rd.scaled_coef > 20.0, "scaled {}", rd.scaled_coef);
    }

    #[test]
    fn nameserver_distance_smaller_than_resolver_distance() {
        // Paper: +30.0ms vs +93.4ms scaled.
        let delta = &report().table5[0];
        let ns = coef(delta, "Nameserver Dist.");
        let rd = coef(delta, "Resolver Dist.");
        assert!(ns.scaled_coef.abs() < rd.scaled_coef.abs());
    }

    #[test]
    fn coefficients_shrink_with_reuse() {
        // Paper: every scaled coefficient shrinks from Delta to Delta 100.
        let t5 = &report().table5;
        for metric in ["Bandwidth", "Num ASes", "Resolver Dist."] {
            let d1 = coef(&t5[0], metric).scaled_coef.abs();
            let d100 = coef(&t5[2], metric).scaled_coef.abs();
            assert!(d100 < d1, "{metric}: {d1} -> {d100}");
        }
    }

    #[test]
    fn table6_has_four_resolver_blocks() {
        let t6 = &report().table6;
        assert_eq!(t6.len(), 4);
        for block in t6 {
            assert_eq!(block.rows.len(), 5);
            assert!(block.n > 100);
            // Bandwidth stays negative within every provider.
            assert!(coef(block, "Bandwidth").coef < 0.0, "{}", block.output);
        }
    }

    #[test]
    fn quad9_resolver_distance_matters() {
        let t6 = &report().table6;
        let q9 = t6.iter().find(|b| b.output == "Quad9").unwrap();
        assert!(coef(q9, "Resolver Dist.").coef > 0.0);
    }
}
