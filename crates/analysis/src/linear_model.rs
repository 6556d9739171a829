//! Tables 5 and 6: linear models of the raw Do53→DoH delta.
//!
//! Outcome: `delta_N = DoH-N − Do53` per (client, provider) observation,
//! for N ∈ {1, 10, 100}. Inputs: GDP per capita, national bandwidth,
//! national AS count, client→nameserver distance, client→resolver
//! distance. Scaled coefficients multiply each raw coefficient by the
//! feature's observed range, exactly as the paper's normalised columns.

use crate::covariates::{ClientCovariates, CovariateTable};
use crate::fanout::fan_out;
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

fn features_of(r: &ClientCovariates) -> [f64; 5] {
    [
        r.gdp_per_capita,
        r.bandwidth_mbps,
        r.as_count,
        r.nameserver_distance_miles,
        r.resolver_distance_miles,
    ]
}

fn fit_block(label: String, rows: &[&ClientCovariates], n_requests: u32) -> LinearModelFit {
    let mut reg = OlsRegression::new(&METRICS);
    reg.reserve(rows.len());
    let feature_rows: Vec<[f64; 5]> = rows.iter().map(|r| features_of(r)).collect();
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
/// the Table 6 per-resolver blocks (N = 1), on one thread.
pub fn fit_linear_models(table: &CovariateTable) -> LinearModelReport {
    LinearModelReport {
        table5: fit_table5_threads(table, 1),
        table6: fit_table6_threads(table, 1),
    }
}

/// The three Table 5 blocks, fitted concurrently on at most `threads`
/// threads (0 = one per core); bit-identical at every thread count.
pub fn fit_table5_threads(table: &CovariateTable, threads: usize) -> Vec<LinearModelFit> {
    let all: Vec<&ClientCovariates> = table.rows.iter().collect();
    let blocks = [("Delta", 1), ("Delta 10", 10), ("Delta 100", 100)];
    fan_out(&blocks, threads, |&(label, n)| {
        fit_block(label.to_string(), &all, n)
    })
}

/// The four Table 6 per-resolver blocks, fitted concurrently on at most
/// `threads` threads (0 = one per core); bit-identical at every thread
/// count.
pub fn fit_table6_threads(table: &CovariateTable, threads: usize) -> Vec<LinearModelFit> {
    fan_out(&ALL_PROVIDERS, threads, |&provider| {
        let subset: Vec<&ClientCovariates> = table
            .rows
            .iter()
            .filter(|r| r.provider == provider)
            .collect();
        fit_block(provider.name().to_string(), &subset, 1)
    })
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

    /// Every bit a block renders: (coef, scaled coef, p) per metric, then R².
    fn block_bits(block: &LinearModelFit) -> (String, Vec<u64>) {
        let values = block
            .rows
            .iter()
            .flat_map(|r| [r.coef, r.scaled_coef, r.p_value]);
        let bits = values.chain([block.r_squared]).map(f64::to_bits).collect();
        (block.output.clone(), bits)
    }

    #[test]
    fn threaded_tables_are_identical_at_any_thread_count() {
        let table = covariates::build(shared_dataset());
        let bits = |blocks: &[LinearModelFit]| blocks.iter().map(block_bits).collect::<Vec<_>>();
        for threads in [0, 1, 2, 3, 8] {
            let table5 = fit_table5_threads(&table, threads);
            assert_eq!(bits(&table5), bits(&report().table5), "threads {threads}");
            let table6 = fit_table6_threads(&table, threads);
            assert_eq!(bits(&table6), bits(&report().table6), "threads {threads}");
        }
    }

    /// Pins every bit of Tables 5 and 6. The fits may be restructured
    /// (threads, block order, design layout) only if these bits stay put.
    #[test]
    fn tables_5_and_6_are_bit_stable() {
        // Per block: one (coef, scaled coef, p) line per metric, then R^2.
        #[rustfmt::skip]
        const BLOCKS: [(&str, [u64; 16]); 7] = [
            ("Delta", [
                0x3f1f979dbde3491a, 0x4034e746de740aaf, 0x3f98951afb496c00,
                0xbff21df82765bc4c, 0xc07022b103169bb4, 0x0000000000000000,
                0xbf943f621742003a, 0xc064a2b910841c0b, 0x0000000000000000,
                0x3f6094ae6d2d37c6, 0x403395f40c13c9df, 0x3edde47a9fa00000,
                0x3fb6bb19a7f41a2c, 0x4090d0076c0ad3d1, 0x0000000000000000,
                0x3fe31d0e1508bca3,
            ]),
            ("Delta 10", [
                0xbf15294edb055700, 0xc02c00dd7b83057d, 0x3fc11f56c5c21d00,
                0xbfe5f9bc69e3034b, 0xc063926bce4e2eef, 0x0000000000000000,
                0xbf920c52e52b02b9, 0xc06264df5bdf5dbe, 0x0000000000000000,
                0x3f2f6dcd6d057dc4, 0x40028ffac2637429, 0x3fe32131f690095c,
                0x3f9b6424186a9d9a, 0x40744272938356be, 0x0000000000000000,
                0x3fc55054f238e170,
            ]),
            ("Delta 100", [
                0xbf1a6fccea4fcda2, 0xc0317e00e6fa1109, 0x3fb114385c1dfa50,
                0xbfe48cb739655e4d, 0xc0624d532f1e47fd, 0x0000000000000000,
                0xbf91d404935be967, 0xc0622b7cc9cee458, 0x0000000000000000,
                0x3f1015c8f8e1e45b, 0x3fe3000f30a999e5, 0x3feca2c168d22764,
                0x3f9509b70ae06f4f, 0x406f1ef6214b7b36, 0x0000000000000000,
                0x3fbedef3e88a7c68,
            ]),
            ("Cloudflare", [
                0x3f18b4102b2ba258, 0x4030586621bc7541, 0x3fd5a22fa281d068,
                0xbff0d759c12e2023, 0xc06dff97e01a293e, 0x0000000000000000,
                0xbf9442d79c66e59e, 0xc064a63f8e3e3e75, 0x3d806d0000000000,
                0xbf377ea7e51aa17f, 0xc00bc0b4294d161a, 0x3fe4f0b751d88fa8,
                0x3fb99836f3b0a858, 0x4092ee44b9a364f0, 0x0000000000000000,
                0x3fe789f6bd2f37ac,
            ]),
            ("Google", [
                0x3f2e7f97af464f84, 0x40442dfeda7846dd, 0x3f9241ede8eb8480,
                0xbff193648fadd13e, 0xc06f4e8b1fed9cb6, 0x0000000000000000,
                0xbf963ac37303b9d9, 0xc066a7d3c1f00421, 0x3d08000000000000,
                0x3f6c9ae23e05f335, 0x4040e5031f6116b6, 0x3ef76043a2480000,
                0x3fb86bd4b7505fc2, 0x409179276d800cc5, 0x0000000000000000,
                0x3fe4493aaad2629e,
            ]),
            ("NextDNS", [
                0xbf0ad36baf2028a0, 0xc021bfeb24660879, 0x3fe513bc6510b112,
                0xbff06a951740a5b9, 0xc06d3dd9916b2732, 0x0000000000000000,
                0xbf925a7bc3bbaec5, 0xc062b487b2f3ff96, 0x3e6ce14770000000,
                0x3f6dc645cdbfee09, 0x404195d608f7f3ab, 0x3f3648eeedd9e000,
                0x3fb6623a00766d81, 0x408d7ef350067732, 0x0000000000000000,
                0x3fdbe78a748acb4c,
            ]),
            ("Quad9", [
                0x3f2bb46d3f6e1442, 0x404254cbf803e316, 0x3f9cc5b6bfd0b080,
                0xbff42b115122e940, 0xc071f65b6c4317bd, 0x0000000000000000,
                0xbf93a8644566abbd, 0xc06408d6715b2b78, 0x3d895e0000000000,
                0x3f4f59d4093aa6a1, 0x4022842eb5a69622, 0x3fd28f8be0bd97ac,
                0x3fb61bca5368f9b0, 0x408ffb7a89586420, 0x0000000000000000,
                0x3fe481fb0b9308ac,
            ]),
        ];
        let blocks = report().table5.iter().chain(&report().table6);
        let got: Vec<_> = blocks.map(block_bits).collect();
        let pinned: Vec<_> = BLOCKS
            .map(|(output, bits)| (output.to_string(), bits.to_vec()))
            .into();
        assert_eq!(got, pinned);
    }
}
