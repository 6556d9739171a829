//! Table 4: logistic modelling of DoH slowdowns.
//!
//! The outcome is binary: did this (client, provider) observation achieve
//! a DoH-N/Do53 multiplier *worse* than the global median multiplier?
//! (The paper codes better-than-median as success; reporting the odds of
//! a slowdown flips the sign, so the odds ratios here are for the
//! *slowdown* event — matching the table's presentation, where e.g. slow
//! bandwidth has OR 1.81x.)
//!
//! Inputs are the paper's four categoricals, dummy-coded against the same
//! controls: Bandwidth (control = Fast), Income (control = High), ASes
//! (control = higher than median), Resolver (control = Cloudflare).

use crate::covariates::CovariateTable;
use crate::fanout::fan_out;
use dohperf_providers::provider::ProviderKind;
use dohperf_stats::desc::median;
use dohperf_stats::logistic::LogisticRegression;
use dohperf_world::countries::IncomeGroup;

/// One odds-ratio row across the four DoH-N columns.
#[derive(Debug, Clone)]
pub struct OddsRow {
    /// Variable label as printed in Table 4.
    pub variable: String,
    /// OR for DoH-1, DoH-10, DoH-100, DoH-1000.
    pub odds_ratios: [f64; 4],
    /// p-values for the same columns.
    pub p_values: [f64; 4],
}

/// The fitted Table 4.
#[derive(Debug, Clone)]
pub struct LogisticModelReport {
    /// Global median multipliers for N = 1, 10, 100, 1000 (the paper's
    /// 1.84x / 1.24x / 1.18x / 1.17x).
    pub median_multipliers: [f64; 4],
    /// Odds-ratio rows in the paper's order.
    pub rows: Vec<OddsRow>,
    /// Observations per fit.
    pub n: usize,
}

/// The four DoH-N horizons of Table 4.
const HORIZONS: [u32; 4] = [1, 10, 100, 1000];

const FEATURES: [&str; 7] = [
    "bandwidth_slow",
    "income_upper_middle",
    "income_lower_middle",
    "income_low",
    "ases_low",
    "resolver_google",
    "resolver_nextdns",
];
// Quad9 is appended below; arrays keep the design order readable.

/// Fit the Table 4 models, on one thread.
pub fn fit_logistic_models(table: &CovariateTable) -> LogisticModelReport {
    fit_logistic_models_threads(table, 1)
}

/// [`fit_logistic_models`] with the four horizons fitted concurrently on
/// at most `threads` threads (0 = one per core). Each horizon's fit reads
/// only the shared table, so the report is bit-identical at every thread
/// count.
pub fn fit_logistic_models_threads(table: &CovariateTable, threads: usize) -> LogisticModelReport {
    let mut feature_names: Vec<&str> = FEATURES.to_vec();
    feature_names.push("resolver_quad9");

    let horizons = fan_out(&HORIZONS, threads, |&n| {
        let multipliers: Vec<f64> = table.rows.iter().map(|r| r.multiplier(n)).collect();
        let global_median = median(&multipliers);
        let mut reg = LogisticRegression::new(&feature_names);
        reg.reserve(table.rows.len());
        for (r, &m) in table.rows.iter().zip(&multipliers) {
            let features = encode(r, table.median_as_count);
            // Outcome: slowdown = multiplier worse than the global median.
            reg.push(&features, m > global_median);
        }
        let fit = reg.fit().expect("Table 4 design must be full rank");
        (global_median, fit)
    });
    let (medians, fits): (Vec<f64>, Vec<_>) = horizons.into_iter().unzip();
    let median_multipliers = medians.try_into().expect("one median per horizon");

    let labels: [(&str, &str); 8] = [
        ("bandwidth_slow", "Bandwidth: Slow (control = Fast)"),
        (
            "income_upper_middle",
            "Income: Upper-middle (control = High)",
        ),
        ("income_lower_middle", "Income: Lower-middle"),
        ("income_low", "Income: Low"),
        ("ases_low", "Num ASes: Lower than median (control = Higher)"),
        ("resolver_google", "Resolver: Google (control = Cloudflare)"),
        ("resolver_nextdns", "Resolver: NextDNS"),
        ("resolver_quad9", "Resolver: Quad9"),
    ];
    let rows = labels
        .iter()
        .map(|(key, label)| {
            let mut odds_ratios = [0.0; 4];
            let mut p_values = [0.0; 4];
            for (col, fit) in fits.iter().enumerate() {
                let coef = fit.coef(key).expect("coefficient present");
                odds_ratios[col] = coef.odds_ratio;
                p_values[col] = coef.p_value;
            }
            OddsRow {
                variable: (*label).to_string(),
                odds_ratios,
                p_values,
            }
        })
        .collect();

    LogisticModelReport {
        median_multipliers,
        rows,
        n: table.rows.len(),
    }
}

fn encode(r: &crate::covariates::ClientCovariates, median_as: f64) -> [f64; 8] {
    [
        if r.fast_internet { 0.0 } else { 1.0 },
        if r.income == IncomeGroup::UpperMiddle {
            1.0
        } else {
            0.0
        },
        if r.income == IncomeGroup::LowerMiddle {
            1.0
        } else {
            0.0
        },
        if r.income == IncomeGroup::Low {
            1.0
        } else {
            0.0
        },
        if r.as_count < median_as { 1.0 } else { 0.0 },
        if r.provider == ProviderKind::Google {
            1.0
        } else {
            0.0
        },
        if r.provider == ProviderKind::NextDns {
            1.0
        } else {
            0.0
        },
        if r.provider == ProviderKind::Quad9 {
            1.0
        } else {
            0.0
        },
    ]
}

/// Find a row by a substring of its label.
pub fn row<'a>(report: &'a LogisticModelReport, needle: &str) -> &'a OddsRow {
    report
        .rows
        .iter()
        .find(|r| r.variable.contains(needle))
        .expect("row present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariates;
    use crate::testutil::shared_dataset;
    use std::sync::OnceLock;

    fn report() -> &'static LogisticModelReport {
        static REPORT: OnceLock<LogisticModelReport> = OnceLock::new();
        REPORT.get_or_init(|| fit_logistic_models(&covariates::build(shared_dataset())))
    }

    #[test]
    fn median_multipliers_decrease_with_reuse() {
        // Paper: 1.84x -> 1.24x -> 1.18x -> 1.17x.
        let m = report().median_multipliers;
        assert!(m[0] > m[1] && m[1] > m[2] && m[2] >= m[3] - 0.05, "{m:?}");
        assert!((1.2..3.2).contains(&m[0]), "DoH1 multiplier {}", m[0]);
        assert!((0.9..2.0).contains(&m[1]), "DoH10 multiplier {}", m[1]);
    }

    #[test]
    fn slow_bandwidth_raises_slowdown_odds() {
        // Paper: OR 1.81x at DoH1, persisting (1.65x at DoH1000).
        let r = row(report(), "Bandwidth");
        assert!(r.odds_ratios[0] > 1.2, "OR {}", r.odds_ratios[0]);
        assert!(r.odds_ratios[3] > 1.1, "OR_1000 {}", r.odds_ratios[3]);
        assert!(r.p_values[0] < 0.001);
    }

    #[test]
    fn income_gradient_at_doh1() {
        // Paper: 1.50x / 1.76x / 1.98x for UM / LM / Low at DoH1. The
        // lower-middle tier has by far the most observations, so the
        // robust gradient check is UM < LM; the sparse low-income tier
        // must at least point the same way.
        let um = row(report(), "Upper-middle").odds_ratios[0];
        let lm = row(report(), "Lower-middle").odds_ratios[0];
        let low = row(report(), "Income: Low").odds_ratios[0];
        assert!(um > 1.0, "um {um}");
        assert!(lm > um, "lm {lm} um {um}");
        assert!(low > 1.0, "low {low}");
    }

    #[test]
    fn few_ases_raise_slowdown_odds() {
        // Paper: 1.99x, still 1.69x at DoH1000.
        let r = row(report(), "Num ASes");
        assert!(r.odds_ratios[0] > 1.3, "OR {}", r.odds_ratios[0]);
        assert!(r.p_values[0] < 0.001);
    }

    #[test]
    fn nextdns_is_worst_resolver() {
        // Paper: NextDNS OR 2.25x vs Google 1.76x and Quad9 1.78x.
        let nd = row(report(), "NextDNS").odds_ratios[0];
        let gg = row(report(), "Google").odds_ratios[0];
        let q9 = row(report(), "Quad9").odds_ratios[0];
        assert!(nd > gg && nd > q9, "nd {nd} gg {gg} q9 {q9}");
        assert!(gg > 1.0 && q9 > 1.0);
    }

    #[test]
    fn quad9_odds_drop_with_reuse() {
        // Paper: Quad9 falls from 1.78x to 1.25x by DoH1000 — reuse
        // amortises its bad handshake placement.
        let r = row(report(), "Quad9");
        assert!(r.odds_ratios[3] < r.odds_ratios[0], "{:?}", r.odds_ratios);
    }

    /// Every bit Table 4 renders: the median multipliers, then each
    /// row's four odds ratios and four p-values.
    fn report_bits(report: &LogisticModelReport) -> Vec<u64> {
        let rows = report
            .rows
            .iter()
            .flat_map(|r| r.odds_ratios.iter().chain(&r.p_values));
        report
            .median_multipliers
            .iter()
            .chain(rows)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn threaded_fit_is_identical_at_any_thread_count() {
        let table = covariates::build(shared_dataset());
        for threads in [0, 1, 2, 3, 8] {
            let got = fit_logistic_models_threads(&table, threads);
            assert_eq!(
                report_bits(&got),
                report_bits(report()),
                "threads {threads}"
            );
        }
    }

    /// Pins every bit of Table 4. The fits may be restructured (threads,
    /// design layout) only if these bits stay put.
    #[test]
    fn table4_is_bit_stable() {
        // The median multipliers, then per row (in the paper's order) the
        // odds ratios at DoH-1/10/100/1000 and their four p-values.
        #[rustfmt::skip]
        const PINNED: [u64; 4 + 8 * 8] = [
            0x4001e0af61efd036, 0x3ff93481a12f8716, 0x3ff805aea5526f2d, 0x3ff7e95368d68b32,
            // Bandwidth: Slow (control = Fast)
            0x3ff501cdeece10e3, 0x3ff422cfd999bc77, 0x3ff393bb74cb8193, 0x3ff373923f4f985b,
            0x3d9c02c000000000, 0x3e4083f200000000, 0x3e9ca947ac800000, 0x3eb07b952a600000,
            // Income: Upper-middle (control = High)
            0x3ff59217536e51c4, 0x3ff5b3e2a4e966ca, 0x3ff5c8067d5c7f31, 0x3ff5d6308ff009be,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            // Income: Lower-middle
            0x3ffb54f8c32b54af, 0x400099cc44e28255, 0x40016988d287f734, 0x4001922da36b6edc,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            // Income: Low
            0x3ffbc1e3d2fc1537, 0x4006471adc6cd3bb, 0x400859d6f2a5cf7b, 0x400876863c35125f,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            // Num ASes: Lower than median (control = Higher)
            0x3ffdc3ac9d589434, 0x3ff8807b898c0545, 0x3ff754595c571099, 0x3ff741031e0f8ba5,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            // Resolver: Google (control = Cloudflare)
            0x4000ffbbfcc64f69, 0x3ff7135abaeb5adf, 0x3ff59f546184b4d8, 0x3ff56162007714fb,
            0x0000000000000000, 0x0000000000000000, 0x3cd0000000000000, 0x3d03000000000000,
            // Resolver: NextDNS
            0x4004f9548641b3ef, 0x400aafcc79d7d123, 0x400b788140424d34, 0x400b54a93cbf1669,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
            // Resolver: Quad9
            0x400004c4fac42134, 0x3ff7e82e9a7a8ea5, 0x3ff686b3249df41c, 0x3ff651dcd07b8c66,
            0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        ];
        assert_eq!(report_bits(report()), PINNED);
    }
}
