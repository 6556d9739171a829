//! §5 headline statistics.
//!
//! The paper's top-line numbers: a global median DoH1 of 415ms vs 234ms
//! for Do53; 19.1% of clients faster on even the *first* DoH request;
//! 28% faster over a 10-query connection; median per-country DoH1 of
//! 564.7ms vs 332.9ms Do53; and a median per-query slowdown of 65ms over
//! a 10-query connection.

use dohperf_core::equations::doh_n_ms;
use dohperf_core::records::Dataset;
use dohperf_stats::desc::median;

/// §5 headline statistics.
#[derive(Debug, Clone)]
pub struct HeadlineStats {
    /// Global median first-request DoH time across all providers (ms).
    pub median_doh1_ms: f64,
    /// Global median Do53 time (per-client header values only) (ms).
    pub median_do53_ms: f64,
    /// Global median reused-connection DoH time (ms).
    pub median_dohr_ms: f64,
    /// Fraction of (client, provider) pairs where DoH1 beats Do53.
    pub first_request_speedup_fraction: f64,
    /// Fraction where DoH10 beats Do53 (the "28% of clients" claim).
    pub ten_request_speedup_fraction: f64,
    /// Median per-query slowdown over a 10-query connection (ms) — the
    /// abstract's 65ms.
    pub median_doh10_slowdown_ms: f64,
    /// Median of per-country median DoH1 (ms) — §5.3's 564.7ms.
    pub median_country_doh1_ms: f64,
    /// Median of per-country median Do53 (ms) — §5.3's 332.9ms.
    pub median_country_do53_ms: f64,
    /// Fraction of clients whose DoH1 is at least 3x their Do53 (the
    /// contribution-list "10% of clients see resolution times triple").
    pub tripled_fraction: f64,
}

/// Compute the headline statistics.
pub fn headline_stats(ds: &Dataset) -> HeadlineStats {
    let mut doh1 = Vec::new();
    let mut dohr = Vec::new();
    let mut do53 = Vec::new();
    let mut first_speedups = 0usize;
    let mut ten_speedups = 0usize;
    let mut tripled = 0usize;
    let mut comparable = 0usize;
    let mut doh10_deltas = Vec::new();

    for r in &ds.records {
        for s in &r.doh {
            doh1.push(s.t_doh_ms);
            dohr.push(s.t_dohr_ms);
        }
        if let Some(d53) = r.do53_ms {
            do53.push(d53);
            for s in &r.doh {
                comparable += 1;
                if s.t_doh_ms < d53 {
                    first_speedups += 1;
                }
                let d10 = doh_n_ms(s.t_doh_ms, s.t_dohr_ms, 10);
                if d10 < d53 {
                    ten_speedups += 1;
                }
                if s.t_doh_ms >= 3.0 * d53 {
                    tripled += 1;
                }
                doh10_deltas.push(d10 - d53);
            }
        }
    }

    // Per-country medians (countries with per-client Do53, plus the Atlas
    // remedy for Super Proxy countries).
    let mut country_doh1 = Vec::new();
    let mut country_do53 = Vec::new();
    for idx in 0..ds.countries.len() {
        let doh: Vec<f64> = ds
            .records_in(idx)
            .flat_map(|r| r.doh.iter().map(|s| s.t_doh_ms))
            .collect();
        if doh.is_empty() {
            continue;
        }
        country_doh1.push(median(&doh));
        let d53: Vec<f64> = ds.records_in(idx).filter_map(|r| r.do53_ms).collect();
        if !d53.is_empty() {
            country_do53.push(median(&d53));
        } else if let Some(atlas) = ds.atlas_median_ms(idx) {
            country_do53.push(atlas);
        }
    }

    HeadlineStats {
        median_doh1_ms: median(&doh1),
        median_do53_ms: median(&do53),
        median_dohr_ms: median(&dohr),
        first_request_speedup_fraction: first_speedups as f64 / comparable.max(1) as f64,
        ten_request_speedup_fraction: ten_speedups as f64 / comparable.max(1) as f64,
        median_doh10_slowdown_ms: median(&doh10_deltas),
        median_country_doh1_ms: median(&country_doh1),
        median_country_do53_ms: median(&country_do53),
        tripled_fraction: tripled as f64 / comparable.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_dataset;

    #[test]
    fn doh1_slower_than_do53_globally() {
        let h = headline_stats(shared_dataset());
        // Paper: 415ms vs 234ms. Shape requirement: DoH1 clearly slower.
        assert!(
            h.median_doh1_ms > h.median_do53_ms + 50.0,
            "doh1 {} do53 {}",
            h.median_doh1_ms,
            h.median_do53_ms
        );
        // Magnitudes in the paper's regime (hundreds of ms).
        assert!(
            (200.0..800.0).contains(&h.median_doh1_ms),
            "{}",
            h.median_doh1_ms
        );
        assert!(
            (100.0..500.0).contains(&h.median_do53_ms),
            "{}",
            h.median_do53_ms
        );
    }

    #[test]
    fn dohr_close_to_do53() {
        let h = headline_stats(shared_dataset());
        // Reused connections approach Do53 performance (Figure 4).
        assert!(h.median_dohr_ms < h.median_doh1_ms);
        let ratio = h.median_dohr_ms / h.median_do53_ms;
        assert!((0.7..1.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn speedup_fractions_in_paper_regime() {
        let h = headline_stats(shared_dataset());
        // Paper: 19.1% first-request speedups, 28% over 10 queries.
        assert!(
            (0.05..0.40).contains(&h.first_request_speedup_fraction),
            "{}",
            h.first_request_speedup_fraction
        );
        assert!(
            h.ten_request_speedup_fraction > h.first_request_speedup_fraction,
            "reuse must increase the speedup fraction"
        );
        assert!(
            (0.10..0.55).contains(&h.ten_request_speedup_fraction),
            "{}",
            h.ten_request_speedup_fraction
        );
    }

    #[test]
    fn median_doh10_slowdown_positive_and_moderate() {
        let h = headline_stats(shared_dataset());
        // Paper: 65ms median slowdown per query over 10 queries.
        assert!(
            (5.0..250.0).contains(&h.median_doh10_slowdown_ms),
            "{}",
            h.median_doh10_slowdown_ms
        );
    }

    #[test]
    fn country_medians_exceed_client_medians() {
        let h = headline_stats(shared_dataset());
        // Country-weighted medians are higher than client-weighted ones
        // (small poor countries count equally), as in §5.3.
        assert!(h.median_country_doh1_ms > h.median_doh1_ms * 0.8);
        assert!(h.median_country_do53_ms > 0.0);
    }

    #[test]
    fn some_clients_triple() {
        let h = headline_stats(shared_dataset());
        // Paper: ~10% of clients see 3x resolution times.
        assert!(
            (0.01..0.35).contains(&h.tripled_fraction),
            "{}",
            h.tripled_fraction
        );
    }
}
