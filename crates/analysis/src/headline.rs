//! §5 headline statistics.
//!
//! The paper's top-line numbers: a global median DoH1 of 415ms vs 234ms
//! for Do53; 19.1% of clients faster on even the *first* DoH request;
//! 28% faster over a 10-query connection; median per-country DoH1 of
//! 564.7ms vs 332.9ms Do53; and a median per-query slowdown of 65ms over
//! a 10-query connection.
//!
//! One exact accumulator, [`StreamingHeadline`], computes them. It is fed
//! either record by record ([`headline_stats`]) or straight from a store
//! directory's checked columns ([`headline_from_store_threads`]); both
//! feed the same `observe_parts` kernel, so the two give the same bits.

use dohperf_core::equations::doh_n_ms;
use dohperf_core::records::{atlas_median_ms, ClientRecord, Dataset};
use dohperf_core::store_io;
use dohperf_stats::desc::median;
use dohperf_store::{sample_spans, ChunkColumns};
use std::path::Path;

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
    let mut acc = StreamingHeadline::new();
    for r in &ds.records {
        acc.observe(r);
    }
    acc.finish(&ds.atlas_do53_ms)
}

/// The exact accumulator behind every headline: it keeps each sample,
/// so [`finish`](Self::finish) takes true medians.
#[derive(Debug, Clone, Default)]
pub struct StreamingHeadline {
    doh1: Vec<f64>,
    dohr: Vec<f64>,
    do53: Vec<f64>,
    /// DoH10 − Do53 per comparable (client, provider) pair.
    doh10_delta: Vec<f64>,
    first_speedups: u64,
    ten_speedups: u64,
    tripled: u64,
    comparable: u64,
    /// Per-country DoH1 and Do53 samples, indexed by `country_index`.
    countries: Vec<CountrySamples>,
}

#[derive(Debug, Clone, Default)]
struct CountrySamples {
    doh1: Vec<f64>,
    do53: Vec<f64>,
}

impl StreamingHeadline {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingHeadline::default()
    }

    /// Fold in one client record.
    pub fn observe(&mut self, r: &ClientRecord) {
        let doh = r.doh.iter().map(|s| (s.t_doh_ms, s.t_dohr_ms));
        self.observe_parts(r.country_index, doh, r.do53_ms);
    }

    /// Fold in one store chunk's projected columns, record by record.
    fn observe_chunk(&mut self, p: &DohProjection) {
        for (i, span) in sample_spans(&p.doh_counts).enumerate() {
            let doh = p.t_doh_ms[span.clone()]
                .iter()
                .copied()
                .zip(p.t_dohr_ms[span].iter().copied());
            self.observe_parts(p.country_index[i] as usize, doh, p.do53_ms[i]);
        }
    }

    /// The one insertion kernel behind [`observe`](Self::observe) and the
    /// store's column scan: one client's country, its (t_DoH, t_DoHR)
    /// samples in measurement order, and its Do53 baseline.
    fn observe_parts(
        &mut self,
        country_index: usize,
        doh: impl Iterator<Item = (f64, f64)> + Clone,
        do53_ms: Option<f64>,
    ) {
        if country_index >= self.countries.len() {
            self.countries
                .resize_with(country_index + 1, CountrySamples::default);
        }
        let country = &mut self.countries[country_index];
        for (t_doh, t_dohr) in doh.clone() {
            self.doh1.push(t_doh);
            self.dohr.push(t_dohr);
            country.doh1.push(t_doh);
        }
        if let Some(d53) = do53_ms {
            self.do53.push(d53);
            country.do53.push(d53);
            for (t_doh, t_dohr) in doh {
                self.comparable += 1;
                if t_doh < d53 {
                    self.first_speedups += 1;
                }
                let d10 = doh_n_ms(t_doh, t_dohr, 10);
                if d10 < d53 {
                    self.ten_speedups += 1;
                }
                if t_doh >= 3.0 * d53 {
                    self.tripled += 1;
                }
                self.doh10_delta.push(d10 - d53);
            }
        }
    }

    /// Produce the headline statistics.
    ///
    /// `atlas_do53_ms` is the per-country Atlas remedy table (from the
    /// dataset or the store manifest): a country with DoH samples but no
    /// per-client Do53 falls back to its Atlas median.
    pub fn finish(&self, atlas_do53_ms: &[(usize, Vec<f64>)]) -> HeadlineStats {
        let mut country_doh1 = Vec::new();
        let mut country_do53 = Vec::new();
        for (idx, country) in self.countries.iter().enumerate() {
            if country.doh1.is_empty() {
                continue;
            }
            country_doh1.push(median(&country.doh1));
            if !country.do53.is_empty() {
                country_do53.push(median(&country.do53));
            } else if let Some(atlas) = atlas_median_ms(atlas_do53_ms, idx) {
                country_do53.push(atlas);
            }
        }
        let comparable = self.comparable.max(1) as f64;
        HeadlineStats {
            median_doh1_ms: median(&self.doh1),
            median_do53_ms: median(&self.do53),
            median_dohr_ms: median(&self.dohr),
            first_request_speedup_fraction: self.first_speedups as f64 / comparable,
            ten_request_speedup_fraction: self.ten_speedups as f64 / comparable,
            median_doh10_slowdown_ms: median(&self.doh10_delta),
            median_country_doh1_ms: median(&country_doh1),
            median_country_do53_ms: median(&country_do53),
            tripled_fraction: self.tripled as f64 / comparable,
        }
    }
}

/// The columns the headline folds, copied out of one checked store
/// chunk: per record the country index, DoH sample count and Do53
/// baseline; per DoH sample t_DoH and t_DoHR.
struct DohProjection {
    country_index: Vec<u32>,
    doh_counts: Vec<u32>,
    do53_ms: Vec<Option<f64>>,
    t_doh_ms: Vec<f64>,
    t_dohr_ms: Vec<f64>,
}

impl DohProjection {
    fn of(c: &ChunkColumns) -> Self {
        DohProjection {
            country_index: c.identity.country_index.clone(),
            doh_counts: c.doh.counts.clone(),
            do53_ms: c.do53.values.clone(),
            t_doh_ms: c.doh.t_doh_ms.clone(),
            t_dohr_ms: c.doh.t_dohr_ms.clone(),
        }
    }
}

/// [`headline_stats`] of a store directory, read with `threads` decoder
/// threads (0 means all available cores, 1 means fully serial), without
/// building a record.
///
/// A column scan ([`store_io::scan_columns`]): every chunk is
/// CRC-verified, fully decoded and put through every check
/// `read_dataset` makes, and the scan must hold the records and chunks
/// the manifest promises. Chunks decode in parallel, but their projected
/// columns are folded on the calling thread in canonical chunk order
/// through the same kernel as [`StreamingHeadline::observe`]. So the
/// result equals `headline_stats(&read_dataset(dir)?)` bit for bit, at
/// any thread count.
pub fn headline_from_store_threads(
    dir: &Path,
    threads: usize,
) -> dohperf_store::Result<HeadlineStats> {
    let manifest = store_io::read_manifest(dir)?;
    let mut acc = StreamingHeadline::new();
    store_io::scan_columns(dir, &manifest, threads, DohProjection::of, |p| {
        acc.observe_chunk(&p);
        Ok(())
    })?;
    let atlas: Vec<(usize, Vec<f64>)> = manifest
        .atlas_do53_ms
        .into_iter()
        .map(|(idx, xs)| (idx as usize, xs))
        .collect();
    Ok(acc.finish(&atlas))
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

    fn bits(h: &HeadlineStats) -> [u64; 9] {
        [
            h.median_doh1_ms,
            h.median_do53_ms,
            h.median_dohr_ms,
            h.first_request_speedup_fraction,
            h.ten_request_speedup_fraction,
            h.median_doh10_slowdown_ms,
            h.median_country_doh1_ms,
            h.median_country_do53_ms,
            h.tripled_fraction,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn accumulator_matches_a_direct_pass_bit_for_bit() {
        // The accumulator against the definitions, computed straight
        // from the dataset: per-country medians by scanning each
        // country's records, fractions over every comparable pair.
        let ds = shared_dataset();
        let doh = || ds.records.iter().flat_map(|r| &r.doh);
        let comparable = || {
            ds.records
                .iter()
                .filter_map(|r| r.do53_ms.map(|d53| (r, d53)))
                .flat_map(|(r, d53)| r.doh.iter().map(move |s| (s, d53)))
        };
        let doh10 = |s: &dohperf_core::records::DohSample| doh_n_ms(s.t_doh_ms, s.t_dohr_ms, 10);
        let fraction = |hit: &dyn Fn(f64, f64, f64) -> bool| {
            let hits = comparable()
                .filter(|(s, d53)| hit(s.t_doh_ms, doh10(s), *d53))
                .count();
            hits as f64 / comparable().count() as f64
        };
        let mut country_doh1 = Vec::new();
        let mut country_do53 = Vec::new();
        for idx in 0..ds.countries.len() {
            let doh1: Vec<f64> = ds
                .records_in(idx)
                .flat_map(|r| r.doh.iter().map(|s| s.t_doh_ms))
                .collect();
            if doh1.is_empty() {
                continue;
            }
            country_doh1.push(median(&doh1));
            let do53: Vec<f64> = ds.records_in(idx).filter_map(|r| r.do53_ms).collect();
            if !do53.is_empty() {
                country_do53.push(median(&do53));
            } else if let Some(atlas) = ds.atlas_median_ms(idx) {
                country_do53.push(atlas);
            }
        }
        let direct = HeadlineStats {
            median_doh1_ms: median(&doh().map(|s| s.t_doh_ms).collect::<Vec<_>>()),
            median_do53_ms: median(
                &ds.records
                    .iter()
                    .filter_map(|r| r.do53_ms)
                    .collect::<Vec<_>>(),
            ),
            median_dohr_ms: median(&doh().map(|s| s.t_dohr_ms).collect::<Vec<_>>()),
            first_request_speedup_fraction: fraction(&|doh1, _, d53| doh1 < d53),
            ten_request_speedup_fraction: fraction(&|_, d10, d53| d10 < d53),
            median_doh10_slowdown_ms: median(
                &comparable()
                    .map(|(s, d53)| doh10(s) - d53)
                    .collect::<Vec<_>>(),
            ),
            median_country_doh1_ms: median(&country_doh1),
            median_country_do53_ms: median(&country_do53),
            tripled_fraction: fraction(&|doh1, _, d53| doh1 >= 3.0 * d53),
        };
        assert_eq!(bits(&headline_stats(ds)), bits(&direct));
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
