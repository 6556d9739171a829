//! Memory-bounded §5 analyses over the columnar store.
//!
//! The exact [`crate::headline`] and [`crate::cdfs`] paths materialise
//! every sample in memory; at full scale that is fine, but the store
//! exists so campaigns can outgrow RAM. This module re-derives the same
//! summaries from a single sequential pass:
//!
//! * [`StreamingHeadline`] — an accumulator fed one [`ClientRecord`] at
//!   a time. The speedup/tripled *fractions* use exact counters, so they
//!   equal the batch path bit-for-bit; the *medians* come from
//!   Greenwald–Khanna sketches ([`GkSketch`]) and are within the sketch's
//!   ε of the true rank.
//! * [`StreamingCdfs`] — per-provider DoH1/DoHR/Do53 quantile sketches,
//!   rendered to the same [`ProviderCdfs`] panels as Figure 4 with a
//!   fixed number of support points.
//! * [`headline_from_store`] / [`cdfs_from_store`] — one-pass drivers
//!   over a store directory; peak memory is one decoded chunk plus the
//!   sketches. They scan the store as flat columns
//!   ([`store_io::scan_columns`]) and build no record, yet validate as
//!   much as a full read: every chunk's CRC over the whole payload, a
//!   structural decode of every column group, and every check
//!   `record_from_store` makes (ordinal ranges, finite f64s, ISO
//!   interning, Do53 source), plus the manifest's record and chunk
//!   totals. Only t_DoH, t_DoHR, Do53, the country index and the
//!   provider ordinals reach the sketches, through the same insertion
//!   kernels as `observe`, so the results are bit-identical to
//!   observing the records one by one.

use crate::cdfs::{CdfSeries, ProviderCdfs};
use crate::headline::HeadlineStats;
use dohperf_core::equations::doh_n_ms;
use dohperf_core::records::ClientRecord;
use dohperf_core::store_io;
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_stats::desc::median;
use dohperf_stats::sketch::GkSketch;
use dohperf_store::{sample_spans, ChunkColumns};
use std::path::Path;

/// Default sketch rank error for the streaming analyses.
pub const DEFAULT_EPSILON: f64 = 0.005;

/// Support points used when rendering a sketch to a [`CdfSeries`].
const CDF_POINTS: usize = 512;

/// Streaming accumulator for the §5 headline statistics.
#[derive(Debug, Clone)]
pub struct StreamingHeadline {
    epsilon: f64,
    doh1: GkSketch,
    dohr: GkSketch,
    do53: GkSketch,
    doh10_delta: GkSketch,
    first_speedups: u64,
    ten_speedups: u64,
    tripled: u64,
    comparable: u64,
    records: u64,
    /// Per-country accumulators, indexed by `country_index`.
    countries: Vec<CountryAcc>,
}

#[derive(Debug, Clone)]
struct CountryAcc {
    doh1: GkSketch,
    do53: GkSketch,
}

impl CountryAcc {
    fn new(epsilon: f64) -> Self {
        CountryAcc {
            doh1: GkSketch::new(epsilon),
            do53: GkSketch::new(epsilon),
        }
    }
}

impl Default for StreamingHeadline {
    fn default() -> Self {
        StreamingHeadline::new()
    }
}

impl StreamingHeadline {
    /// An accumulator at the default ε.
    pub fn new() -> Self {
        StreamingHeadline::with_epsilon(DEFAULT_EPSILON)
    }

    /// An accumulator with a caller-chosen sketch rank error.
    pub fn with_epsilon(epsilon: f64) -> Self {
        StreamingHeadline {
            epsilon,
            doh1: GkSketch::new(epsilon),
            dohr: GkSketch::new(epsilon),
            do53: GkSketch::new(epsilon),
            doh10_delta: GkSketch::new(epsilon),
            first_speedups: 0,
            ten_speedups: 0,
            tripled: 0,
            comparable: 0,
            records: 0,
            countries: Vec::new(),
        }
    }

    /// Records folded in so far.
    pub fn records(&self) -> u64 {
        self.records
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
        self.records += 1;
        if country_index >= self.countries.len() {
            self.countries
                .resize_with(country_index + 1, || CountryAcc::new(self.epsilon));
        }
        for (t_doh, t_dohr) in doh.clone() {
            self.doh1.insert(t_doh);
            self.dohr.insert(t_dohr);
            self.countries[country_index].doh1.insert(t_doh);
        }
        if let Some(d53) = do53_ms {
            self.do53.insert(d53);
            self.countries[country_index].do53.insert(d53);
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
                self.doh10_delta.insert(d10 - d53);
            }
        }
    }

    /// Fold another accumulator in (e.g. one per shard). Fractions stay
    /// exact; sketch rank errors add per the GK merge bound.
    pub fn merge(&mut self, other: &StreamingHeadline) {
        self.doh1.merge(&other.doh1);
        self.dohr.merge(&other.dohr);
        self.do53.merge(&other.do53);
        self.doh10_delta.merge(&other.doh10_delta);
        self.first_speedups += other.first_speedups;
        self.ten_speedups += other.ten_speedups;
        self.tripled += other.tripled;
        self.comparable += other.comparable;
        self.records += other.records;
        if other.countries.len() > self.countries.len() {
            self.countries
                .resize_with(other.countries.len(), || CountryAcc::new(self.epsilon));
        }
        for (mine, theirs) in self.countries.iter_mut().zip(&other.countries) {
            mine.doh1.merge(&theirs.doh1);
            mine.do53.merge(&theirs.do53);
        }
    }

    /// Produce the headline statistics.
    ///
    /// `atlas_do53_ms` is the per-country Atlas remedy table (from the
    /// dataset or the store manifest): countries without per-client Do53
    /// fall back to their Atlas median, exactly as the batch path does.
    pub fn finish(&self, atlas_do53_ms: &[(usize, Vec<f64>)]) -> HeadlineStats {
        let mut country_doh1 = Vec::new();
        let mut country_do53 = Vec::new();
        for (idx, acc) in self.countries.iter().enumerate() {
            if acc.doh1.count() == 0 {
                continue;
            }
            country_doh1.push(acc.doh1.query(0.5));
            if acc.do53.count() > 0 {
                country_do53.push(acc.do53.query(0.5));
            } else if let Some(atlas) = atlas_median(atlas_do53_ms, idx) {
                country_do53.push(atlas);
            }
        }
        HeadlineStats {
            median_doh1_ms: self.doh1.query(0.5),
            median_do53_ms: self.do53.query(0.5),
            median_dohr_ms: self.dohr.query(0.5),
            first_request_speedup_fraction: self.first_speedups as f64
                / self.comparable.max(1) as f64,
            ten_request_speedup_fraction: self.ten_speedups as f64 / self.comparable.max(1) as f64,
            median_doh10_slowdown_ms: self.doh10_delta.query(0.5),
            median_country_doh1_ms: median(&country_doh1),
            median_country_do53_ms: median(&country_do53),
            tripled_fraction: self.tripled as f64 / self.comparable.max(1) as f64,
        }
    }
}

/// Upper-median of a country's Atlas samples — the same convention as
/// `Dataset::atlas_median_ms`.
fn atlas_median(atlas_do53_ms: &[(usize, Vec<f64>)], country_index: usize) -> Option<f64> {
    atlas_do53_ms
        .iter()
        .find(|(idx, _)| *idx == country_index)
        .map(|(_, xs)| {
            let mut v = xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        })
}

/// Streaming accumulator for the Figure 4 per-provider CDF panels.
#[derive(Debug, Clone)]
pub struct StreamingCdfs {
    do53: GkSketch,
    /// One (DoH1, DoHR) sketch pair per provider, in `ALL_PROVIDERS` order.
    providers: Vec<(GkSketch, GkSketch)>,
}

impl Default for StreamingCdfs {
    fn default() -> Self {
        StreamingCdfs::new()
    }
}

impl StreamingCdfs {
    /// An accumulator at the default ε.
    pub fn new() -> Self {
        StreamingCdfs::with_epsilon(DEFAULT_EPSILON)
    }

    /// An accumulator with a caller-chosen sketch rank error.
    pub fn with_epsilon(epsilon: f64) -> Self {
        StreamingCdfs {
            do53: GkSketch::new(epsilon),
            providers: ALL_PROVIDERS
                .iter()
                .map(|_| (GkSketch::new(epsilon), GkSketch::new(epsilon)))
                .collect(),
        }
    }

    /// Fold in one client record.
    pub fn observe(&mut self, r: &ClientRecord) {
        let doh = r.doh.iter().map(|s| {
            let pi = ALL_PROVIDERS
                .iter()
                .position(|&p| p == s.provider)
                .expect("every provider is in ALL_PROVIDERS");
            (pi, s.t_doh_ms, s.t_dohr_ms)
        });
        self.observe_parts(doh, r.do53_ms);
    }

    /// Fold in one store chunk's projected columns, record by record.
    fn observe_chunk(&mut self, p: &DohProjection) {
        for (i, span) in sample_spans(&p.doh_counts).enumerate() {
            let doh = span.map(|j| (p.provider[j] as usize, p.t_doh_ms[j], p.t_dohr_ms[j]));
            self.observe_parts(doh, p.do53_ms[i]);
        }
    }

    /// The one insertion kernel behind [`observe`](Self::observe) and the
    /// store's column scan: one client's (provider ordinal, t_DoH,
    /// t_DoHR) samples in measurement order and its Do53 baseline. Each
    /// provider's panel takes the client's first sample for it, as
    /// `ClientRecord::sample` picks it.
    fn observe_parts(
        &mut self,
        doh: impl Iterator<Item = (usize, f64, f64)>,
        do53_ms: Option<f64>,
    ) {
        if let Some(d53) = do53_ms {
            self.do53.insert(d53);
        }
        let mut seen = 0u32;
        for (pi, t_doh, t_dohr) in doh {
            if seen & (1 << pi) == 0 {
                seen |= 1 << pi;
                self.providers[pi].0.insert(t_doh);
                self.providers[pi].1.insert(t_dohr);
            }
        }
    }

    /// Render the four panels with [`CDF_POINTS`] support points each.
    pub fn finish(&self) -> Vec<ProviderCdfs> {
        let do53 = series_of(&self.do53);
        ALL_PROVIDERS
            .iter()
            .enumerate()
            .map(|(pi, &provider)| ProviderCdfs {
                provider,
                doh1: series_of(&self.providers[pi].0),
                dohr: series_of(&self.providers[pi].1),
                do53: do53.clone(),
            })
            .collect()
    }
}

/// Evenly spaced sketch quantiles as a [`CdfSeries`].
fn series_of(sketch: &GkSketch) -> CdfSeries {
    let pts = sketch.cdf_points(CDF_POINTS);
    CdfSeries {
        values: pts.iter().map(|&(v, _)| v).collect(),
        probs: pts.iter().map(|&(_, q)| q).collect(),
    }
}

/// The columns the streaming §5 analyses fold, copied out of one
/// checked store chunk: per record the country index, DoH sample count
/// and Do53 baseline; per DoH sample the provider ordinal, t_DoH and
/// t_DoHR.
struct DohProjection {
    country_index: Vec<u32>,
    doh_counts: Vec<u32>,
    do53_ms: Vec<Option<f64>>,
    provider: Vec<u8>,
    t_doh_ms: Vec<f64>,
    t_dohr_ms: Vec<f64>,
}

impl DohProjection {
    fn of(c: &ChunkColumns) -> Self {
        DohProjection {
            country_index: c.identity.country_index.clone(),
            doh_counts: c.doh.counts.clone(),
            do53_ms: c.do53.values.clone(),
            provider: c.doh.provider.clone(),
            t_doh_ms: c.doh.t_doh_ms.clone(),
            t_dohr_ms: c.doh.t_dohr_ms.clone(),
        }
    }
}

/// One-pass headline statistics from a store directory.
///
/// Peak memory: one decoded chunk plus the sketches — independent of
/// the campaign's scale.
pub fn headline_from_store(dir: &Path) -> dohperf_store::Result<HeadlineStats> {
    headline_from_store_threads(dir, 1)
}

/// [`headline_from_store`] with `threads` decoder threads (0 means all
/// available cores, 1 means fully serial).
///
/// A column scan ([`store_io::scan_columns`]): no record is built, but
/// every chunk is CRC-verified, fully decoded and put through every
/// check `record_from_store` makes before its projected columns reach
/// the sketches. Chunks are verified/decoded in parallel, but the
/// accumulator folds them on the calling thread in canonical chunk
/// order through the same insertion kernel as
/// [`StreamingHeadline::observe`], so the result — every sketch
/// insertion included — is identical to observing the store's records
/// one by one, at any thread count. A store holding fewer records or
/// chunks than its manifest promises is rejected.
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

/// One-pass Figure 4 panels from a store directory.
pub fn cdfs_from_store(dir: &Path) -> dohperf_store::Result<Vec<ProviderCdfs>> {
    cdfs_from_store_threads(dir, 1)
}

/// [`cdfs_from_store`] with `threads` decoder threads: the same checked
/// column scan and in-order fold as [`headline_from_store_threads`], so
/// the panels are identical at any thread count.
pub fn cdfs_from_store_threads(
    dir: &Path,
    threads: usize,
) -> dohperf_store::Result<Vec<ProviderCdfs>> {
    let manifest = store_io::read_manifest(dir)?;
    let mut acc = StreamingCdfs::new();
    store_io::scan_columns(dir, &manifest, threads, DohProjection::of, |p| {
        acc.observe_chunk(&p);
        Ok(())
    })?;
    Ok(acc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfs::provider_cdfs;
    use crate::headline::headline_stats;
    use crate::testutil::shared_dataset;

    fn close(stream: f64, exact: f64, rel: f64, what: &str) {
        let tol = exact.abs() * rel + 1.0;
        assert!(
            (stream - exact).abs() <= tol,
            "{what}: streaming {stream} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn streaming_headline_matches_exact_fractions_bit_for_bit() {
        let ds = shared_dataset();
        let exact = headline_stats(ds);
        let mut acc = StreamingHeadline::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let stream = acc.finish(&ds.atlas_do53_ms);
        assert_eq!(acc.records() as usize, ds.records.len());
        // Counters are exact, so the fraction claims are identical.
        assert_eq!(
            stream.first_request_speedup_fraction,
            exact.first_request_speedup_fraction
        );
        assert_eq!(
            stream.ten_request_speedup_fraction,
            exact.ten_request_speedup_fraction
        );
        assert_eq!(stream.tripled_fraction, exact.tripled_fraction);
    }

    #[test]
    fn streaming_headline_medians_within_sketch_tolerance() {
        let ds = shared_dataset();
        let exact = headline_stats(ds);
        let mut acc = StreamingHeadline::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let stream = acc.finish(&ds.atlas_do53_ms);
        close(stream.median_doh1_ms, exact.median_doh1_ms, 0.05, "doh1");
        close(stream.median_do53_ms, exact.median_do53_ms, 0.05, "do53");
        close(stream.median_dohr_ms, exact.median_dohr_ms, 0.05, "dohr");
        close(
            stream.median_doh10_slowdown_ms,
            exact.median_doh10_slowdown_ms,
            0.15,
            "doh10 slowdown",
        );
        close(
            stream.median_country_doh1_ms,
            exact.median_country_doh1_ms,
            0.05,
            "country doh1",
        );
        close(
            stream.median_country_do53_ms,
            exact.median_country_do53_ms,
            0.05,
            "country do53",
        );
    }

    #[test]
    fn sharded_accumulators_merge_to_the_same_answer() {
        let ds = shared_dataset();
        let mut whole = StreamingHeadline::new();
        for r in &ds.records {
            whole.observe(r);
        }
        let mut merged = StreamingHeadline::new();
        for part in ds.records.chunks(ds.records.len() / 3 + 1) {
            let mut shard = StreamingHeadline::new();
            for r in part {
                shard.observe(r);
            }
            merged.merge(&shard);
        }
        let a = whole.finish(&ds.atlas_do53_ms);
        let b = merged.finish(&ds.atlas_do53_ms);
        assert_eq!(
            a.first_request_speedup_fraction,
            b.first_request_speedup_fraction
        );
        assert_eq!(a.tripled_fraction, b.tripled_fraction);
        close(b.median_doh1_ms, a.median_doh1_ms, 0.05, "merged doh1");
        close(b.median_do53_ms, a.median_do53_ms, 0.05, "merged do53");
    }

    #[test]
    fn streaming_cdfs_track_exact_panels() {
        let ds = shared_dataset();
        let exact = provider_cdfs(ds);
        let mut acc = StreamingCdfs::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let stream = acc.finish();
        assert_eq!(stream.len(), exact.len());
        for (s, e) in stream.iter().zip(&exact) {
            assert_eq!(s.provider, e.provider);
            for w in s.doh1.values.windows(2) {
                assert!(w[0] <= w[1], "{}: values not monotone", s.provider);
            }
            close(
                s.doh1.median(),
                e.doh1.median(),
                0.05,
                &format!("{} doh1 median", s.provider),
            );
            close(
                s.dohr.median(),
                e.dohr.median(),
                0.05,
                &format!("{} dohr median", s.provider),
            );
            close(
                s.do53.median(),
                e.do53.median(),
                0.05,
                &format!("{} do53 median", s.provider),
            );
        }
    }

    #[test]
    fn store_drivers_reproduce_the_batch_analyses() {
        let ds = shared_dataset();
        let dir =
            std::env::temp_dir().join(format!("dohperf-analysis-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dohperf_core::store_io::write_dataset(ds, &dir, 0).unwrap();

        let exact = headline_stats(ds);
        let stream = headline_from_store(&dir).unwrap();
        assert_eq!(
            stream.first_request_speedup_fraction,
            exact.first_request_speedup_fraction
        );
        close(stream.median_doh1_ms, exact.median_doh1_ms, 0.05, "doh1");

        let panels = cdfs_from_store(&dir).unwrap();
        assert_eq!(panels.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
