//! Dataset schema.
//!
//! One [`ClientRecord`] per unique client, carrying the derived
//! measurements the analyses consume. Raw client IPs are never stored —
//! only the /24 prefix — matching the paper's ethics posture.

use dohperf_netsim::connection::DnsTransport;
use dohperf_netsim::topology::GeoPoint;
use dohperf_providers::provider::ProviderKind;
use dohperf_world::geoloc::Prefix24;

/// Where a client's Do53 number came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Do53Source {
    /// The BrightData header (valid outside Super Proxy countries).
    BrightDataHeader,
    /// RIPE Atlas country-level remedy (the 11 Super Proxy countries);
    /// per-client DoH↔Do53 comparisons are not possible (§3.5).
    RipeAtlasRemedy,
}

/// One provider's measurements for one client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DohSample {
    /// Which provider.
    pub provider: ProviderKind,
    /// Derived first-request time (Equation 7), ms.
    pub t_doh_ms: f64,
    /// Derived connection-reuse time (Equation 8), ms.
    pub t_dohr_ms: f64,
    /// Index of the PoP that served this client.
    pub pop_index: usize,
    /// Geodesic distance to the serving PoP, miles.
    pub pop_distance_miles: f64,
    /// Geodesic distance to the *closest* PoP in the fleet, miles.
    pub nearest_pop_distance_miles: f64,
}

impl DohSample {
    /// Potential improvement (Figure 6): how much closer the best PoP is.
    pub fn potential_improvement_miles(&self) -> f64 {
        (self.pop_distance_miles - self.nearest_pop_distance_miles).max(0.0)
    }

    /// DoH-N amortised time, ms.
    pub fn doh_n_ms(&self, n: u32) -> f64 {
        crate::equations::doh_n_ms(self.t_doh_ms, self.t_dohr_ms, n)
    }
}

/// One transport's connection-lifecycle measurement for one
/// (client, provider) pair — the extended campaign's cold/warm/resumed
/// dimension (DESIGN.md §13). Present only when the campaign enables
/// transports beyond the legacy DoH/Do53 pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportSample {
    /// Which transport carried the queries.
    pub transport: DnsTransport,
    /// Which provider PoP was queried.
    pub provider: ProviderKind,
    /// Cold (first-request) time: bootstrap + full handshake + query
    /// (Eq T3), ms.
    pub cold_ms: f64,
    /// Warm (connection-reuse) query time (Eq T4), ms.
    pub warm_ms: f64,
    /// Resumed query time after idle timeout (Eq T5), ms.
    pub resumed_ms: f64,
    /// Cold connection-establishment time alone (Eq T2), ms.
    pub handshake_ms: f64,
}

impl TransportSample {
    /// Amortised per-request time over `n` requests on one connection —
    /// the DoH-N analogue for any transport.
    pub fn amortized_ms(&self, n: u32) -> f64 {
        crate::equations::doh_n_ms(self.cold_ms, self.warm_ms, n)
    }
}

/// One page-load measurement for one (client, provider, transport)
/// triple — the page-load workload's PLT dimension (DESIGN.md §15).
/// Present only when the campaign enables `pages_per_client`.
///
/// The page is a synthetic dependency DAG of DNS resolutions; PLT is
/// the critical path through that DAG with every query multiplexed
/// over one shared connection. The cold visit starts with an empty
/// stub cache and a cold connection; warm visits revisit the same page
/// with the cache and connection still live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageSample {
    /// Which transport carried every resolution of the page.
    pub transport: DnsTransport,
    /// Which provider PoP the shared connection targeted.
    pub provider: ProviderKind,
    /// DAG nodes: resource fetches that each need a resolution.
    pub domains: u32,
    /// Distinct hostnames among the nodes (shared CDN hosts repeat).
    pub unique_names: u32,
    /// Longest dependency chain in the DAG (root is depth 0).
    pub depth: u32,
    /// Critical-path PLT of the cold visit (empty cache, cold
    /// connection), ms.
    pub plt_cold_ms: f64,
    /// Median critical-path PLT over the warm revisits, ms.
    pub plt_warm_ms: f64,
    /// Cache hits during the cold visit (intra-page duplicates only).
    pub cold_cache_hits: u32,
    /// Cache hits summed over the warm revisits (cross-page reuse).
    pub warm_cache_hits: u32,
}

impl PageSample {
    /// How much the warm revisit saves over the cold visit, ms.
    pub fn warm_savings_ms(&self) -> f64 {
        self.plt_cold_ms - self.plt_warm_ms
    }
}

/// One windowed time-series summary for one (window, provider,
/// transport) cell of one client — the substrate of the `repro
/// timeline` analysis (DESIGN.md §16). Present only when the campaign
/// enables windowing (`window_nanos > 0`).
///
/// Availability is `successes / queries`; today's simulator always
/// answers, so the fraction is 1.0 everywhere — the field exists so the
/// ROADMAP's outage scenarios have somewhere to land failures without a
/// schema change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Simulated-time window index (`window_start / window_nanos`).
    pub window: u32,
    /// Which provider the queries targeted.
    pub provider: ProviderKind,
    /// Which transport carried the queries.
    pub transport: DnsTransport,
    /// Resolutions attempted in the window.
    pub queries: u32,
    /// Resolutions that succeeded.
    pub successes: u32,
    /// Representative query latency for the cell, ms (0 for cache-only
    /// cells such as page-load rows).
    pub latency_ms: f64,
    /// Cache probes issued (0 for non-page cells).
    pub cache_lookups: u32,
    /// Cache probes that hit.
    pub cache_hits: u32,
}

impl WindowSample {
    /// Success fraction (1.0 when the cell saw no queries).
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.successes as f64 / self.queries as f64
        }
    }
}

/// One client's full record.
///
/// Export-only: records reference the `'static` country table, so they
/// export to JSON/CSV but are not meant to round-trip back in.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRecord {
    /// Super Proxy-assigned unique client id.
    pub client_id: u64,
    /// Ground-truth country (BrightData targeting).
    pub country_iso: &'static str,
    /// Index into the campaign's country list.
    pub country_index: usize,
    /// The client's /24 prefix.
    pub prefix: Prefix24,
    /// Maxmind-reported country for the prefix.
    pub maxmind_country: &'static str,
    /// Client position (from the /24, as the paper geolocates).
    pub position: GeoPoint,
    /// Geodesic distance from the client to the authoritative NS, miles.
    pub nameserver_distance_miles: f64,
    /// Per-provider samples, in measurement order.
    pub doh: Vec<DohSample>,
    /// Do53 baseline, ms (None when only the Atlas remedy covers the
    /// client's country and no per-client value exists).
    pub do53_ms: Option<f64>,
    /// Provenance of the Do53 number.
    pub do53_source: Do53Source,
    /// Extended-transport lifecycle samples, in (transport, provider)
    /// measurement order. Empty for legacy DoH/Do53-only campaigns.
    pub transports: Vec<TransportSample>,
    /// Page-load samples, in (transport, provider) measurement order.
    /// Empty unless the campaign enables the page-load workload.
    pub pages: Vec<PageSample>,
    /// Windowed time-series summaries, in measurement order. Empty
    /// unless the campaign enables windowing (the hand-rolled exporters
    /// ignore this field, so legacy exports stay byte-identical).
    pub windows: Vec<WindowSample>,
}

impl ClientRecord {
    /// The sample for one provider, if measured.
    pub fn sample(&self, provider: ProviderKind) -> Option<&DohSample> {
        self.doh.iter().find(|s| s.provider == provider)
    }

    /// Whether BrightData's and Maxmind's countries agree — the §3.5
    /// filter keeps only agreeing records.
    pub fn countries_agree(&self) -> bool {
        self.country_iso == self.maxmind_country
    }

    /// The lifecycle sample for one (transport, provider), if measured.
    pub fn transport_sample(
        &self,
        transport: DnsTransport,
        provider: ProviderKind,
    ) -> Option<&TransportSample> {
        self.transports
            .iter()
            .find(|s| s.transport == transport && s.provider == provider)
    }

    /// The page-load sample for one (transport, provider), if measured.
    pub fn page_sample(
        &self,
        transport: DnsTransport,
        provider: ProviderKind,
    ) -> Option<&PageSample> {
        self.pages
            .iter()
            .find(|s| s.transport == transport && s.provider == provider)
    }
}

/// The campaign's output.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Retained client records (mismatches already discarded).
    pub records: Vec<ClientRecord>,
    /// Country ISO codes, indexed by `country_index`.
    pub countries: Vec<&'static str>,
    /// Per-country Atlas Do53 samples (ms) for the 11 remedy countries.
    pub atlas_do53_ms: Vec<(usize, Vec<f64>)>,
    /// How many records the mismatch filter discarded.
    pub discarded_mismatches: usize,
    /// Unique ASes observed (synthesised from resolver diversity).
    pub observed_ases: usize,
    /// Unique recursive resolvers observed at the authoritative NS.
    pub observed_resolvers: usize,
}

impl Dataset {
    /// Fraction of collected records discarded by the mismatch filter.
    pub fn discard_fraction(&self) -> f64 {
        let total = self.records.len() + self.discarded_mismatches;
        if total == 0 {
            0.0
        } else {
            self.discarded_mismatches as f64 / total as f64
        }
    }

    /// Records in a country (by index).
    pub fn records_in(&self, country_index: usize) -> impl Iterator<Item = &ClientRecord> {
        self.records
            .iter()
            .filter(move |r| r.country_index == country_index)
    }

    /// Number of unique countries with at least one record.
    pub fn country_count(&self) -> usize {
        let mut seen = vec![false; self.countries.len()];
        for r in &self.records {
            seen[r.country_index] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Country-level Atlas Do53 median, ms, if the remedy covers it.
    pub fn atlas_median_ms(&self, country_index: usize) -> Option<f64> {
        atlas_median_ms(&self.atlas_do53_ms, country_index)
    }
}

/// The upper median of a country's samples in an Atlas remedy table
/// (`Dataset::atlas_do53_ms`, or a store manifest's), if the table
/// covers the country.
pub fn atlas_median_ms(atlas_do53_ms: &[(usize, Vec<f64>)], country_index: usize) -> Option<f64> {
    atlas_do53_ms
        .iter()
        .find(|(idx, _)| *idx == country_index)
        .map(|(_, xs)| {
            let mut v = xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(provider: ProviderKind, used: f64, nearest: f64) -> DohSample {
        DohSample {
            provider,
            t_doh_ms: 400.0,
            t_dohr_ms: 250.0,
            pop_index: 0,
            pop_distance_miles: used,
            nearest_pop_distance_miles: nearest,
        }
    }

    #[test]
    fn potential_improvement_never_negative() {
        let s = sample(ProviderKind::Quad9, 100.0, 900.0);
        assert_eq!(s.potential_improvement_miles(), 0.0);
        let s2 = sample(ProviderKind::Quad9, 900.0, 100.0);
        assert_eq!(s2.potential_improvement_miles(), 800.0);
    }

    #[test]
    fn doh_n_uses_equations() {
        let s = sample(ProviderKind::Cloudflare, 1.0, 1.0);
        assert_eq!(s.doh_n_ms(1), 400.0);
        assert!((s.doh_n_ms(10) - 265.0).abs() < 1e-9);
    }

    #[test]
    fn record_lookup_and_agreement() {
        let rec = ClientRecord {
            client_id: 1,
            country_iso: "BR",
            country_index: 0,
            prefix: Prefix24(1),
            maxmind_country: "BR",
            position: GeoPoint::new(0.0, 0.0),
            nameserver_distance_miles: 4000.0,
            doh: vec![sample(ProviderKind::Google, 10.0, 5.0)],
            do53_ms: Some(250.0),
            do53_source: Do53Source::BrightDataHeader,
            transports: Vec::new(),
            pages: Vec::new(),
            windows: Vec::new(),
        };
        assert!(rec.countries_agree());
        assert!(rec.sample(ProviderKind::Google).is_some());
        assert!(rec.sample(ProviderKind::Quad9).is_none());
    }

    #[test]
    fn dataset_accounting() {
        let rec = ClientRecord {
            client_id: 1,
            country_iso: "BR",
            country_index: 0,
            prefix: Prefix24(1),
            maxmind_country: "BR",
            position: GeoPoint::new(0.0, 0.0),
            nameserver_distance_miles: 0.0,
            doh: Vec::new(),
            do53_ms: None,
            do53_source: Do53Source::RipeAtlasRemedy,
            transports: Vec::new(),
            pages: Vec::new(),
            windows: Vec::new(),
        };
        let ds = Dataset {
            records: vec![rec],
            countries: vec!["BR", "US"],
            atlas_do53_ms: vec![(1, vec![30.0, 10.0, 20.0])],
            discarded_mismatches: 1,
            observed_ases: 10,
            observed_resolvers: 8,
        };
        assert_eq!(ds.country_count(), 1);
        assert!((ds.discard_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ds.atlas_median_ms(1), Some(20.0));
        assert_eq!(ds.atlas_median_ms(0), None);
        assert_eq!(ds.records_in(0).count(), 1);
    }
}
