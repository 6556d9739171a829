//! The store's record schema — a plain-old-data mirror of
//! `dohperf-core`'s `ClientRecord`.
//!
//! `ClientRecord` references the `'static` country table and provider
//! enum; the store keeps its dependency arrow pointing outward by
//! storing only primitive projections (two-byte ISO codes, provider
//! ordinals). `dohperf_core::store_io` owns the lossless conversion in
//! both directions.

/// One provider's measurements for one client, primitive form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreDohSample {
    /// Provider ordinal (index into the campaign's provider table).
    pub provider: u8,
    /// Derived first-request time (Equation 7), ms.
    pub t_doh_ms: f64,
    /// Derived connection-reuse time (Equation 8), ms.
    pub t_dohr_ms: f64,
    /// Index of the PoP that served this client.
    pub pop_index: u32,
    /// Geodesic distance to the serving PoP, miles.
    pub pop_distance_miles: f64,
    /// Geodesic distance to the closest PoP in the fleet, miles.
    pub nearest_pop_distance_miles: f64,
}

/// One transport's connection-lifecycle measurement, primitive form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreTransportSample {
    /// Transport ordinal (index into the canonical transport table:
    /// 0 = Do53, 1 = DoH, 2 = DoT, 3 = DoQ).
    pub transport: u8,
    /// Provider ordinal (index into the campaign's provider table).
    pub provider: u8,
    /// Cold (first-request) time (Eq T3), ms.
    pub cold_ms: f64,
    /// Warm (connection-reuse) query time (Eq T4), ms.
    pub warm_ms: f64,
    /// Resumed query time after idle timeout (Eq T5), ms.
    pub resumed_ms: f64,
    /// Cold connection-establishment time alone (Eq T2), ms.
    pub handshake_ms: f64,
}

/// One page-load measurement for one (client, provider, transport)
/// triple, primitive form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorePageSample {
    /// Transport ordinal (index into the canonical transport table:
    /// 0 = Do53, 1 = DoH, 2 = DoT, 3 = DoQ).
    pub transport: u8,
    /// Provider ordinal (index into the campaign's provider table).
    pub provider: u8,
    /// DAG nodes: resource fetches that each need a resolution.
    pub domains: u32,
    /// Distinct hostnames among the nodes.
    pub unique_names: u32,
    /// Longest dependency chain in the DAG (root is depth 0).
    pub depth: u32,
    /// Critical-path PLT of the cold visit, ms.
    pub plt_cold_ms: f64,
    /// Median critical-path PLT over the warm revisits, ms.
    pub plt_warm_ms: f64,
    /// Cache hits during the cold visit.
    pub cold_cache_hits: u32,
    /// Cache hits summed over the warm revisits.
    pub warm_cache_hits: u32,
}

/// One windowed time-series summary for one (window, provider,
/// transport) cell, primitive form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreWindowSample {
    /// Simulated-time window index (`sim_start / window_nanos`).
    pub window: u32,
    /// Provider ordinal (index into the campaign's provider table).
    pub provider: u8,
    /// Transport ordinal (index into the canonical transport table:
    /// 0 = Do53, 1 = DoH, 2 = DoT, 3 = DoQ).
    pub transport: u8,
    /// Resolutions attempted in the window.
    pub queries: u32,
    /// Resolutions that succeeded (availability = successes/queries).
    pub successes: u32,
    /// Representative query latency for the cell, ms (NaN-free; 0 when
    /// the cell is cache-only).
    pub latency_ms: f64,
    /// Cache probes issued (0 for non-cache cells).
    pub cache_lookups: u32,
    /// Cache probes that hit.
    pub cache_hits: u32,
}

/// One client's full record, primitive form.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Super Proxy-assigned unique client id.
    pub client_id: u64,
    /// Ground-truth country, two ASCII letters.
    pub country_iso: [u8; 2],
    /// Index into the campaign's country list.
    pub country_index: u32,
    /// The client's /24 prefix (upper 24 bits of the address).
    pub prefix: u32,
    /// Maxmind-reported country (`"??"` when the lookup failed).
    pub maxmind_country: [u8; 2],
    /// Client latitude, degrees north.
    pub lat: f64,
    /// Client longitude, degrees east.
    pub lon: f64,
    /// Geodesic distance from the client to the authoritative NS, miles.
    pub nameserver_distance_miles: f64,
    /// Per-provider samples, in measurement order.
    pub doh: Vec<StoreDohSample>,
    /// Do53 baseline, ms (None for Atlas-remedy countries).
    pub do53_ms: Option<f64>,
    /// Do53 provenance ordinal (0 = header, 1 = Atlas remedy).
    pub do53_source: u8,
    /// Extended-transport lifecycle samples, in (transport, provider)
    /// measurement order. Empty for legacy campaigns — and an all-empty
    /// chunk omits the column group entirely, so legacy chunk bytes are
    /// unchanged.
    pub transports: Vec<StoreTransportSample>,
    /// Page-load samples, in (transport, provider) measurement order.
    /// Empty unless the campaign enables the page-load workload; the
    /// column group is flag-gated just like `transports`.
    pub pages: Vec<StorePageSample>,
    /// Windowed time-series summaries, in measurement order. Empty
    /// unless the campaign enables windowing; the column group is
    /// flag-gated just like `transports` and `pages`.
    pub windows: Vec<StoreWindowSample>,
}

impl StoreRecord {
    /// A small synthetic record for doctests and unit tests.
    pub fn test_record(client_id: u64) -> StoreRecord {
        StoreRecord {
            client_id,
            country_iso: *b"BR",
            country_index: 30,
            prefix: client_id as u32 + 7,
            maxmind_country: *b"BR",
            lat: -23.55,
            lon: -46.63,
            nameserver_distance_miles: 4800.0,
            doh: vec![
                StoreDohSample {
                    provider: 0,
                    t_doh_ms: 400.0 + client_id as f64,
                    t_dohr_ms: 250.0,
                    pop_index: 12,
                    pop_distance_miles: 220.0,
                    nearest_pop_distance_miles: 180.0,
                },
                StoreDohSample {
                    provider: 1,
                    t_doh_ms: 450.0,
                    t_dohr_ms: 300.0,
                    pop_index: 3,
                    pop_distance_miles: 900.0,
                    nearest_pop_distance_miles: 900.0,
                },
            ],
            do53_ms: Some(240.25),
            do53_source: 0,
            transports: Vec::new(),
            pages: Vec::new(),
            windows: Vec::new(),
        }
    }
}

/// Fixtures for the flag-gated column groups, used by the chunk codec's
/// unit tests.
#[cfg(test)]
impl StoreRecord {
    /// [`StoreRecord::test_record`] plus two lifecycle samples, for
    /// exercising the flag-gated transports column group.
    pub(crate) fn test_record_with_transports(client_id: u64) -> StoreRecord {
        let mut record = StoreRecord::test_record(client_id);
        record.transports = vec![
            StoreTransportSample {
                transport: 2,
                provider: 0,
                cold_ms: 520.0 + client_id as f64,
                warm_ms: 250.0,
                resumed_ms: 330.0,
                handshake_ms: 160.0,
            },
            StoreTransportSample {
                transport: 3,
                provider: 0,
                cold_ms: 440.0,
                warm_ms: 250.0,
                resumed_ms: 255.5,
                handshake_ms: 80.0,
            },
        ];
        record
    }

    /// [`StoreRecord::test_record`] plus two page-load samples, for
    /// exercising the flag-gated pageload column group.
    pub(crate) fn test_record_with_pages(client_id: u64) -> StoreRecord {
        let mut record = StoreRecord::test_record(client_id);
        record.pages = vec![
            StorePageSample {
                transport: 1,
                provider: 0,
                domains: 18,
                unique_names: 15,
                depth: 3,
                plt_cold_ms: 920.0 + client_id as f64,
                plt_warm_ms: 310.5,
                cold_cache_hits: 3,
                warm_cache_hits: 15,
            },
            StorePageSample {
                transport: 0,
                provider: 2,
                domains: 18,
                unique_names: 15,
                depth: 3,
                plt_cold_ms: 640.25,
                plt_warm_ms: 222.0,
                cold_cache_hits: 3,
                warm_cache_hits: 15,
            },
        ];
        record
    }

    /// [`StoreRecord::test_record`] plus two windowed summaries, for
    /// exercising the flag-gated timeseries column group.
    pub(crate) fn test_record_with_windows(client_id: u64) -> StoreRecord {
        let mut record = StoreRecord::test_record(client_id);
        record.windows = vec![
            StoreWindowSample {
                window: client_id as u32 % 24,
                provider: 0,
                transport: 1,
                queries: 5,
                successes: 5,
                latency_ms: 410.0 + client_id as f64,
                cache_lookups: 0,
                cache_hits: 0,
            },
            StoreWindowSample {
                window: client_id as u32 % 24,
                provider: 2,
                transport: 3,
                queries: 3,
                successes: 2,
                latency_ms: 255.5,
                cache_lookups: 36,
                cache_hits: 18,
            },
        ];
        record
    }
}
