//! Lossless conversion between [`ClientRecord`]s and the columnar store.
//!
//! `dohperf-store` is dependency-free and stores only primitives
//! ([`StoreRecord`]); this module owns the mapping back to the rich
//! schema — interning two-byte ISO codes against the `'static` country
//! table and provider ordinals against [`ALL_PROVIDERS`] — plus the
//! directory-level read/write entry points:
//!
//! * [`write_dataset`] — spill an in-memory [`Dataset`] to a store
//!   directory (`records.chunks` + `manifest.bin`);
//! * [`read_dataset`] — materialise a full [`Dataset`] back, bit-exact
//!   (floats round-trip through raw bits, so a dataset written and read
//!   compares equal field-for-field); [`read_dataset_threads`] is the
//!   same with CRC + column decoding fanned across worker threads;
//! * [`fold_chunks`] — the parallel streaming primitive: decode and
//!   convert on `threads` workers, fold record batches on the calling
//!   thread in canonical chunk order (what keeps a fold bit-identical to
//!   a serial scan at any thread count);
//! * [`scan_columns`] — the same scan without records: every chunk is
//!   CRC-verified, fully decoded into flat columns and put through
//!   `check_columns` (every check the record path makes), then a
//!   caller projection is folded in canonical chunk order.
//!   `analysis::headline_from_store_threads` runs on it.
//!
//! Both scans check each record's `country_index` against the
//! manifest's country table, which [`record_from_store`] alone cannot.
//!
//! [`crate::campaign::Campaign::run_to_store`] uses the same conversion
//! while streaming records straight off the measurement loop.

use crate::records::{
    ClientRecord, Dataset, Do53Source, DohSample, PageSample, TransportSample, WindowSample,
};
use dohperf_netsim::connection::DnsTransport;
use dohperf_netsim::topology::GeoPoint;
use dohperf_providers::provider::{ProviderKind, ALL_PROVIDERS};
use dohperf_store::{
    sample_spans, ChunkColumns, ChunkWriter, Manifest, ReadStats, Result, StoreDohSample,
    StoreError, StorePageSample, StoreRecord, StoreTransportSample, StoreWindowSample, WriterStats,
    MANIFEST_FILE, RECORDS_FILE,
};
use dohperf_world::geoloc::Prefix24;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

/// Project a rich record onto the store's primitive schema.
pub fn record_to_store(r: &ClientRecord) -> StoreRecord {
    StoreRecord {
        client_id: r.client_id,
        country_iso: iso_bytes(r.country_iso),
        country_index: r.country_index as u32,
        prefix: r.prefix.0,
        maxmind_country: iso_bytes(r.maxmind_country),
        lat: r.position.lat,
        lon: r.position.lon,
        nameserver_distance_miles: r.nameserver_distance_miles,
        doh: r
            .doh
            .iter()
            .map(|s| StoreDohSample {
                provider: ALL_PROVIDERS
                    .iter()
                    .position(|&p| p == s.provider)
                    .expect("every provider is in ALL_PROVIDERS") as u8,
                t_doh_ms: s.t_doh_ms,
                t_dohr_ms: s.t_dohr_ms,
                pop_index: s.pop_index as u32,
                pop_distance_miles: s.pop_distance_miles,
                nearest_pop_distance_miles: s.nearest_pop_distance_miles,
            })
            .collect(),
        do53_ms: r.do53_ms,
        do53_source: match r.do53_source {
            Do53Source::BrightDataHeader => 0,
            Do53Source::RipeAtlasRemedy => 1,
        },
        transports: r
            .transports
            .iter()
            .map(|s| StoreTransportSample {
                transport: DnsTransport::ALL
                    .iter()
                    .position(|&t| t == s.transport)
                    .expect("every transport is in DnsTransport::ALL")
                    as u8,
                provider: ALL_PROVIDERS
                    .iter()
                    .position(|&p| p == s.provider)
                    .expect("every provider is in ALL_PROVIDERS") as u8,
                cold_ms: s.cold_ms,
                warm_ms: s.warm_ms,
                resumed_ms: s.resumed_ms,
                handshake_ms: s.handshake_ms,
            })
            .collect(),
        pages: r
            .pages
            .iter()
            .map(|s| StorePageSample {
                transport: DnsTransport::ALL
                    .iter()
                    .position(|&t| t == s.transport)
                    .expect("every transport is in DnsTransport::ALL")
                    as u8,
                provider: ALL_PROVIDERS
                    .iter()
                    .position(|&p| p == s.provider)
                    .expect("every provider is in ALL_PROVIDERS") as u8,
                domains: s.domains,
                unique_names: s.unique_names,
                depth: s.depth,
                plt_cold_ms: s.plt_cold_ms,
                plt_warm_ms: s.plt_warm_ms,
                cold_cache_hits: s.cold_cache_hits,
                warm_cache_hits: s.warm_cache_hits,
            })
            .collect(),
        windows: r
            .windows
            .iter()
            .map(|s| StoreWindowSample {
                window: s.window,
                provider: ALL_PROVIDERS
                    .iter()
                    .position(|&p| p == s.provider)
                    .expect("every provider is in ALL_PROVIDERS") as u8,
                transport: DnsTransport::ALL
                    .iter()
                    .position(|&t| t == s.transport)
                    .expect("every transport is in DnsTransport::ALL")
                    as u8,
                queries: s.queries,
                successes: s.successes,
                latency_ms: s.latency_ms,
                cache_lookups: s.cache_lookups,
                cache_hits: s.cache_hits,
            })
            .collect(),
    }
}

/// Rebuild the rich record, re-interning countries and providers.
///
/// Every check here has one definition — `provider_of`,
/// `transport_of`, `finite`, `intern_iso`, `do53_source_of` — shared
/// with `check_columns`, which applies the same checks in the same
/// order to a decoded chunk's columns for [`scan_columns`]. The
/// `country_index` range needs the manifest, so the directory readers
/// check it after this conversion (`record_in_store`).
pub fn record_from_store(r: &StoreRecord) -> Result<ClientRecord> {
    let id = r.client_id;
    let doh = r
        .doh
        .iter()
        .map(|s| {
            Ok(DohSample {
                provider: provider_of(s.provider, id, "provider")?,
                t_doh_ms: finite(s.t_doh_ms, id, "t_doh_ms")?,
                t_dohr_ms: finite(s.t_dohr_ms, id, "t_dohr_ms")?,
                pop_index: s.pop_index as usize,
                pop_distance_miles: finite(s.pop_distance_miles, id, "pop_distance_miles")?,
                nearest_pop_distance_miles: finite(
                    s.nearest_pop_distance_miles,
                    id,
                    "nearest_pop_distance_miles",
                )?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let transports = r
        .transports
        .iter()
        .map(|s| {
            Ok(TransportSample {
                transport: transport_of(s.transport, id, "transport")?,
                provider: provider_of(s.provider, id, "transport provider")?,
                cold_ms: finite(s.cold_ms, id, "cold_ms")?,
                warm_ms: finite(s.warm_ms, id, "warm_ms")?,
                resumed_ms: finite(s.resumed_ms, id, "resumed_ms")?,
                handshake_ms: finite(s.handshake_ms, id, "handshake_ms")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let pages = r
        .pages
        .iter()
        .map(|s| {
            Ok(PageSample {
                transport: transport_of(s.transport, id, "page transport")?,
                provider: provider_of(s.provider, id, "page provider")?,
                domains: s.domains,
                unique_names: s.unique_names,
                depth: s.depth,
                plt_cold_ms: finite(s.plt_cold_ms, id, "plt_cold_ms")?,
                plt_warm_ms: finite(s.plt_warm_ms, id, "plt_warm_ms")?,
                cold_cache_hits: s.cold_cache_hits,
                warm_cache_hits: s.warm_cache_hits,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let windows = r
        .windows
        .iter()
        .map(|s| {
            Ok(WindowSample {
                window: s.window,
                provider: provider_of(s.provider, id, "window provider")?,
                transport: transport_of(s.transport, id, "window transport")?,
                queries: s.queries,
                successes: s.successes,
                latency_ms: finite(s.latency_ms, id, "latency_ms")?,
                cache_lookups: s.cache_lookups,
                cache_hits: s.cache_hits,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ClientRecord {
        client_id: id,
        country_iso: intern_iso(r.country_iso, id)?,
        country_index: r.country_index as usize,
        prefix: Prefix24(r.prefix),
        maxmind_country: intern_iso(r.maxmind_country, id)?,
        position: GeoPoint::new(r.lat, r.lon),
        nameserver_distance_miles: finite(
            r.nameserver_distance_miles,
            id,
            "nameserver_distance_miles",
        )?,
        doh,
        do53_ms: r.do53_ms.map(|ms| finite(ms, id, "do53_ms")).transpose()?,
        do53_source: do53_source_of(r.do53_source, id)?,
        transports,
        pages,
        windows,
    })
}

/// [`record_from_store`] plus the one check that needs the manifest:
/// the record's `country_index` names one of the `countries` rows of
/// its country table.
fn record_in_store(r: &StoreRecord, countries: usize) -> Result<ClientRecord> {
    let record = record_from_store(r)?;
    check_country_index(r.country_index, countries, r.client_id)?;
    Ok(record)
}

/// Apply every check `record_in_store` makes to one decoded chunk,
/// straight on its columns and without building a record.
///
/// Record by record, in `record_in_store`'s order and through the
/// same check functions: provider and transport ordinal ranges, a
/// finite value in every f64 column the conversion keeps, both ISO
/// codes interned against the country table, the Do53 source, and a
/// country index inside the manifest's `countries` rows. So a chunk
/// passes here exactly when every one of its records converts, and a
/// failing chunk raises the same `client N: <field> is …` error the
/// record path would.
fn check_columns(c: &ChunkColumns, countries: usize) -> Result<()> {
    let mut doh_spans = sample_spans(&c.doh.counts);
    let mut transport_spans = sample_spans(&c.transports.counts);
    let mut page_spans = sample_spans(&c.pages.counts);
    let mut window_spans = sample_spans(&c.windows.counts);
    let (d, t, p, w) = (&c.doh, &c.transports, &c.pages, &c.windows);
    // The ISO columns are run-length encoded, so consecutive records
    // almost always repeat the pair just interned.
    let mut interned: Option<([u8; 2], [u8; 2])> = None;
    for (i, &id) in c.identity.client_id.iter().enumerate() {
        for j in doh_spans.next().expect("one count per record") {
            provider_of(d.provider[j], id, "provider")?;
            finite(d.t_doh_ms[j], id, "t_doh_ms")?;
            finite(d.t_dohr_ms[j], id, "t_dohr_ms")?;
            finite(d.pop_distance_miles[j], id, "pop_distance_miles")?;
            let nearest = d.nearest_pop_distance_miles[j];
            finite(nearest, id, "nearest_pop_distance_miles")?;
        }
        for j in transport_spans.next().expect("one count per record") {
            transport_of(t.transport[j], id, "transport")?;
            provider_of(t.provider[j], id, "transport provider")?;
            finite(t.cold_ms[j], id, "cold_ms")?;
            finite(t.warm_ms[j], id, "warm_ms")?;
            finite(t.resumed_ms[j], id, "resumed_ms")?;
            finite(t.handshake_ms[j], id, "handshake_ms")?;
        }
        for j in page_spans.next().expect("one count per record") {
            transport_of(p.transport[j], id, "page transport")?;
            provider_of(p.provider[j], id, "page provider")?;
            finite(p.plt_cold_ms[j], id, "plt_cold_ms")?;
            finite(p.plt_warm_ms[j], id, "plt_warm_ms")?;
        }
        for j in window_spans.next().expect("one count per record") {
            provider_of(w.provider[j], id, "window provider")?;
            transport_of(w.transport[j], id, "window transport")?;
            finite(w.latency_ms[j], id, "latency_ms")?;
        }
        let isos = (c.geoloc.country_iso[i], c.geoloc.maxmind_country[i]);
        if interned != Some(isos) {
            intern_iso(isos.0, id)?;
            intern_iso(isos.1, id)?;
            interned = Some(isos);
        }
        let ns = c.geoloc.nameserver_distance_miles[i];
        finite(ns, id, "nameserver_distance_miles")?;
        if let Some(ms) = c.do53.values[i] {
            finite(ms, id, "do53_ms")?;
        }
        do53_source_of(c.do53.source[i], id)?;
        check_country_index(c.identity.country_index[i], countries, id)?;
    }
    Ok(())
}

/// Fail unless `index` is a row of a country table of `countries` rows.
/// The analyses index per-country arrays by it, so one past the table
/// would panic there, and a huge one would size an array.
fn check_country_index(index: u32, countries: usize, client_id: u64) -> Result<()> {
    if (index as usize) < countries {
        Ok(())
    } else {
        Err(StoreError::Corrupt(format!(
            "client {client_id}: country_index is {index}, past the manifest's \
             {countries}-country table"
        )))
    }
}

/// A provider ordinal interned against [`ALL_PROVIDERS`]; `what` names
/// the column (`provider`, `transport provider`, ...).
fn provider_of(ordinal: u8, client_id: u64, what: &str) -> Result<ProviderKind> {
    ALL_PROVIDERS.get(ordinal as usize).copied().ok_or_else(|| {
        StoreError::Corrupt(format!(
            "client {client_id}: {what} ordinal {ordinal} out of range (have {})",
            ALL_PROVIDERS.len()
        ))
    })
}

/// A transport ordinal interned against [`DnsTransport::ALL`]; `what`
/// names the column (`transport`, `page transport`, ...).
fn transport_of(ordinal: u8, client_id: u64, what: &str) -> Result<DnsTransport> {
    DnsTransport::ALL
        .get(ordinal as usize)
        .copied()
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "client {client_id}: {what} ordinal {ordinal} out of range (have {})",
                DnsTransport::ALL.len()
            ))
        })
}

/// The Do53 provenance a source ordinal stands for.
fn do53_source_of(ordinal: u8, client_id: u64) -> Result<Do53Source> {
    match ordinal {
        0 => Ok(Do53Source::BrightDataHeader),
        1 => Ok(Do53Source::RipeAtlasRemedy),
        n => Err(StoreError::Corrupt(format!(
            "client {client_id}: do53 source ordinal {n} is neither header (0) nor atlas (1)"
        ))),
    }
}

/// A latency or distance the analyses can order. The store keeps raw f64
/// bits, so a chunk whose CRC checks out can still carry a NaN or an
/// infinity.
#[inline]
fn finite(value: f64, client_id: u64, field: &str) -> Result<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(StoreError::Corrupt(format!(
            "client {client_id}: {field} is {value}, not a finite number"
        )))
    }
}

/// Two ASCII bytes from an ISO code (or the `"??"` failed-lookup marker).
pub(crate) fn iso_bytes(iso: &str) -> [u8; 2] {
    let b = iso.as_bytes();
    debug_assert_eq!(b.len(), 2, "ISO code {iso:?} is not two bytes");
    [b[0], b[1]]
}

/// Re-intern two ISO bytes against the `'static` country table.
fn intern_iso(bytes: [u8; 2], client_id: u64) -> Result<&'static str> {
    if bytes == *b"??" {
        return Ok("??");
    }
    let iso = std::str::from_utf8(&bytes).map_err(|_| {
        StoreError::Corrupt(format!(
            "client {client_id}: country bytes {bytes:?} are not ASCII"
        ))
    })?;
    dohperf_world::countries::country(iso)
        .map(|c| c.iso)
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "client {client_id}: country {iso:?} is not in the embedded table"
            ))
        })
}

/// Write a materialised dataset to `dir` as a store directory.
///
/// Returns the chunk totals. `chunk_budget` 0 means the default. Mostly
/// for tests and conversions; the campaign's streaming path is
/// [`crate::campaign::Campaign::run_to_store`].
pub fn write_dataset(ds: &Dataset, dir: &Path, chunk_budget: usize) -> Result<WriterStats> {
    std::fs::create_dir_all(dir)?;
    let file = BufWriter::new(File::create(dir.join(RECORDS_FILE))?);
    let mut writer = ChunkWriter::new(file, chunk_budget);
    for r in &ds.records {
        writer.push(record_to_store(r))?;
    }
    let stats = writer.finish()?;
    let manifest = manifest_for(ds, stats);
    std::fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;
    dohperf_telemetry::counter!("store.chunks_written").add(stats.chunks);
    dohperf_telemetry::counter!("store.bytes_written").add(stats.bytes);
    Ok(stats)
}

/// Build the manifest for a dataset whose chunks produced `stats`.
pub(crate) fn manifest_for(ds: &Dataset, stats: WriterStats) -> Manifest {
    Manifest {
        countries: ds.countries.iter().map(|iso| iso_bytes(iso)).collect(),
        atlas_do53_ms: ds
            .atlas_do53_ms
            .iter()
            .map(|(idx, samples)| (*idx as u32, samples.clone()))
            .collect(),
        discarded_mismatches: ds.discarded_mismatches as u64,
        observed_ases: ds.observed_ases as u64,
        observed_resolvers: ds.observed_resolvers as u64,
        total_records: stats.records,
        total_chunks: stats.chunks,
        total_bytes: stats.bytes,
    }
}

/// Read the manifest of a store directory.
pub fn read_manifest(dir: &Path) -> Result<Manifest> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
    Manifest::decode(&bytes)
}

/// Decode and fold a store's chunks with `threads` decode workers.
///
/// The calling thread scans the chunk stream and folds each chunk's
/// converted [`ClientRecord`] batch **in canonical chunk order**; CRC
/// verification, column decoding and store→rich conversion (with each
/// record's country index checked against `manifest`'s country table)
/// run on the workers (`threads` 0 = one per core, 1 = inline). Results
/// and error ordinals are identical to a serial scan at every thread
/// count. Finally the scan must have seen exactly the records and
/// chunks `manifest` promises.
///
/// Publishes the scan's wall-clock as the per-run `store.decode_ms`
/// gauge and counts every folded record in `store.records_streamed`.
pub fn fold_chunks<F>(
    dir: &Path,
    manifest: &Manifest,
    threads: usize,
    mut fold: F,
) -> Result<ReadStats>
where
    F: FnMut(Vec<ClientRecord>) -> Result<()>,
{
    let file = File::open(dir.join(RECORDS_FILE))?;
    let countries = manifest.countries.len();
    let start = Instant::now();
    let stats = dohperf_store::fold_chunks(
        BufReader::new(file),
        threads,
        |_, records| {
            records
                .iter()
                .map(|r| record_in_store(r, countries))
                .collect::<Result<Vec<_>>>()
        },
        |records: Vec<ClientRecord>| {
            dohperf_telemetry::counter!("store.records_streamed").add(records.len() as u64);
            fold(records)
        },
    )?;
    dohperf_telemetry::gauge!("store.decode_ms", per_run).set(start.elapsed().as_millis() as i64);
    check_totals(dir, manifest, stats)?;
    Ok(stats)
}

/// Scan a store's chunks as checked columns, with no record built.
///
/// The column-level counterpart of [`fold_chunks`] for analyses that
/// read a few fields. Each chunk gets the same validation the record
/// path gives it: the CRC over the whole payload, a full structural
/// decode of every column group (flag-gated ones included), and
/// `check_columns` — every check [`fold_chunks`] makes. Then
/// `project` copies out what the analysis needs (on the decode workers)
/// and `fold` consumes it on the calling thread in canonical chunk
/// order, so a fold is identical at any thread count. Finally the scan
/// must have seen exactly the records and chunks `manifest` promises;
/// a store cut at a chunk boundary fails here.
///
/// Publishes `store.decode_ms` and `store.records_streamed` like
/// [`fold_chunks`].
pub fn scan_columns<T, P, F>(
    dir: &Path,
    manifest: &Manifest,
    threads: usize,
    project: P,
    mut fold: F,
) -> Result<ReadStats>
where
    T: Send,
    P: Fn(&ChunkColumns) -> T + Sync,
    F: FnMut(T) -> Result<()>,
{
    let file = File::open(dir.join(RECORDS_FILE))?;
    let countries = manifest.countries.len();
    let start = Instant::now();
    let stats = dohperf_store::scan_columns(
        BufReader::new(file),
        threads,
        |_, columns| {
            check_columns(columns, countries)?;
            Ok((columns.len(), project(columns)))
        },
        |(records, projected)| {
            dohperf_telemetry::counter!("store.records_streamed").add(records as u64);
            fold(projected)
        },
    )?;
    dohperf_telemetry::gauge!("store.decode_ms", per_run).set(start.elapsed().as_millis() as i64);
    check_totals(dir, manifest, stats)?;
    Ok(stats)
}

/// Fail unless a scan saw exactly the records and chunks `manifest`
/// promises. A store cut at a chunk boundary scans cleanly, so only the
/// manifest totals reveal the loss.
fn check_totals(dir: &Path, manifest: &Manifest, stats: ReadStats) -> Result<()> {
    if stats.records != manifest.total_records {
        return Err(StoreError::Corrupt(format!(
            "store {}: manifest promises {} records, chunks hold {}",
            dir.display(),
            manifest.total_records,
            stats.records
        )));
    }
    if stats.chunks != manifest.total_chunks {
        return Err(StoreError::Corrupt(format!(
            "store {}: manifest promises {} chunks, {RECORDS_FILE} holds {}",
            dir.display(),
            manifest.total_chunks,
            stats.chunks
        )));
    }
    Ok(())
}

/// Materialise the full [`Dataset`] from a store directory.
///
/// The result is bit-exact with the dataset that was written: floats
/// round-trip through raw bits and countries re-intern to the same
/// `'static` table entries.
pub fn read_dataset(dir: &Path) -> Result<Dataset> {
    read_dataset_threads(dir, 1)
}

/// [`read_dataset`] with chunk decoding fanned across `threads` worker
/// threads (0 = one per core). Bit-exact with the serial read: the
/// record order is the canonical chunk order regardless of which worker
/// decoded what.
pub fn read_dataset_threads(dir: &Path, threads: usize) -> Result<Dataset> {
    let manifest = read_manifest(dir)?;
    // Every record spends at least 24 bytes on its raw-bit lat, lon and
    // nameserver-distance columns, so the file size caps what is reserved
    // for the record count the manifest claims; `check_totals` rejects a
    // claim the chunks do not hold.
    let max_records = std::fs::metadata(dir.join(RECORDS_FILE))?.len() / 24;
    let mut records = Vec::with_capacity(manifest.total_records.min(max_records) as usize);
    fold_chunks(dir, &manifest, threads, |mut batch| {
        records.append(&mut batch);
        Ok(())
    })?;
    let countries = manifest
        .countries
        .iter()
        .map(|&iso| intern_iso(iso, 0))
        .collect::<Result<Vec<_>>>()?;
    Ok(Dataset {
        records,
        countries,
        atlas_do53_ms: manifest
            .atlas_do53_ms
            .iter()
            .map(|(idx, samples)| (*idx as usize, samples.clone()))
            .collect(),
        discarded_mismatches: manifest.discarded_mismatches as usize,
        observed_ases: manifest.observed_ases as usize,
        observed_resolvers: manifest.observed_resolvers as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| {
            Campaign::new(CampaignConfig {
                scale: 0.02,
                ..CampaignConfig::quick(9)
            })
            .run()
        })
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dohperf-store-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_conversion_round_trips() {
        for r in &dataset().records {
            let back = record_from_store(&record_to_store(r)).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn dataset_round_trips_through_a_store_directory() {
        let ds = dataset();
        let dir = temp_dir("roundtrip");
        let stats = write_dataset(ds, &dir, 64).unwrap();
        assert_eq!(stats.records as usize, ds.records.len());
        let back = read_dataset(&dir).unwrap();
        assert_eq!(back.records, ds.records);
        assert_eq!(back.countries, ds.countries);
        assert_eq!(back.atlas_do53_ms, ds.atlas_do53_ms);
        assert_eq!(back.discarded_mismatches, ds.discarded_mismatches);
        assert_eq!(back.observed_ases, ds.observed_ases);
        assert_eq!(back.observed_resolvers, ds.observed_resolvers);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_count_beyond_the_file_size_is_not_reserved() {
        let dir = temp_dir("huge-count");
        write_dataset(dataset(), &dir, 64).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        manifest.total_records = 1 << 50;
        std::fs::write(dir.join(MANIFEST_FILE), manifest.encode()).unwrap();
        let err = read_dataset(&dir).unwrap_err().to_string();
        let promised = format!(
            "manifest promises {} records, chunks hold {}",
            1u64 << 50,
            dataset().records.len()
        );
        assert!(err.contains(&promised), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_country_bytes_are_rejected() {
        let mut store = record_to_store(&dataset().records[0]);
        store.country_iso = *b"zq";
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("not in the embedded table"), "{err}");
    }

    #[test]
    fn bad_provider_ordinal_is_rejected() {
        let mut store = record_to_store(&dataset().records[0]);
        store.doh[0].provider = 200;
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("provider ordinal 200"), "{err}");
    }

    #[test]
    fn bad_transport_ordinals_are_rejected() {
        let bad_sample = |transport: u8, provider: u8| StoreTransportSample {
            transport,
            provider,
            cold_ms: 1.0,
            warm_ms: 1.0,
            resumed_ms: 1.0,
            handshake_ms: 1.0,
        };
        let mut store = record_to_store(&dataset().records[0]);
        store.transports.push(bad_sample(9, 0));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("transport ordinal 9"), "{err}");

        let mut store = record_to_store(&dataset().records[0]);
        store.transports.push(bad_sample(0, 77));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("transport provider ordinal 77"), "{err}");
    }

    #[test]
    fn bad_page_ordinals_are_rejected() {
        let bad_sample = |transport: u8, provider: u8| StorePageSample {
            transport,
            provider,
            domains: 12,
            unique_names: 10,
            depth: 3,
            plt_cold_ms: 1.0,
            plt_warm_ms: 1.0,
            cold_cache_hits: 2,
            warm_cache_hits: 10,
        };
        let mut store = record_to_store(&dataset().records[0]);
        store.pages.push(bad_sample(11, 0));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("page transport ordinal 11"), "{err}");

        let mut store = record_to_store(&dataset().records[0]);
        store.pages.push(bad_sample(0, 66));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("page provider ordinal 66"), "{err}");
    }

    #[test]
    fn bad_window_ordinals_are_rejected() {
        let bad_sample = |transport: u8, provider: u8| StoreWindowSample {
            window: 3,
            provider,
            transport,
            queries: 4,
            successes: 4,
            latency_ms: 120.0,
            cache_lookups: 0,
            cache_hits: 0,
        };
        let mut store = record_to_store(&dataset().records[0]);
        store.windows.push(bad_sample(13, 0));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("window transport ordinal 13"), "{err}");

        let mut store = record_to_store(&dataset().records[0]);
        store.windows.push(bad_sample(0, 88));
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("window provider ordinal 88"), "{err}");
    }

    /// Decode `records` as one chunk's columns.
    fn columns_of(records: &[StoreRecord]) -> ChunkColumns {
        let bytes = dohperf_store::encode_chunk(records);
        let header = bytes[..dohperf_store::chunk::CHUNK_HEADER_LEN]
            .try_into()
            .unwrap();
        let (count, _, _, flags) = dohperf_store::chunk::parse_header(header, 0).unwrap();
        let payload = &bytes[dohperf_store::chunk::CHUNK_HEADER_LEN..];
        let mut columns = ChunkColumns::new();
        dohperf_store::decode_chunk_columns(count, flags, payload, 0, &mut columns).unwrap();
        columns
    }

    #[test]
    fn column_checks_raise_the_record_checks_errors() {
        // A clean chunk passes; a chunk with one bad value anywhere fails
        // with exactly the error converting its records would raise.
        let clean: Vec<StoreRecord> = dataset().records[..40]
            .iter()
            .map(record_to_store)
            .collect();
        let countries = dataset().countries.len();
        check_columns(&columns_of(&clean), countries).unwrap();

        let transport = StoreTransportSample {
            transport: 1,
            provider: 0,
            cold_ms: 1.0,
            warm_ms: 1.0,
            resumed_ms: 1.0,
            handshake_ms: 1.0,
        };
        let page = StorePageSample {
            transport: 1,
            provider: 0,
            domains: 12,
            unique_names: 10,
            depth: 3,
            plt_cold_ms: 1.0,
            plt_warm_ms: 1.0,
            cold_cache_hits: 2,
            warm_cache_hits: 10,
        };
        let window = StoreWindowSample {
            window: 3,
            provider: 0,
            transport: 1,
            queries: 4,
            successes: 4,
            latency_ms: 120.0,
            cache_lookups: 0,
            cache_hits: 0,
        };
        let bad_country = format!(
            "country_index is {}, past the manifest's {countries}-country table",
            countries + 1000
        );
        type Poison = Box<dyn Fn(&mut StoreRecord)>;
        let poisons: Vec<(&str, Poison)> = vec![
            (
                "provider ordinal 200",
                Box::new(|r| r.doh[1].provider = 200),
            ),
            (
                "t_dohr_ms is NaN",
                Box::new(|r| r.doh[2].t_dohr_ms = f64::NAN),
            ),
            (
                "transport ordinal 9",
                Box::new(move |r| {
                    r.transports = vec![transport; 2];
                    r.transports[1].transport = 9;
                }),
            ),
            (
                "transport provider ordinal 77",
                Box::new(move |r| {
                    r.transports = vec![transport];
                    r.transports[0].provider = 77;
                }),
            ),
            (
                "handshake_ms is inf",
                Box::new(move |r| {
                    r.transports = vec![transport];
                    r.transports[0].handshake_ms = f64::INFINITY;
                }),
            ),
            (
                "page transport ordinal 11",
                Box::new(move |r| {
                    r.pages = vec![page];
                    r.pages[0].transport = 11;
                }),
            ),
            (
                "page provider ordinal 66",
                Box::new(move |r| {
                    r.pages = vec![page];
                    r.pages[0].provider = 66;
                }),
            ),
            (
                "plt_warm_ms is NaN",
                Box::new(move |r| {
                    r.pages = vec![page];
                    r.pages[0].plt_warm_ms = f64::NAN;
                }),
            ),
            (
                "window provider ordinal 88",
                Box::new(move |r| {
                    r.windows = vec![window];
                    r.windows[0].provider = 88;
                }),
            ),
            (
                "window transport ordinal 13",
                Box::new(move |r| {
                    r.windows = vec![window];
                    r.windows[0].transport = 13;
                }),
            ),
            (
                "latency_ms is NaN",
                Box::new(move |r| {
                    r.windows = vec![window];
                    r.windows[0].latency_ms = f64::NAN;
                }),
            ),
            (
                "country \"ZQ\" is not in the embedded table",
                Box::new(|r| r.country_iso = *b"ZQ"),
            ),
            (
                "country bytes [255, 66] are not ASCII",
                Box::new(|r| r.maxmind_country = [0xFF, b'B']),
            ),
            (
                "nameserver_distance_miles is NaN",
                Box::new(|r| r.nameserver_distance_miles = f64::NAN),
            ),
            (
                "do53_ms is -inf",
                Box::new(|r| r.do53_ms = Some(f64::NEG_INFINITY)),
            ),
            ("do53 source ordinal 7", Box::new(|r| r.do53_source = 7)),
            (
                &bad_country,
                Box::new(move |r| r.country_index = countries as u32 + 1000),
            ),
        ];
        for (expected, poison) in &poisons {
            for at in [0, 17, 39] {
                let mut records = clean.clone();
                poison(&mut records[at]);
                // A second defect later in the chunk must not change
                // which error is reported.
                records[at + 1..].iter_mut().for_each(|r| r.do53_source = 9);
                let record_err = records
                    .iter()
                    .map(|r| record_in_store(r, countries))
                    .find_map(|r| r.err())
                    .expect("a poisoned record fails to convert")
                    .to_string();
                assert!(record_err.contains(expected), "{record_err}");
                let column_err = check_columns(&columns_of(&records), countries)
                    .expect_err("a poisoned chunk fails its column checks")
                    .to_string();
                assert_eq!(column_err, record_err, "poison {expected:?} at record {at}");
            }
        }
    }

    #[test]
    fn bad_do53_source_is_rejected() {
        let mut store = record_to_store(&dataset().records[0]);
        store.do53_source = 7;
        let err = record_from_store(&store).unwrap_err().to_string();
        assert!(err.contains("do53 source ordinal 7"), "{err}");
    }
}
