//! The chunk codec: columnar encode/decode of a record batch.
//!
//! ## Byte layout
//!
//! ```text
//! chunk   := magic(u32 LE = "DPSC") version(u16 LE) flags(u16 LE)
//!            record_count(u32 LE) payload_len(u32 LE)
//!            crc32(u32 LE, over payload) payload
//! payload := group+              (4 groups, plus flag-gated extensions)
//! group   := varint(byte len) bytes
//! ```
//!
//! `flags` gates optional trailing groups: bit 0
//! ([`FLAG_TRANSPORTS`]) marks a fifth **transports** column group,
//! bit 1 (`FLAG_PAGELOAD`) a sixth **pageload** group, and bit 2
//! ([`FLAG_TIMESERIES`]) a seventh **timeseries** group. A chunk whose
//! records all have empty transport, page and window vectors writes
//! `flags = 0` and no trailing groups, so legacy chunks are
//! byte-identical to format version 1 output. Unknown flag bits are
//! rejected.
//!
//! The four always-present column groups mirror the record's field
//! families:
//!
//! 1. **identity** — `client_id` (first absolute, then zigzag varint
//!    deltas: ids are near-monotone so deltas are tiny), `country_index`
//!    (run-length encoded: a shard holds one country), `prefix` (zigzag
//!    varint deltas).
//! 2. **geoloc** — `country_iso` / `maxmind_country` (RLE over the
//!    two-byte codes), then raw-bit f64 columns for lat, lon and the
//!    nameserver distance.
//! 3. **doh** — per-record sample counts, then the flattened samples in
//!    structure-of-arrays form: provider ordinals (RLE — the provider
//!    cycle repeats every record), `t_doh` / `t_dohr` f64 columns,
//!    `pop_index` varints, PoP-distance f64 columns.
//! 4. **do53** — a presence bitmap, the present values as f64, and the
//!    source ordinals (RLE).
//!
//! The flag-gated trailing groups:
//!
//! 5. **transports** — per-record sample counts, then the flattened
//!    lifecycle samples in structure-of-arrays form: transport ordinals
//!    (RLE), provider ordinals (RLE), cold/warm/resumed/handshake f64
//!    columns.
//! 6. **pageload** — per-record sample counts, then the flattened page
//!    samples in structure-of-arrays form: transport ordinals (RLE),
//!    provider ordinals (RLE), DAG-shape varint columns (domains,
//!    unique names, depth, cold/warm cache hits), cold/warm PLT f64
//!    columns.
//! 7. **timeseries** — per-record sample counts, then the flattened
//!    windowed summaries in structure-of-arrays form: window indices
//!    (RLE — every sample of a client lands in the client's window),
//!    provider ordinals (RLE), transport ordinals (RLE), varint count
//!    columns (queries, successes, cache lookups/hits), latency f64
//!    column.
//!
//! Floats are raw little-endian IEEE-754 bits: encode∘decode is the
//! identity on every finite value, which is what lets `--from-store`
//! reproduce the direct pipeline byte for byte.
//!
//! ## Encoder kernels and the scratch contract
//!
//! The hot encoder is [`encode_chunk_into`]: it stages every column
//! through an [`EncodeScratch`] (payload buffer, group buffer, typed
//! column staging, RLE run buffers) and emits with the block kernels
//! from [`crate::varint`], so a long-lived writer performs **zero
//! per-chunk allocations** once its scratch has warmed up. The bytes
//! are identical to the original byte-at-a-time encoder, which is kept
//! verbatim in the test-only `reference` module as the tests' oracle.
//! [`encode_chunk`] is the convenience wrapper that allocates a fresh
//! scratch per call.
//!
//! ## Decoding
//!
//! [`decode_chunk_columns`] is the one decoder: it checks every group's
//! framing and decodes every group in full into a reusable
//! [`ChunkColumns`] (one flat column per field, plus per-record sample
//! counts), so a decode loop allocates nothing per chunk once warm.
//! [`ChunkColumns::to_records`] assembles records from them. Corrupt or
//! hostile bytes fail with [`StoreError::Corrupt`], never a panic, and
//! no column is sized from a count the payload cannot back.

use crate::checksum::crc32;
use crate::record::{
    StoreDohSample, StorePageSample, StoreRecord, StoreTransportSample, StoreWindowSample,
};
use crate::varint::{put_f64_block, put_i64_block, put_u64, put_u64_block, Cursor};
use crate::{Result, StoreError};

/// Chunk magic: `DPSC` ("DoH-Perf Store Chunk").
pub const CHUNK_MAGIC: u32 = u32::from_le_bytes(*b"DPSC");

/// Current format version; readers reject anything newer.
pub const FORMAT_VERSION: u16 = 1;

/// Header flag bit: the payload carries a fifth (transports) group.
pub const FLAG_TRANSPORTS: u16 = 0x1;

/// Header flag bit: the payload carries a sixth (pageload) group.
const FLAG_PAGELOAD: u16 = 0x2;

/// Header flag bit: the payload carries a seventh (timeseries) group.
pub const FLAG_TIMESERIES: u16 = 0x4;

/// All flag bits this reader understands; anything else is rejected.
const KNOWN_FLAGS: u16 = FLAG_TRANSPORTS | FLAG_PAGELOAD | FLAG_TIMESERIES;

/// Fixed header length in bytes (magic, version, flags, count, len, crc).
pub const CHUNK_HEADER_LEN: usize = 4 + 2 + 2 + 4 + 4 + 4;

/// Hard cap on one chunk's payload (64 MiB) — a corrupt length prefix
/// fails fast instead of attempting a huge allocation.
const MAX_PAYLOAD_LEN: usize = 64 << 20;

/// Hard cap on records per chunk, for the same reason.
const MAX_RECORDS_PER_CHUNK: usize = 1 << 22;

/// Per-record cap on DoH samples (defensive; campaigns use 4).
const MAX_SAMPLES_PER_RECORD: usize = 256;

/// Reusable staging buffers for [`encode_chunk_into`].
///
/// One scratch per writer amortizes all column staging across every
/// chunk it encodes: the payload and group byte buffers, the typed
/// column buffers the block kernels consume, and the RLE run
/// accumulators. Holding one and calling
/// [`encode_chunk_into`] in a loop performs no per-chunk allocations
/// after the first few chunks warm the capacities up.
#[derive(Default)]
pub struct EncodeScratch {
    payload: Vec<u8>,
    group: Vec<u8>,
    u64s: Vec<u64>,
    i64s: Vec<i64>,
    f64s: Vec<f64>,
    runs_u32: Vec<(u32, u64)>,
    runs_pair: Vec<([u8; 2], u64)>,
}

impl EncodeScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the staged group to the payload as a length-prefixed blob.
    fn flush_group(&mut self) {
        let Self { payload, group, .. } = self;
        put_u64(payload, group.len() as u64);
        payload.extend_from_slice(group);
    }

    fn identity(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            i64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        // client_id: absolute first value, zigzag deltas after.
        put_u64(group, records[0].client_id);
        i64s.clear();
        i64s.extend(
            records
                .windows(2)
                .map(|w| w[1].client_id.wrapping_sub(w[0].client_id) as i64),
        );
        put_i64_block(group, i64s);
        // country_index: RLE (value, run) pairs.
        rle_u32_into(group, records.iter().map(|r| r.country_index), runs_u32);
        // prefix: absolute first, zigzag deltas.
        put_u64(group, records[0].prefix as u64);
        i64s.clear();
        i64s.extend(
            records
                .windows(2)
                .map(|w| i64::from(w[1].prefix) - i64::from(w[0].prefix)),
        );
        put_i64_block(group, i64s);
    }

    fn geoloc(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            f64s,
            runs_pair,
            ..
        } = self;
        group.clear();
        rle_pair_into(group, records.iter().map(|r| r.country_iso), runs_pair);
        rle_pair_into(group, records.iter().map(|r| r.maxmind_country), runs_pair);
        for column in [
            |r: &StoreRecord| r.lat,
            |r: &StoreRecord| r.lon,
            |r: &StoreRecord| r.nameserver_distance_miles,
        ] {
            f64s.clear();
            f64s.extend(records.iter().map(column));
            put_f64_block(group, f64s);
        }
    }

    fn doh(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            u64s,
            f64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        u64s.clear();
        u64s.extend(records.iter().map(|r| r.doh.len() as u64));
        put_u64_block(group, u64s);
        let flat = || records.iter().flat_map(|r| r.doh.iter());
        rle_u32_into(group, flat().map(|s| u32::from(s.provider)), runs_u32);
        for column in [
            |s: &StoreDohSample| s.t_doh_ms,
            |s: &StoreDohSample| s.t_dohr_ms,
        ] {
            f64s.clear();
            f64s.extend(flat().map(column));
            put_f64_block(group, f64s);
        }
        u64s.clear();
        u64s.extend(flat().map(|s| u64::from(s.pop_index)));
        put_u64_block(group, u64s);
        for column in [
            |s: &StoreDohSample| s.pop_distance_miles,
            |s: &StoreDohSample| s.nearest_pop_distance_miles,
        ] {
            f64s.clear();
            f64s.extend(flat().map(column));
            put_f64_block(group, f64s);
        }
    }

    fn do53(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            f64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        // Presence bitmap, LSB-first within each byte, built in place.
        let start = group.len();
        group.resize(start + records.len().div_ceil(8), 0);
        for (i, r) in records.iter().enumerate() {
            if r.do53_ms.is_some() {
                group[start + i / 8] |= 1 << (i % 8);
            }
        }
        f64s.clear();
        f64s.extend(records.iter().filter_map(|r| r.do53_ms));
        put_f64_block(group, f64s);
        rle_u32_into(
            group,
            records.iter().map(|r| u32::from(r.do53_source)),
            runs_u32,
        );
    }

    fn transports(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            u64s,
            f64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        u64s.clear();
        u64s.extend(records.iter().map(|r| r.transports.len() as u64));
        put_u64_block(group, u64s);
        let flat = || records.iter().flat_map(|r| r.transports.iter());
        rle_u32_into(group, flat().map(|s| u32::from(s.transport)), runs_u32);
        rle_u32_into(group, flat().map(|s| u32::from(s.provider)), runs_u32);
        for column in [
            |s: &StoreTransportSample| s.cold_ms,
            |s: &StoreTransportSample| s.warm_ms,
            |s: &StoreTransportSample| s.resumed_ms,
            |s: &StoreTransportSample| s.handshake_ms,
        ] {
            f64s.clear();
            f64s.extend(flat().map(column));
            put_f64_block(group, f64s);
        }
    }

    fn pageload(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            u64s,
            f64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        u64s.clear();
        u64s.extend(records.iter().map(|r| r.pages.len() as u64));
        put_u64_block(group, u64s);
        let flat = || records.iter().flat_map(|r| r.pages.iter());
        rle_u32_into(group, flat().map(|s| u32::from(s.transport)), runs_u32);
        rle_u32_into(group, flat().map(|s| u32::from(s.provider)), runs_u32);
        // DAG shape columns: small integers, varint-packed.
        for column in [
            |s: &StorePageSample| u64::from(s.domains),
            |s: &StorePageSample| u64::from(s.unique_names),
            |s: &StorePageSample| u64::from(s.depth),
            |s: &StorePageSample| u64::from(s.cold_cache_hits),
            |s: &StorePageSample| u64::from(s.warm_cache_hits),
        ] {
            u64s.clear();
            u64s.extend(flat().map(column));
            put_u64_block(group, u64s);
        }
        for column in [
            |s: &StorePageSample| s.plt_cold_ms,
            |s: &StorePageSample| s.plt_warm_ms,
        ] {
            f64s.clear();
            f64s.extend(flat().map(column));
            put_f64_block(group, f64s);
        }
    }

    fn timeseries(&mut self, records: &[StoreRecord]) {
        let Self {
            group,
            u64s,
            f64s,
            runs_u32,
            ..
        } = self;
        group.clear();
        u64s.clear();
        u64s.extend(records.iter().map(|r| r.windows.len() as u64));
        put_u64_block(group, u64s);
        let flat = || records.iter().flat_map(|r| r.windows.iter());
        rle_u32_into(group, flat().map(|s| s.window), runs_u32);
        rle_u32_into(group, flat().map(|s| u32::from(s.provider)), runs_u32);
        rle_u32_into(group, flat().map(|s| u32::from(s.transport)), runs_u32);
        // Count columns: small integers, varint-packed.
        for column in [
            |s: &StoreWindowSample| u64::from(s.queries),
            |s: &StoreWindowSample| u64::from(s.successes),
            |s: &StoreWindowSample| u64::from(s.cache_lookups),
            |s: &StoreWindowSample| u64::from(s.cache_hits),
        ] {
            u64s.clear();
            u64s.extend(flat().map(column));
            put_u64_block(group, u64s);
        }
        f64s.clear();
        f64s.extend(flat().map(|s| s.latency_ms));
        put_f64_block(group, f64s);
    }
}

/// Encode `records` as one self-contained chunk, appending to `out`.
///
/// Byte-identical to [`encode_chunk`] (and to the original scalar
/// encoder the tests keep as their reference) but stages every column through
/// `scratch`, so repeated calls on a warmed-up scratch allocate nothing
/// per chunk beyond `out`'s own growth.
pub fn encode_chunk_into(records: &[StoreRecord], scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
    assert!(!records.is_empty(), "a chunk holds at least one record");
    assert!(records.len() <= MAX_RECORDS_PER_CHUNK);

    scratch.payload.clear();
    scratch.identity(records);
    scratch.flush_group();
    scratch.geoloc(records);
    scratch.flush_group();
    scratch.doh(records);
    scratch.flush_group();
    scratch.do53(records);
    scratch.flush_group();
    // The transports and pageload groups are flag-gated so that legacy
    // (transport-free, page-free) chunks stay byte-identical to format
    // version 1 output.
    let mut flags = 0u16;
    if records.iter().any(|r| !r.transports.is_empty()) {
        flags |= FLAG_TRANSPORTS;
        scratch.transports(records);
        scratch.flush_group();
    }
    if records.iter().any(|r| !r.pages.is_empty()) {
        flags |= FLAG_PAGELOAD;
        scratch.pageload(records);
        scratch.flush_group();
    }
    if records.iter().any(|r| !r.windows.is_empty()) {
        flags |= FLAG_TIMESERIES;
        scratch.timeseries(records);
        scratch.flush_group();
    }

    let payload = &scratch.payload;
    out.reserve(CHUNK_HEADER_LEN + payload.len());
    out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode `records` as one self-contained chunk.
///
/// Convenience wrapper over [`encode_chunk_into`] with a throwaway
/// scratch; long-lived writers hold an [`EncodeScratch`] instead.
pub fn encode_chunk(records: &[StoreRecord]) -> Vec<u8> {
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    encode_chunk_into(records, &mut scratch, &mut out);
    out
}

/// Smallest payload a record can occupy: the geoloc group alone stores
/// three raw f64s per record. A header whose record count the payload
/// cannot hold is rejected before any column is sized from it.
const MIN_BYTES_PER_RECORD: usize = 24;

/// Decode one chunk into `out`, the flat structure-of-arrays form.
///
/// This is the store's one structural chunk decoder: every group is
/// length-checked and decoded in full — the flag-gated transports,
/// pageload and timeseries groups included — every RLE run sum, varint
/// and narrowing is checked, and no trailing byte is tolerated.
/// [`ChunkColumns::to_records`] assembles records from the columns.
///
/// `out` is reusable scratch: its columns are cleared and refilled, so a
/// decode loop holding one `ChunkColumns` allocates nothing per chunk
/// once the capacities have warmed up. On error `out` holds a partial
/// decode and must not be read.
pub fn decode_chunk_columns(
    record_count: u32,
    flags: u16,
    payload: &[u8],
    index: u64,
    out: &mut ChunkColumns,
) -> Result<()> {
    use std::fmt::Write;
    out.context.clear();
    let _ = write!(out.context, "chunk {index}");
    let context = out.context.as_str();
    let n = record_count as usize;
    if n == 0 || n > MAX_RECORDS_PER_CHUNK || n > payload.len() / MIN_BYTES_PER_RECORD {
        return Err(StoreError::Corrupt(format!(
            "{context}: implausible record count {n} for a {}-byte payload",
            payload.len()
        )));
    }
    let mut cursor = Cursor::new(payload, context);

    let identity = take_group(&mut cursor, "identity")?;
    let geoloc = take_group(&mut cursor, "geoloc")?;
    let doh = take_group(&mut cursor, "doh")?;
    let do53 = take_group(&mut cursor, "do53")?;
    let transports = take_gated_group(&mut cursor, flags & FLAG_TRANSPORTS, "transports")?;
    let pageload = take_gated_group(&mut cursor, flags & FLAG_PAGELOAD, "pageload")?;
    let timeseries = take_gated_group(&mut cursor, flags & FLAG_TIMESERIES, "timeseries")?;
    cursor.expect_empty()?;

    out.identity.decode(identity, n, context)?;
    out.geoloc.decode(geoloc, n, context)?;
    out.doh.decode(doh, n, context)?;
    out.do53.decode(do53, n, context)?;
    out.transports.decode(transports, n, context)?;
    out.pages.decode(pageload, n, context)?;
    out.windows.decode(timeseries, n, context)?;
    Ok(())
}

/// One decoded chunk in flat structure-of-arrays form: one `Vec` per
/// stored field, filled by [`decode_chunk_columns`].
///
/// Per-record columns have one entry per record. Each sample group
/// (`doh`, `transports`, `pages`, `windows`) carries `counts` — the
/// record's sample count, one entry per record — and its flattened
/// sample columns in record order; [`sample_spans`] turns the counts
/// into per-record index ranges. An absent flag-gated group decodes as
/// all-zero counts and empty sample columns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChunkColumns {
    /// Identity group: client ids, country indices, /24 prefixes.
    pub identity: IdentityColumns,
    /// Geoloc group: ISO codes, coordinates, nameserver distance.
    pub geoloc: GeolocColumns,
    /// DoH samples.
    pub doh: DohColumns,
    /// Do53 baseline and its provenance.
    pub do53: Do53Columns,
    /// Extended-transport lifecycle samples (flag-gated).
    pub transports: TransportColumns,
    /// Page-load samples (flag-gated).
    pub pages: PageColumns,
    /// Windowed time-series summaries (flag-gated).
    pub windows: WindowColumns,
    /// Error-context label (`"chunk N"`), reused across decodes.
    context: String,
}

impl ChunkColumns {
    /// Fresh scratch with empty columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records in the decoded chunk.
    pub fn len(&self) -> usize {
        self.identity.client_id.len()
    }

    /// Whether no chunk has been decoded into this scratch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assemble the chunk's records.
    pub fn to_records(&self) -> Vec<StoreRecord> {
        let mut doh = sample_spans(&self.doh.counts);
        let mut transports = sample_spans(&self.transports.counts);
        let mut pages = sample_spans(&self.pages.counts);
        let mut windows = sample_spans(&self.windows.counts);
        let (id, geo) = (&self.identity, &self.geoloc);
        (0..self.len())
            .map(|i| StoreRecord {
                client_id: id.client_id[i],
                country_iso: geo.country_iso[i],
                country_index: id.country_index[i],
                prefix: id.prefix[i],
                maxmind_country: geo.maxmind_country[i],
                lat: geo.lat[i],
                lon: geo.lon[i],
                nameserver_distance_miles: geo.nameserver_distance_miles[i],
                doh: next_span(&mut doh).map(|j| self.doh.sample(j)).collect(),
                do53_ms: self.do53.values[i],
                do53_source: self.do53.source[i],
                transports: next_span(&mut transports)
                    .map(|j| self.transports.sample(j))
                    .collect(),
                pages: next_span(&mut pages)
                    .map(|j| self.pages.sample(j))
                    .collect(),
                windows: next_span(&mut windows)
                    .map(|j| self.windows.sample(j))
                    .collect(),
            })
            .collect()
    }
}

/// Per-record index ranges into a sample group's flat columns, from its
/// `counts` column: record `i`'s samples are the `i`-th range.
pub fn sample_spans(counts: &[u32]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    counts.iter().scan(0usize, |offset, &k| {
        let start = *offset;
        *offset += k as usize;
        Some(start..*offset)
    })
}

fn next_span(spans: &mut impl Iterator<Item = std::ops::Range<usize>>) -> std::ops::Range<usize> {
    spans.next().expect("one count per record")
}

/// Validate and split a chunk header, returning (record_count, payload_len,
/// crc, flags). `index` labels errors.
pub fn parse_header(header: &[u8; CHUNK_HEADER_LEN], index: u64) -> Result<(u32, usize, u32, u16)> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != CHUNK_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: bad magic {magic:#010x}, expected {CHUNK_MAGIC:#010x} (\"DPSC\")"
        )));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version > FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    let flags = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: unknown flag bits {:#06x} (understood: {KNOWN_FLAGS:#06x})",
            flags & !KNOWN_FLAGS
        )));
    }
    let record_count = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let payload_len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: payload length {payload_len} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
        )));
    }
    let crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    Ok((record_count, payload_len, crc, flags))
}

/// Verify a payload against its header checksum.
pub fn verify_checksum(payload: &[u8], expected: u32, index: u64) -> Result<()> {
    let found = crc32(payload);
    if found != expected {
        return Err(StoreError::Corrupt(format!(
            "chunk {index}: checksum mismatch — header says {expected:#010x}, \
             payload hashes to {found:#010x}; the chunk bytes were altered after writing"
        )));
    }
    Ok(())
}

fn take_group<'a>(cursor: &mut Cursor<'a>, what: &str) -> Result<&'a [u8]> {
    let len = cursor.len(MAX_PAYLOAD_LEN, what)?;
    cursor.take(len, what)
}

/// A flag-gated group: present only when its header `flag` bit is set.
fn take_gated_group<'a>(
    cursor: &mut Cursor<'a>,
    flag: u16,
    what: &str,
) -> Result<Option<&'a [u8]>> {
    if flag == 0 {
        return Ok(None);
    }
    take_group(cursor, what).map(Some)
}

// ------------------------------------------------------------ column kernels

/// Clear `out` and read a column of `n` raw-bit f64s into it.
fn f64_column(c: &mut Cursor<'_>, n: usize, out: &mut Vec<f64>) -> Result<()> {
    out.clear();
    c.f64_block(n, out)
}

/// Clear `out` and read a column of `n` varints into it, each narrowed
/// to u32.
fn u32_column(
    c: &mut Cursor<'_>,
    n: usize,
    out: &mut Vec<u32>,
    what: &str,
    context: &str,
) -> Result<()> {
    out.clear();
    for _ in 0..n {
        let v = c.u64()?;
        out.push(u32::try_from(v).map_err(|_| {
            StoreError::Corrupt(format!("{context}: {what} value {v} overflows u32"))
        })?);
    }
    Ok(())
}

/// An ordinal column value narrowed to u8.
fn ordinal_u8(v: u32, what: &str, context: &str) -> Result<u8> {
    u8::try_from(v)
        .map_err(|_| StoreError::Corrupt(format!("{context}: {what} ordinal {v} overflows u8")))
}

/// Read a sample group's per-record counts into `counts` and return
/// their sum. The group stores `f64_columns` raw f64s per sample, so a
/// sum the rest of the group cannot hold is rejected here, before any
/// column is sized from it.
fn sample_counts(
    c: &mut Cursor<'_>,
    n: usize,
    counts: &mut Vec<u32>,
    what: &str,
    f64_columns: usize,
    context: &str,
) -> Result<usize> {
    counts.clear();
    let mut total = 0usize;
    for _ in 0..n {
        let k = c.len(MAX_SAMPLES_PER_RECORD, what)?;
        counts.push(k as u32);
        total += k;
    }
    let need = total.saturating_mul(8 * f64_columns);
    if need > c.remaining() {
        return Err(StoreError::Corrupt(format!(
            "{context}: {what}s sum to {total}, whose f64 columns need {need} bytes, \
             but the group has {} left",
            c.remaining()
        )));
    }
    Ok(total)
}

/// An absent flag-gated group: a zero count per record.
fn zero_counts(counts: &mut Vec<u32>, n: usize) {
    counts.clear();
    counts.resize(n, 0);
}

// ---------------------------------------------------------------- identity

/// The identity group's columns, one entry per record.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IdentityColumns {
    /// Super Proxy-assigned client ids.
    pub client_id: Vec<u64>,
    /// Indices into the campaign's country list.
    pub country_index: Vec<u32>,
    /// /24 prefixes.
    pub prefix: Vec<u32>,
}

impl IdentityColumns {
    fn decode(&mut self, bytes: &[u8], n: usize, context: &str) -> Result<()> {
        let mut c = Cursor::new(bytes, context);
        self.client_id.clear();
        let mut id = c.u64()?;
        self.client_id.push(id);
        for _ in 1..n {
            id = id.wrapping_add(c.i64()? as u64);
            self.client_id.push(id);
        }
        decode_rle_into(&mut c, n, "country_index", &mut self.country_index, Ok)?;
        self.prefix.clear();
        let first = c.u64()?;
        let mut prefix = u32::try_from(first)
            .map_err(|_| StoreError::Corrupt(format!("{context}: prefix {first} overflows u32")))?;
        self.prefix.push(prefix);
        for _ in 1..n {
            let delta = c.i64()?;
            let next = i64::from(prefix).checked_add(delta);
            prefix = next.and_then(|v| u32::try_from(v).ok()).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "{context}: prefix delta {delta} leaves u32 range from {prefix}"
                ))
            })?;
            self.prefix.push(prefix);
        }
        c.expect_empty()
    }
}

// ----------------------------------------------------------------- geoloc

/// The geoloc group's columns, one entry per record.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GeolocColumns {
    /// Ground-truth ISO codes.
    pub country_iso: Vec<[u8; 2]>,
    /// Maxmind-reported ISO codes.
    pub maxmind_country: Vec<[u8; 2]>,
    /// Latitudes, degrees north.
    pub lat: Vec<f64>,
    /// Longitudes, degrees east.
    pub lon: Vec<f64>,
    /// Distances to the authoritative nameserver, miles.
    pub nameserver_distance_miles: Vec<f64>,
}

impl GeolocColumns {
    fn decode(&mut self, bytes: &[u8], n: usize, context: &str) -> Result<()> {
        let mut c = Cursor::new(bytes, context);
        decode_rle_pair_into(&mut c, n, "country_iso", &mut self.country_iso)?;
        decode_rle_pair_into(&mut c, n, "maxmind_country", &mut self.maxmind_country)?;
        f64_column(&mut c, n, &mut self.lat)?;
        f64_column(&mut c, n, &mut self.lon)?;
        f64_column(&mut c, n, &mut self.nameserver_distance_miles)?;
        c.expect_empty()
    }
}

// -------------------------------------------------------------------- doh

/// The doh group: per-record counts plus flattened sample columns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DohColumns {
    /// Samples per record.
    pub counts: Vec<u32>,
    /// Provider ordinals.
    pub provider: Vec<u8>,
    /// Derived first-request times (Equation 7), ms.
    pub t_doh_ms: Vec<f64>,
    /// Derived connection-reuse times (Equation 8), ms.
    pub t_dohr_ms: Vec<f64>,
    /// Serving-PoP indices.
    pub pop_index: Vec<u32>,
    /// Distances to the serving PoP, miles.
    pub pop_distance_miles: Vec<f64>,
    /// Distances to the closest PoP, miles.
    pub nearest_pop_distance_miles: Vec<f64>,
}

impl DohColumns {
    fn decode(&mut self, bytes: &[u8], n: usize, context: &str) -> Result<()> {
        let mut c = Cursor::new(bytes, context);
        let total = sample_counts(&mut c, n, &mut self.counts, "doh sample count", 4, context)?;
        decode_rle_into(&mut c, total, "provider", &mut self.provider, |v| {
            ordinal_u8(v, "provider", context)
        })?;
        f64_column(&mut c, total, &mut self.t_doh_ms)?;
        f64_column(&mut c, total, &mut self.t_dohr_ms)?;
        u32_column(&mut c, total, &mut self.pop_index, "pop_index", context)?;
        f64_column(&mut c, total, &mut self.pop_distance_miles)?;
        f64_column(&mut c, total, &mut self.nearest_pop_distance_miles)?;
        c.expect_empty()
    }

    /// Flat sample `j` as a record-form sample.
    fn sample(&self, j: usize) -> StoreDohSample {
        StoreDohSample {
            provider: self.provider[j],
            t_doh_ms: self.t_doh_ms[j],
            t_dohr_ms: self.t_dohr_ms[j],
            pop_index: self.pop_index[j],
            pop_distance_miles: self.pop_distance_miles[j],
            nearest_pop_distance_miles: self.nearest_pop_distance_miles[j],
        }
    }
}

// ------------------------------------------------------------------- do53

/// The do53 group's columns, one entry per record.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Do53Columns {
    /// Do53 baselines, ms (`None` where the presence bit is clear).
    pub values: Vec<Option<f64>>,
    /// Provenance ordinals (0 = header, 1 = Atlas remedy).
    pub source: Vec<u8>,
}

impl Do53Columns {
    fn decode(&mut self, bytes: &[u8], n: usize, context: &str) -> Result<()> {
        let mut c = Cursor::new(bytes, context);
        let bitmap = c.take(n.div_ceil(8), "do53 presence bitmap")?;
        self.values.clear();
        for i in 0..n {
            let present = bitmap[i / 8] & (1 << (i % 8)) != 0;
            self.values
                .push(if present { Some(c.f64()?) } else { None });
        }
        decode_rle_into(&mut c, n, "do53_source", &mut self.source, |v| {
            ordinal_u8(v, "do53 source", context)
        })?;
        c.expect_empty()
    }
}

// ------------------------------------------------------------- transports

/// The transports group: per-record counts plus flattened sample columns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TransportColumns {
    /// Samples per record (all zero when the group is absent).
    pub counts: Vec<u32>,
    /// Transport ordinals.
    pub transport: Vec<u8>,
    /// Provider ordinals.
    pub provider: Vec<u8>,
    /// Cold (first-request) times (Eq T3), ms.
    pub cold_ms: Vec<f64>,
    /// Warm query times (Eq T4), ms.
    pub warm_ms: Vec<f64>,
    /// Resumed query times (Eq T5), ms.
    pub resumed_ms: Vec<f64>,
    /// Connection-establishment times (Eq T2), ms.
    pub handshake_ms: Vec<f64>,
}

impl TransportColumns {
    fn decode(&mut self, bytes: Option<&[u8]>, n: usize, context: &str) -> Result<()> {
        let Some(bytes) = bytes else {
            zero_counts(&mut self.counts, n);
            self.transport.clear();
            self.provider.clear();
            for col in [
                &mut self.cold_ms,
                &mut self.warm_ms,
                &mut self.resumed_ms,
                &mut self.handshake_ms,
            ] {
                col.clear();
            }
            return Ok(());
        };
        let mut c = Cursor::new(bytes, context);
        let total = sample_counts(
            &mut c,
            n,
            &mut self.counts,
            "transport sample count",
            4,
            context,
        )?;
        decode_rle_into(&mut c, total, "transport", &mut self.transport, |v| {
            ordinal_u8(v, "transport", context)
        })?;
        decode_rle_into(
            &mut c,
            total,
            "transport provider",
            &mut self.provider,
            |v| ordinal_u8(v, "transport provider", context),
        )?;
        f64_column(&mut c, total, &mut self.cold_ms)?;
        f64_column(&mut c, total, &mut self.warm_ms)?;
        f64_column(&mut c, total, &mut self.resumed_ms)?;
        f64_column(&mut c, total, &mut self.handshake_ms)?;
        c.expect_empty()
    }

    /// Flat sample `j` as a record-form sample.
    fn sample(&self, j: usize) -> StoreTransportSample {
        StoreTransportSample {
            transport: self.transport[j],
            provider: self.provider[j],
            cold_ms: self.cold_ms[j],
            warm_ms: self.warm_ms[j],
            resumed_ms: self.resumed_ms[j],
            handshake_ms: self.handshake_ms[j],
        }
    }
}

// --------------------------------------------------------------- pageload

/// The pageload group: per-record counts plus flattened sample columns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PageColumns {
    /// Samples per record (all zero when the group is absent).
    pub counts: Vec<u32>,
    /// Transport ordinals.
    pub transport: Vec<u8>,
    /// Provider ordinals.
    pub provider: Vec<u8>,
    /// DAG nodes per page.
    pub domains: Vec<u32>,
    /// Distinct hostnames per page.
    pub unique_names: Vec<u32>,
    /// Longest dependency chain per page.
    pub depth: Vec<u32>,
    /// Cache hits during the cold visit.
    pub cold_cache_hits: Vec<u32>,
    /// Cache hits summed over the warm revisits.
    pub warm_cache_hits: Vec<u32>,
    /// Cold-visit critical-path PLTs, ms.
    pub plt_cold_ms: Vec<f64>,
    /// Median warm-revisit PLTs, ms.
    pub plt_warm_ms: Vec<f64>,
}

impl PageColumns {
    fn decode(&mut self, bytes: Option<&[u8]>, n: usize, context: &str) -> Result<()> {
        let Some(bytes) = bytes else {
            zero_counts(&mut self.counts, n);
            self.transport.clear();
            self.provider.clear();
            for col in [
                &mut self.domains,
                &mut self.unique_names,
                &mut self.depth,
                &mut self.cold_cache_hits,
                &mut self.warm_cache_hits,
            ] {
                col.clear();
            }
            self.plt_cold_ms.clear();
            self.plt_warm_ms.clear();
            return Ok(());
        };
        let mut c = Cursor::new(bytes, context);
        let total = sample_counts(&mut c, n, &mut self.counts, "page sample count", 2, context)?;
        decode_rle_into(&mut c, total, "page transport", &mut self.transport, |v| {
            ordinal_u8(v, "page transport", context)
        })?;
        decode_rle_into(&mut c, total, "page provider", &mut self.provider, |v| {
            ordinal_u8(v, "page provider", context)
        })?;
        u32_column(&mut c, total, &mut self.domains, "page domains", context)?;
        u32_column(
            &mut c,
            total,
            &mut self.unique_names,
            "page unique_names",
            context,
        )?;
        u32_column(&mut c, total, &mut self.depth, "page depth", context)?;
        let what = "page cold_cache_hits";
        u32_column(&mut c, total, &mut self.cold_cache_hits, what, context)?;
        let what = "page warm_cache_hits";
        u32_column(&mut c, total, &mut self.warm_cache_hits, what, context)?;
        f64_column(&mut c, total, &mut self.plt_cold_ms)?;
        f64_column(&mut c, total, &mut self.plt_warm_ms)?;
        c.expect_empty()
    }

    /// Flat sample `j` as a record-form sample.
    fn sample(&self, j: usize) -> StorePageSample {
        StorePageSample {
            transport: self.transport[j],
            provider: self.provider[j],
            domains: self.domains[j],
            unique_names: self.unique_names[j],
            depth: self.depth[j],
            plt_cold_ms: self.plt_cold_ms[j],
            plt_warm_ms: self.plt_warm_ms[j],
            cold_cache_hits: self.cold_cache_hits[j],
            warm_cache_hits: self.warm_cache_hits[j],
        }
    }
}

// ------------------------------------------------------------- timeseries

/// The timeseries group: per-record counts plus flattened sample columns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WindowColumns {
    /// Samples per record (all zero when the group is absent).
    pub counts: Vec<u32>,
    /// Simulated-time window indices.
    pub window: Vec<u32>,
    /// Provider ordinals.
    pub provider: Vec<u8>,
    /// Transport ordinals.
    pub transport: Vec<u8>,
    /// Resolutions attempted per cell.
    pub queries: Vec<u32>,
    /// Resolutions that succeeded per cell.
    pub successes: Vec<u32>,
    /// Cache probes issued per cell.
    pub cache_lookups: Vec<u32>,
    /// Cache probes that hit per cell.
    pub cache_hits: Vec<u32>,
    /// Representative query latencies, ms.
    pub latency_ms: Vec<f64>,
}

impl WindowColumns {
    fn decode(&mut self, bytes: Option<&[u8]>, n: usize, context: &str) -> Result<()> {
        let Some(bytes) = bytes else {
            zero_counts(&mut self.counts, n);
            self.provider.clear();
            self.transport.clear();
            for col in [
                &mut self.window,
                &mut self.queries,
                &mut self.successes,
                &mut self.cache_lookups,
                &mut self.cache_hits,
            ] {
                col.clear();
            }
            self.latency_ms.clear();
            return Ok(());
        };
        let mut c = Cursor::new(bytes, context);
        let total = sample_counts(
            &mut c,
            n,
            &mut self.counts,
            "window sample count",
            1,
            context,
        )?;
        decode_rle_into(&mut c, total, "window index", &mut self.window, Ok)?;
        decode_rle_into(&mut c, total, "window provider", &mut self.provider, |v| {
            ordinal_u8(v, "window provider", context)
        })?;
        decode_rle_into(
            &mut c,
            total,
            "window transport",
            &mut self.transport,
            |v| ordinal_u8(v, "window transport", context),
        )?;
        u32_column(&mut c, total, &mut self.queries, "window queries", context)?;
        u32_column(
            &mut c,
            total,
            &mut self.successes,
            "window successes",
            context,
        )?;
        let what = "window cache_lookups";
        u32_column(&mut c, total, &mut self.cache_lookups, what, context)?;
        u32_column(
            &mut c,
            total,
            &mut self.cache_hits,
            "window cache_hits",
            context,
        )?;
        f64_column(&mut c, total, &mut self.latency_ms)?;
        c.expect_empty()
    }

    /// Flat sample `j` as a record-form sample.
    fn sample(&self, j: usize) -> StoreWindowSample {
        StoreWindowSample {
            window: self.window[j],
            provider: self.provider[j],
            transport: self.transport[j],
            queries: self.queries[j],
            successes: self.successes[j],
            latency_ms: self.latency_ms[j],
            cache_lookups: self.cache_lookups[j],
            cache_hits: self.cache_hits[j],
        }
    }
}

// ------------------------------------------------------------ RLE helpers

/// Run-length encode a u32 column as (varint value, varint run) pairs,
/// prefixed by the pair count. `runs` is caller-owned scratch — cleared
/// here, retained across calls to avoid per-column allocation.
fn rle_u32_into(out: &mut Vec<u8>, values: impl Iterator<Item = u32>, runs: &mut Vec<(u32, u64)>) {
    runs.clear();
    for v in values {
        match runs.last_mut() {
            Some((last, run)) if *last == v => *run += 1,
            _ => runs.push((v, 1)),
        }
    }
    put_u64(out, runs.len() as u64);
    for &(v, run) in runs.iter() {
        put_u64(out, u64::from(v));
        put_u64(out, run);
    }
}

/// Decode an RLE column of exactly `expected` values into `out` (cleared
/// first), narrowing each run's value with `narrow`.
fn decode_rle_into<T: Copy>(
    c: &mut Cursor<'_>,
    expected: usize,
    what: &str,
    out: &mut Vec<T>,
    narrow: impl Fn(u32) -> Result<T>,
) -> Result<()> {
    out.clear();
    let pairs = c.len(expected.max(1), what)?;
    for _ in 0..pairs {
        let v = c.u64()?;
        let v = u32::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{what}: RLE value {v} overflows u32")))?;
        let run = c.len(expected - out.len(), what)?;
        if run > 0 {
            out.extend(std::iter::repeat_n(narrow(v)?, run));
        }
    }
    if out.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "{what}: RLE runs sum to {} values, expected {expected}",
            out.len()
        )));
    }
    Ok(())
}

/// Run-length encode a `[u8; 2]` column (ISO country codes) through
/// caller-owned run scratch.
fn rle_pair_into(
    out: &mut Vec<u8>,
    values: impl Iterator<Item = [u8; 2]>,
    runs: &mut Vec<([u8; 2], u64)>,
) {
    runs.clear();
    for v in values {
        match runs.last_mut() {
            Some((last, run)) if *last == v => *run += 1,
            _ => runs.push((v, 1)),
        }
    }
    put_u64(out, runs.len() as u64);
    for &(v, run) in runs.iter() {
        out.extend_from_slice(&v);
        put_u64(out, run);
    }
}

/// Decode an RLE `[u8; 2]` column of exactly `expected` values into
/// `out` (cleared first).
fn decode_rle_pair_into(
    c: &mut Cursor<'_>,
    expected: usize,
    what: &str,
    out: &mut Vec<[u8; 2]>,
) -> Result<()> {
    out.clear();
    let pairs = c.len(expected.max(1), what)?;
    for _ in 0..pairs {
        let bytes = c.take(2, what)?;
        let v = [bytes[0], bytes[1]];
        let run = c.len(expected - out.len(), what)?;
        out.extend(std::iter::repeat_n(v, run));
    }
    if out.len() != expected {
        return Err(StoreError::Corrupt(format!(
            "{what}: RLE runs sum to {} values, expected {expected}",
            out.len()
        )));
    }
    Ok(())
}

/// The original byte-at-a-time chunk encoder, retained verbatim as the
/// byte-level reference the block-kernel encoder is tested against. It
/// uses the scalar varint encoders from [`crate::varint::scalar`] and the
/// bytewise [`crate::checksum::reference`] CRC, so the two paths share no
/// kernel code.
#[cfg(test)]
mod reference {
    use super::{
        StoreRecord, CHUNK_HEADER_LEN, CHUNK_MAGIC, FLAG_PAGELOAD, FLAG_TIMESERIES,
        FLAG_TRANSPORTS, FORMAT_VERSION, MAX_RECORDS_PER_CHUNK,
    };
    use crate::checksum::reference::crc32;
    use crate::varint::scalar::{put_f64, put_i64, put_u64};

    /// Encode `records` exactly as the pre-kernel scalar encoder did.
    pub fn encode_chunk(records: &[StoreRecord]) -> Vec<u8> {
        assert!(!records.is_empty(), "a chunk holds at least one record");
        assert!(records.len() <= MAX_RECORDS_PER_CHUNK);

        let mut payload = Vec::with_capacity(records.len() * 96);
        put_group(&mut payload, encode_identity(records));
        put_group(&mut payload, encode_geoloc(records));
        put_group(&mut payload, encode_doh(records));
        put_group(&mut payload, encode_do53(records));
        let mut flags = 0u16;
        if records.iter().any(|r| !r.transports.is_empty()) {
            flags |= FLAG_TRANSPORTS;
            put_group(&mut payload, encode_transports(records));
        }
        if records.iter().any(|r| !r.pages.is_empty()) {
            flags |= FLAG_PAGELOAD;
            put_group(&mut payload, encode_pageload(records));
        }
        if records.iter().any(|r| !r.windows.is_empty()) {
            flags |= FLAG_TIMESERIES;
            put_group(&mut payload, encode_timeseries(records));
        }

        let mut out = Vec::with_capacity(CHUNK_HEADER_LEN + payload.len());
        out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn put_group(out: &mut Vec<u8>, group: Vec<u8>) {
        put_u64(out, group.len() as u64);
        out.extend_from_slice(&group);
    }

    fn encode_identity(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, records[0].client_id);
        for w in records.windows(2) {
            put_i64(&mut out, w[1].client_id.wrapping_sub(w[0].client_id) as i64);
        }
        encode_rle_u32(&mut out, records.iter().map(|r| r.country_index));
        put_u64(&mut out, records[0].prefix as u64);
        for w in records.windows(2) {
            put_i64(&mut out, i64::from(w[1].prefix) - i64::from(w[0].prefix));
        }
        out
    }

    fn encode_geoloc(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_rle_pair(&mut out, records.iter().map(|r| r.country_iso));
        encode_rle_pair(&mut out, records.iter().map(|r| r.maxmind_country));
        for r in records {
            put_f64(&mut out, r.lat);
        }
        for r in records {
            put_f64(&mut out, r.lon);
        }
        for r in records {
            put_f64(&mut out, r.nameserver_distance_miles);
        }
        out
    }

    fn encode_doh(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            put_u64(&mut out, r.doh.len() as u64);
        }
        let flat = || records.iter().flat_map(|r| r.doh.iter());
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
        for s in flat() {
            put_f64(&mut out, s.t_doh_ms);
        }
        for s in flat() {
            put_f64(&mut out, s.t_dohr_ms);
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.pop_index));
        }
        for s in flat() {
            put_f64(&mut out, s.pop_distance_miles);
        }
        for s in flat() {
            put_f64(&mut out, s.nearest_pop_distance_miles);
        }
        out
    }

    fn encode_do53(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut bitmap = vec![0u8; records.len().div_ceil(8)];
        for (i, r) in records.iter().enumerate() {
            if r.do53_ms.is_some() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        for r in records {
            if let Some(v) = r.do53_ms {
                put_f64(&mut out, v);
            }
        }
        encode_rle_u32(&mut out, records.iter().map(|r| u32::from(r.do53_source)));
        out
    }

    fn encode_transports(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            put_u64(&mut out, r.transports.len() as u64);
        }
        let flat = || records.iter().flat_map(|r| r.transports.iter());
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
        for s in flat() {
            put_f64(&mut out, s.cold_ms);
        }
        for s in flat() {
            put_f64(&mut out, s.warm_ms);
        }
        for s in flat() {
            put_f64(&mut out, s.resumed_ms);
        }
        for s in flat() {
            put_f64(&mut out, s.handshake_ms);
        }
        out
    }

    fn encode_pageload(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            put_u64(&mut out, r.pages.len() as u64);
        }
        let flat = || records.iter().flat_map(|r| r.pages.iter());
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
        for s in flat() {
            put_u64(&mut out, u64::from(s.domains));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.unique_names));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.depth));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.cold_cache_hits));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.warm_cache_hits));
        }
        for s in flat() {
            put_f64(&mut out, s.plt_cold_ms);
        }
        for s in flat() {
            put_f64(&mut out, s.plt_warm_ms);
        }
        out
    }

    fn encode_timeseries(records: &[StoreRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            put_u64(&mut out, r.windows.len() as u64);
        }
        let flat = || records.iter().flat_map(|r| r.windows.iter());
        encode_rle_u32(&mut out, flat().map(|s| s.window));
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.provider)));
        encode_rle_u32(&mut out, flat().map(|s| u32::from(s.transport)));
        for s in flat() {
            put_u64(&mut out, u64::from(s.queries));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.successes));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.cache_lookups));
        }
        for s in flat() {
            put_u64(&mut out, u64::from(s.cache_hits));
        }
        for s in flat() {
            put_f64(&mut out, s.latency_ms);
        }
        out
    }

    /// The allocating RLE encoder the scratch variant replaced.
    fn encode_rle_u32(out: &mut Vec<u8>, values: impl Iterator<Item = u32>) {
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for v in values {
            match runs.last_mut() {
                Some((last, run)) if *last == v => *run += 1,
                _ => runs.push((v, 1)),
            }
        }
        put_u64(out, runs.len() as u64);
        for (v, run) in runs {
            put_u64(out, u64::from(v));
            put_u64(out, run);
        }
    }

    fn encode_rle_pair(out: &mut Vec<u8>, values: impl Iterator<Item = [u8; 2]>) {
        let mut runs: Vec<([u8; 2], u64)> = Vec::new();
        for v in values {
            match runs.last_mut() {
                Some((last, run)) if *last == v => *run += 1,
                _ => runs.push((v, 1)),
            }
        }
        put_u64(out, runs.len() as u64);
        for (v, run) in runs {
            out.extend_from_slice(&v);
            put_u64(out, run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64) -> Vec<StoreRecord> {
        (1..=n).map(StoreRecord::test_record).collect()
    }

    /// One encoded chunk's header flags and records, checksum verified.
    fn decode(bytes: &[u8]) -> (u16, Vec<StoreRecord>) {
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, _, crc, flags) = parse_header(&header, 0).unwrap();
        let payload = &bytes[CHUNK_HEADER_LEN..];
        verify_checksum(payload, crc, 0).unwrap();
        let mut columns = ChunkColumns::new();
        decode_chunk_columns(count, flags, payload, 0, &mut columns).unwrap();
        (flags, columns.to_records())
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = batch(17);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (count, len, _, _) = parse_header(&header, 0).unwrap();
        assert_eq!(count as usize, records.len());
        assert_eq!(bytes.len(), CHUNK_HEADER_LEN + len);
        // Transport-free chunks set no flags.
        assert_eq!(decode(&bytes), (0, records));
    }

    #[test]
    fn kernel_encoder_matches_scalar_reference_byte_for_byte() {
        // Every record shape (legacy-only, plus each flag-gated group)
        // through both encoders, with one scratch reused across all of
        // them — stale scratch contents must never leak into a chunk.
        let mut scratch = EncodeScratch::new();
        let mut shapes: Vec<Vec<StoreRecord>> = vec![batch(7), batch(200)];
        let mut mixed = batch(5);
        mixed[1] = StoreRecord::test_record_with_transports(2);
        mixed[2] = StoreRecord::test_record_with_pages(3);
        mixed[3] = StoreRecord::test_record_with_windows(4);
        mixed[4].do53_ms = None;
        mixed[4].doh.clear();
        shapes.push(mixed);
        for records in &shapes {
            let mut kernel = Vec::new();
            encode_chunk_into(records, &mut scratch, &mut kernel);
            assert_eq!(
                kernel,
                reference::encode_chunk(records),
                "kernel vs scalar reference for a {}-record chunk",
                records.len()
            );
        }
    }

    #[test]
    fn none_do53_and_empty_doh_round_trip() {
        let mut records = batch(3);
        records[1].do53_ms = None;
        records[1].do53_source = 1;
        records[2].doh.clear();
        let bytes = encode_chunk(&records);
        let (_, back) = decode(&bytes);
        assert_eq!(back, records);
    }

    #[test]
    fn transports_round_trip_behind_the_flag() {
        // A mixed batch: some records carry lifecycle samples, some do
        // not. One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[3] = StoreRecord::test_record_with_transports(4);
        let bytes = encode_chunk(&records);
        let (flags, back) = decode(&bytes);
        assert_eq!(flags, FLAG_TRANSPORTS);
        assert_eq!(back, records);
        assert_eq!(back[1].transports.len(), 2);
        assert!(back[0].transports.is_empty());
    }

    #[test]
    fn transport_free_chunks_are_byte_identical_to_version_1() {
        // The legacy byte-identity contract: a chunk whose records all
        // have empty transport vectors must encode exactly as the
        // pre-extension format did — flags 0 and four groups only.
        let records = batch(6);
        let with_empty_vecs = encode_chunk(&records);
        assert_eq!(with_empty_vecs[6], 0, "flags low byte");
        assert_eq!(with_empty_vecs[7], 0, "flags high byte");
        // Dropping the transports field entirely (simulated by the same
        // records) yields the same payload length as four groups.
        let (_, back) = decode(&with_empty_vecs);
        assert_eq!(back, records);
    }

    #[test]
    fn pageload_round_trips_behind_the_flag() {
        // A mixed batch: some records carry page samples, some do not.
        // One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[0] = StoreRecord::test_record_with_pages(1);
        records[4] = StoreRecord::test_record_with_pages(5);
        let bytes = encode_chunk(&records);
        let (flags, back) = decode(&bytes);
        assert_eq!(flags, FLAG_PAGELOAD);
        assert_eq!(back, records);
        assert_eq!(back[0].pages.len(), 2);
        assert!(back[1].pages.is_empty());
    }

    #[test]
    fn transports_and_pageload_coexist() {
        // Both flag-gated groups present at once: the transports group
        // precedes the pageload group and both round-trip.
        let mut records = batch(3);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[1].pages = StoreRecord::test_record_with_pages(2).pages;
        let bytes = encode_chunk(&records);
        let (flags, back) = decode(&bytes);
        assert_eq!(flags, FLAG_TRANSPORTS | FLAG_PAGELOAD);
        assert_eq!(back, records);
    }

    #[test]
    fn timeseries_round_trips_behind_the_flag() {
        // A mixed batch: some records carry windowed summaries, some do
        // not. One non-empty vector is enough to set the flag.
        let mut records = batch(5);
        records[0] = StoreRecord::test_record_with_windows(1);
        records[2] = StoreRecord::test_record_with_windows(3);
        let bytes = encode_chunk(&records);
        let (flags, back) = decode(&bytes);
        assert_eq!(flags, FLAG_TIMESERIES);
        assert_eq!(back, records);
        assert_eq!(back[0].windows.len(), 2);
        assert!(back[1].windows.is_empty());
    }

    #[test]
    fn all_three_flag_gated_groups_coexist() {
        // transports < pageload < timeseries in group order, all three
        // flag bits set, and every vector round-trips.
        let mut records = batch(3);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[1].pages = StoreRecord::test_record_with_pages(2).pages;
        records[1].windows = StoreRecord::test_record_with_windows(2).windows;
        let bytes = encode_chunk(&records);
        let (flags, back) = decode(&bytes);
        assert_eq!(flags, FLAG_TRANSPORTS | FLAG_PAGELOAD | FLAG_TIMESERIES);
        assert_eq!(back, records);
    }

    #[test]
    fn window_free_chunks_set_no_timeseries_flag() {
        // Enabling the timeseries code path must not disturb legacy,
        // transports-only or pageload-only chunk bytes: a window-free
        // chunk never sets the FLAG_TIMESERIES bit.
        let mut records = batch(4);
        records[1] = StoreRecord::test_record_with_transports(2);
        records[3] = StoreRecord::test_record_with_pages(4);
        let bytes = encode_chunk(&records);
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_TIMESERIES, 0);
    }

    #[test]
    fn page_free_chunks_set_no_pageload_flag() {
        // Enabling the pageload code path must not disturb legacy or
        // transports-only chunk bytes: a page-free chunk never sets the
        // FLAG_PAGELOAD bit.
        let mut records = batch(4);
        records[2] = StoreRecord::test_record_with_transports(3);
        let bytes = encode_chunk(&records);
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_PAGELOAD, 0);
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let records = batch(2);
        let mut bytes = encode_chunk(&records);
        bytes[6] |= 0x80;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 5).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 5"), "{msg}");
        assert!(msg.contains("unknown flag bits"), "{msg}");
    }

    #[test]
    fn rle_compresses_constant_columns() {
        // 200 records from one country (a shard's natural shape) encode
        // the country/provider/source columns as single runs; the same
        // records with alternating countries force a run per record.
        let constant = encode_chunk(&batch(200));
        let mut varied = batch(200);
        for (i, r) in varied.iter_mut().enumerate() {
            if i % 2 == 1 {
                r.country_iso = *b"US";
                r.maxmind_country = *b"US";
                r.country_index = 31;
            }
        }
        let varied = encode_chunk(&varied);
        assert!(
            constant.len() + 200 * 2 < varied.len(),
            "constant-country chunk {} bytes vs alternating {} bytes",
            constant.len(),
            varied.len()
        );
    }

    #[test]
    fn bad_magic_is_descriptive() {
        let records = batch(2);
        let mut bytes = encode_chunk(&records);
        bytes[0] ^= 0xFF;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 7).unwrap_err();
        assert!(err.to_string().contains("chunk 7"), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        let records = batch(1);
        let mut bytes = encode_chunk(&records);
        bytes[4] = 0xFF;
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let err = parse_header(&header, 0).unwrap_err();
        assert!(err.to_string().contains("newer than supported"), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_descriptive() {
        let records = batch(4);
        let bytes = encode_chunk(&records);
        let header: [u8; CHUNK_HEADER_LEN] = bytes[..CHUNK_HEADER_LEN].try_into().unwrap();
        let (_, _, crc, _) = parse_header(&header, 0).unwrap();
        let mut payload = bytes[CHUNK_HEADER_LEN..].to_vec();
        payload[5] ^= 0x01;
        let err = verify_checksum(&payload, crc, 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
    }
}
