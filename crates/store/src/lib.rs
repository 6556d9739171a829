//! # dohperf-store
//!
//! A streaming, chunked, checksummed columnar record store for
//! full-scale measurement campaigns.
//!
//! The paper's headline results are distributional summaries over ~22k
//! clients × multiple resolvers × repeated trials; at the ROADMAP's
//! "millions of users" target, accumulating every record in memory caps
//! the scale factor long before the hardware does. This crate removes
//! that ceiling: campaign shards stream their records into fixed-budget
//! chunks on disk as they finish, and analyses fold the store chunk by
//! chunk instead of loading it whole.
//!
//! The crate is dependency-free (std only) and knows nothing about the
//! rest of the workspace: it stores [`StoreRecord`]s, a plain-old-data
//! mirror of `dohperf-core`'s `ClientRecord` (the conversion lives in
//! `dohperf_core::store_io`, keeping this crate's dependency arrow
//! pointing outward).
//!
//! ## On-disk layout
//!
//! A store is a directory with two files:
//!
//! * `records.chunks` — a sequence of self-contained chunks. Each chunk
//!   is a length-prefixed, CRC-32-checksummed block holding up to
//!   `chunk_budget` records in columnar (structure-of-arrays) form, one
//!   column group per record field family — identity, geolocation, DoH
//!   samples, Do53 — with varint + delta encoding for ids and run-length
//!   encoding for the low-cardinality country/provider/source columns.
//!   See [`chunk`] for the exact byte layout.
//! * `manifest.bin` — dataset-level metadata (country table, Atlas
//!   remedy samples, discard counts, totals), checksummed the same way.
//!
//! ## Writing
//!
//! There is one write path: [`ChunkWriter::new`]. It encodes each full
//! chunk inline on the pushing thread, through a scratch and a staging
//! buffer it keeps across chunks. A campaign opens one writer per
//! shard, so encoding runs on the simulation workers themselves.
//!
//! ## Reading
//!
//! There is one read path, [`scan_columns`]. It verifies each chunk's
//! CRC-32 over the whole payload (a slicing-by-8 kernel,
//! [`checksum::crc32`]) and decodes every column group — the flag-gated
//! ones included — with one structural decoder, [`decode_chunk_columns`],
//! into flat structure-of-arrays [`ChunkColumns`]. At `threads == 1` it
//! decodes inline, one chunk at a time; otherwise on worker threads,
//! with the same results and errors. Two ways to consume it:
//!
//! * records — [`fold_chunks`] assembles each chunk's [`StoreRecord`]s
//!   from the columns;
//! * columns — [`scan_columns`] hands each chunk's `&ChunkColumns` to a
//!   projection on the decode workers and folds the results in
//!   canonical chunk order, with no record built. Skipping record
//!   assembly skips no check: the CRC and the structural decode are the
//!   same. Domain checks (ordinal ranges, finite floats, ISO codes)
//!   live with the rich schema in `dohperf_core::store_io`, which
//!   applies them to records and to columns alike.
//!
//! ## Determinism contract
//!
//! Chunk bytes are a pure function of the record sequence and the chunk
//! budget: no timestamps, no map iteration, no floating-point
//! re-encoding (f64 columns store raw little-endian bits). A campaign
//! that shards per country, spills one chunk file per shard, and
//! concatenates the spill files in canonical country order therefore
//! produces a byte-identical `records.chunks` for any worker-thread
//! count.
//!
//! ## Quick example
//!
//! ```
//! use dohperf_store::{fold_chunks, ChunkWriter, StoreRecord};
//!
//! let mut buf = Vec::new();
//! let mut writer = ChunkWriter::new(&mut buf, 2); // 2 records per chunk
//! for id in 1..=5u64 {
//!     writer.push(StoreRecord::test_record(id)).unwrap();
//! }
//! let stats = writer.finish().unwrap();
//! assert_eq!(stats.records, 5);
//! assert_eq!(stats.chunks, 3); // 2 + 2 + 1
//!
//! let mut back: Vec<StoreRecord> = Vec::new();
//! let read = fold_chunks(&buf[..], 1, |_, records| Ok(records), |records| {
//!     back.extend(records);
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(read.chunks, 3);
//! assert_eq!(back.len(), 5);
//! assert_eq!(back[4].client_id, 5);
//! ```

pub mod checksum;
pub mod chunk;
pub mod manifest;
pub mod pipeline;
pub mod record;
pub mod varint;
pub mod writer;

pub use chunk::{
    decode_chunk_columns, encode_chunk, encode_chunk_into, sample_spans, ChunkColumns,
    EncodeScratch, CHUNK_MAGIC, FLAG_TIMESERIES, FLAG_TRANSPORTS, FORMAT_VERSION,
};
pub use manifest::{Manifest, MANIFEST_MAGIC};
pub use pipeline::{fold_chunks, scan_columns, ReadStats};
pub use record::{
    StoreDohSample, StorePageSample, StoreRecord, StoreTransportSample, StoreWindowSample,
};
pub use writer::{ChunkWriter, WriterStats};

/// Default number of records buffered per chunk — the memory bound for
/// both the writing and the reading side.
pub const DEFAULT_CHUNK_BUDGET: usize = 512;

/// File name of the chunked record stream inside a store directory.
pub const RECORDS_FILE: &str = "records.chunks";

/// File name of the dataset-level manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// Everything that can go wrong reading or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid or checksum-mismatched bytes. The message
    /// names the chunk/field and the expected-vs-found values.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            StoreError::Corrupt(msg) => std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
        }
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, StoreError>;
