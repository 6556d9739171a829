//! Store reads: the one chunk reader, serial or fanned out to worker
//! threads.
//!
//! Writes have no counterpart here: each campaign shard encodes its
//! chunks inline through its own [`ChunkWriter`], and the simulation
//! workers already keep every core busy (DESIGN.md §17).
//!
//! [`scan_columns`] is the store's one chunk reader. At `threads == 1`
//! it reads, verifies and decodes each chunk inline, holding one chunk
//! at a time. Otherwise the calling thread scans headers and payloads
//! sequentially (cheap — two reads per chunk), fans the payloads out to
//! decode workers that verify the CRC over the whole payload, decode
//! every column group (the flag-gated ones included) into the worker's
//! reusable [`ChunkColumns`] and apply a caller-supplied `map` to them,
//! and then folds the mapped results **on the calling thread in
//! canonical chunk order**. The serial fold is what keeps a derived
//! analysis bit-identical to a serial scan at any thread count: fold
//! order never varies, only the decode work is concurrent. Corrupt chunks surface with the same ordinal and message
//! a serial scan would report, and the earliest-ordinal error wins when
//! several chunks fail.
//!
//! [`fold_chunks`] is the record-level wrapper: its `map` gets the
//! chunk's records, assembled from the same columns. A column scan
//! validates exactly what a record scan does — only the record
//! assembly is left out — so callers that read a few fields (the
//! headline re-analysis from a store) scan columns and project.
//!
//! [`ChunkWriter`]: crate::ChunkWriter

use crate::chunk::{
    decode_chunk_columns, parse_header, verify_checksum, ChunkColumns, CHUNK_HEADER_LEN,
};
use crate::record::StoreRecord;
use crate::{Result, StoreError};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Condvar, Mutex};

/// Totals from one [`scan_columns`] (or [`fold_chunks`]) scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks decoded and folded.
    pub chunks: u64,
    /// Records in those chunks.
    pub records: u64,
}

/// Scan a chunk stream, decoding chunks into flat [`ChunkColumns`] on
/// `threads` worker threads and folding the mapped results in canonical
/// chunk order.
///
/// Every chunk gets the full treatment before `map` sees it: its CRC is
/// verified over the whole payload and every column group — the
/// flag-gated ones included — is structurally decoded by
/// [`decode_chunk_columns`]. `map` runs on the decode workers with the
/// chunk ordinal and that worker's reusable column scratch (check,
/// project, pre-aggregate); `fold` runs on the calling thread, invoked
/// exactly once per chunk in ascending ordinal order. `threads == 0`
/// means one per core; `threads == 1` decodes inline with zero thread
/// overhead. Both produce results — and errors, down to the failing
/// chunk's ordinal — identical to a serial scan.
pub fn scan_columns<R, T, M, F>(source: R, threads: usize, map: M, mut fold: F) -> Result<ReadStats>
where
    R: Read,
    T: Send,
    M: Fn(u64, &ChunkColumns) -> Result<T> + Sync,
    F: FnMut(T) -> Result<()>,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut scanner = ChunkScanner::new(source);
    let mut records = 0u64;
    if threads <= 1 {
        let mut payload = Vec::new();
        let mut columns = ChunkColumns::new();
        let mut seq = 0u64;
        while let Some(header) = scanner.next_into(&mut payload)? {
            fold(decode_and_map(seq, header, &payload, &mut columns, &map)?)?;
            records += u64::from(header.0);
            seq += 1;
        }
        return Ok(ReadStats {
            chunks: seq,
            records,
        });
    }

    let (tx, rx) = sync_channel::<DecodeJob>(threads * 2);
    let rx = Mutex::new(rx);
    let slots: ResultChannel<T> = ResultChannel::new();
    let payload_pool: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

    let chunks = std::thread::scope(|scope| -> Result<u64> {
        for _ in 0..threads {
            scope.spawn(|| decode_loop(&rx, &map, &slots, &payload_pool));
        }
        let mut submitted = 0u64;
        let mut next_fold = 0u64;
        // A scan error (truncated or malformed header/payload) must not
        // preempt a decode error in an *earlier* chunk, so it is staged
        // here and re-raised only after the outstanding folds drain.
        let mut scan_err: Option<StoreError> = None;
        loop {
            let mut payload = payload_pool.lock().unwrap().pop().unwrap_or_default();
            match scanner.next_into(&mut payload) {
                Ok(None) => break,
                Ok(Some(header)) => {
                    tx.send(DecodeJob {
                        seq: submitted,
                        header,
                        payload,
                    })
                    .expect("decode workers are running");
                    records += u64::from(header.0);
                    submitted += 1;
                }
                Err(e) => {
                    scan_err = Some(e);
                    break;
                }
            }
            // Opportunistically fold whatever is ready, in order.
            while let Some(result) = slots.try_take(next_fold) {
                fold(result?)?;
                next_fold += 1;
            }
        }
        drop(tx); // lets the workers drain and exit
        while next_fold < submitted {
            fold(slots.wait_take(next_fold)?)?;
            next_fold += 1;
        }
        match scan_err {
            Some(e) => Err(e),
            None => Ok(submitted),
        }
    })?;
    Ok(ReadStats { chunks, records })
}

/// Scan a chunk stream, decoding chunks on `threads` worker threads and
/// folding the mapped results in canonical chunk order.
///
/// The record-level form of [`scan_columns`]: `map` gets the chunk
/// ordinal and the decoded records (convert, pre-aggregate, or just pass
/// through); `fold` runs on the calling thread, invoked exactly once per
/// chunk in ascending ordinal order. `threads == 0` means one per core;
/// `threads == 1` decodes inline with zero thread overhead. Both
/// produce results — and errors, down to the failing chunk's ordinal —
/// identical to a serial scan.
pub fn fold_chunks<R, T, M, F>(source: R, threads: usize, map: M, fold: F) -> Result<ReadStats>
where
    R: Read,
    T: Send,
    M: Fn(u64, Vec<StoreRecord>) -> Result<T> + Sync,
    F: FnMut(T) -> Result<()>,
{
    scan_columns(
        source,
        threads,
        |seq, columns| map(seq, columns.to_records()),
        fold,
    )
}

/// A chunk header as the scanner returns it: (record_count, flags, crc).
type ChunkHeader = (u32, u16, u32);

/// Verify one chunk's CRC, decode it into `columns` and map it.
fn decode_and_map<T, M>(
    seq: u64,
    (record_count, flags, crc): ChunkHeader,
    payload: &[u8],
    columns: &mut ChunkColumns,
    map: &M,
) -> Result<T>
where
    M: Fn(u64, &ChunkColumns) -> Result<T>,
{
    verify_checksum(payload, crc, seq)?;
    decode_chunk_columns(record_count, flags, payload, seq, columns)?;
    map(seq, columns)
}

/// One raw chunk on its way to a decode worker.
struct DecodeJob {
    seq: u64,
    header: ChunkHeader,
    payload: Vec<u8>,
}

/// Decode results keyed by chunk ordinal, drained in order by the fold.
struct ResultChannel<T> {
    slots: Mutex<BTreeMap<u64, Result<T>>>,
    cv: Condvar,
}

impl<T> ResultChannel<T> {
    fn new() -> Self {
        ResultChannel {
            slots: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
        }
    }

    fn put(&self, seq: u64, result: Result<T>) {
        self.slots.lock().unwrap().insert(seq, result);
        self.cv.notify_all();
    }

    fn try_take(&self, seq: u64) -> Option<Result<T>> {
        self.slots.lock().unwrap().remove(&seq)
    }

    fn wait_take(&self, seq: u64) -> Result<T> {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(result) = slots.remove(&seq) {
                return result;
            }
            slots = self.cv.wait(slots).unwrap();
        }
    }
}

fn decode_loop<T, M>(
    rx: &Mutex<Receiver<DecodeJob>>,
    map: &M,
    slots: &ResultChannel<T>,
    payload_pool: &Mutex<Vec<Vec<u8>>>,
) where
    M: Fn(u64, &ChunkColumns) -> Result<T>,
{
    // One column scratch per worker, reused for every chunk it decodes.
    let mut columns = ChunkColumns::new();
    loop {
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let DecodeJob {
            seq,
            header,
            payload,
        } = job;
        let result = decode_and_map(seq, header, &payload, &mut columns, map);
        payload_pool.lock().unwrap().push(payload);
        slots.put(seq, result);
    }
}

/// Sequential header/payload scanner with caller-owned payload reuse.
struct ChunkScanner<R: Read> {
    source: R,
    next_chunk: u64,
}

impl<R: Read> ChunkScanner<R> {
    fn new(source: R) -> Self {
        ChunkScanner {
            source,
            next_chunk: 0,
        }
    }

    /// Read the next header + payload, resizing `payload` in place.
    /// Returns `None` on clean EOF.
    fn next_into(&mut self, payload: &mut Vec<u8>) -> Result<Option<ChunkHeader>> {
        let mut header = [0u8; CHUNK_HEADER_LEN];
        match read_exact_or_eof(&mut self.source, &mut header) {
            Ok(false) => return Ok(None),
            Ok(true) => {}
            Err(e) => {
                return Err(StoreError::Corrupt(format!(
                    "chunk {}: truncated header ({e})",
                    self.next_chunk
                )))
            }
        }
        let (record_count, payload_len, crc, flags) = parse_header(&header, self.next_chunk)?;
        payload.clear();
        payload.resize(payload_len, 0);
        self.source.read_exact(payload).map_err(|e| {
            StoreError::Corrupt(format!(
                "chunk {}: truncated payload, wanted {payload_len} bytes ({e})",
                self.next_chunk
            ))
        })?;
        self.next_chunk += 1;
        Ok(Some((record_count, flags, crc)))
    }
}

/// `read_exact`, but a clean EOF before the first byte returns Ok(false).
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = source.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("got {filled} of {} header bytes", buf.len()),
            ));
        }
        filled += n;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ChunkWriter;

    fn records(n: u64) -> Vec<StoreRecord> {
        (1..=n).map(StoreRecord::test_record).collect()
    }

    fn serial_bytes(n: u64, budget: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkWriter::new(&mut out, budget);
        for r in records(n) {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn fold_chunks_matches_serial_order_at_any_thread_count() {
        let bytes = serial_bytes(83, 6);
        for threads in [1, 2, 8] {
            let mut ids = Vec::new();
            let stats = fold_chunks(
                &bytes[..],
                threads,
                |_, records| Ok(records),
                |records: Vec<StoreRecord>| {
                    ids.extend(records.iter().map(|r| r.client_id));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(stats.chunks, 14); // 13×6 + 5
            assert_eq!(stats.records, 83);
            assert_eq!(ids, (1..=83).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_stream_folds_no_chunk() {
        for threads in [1, 2] {
            let stats = fold_chunks(
                &[][..],
                threads,
                |_, r| Ok(r),
                |_| -> Result<()> { panic!("an empty stream has no chunk to fold") },
            )
            .unwrap();
            assert_eq!(stats, ReadStats::default(), "threads={threads}");
        }
    }

    #[test]
    fn flipped_last_payload_byte_is_caught_by_checksum() {
        let mut bytes = serial_bytes(6, 6);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        for threads in [1, 2] {
            let err = fold_chunks(&bytes[..], threads, |_, r| Ok(r), |_| Ok(()))
                .unwrap_err()
                .to_string();
            assert!(err.contains("chunk 0"), "threads={threads}: {err}");
            assert!(
                err.contains("checksum mismatch"),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn fold_chunks_reports_the_corrupt_chunk_ordinal() {
        // Flip a byte in the middle of the stream: the error must name
        // the same chunk a serial scan blames, at every thread count.
        let mut bytes = serial_bytes(40, 5);
        let offset = bytes.len() * 5 / 8; // lands inside a middle chunk
        bytes[offset] ^= 0x20;
        let serial_err = fold_chunks(&bytes[..], 1, |_, r| Ok(r), |_| Ok(()))
            .unwrap_err()
            .to_string();
        for threads in [2, 8] {
            let err = fold_chunks(&bytes[..], threads, |_, r| Ok(r), |_| Ok(()))
                .unwrap_err()
                .to_string();
            assert_eq!(err, serial_err, "threads={threads}");
        }
    }

    #[test]
    fn fold_chunks_truncated_stream_errors_like_the_serial_reader() {
        let mut bytes = serial_bytes(20, 4);
        bytes.truncate(bytes.len() - 3);
        for threads in [1, 4] {
            let mut folded = 0usize;
            let err = fold_chunks(
                &bytes[..],
                threads,
                |_, r| Ok(r.len()),
                |n| {
                    folded += n;
                    Ok(())
                },
            )
            .unwrap_err()
            .to_string();
            assert!(err.contains("chunk 4"), "threads={threads}: {err}");
            assert!(err.contains("truncated"), "threads={threads}: {err}");
            assert_eq!(folded, 16, "complete chunks still fold before the error");
        }
    }

    #[test]
    fn fold_errors_stop_the_scan() {
        let bytes = serial_bytes(50, 5);
        let mut seen = 0u64;
        let err = fold_chunks(
            &bytes[..],
            4,
            |seq, _| Ok(seq),
            |seq| {
                seen += 1;
                if seq >= 3 {
                    Err(StoreError::Corrupt("fold says stop".into()))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("fold says stop"), "{err}");
        assert_eq!(seen, 4, "folds run in order up to the failure");
    }
}
