//! The sequential chunk reader.
//!
//! [`ChunkReader`] iterates records straight off any [`Read`] without
//! ever materialising more than one decoded chunk — the reading-side
//! memory bound matching the writer's chunk budget.

use crate::chunk::{
    decode_chunk_columns, parse_header, verify_checksum, ChunkColumns, CHUNK_HEADER_LEN,
};
use crate::record::StoreRecord;
use crate::{Result, StoreError};
use std::collections::VecDeque;
use std::io::Read;

/// Streams [`StoreRecord`]s from a chunk sequence.
///
/// The iterator yields `Result<StoreRecord>`; the first corrupt or
/// truncated chunk surfaces as an `Err` and ends the stream.
pub struct ChunkReader<R: Read> {
    source: R,
    pending: VecDeque<StoreRecord>,
    /// Payload scratch, reused across refills so a long scan performs
    /// one payload allocation total, not one per chunk.
    payload: Vec<u8>,
    /// Column scratch the payload decodes into, reused the same way.
    columns: ChunkColumns,
    /// Ordinal of the next chunk, for error context.
    next_chunk: u64,
    /// Set after an error or clean EOF; the iterator is fused.
    done: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Wrap a byte source positioned at the first chunk.
    pub fn new(source: R) -> Self {
        ChunkReader {
            source,
            pending: VecDeque::new(),
            payload: Vec::new(),
            columns: ChunkColumns::new(),
            next_chunk: 0,
            done: false,
        }
    }

    /// Number of chunks fully decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.next_chunk
    }

    /// Read, verify and decode the next chunk into `pending`.
    /// Returns false on clean EOF.
    fn refill(&mut self) -> Result<bool> {
        let mut header = [0u8; CHUNK_HEADER_LEN];
        match read_exact_or_eof(&mut self.source, &mut header) {
            Ok(false) => return Ok(false),
            Ok(true) => {}
            Err(e) => {
                return Err(StoreError::Corrupt(format!(
                    "chunk {}: truncated header ({e})",
                    self.next_chunk
                )))
            }
        }
        let (record_count, payload_len, crc, flags) = parse_header(&header, self.next_chunk)?;
        self.payload.clear();
        self.payload.resize(payload_len, 0);
        self.source.read_exact(&mut self.payload).map_err(|e| {
            StoreError::Corrupt(format!(
                "chunk {}: truncated payload, wanted {payload_len} bytes ({e})",
                self.next_chunk
            ))
        })?;
        verify_checksum(&self.payload, crc, self.next_chunk)?;
        decode_chunk_columns(
            record_count,
            flags,
            &self.payload,
            self.next_chunk,
            &mut self.columns,
        )?;
        self.pending.extend(self.columns.to_records());
        self.next_chunk += 1;
        Ok(true)
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = Result<StoreRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        while self.pending.is_empty() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.pending.pop_front().map(Ok)
    }
}

/// `read_exact`, but a clean EOF before the first byte returns Ok(false).
/// Shared with the parallel scanner in [`crate::pipeline`].
pub(crate) fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
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

    fn encoded(n: u64, budget: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkWriter::new(&mut out, budget);
        for id in 1..=n {
            w.push(StoreRecord::test_record(id)).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn reads_across_chunk_boundaries_in_order() {
        let bytes = encoded(23, 5);
        let mut reader = ChunkReader::new(&bytes[..]);
        let ids: Vec<u64> = reader.by_ref().map(|r| r.unwrap().client_id).collect();
        assert_eq!(ids, (1..=23).collect::<Vec<_>>());
        assert_eq!(reader.chunks_read(), 5);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut reader = ChunkReader::new(&[][..]);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none(), "iterator is fused");
    }

    #[test]
    fn truncated_stream_errors_once_then_fuses() {
        let mut bytes = encoded(8, 4);
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = ChunkReader::new(&bytes[..]).collect();
        // First chunk decodes; the second fails exactly once.
        assert_eq!(results.len(), 5);
        assert!(results[..4].iter().all(|r| r.is_ok()));
        let err = results[4].as_ref().unwrap_err().to_string();
        assert!(err.contains("chunk 1"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn flipped_payload_byte_is_caught_by_checksum() {
        let mut bytes = encoded(6, 6);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let results: Vec<_> = ChunkReader::new(&bytes[..]).collect();
        assert_eq!(results.len(), 1);
        let err = results[0].as_ref().unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }
}
