//! The streaming chunk writer.
//!
//! [`ChunkWriter`] buffers at most `chunk_budget` records before
//! encoding and flushing them as one chunk — the budget, not the
//! dataset size, bounds the writer's peak resident record count.
//!
//! Chunks are encoded inline on the pushing thread through a
//! persistent [`EncodeScratch`] and a reused staging buffer, so the
//! steady state allocates nothing per chunk (`tests/integration_alloc.rs`
//! checks this). This is the store's only write path: the campaign's
//! simulation workers already keep every core busy, so encoding on a
//! thread of its own gains nothing (DESIGN.md §17).

use crate::chunk::{encode_chunk_into, EncodeScratch};
use crate::record::StoreRecord;
use crate::{Result, DEFAULT_CHUNK_BUDGET};
use std::io::Write;

/// Totals accumulated by one writer, reported on [`ChunkWriter::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Records written across all chunks.
    pub records: u64,
    /// Chunks flushed.
    pub chunks: u64,
    /// Encoded bytes written (headers + payloads).
    pub bytes: u64,
}

impl WriterStats {
    /// Combine totals from several writers (e.g. per-shard spill files).
    pub fn merge(self, other: WriterStats) -> WriterStats {
        WriterStats {
            records: self.records + other.records,
            chunks: self.chunks + other.chunks,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Streams records into fixed-budget columnar chunks on any [`Write`].
pub struct ChunkWriter<W: Write> {
    sink: W,
    budget: usize,
    buffer: Vec<StoreRecord>,
    stats: WriterStats,
    /// Encode staging, retained across chunks.
    scratch: EncodeScratch,
    chunk_buf: Vec<u8>,
}

impl<W: Write> ChunkWriter<W> {
    /// Create a writer flushing every `chunk_budget` records (0 means
    /// [`DEFAULT_CHUNK_BUDGET`]).
    pub fn new(sink: W, chunk_budget: usize) -> Self {
        let budget = if chunk_budget == 0 {
            DEFAULT_CHUNK_BUDGET
        } else {
            chunk_budget
        };
        ChunkWriter {
            sink,
            budget,
            buffer: Vec::with_capacity(budget),
            stats: WriterStats::default(),
            scratch: EncodeScratch::new(),
            chunk_buf: Vec::new(),
        }
    }

    /// The writer's chunk budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Records currently buffered (always `< budget` after `push` returns).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Append one record, flushing a chunk when the budget fills.
    pub fn push(&mut self, record: StoreRecord) -> Result<()> {
        self.buffer.push(record);
        if self.buffer.len() >= self.budget {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flush the buffered records as a (possibly short) chunk now; a
    /// no-op when nothing is buffered. Campaign shards call this at
    /// client-offset boundaries so chunk breaks land at positions that
    /// are a pure function of the offset — never of how many records an
    /// earlier shard retained — making store bytes invariant under any
    /// shard split (DESIGN.md §14).
    pub fn flush_boundary(&mut self) -> Result<()> {
        if !self.buffer.is_empty() {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flush any buffered records and return the totals. Consumes the
    /// writer; the underlying sink is flushed but not closed.
    pub fn finish(mut self) -> Result<WriterStats> {
        if !self.buffer.is_empty() {
            self.flush_chunk()?;
        }
        self.sink.flush()?;
        Ok(self.stats)
    }

    fn flush_chunk(&mut self) -> Result<()> {
        self.stats.records += self.buffer.len() as u64;
        self.stats.chunks += 1;
        self.chunk_buf.clear();
        encode_chunk_into(&self.buffer, &mut self.scratch, &mut self.chunk_buf);
        self.sink.write_all(&self.chunk_buf)?;
        self.stats.bytes += self.chunk_buf.len() as u64;
        self.buffer.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::fold_chunks;

    #[test]
    fn budget_bounds_the_buffer_and_partial_tail_flushes() {
        let mut out = Vec::new();
        let mut w = ChunkWriter::new(&mut out, 4);
        for id in 1..=10u64 {
            w.push(StoreRecord::test_record(id)).unwrap();
            assert!(w.buffered() < 4, "buffer exceeded the chunk budget");
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 10);
        assert_eq!(stats.chunks, 3); // 4 + 4 + 2
        assert_eq!(stats.bytes, out.len() as u64);

        let mut back = Vec::new();
        fold_chunks(
            &out[..],
            1,
            |_, r| Ok(r),
            |r| {
                back.extend(r);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(back[9].client_id, 10);
    }

    #[test]
    fn written_chunk_crcs_match_the_bytewise_oracle() {
        // Every record shape, in chunks of several kilobytes: each
        // header's CRC must be the bytewise CRC of its payload.
        use crate::checksum::reference;
        use crate::chunk::{parse_header, CHUNK_HEADER_LEN};
        let mut out = Vec::new();
        let mut w = ChunkWriter::new(&mut out, 100);
        for id in 1..=400u64 {
            w.push(match id % 4 {
                0 => StoreRecord::test_record(id),
                1 => StoreRecord::test_record_with_transports(id),
                2 => StoreRecord::test_record_with_pages(id),
                _ => StoreRecord::test_record_with_windows(id),
            })
            .unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 4);

        let (mut rest, mut index) = (&out[..], 0);
        while !rest.is_empty() {
            let header: &[u8; CHUNK_HEADER_LEN] = rest[..CHUNK_HEADER_LEN].try_into().unwrap();
            let (_, len, crc, _) = parse_header(header, index).unwrap();
            let payload = &rest[CHUNK_HEADER_LEN..CHUNK_HEADER_LEN + len];
            assert!(len > 4096, "chunk {index} holds only {len} payload bytes");
            assert_eq!(crc, reference::crc32(payload), "chunk {index}");
            rest = &rest[CHUNK_HEADER_LEN + len..];
            index += 1;
        }
        assert_eq!(index, stats.chunks);
    }

    #[test]
    fn zero_budget_falls_back_to_default() {
        let w = ChunkWriter::new(Vec::new(), 0);
        assert_eq!(w.budget(), crate::DEFAULT_CHUNK_BUDGET);
    }

    #[test]
    fn empty_writer_writes_nothing() {
        let mut out = Vec::new();
        let stats = ChunkWriter::new(&mut out, 8).finish().unwrap();
        assert_eq!(stats, WriterStats::default());
        assert!(out.is_empty());
    }

    #[test]
    fn stats_merge_sums() {
        let a = WriterStats {
            records: 3,
            chunks: 1,
            bytes: 100,
        };
        let b = WriterStats {
            records: 5,
            chunks: 2,
            bytes: 250,
        };
        assert_eq!(
            a.merge(b),
            WriterStats {
                records: 8,
                chunks: 3,
                bytes: 350
            }
        );
    }
}
