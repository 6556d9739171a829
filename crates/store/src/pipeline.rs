//! Pipelined store I/O: off-thread chunk encoding and parallel decode.
//!
//! ## Write path
//!
//! [`EncoderPool`] owns a bounded pool of background encoder threads.
//! A `ChunkWriter` opened with [`ChunkWriter::with_pool`] hands each
//! full record buffer to the pool as an [`EncodeJob`] and immediately
//! continues with a recycled buffer, so encoding and CRC work leave the
//! simulation worker's critical path. Three properties make the output
//! byte-identical to the serial writer:
//!
//! * **Ordering** — every job carries a per-writer sequence number, and
//!   the writer drains finished chunks from its [`ChunkChannel`] strictly
//!   in sequence order before handing bytes to the sink. The sink sees
//!   chunks in exactly the order `push` produced them.
//! * **Backpressure** — the job queue is a bounded `sync_channel`; when
//!   every encoder is busy and the queue is full, `submit` blocks. That
//!   bounded-queue backstop is the only point where the producing thread
//!   waits on encoding, and it caps resident memory at
//!   `queue_depth + workers` in-flight record buffers.
//! * **Recycling** — record buffers and encoded-chunk buffers circulate
//!   through free lists, so a steady-state pipelined writer allocates
//!   nothing per chunk (each encoder thread keeps its own
//!   [`EncodeScratch`]).
//!
//! Several writers (one per campaign shard) can share one pool; each
//! gets its own reassembly channel and sequence space.
//!
//! [`ChunkWriter::with_pool`]: crate::ChunkWriter::with_pool
//!
//! ## Read path
//!
//! [`scan_columns`] is the parallel counterpart of `ChunkReader`: the
//! calling thread scans headers and payloads sequentially (cheap —
//! two reads per chunk), fans the payloads out to decode workers that
//! verify the CRC over the whole payload, decode every column group
//! (the flag-gated ones included) into the worker's reusable
//! [`ChunkColumns`] and apply a caller-supplied `map` to them, and then
//! folds the mapped results **on the calling thread in canonical chunk
//! order**. The serial fold is what keeps derived analyses (GK
//! sketches, streaming moments) bit-identical to a serial scan at any
//! thread count: merge order never varies, only the decode work is
//! concurrent. Corrupt chunks surface with the same ordinal and message
//! a serial scan would report, and the earliest-ordinal error wins when
//! several chunks fail.
//!
//! [`fold_chunks`] is the record-level wrapper: its `map` gets the
//! chunk's records, assembled from the same columns. A column scan
//! validates exactly what a record scan does — only the record
//! assembly is left out — so callers that read a few fields (the
//! streaming analyses) scan columns and project.

use crate::chunk::{
    decode_chunk_columns, encode_chunk_into, parse_header, verify_checksum, ChunkColumns,
    EncodeScratch, CHUNK_HEADER_LEN,
};
use crate::reader::read_exact_or_eof;
use crate::record::StoreRecord;
use crate::{Result, StoreError};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a store writer distributes encode work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Background encoder threads. `0` disables the pipeline entirely:
    /// the writer encodes inline with a persistent scratch, exactly as
    /// the serial writer always has.
    pub workers: usize,
    /// Bound on queued (submitted, not yet picked up) encode jobs.
    /// `0` means `2 × workers` — deep enough to keep every encoder fed
    /// across a burst, shallow enough to cap resident record buffers.
    pub queue_depth: usize,
}

impl PipelineConfig {
    /// Inline encoding on the calling thread; no threads, no queue.
    pub fn serial() -> Self {
        PipelineConfig {
            workers: 0,
            queue_depth: 0,
        }
    }

    /// One encoder per core, capped at 4 — chunk encoding saturates the
    /// sink well before that on every store we produce. On a single-core
    /// host the pipeline can only add handoff cost, so `auto` falls back
    /// to inline encoding there.
    pub fn auto() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores <= 1 {
            return PipelineConfig::serial();
        }
        PipelineConfig {
            workers: cores.min(4),
            queue_depth: 0,
        }
    }

    /// The queue bound actually used (resolves the `0` default).
    pub fn effective_queue_depth(&self) -> usize {
        if self.queue_depth == 0 {
            2 * self.workers.max(1)
        } else {
            self.queue_depth
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::auto()
    }
}

/// Counters reported by [`EncoderPool::stats`] once a run finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Encoder threads the pool was built with (0 = serial).
    pub workers: usize,
    /// The bounded queue depth in effect.
    pub queue_depth: usize,
    /// Chunks encoded off-thread.
    pub chunks_encoded: u64,
    /// Wall-clock nanoseconds spent inside `encode_chunk_into` across
    /// all encoder threads (sums over threads, so it can exceed the
    /// run's elapsed time).
    pub encode_nanos: u64,
    /// Peak number of submitted-but-unwritten chunks across any single
    /// writer — how far ahead of the sink the producers ran.
    pub max_queue_depth: u64,
}

/// One batch of records on its way to an encoder thread.
struct EncodeJob {
    seq: u64,
    records: Vec<StoreRecord>,
    out: Arc<ChunkChannel>,
}

/// Free lists for the buffers that circulate through the pipeline.
#[derive(Default)]
struct Buffers {
    records: Mutex<Vec<Vec<StoreRecord>>>,
    chunks: Mutex<Vec<Vec<u8>>>,
}

impl Buffers {
    fn take_records(&self) -> Vec<StoreRecord> {
        self.records.lock().unwrap().pop().unwrap_or_default()
    }

    fn recycle_records(&self, mut buf: Vec<StoreRecord>) {
        buf.clear();
        self.records.lock().unwrap().push(buf);
    }

    fn take_chunk(&self) -> Vec<u8> {
        self.chunks.lock().unwrap().pop().unwrap_or_default()
    }

    fn recycle_chunk(&self, mut buf: Vec<u8>) {
        buf.clear();
        self.chunks.lock().unwrap().push(buf);
    }
}

/// Shared atomic counters behind [`PipelineStats`].
#[derive(Default)]
struct SharedStats {
    chunks: AtomicU64,
    nanos: AtomicU64,
    peak: AtomicU64,
}

/// Per-writer reassembly stage: encoded chunks land here keyed by
/// sequence number; the writer drains them in order.
struct ChunkChannel {
    ready: Mutex<BTreeMap<u64, Vec<u8>>>,
    cv: Condvar,
}

impl ChunkChannel {
    fn new() -> Self {
        ChunkChannel {
            ready: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
        }
    }

    fn put(&self, seq: u64, bytes: Vec<u8>) {
        self.ready.lock().unwrap().insert(seq, bytes);
        self.cv.notify_all();
    }

    fn try_take(&self, seq: u64) -> Option<Vec<u8>> {
        self.ready.lock().unwrap().remove(&seq)
    }

    fn wait_take(&self, seq: u64) -> Vec<u8> {
        let mut ready = self.ready.lock().unwrap();
        loop {
            if let Some(bytes) = ready.remove(&seq) {
                return bytes;
            }
            ready = self.cv.wait(ready).unwrap();
        }
    }
}

struct PoolShared {
    tx: Mutex<Option<SyncSender<EncodeJob>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    buffers: Arc<Buffers>,
    stats: Arc<SharedStats>,
    config: PipelineConfig,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // Close the channel first so the encoder threads drain and
        // exit, then join them. Any writer still holding a handle also
        // holds an Arc to this struct, so by the time this runs every
        // writer-side sender clone is gone.
        if let Ok(slot) = self.tx.get_mut() {
            slot.take();
        }
        if let Ok(handles) = self.handles.get_mut() {
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// A shared pool of background chunk-encoder threads.
///
/// Cheap to clone (an `Arc`); the threads shut down and are joined when
/// the last clone — including the handles embedded in pipelined
/// writers — is dropped.
#[derive(Clone)]
pub struct EncoderPool {
    shared: Arc<PoolShared>,
}

impl EncoderPool {
    /// Spawn the pool. `workers == 0` builds a threadless pool:
    /// writers opened on it fall back to inline serial encoding.
    pub fn new(config: PipelineConfig) -> Self {
        let buffers = Arc::new(Buffers::default());
        let stats = Arc::new(SharedStats::default());
        let (tx, handles) = if config.workers == 0 {
            (None, Vec::new())
        } else {
            let (tx, rx) = sync_channel::<EncodeJob>(config.effective_queue_depth());
            let rx = Arc::new(Mutex::new(rx));
            let handles = (0..config.workers)
                .map(|i| {
                    let rx = Arc::clone(&rx);
                    let buffers = Arc::clone(&buffers);
                    let stats = Arc::clone(&stats);
                    std::thread::Builder::new()
                        .name(format!("store-enc-{i}"))
                        .spawn(move || encoder_loop(&rx, &buffers, &stats))
                        .expect("spawn encoder thread")
                })
                .collect();
            (Some(tx), handles)
        };
        EncoderPool {
            shared: Arc::new(PoolShared {
                tx: Mutex::new(tx),
                handles: Mutex::new(handles),
                buffers,
                stats,
                config,
            }),
        }
    }

    /// Encoder threads in the pool (0 = serial fallback).
    pub fn workers(&self) -> usize {
        self.shared.config.workers
    }

    /// Snapshot the pool's counters.
    pub fn stats(&self) -> PipelineStats {
        let s = &self.shared.stats;
        PipelineStats {
            workers: self.shared.config.workers,
            queue_depth: if self.shared.config.workers == 0 {
                0
            } else {
                self.shared.config.effective_queue_depth()
            },
            chunks_encoded: s.chunks.load(Ordering::Relaxed),
            encode_nanos: s.nanos.load(Ordering::Relaxed),
            max_queue_depth: s.peak.load(Ordering::Relaxed),
        }
    }

    /// Open a per-writer handle: a sender clone plus a fresh reassembly
    /// channel and sequence space. Panics on a threadless pool — the
    /// writer checks [`EncoderPool::workers`] first.
    pub(crate) fn handle(&self) -> PipelineHandle {
        let tx = self
            .shared
            .tx
            .lock()
            .unwrap()
            .as_ref()
            .expect("EncoderPool::handle on a threadless pool")
            .clone();
        PipelineHandle {
            // Field order matters: `tx` must drop before `_shared` so
            // the pool's Drop (join) never waits on our own sender.
            tx,
            channel: Arc::new(ChunkChannel::new()),
            buffers: Arc::clone(&self.shared.buffers),
            stats: Arc::clone(&self.shared.stats),
            next_seq: 0,
            next_write: 0,
            _shared: Arc::clone(&self.shared),
        }
    }
}

/// One writer's connection to an [`EncoderPool`].
pub(crate) struct PipelineHandle {
    tx: SyncSender<EncodeJob>,
    channel: Arc<ChunkChannel>,
    buffers: Arc<Buffers>,
    stats: Arc<SharedStats>,
    /// Sequence number the next submitted buffer gets.
    next_seq: u64,
    /// Sequence number the sink needs next.
    next_write: u64,
    _shared: Arc<PoolShared>,
}

impl PipelineHandle {
    /// A recycled (or fresh) record buffer for the writer to fill.
    pub(crate) fn take_record_buffer(&self) -> Vec<StoreRecord> {
        self.buffers.take_records()
    }

    /// Queue `records` for encoding. Blocks only when the bounded job
    /// queue is full — the pipeline's backpressure point.
    pub(crate) fn submit(&mut self, records: Vec<StoreRecord>) {
        let job = EncodeJob {
            seq: self.next_seq,
            records,
            out: Arc::clone(&self.channel),
        };
        self.next_seq += 1;
        self.tx.send(job).expect("encoder pool is running");
        let outstanding = self.next_seq - self.next_write;
        self.stats.peak.fetch_max(outstanding, Ordering::Relaxed);
    }

    /// The next in-order encoded chunk, if it is already done.
    pub(crate) fn try_next(&mut self) -> Option<Vec<u8>> {
        let bytes = self.channel.try_take(self.next_write)?;
        self.next_write += 1;
        Some(bytes)
    }

    /// Block for the next in-order encoded chunk; `None` once every
    /// submitted chunk has been taken.
    pub(crate) fn wait_next(&mut self) -> Option<Vec<u8>> {
        if self.next_write == self.next_seq {
            return None;
        }
        let bytes = self.channel.wait_take(self.next_write);
        self.next_write += 1;
        Some(bytes)
    }

    /// Return a written-out chunk buffer to the free list.
    pub(crate) fn recycle_chunk(&self, buf: Vec<u8>) {
        self.buffers.recycle_chunk(buf);
    }
}

fn encoder_loop(rx: &Mutex<Receiver<EncodeJob>>, buffers: &Buffers, stats: &SharedStats) {
    let mut scratch = EncodeScratch::new();
    loop {
        // Hold the receiver lock only for the dequeue, not the encode.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // every sender dropped: pool shutting down
        };
        let mut out = buffers.take_chunk();
        let start = Instant::now();
        encode_chunk_into(&job.records, &mut scratch, &mut out);
        stats
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.chunks.fetch_add(1, Ordering::Relaxed);
        buffers.recycle_records(job.records);
        job.out.put(job.seq, out);
    }
}

// --------------------------------------------------------------- read path

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
/// identical to a serial `ChunkReader` scan.
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
    /// Returns `None` on clean EOF. Error messages match
    /// `ChunkReader`'s exactly.
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
    fn pipelined_writer_is_byte_identical_to_serial() {
        let reference = serial_bytes(100, 7);
        for workers in [1, 2, 4] {
            for queue_depth in [0, 1, 3] {
                let pool = EncoderPool::new(PipelineConfig {
                    workers,
                    queue_depth,
                });
                let mut out = Vec::new();
                let mut w = ChunkWriter::with_pool(&mut out, 7, &pool);
                for r in records(100) {
                    w.push(r).unwrap();
                }
                let stats = w.finish().unwrap();
                assert_eq!(stats.records, 100);
                assert_eq!(stats.chunks, 15); // 14×7 + 2
                assert_eq!(stats.bytes, out.len() as u64);
                assert_eq!(
                    out, reference,
                    "workers={workers} queue_depth={queue_depth}"
                );
                let pstats = pool.stats();
                assert_eq!(pstats.chunks_encoded, 15);
                assert!(pstats.max_queue_depth >= 1);
            }
        }
    }

    #[test]
    fn threadless_pool_falls_back_to_inline_encoding() {
        let pool = EncoderPool::new(PipelineConfig::serial());
        assert_eq!(pool.workers(), 0);
        let mut out = Vec::new();
        let mut w = ChunkWriter::with_pool(&mut out, 5, &pool);
        for r in records(23) {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(out, serial_bytes(23, 5));
        assert_eq!(pool.stats().chunks_encoded, 0, "nothing went off-thread");
    }

    #[test]
    fn two_writers_share_a_pool_without_interleaving() {
        let pool = EncoderPool::new(PipelineConfig {
            workers: 2,
            queue_depth: 2,
        });
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        let mut a = ChunkWriter::with_pool(&mut out_a, 3, &pool);
        let mut b = ChunkWriter::with_pool(&mut out_b, 4, &pool);
        for r in records(31) {
            a.push(r.clone()).unwrap();
            b.push(r).unwrap();
        }
        a.finish().unwrap();
        b.finish().unwrap();
        assert_eq!(out_a, serial_bytes(31, 3));
        assert_eq!(out_b, serial_bytes(31, 4));
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
            assert_eq!(ids, (1..=83).collect::<Vec<_>>(), "threads={threads}");
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
