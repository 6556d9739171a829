//! The zero-allocation hot-path contract (DESIGN.md §12), end to end.
//!
//! Runs a small campaign twice in one process — the cold run populates
//! the label arena and latency caches, the warm run is steady state —
//! and checks five things:
//!
//! 1. the warm run performs **zero** steady-state hot-path allocations
//!    (allocations inside a `hot_scope`, outside `exempt_scope`s, after
//!    per-shard warmup);
//! 2. warm and cold runs produce byte-identical datasets (the pools and
//!    arenas are invisible to outputs);
//! 3. the dataset stays byte-identical across 1/2/8 worker threads even
//!    under the counting allocator (thread-local pools don't leak state
//!    across shard assignments);
//! 4. re-deriving the headline from a store of that dataset (a warm
//!    `headline_from_store_threads(dir, 1)`, DESIGN.md §17 "Read path")
//!    allocates per chunk, never per record: at chunk budgets 64 and
//!    512 it stays within a fixed allowance plus a few allocations per
//!    chunk on top of what folding the same records into the exact
//!    headline accumulator costs;
//! 5. writing prebuilt store records through `ChunkWriter::new` into a
//!    pre-reserved `Vec` (the store's one write path, DESIGN.md §17
//!    "Write path") allocates nothing per chunk: at chunk budgets 64
//!    and 512 it stays within one fixed allowance, however many chunks
//!    it writes;
//! 6. `Manifest::decode` reserves at most [`MANIFEST_BYTES_PER_BYTE`]
//!    bytes per input byte, plus one error message, on a valid
//!    manifest and on copies whose declared country, Atlas-entry and
//!    sample counts are raised to the largest value the decoder's caps
//!    admit (CRC recomputed), so no declared count sizes a reservation
//!    the bytes behind it cannot pay for.
//!
//! Built with `--features alloc-count` (as the CI alloc job does)
//! the counting allocator is installed and checks 1, 4, 5 and 6 have teeth. Without
//! the feature the totals stay zero and the test still exercises the
//! determinism checks.
//!
//! Everything lives in ONE `#[test]`: the allocation totals are
//! process-global, and the default multi-threaded test runner would let
//! a concurrent test's allocations bleed into the measured run.

use dohperf::analysis::{headline_from_store_threads, StreamingHeadline};
use dohperf::core::campaign::{Campaign, CampaignConfig};
use dohperf::core::export::to_jsonl;
use dohperf::core::records::Dataset;
use dohperf::core::store_io::{read_manifest, record_to_store, write_dataset};
use dohperf::store::checksum::crc32;
use dohperf::store::varint::put_u64;
use dohperf::store::{ChunkWriter, Manifest, StoreRecord, FORMAT_VERSION, MANIFEST_MAGIC};
use dohperf::telemetry::alloc;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

fn config(threads: usize) -> CampaignConfig {
    // `pages_per_client: 2` folds the page-load workload into every run
    // here, so the warm pair also gates the page path inside its hot
    // scopes: the stub-cache probe and each resolution's bill on the
    // multiplexed connection, the miss path's insert into the page's
    // fixed id-indexed cache, and the typed event loop's schedule,
    // cancel and pop (DESIGN.md §15).
    CampaignConfig {
        threads,
        pages_per_client: 2,
        ..CampaignConfig::quick(2021)
    }
}

#[test]
fn warm_campaign_is_allocation_free_and_thread_invariant() {
    // Cold run: fills the process-wide label arena, the path-latency
    // cache and the metric-handle cells. Its steady count is not gated.
    let cold = Campaign::new(config(1)).run();

    // Warm run: the measured one.
    alloc::reset();
    let warm = Campaign::new(config(1)).run();
    let totals = alloc::totals();

    if alloc::counting_compiled() {
        assert!(totals.allocs > 0, "counting allocator not installed?");
    }
    assert_eq!(
        totals.steady, 0,
        "steady-state hot-path allocations in a warm campaign \
         (total {} allocs / {} bytes)",
        totals.allocs, totals.bytes
    );

    // The warm run must not be *changed* by warmth: pools and arenas are
    // performance machinery, never visible in outputs.
    let jsonl = to_jsonl(&cold);
    assert_eq!(jsonl, to_jsonl(&warm), "cold and warm datasets diverged");

    // Thread-count invariance holds under the counting allocator too.
    for threads in [2, 8] {
        let parallel = Campaign::new(config(threads)).run();
        assert_eq!(
            jsonl,
            to_jsonl(&parallel),
            "dataset diverged at {threads} threads"
        );
    }

    store_scan_allocations_are_per_chunk(&cold);
    store_write_allocations_are_fixed(&cold);
    manifest_decode_allocations_are_bounded(&cold);
}

/// Allocations a warm store scan may make on top of the accumulator's
/// own: opening the file, decoding the manifest, and growing the
/// column scratch and read buffers to the largest chunk.
const SCAN_ALLOCS: u64 = 512;

/// Allocations per chunk: the projection a decode worker hands to the
/// fold, and nothing that grows with the records in the chunk.
const CHUNK_ALLOCS: u64 = 8;

/// A warm `headline_from_store_threads(dir, 1)` over stores of `ds` at
/// chunk budgets 64 and 512 allocates at most [`SCAN_ALLOCS`] plus
/// [`CHUNK_ALLOCS`] per chunk beyond what folding the same records into
/// a `StreamingHeadline` costs, so nothing is allocated per record.
fn store_scan_allocations_are_per_chunk(ds: &Dataset) {
    for budget in [64, 512] {
        let dir = std::env::temp_dir().join(format!(
            "dohperf-alloc-store-{budget}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        write_dataset(ds, &dir, budget).expect("write store");
        let chunks = read_manifest(&dir).expect("manifest").total_chunks;
        let headline = headline_from_store_threads(&dir, 1).expect("cold scan");

        // The accumulator's own allocations: the same samples, from
        // records already in memory.
        alloc::reset();
        let mut acc = StreamingHeadline::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let folded = acc.finish(&ds.atlas_do53_ms);
        let fold_allocs = alloc::totals().allocs;

        alloc::reset();
        let warm = headline_from_store_threads(&dir, 1).expect("warm scan");
        let scan_allocs = alloc::totals().allocs;
        assert_eq!(format!("{warm:?}"), format!("{headline:?}"));
        assert_eq!(format!("{warm:?}"), format!("{folded:?}"));
        let _ = std::fs::remove_dir_all(&dir);

        let bound = fold_allocs + SCAN_ALLOCS + CHUNK_ALLOCS * chunks;
        eprintln!(
            "store scan at chunk budget {budget}: {} records in {chunks} chunks, \
             {scan_allocs} allocations (fold alone {fold_allocs}, bound {bound})",
            ds.records.len()
        );
        assert!(
            scan_allocs <= bound,
            "a warm store scan at chunk budget {budget} made {scan_allocs} allocations \
             over {chunks} chunks and {} records; the record fold alone makes {fold_allocs}",
            ds.records.len()
        );
    }
}

/// Allocations one writer may make in total: its record buffer, and
/// growing its encode scratch and staging buffer to the largest chunk.
const WRITE_ALLOCS: u64 = 64;

/// Times the dataset's records are pushed through each writer, so the
/// chunk count at budget 64 is over twice [`WRITE_ALLOCS`] and one
/// allocation per chunk could not hide inside it.
const WRITE_PASSES: usize = 4;

/// Writing `ds`'s records, prebuilt as `StoreRecord`s, through a fresh
/// `ChunkWriter::new` into a `Vec` reserved to the final size makes at
/// most [`WRITE_ALLOCS`] allocations at chunk budgets 64 and 512.
fn store_write_allocations_are_fixed(ds: &Dataset) {
    let once: Vec<StoreRecord> = ds.records.iter().map(record_to_store).collect();
    let records: Vec<StoreRecord> = (0..WRITE_PASSES).flat_map(|_| once.clone()).collect();
    assert!(
        records.len() / 64 > 2 * WRITE_ALLOCS as usize,
        "too few records ({}) to tell a per-chunk allocation from the fixed allowance",
        records.len()
    );
    for budget in [64, 512] {
        let mut reference = Vec::new();
        let mut w = ChunkWriter::new(&mut reference, budget);
        for r in &records {
            w.push(r.clone()).expect("Vec sink cannot fail");
        }
        let expected = w.finish().expect("finish reference");
        let input = records.clone();

        let mut out = Vec::with_capacity(reference.len());
        alloc::reset();
        let mut w = ChunkWriter::new(&mut out, budget);
        for r in input {
            w.push(r).expect("Vec sink cannot fail");
        }
        let stats = w.finish().expect("finish measured");
        let write_allocs = alloc::totals().allocs;
        assert_eq!(stats, expected);
        assert!(
            out == reference,
            "store bytes diverged at chunk budget {budget}"
        );

        eprintln!(
            "store write at chunk budget {budget}: {} records in {} chunks, \
             {write_allocs} allocations (bound {WRITE_ALLOCS})",
            stats.records, stats.chunks
        );
        assert!(
            write_allocs <= WRITE_ALLOCS,
            "writing {} chunks at chunk budget {budget} made {write_allocs} allocations; \
             the fixed allowance is {WRITE_ALLOCS}",
            stats.chunks
        );
    }
}

/// Bytes `Manifest::decode` may reserve per input byte. It caps every
/// declared count by the payload bytes left before it reserves, so the
/// layout bounds each table:
/// - countries: 2 bytes each, at most one per 2 bytes left, so at most
///   1 byte per input byte;
/// - Atlas entries: one `(u32, Vec<f64>)` each (32 bytes on 64-bit), at
///   most one per country and one per 2 bytes left after the country
///   table; with `C` countries (2C bytes) and `R` bytes after them that
///   is at most (2C + R) / 4 entries, so 32 / 4 = 8 bytes per input byte;
/// - samples: 8 bytes each, at most one per 8 bytes left. An entry that
///   decodes has consumed the bytes its reserve was sized by, and the
///   entry that fails reserves at most what is left, so all entries
///   together reserve at most 1 byte per input byte.
///
/// That is 1 + 8 + 1 = 10 on a 64-bit target.
const MANIFEST_BYTES_PER_BYTE: u64 = 1 + std::mem::size_of::<(u32, Vec<f64>)>() as u64 / 4 + 1;

/// Bytes of the one error message a rejected manifest formats, each
/// reallocation of the growing string counted at its new size.
const MANIFEST_ERROR_BYTES: u64 = 1024;

/// The declared counts of a manifest payload, in encode order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Count {
    Countries,
    AtlasEntries,
    /// The first Atlas entry's sample count.
    Samples,
}

impl Count {
    /// The name `Manifest::decode` gives the count when it exceeds its cap.
    fn what(self) -> &'static str {
        match self {
            Count::Countries => "country table",
            Count::AtlasEntries => "atlas table",
            Count::Samples => "atlas samples",
        }
    }
}

/// `m` framed as `Manifest::encode` frames it, with `count` declared
/// as `value` and every other byte as encoded.
fn manifest_declaring(m: &Manifest, count: Count, value: u64) -> Vec<u8> {
    let declared = |c: Count, real: usize| if c == count { value } else { real as u64 };
    let mut payload = Vec::new();
    put_u64(&mut payload, declared(Count::Countries, m.countries.len()));
    for iso in &m.countries {
        payload.extend_from_slice(iso);
    }
    put_u64(
        &mut payload,
        declared(Count::AtlasEntries, m.atlas_do53_ms.len()),
    );
    for (i, (country_index, samples)) in m.atlas_do53_ms.iter().enumerate() {
        put_u64(&mut payload, u64::from(*country_index));
        let n = samples.len();
        put_u64(
            &mut payload,
            if i == 0 {
                declared(Count::Samples, n)
            } else {
                n as u64
            },
        );
        for s in samples {
            payload.extend_from_slice(&s.to_bits().to_le_bytes());
        }
    }
    for total in [
        m.discarded_mismatches,
        m.observed_ases,
        m.observed_resolvers,
        m.total_records,
        m.total_chunks,
        m.total_bytes,
    ] {
        put_u64(&mut payload, total);
    }
    let mut out = MANIFEST_MAGIC.to_le_bytes().to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Whether `bytes` gets past the cap on `count` (it may still be
/// rejected later).
fn within_cap(bytes: &[u8], count: Count) -> bool {
    match Manifest::decode(bytes) {
        Ok(_) => true,
        Err(e) => !e.to_string().contains(&format!("{} length", count.what())),
    }
}

/// `Manifest::decode` of the manifest of a store of `ds`, and of copies
/// with each declared count raised to the largest value within its cap,
/// allocates at most [`MANIFEST_BYTES_PER_BYTE`] bytes per input byte
/// plus [`MANIFEST_ERROR_BYTES`].
fn manifest_decode_allocations_are_bounded(ds: &Dataset) {
    let dir = std::env::temp_dir().join(format!("dohperf-alloc-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(ds, &dir, 512).expect("write store");
    let manifest = read_manifest(&dir).expect("manifest");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !manifest.atlas_do53_ms.is_empty(),
        "the manifest needs an Atlas entry to raise its sample count"
    );

    let mut cases = vec![("valid".to_string(), manifest.encode())];
    for count in [Count::Countries, Count::AtlasEntries, Count::Samples] {
        // `within_cap` holds up to the cap and fails above it; the cap
        // is below the input length.
        let (mut lo, mut hi) = (0u64, manifest.encode().len() as u64);
        assert!(within_cap(&manifest_declaring(&manifest, count, lo), count));
        assert!(!within_cap(
            &manifest_declaring(&manifest, count, hi),
            count
        ));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if within_cap(&manifest_declaring(&manifest, count, mid), count) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        cases.push((
            format!("{count:?} raised to {lo}"),
            manifest_declaring(&manifest, count, lo),
        ));
    }

    for (case, bytes) in cases {
        alloc::reset();
        let outcome = Manifest::decode(&bytes);
        let allocated = alloc::totals().bytes;
        let bound = MANIFEST_BYTES_PER_BYTE * bytes.len() as u64 + MANIFEST_ERROR_BYTES;
        eprintln!(
            "manifest decode, {case}: {} input bytes, {allocated} bytes allocated \
             (bound {bound}), {}",
            bytes.len(),
            match &outcome {
                Ok(_) => "decoded".to_string(),
                Err(e) => format!("rejected: {e}"),
            }
        );
        if case == "valid" {
            assert_eq!(outcome.expect("valid manifest"), manifest);
        }
        assert!(
            allocated <= bound,
            "decoding the {case} manifest ({} bytes) allocated {allocated} bytes; \
             the bound is {MANIFEST_BYTES_PER_BYTE} per input byte plus {MANIFEST_ERROR_BYTES}",
            bytes.len()
        );
    }
}
