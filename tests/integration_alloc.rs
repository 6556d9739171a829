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
//!    it writes.
//!
//! Built with `--features alloc-count` (as the CI alloc job does)
//! the counting allocator is installed and checks 1, 4 and 5 have teeth. Without
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
use dohperf::store::{ChunkWriter, StoreRecord};
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
