//! The zero-allocation hot-path contract (DESIGN.md §12), end to end.
//!
//! Runs a small campaign twice in one process — the cold run populates
//! the label arena and latency caches, the warm run is steady state —
//! and checks three things:
//!
//! 1. the warm run performs **zero** steady-state hot-path allocations
//!    (allocations inside a `hot_scope`, outside `exempt_scope`s, after
//!    per-shard warmup);
//! 2. warm and cold runs produce byte-identical datasets (the pools and
//!    arenas are invisible to outputs);
//! 3. the dataset stays byte-identical across 1/2/8 worker threads even
//!    under the counting allocator (thread-local pools don't leak state
//!    across shard assignments).
//!
//! Built with `--features alloc-count` (as the CI alloc job does)
//! the counting allocator is installed and check 1 has teeth. Without
//! the feature the totals stay zero and the test still exercises the
//! determinism checks.
//!
//! Everything lives in ONE `#[test]`: the allocation totals are
//! process-global, and the default multi-threaded test runner would let
//! a concurrent test's allocations bleed into the measured run.

use dohperf::core::campaign::{Campaign, CampaignConfig};
use dohperf::core::export::to_jsonl;
use dohperf::telemetry::alloc;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

fn config(threads: usize) -> CampaignConfig {
    // `pages_per_client: 2` folds the page-load workload into every run
    // here, so the warm pair gates the DAG scheduler, the bounded page
    // cache and the multiplexed-connection path too: the steady count
    // stays at 0 with pageload in the warm pair.
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
}
