//! Allocation accounting for the zero-allocation hot path.
//!
//! The campaign's per-query simulation path is supposed to be
//! allocation-free in steady state (DESIGN.md §12). This module provides
//! the instrumentation that proves it:
//!
//! * a `CountingAllocator` (behind the `alloc-count` cargo feature) that
//!   a binary installs as its `#[global_allocator]` to count every heap
//!   allocation in the process;
//! * *scope guards* that classify allocations. Code inside a
//!   [`hot_scope`] is the measured per-query path; a nested
//!   [`exempt_scope`] marks one-time copy-on-miss work (label-arena
//!   inserts, path-latency cache fills) that is by definition not steady
//!   state; [`set_warmup`] excludes a shard's first client, whose job is
//!   to populate those caches.
//! * [`publish`], which copies the totals into the metrics registry:
//!   per-run gauges `alloc.count` / `alloc.bytes` (machine-dependent,
//!   never baseline-gated) and the deterministic counter
//!   `alloc.steady_state_allocs`, which must be **zero** and is gated
//!   against every `ci/baseline-metrics*.json` by `repro gate`.
//!
//! The scope guards are always compiled — they are two thread-local
//! `Cell` bumps, cheap enough to leave in release builds — so the hot
//! path needs no `cfg` noise. Only the allocator itself is feature-gated.
//!
//! The allocator must never touch the registry (whose locks and maps
//! allocate); it writes plain atomics, and `publish` copies them out
//! after the run.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Total allocations observed since process start (or the last [`reset`]).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested by those allocations.
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations that happened inside a hot scope, outside any exempt
/// scope, after warmup — i.e. steady-state hot-path allocations.
static STEADY_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Depth of nested hot scopes on this thread.
    static HOT_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Depth of nested exempt scopes on this thread.
    static EXEMPT_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Whether this thread is running warmup work (first client of a
    /// shard): hot-scope allocations are then counted in the totals but
    /// not in the steady-state counter.
    static WARMUP: Cell<bool> = const { Cell::new(false) };
}

/// Marks the enclosed code as the measured per-query hot path.
#[must_use = "the scope ends when the guard drops"]
pub struct HotScope(());

/// Enter a hot scope. Allocations on this thread while the guard lives
/// (and no [`exempt_scope`] is active, and warmup is off) count as
/// steady-state hot-path allocations.
pub fn hot_scope() -> HotScope {
    HOT_DEPTH.with(|d| d.set(d.get() + 1));
    HotScope(())
}

impl Drop for HotScope {
    fn drop(&mut self) {
        HOT_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Marks the enclosed code as one-time cache-fill work inside a hot scope.
#[must_use = "the scope ends when the guard drops"]
pub struct ExemptScope(());

/// Enter an exempt scope (copy-on-miss arena inserts, latency-cache
/// fills). Nested inside a hot scope it suppresses steady-state counting.
pub fn exempt_scope() -> ExemptScope {
    EXEMPT_DEPTH.with(|d| d.set(d.get() + 1));
    ExemptScope(())
}

impl Drop for ExemptScope {
    fn drop(&mut self) {
        EXEMPT_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Toggle warmup mode for the current thread. The campaign turns this on
/// for the first client of each country shard, whose queries populate the
/// label arena and latency caches.
pub fn set_warmup(on: bool) {
    WARMUP.with(|w| w.set(on));
}

/// Record one allocation of `size` bytes. Called by the counting
/// allocator; safe to call from any thread, never allocates.
#[cfg(any(test, feature = "alloc-count"))]
#[inline]
fn note_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // `try_with` because TLS may be gone during thread teardown; those
    // allocations are by definition not on the hot path.
    let steady = HOT_DEPTH.try_with(|d| d.get() > 0).unwrap_or(false)
        && EXEMPT_DEPTH.try_with(|d| d.get() == 0).unwrap_or(true)
        && !WARMUP.try_with(Cell::get).unwrap_or(false);
    if steady {
        STEADY_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A copy of the allocation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Every allocation observed.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Steady-state hot-path allocations (must be zero).
    pub steady: u64,
}

/// Read the current totals.
pub fn totals() -> Totals {
    Totals {
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        steady: STEADY_ALLOCS.load(Ordering::Relaxed),
    }
}

/// Zero the totals (e.g. between the cold and warm runs of a
/// measurement pair).
pub fn reset() {
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
    STEADY_ALLOCS.store(0, Ordering::Relaxed);
}

/// Whether this build can actually count allocations (the `alloc-count`
/// feature compiles the `CountingAllocator`). Without it the totals
/// stay zero and [`publish`] still registers the metrics, so baselines
/// keep their shape.
pub const fn counting_compiled() -> bool {
    cfg!(feature = "alloc-count")
}

/// Copy the totals into the metrics registry. `alloc.count` and
/// `alloc.bytes` are per-run (they depend on what else the process did);
/// `alloc.steady_state_allocs` is deterministic — an exact function of
/// (seed, scale) — and is gated against the checked-in baseline.
pub fn publish() {
    let t = totals();
    let registry = crate::global();
    registry.per_run_gauge("alloc.count").set(t.allocs as i64);
    registry.per_run_gauge("alloc.bytes").set(t.bytes as i64);
    registry.counter("alloc.steady_state_allocs").add(t.steady);
}

/// A `#[global_allocator]` shim that counts every allocation through
/// `note_alloc` and otherwise defers to the system allocator.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: dohperf_telemetry::alloc::CountingAllocator =
///     dohperf_telemetry::alloc::CountingAllocator;
/// ```
#[cfg(feature = "alloc-count")]
pub struct CountingAllocator;

#[cfg(feature = "alloc-count")]
// SAFETY: defers entirely to `std::alloc::System`; the accounting side
// effect touches only atomics and const-initialized TLS cells.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The scope guards and classification logic are testable without the
    // feature: drive `note_alloc` by hand. One test, because the totals
    // are process-global and parallel tests would race on `reset`.
    #[test]
    fn classification_follows_scopes() {
        reset();
        note_alloc(8); // outside any scope: total only
        {
            let _hot = hot_scope();
            note_alloc(16); // hot + steady
            {
                let _cold = exempt_scope();
                note_alloc(32); // hot but exempt
            }
            set_warmup(true);
            note_alloc(64); // hot but warmup
            set_warmup(false);
        }
        note_alloc(128); // outside again
        let t = totals();
        assert_eq!(t.allocs, 5);
        assert_eq!(t.bytes, 8 + 16 + 32 + 64 + 128);
        assert_eq!(t.steady, 1);
        reset();
        assert_eq!(
            totals(),
            Totals {
                allocs: 0,
                bytes: 0,
                steady: 0
            }
        );

        // Nested guards must unwind the depth all the way back to zero.
        {
            let _a = hot_scope();
            let _b = hot_scope();
        }
        note_alloc(1);
        assert_eq!(totals().steady, 0, "hot depth must unwind to zero");
    }
}
