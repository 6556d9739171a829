//! Peak live heap bytes, counted by a thin wrapper around the system
//! allocator. Unlike the resident set, which moves with allocator arena
//! reuse and thread timing, the live-byte count depends only on what the
//! program allocates and frees, so it repeats from run to run.
//!
//! Counting is off until [`start_counting`]: a process that times ops pays
//! one relaxed load per allocation, while the process that measures
//! memory pays the shared-counter updates, which slow allocation-heavy
//! workloads by up to a quarter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

// Relaxed throughout: these are statistics and publish no other data.
// `LIVE` is signed because blocks allocated before counting started may be
// freed after; that error is bounded by the few bytes live at the start.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes and their peak once
/// [`start_counting`] has run.
pub struct PeakHeap;

fn grow(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        // Read first: most allocations set no new peak, and a plain load
        // keeps the shared cache line from bouncing between threads.
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly, and returns what `System` returned.
// The bookkeeping around the calls only touches atomics: it never
// allocates, and it cannot panic.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator, so
        // from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for
        // `ptr`, `layout` and `new_size`, which is `System::realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Count live heap bytes from now on.
pub fn start_counting() {
    COUNTING.store(true, Relaxed);
}

/// The most heap bytes live at once since [`start_counting`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_covers_a_freed_allocation() {
        super::start_counting();
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        assert!(super::peak_mb() >= 67.0, "{}", super::peak_mb());
    }
}
