//! Decoding untrusted messages must not retain memory.
//!
//! The loopback servers decode every datagram and request body they are
//! sent, and the paper's method puts a fresh random subdomain on every
//! query. So a decoder that kept each new label for the life of the
//! process would grow by one label per query. This binary counts live
//! heap bytes with its own global allocator and checks that decoding
//! thousands of never-seen names and dropping the results gives every
//! byte back. It holds a single test, so no other test allocates
//! concurrently.

use dohperf_dns::prelude::{DnsName, Message, RecordType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: defers entirely to `System`; the accounting side effect touches
// only an atomic, and only after `System` has answered.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Queries decoded after the warm-up, each naming a label not seen before.
const QUERIES: u32 = 10_000;
/// Live bytes the run may leave behind: far below one byte per query.
const SLACK_BYTES: isize = 1024;

/// Encode a query for a fresh UUID-like subdomain, decode it the way a
/// server would, and drop both.
fn decode_fresh(k: u32) {
    let name = DnsName::parse(&format!(
        "q{k:08x}-{:08x}.dohperf.example",
        k.wrapping_mul(0x9e37_79b9)
    ))
    .expect("a valid name");
    let wire = Message::query(k as u16, name, RecordType::A)
        .encode()
        .expect("a one-question query encodes");
    let decoded = Message::decode(&wire).expect("own encoding decodes");
    assert_eq!(decoded.questions.len(), 1);
}

#[test]
fn decoding_fresh_names_returns_every_byte() {
    // Warm up whatever the first decodes set up once (formatting,
    // thread-locals), then take the baseline.
    for k in 0..100 {
        decode_fresh(u32::MAX - k);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for k in 0..QUERIES {
        decode_fresh(k);
    }
    let retained = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        retained <= SLACK_BYTES,
        "{retained} bytes still live after decoding and dropping {QUERIES} fresh names"
    );
}
