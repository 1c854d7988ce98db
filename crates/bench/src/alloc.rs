//! A counting global allocator for alloc-pressure measurements.
//!
//! The zero-copy datapath claims a steady-state heap-allocation rate of
//! zero per packet: payloads are `bytes::Bytes` views, batch buffers are
//! caller-owned and reused, and the scratch vectors inside
//! `StripedPath::send_batch` amortize to their high-water mark. That claim
//! is only credible if it is *measured*, so the `alloc_counting`,
//! `alloc_counting_net` and `flow_churn` tests install [`CountingAlloc`]
//! as the global allocator and assert on allocation deltas around the hot
//! loop.
//!
//! The counter is a relaxed atomic: cheap enough to leave enabled, precise
//! enough for delta measurements in single-threaded tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation.
///
/// Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: stripe_bench::alloc::CountingAlloc = stripe_bench::alloc::CountingAlloc;
/// ```
///
/// `realloc` counts as one allocation (it may move), `dealloc` counts
/// nothing: the interesting figure for a steady-state claim is how often
/// the hot path *asks* the allocator for memory.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total allocations (alloc + realloc) since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested since process start.
    pub fn allocated_bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
