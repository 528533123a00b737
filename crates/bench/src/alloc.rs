//! Heap-allocation counting for the benchmark harness.
//!
//! [`CountingAllocator`] wraps the system allocator and counts every
//! `alloc`/`realloc` call (frees are not counted: the metric of interest
//! is how often the hot path *requests* memory). It is installed as the
//! global allocator **only** when the crate is built with the
//! `count-allocs` feature — the counters are a pair of relaxed atomics,
//! so the overhead is small but not zero, and ordinary builds should not
//! pay it.
//!
//! The `measured.allocs_per_round` column of every bench record is
//! computed from [`snapshot`] deltas around the pipeline run; without the
//! feature the counters stay at zero and the column records `-1.0`
//! (sentinel for "not measured"), which the CI gate rejects wherever a
//! bound reads it — the `scale` suite must run from a counting build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// With `count-allocs`, every binary linking this crate (the harness,
/// the tests, the Criterion benches) runs under the counting allocator.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// A [`System`]-backed allocator that counts allocation requests.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Whether an allocation-counting global allocator is installed (i.e. the
/// harness was built with `count-allocs`).
#[must_use]
pub fn counting_enabled() -> bool {
    cfg!(feature = "count-allocs")
}

/// Current `(allocation calls, bytes requested)` totals. Zero forever
/// unless the counting allocator is installed.
#[must_use]
pub fn snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotone() {
        let (a, b) = snapshot();
        let _v: Vec<u64> = (0..64).collect();
        let (a2, b2) = snapshot();
        assert!(a2 >= a && b2 >= b);
        if counting_enabled() {
            assert!(a2 > a, "a fresh Vec must be counted under count-allocs");
        }
    }
}
