//! A counting `#[global_allocator]`. Only the traced binary (and this crate's
//! unit tests) install it; the plain binary keeps the default allocator, so
//! end-to-end numbers are never taken through it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed everywhere: these are statistics that publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Forwards to the system allocator, counting `alloc`/`realloc` calls while
/// counting is switched on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off (off: one relaxed load per allocation).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) counted so far.
/// Stays 0 in a binary that does not install [`CountingAlloc`].
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_pattern() {
        // Other tests allocate on their own threads while this one counts, so
        // the pattern is large enough to dwarf them and the check is a floor
        // plus the off-switch.
        set_counting(true);
        let before = allocs();
        let boxes: Vec<Box<u64>> = (0..10_000u64).map(Box::new).collect();
        let counted = allocs() - before;
        set_counting(false);
        assert!(counted >= 10_001, "10 000 boxes + their Vec, got {counted}");
        let off = allocs();
        // `set_counting(false)` may race with another test thread's in-flight
        // allocation, never with 10 000 of them.
        let more: Vec<Box<u64>> = (0..10_000u64).map(Box::new).collect();
        assert!(allocs() - off < 1_000, "counting is off");
        assert_eq!(boxes.len() + more.len(), 20_000);
    }
}
