//! The memory ledger against the allocator. `F2cCity::heap_bytes` prices
//! each tier from lengths and capacities; this binary installs a
//! byte-counting `#[global_allocator]` and holds that price to the heap
//! a populated city really keeps live: the benchmark's `city-write`
//! city (scale 50, four simulated hours, a flush every 900 s) must
//! price within 1 % of the bytes its populate left allocated.
//!
//! The nodes price exactly; the gap, about 287 kB of 77.3 MB, is what
//! the ledger does not price. Most of it is the flush codec's column
//! scratch on the thread that ran the populate: `tsenc` keeps one set of
//! encode and decode columns per thread, sized to the largest batch that
//! thread has handled, as working memory no stream holds at rest. The
//! rest, about 12 kB, is the tracer's span logs (9.8 kB), the network's
//! traffic meters (2.2 kB) and the diagnosis reservoirs.
//! `-- --nocapture` prints both sides and each tier.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::F2cCity;

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct ByteCounter;

fn add(bytes: usize) {
    LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
}

fn sub(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic integer
// and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        sub(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            sub(layout.size());
            add(new_size);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// The ledger's three tiers, summed.
fn priced(city: &F2cCity) -> i64 {
    let (fog1, fog2, cloud) = city.heap_bytes();
    (fog1 + fog2 + cloud) as i64
}

#[test]
fn the_ledger_prices_a_populated_city_within_1_percent_of_its_live_heap() {
    let mut city = F2cCity::barcelona().expect("the paper's city builds");
    let (live_before, priced_before) = (live(), priced(&city));
    let outcome = populate_city(&mut city, 50, 2017, 4 * 3_600, 900).expect("populates");
    let grown = live() - live_before;
    let ledger = priced(&city) - priced_before;
    let (fog1, fog2, cloud) = city.heap_bytes();
    println!(
        "stored {} records: live heap grew {grown} B, the ledger priced {ledger} B \
         (fog 1 {fog1}, fog 2 {fog2}, cloud {cloud}); unpriced {} B",
        outcome.stored,
        grown - ledger
    );
    assert!(
        outcome.stored > 300_000,
        "the city-write city stores ~333 k records"
    );
    let gap = (grown - ledger).abs() as f64 / grown as f64;
    assert!(
        gap <= 0.01,
        "ledger {ledger} B vs live {grown} B: {:.1} % apart",
        100.0 * gap
    );
}
