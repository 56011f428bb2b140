//! Heap-allocation regression test for the query engine.
//!
//! Between planning a membership check and caching its verdict the engine
//! should allocate nothing per check: a distinct query costs one
//! exactly-sized key allocation, which moves into the cache, plus the
//! amortized growth of the engine's vectors and maps. This test counts the
//! heap blocks a cold `add_seeds` allocates on one Section 8.2 language
//! (the oracle's own allocations included) and bounds them per distinct
//! query, so a per-check allocation sneaking back into the planners, the
//! runner or the cache shows up as a failure here.
//!
//! The counting allocator is global to this test binary, which therefore
//! holds this single test: a concurrently running test would add its own
//! allocations to the count.

use glade_core::GladeBuilder;
use glade_eval::sample_seeds;
use glade_targets::languages::url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap blocks allocated so far (a `realloc` counts as one block).
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bound on heap blocks per distinct query for a cold `add_seeds`. Measured
/// at 1.28 on the url language below; the bound leaves headroom for
/// incidental allocations elsewhere in synthesis, and one more allocation
/// per check would exceed it.
const MAX_BLOCKS_PER_QUERY: f64 = 2.0;

#[test]
fn cold_add_seeds_allocates_a_bounded_number_of_blocks_per_query() {
    let language = url();
    let mut rng = StdRng::seed_from_u64(17);
    let seeds = sample_seeds(&language, 4, &mut rng);
    let oracle = language.oracle();
    let mut session = GladeBuilder::new().worker_threads(1).session(&oracle);

    let before = BLOCKS.load(Ordering::Relaxed);
    let result = session.add_seeds(&seeds).expect("sampled seeds are members");
    let blocks = BLOCKS.load(Ordering::Relaxed) - before;

    let queries = result.stats.unique_queries;
    assert!(queries > 1000, "too few queries to measure: {queries}");
    let per_query = blocks as f64 / queries as f64;
    eprintln!("{blocks} heap blocks for {queries} distinct queries: {per_query:.2} per query");
    assert!(
        per_query <= MAX_BLOCKS_PER_QUERY,
        "{per_query:.2} heap blocks per distinct query exceeds {MAX_BLOCKS_PER_QUERY}"
    );
}
