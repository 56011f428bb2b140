//! A global allocator that counts heap blocks, for allocation-regression
//! tests. It counts for the whole test binary it is linked into, so each
//! binary that uses it holds a single test: a concurrently running test
//! would add its own allocations to the count.

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

/// Runs `f` and returns its result with the heap blocks it allocated.
pub fn blocks_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = f();
    (out, BLOCKS.load(Ordering::Relaxed) - before)
}
