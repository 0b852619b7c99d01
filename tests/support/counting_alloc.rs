//! A counting global allocator for tests that pin heap use.
//!
//! Include it with `#[path]` from a test binary; it installs itself as
//! that binary's `#[global_allocator]`:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! Every call forwards to [`System`]. Two things are counted:
//!
//! * live heap bytes and their high-water mark, process-wide, so a
//!   binary that measures peaks should hold a single test;
//! * allocations made by the calling thread (`alloc`, `alloc_zeroed`
//!   and `realloc`), so a count taken around a call on one thread is
//!   exact whatever other tests run at the same time.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator plus the counters above.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocator calls made by this thread. Const-initialised without a
    /// destructor, so touching it never allocates.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

fn count_call() {
    // `try_with` fails only while the thread is being torn down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
            count_call();
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
            count_call();
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
            count_call();
        }
        new
    }
}

/// Restarts the high-water mark at the current live level and returns
/// that level, the base a later [`peak`] is measured from.
pub fn reset_peak() -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    base
}

/// The highest live heap since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the number of allocator calls
/// the calling thread made inside it.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (result, CALLS.with(Cell::get) - before)
}
