//! A counting global allocator.
//!
//! Counting is armed only around the one pass that measures memory, so
//! the timed passes pay a single relaxed load per allocation and nothing
//! else. While armed it tracks live bytes (allocated minus freed since
//! arming), their peak, and the total bytes allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator plus byte counters.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if ARMED.load(Relaxed) {
        ALLOCATED.fetch_add(bytes as u64, Relaxed);
        let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ARMED.load(Relaxed) {
        LIVE.fetch_sub(bytes as i64, Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        new
    }
}

/// Starts counting from zero.
pub fn arm() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCATED.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stops counting and returns the peak live bytes since [`arm`].
pub fn disarm() -> u64 {
    ARMED.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as u64
}

/// Bytes allocated since [`arm`] (zero while disarmed and never armed).
pub fn allocated() -> u64 {
    ALLOCATED.load(Relaxed)
}
