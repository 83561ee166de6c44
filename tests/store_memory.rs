//! The trace store never holds a whole `.tlb` image: a cache hit decodes
//! the file in one forward pass through fixed buffers, and a cold ingest
//! hashes and drops the text before it streams the cache out. This test
//! binary counts every allocation to pin those peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use tracelens::model::HeapSize;
use tracelens::prelude::*;
use tracelens::store::{cache_path_for, ingest_path, write_cache};

/// The system allocator plus a live-byte count and its peak.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
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

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak live heap it reached,
/// counted from its start.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, (PEAK.load(Relaxed) - base).max(0) as usize)
}

const MIB: usize = 1 << 20;

/// All peaks in one test, so that no concurrently running test moves
/// the counters.
#[test]
fn ingest_peaks_stay_within_text_plus_data_set() {
    let dir = std::env::temp_dir().join(format!("tracelens-store-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tlt = dir.join("corpus.tlt");
    let mut text = Vec::new();
    DatasetBuilder::new(61)
        .traces(48)
        .build()
        .write_text(&mut text)
        .expect("serialize");
    std::fs::write(&tlt, &text).expect("write corpus");
    let text_len = text.len();
    drop(text);
    let (pool, telemetry) = (Pool::new(1), Telemetry::noop());

    let ((cold, report), cold_peak) =
        peak_of(|| ingest_path(&tlt, true, &pool, &telemetry).expect("cold ingest"));
    assert!(report.cache_written);
    let image_len = std::fs::metadata(cache_path_for(&tlt))
        .expect("cache")
        .len() as usize;
    assert!(image_len > MIB, "the image must outweigh the slack");
    let cold_bound = text_len + cold.heap_size() + MIB;
    assert!(
        cold_peak <= cold_bound,
        "cold ingest peaked at {cold_peak} B, over text {text_len} B + data set {} B + 1 MiB",
        cold.heap_size()
    );
    drop(cold);

    let ((warm, report), warm_peak) =
        peak_of(|| ingest_path(&tlt, true, &pool, &telemetry).expect("cache hit"));
    assert_eq!(report.source, IngestSource::BinaryCache);
    let warm_bound = warm.heap_size() + MIB;
    assert!(
        warm_peak <= warm_bound,
        "cache hit peaked at {warm_peak} B, over data set {} B + 1 MiB ({image_len} B image)",
        warm.heap_size()
    );

    // Packing alone, as `tracelens pack` does, buffers no image either.
    let (written, pack_peak) = peak_of(|| write_cache(&dir.join("packed.tlb"), &warm, 0));
    assert_eq!(written.expect("pack") as usize, image_len);
    assert!(pack_peak <= MIB, "packing peaked at {pack_peak} B");
    let _ = std::fs::remove_dir_all(&dir);
}
