//! Memory guards for checkpoint capture and generation load, measured
//! by a counting global allocator on a 20k-vertex, k = 64 store.
//!
//! * Capturing a snapshot shares every sketch (copy-on-write), so it
//!   allocates a pointer-sized entry per vertex, not the slots.
//! * Loading a v3 generation streams the file in chunks, so the load
//!   peaks at about the decoded sketches, never the file beside them.
//!
//! Deterministic: byte counts, no timing. The counters are per thread,
//! so tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphstream::{BarabasiAlbert, EdgeStream};
use streamlink_core::codec::WireFormat;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

struct Counting;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Bytes allocated since the last [`measure`] began.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown as isize - freed as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + grown));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size(), 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size, layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one call cost this thread: bytes allocated in total, and the
/// peak of live bytes above the level at the start.
struct Usage {
    allocated: usize,
    peak: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    ALLOCATED.with(|total| total.set(0));
    let out = f();
    let usage = Usage {
        allocated: ALLOCATED.with(Cell::get),
        peak: (PEAK.with(Cell::get) - start).max(0) as usize,
    };
    (out, usage)
}

fn store() -> SketchStore {
    let mut s = SketchStore::new(SketchConfig::with_slots(64).seed(17));
    s.insert_stream(BarabasiAlbert::new(20_000, 3, 17).edges());
    assert_eq!(s.vertex_count(), 20_000);
    s
}

#[test]
fn capture_allocates_under_five_percent_of_the_slots() {
    let store = store();
    let slot_bytes = store.memory_breakdown().sketch_slot_bytes;
    let (snap, usage) = measure(|| StoreSnapshot::capture(&store));
    assert_eq!(snap.vertices.len(), 20_000);
    assert!(
        usage.allocated * 20 < slot_bytes,
        "capture allocated {} bytes, over 5% of {slot_bytes} slot bytes",
        usage.allocated
    );
}

#[test]
fn v3_generation_load_peaks_within_ten_percent_of_the_slots() {
    let store = store();
    let slot_bytes = store.memory_breakdown().sketch_slot_bytes;
    let path = std::env::temp_dir().join(format!(
        "streamlink-memory-guard-{}.snapshot",
        std::process::id()
    ));
    let written = StoreSnapshot::capture(&store);
    written
        .write_atomic_as(&path, WireFormat::BinaryV3)
        .unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(file_len > 4 << 20, "{file_len}-byte generation");

    let (loaded, usage) = measure(|| StoreSnapshot::read_from(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, written);
    assert!(
        usage.peak * 10 < slot_bytes * 11,
        "load peaked at {} bytes, over {slot_bytes} slot bytes + 10%",
        usage.peak
    );
}
