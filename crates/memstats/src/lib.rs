//! # tin-memstats — allocator-level memory measurement
//!
//! The paper's evaluation reports the *peak memory* used by each provenance
//! mechanism (Tables 8 and 10, Figures 5–8). This crate provides a counting
//! global allocator and scoped measurement helpers so the experiment harness
//! can report allocator-level numbers next to the logical footprints computed
//! by `tin-core`'s `MemoryFootprint` trait.
//!
//! ## Usage
//!
//! ```ignore
//! use tin_memstats::{CountingAllocator, MemoryScope};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let scope = MemoryScope::start();
//! // ... run the tracker ...
//! let report = scope.finish();
//! println!("peak while running: {} bytes", report.peak_delta_bytes);
//! ```
//!
//! The allocator is optional: when it is not installed the scope helpers
//! simply report zeros, so library code can call them unconditionally.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Bytes currently allocated through the counting allocator.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Total number of allocation calls.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Whether a [`CountingAllocator`] is installed as the global allocator.
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Allocation calls made by the current thread. Const-initialised and
    /// without a destructor, so the allocator can bump it on any thread at
    /// any point of the thread's life without allocating itself.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocation calls asked for (a reallocation counts its
    /// new size), under the same constraints.
    static THREAD_ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// A global allocator that forwards to the system allocator while counting
/// live bytes, peak bytes and allocation calls.
pub struct CountingAllocator;

impl CountingAllocator {
    /// Create the allocator (const, so it can be used in a `static`).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

fn on_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
    THREAD_ALLOCATED_BYTES.with(|bytes| bytes.set(bytes.get() + size));
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Update the peak with a CAS loop (racy peaks are acceptable for the
    // experiment harness, but we avoid losing large updates).
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: all methods forward to the system allocator with the same layout;
// the bookkeeping uses only atomics and cannot panic or allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// A snapshot of the allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// Bytes currently allocated.
    pub current_bytes: usize,
    /// Peak bytes allocated since process start (or since the last
    /// [`reset_peak`]).
    pub peak_bytes: usize,
    /// Number of allocation calls since process start.
    pub allocations: usize,
}

/// Take a snapshot of the global counters. All zeros when the counting
/// allocator is not installed.
pub fn snapshot() -> MemorySnapshot {
    MemorySnapshot {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    }
}

/// Allocation calls the calling thread has made through the counting
/// allocator since the thread started (0 when the allocator is not
/// installed). Unlike [`MemorySnapshot::allocations`], allocations by other
/// threads — a test harness's main thread, say — never move it.
pub fn thread_allocations() -> usize {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread's allocation calls have asked for since the
/// thread started, freed or not (a reallocation counts its new size; 0 when
/// the allocator is not installed). An upper bound on how far the thread
/// raised the live heap over any span, which other threads never move.
pub fn thread_allocated_bytes() -> usize {
    THREAD_ALLOCATED_BYTES.with(Cell::get)
}

/// True if a [`CountingAllocator`] has observed at least one allocation,
/// i.e. it is installed as the global allocator.
pub fn allocator_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Reset the peak counter to the current live size. Useful between
/// experiment runs within one process.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Result of a [`MemoryScope`] measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Live bytes when the scope started.
    pub start_bytes: usize,
    /// Live bytes when the scope finished.
    pub end_bytes: usize,
    /// Peak bytes observed during the scope, relative to the start
    /// (`max(peak_during - start, 0)`), i.e. the peak *additional* memory the
    /// measured code needed.
    pub peak_delta_bytes: usize,
    /// Net live-byte growth over the scope (`end - start`, clamped at 0).
    pub retained_bytes: usize,
    /// Allocation calls during the scope.
    pub allocations: usize,
}

/// Measures peak and retained allocation over a region of code.
#[derive(Debug)]
pub struct MemoryScope {
    start: MemorySnapshot,
}

impl MemoryScope {
    /// Start a measurement scope. Resets the peak counter so that the peak
    /// reflects only allocations made after this call.
    pub fn start() -> Self {
        reset_peak();
        MemoryScope { start: snapshot() }
    }

    /// Finish the scope and produce a report.
    pub fn finish(self) -> MemoryReport {
        let end = snapshot();
        MemoryReport {
            start_bytes: self.start.current_bytes,
            end_bytes: end.current_bytes,
            peak_delta_bytes: end.peak_bytes.saturating_sub(self.start.current_bytes),
            retained_bytes: end.current_bytes.saturating_sub(self.start.current_bytes),
            allocations: end.allocations.saturating_sub(self.start.allocations),
        }
    }
}

/// Measure a closure: returns its result together with the memory report.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, MemoryReport) {
    let scope = MemoryScope::start();
    let value = f();
    (value, scope.finish())
}

/// Format a byte count for human-readable reports (KB/MB/GB, matching the
/// units used in the paper's tables).
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.2}MB", b / MB)
    } else if b >= KB {
        format!("{:.2}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the counting allocator is deliberately *not* installed in unit
    // tests (installing a global allocator affects the whole test binary).
    // These tests exercise the bookkeeping helpers directly.

    #[test]
    fn snapshot_fields_are_consistent() {
        let s = snapshot();
        // Peak never exceeds what was ever allocated plus live bytes; in this
        // test binary (no global allocator installed) both start at zero.
        assert!(s.peak_bytes >= s.current_bytes || s.current_bytes > 0);
    }

    #[test]
    fn on_alloc_dealloc_bookkeeping() {
        let before = snapshot();
        on_alloc(1024);
        let during = snapshot();
        assert!(during.current_bytes >= before.current_bytes + 1024);
        assert!(during.peak_bytes >= before.current_bytes + 1024);
        assert!(during.allocations > before.allocations);
        on_dealloc(1024);
        let after = snapshot();
        assert!(after.current_bytes <= during.current_bytes);
        assert!(allocator_installed());
    }

    #[test]
    fn thread_allocations_count_only_the_calling_thread() {
        let (before, bytes_before) = (thread_allocations(), thread_allocated_bytes());
        on_alloc(8);
        on_dealloc(8);
        assert_eq!(thread_allocations(), before + 1);
        assert_eq!(thread_allocated_bytes(), bytes_before + 8);
        std::thread::spawn(|| {
            on_alloc(8);
            on_dealloc(8);
        })
        .join()
        .unwrap();
        assert_eq!(thread_allocations(), before + 1);
        assert_eq!(thread_allocated_bytes(), bytes_before + 8);
    }

    #[test]
    fn scope_reports_growth() {
        let scope = MemoryScope::start();
        on_alloc(4096);
        let report = scope.finish();
        assert!(report.peak_delta_bytes >= 4096);
        assert!(report.retained_bytes >= 4096);
        assert!(report.allocations >= 1);
        on_dealloc(4096);
    }

    #[test]
    fn measure_returns_value_and_report() {
        let (value, report) = measure(|| {
            on_alloc(100);
            on_dealloc(100);
            42
        });
        assert_eq!(value, 42);
        assert!(report.allocations >= 1);
    }

    #[test]
    fn reset_peak_clamps_to_current() {
        on_alloc(10_000);
        on_dealloc(10_000);
        reset_peak();
        let s = snapshot();
        assert_eq!(s.peak_bytes, s.current_bytes);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(10), "10B");
        assert_eq!(format_bytes(2048), "2.00KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00MB");
        assert_eq!(format_bytes(4 * 1024 * 1024 * 1024), "4.00GB");
    }

    #[test]
    fn default_constructor() {
        let _a: CountingAllocator = Default::default();
        let _b = CountingAllocator::new();
    }
}
