//! Host-side span profiling: wall-clock and heap-allocation accounting.
//!
//! The span tree in [`crate`] measures *simulated* cost (rounds, words,
//! messages). This module adds the *host* side — where wall time and heap
//! allocations actually go — without touching the deterministic artifacts:
//!
//! - **Wall time**: when profiling is enabled on a thread, the collector
//!   charges the wall-nanoseconds elapsed between span boundaries to the
//!   innermost open span, exactly the attribution model `Ledger::absorb`
//!   uses for rounds.
//! - **Allocations**: [`CountingAlloc`] is a zero-dependency
//!   [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper the bench bins
//!   install with `#[global_allocator]`. It counts bytes/allocations into
//!   thread-local counters (snapshotted per span boundary, same charging
//!   scheme as wall time) and tracks a process-wide live-bytes high-water
//!   mark ([`peak_alloc_bytes`]).
//!
//! Everything here is strictly opt-in and thread-local
//! ([`set_thread_profiling`]): unit tests and library consumers that never
//! enable profiling keep byte-identical traces, and the flamegraph
//! ([`crate::TraceData::flamegraph`]) never carries profile data at all.
//! Profile samples surface only through run records ([`crate::RunRecord`]) and
//! the Chrome trace export ([`crate::export`]).
//!
//! Determinism note: wall-nanoseconds are machine-dependent and always
//! informational. Allocation counts are deterministic in the default
//! `jobs=1` configuration (single-threaded, same binary ⇒ same
//! allocation sequence) and are gated by `trace_diff` there; any parallel
//! configuration moves allocations onto worker threads, so the counts
//! become schedule-dependent and drop to informational.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

thread_local! {
    /// Whether span profiling is enabled on this thread.
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated on this thread since it started (wrapping).
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations performed on this thread since it started (wrapping).
    static TL_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide live heap bytes (allocated minus freed) as seen by
/// [`CountingAlloc`]. Signed: frees of allocations that predate counter
/// resets may drive it below zero transiently.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Process-wide high-water mark of [`LIVE_BYTES`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Enables or disables span profiling on the current thread. While
/// enabled, the active collector charges wall-nanosecond and allocation
/// deltas to the innermost open span at every span boundary.
pub fn set_thread_profiling(on: bool) {
    PROFILING.with(|p| p.set(on));
}

/// Whether span profiling is enabled on the current thread.
pub fn thread_profiling_enabled() -> bool {
    PROFILING.with(|p| p.get())
}

/// Records one allocation of `bytes` against the current thread's
/// counters and the process-wide live/peak gauges. Called by
/// [`CountingAlloc`]; safe to call manually in tests that do not install
/// the allocator.
pub fn note_alloc(bytes: usize) {
    // `try_with`: the allocator can run during thread teardown; a dead TLS
    // slot must not abort the process, it just loses that thread's tail.
    let _ = TL_ALLOC_BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes as u64)));
    let _ = TL_ALLOC_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Records one deallocation of `bytes` (live-bytes bookkeeping only —
/// per-span charging counts gross allocation, not churn-adjusted).
pub fn note_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

/// The current thread's cumulative `(bytes, allocations)` counters.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        TL_ALLOC_BYTES.with(Cell::get),
        TL_ALLOC_COUNT.with(Cell::get),
    )
}

/// The process-wide live-heap high-water mark in bytes since process
/// start or the last [`reset_peak_alloc`]. Zero when no counting
/// allocator is installed. Machine-layout-dependent — **informational**,
/// never gated (the `wall_ms` convention).
pub fn peak_alloc_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// Restarts peak tracking from the current live-bytes level, so a run
/// record's peak covers exactly that run (bench recorders call this at
/// start).
pub fn reset_peak_alloc() {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    // A concurrent allocation between the load and the store can shave
    // its bytes off the recorded peak; the gauge is informational and the
    // bins reset while still single-threaded.
    PEAK_BYTES.store(live, Ordering::Relaxed);
}

/// A profiling checkpoint: the collector snapshots one at every span
/// boundary and charges the delta since the previous checkpoint to the
/// innermost open span.
pub(crate) struct Mark {
    pub(crate) at: Instant,
    pub(crate) bytes: u64,
    pub(crate) count: u64,
}

impl Mark {
    pub(crate) fn now() -> Mark {
        let (bytes, count) = alloc_snapshot();
        Mark {
            at: Instant::now(),
            bytes,
            count,
        }
    }
}

/// A counting [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper around the
/// system allocator. Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: mwc_trace::profile::CountingAlloc = mwc_trace::profile::CountingAlloc;
/// ```
///
/// Overhead per allocation is two thread-local adds and two relaxed
/// atomics; the allocation itself is delegated untouched, so installing
/// the wrapper never changes program behavior — only observes it.
pub struct CountingAlloc;

// The one unsafe impl in the workspace: a pure pass-through to
// `std::alloc::System` whose only addition is counter bookkeeping. The
// GlobalAlloc contract is inherited verbatim from the system allocator.
#[allow(unsafe_code)]
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = std::alloc::System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = std::alloc::System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = std::alloc::System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // One allocation event for the new block; the old block's
            // bytes leave the live gauge.
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_flag_is_thread_local_and_off_by_default() {
        assert!(!thread_profiling_enabled());
        set_thread_profiling(true);
        assert!(thread_profiling_enabled());
        let other = std::thread::spawn(thread_profiling_enabled).join().unwrap();
        assert!(!other, "flag must not leak across threads");
        set_thread_profiling(false);
        assert!(!thread_profiling_enabled());
    }

    #[test]
    fn alloc_counters_accumulate_and_track_peak() {
        let (b0, c0) = alloc_snapshot();
        reset_peak_alloc();
        let peak0 = peak_alloc_bytes();
        note_alloc(1000);
        note_alloc(24);
        let (b1, c1) = alloc_snapshot();
        assert_eq!(b1 - b0, 1024);
        assert_eq!(c1 - c0, 2);
        assert!(peak_alloc_bytes() >= peak0 + 1024);
        note_dealloc(1000);
        note_dealloc(24);
        // Peak is a high-water mark: frees never lower it.
        assert!(peak_alloc_bytes() >= peak0 + 1024);
    }

    #[test]
    fn reset_peak_restarts_from_live_level() {
        note_alloc(4096);
        note_dealloc(4096);
        let before = peak_alloc_bytes();
        reset_peak_alloc();
        assert!(peak_alloc_bytes() <= before);
    }
}
